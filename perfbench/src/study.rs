//! `study`: regenerate the paper's full 11-panel grid.
//!
//! Each repetition runs `shard::run_study_sharded` over every figure
//! panel of `StudyConfig::default()` with a fresh study seed derived from
//! the workload seed. Functional verification is memoised per seed, so a
//! fresh seed makes every repetition pay it, as a user does in every
//! fresh process.

use crate::util::{secs, Rng};
use perfport_core::shard::{render_study_csv, run_study_sharded, PointResult, Shard};
use perfport_core::{figure_specs, RunError, StudyConfig};
use perfport_gemm::Tolerance;
use perfport_half::F16;
use perfport_machines::Precision;
use std::time::Instant;

/// Contraction length of the study's functional verification: the
/// runner verifies CPU curves at n = 48 and GPU curves at n = 96; the
/// longer one gives the looser (still precision-scaled) bound.
const VERIFY_K: usize = 96;

/// One grid regeneration.
pub struct Grid {
    /// The study seed it ran with.
    pub seed: u64,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Per-point outcomes in canonical order.
    pub results: Vec<PointResult>,
}

/// The loaded `study` workload.
pub struct Study {
    ids: Vec<&'static str>,
    seeds: Rng,
}

impl Study {
    /// Set-up: the panel list, the seed stream, and one warm-up grid.
    pub fn setup(seed: u64, jobs: usize) -> Study {
        let mut s = Study {
            ids: figure_specs().iter().map(|f| f.id).collect(),
            seeds: Rng::new(seed, "study/seeds"),
        };
        let cold = s.fresh_seed();
        s.run(cold, jobs);
        s
    }

    /// A study seed no earlier repetition of this process used.
    pub fn fresh_seed(&mut self) -> u64 {
        self.seeds.next_u64()
    }

    /// Regenerates the full grid for `seed` with `jobs` workers.
    pub fn run(&self, seed: u64, jobs: usize) -> Grid {
        let cfg = StudyConfig {
            seed,
            ..StudyConfig::default()
        };
        let t0 = Instant::now();
        let results = run_study_sharded(&self.ids, &cfg, Shard::FULL, jobs);
        Grid {
            seed,
            seconds: secs(t0),
            results,
        }
    }

    /// The expected number of grid points.
    pub fn grid_len(&self) -> usize {
        perfport_core::shard::full_study_grid(&StudyConfig::default()).len()
    }
}

impl Grid {
    /// Points the support matrix rules out.
    pub fn unsupported(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Err(RunError::Unsupported { .. })))
            .count()
    }

    /// Per-point check: supported points verified within the precision's
    /// tolerance, unsupported points refused by the support matrix, none
    /// failed. Returns a description of each bad point.
    pub fn bad_points(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for r in &self.results {
            let p = &r.point;
            match &r.outcome {
                Ok(run) => {
                    let tol = match p.precision {
                        Precision::Double => Tolerance::for_gemm::<f64>(VERIFY_K),
                        Precision::Single => Tolerance::for_gemm::<f32>(VERIFY_K),
                        Precision::Half => Tolerance::for_gemm::<F16>(VERIFY_K),
                    };
                    if !(run.rel_err.is_finite() && run.rel_err <= tol.rel) {
                        bad.push(format!(
                            "{} {:?} {:?} n={}: rel_err {} over {}",
                            p.figure, p.arch, p.model, p.n, run.rel_err, tol.rel
                        ));
                    }
                }
                Err(RunError::Unsupported { .. }) => {}
                Err(e) => bad.push(format!(
                    "{} {:?} {:?} n={}: {e}",
                    p.figure, p.arch, p.model, p.n
                )),
            }
        }
        bad
    }

    /// The canonical per-point CSV.
    pub fn csv(&self) -> String {
        render_study_csv(&self.results, true)
    }
}
