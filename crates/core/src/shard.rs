//! Deterministic sharding of the study grid.
//!
//! The paper's evaluation is a grid of machine × model × precision ×
//! size points (Figs. 4–7), every one of them deterministic and
//! independent: the noise streams are seeded per point
//! ([`crate::noise`]) and functional verification depends only on the
//! (variant, precision, seed) combination. This module exploits that to
//! fan the grid out:
//!
//! * [`study_grid`] enumerates the grid behind a set of figure panels as
//!   stable [`GridPoint`]s in **canonical order** (panels in the order
//!   given, then curves in the panel's model order, then sizes in sweep
//!   order);
//! * [`Shard`] maps canonical indices to shards deterministically: shard
//!   `i` of `n` owns the contiguous index range
//!   `[⌊i·P/n⌋, ⌊(i+1)·P/n⌋)` of a `P`-point grid, so every point lands
//!   in exactly one shard for *any* `n` and concatenating the shards in
//!   index order reproduces the canonical order;
//! * [`run_study_sharded`] executes one shard's points — optionally in
//!   parallel across a `perfport-pool` worker team — and returns the
//!   results in canonical order;
//! * [`render_study_csv`] emits the canonical per-point CSV artifact.
//!
//! # The byte-identity contract
//!
//! For a fixed grid, concatenating the CSV emitted by shards `0/n`,
//! `1/n`, …, `n-1/n` (header on shard 0 only) is **byte-identical** to
//! the single-shot `0/1` artifact, for every `n` and every `jobs` count:
//! execution order and worker interleaving never reach the output
//! because results are collected per point and emitted in canonical
//! order after the join. The property tests in
//! `crates/core/tests/shard_props.rs` assert this for arbitrary
//! partitions of the quick grid.

use crate::experiment::{Experiment, RunError, SizePoint};
use crate::runner::run_experiment;
use crate::study::{figure_specs, StudyConfig};
use perfport_machines::Precision;
use perfport_models::{Arch, ProgModel};
use perfport_pool::{Schedule, ThreadPool};

/// One point of the study grid: a (figure, model, precision, size) cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GridPoint {
    /// The figure panel this point belongs to, e.g. `"fig7a"`.
    pub figure: &'static str,
    /// The machine the panel measures.
    pub arch: Arch,
    /// The programming model of the curve.
    pub model: ProgModel,
    /// The precision panel.
    pub precision: Precision,
    /// Square matrix size.
    pub n: usize,
}

/// A shard selector: shard `index` of `count`, written `index/count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shard {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards, `>= 1`.
    pub count: usize,
}

impl Shard {
    /// The whole grid as a single shard (`0/1`): the single-shot run.
    pub const FULL: Shard = Shard { index: 0, count: 1 };

    /// Parses the `i/n` syntax used by the `--shard` flag.
    ///
    /// ```
    /// use perfport_core::Shard;
    ///
    /// assert_eq!(Shard::parse("1/4"), Ok(Shard { index: 1, count: 4 }));
    /// assert!(Shard::parse("4/4").is_err());
    /// assert!(Shard::parse("1of4").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// A message naming the malformed part: not `i/n`, unparsable
    /// numbers, `n == 0`, or `i >= n`.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let bad = || format!("invalid shard '{s}' (expected i/n with 0 <= i < n)");
        let (i, n) = s.split_once('/').ok_or_else(bad)?;
        let index: usize = i.trim().parse().map_err(|_| bad())?;
        let count: usize = n.trim().parse().map_err(|_| bad())?;
        if count == 0 || index >= count {
            return Err(bad());
        }
        Ok(Shard { index, count })
    }

    /// The contiguous canonical-index range this shard owns out of
    /// `total` grid points: `[⌊i·total/n⌋, ⌊(i+1)·total/n⌋)`.
    ///
    /// The floor-monotone endpoints tile `0..total` exactly, so every
    /// index lands in exactly one shard and shard sizes differ by at
    /// most one point.
    pub fn range(&self, total: usize) -> std::ops::Range<usize> {
        (self.index * total / self.count)..((self.index + 1) * total / self.count)
    }

    /// The shard owning canonical index `idx` of a `total`-point grid
    /// (the inverse of [`Shard::range`]).
    pub fn owner_of(idx: usize, total: usize, count: usize) -> usize {
        debug_assert!(idx < total);
        // ⌊i·total/count⌋ <= idx  ⟺  i <= idx·count/total (integer div
        // rounds the candidate down, so take the floor and it is exact).
        (idx * count + count - 1) / total.max(1)
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Enumerates the study grid behind the given figure panels in canonical
/// order: panels in the order given, then the panel's curves in model
/// order, then the configuration's sizes in sweep order.
///
/// # Panics
///
/// Panics on an unregistered figure id, like the figure binaries do.
pub fn study_grid(ids: &[&str], cfg: &StudyConfig) -> Vec<GridPoint> {
    let specs = figure_specs();
    let mut grid = Vec::new();
    for id in ids {
        let spec = specs
            .iter()
            .find(|s| s.id == *id)
            .unwrap_or_else(|| panic!("unknown figure id {id}"));
        for &model in &spec.models {
            for &n in cfg.sizes_for(spec.arch) {
                grid.push(GridPoint {
                    figure: spec.id,
                    arch: spec.arch,
                    model,
                    precision: spec.precision,
                    n,
                });
            }
        }
    }
    grid
}

/// Every panel of the paper's evaluation as one grid (Figs. 4–7).
pub fn full_study_grid(cfg: &StudyConfig) -> Vec<GridPoint> {
    let specs = figure_specs();
    let ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
    study_grid(&ids, cfg)
}

/// The measured outcome of one grid point.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The point's throughput sample.
    pub size: SizePoint,
    /// Worst relative error of the curve's functional verification.
    pub rel_err: f64,
    /// Documented-workaround note, when the combination is partial.
    pub note: Option<String>,
}

/// One grid point together with its outcome (unsupported combinations
/// are results too — the paper renders them as gaps).
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The grid point that ran.
    pub point: GridPoint,
    /// The outcome: a measurement, or why the combination cannot run.
    pub outcome: Result<PointRun, RunError>,
}

/// Runs one grid point and pairs it with its outcome — the unit of work
/// the distributed study service (`perfport-serve`) leases to workers:
/// a coordinator hands out contiguous canonical-index ranges and each
/// worker maps this function over its range, so the wire service and
/// the in-process sharded runner execute identical per-point code.
pub fn run_grid_point(p: &GridPoint, cfg: &StudyConfig) -> PointResult {
    PointResult {
        point: p.clone(),
        outcome: run_point(p, cfg),
    }
}

/// Runs one grid point as a single-size experiment.
fn run_point(p: &GridPoint, cfg: &StudyConfig) -> Result<PointRun, RunError> {
    let mut e = Experiment::new(p.arch, p.model, p.precision, vec![p.n]);
    e.reps = cfg.reps;
    e.seed = cfg.seed;
    let r = run_experiment(&e)?;
    let size = r
        .points
        .into_iter()
        .next()
        .expect("single-size experiment yields one point");
    Ok(PointRun {
        size,
        rel_err: r.verification_rel_err,
        note: r.support_note,
    })
}

/// Executes shard `shard` of the study grid behind `ids` across `jobs`
/// workers and returns its points' results **in canonical order**.
///
/// `jobs == 1` runs the shard serially on the calling thread; `jobs > 1`
/// fans the points out over a [`ThreadPool`] through one `parallel_map`
/// with `Schedule::Dynamic { chunk: 1 }` — each point is one work item
/// (the grid is embarrassingly parallel), so a slow point (a big `n`)
/// occupies one worker while the others keep drawing points. Either way
/// the returned order, and therefore any output rendered from it, is
/// independent of execution interleaving.
pub fn run_study_sharded(
    ids: &[&str],
    cfg: &StudyConfig,
    shard: Shard,
    jobs: usize,
) -> Vec<PointResult> {
    let grid = study_grid(ids, cfg);
    let own = shard.range(grid.len());
    let points = &grid[own.clone()];
    let jobs = jobs.max(1);

    let mut sp = perfport_trace::span("study", "sharded");
    if sp.is_recording() {
        sp.arg("shard", shard.to_string());
        sp.arg("jobs", jobs);
        sp.arg("grid_points", grid.len());
        sp.arg("shard_points", points.len());
    }

    let outcomes: Vec<Result<PointRun, RunError>> = if jobs == 1 {
        points.iter().map(|p| run_point(p, cfg)).collect()
    } else {
        let pool = ThreadPool::new(jobs);
        pool.parallel_map(points.len(), Schedule::Dynamic { chunk: 1 }, |i| {
            run_point(&points[i], cfg)
        })
    };

    points
        .iter()
        .zip(outcomes)
        .map(|(point, outcome)| PointResult {
            point: point.clone(),
            outcome,
        })
        .collect()
}

/// The header line of the canonical per-point study CSV.
pub const STUDY_CSV_HEADER: &str =
    "figure,arch,model,precision,n,gflops,seconds,bound,rel_err,status";

/// Renders shard results as the canonical per-point CSV artifact, one
/// line per grid point in canonical order.
///
/// `header` controls whether the [`STUDY_CSV_HEADER`] line is emitted;
/// the sharded binaries emit it on shard 0 only, so concatenating the
/// shards' stdout in index order reproduces the single-shot artifact
/// byte for byte. Unsupported combinations keep their row (empty
/// measurement cells, status `unsupported`) so every shard's line count
/// equals its point count.
pub fn render_study_csv(results: &[PointResult], header: bool) -> String {
    let mut out = String::new();
    if header {
        out.push_str(STUDY_CSV_HEADER);
        out.push('\n');
    }
    for r in results {
        let p = &r.point;
        out.push_str(&format!(
            "{},{:?},{:?},{},{},",
            p.figure,
            p.arch,
            p.model,
            p.precision.label(),
            p.n
        ));
        match &r.outcome {
            Ok(run) => out.push_str(&format!(
                "{:.3},{:.6e},{:?},{:.3e},ok\n",
                run.size.gflops, run.size.seconds, run.size.bound, run.rel_err
            )),
            Err(RunError::Unsupported { .. }) => out.push_str(",,,,unsupported\n"),
            Err(RunError::VerificationFailed(_)) => out.push_str(",,,,failed\n"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_round_trips_and_rejects_junk() {
        assert_eq!(Shard::parse("0/1"), Ok(Shard::FULL));
        assert_eq!(Shard::parse("2/5"), Ok(Shard { index: 2, count: 5 }));
        assert_eq!(Shard::parse("2/5").unwrap().to_string(), "2/5");
        for bad in [
            "", "1", "1/", "/2", "a/2", "1/b", "2/2", "3/2", "1/0", "-1/2",
        ] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn shard_ranges_tile_the_grid() {
        for total in [0usize, 1, 7, 44, 100] {
            for count in 1..=9 {
                let mut covered = 0;
                let mut next = 0;
                for index in 0..count {
                    let r = Shard { index, count }.range(total);
                    assert_eq!(r.start, next, "shard {index}/{count} of {total}");
                    next = r.end;
                    covered += r.len();
                }
                assert_eq!(next, total);
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn canonical_order_is_figure_then_model_then_size() {
        let cfg = StudyConfig::quick();
        let grid = study_grid(&["fig7a", "fig4a"], &cfg);
        // fig7a: 4 models × 2 GPU sizes, then fig4a: 4 models × 2 CPU sizes.
        assert_eq!(grid.len(), 16);
        assert!(grid[..8].iter().all(|p| p.figure == "fig7a"));
        assert!(grid[8..].iter().all(|p| p.figure == "fig4a"));
        assert_eq!(grid[0].model, ProgModel::Cuda);
        assert_eq!(grid[0].n, cfg.gpu_sizes[0]);
        assert_eq!(grid[1].n, cfg.gpu_sizes[1]);
        assert_eq!(grid[1].model, ProgModel::Cuda);
        assert_eq!(grid[2].model, ProgModel::KokkosCuda);
        assert_eq!(grid[8].arch, Arch::Epyc7A53);
    }

    #[test]
    fn full_quick_grid_covers_every_panel() {
        let cfg = StudyConfig::quick();
        let grid = full_study_grid(&cfg);
        // 11 panels; CPU panels sweep 2 quick sizes, GPU panels 2.
        let figures: std::collections::BTreeSet<_> = grid.iter().map(|p| p.figure).collect();
        assert_eq!(figures.len(), 11);
        // Eleven panels with 4+4+4+4+1+3+3+1+4+4+2 curves × 2 sizes.
        assert_eq!(grid.len(), 34 * 2);
    }

    #[test]
    fn sharded_results_match_the_figure_runner_bitwise() {
        let cfg = StudyConfig::quick();
        let spec = figure_specs()
            .into_iter()
            .find(|s| s.id == "fig7a")
            .unwrap();
        let serial = spec.run(&cfg);
        let sharded = run_study_sharded(&["fig7a"], &cfg, Shard::FULL, 1);
        for r in &sharded {
            let (_, curve) = serial
                .iter()
                .find(|(m, _)| *m == r.point.model)
                .expect("curve present");
            let run = r.outcome.as_ref().expect("fig7a fully supported");
            let point = curve
                .as_ref()
                .expect("fig7a fully supported")
                .at(r.point.n)
                .expect("size swept");
            assert_eq!(point.gflops.to_bits(), run.size.gflops.to_bits());
            assert_eq!(point.samples, run.size.samples);
        }
    }

    #[test]
    fn unsupported_points_keep_their_rows() {
        let point = GridPoint {
            figure: "fig6a",
            arch: Arch::Mi250x,
            model: ProgModel::NumbaCuda,
            precision: Precision::Double,
            n: 4096,
        };
        let results = vec![PointResult {
            point,
            outcome: Err(RunError::Unsupported {
                model: ProgModel::NumbaCuda,
                arch: Arch::Mi250x,
                reason: "deprecated backend".into(),
            }),
        }];
        let csv = render_study_csv(&results, true);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(STUDY_CSV_HEADER));
        assert_eq!(
            lines.next(),
            Some("fig6a,Mi250x,NumbaCuda,FP64,4096,,,,,unsupported")
        );
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn csv_line_count_matches_point_count() {
        let cfg = StudyConfig::quick();
        let results = run_study_sharded(&["fig5c"], &cfg, Shard::FULL, 1);
        assert_eq!(results.len(), 2);
        let csv = render_study_csv(&results, true);
        assert_eq!(csv.lines().count(), 1 + results.len());
        let headerless = render_study_csv(&results, false);
        assert_eq!(headerless.lines().count(), results.len());
    }

    #[test]
    fn jobs_do_not_change_results() {
        let cfg = StudyConfig::quick();
        let serial = run_study_sharded(&["fig6a", "fig6c"], &cfg, Shard::FULL, 1);
        let parallel = run_study_sharded(&["fig6a", "fig6c"], &cfg, Shard::FULL, 4);
        assert_eq!(
            render_study_csv(&serial, true),
            render_study_csv(&parallel, true)
        );
    }

    #[test]
    fn odd_team_sizes_do_not_change_results() {
        let cfg = StudyConfig::quick();
        let ids = ["fig6a", "fig6c"];
        let serial = run_study_sharded(&ids, &cfg, Shard::FULL, 1);
        let want = render_study_csv(&serial, true);
        for jobs in [2, 7] {
            let got = run_study_sharded(&ids, &cfg, Shard::FULL, jobs);
            assert_eq!(
                render_study_csv(&got, true),
                want,
                "jobs={jobs} diverged from serial"
            );
        }
    }
}
