//! `dense` and `naive`: the paper's square GEMMs on the host.
//!
//! A `dense` round is the tuned vendor kernel (`tuned::gemm`) at
//! n = 1024 in FP64 and then FP32. A `naive` round is each of the four
//! portable models (`CpuVariant::ALL` through `par_gemm` with the paper's
//! `Schedule::StaticBlock`) at n = 512 in FP64. They are separate
//! workloads so that each has its own end-to-end gate: in one combined
//! round the portable models take about 90% of the time and would hide
//! a regression of the tuned kernel. Every kernel gets one warm-up call
//! during set-up, so timed calls exclude first-touch and lazy
//! initialisation (the paper's protocol).

use crate::util::{gemm_gflops, median, secs, Rng};
use perfport_gemm::{
    par_gemm, tuned, verify_gemm, CpuVariant, Layout, Matrix, Scalar, TunedParams,
};
use perfport_pool::{RegionStats, Schedule, ThreadPool};
use std::hint::black_box;
use std::time::Instant;

/// Size of the tuned vendor GEMMs.
pub const N_TUNED: usize = 1024;
/// Size of the portable-model GEMMs.
pub const N_NAIVE: usize = 512;
/// Output rows re-derived by `verify_gemm` per checked call: a seeded
/// sample across all row blocks, at the call's full contraction length
/// (a full 1024³ reference takes seconds).
const CHECK_ROWS: usize = 32;

/// One GEMM problem with its output buffer.
struct Operands<T> {
    a: Matrix<T>,
    b: Matrix<T>,
    c: Matrix<T>,
}

impl<T: Scalar> Operands<T> {
    fn new(n: usize, layout: Layout, rng: &mut Rng) -> Self {
        Operands {
            a: Matrix::random(n, n, layout, rng.next_u64()),
            b: Matrix::random(n, n, layout, rng.next_u64()),
            c: Matrix::zeros(n, n, layout),
        }
    }

    /// `verify_gemm` over a seeded sample of rows of the last output.
    fn verify_rows(&self, rng: &mut Rng) -> Result<f64, String> {
        let rows: Vec<usize> = (0..CHECK_ROWS).map(|_| rng.below(self.c.rows())).collect();
        let (k, n, layout) = (self.a.cols(), self.c.cols(), self.c.layout());
        let a = Matrix::from_fn(CHECK_ROWS, k, layout, |i, l| self.a[(rows[i], l)]);
        let c = Matrix::from_fn(CHECK_ROWS, n, layout, |i, j| self.c[(rows[i], j)]);
        verify_gemm(&a, &self.b, &c)
    }
}

/// The loaded `dense` workload: the tuned vendor kernel.
pub struct Tuned {
    pool: ThreadPool,
    p64: TunedParams,
    p32: TunedParams,
    f64s: Operands<f64>,
    f32s: Operands<f32>,
    /// Region statistics of every parallel call since set-up.
    pub regions: Vec<RegionStats>,
}

impl Tuned {
    /// Set-up: pool, tuned parameters, seeded inputs, one warm-up round.
    pub fn setup(seed: u64, threads: usize) -> Tuned {
        let mut rng = Rng::new(seed, "dense/operands");
        let mut t = Tuned {
            pool: ThreadPool::new(threads),
            p64: TunedParams::host::<f64>(),
            p32: TunedParams::host::<f32>(),
            f64s: Operands::new(N_TUNED, Layout::RowMajor, &mut rng),
            f32s: Operands::new(N_TUNED, Layout::RowMajor, &mut rng),
            regions: Vec::new(),
        };
        t.round();
        t.regions.clear();
        t
    }

    /// One timed `tuned::gemm` call in FP64.
    pub fn f64(&mut self) -> f64 {
        let o = &mut self.f64s;
        o.c.fill_zero();
        let t0 = Instant::now();
        let stats = tuned::gemm(
            &self.pool,
            black_box(&o.a),
            black_box(&o.b),
            &mut o.c,
            &self.p64,
        );
        let s = secs(t0);
        self.regions.push(stats);
        s
    }

    /// One timed `tuned::gemm` call in FP32.
    pub fn f32(&mut self) -> f64 {
        let o = &mut self.f32s;
        o.c.fill_zero();
        let t0 = Instant::now();
        let stats = tuned::gemm(
            &self.pool,
            black_box(&o.a),
            black_box(&o.b),
            &mut o.c,
            &self.p32,
        );
        let s = secs(t0);
        self.regions.push(stats);
        s
    }

    /// One timed round: `[FP64, FP32]` call seconds.
    pub fn round(&mut self) -> [f64; 2] {
        [self.f64(), self.f32()]
    }

    /// Single-thread baseline: `tuned::gemm_serial` at n = 1024, FP64.
    pub fn serial_f64(&mut self) -> f64 {
        let o = &mut self.f64s;
        o.c.fill_zero();
        let t0 = Instant::now();
        tuned::with_thread_arena(|arena| {
            tuned::gemm_serial(black_box(&o.a), black_box(&o.b), &mut o.c, &self.p64, arena)
        });
        secs(t0)
    }

    /// `verify_gemm` on the last output of each precision.
    pub fn verify(&self, seed: u64) -> Vec<(String, Result<f64, String>)> {
        let mut rng = Rng::new(seed, "dense/check-rows");
        vec![
            ("tuned-f64".to_string(), self.f64s.verify_rows(&mut rng)),
            ("tuned-f32".to_string(), self.f32s.verify_rows(&mut rng)),
        ]
    }
}

/// The loaded `naive` workload: the four portable models.
pub struct Naive {
    pool: ThreadPool,
    cases: Vec<(CpuVariant, Operands<f64>)>,
    /// Region statistics of every call since set-up.
    pub regions: Vec<RegionStats>,
}

impl Naive {
    /// Set-up: pool, seeded inputs in each model's layout, one warm-up
    /// round.
    pub fn setup(seed: u64, threads: usize) -> Naive {
        let mut rng = Rng::new(seed, "naive/operands");
        let mut n = Naive {
            pool: ThreadPool::new(threads),
            cases: CpuVariant::ALL
                .iter()
                .map(|&v| (v, Operands::new(N_NAIVE, v.layout(), &mut rng)))
                .collect(),
            regions: Vec::new(),
        };
        n.round();
        n.regions.clear();
        n
    }

    /// One timed `par_gemm` call of the `i`-th portable model.
    pub fn call(&mut self, i: usize) -> f64 {
        let (variant, o) = &mut self.cases[i];
        o.c.fill_zero();
        let t0 = Instant::now();
        let stats = par_gemm(
            &self.pool,
            *variant,
            black_box(&o.a),
            black_box(&o.b),
            &mut o.c,
            Schedule::StaticBlock,
        );
        let s = secs(t0);
        self.regions.push(stats);
        s
    }

    /// One timed round: call seconds in `CpuVariant::ALL` order.
    pub fn round(&mut self) -> [f64; 4] {
        [0, 1, 2, 3].map(|i| self.call(i))
    }

    /// `verify_gemm` on the last output of every model.
    pub fn verify(&self, seed: u64) -> Vec<(String, Result<f64, String>)> {
        let mut rng = Rng::new(seed, "naive/check-rows");
        self.cases
            .iter()
            .map(|(v, o)| (format!("{}-f64", v.name()), o.verify_rows(&mut rng)))
            .collect()
    }
}

/// Median per-call rate, GFLOP/s, of column `i` of `rounds` at size `n`.
pub fn rate<const K: usize>(rounds: &[[f64; K]], i: usize, n: usize) -> f64 {
    gemm_gflops(n, median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
}

/// The four portable models' median rates and their geometric mean.
pub fn naive_rates(rounds: &[[f64; 4]]) -> ([f64; 4], f64) {
    let rates = [0, 1, 2, 3].map(|i| rate(rounds, i, N_NAIVE));
    (rates, crate::util::geomean(&rates))
}
