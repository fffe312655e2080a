//! `serve`: a closed loop of small mixed-precision GEMM batches.
//!
//! One caller submits batches of [`BATCH`] requests back to back through
//! `batch::gemm_batch`; the next batch is submitted only after the
//! previous one returns. Shapes come from the `serve_gemm` menu, every
//! dimension drawn from [`SIZES`], with F64/F32/F16 at 25/50/25%. Every
//! request gets fresh operands from the seed, so the stream's working
//! set stays far above L2 as real traffic does. Operands are generated
//! [`CHUNK`] batches ahead (about 12 MB, several times the per-core L2),
//! so generation and the output check stay out of the back-to-back
//! submissions.

use crate::util::{secs, Rng};
use perfport_gemm::batch::{self, Output, Precision, Problem};
use perfport_gemm::{Layout, Matrix};
use perfport_pool::ThreadPool;
use std::time::Instant;

/// Requests per batch.
pub const BATCH: usize = 32;
/// Batches generated ahead and then served back to back.
pub const CHUNK: usize = 64;
/// The `serve_gemm` shape menu: every dimension is one of these.
pub const SIZES: [usize; 8] = [4, 8, 12, 16, 24, 32, 48, 64];
/// The precisions of the menu, in canonical bucket order.
pub const PRECISIONS: [Precision; 3] = [Precision::F64, Precision::F32, Precision::F16];

/// One request of the menu: precision and `(m, n, k)`.
pub type Cell = (Precision, usize, usize, usize);

/// Materialises a request with fresh operands drawn from `rng`.
pub fn problem((precision, m, n, k): Cell, rng: &mut Rng) -> Problem {
    let (sa, sb) = (rng.next_u64(), rng.next_u64());
    let l = Layout::RowMajor;
    match precision {
        Precision::F64 => {
            Problem::new_f64(Matrix::random(m, k, l, sa), Matrix::random(k, n, l, sb))
        }
        Precision::F32 => {
            Problem::new_f32(Matrix::random(m, k, l, sa), Matrix::random(k, n, l, sb))
        }
        Precision::F16 => {
            Problem::new_f16(Matrix::random(m, k, l, sa), Matrix::random(k, n, l, sb))
        }
    }
}

/// Draws one menu cell with the serving mix's precision weights.
pub fn draw_cell(rng: &mut Rng) -> Cell {
    let (m, n, k) = (
        SIZES[rng.below(SIZES.len())],
        SIZES[rng.below(SIZES.len())],
        SIZES[rng.below(SIZES.len())],
    );
    let p = rng.unit();
    let precision = if p < 0.25 {
        Precision::F64
    } else if p < 0.75 {
        Precision::F32
    } else {
        Precision::F16
    };
    (precision, m, n, k)
}

/// Every cell of the menu exactly once, in a seeded shuffled order: a
/// stream whose set of shapes does not depend on the seed.
pub fn all_cells(rng: &mut Rng) -> Vec<Cell> {
    let mut cells = Vec::new();
    for p in PRECISIONS {
        for m in SIZES {
            for n in SIZES {
                for k in SIZES {
                    cells.push((p, m, n, k));
                }
            }
        }
    }
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i + 1));
    }
    cells
}

/// Byte-equality of two output lists (the batch ≡ serial contract).
pub fn same_bytes(a: &[Output], b: &[Output]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_le_bytes() == y.to_le_bytes())
}

/// The loaded `serve` workload: the pool, the request stream, and the
/// next chunk of batches.
pub struct Serve {
    /// The serving pool.
    pub pool: ThreadPool,
    rng: Rng,
    chunk: Vec<Vec<Problem>>,
}

impl Serve {
    /// Set-up: pool, tuned parameters of every bucket precision, one
    /// warm-up batch, and the first chunk of requests.
    pub fn setup(seed: u64, threads: usize) -> Serve {
        let mut s = Serve {
            pool: ThreadPool::new(threads),
            rng: Rng::new(seed, "serve/requests"),
            chunk: Vec::new(),
        };
        for p in PRECISIONS {
            let key = batch::BucketKey {
                precision: p,
                m: SIZES[0],
                n: SIZES[0],
                k: SIZES[0],
            };
            std::hint::black_box(batch::bucket_params(&key));
        }
        let warm = s.next_batch();
        std::hint::black_box(batch::gemm_batch(&s.pool, &warm));
        s.chunk = (0..CHUNK).map(|_| s.next_batch()).collect();
        s
    }

    /// The next batch of the stream, with fresh operands.
    pub fn next_batch(&mut self) -> Vec<Problem> {
        (0..BATCH)
            .map(|_| {
                let cell = draw_cell(&mut self.rng);
                problem(cell, &mut self.rng)
            })
            .collect()
    }

    /// Serves the pending chunk back to back, then checks every batch
    /// against `gemm_batch_serial` and generates the next chunk (both
    /// untimed). Returns `(service seconds, outputs match)` per batch.
    pub fn serve_chunk(&mut self) -> Vec<(f64, bool)> {
        let served: Vec<(f64, Vec<Output>)> = self.chunk.iter().map(|b| self.serve(b)).collect();
        let checked = served
            .into_iter()
            .zip(&self.chunk)
            .map(|((t, out), b)| (t, same_bytes(&out, &batch::gemm_batch_serial(b))))
            .collect();
        self.chunk = (0..CHUNK).map(|_| self.next_batch()).collect();
        checked
    }

    /// Serves one batch through the pool: `(service seconds, outputs)`.
    pub fn serve(&self, problems: &[Problem]) -> (f64, Vec<Output>) {
        let t0 = Instant::now();
        let out = batch::gemm_batch(&self.pool, problems);
        (secs(t0), out)
    }

    /// The same batch through the serial reference path.
    pub fn serve_serial(problems: &[Problem]) -> (f64, Vec<Output>) {
        let t0 = Instant::now();
        let out = batch::gemm_batch_serial(problems);
        (secs(t0), out)
    }
}
