//! One hand-rolled GEMM kernel per CPU programming model, transcribing the
//! loop structures of the paper's Fig. 2.
//!
//! The four models express the *same* naive algorithm with different
//! memory idioms:
//!
//! * **C/OpenMP** (Fig. 2a) — row-major, `#pragma omp parallel for` over
//!   rows, `ikj` order with the `A[i,k]` value hoisted into a register.
//! * **Kokkos** (Fig. 2b) — a lambda computing one entry of `C` (a dot
//!   product), dispatched over rows; row-major host layout.
//! * **Julia** (Fig. 2c) — column-major, `@threads` over columns of `C`,
//!   `jli` order with `B[l,j]` hoisted, `@inbounds` bounds-check removal.
//! * **Python/Numba** (Fig. 2d) — row-major NumPy arrays, `prange` over
//!   rows, `ikj` order, `fastmath=True` (contractions allowed).
//!
//! Each kernel is written against raw storage slices the way the original
//! is written against raw pointers/arrays, and each can run serially or on
//! a chunk of its parallel dimension (for the work-sharing runtime in
//! [`crate::parallel`]). A chunk is given only its own rows (columns for
//! Julia) of `C`, so the kernels stay safe code where the originals switch
//! bounds checks off.

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use perfport_pool::Chunk;
use std::fmt;

/// The CPU programming models compared in the paper's Figs. 4–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuVariant {
    /// Vendor-compiled C with OpenMP pragmas (the reference model).
    OpenMpC,
    /// Kokkos with the OpenMP backend.
    KokkosLambda,
    /// Julia `Threads.@threads`.
    JuliaThreads,
    /// Python/Numba `@njit(parallel=True)` with `prange`.
    NumbaPrange,
}

impl CpuVariant {
    /// The four portable models in the paper's presentation order. The
    /// vendor baseline they are judged against is [`crate::tuned::gemm`].
    pub const ALL: [CpuVariant; 4] = [
        CpuVariant::OpenMpC,
        CpuVariant::KokkosLambda,
        CpuVariant::JuliaThreads,
        CpuVariant::NumbaPrange,
    ];

    /// The storage layout the host language defaults to.
    pub fn layout(&self) -> Layout {
        match self {
            CpuVariant::JuliaThreads => Layout::ColMajor,
            _ => Layout::RowMajor,
        }
    }

    /// Length of the parallelised dimension for an `m×n` output: rows for
    /// the row-major models, columns for Julia.
    pub fn parallel_extent(&self, m: usize, n: usize) -> usize {
        match self {
            CpuVariant::JuliaThreads => n,
            _ => m,
        }
    }

    /// Short identifier used in tables and benches.
    pub fn name(&self) -> &'static str {
        match self {
            CpuVariant::OpenMpC => "c-openmp",
            CpuVariant::KokkosLambda => "kokkos",
            CpuVariant::JuliaThreads => "julia",
            CpuVariant::NumbaPrange => "numba",
        }
    }

    /// Length of one element of the parallel dimension in `C`'s storage:
    /// a row (`n`) for the row-major models, a column (`m`) for Julia.
    pub(crate) fn parallel_width(&self, m: usize, n: usize) -> usize {
        match self {
            CpuVariant::JuliaThreads => m,
            _ => n,
        }
    }

    /// Executes this variant's kernel over one chunk of its parallel
    /// dimension.
    ///
    /// All three matrices must use [`CpuVariant::layout`]. `c` is the
    /// chunk's own part of `C`'s storage: rows `chunk.start..chunk.end`
    /// of the `m×n` output, `chunk.len() * n` elements (for Julia columns,
    /// `chunk.len() * m` elements).
    ///
    /// # Panics
    ///
    /// Panics on layout or shape mismatch.
    pub fn run_chunk<T: Scalar>(
        &self,
        a: &Matrix<T>,
        b: &Matrix<T>,
        c: &mut [T],
        c_shape: (usize, usize),
        chunk: Chunk,
    ) {
        let (m, n) = c_shape;
        let k = a.cols();
        assert_eq!(a.layout(), self.layout(), "A layout mismatch");
        assert_eq!(b.layout(), self.layout(), "B layout mismatch");
        assert_eq!(b.rows(), k, "inner dimensions must agree");
        assert_eq!(a.rows(), m, "A rows must match C rows");
        assert_eq!(b.cols(), n, "B cols must match C cols");
        let width = self.parallel_width(m, n);
        assert!(
            chunk.end <= self.parallel_extent(m, n) && c.len() == chunk.len() * width,
            "C chunk size mismatch"
        );
        // One entry per index of the chunk; an empty `C` has none to write.
        let lines = c.chunks_exact_mut(width.max(1));

        let ad = a.as_slice();
        let bd = b.as_slice();
        match self {
            CpuVariant::OpenMpC => {
                // for i { for l { t = A[i,l]; for j { C[i,j] += t*B[l,j] } } }
                for (i, crow) in chunk.range().zip(lines) {
                    for l in 0..k {
                        let t = ad[i * k + l];
                        let brow = &bd[l * n..(l + 1) * n];
                        for (cj, &bj) in crow.iter_mut().zip(brow) {
                            *cj += t * bj;
                        }
                    }
                }
            }
            CpuVariant::KokkosLambda => {
                // Lambda computing one entry of C, dispatched per row:
                // C(i,j) = sum_l A(i,l) * B(l,j).
                for (i, crow) in chunk.range().zip(lines) {
                    for (j, cj) in crow.iter_mut().enumerate() {
                        let mut acc = *cj;
                        for l in 0..k {
                            acc += ad[i * k + l] * bd[l * n + j];
                        }
                        *cj = acc;
                    }
                }
            }
            CpuVariant::JuliaThreads => {
                // @threads for j { for l { t = B[l,j]; for i { C[i,j] += t*A[i,l] } } }
                // Column-major: column j of C occupies [j*m, (j+1)*m).
                for (j, ccol) in chunk.range().zip(lines) {
                    for l in 0..k {
                        let t = bd[j * k + l];
                        let acol = &ad[l * m..(l + 1) * m];
                        for (ci, &ai) in ccol.iter_mut().zip(acol) {
                            *ci += t * ai;
                        }
                    }
                }
            }
            CpuVariant::NumbaPrange => {
                // prange over i; fastmath permits FMA contraction, which we
                // make explicit with mul_add.
                for (i, crow) in chunk.range().zip(lines) {
                    for l in 0..k {
                        let t = ad[i * k + l];
                        let brow = &bd[l * n..(l + 1) * n];
                        for (cj, &bj) in crow.iter_mut().zip(brow) {
                            *cj = t.mul_add(bj, *cj);
                        }
                    }
                }
            }
        }
    }

    /// Serial execution of the full kernel (the single-threaded baseline).
    pub fn run_serial<T: Scalar>(&self, a: &Matrix<T>, b: &Matrix<T>, c: &mut Matrix<T>) {
        assert_eq!(c.layout(), self.layout(), "C layout mismatch");
        let shape = (c.rows(), c.cols());
        let extent = self.parallel_extent(shape.0, shape.1);
        self.run_chunk(
            a,
            b,
            c.as_mut_slice(),
            shape,
            Chunk {
                start: 0,
                end: extent,
            },
        );
    }

    /// The paper's source snippet for this model (Fig. 2), used by the
    /// productivity metrics in `perfport-metrics`.
    pub fn source_snippet(&self) -> &'static str {
        match self {
            CpuVariant::OpenMpC => OPENMP_SNIPPET,
            CpuVariant::KokkosLambda => KOKKOS_SNIPPET,
            CpuVariant::JuliaThreads => JULIA_SNIPPET,
            CpuVariant::NumbaPrange => NUMBA_SNIPPET,
        }
    }
}

impl fmt::Display for CpuVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const OPENMP_SNIPPET: &str = r#"
#pragma omp parallel for
for (int i = 0; i < A_rows; ++i) {
  for (int l = 0; l < A_cols; ++l) {
    const double temp = A[i * A_cols + l];
    for (int j = 0; j < B_cols; ++j) {
      C[i * B_cols + j] += temp * B[l * B_cols + j];
    }
  }
}
"#;

const KOKKOS_SNIPPET: &str = r#"
Kokkos::parallel_for(
  "gemm", mdrange_policy({0, 0}, {A_rows, B_cols}),
  KOKKOS_LAMBDA(const int i, const int j) {
    double acc = 0;
    for (int l = 0; l < A_cols; ++l) {
      acc += A(i, l) * B(l, j);
    }
    C(i, j) += acc;
  });
"#;

const JULIA_SNIPPET: &str = r#"
import Base.Threads: @threads
function gemm!(A, B, C)
  @threads for j in 1:size(B, 2)
    for l in 1:size(A, 2)
      @inbounds temp = B[l, j]
      for i in 1:size(A, 1)
        @inbounds C[i, j] += temp * A[i, l]
      end
    end
  end
end
"#;

const NUMBA_SNIPPET: &str = r#"
from numba import njit, prange

@njit(parallel=True, nogil=True, fastmath=True)
def gemm(A, B, C):
    for i in prange(0, A.shape[0]):
        for k in range(0, A.shape[1]):
            temp = A[i, k]
            for j in range(0, B.shape[1]):
                C[i, j] += temp * B[k, j]
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::gemm_reference_f64;
    use perfport_half::F16;

    fn check_variant<T: Scalar>(variant: CpuVariant, m: usize, k: usize, n: usize, tol: f64) {
        let layout = variant.layout();
        let a = Matrix::<T>::random(m, k, layout, 11);
        let b = Matrix::<T>::random(k, n, layout, 22);
        let reference = gemm_reference_f64(&a, &b);
        let mut c = Matrix::<T>::zeros(m, n, layout);
        variant.run_serial(&a, &b, &mut c);
        let cast: Matrix<f64> = c.cast();
        let err = cast.max_abs_diff(&reference);
        assert!(err < tol, "{variant}: error {err} over tolerance {tol}");
    }

    #[test]
    fn all_variants_match_reference_f64() {
        for v in CpuVariant::ALL {
            check_variant::<f64>(v, 17, 13, 19, 1e-12);
        }
    }

    #[test]
    fn all_variants_match_reference_f32() {
        for v in CpuVariant::ALL {
            check_variant::<f32>(v, 17, 13, 19, 1e-3);
        }
    }

    #[test]
    fn all_variants_match_reference_f16() {
        // Half precision with k=13 dot products: tolerance scaled to the
        // 2^-11 unit roundoff and k accumulations.
        for v in CpuVariant::ALL {
            check_variant::<F16>(v, 9, 13, 9, 0.2);
        }
    }

    #[test]
    fn layouts_match_host_language() {
        assert_eq!(CpuVariant::OpenMpC.layout(), Layout::RowMajor);
        assert_eq!(CpuVariant::KokkosLambda.layout(), Layout::RowMajor);
        assert_eq!(CpuVariant::JuliaThreads.layout(), Layout::ColMajor);
        assert_eq!(CpuVariant::NumbaPrange.layout(), Layout::RowMajor);
    }

    #[test]
    fn parallel_extent_follows_layout() {
        assert_eq!(CpuVariant::OpenMpC.parallel_extent(4, 9), 4);
        assert_eq!(CpuVariant::JuliaThreads.parallel_extent(4, 9), 9);
        assert_eq!(CpuVariant::OpenMpC.parallel_width(4, 9), 9);
        assert_eq!(CpuVariant::JuliaThreads.parallel_width(4, 9), 4);
    }

    #[test]
    fn chunked_execution_equals_serial() {
        for v in CpuVariant::ALL {
            let layout = v.layout();
            let (m, k, n) = (12, 8, 10);
            let a = Matrix::<f64>::random(m, k, layout, 1);
            let b = Matrix::<f64>::random(k, n, layout, 2);
            let mut c_serial = Matrix::<f64>::zeros(m, n, layout);
            v.run_serial(&a, &b, &mut c_serial);

            let mut c_chunked = Matrix::<f64>::zeros(m, n, layout);
            let extent = v.parallel_extent(m, n);
            let mid = extent / 2;
            let (head, tail) = c_chunked
                .as_mut_slice()
                .split_at_mut(mid * v.parallel_width(m, n));
            v.run_chunk(&a, &b, head, (m, n), Chunk { start: 0, end: mid });
            v.run_chunk(
                &a,
                &b,
                tail,
                (m, n),
                Chunk {
                    start: mid,
                    end: extent,
                },
            );
            assert_eq!(c_serial.max_abs_diff(&c_chunked), 0.0, "{v}");
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let v = CpuVariant::OpenMpC;
        let a = Matrix::<f64>::ones(3, 3, Layout::RowMajor);
        let b = Matrix::<f64>::ones(3, 3, Layout::RowMajor);
        let mut c = Matrix::<f64>::from_fn(3, 3, Layout::RowMajor, |_, _| 5.0);
        v.run_serial(&a, &b, &mut c);
        assert!(c.as_slice().iter().all(|&x| x == 8.0));
    }

    #[test]
    fn snippets_are_nonempty_and_distinct() {
        let snippets: Vec<_> = CpuVariant::ALL.iter().map(|v| v.source_snippet()).collect();
        for s in &snippets {
            assert!(s.len() > 50);
        }
        for i in 0..snippets.len() {
            for j in i + 1..snippets.len() {
                assert_ne!(snippets[i], snippets[j]);
            }
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(CpuVariant::OpenMpC.to_string(), "c-openmp");
        assert_eq!(CpuVariant::JuliaThreads.to_string(), "julia");
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn wrong_layout_panics() {
        let a = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let mut c = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        CpuVariant::JuliaThreads.run_serial(&a, &b, &mut c);
    }
}
