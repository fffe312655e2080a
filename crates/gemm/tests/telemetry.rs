//! Tuned-GEMM telemetry: `B` is packed once per region, and the pack,
//! compute and panel-barrier histograms fit inside the region's wall
//! time.
//!
//! The counters are process-global, so these checks live in their own
//! test binary, and a lock keeps its tests from running between each
//! other's snapshots.

use perfport_gemm::{tuned, BlockSizes, Layout, Matrix, PackArena, Scalar, TileShape, TunedParams};
use perfport_half::F16;
use perfport_pool::ThreadPool;
use perfport_telemetry::Snapshot;
use std::sync::Mutex;

static SNAPSHOTS: Mutex<()> = Mutex::new(());

/// A counter's delta since `before`.
fn counter(before: &Snapshot, name: &str) -> u64 {
    perfport_telemetry::snapshot()
        .delta_since(before)
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// `(count, sum)` of a histogram recorded since `before`.
fn histogram(before: &Snapshot, name: &str) -> (u64, u64) {
    perfport_telemetry::snapshot()
        .delta_since(before)
        .histograms
        .get(name)
        .map_or((0, 0), |h| (h.count, h.sum))
}

/// Tiny blocks so ragged shapes span several `jc` and `p0` panels.
fn tiny_params() -> TunedParams {
    TunedParams {
        tile: TileShape { mr: 4, nr: 4 },
        blocks: BlockSizes {
            mc: 8,
            kc: 12,
            nc: 16,
        },
    }
}

const COUNTERS: [&str; 3] = [
    "gemm/pack_a_bytes",
    "gemm/pack_b_bytes",
    "gemm/microkernel_calls",
];

/// The `gemm/*` counter deltas of one serial call and of one parallel
/// call on `jobs` workers must agree exactly.
fn same_counts<T: Scalar>(m: usize, k: usize, n: usize, params: &TunedParams, jobs: usize) {
    let a = Matrix::<T>::random(m, k, Layout::RowMajor, 41);
    let b = Matrix::<T>::random(k, n, Layout::RowMajor, 42);
    let pool = ThreadPool::new(jobs);

    let before = perfport_telemetry::snapshot();
    let mut c = Matrix::<T>::zeros(m, n, Layout::RowMajor);
    tuned::gemm_serial(&a, &b, &mut c, params, &mut PackArena::new());
    let serial = COUNTERS.map(|name| counter(&before, name));

    let before = perfport_telemetry::snapshot();
    let mut c = Matrix::<T>::zeros(m, n, Layout::RowMajor);
    tuned::gemm(&pool, &a, &b, &mut c, params);
    let parallel = COUNTERS.map(|name| counter(&before, name));

    let ctx = format!("{} {m}x{k}x{n} tile {} jobs={jobs}", T::NAME, params.tile);
    assert!(serial[1] > 0, "{ctx}: B was never packed");
    assert_eq!(parallel, serial, "{ctx}: {COUNTERS:?}");
}

#[test]
fn b_is_packed_once_per_region_at_any_team_size() {
    let _lock = SNAPSHOTS.lock().unwrap();
    let tiny = tiny_params();
    for jobs in [1, 2, 7] {
        // n = 43 over nc = 16 is 3 ragged jc panels; k = 57 over kc = 12
        // is 5 ragged p0 panels; n/NR = 11 micropanels split unevenly
        // across 2 and 7 members, and unevenly again in the last panel.
        same_counts::<f64>(83, 57, 43, &tiny, jobs);
        same_counts::<f32>(61, 45, 39, &tiny, jobs);
        same_counts::<F16>(33, 29, 21, &tiny, jobs);
        // Fewer micropanels than members: some own an empty slice.
        same_counts::<f64>(9, 30, 5, &tiny, jobs);
        // The host's tiles and cache blocking: several p0 panels of the
        // native kernels, and a ragged last micropanel.
        same_counts::<f64>(50, 400, 70, &TunedParams::host::<f64>(), jobs);
        same_counts::<f32>(50, 400, 70, &TunedParams::host::<f32>(), jobs);
        same_counts::<F16>(50, 400, 70, &TunedParams::host::<F16>(), jobs);
    }
}

#[test]
fn pack_compute_and_barrier_fit_in_the_region() {
    let _lock = SNAPSHOTS.lock().unwrap();
    let team = 3;
    let pool = ThreadPool::new(team);
    let params = TunedParams::host::<f64>();
    let (m, k, n) = (192, 3 * params.blocks.kc + 5, 96);
    let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 51);
    let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 52);
    let mut c = Matrix::<f64>::zeros(m, n, Layout::RowMajor);

    let before = perfport_telemetry::snapshot();
    let region = tuned::gemm(&pool, &a, &b, &mut c, &params);
    let (pack_count, pack_ns) = histogram(&before, "gemm/pack_ns");
    let (_, compute_ns) = histogram(&before, "gemm/compute_ns");
    let (barrier_count, barrier_ns) = histogram(&before, "gemm/barrier_ns");

    // Every member packs its slice of each panel and waits twice per
    // panel, except after the last one.
    let panels = n.div_ceil(params.blocks.nc) * k.div_ceil(params.blocks.kc);
    assert_eq!(pack_count, (team * panels) as u64);
    assert_eq!(barrier_count, (team * (2 * panels - 1)) as u64);

    // The three phases are disjoint intervals inside each member's part
    // of the region, so their sum is bounded by team × wall time.
    let region_ns = region.elapsed.as_nanos() as u64;
    let phases = pack_ns + compute_ns + barrier_ns;
    assert!(
        phases <= team as u64 * region_ns,
        "pack {pack_ns} + compute {compute_ns} + barrier {barrier_ns} ns \
         exceeds {team} × {region_ns} ns"
    );
}
