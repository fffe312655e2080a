//! Ablations A1 and A2: the design choices DESIGN.md calls out.
//!
//! * **A1 — thread pinning** (§IV.A discussion): the same kernel with and
//!   without affinity on the 4-NUMA EPYC vs. the 1-NUMA Altra. Pinning
//!   matters exactly where the paper says it does.
//! * **A2 — loop schedule and granularity**: static vs. dynamic vs.
//!   guided on the modelled node (uniform GEMM rows make static optimal),
//!   plus coarse row-parallel vs. fine element-grid decomposition on the
//!   real host pool.
//! * **A7 — register-tile shape** of the tuned vendor stand-in: every
//!   supported MR×NR microkernel shape, measured on the host pool, next to
//!   the shape `TunedParams::host` auto-selects.

use perfport_bench::HarnessArgs;
use perfport_gemm::{par_gemm, par_gemm_element_grid, CpuVariant, Matrix};
use perfport_machines::{
    estimate_cpu_gemm, numa_locality, CpuExecution, CpuMachine, GemmShape, Precision,
};
use perfport_pool::{Schedule, ThreadPool};
use std::time::Instant;

fn main() {
    let args = HarnessArgs::from_env();
    let trace = args.start_trace();
    pinning_ablation();
    schedule_ablation();
    granularity_ablation();
    tiling_ablation();
    tile_shape_ablation(&args);
    if let Some(trace) = trace {
        trace.finish();
    }
}

/// A1: modelled pinning effect per machine.
fn pinning_ablation() {
    println!("== A1: thread pinning (modelled) ==");
    println!(
        "  {:<16} {:>10} {:>14} {:>14} {:>8}",
        "machine", "locality", "pinned GF/s", "unpinned GF/s", "ratio"
    );
    for machine in [CpuMachine::epyc_7a53(), CpuMachine::ampere_altra()] {
        let shape = GemmShape::square(4096);
        let mut exec = CpuExecution::vendor_baseline(&machine);
        let pinned = estimate_cpu_gemm(&machine, Precision::Double, &shape, &exec);
        exec.pinned = false;
        let unpinned = estimate_cpu_gemm(&machine, Precision::Double, &shape, &exec);
        println!(
            "  {:<16} {:>10.3} {:>14.1} {:>14.1} {:>8.2}",
            machine.name,
            numa_locality(&machine, false),
            pinned.gflops,
            unpinned.gflops,
            pinned.gflops / unpinned.gflops
        );
    }
    println!();
}

/// A2a: loop schedules on the real host pool (wall-clock).
fn schedule_ablation() {
    println!("== A2a: loop schedule (host measurement) ==");
    let n = 512;
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get().min(8));
    let pool = ThreadPool::new(threads);
    let a = Matrix::<f64>::random(n, n, perfport_gemm::Layout::RowMajor, 1);
    let b = Matrix::<f64>::random(n, n, perfport_gemm::Layout::RowMajor, 2);
    println!(
        "  n={n}, {threads} host threads; {:<22} {:>10} {:>10}",
        "schedule", "ms", "imbalance"
    );
    for (label, schedule) in [
        ("static (block)", Schedule::StaticBlock),
        ("static, chunk 4", Schedule::StaticChunked { chunk: 4 }),
        ("dynamic, chunk 4", Schedule::Dynamic { chunk: 4 }),
        ("guided, min 2", Schedule::Guided { min_chunk: 2 }),
    ] {
        let mut c = Matrix::<f64>::zeros(n, n, perfport_gemm::Layout::RowMajor);
        // Warm-up then timed run, mirroring the paper's protocol.
        par_gemm(&pool, CpuVariant::OpenMpC, &a, &b, &mut c, schedule);
        c.fill_zero();
        let t0 = Instant::now();
        let stats = par_gemm(&pool, CpuVariant::OpenMpC, &a, &b, &mut c, schedule);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("  {:<40} {:>10.2} {:>10.3}", label, ms, stats.imbalance());
    }
    println!();
}

/// A2b: coarse vs. fine granularity on the host pool.
fn granularity_ablation() {
    println!("== A2b: coarse rows vs. fine element grid (host measurement) ==");
    let n = 384;
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get().min(8));
    let pool = ThreadPool::new(threads);
    let a = Matrix::<f64>::random(n, n, perfport_gemm::Layout::RowMajor, 3);
    let b = Matrix::<f64>::random(n, n, perfport_gemm::Layout::RowMajor, 4);

    let mut c = Matrix::<f64>::zeros(n, n, perfport_gemm::Layout::RowMajor);
    par_gemm(
        &pool,
        CpuVariant::OpenMpC,
        &a,
        &b,
        &mut c,
        Schedule::StaticBlock,
    );
    c.fill_zero();
    let t0 = Instant::now();
    par_gemm(
        &pool,
        CpuVariant::OpenMpC,
        &a,
        &b,
        &mut c,
        Schedule::StaticBlock,
    );
    let coarse_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut c2 = Matrix::<f64>::zeros(n, n, perfport_gemm::Layout::RowMajor);
    par_gemm_element_grid(&pool, &a, &b, &mut c2, Schedule::Dynamic { chunk: 256 });
    c2.fill_zero();
    let t0 = Instant::now();
    par_gemm_element_grid(&pool, &a, &b, &mut c2, Schedule::Dynamic { chunk: 256 });
    let fine_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!("  n={n}: coarse rows {coarse_ms:.2} ms, fine element-grid {fine_ms:.2} ms");
    println!(
        "  (the paper uses coarse granularity on CPUs and fine on GPUs; \
         on a CPU the dot-product-per-element form loses row streaming)"
    );
}

/// A3: what the naive kernel leaves on the table — shared-memory tiling
/// measured on the SIMT simulator's counters.
fn tiling_ablation() {
    use perfport_gemm::{gpu_gemm, gpu_gemm_tiled, GpuVariant, Layout};
    use perfport_gpusim::{Dim3, Gpu};

    println!();
    println!("== A3: naive vs shared-memory-tiled GPU GEMM (simulator counters) ==");
    let n = 128;
    let a = Matrix::<f64>::random(n, n, Layout::RowMajor, 7);
    let b = Matrix::<f64>::random(n, n, Layout::RowMajor, 8);
    let gpu = Gpu::new(GpuVariant::Cuda.device_class());
    let (_, naive) = gpu_gemm(&gpu, GpuVariant::Cuda, &a, &b, Dim3::d2(16, 16)).unwrap();
    let (_, tiled) = gpu_gemm_tiled(&gpu, &a, &b).unwrap();
    println!(
        "  {:<10} {:>14} {:>14} {:>16} {:>14}",
        "kernel", "flops", "global loads", "load transacts", "shared loads"
    );
    for (label, s) in [("naive", &naive), ("tiled", &tiled)] {
        println!(
            "  {:<10} {:>14} {:>14} {:>16} {:>14}",
            label, s.flops, s.loads, s.load_transactions, s.shared_loads
        );
    }
    println!(
        "  global traffic reduction: {:.1}x (tile size {}); the paper's kernels \
         forgo this deliberately to isolate each model's default codegen",
        naive.loads as f64 / tiled.loads as f64,
        perfport_gemm::TILE
    );
}

/// A7: register-tile shape sweep of the tuned packed kernel — every
/// supported MR×NR microkernel, wall-clock on the host pool.
fn tile_shape_ablation(args: &HarnessArgs) {
    use perfport_gemm::{gemm_flops, tuned, Layout, TileShape, TunedParams};
    use perfport_pool::CacheInfo;

    let n = if args.quick { 512 } else { 1024 };
    let reps = if args.quick { 2 } else { 3 };
    let pool = args.make_pool();
    let cache = CacheInfo::host();
    let auto = TunedParams::host::<f64>();

    println!();
    println!("== A7: tuned-kernel register-tile shape (host measurement) ==");
    println!(
        "  n={n} FP64, {} workers; {:>6} {:>12} {:>24}",
        pool.num_threads(),
        "tile",
        "GFLOP/s",
        "blocks (mc/kc/nc)"
    );
    let a = Matrix::<f64>::random(n, n, Layout::RowMajor, 11);
    let b = Matrix::<f64>::random(n, n, Layout::RowMajor, 12);
    let flops = gemm_flops(n, n, n);
    for tile in TileShape::ALL {
        let params = TunedParams::with_tile(cache, tile, std::mem::size_of::<f64>());
        let mut c = Matrix::<f64>::zeros(n, n, Layout::RowMajor);
        tuned::gemm(&pool, &a, &b, &mut c, &params); // warm-up (excluded)
        let t0 = Instant::now();
        for _ in 0..reps {
            c.fill_zero();
            tuned::gemm(&pool, &a, &b, &mut c, &params);
        }
        let gflops = flops as f64 * reps as f64 / t0.elapsed().as_secs_f64() / 1e9;
        let marker = if tile == auto.tile {
            "  <- auto-selected"
        } else {
            ""
        };
        println!(
            "  {:>33} {:>12.3} {:>15}/{}/{}{marker}",
            tile.name(),
            gflops,
            params.blocks.mc,
            params.blocks.kc,
            params.blocks.nc
        );
    }
    println!(
        "  (wider tiles amortise B-panel loads until the accumulator block \
         spills out of registers; `TunedParams::host` picks by ISA and element width)"
    );
}
