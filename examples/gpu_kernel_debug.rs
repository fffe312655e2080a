//! Using the SIMT simulator as a kernel-debugging tool: write a kernel,
//! inspect its traffic counters, and catch a data race — the workflow a
//! `nvprof` + `compute-sanitizer` pair covers on real hardware.
//!
//! ```bash
//! cargo run --release --example gpu_kernel_debug
//! ```

use perfport::gpusim::{DeviceClass, Dim3, Gpu, LaunchConfig, LaunchError, LaunchOptions};

fn main() {
    let gpu = Gpu::new(DeviceClass::NvidiaLike);
    let n = 1024usize;
    let input: Vec<f32> = (0..n * 32).map(|i| i as f32).collect();
    let src = gpu.alloc_from_slice(&input);
    let dst = gpu.alloc_filled(n, 0.0f32);
    let cfg = LaunchConfig::cover1d(n as u32, 256);

    // A well-coalesced kernel: lane i reads element i.
    let good = gpu
        .launch(cfg, |t| {
            let i = t.global_x();
            if i < n {
                dst.write(t, i, src.read(t, i) * 2.0);
                t.tally_flops(1);
            }
        })
        .unwrap();

    // The same arithmetic with a stride-32 access pattern.
    let bad = gpu
        .launch(cfg, |t| {
            let i = t.global_x();
            if i < n {
                dst.write(t, i, src.read(t, i * 32) * 2.0);
                t.tally_flops(1);
            }
        })
        .unwrap();

    println!("coalescing comparison (identical arithmetic):");
    println!(
        "  unit stride : {} loads -> {} transactions ({:.0}% efficiency)",
        good.loads,
        good.load_transactions,
        good.coalescing_efficiency() * 100.0
    );
    println!(
        "  stride 32   : {} loads -> {} transactions ({:.0}% efficiency)",
        bad.loads,
        bad.load_transactions,
        bad.coalescing_efficiency() * 100.0
    );

    // Now a buggy kernel: every thread writes slot i % 64. The race
    // detector records every access, so it runs the blocks serially on
    // this thread instead of the device's worker pool.
    let racy = gpu.launch_with(cfg, LaunchOptions { detect_races: true }, |t| {
        let i = t.global_x();
        if i < n {
            dst.write(t, i % 64, 1.0);
        }
    });
    match racy {
        Err(LaunchError::DataRace {
            addr,
            thread_a,
            thread_b,
        }) => {
            println!();
            println!("race detector:");
            println!(
                "  caught write-write race at device address {addr:#x} between \
                 threads {thread_a} and {thread_b}"
            );
        }
        other => panic!("expected a data race, got {other:?}"),
    }

    // Divergence: a warp-misaligned guard.
    let divergent = gpu
        .launch(LaunchConfig::cover1d(1000, 128), |t| {
            let i = t.global_x();
            if i < 1000 {
                dst.write(t, i % n, 0.0);
            }
        })
        .unwrap();
    println!();
    println!(
        "divergence: {} of {} active warps diverged ({:.0}% — the ragged tail)",
        divergent.divergent_warps,
        divergent.active_warps,
        divergent.divergence_rate() * 100.0
    );

    // Occupancy advice, as the CUDA occupancy calculator would give it.
    for block in [Dim3::d2(8, 8), Dim3::d2(16, 16), Dim3::d2(32, 32)] {
        let occ = perfport::gpusim::occupancy(gpu.class(), block.count() as u32, 0);
        println!(
            "occupancy with {}x{} blocks: {:.0}% ({} blocks/SM, limited by {:?})",
            block.x,
            block.y,
            occ.fraction * 100.0,
            occ.blocks_per_sm,
            occ.limiter
        );
    }
}
