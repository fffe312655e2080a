//! Criterion benchmarks of the SIMT simulator itself: functional GEMM
//! launches per device class, the coalescing analysis, and race-detector
//! overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfport_gemm::{gpu_gemm, GpuVariant, Layout, Matrix};
use perfport_gpusim::{Dim3, Gpu, LaunchConfig, LaunchOptions};
use std::hint::black_box;
use std::time::Duration;

fn bench_sim_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_gemm_launch");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [64usize, 128] {
        let a = Matrix::<f32>::random(n, n, Layout::RowMajor, 1);
        let b = Matrix::<f32>::random(n, n, Layout::RowMajor, 2);
        for variant in [GpuVariant::Cuda, GpuVariant::Hip] {
            group.bench_with_input(BenchmarkId::new(variant.name(), n), &n, |bench, _| {
                let gpu = Gpu::new(variant.device_class());
                bench.iter(|| {
                    let (cm, stats) = gpu_gemm(
                        &gpu,
                        variant,
                        black_box(&a),
                        black_box(&b),
                        Dim3::d2(16, 16),
                    )
                    .unwrap();
                    black_box((cm, stats))
                })
            });
        }
    }
    group.finish();
}

fn bench_race_detector(c: &mut Criterion) {
    let mut group = c.benchmark_group("race_detector_overhead");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let n = 4096usize;
    for (label, detect) in [("off", false), ("on", true)] {
        group.bench_function(label, |bench| {
            let gpu = Gpu::new(perfport_gpusim::DeviceClass::NvidiaLike);
            let src = gpu.alloc_filled(n, 1.0f32);
            let dst = gpu.alloc_filled(n, 0.0f32);
            let cfg = LaunchConfig::cover1d(n as u32, 256);
            let opts = LaunchOptions {
                detect_races: detect,
            };
            bench.iter(|| {
                let stats = gpu
                    .launch_with(cfg, opts, |t| {
                        let i = t.global_x();
                        if i < n {
                            dst.write(t, i, src.read(t, i) * 2.0);
                        }
                    })
                    .unwrap();
                black_box(stats)
            })
        });
    }
    group.finish();
}

fn bench_host_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_host_parallelism");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let n = 96usize;
    let a = Matrix::<f64>::random(n, n, Layout::RowMajor, 1);
    let b = Matrix::<f64>::random(n, n, Layout::RowMajor, 2);
    group.bench_function("pooled", |bench| {
        let gpu = Gpu::new(perfport_gpusim::DeviceClass::NvidiaLike);
        bench.iter(|| {
            let da = gpu.alloc_from_slice(a.as_slice());
            let db = gpu.alloc_from_slice(b.as_slice());
            let dc = gpu.alloc_filled(n * n, 0.0f64);
            let cfg = LaunchConfig::cover2d(n as u32, n as u32, Dim3::d2(32, 32));
            let stats = gpu
                .launch(cfg, |t| {
                    let (col, row) = t.grid2();
                    if row < n && col < n {
                        let mut sum = 0.0;
                        for l in 0..n {
                            sum += da.read(t, row * n + l) * db.read(t, l * n + col);
                        }
                        dc.write(t, row * n + col, sum);
                        t.tally_flops(2 * n as u64);
                    }
                })
                .unwrap();
            black_box(stats)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sim_gemm,
    bench_race_detector,
    bench_host_parallelism
);
criterion_main!(benches);
