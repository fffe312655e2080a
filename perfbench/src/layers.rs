//! The traced layer sweep: one probe per layer, each replaying the shapes
//! of the workload that layer serves, with tracing on. Spans come from
//! this file around every call into a layer; counts come from
//! `perfport_telemetry::snapshot()` deltas taken around the same calls.

use crate::dense::{naive_rates, rate, Naive, Tuned, N_TUNED};
use crate::serve::{all_cells, problem, same_bytes, Serve, BATCH};
use crate::study::Study;
use crate::util::{gemm_gflops, median, quantile, Report, Rng};
use perfport_gemm::batch::{self, Problem};
use perfport_gemm::{gpu_gemm_mixed, verify_gemm, CpuVariant, GpuVariant, Layout, Matrix};
use perfport_gpusim::{Dim3, Gpu};
use perfport_telemetry::histogram::HistogramSnapshot;
use perfport_telemetry::Snapshot;
use perfport_trace as trace;
use std::collections::BTreeSet;
use std::time::Instant;

/// Timed calls per kernel in the dense probe.
const DENSE_REPS: usize = 5;
/// Passes over the full serve menu in the serve probe.
const SERVE_STRATA: usize = 8;
/// Launches per device class in the gpusim probe.
const GPU_REPS: usize = 5;
/// Cold/warm grid pairs in the core probe.
const CORE_REPS: usize = 3;
/// The study's GPU verification shape: n = 96 with 32×32 blocks.
const GPU_N: usize = 96;
const GPU_BLOCK: u32 = 32;

fn span(name: &'static str) -> trace::SpanGuard {
    trace::span("perfbench", name)
}

/// Everything the telemetry registry recorded between two snapshots.
fn delta(before: &Snapshot) -> Snapshot {
    perfport_telemetry::snapshot().delta_since(before)
}

/// `pool`, `gemm::tuned` and the portable models, on the `dense` and
/// `naive` shapes.
pub fn dense(seed: u64, threads: usize, report: &mut Report) {
    let _sp = span("probe.dense");
    let mut t = Tuned::setup(seed, threads);
    let serial: Vec<f64> = {
        let _sp = span("tuned.gemm_serial");
        (0..DENSE_REPS).map(|_| t.serial_f64()).collect()
    };
    let gflops_1t = gemm_gflops(N_TUNED, median(&serial));
    let before = perfport_telemetry::snapshot();
    let f64s: Vec<[f64; 1]> = {
        let _sp = span("tuned.gemm.f64");
        (0..DENSE_REPS).map(|_| [t.f64()]).collect()
    };
    let tuned_delta = delta(&before);
    let f32s: Vec<[f64; 1]> = {
        let _sp = span("tuned.gemm.f32");
        (0..DENSE_REPS).map(|_| [t.f32()]).collect()
    };
    let mut n = Naive::setup(seed, threads);
    let naive: Vec<[f64; 4]> = (0..DENSE_REPS)
        .map(|_| {
            let _sp = span("gemm.par_gemm.round");
            n.round()
        })
        .collect();
    for (kernel, outcome) in t.verify(seed).into_iter().chain(n.verify(seed)) {
        report.check(outcome.is_ok(), || {
            format!("dense probe {kernel}: {outcome:?}")
        });
    }

    let vendor_f64 = rate(&f64s, 0, N_TUNED);
    let (naive_rates, naive_geomean) = naive_rates(&naive);
    report.metric("vendor_gflops_fp64", vendor_f64, "GFLOP/s");
    report.metric("vendor_gflops_fp32", rate(&f32s, 0, N_TUNED), "GFLOP/s");
    report.metric("naive_gflops_fp64", naive_geomean, "GFLOP/s");
    for (v, g) in CpuVariant::ALL.iter().zip(naive_rates) {
        report.metric(&format!("naive.gflops.{}", v.name()), g, "GFLOP/s");
    }

    let imbalance: Vec<f64> = t
        .regions
        .iter()
        .chain(&n.regions)
        .map(|r| r.imbalance())
        .collect();
    // The default tuned path runs as a task graph with no end barrier,
    // so only the `par_gemm` regions have a fork-join cost.
    let fork_join_us: Vec<f64> = n
        .regions
        .iter()
        .map(|r| r.fork_join_overhead.as_secs_f64() * 1e6)
        .collect();
    report.metric(
        "pool.scaling_eff_fp64",
        vendor_f64 / (threads as f64 * gflops_1t),
        "ratio",
    );
    report.metric("pool.imbalance", median(&imbalance), "ratio");
    report.metric("pool.fork_join_us", median(&fork_join_us), "us");

    let flops = (DENSE_REPS * 2 * N_TUNED.pow(3)) as f64;
    let counter = |name: &str| tuned_delta.counters.get(name).copied().unwrap_or(0) as f64;
    let sum = |name: &str| {
        tuned_delta
            .histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64)
    };
    let pack_bytes = counter("gemm/pack_a_bytes") + counter("gemm/pack_b_bytes");
    let (pack_ns, compute_ns) = (sum("gemm/pack_ns"), sum("gemm/compute_ns"));
    report.metric("tuned.gflops_1t_fp64", gflops_1t, "GFLOP/s");
    report.metric("tuned.pack_bytes_per_flop", pack_bytes / flops, "B/flop");
    report.metric(
        "tuned.microkernel_calls_per_mflop",
        counter("gemm/microkernel_calls") / (flops / 1e6),
        "1/MFLOP",
    );
    report.metric(
        "tuned.pack_share",
        pack_ns / (pack_ns + compute_ns),
        "ratio",
    );
}

/// Service time and flops of the `batch/service_ns/<key>` histograms in
/// a delta, split by precision and size class.
#[derive(Default)]
struct BatchRates {
    /// `(flops, ns)` per class: f64, f32, f16, tiny, small.
    classes: [(f64, f64); 5],
}

impl BatchRates {
    fn add(&mut self, d: &Snapshot) {
        for (name, h) in d.histograms.range("batch/service_ns/".to_string()..) {
            let Some(key) = name.strip_prefix("batch/service_ns/") else {
                break;
            };
            let Some((prec, dims)) = key.split_once(':') else {
                continue;
            };
            let dims: Vec<f64> = dims.split('x').filter_map(|x| x.parse().ok()).collect();
            if dims.len() != 3 || h.count == 0 {
                continue;
            }
            let flops = 2.0 * dims[0] * dims[1] * dims[2] * h.count as f64;
            let ns = h.sum as f64;
            let prec_class = match prec {
                "f64" => 0,
                "f32" => 1,
                _ => 2,
            };
            let size_class = if dims.iter().all(|&x| x <= 16.0) {
                3
            } else {
                4
            };
            for c in [prec_class, size_class] {
                self.classes[c].0 += flops;
                self.classes[c].1 += ns;
            }
        }
    }
}

/// Histogram keys a delta shows as recorded into. Histograms carry the
/// per-label keys (`batch/service_ns/<key>`) and every observation adds
/// a sample; counters have fixed names and may legitimately add zero.
fn touched(d: &Snapshot, keys: &mut BTreeSet<String>) {
    keys.extend(
        d.histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(k, _)| k.clone()),
    );
}

/// `gemm::batch`, pool dispatch and telemetry keys, on the `serve` mix:
/// every cell of the menu [`SERVE_STRATA`] times with fresh operands,
/// through `gemm_batch` and then, on identical inputs,
/// `gemm_batch_serial`.
pub fn serve(seed: u64, threads: usize, report: &mut Report) {
    let _sp = span("probe.serve");
    let s = Serve::setup(seed, threads);
    let mut rng = Rng::new(seed, "serve/probe");
    let (mut pooled, mut serial, mut buckets) = (Vec::new(), Vec::new(), Vec::new());
    let mut rates = BatchRates::default();
    let mut region = HistogramSnapshot::empty();
    let mut keys = BTreeSet::new();
    for _ in 0..SERVE_STRATA {
        let cells = all_cells(&mut rng);
        let problems: Vec<Problem> = cells.iter().map(|&c| problem(c, &mut rng)).collect();
        let batches: Vec<&[Problem]> = problems.chunks(BATCH).collect();
        buckets.extend(batches.iter().map(|b| batch::bucket(b).len() as f64));

        let before = perfport_telemetry::snapshot();
        let outs: Vec<_> = batches
            .iter()
            .map(|b| {
                let _sp = span("batch.gemm_batch");
                let (t, out) = s.serve(b);
                pooled.push(t);
                out
            })
            .collect();
        let d = delta(&before);
        rates.add(&d);
        for name in ["pool/region_ns", "graph/task_run_ns"] {
            if let Some(h) = d.histograms.get(name) {
                region.merge_from(h);
            }
        }
        touched(&d, &mut keys);

        let before = perfport_telemetry::snapshot();
        for (b, out) in batches.iter().zip(&outs) {
            let _sp = span("batch.gemm_batch_serial");
            let (t, reference) = Serve::serve_serial(b);
            serial.push(t);
            report.check(same_bytes(out, &reference), || {
                "serve probe: gemm_batch differs from gemm_batch_serial".to_string()
            });
        }
        touched(&delta(&before), &mut keys);
    }

    let requests = (pooled.len() * BATCH) as f64;
    let ms = |xs: &[f64], q: f64| quantile(xs, q) * 1e3;
    report.metric("serve_rps", requests / pooled.iter().sum::<f64>(), "req/s");
    report.metric("serve_p50_ms", ms(&pooled, 0.5), "ms");
    report.metric("serve_p99_ms", ms(&pooled, 0.99), "ms");
    report.metric(
        "batch.serial_rps",
        requests / serial.iter().sum::<f64>(),
        "req/s",
    );
    report.metric("batch.serial_p99_ms", ms(&serial, 0.99), "ms");
    for (name, (flops, ns)) in ["f64", "f32", "f16", "tiny", "small"]
        .iter()
        .zip(rates.classes)
    {
        report.metric(&format!("batch.gflops.{name}"), flops / ns, "GFLOP/s");
    }
    report.metric(
        "batch.buckets_per_batch",
        buckets.iter().sum::<f64>() / buckets.len() as f64,
        "count",
    );
    report.metric("pool.region_ns.p50", region.quantile(0.5) as f64, "ns");
    report.metric("pool.region_ns.p99", region.quantile(0.99) as f64, "ns");
    report.metric("telemetry.keys", keys.len() as f64, "count");
}

/// The simulator at the study's verification shape, one vendor kernel
/// per device class.
pub fn gpusim(seed: u64, report: &mut Report) {
    let _sp = span("probe.gpusim");
    let mut rng = Rng::new(seed, "gpusim/operands");
    let a = Matrix::<f64>::random(GPU_N, GPU_N, Layout::RowMajor, rng.next_u64());
    let b = Matrix::<f64>::random(GPU_N, GPU_N, Layout::RowMajor, rng.next_u64());
    let block = Dim3::d2(GPU_BLOCK, GPU_BLOCK);
    let (mut threads, mut wall) = (0u64, 0.0f64);
    let (mut warps, mut loads, mut divergent) = (0u64, 0u64, 0u64);
    for (class, variant) in [("nvidia", GpuVariant::Cuda), ("amd", GpuVariant::Hip)] {
        let gpu = Gpu::new(variant.device_class());
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..GPU_REPS {
            let mut sp = span("gpusim.launch");
            sp.arg("class", class);
            let t0 = Instant::now();
            let out = gpu_gemm_mixed::<f64, f64>(&gpu, variant, &a, &b, block);
            times.push(t0.elapsed().as_secs_f64());
            last = Some(out);
        }
        match last.expect("at least one launch") {
            Ok((c, stats)) => {
                let ok = verify_gemm(&a, &b, &c);
                report.check(ok.is_ok(), || format!("gpusim {class}: {ok:?}"));
                threads += stats.threads * GPU_REPS as u64;
                warps += stats.warps;
                loads += stats.load_transactions;
                divergent += stats.divergent_warps;
            }
            Err(e) => report.check(false, || format!("gpusim {class}: {e}")),
        }
        wall += times.iter().sum::<f64>();
        report.metric(
            &format!("gpusim.launch_ms.{class}"),
            median(&times) * 1e3,
            "ms",
        );
    }
    report.metric("gpusim.threads_per_s", threads as f64 / wall, "1/s");
    report.metric("gpusim.warps", warps as f64, "count");
    report.metric("gpusim.load_transactions", loads as f64, "count");
    report.metric("gpusim.divergent_warps", divergent as f64, "count");
}

/// `core`: cold versus memo-warm grids, and serial versus parallel.
pub fn core(seed: u64, threads: usize, report: &mut Report) {
    let _sp = span("probe.core");
    // A seed stream of its own: a study seed any earlier phase of this
    // process used would find its verification memoised.
    let mut study = Study::setup(Rng::new(seed, "core/probe").next_u64(), threads);
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..CORE_REPS {
        let s = study.fresh_seed();
        let g = {
            let _sp = span("core.study.cold");
            study.run(s, threads)
        };
        let w = {
            let _sp = span("core.study.warm");
            study.run(s, threads)
        };
        report.check(g.csv() == w.csv(), || {
            "study: warm rerun changed the CSV".to_string()
        });
        let bad = g.bad_points();
        report.check(bad.is_empty(), || format!("study: {}", bad.join("; ")));
        cold.push(g.seconds);
        warm.push(w.seconds);
        last = Some(g);
    }
    let s = study.fresh_seed();
    let one = {
        let _sp = span("core.study.jobs1");
        study.run(s, 1)
    };
    let many = study.run(s, threads);
    report.check(one.csv() == many.csv(), || {
        "study: jobs=1 CSV differs from jobs=nproc".to_string()
    });

    let last = last.expect("at least one cold grid ran");
    report.metric("study_s", median(&cold), "s");
    report.metric("core.verify_s", median(&cold) - median(&warm), "s");
    report.metric("core.model_s", median(&warm), "s");
    report.metric(
        "core.parallel_eff",
        one.seconds / (threads as f64 * median(&cold)),
        "ratio",
    );
    report.metric("core.points", last.results.len() as f64, "count");
    report.metric(
        "core.unsupported_points",
        last.unsupported() as f64,
        "count",
    );
}
