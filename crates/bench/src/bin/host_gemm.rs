//! Native host measurements of the hand-rolled kernels against the tuned
//! vendor-BLAS stand-in — the measured numerator *and* denominator of the
//! paper's host efficiency story, on whatever machine builds this repo.
//!
//! Unlike the figure binaries (which model the paper's machines), every
//! number printed here is a genuine wall-clock measurement of the Rust
//! kernels on the build host, following the paper's protocol: one warm-up
//! run excluded, then the mean of several repetitions. Alongside the
//! human-readable tables the run emits `BENCH_gemm.json`, the machine-
//! readable baseline snapshot (the committed copy at the repo root is the
//! build host's measured vendor-headroom evidence).
//!
//! The snapshot uses schema `perfport-bench-gemm/3`: it carries the run's
//! provenance manifest (git SHA, rustc, CPU model, cache hierarchy and
//! its source, hardware-counter availability), the relative rep spread
//! per cell (what `bench_diff` derives its noise-aware thresholds from),
//! a `telemetry` block (the always-on runtime counters and streaming
//! histograms recorded during the measured sweep, stamped as deltas from
//! a pre-measurement epoch so warm-up does not inflate them), and —
//! under `--profile`, when counters are available — per-variant IPC and
//! cache-miss rates from `perf_event_open` groups read around the pool
//! regions.
//!
//! `--quick` restricts the sweep to the headline 1024² size; the
//! tuned-over-best-naive ratio is printed either way.

use perfport_bench::{HarnessArgs, Manifest};
use perfport_gemm::serial::gemm_loop_order;
use perfport_gemm::{gemm_flops, par_gemm, tuned, CpuVariant, Layout, LoopOrder, Matrix, Scalar};
use perfport_half::F16;
use perfport_obs::{self as obs, HwCounter};
use perfport_pool::{Schedule, ThreadPool};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed kernel: mean rate, rep noise, and (when profiling) the
/// hardware-counter delta attributed to the timed reps.
struct Measured {
    gflops: f64,
    /// Relative half-range of the per-rep rates, `(max-min)/(2·mean)` —
    /// the committed noise evidence `bench_diff` thresholds on.
    spread: f64,
    /// Counter totals accumulated during the timed reps (warm-up
    /// excluded), when profiling is on and counters work.
    hw: Option<obs::Totals>,
}

fn measure(reps: usize, flops: u64, mut run: impl FnMut()) -> Measured {
    run(); // warm-up, excluded (the paper's protocol)
    let hw_before = obs::totals();
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        rates.push(flops as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    let hw = obs::enabled().then(|| obs::totals().delta(&hw_before));
    let mean = rates.iter().sum::<f64>() / reps as f64;
    let (min, max) = rates
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
    Measured {
        gflops: mean,
        spread: if mean > 0.0 {
            (max - min) / (2.0 * mean)
        } else {
            0.0
        },
        hw,
    }
}

fn serial_sweep<T: Scalar>(reps: usize, n: usize) -> Vec<(&'static str, f64)> {
    let a = Matrix::<T>::random(n, n, Layout::RowMajor, 1);
    let b = Matrix::<T>::random(n, n, Layout::RowMajor, 2);
    LoopOrder::ALL
        .iter()
        .map(|&order| {
            let m = measure(reps, gemm_flops(n, n, n), || {
                let mut c = Matrix::<T>::zeros(n, n, Layout::RowMajor);
                gemm_loop_order(order, &a, &b, &mut c);
                std::hint::black_box(&c);
            });
            (order.name(), m.gflops)
        })
        .collect()
}

/// One size point: every portable model plus the tuned vendor kernel.
struct SizePoint {
    n: usize,
    precision: &'static str,
    /// `(variant name, measurement)` for the four portable models.
    naive: Vec<(&'static str, Measured)>,
    vendor: Measured,
}

impl SizePoint {
    fn best_naive(&self) -> (&'static str, f64) {
        self.naive
            .iter()
            .map(|(name, m)| (*name, m.gflops))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one portable model")
    }

    fn headroom(&self) -> f64 {
        self.vendor.gflops / self.best_naive().1
    }

    /// Every variant including the vendor kernel, for uniform output.
    fn all(&self) -> impl Iterator<Item = (&'static str, &Measured)> {
        self.naive
            .iter()
            .map(|(name, m)| (*name, m))
            .chain(std::iter::once(("vendor", &self.vendor)))
    }
}

fn measure_point<T: Scalar>(pool: &ThreadPool, reps: usize, n: usize) -> SizePoint {
    let flops = gemm_flops(n, n, n);
    let naive = CpuVariant::ALL
        .iter()
        .map(|&v| {
            let layout = v.layout();
            let a = Matrix::<T>::random(n, n, layout, 3);
            let b = Matrix::<T>::random(n, n, layout, 4);
            let m = measure(reps, flops, || {
                let mut c = Matrix::<T>::zeros(n, n, layout);
                par_gemm(pool, v, &a, &b, &mut c, Schedule::StaticBlock);
                std::hint::black_box(&c);
            });
            (v.name(), m)
        })
        .collect();
    let a = Matrix::<T>::random(n, n, Layout::RowMajor, 3);
    let b = Matrix::<T>::random(n, n, Layout::RowMajor, 4);
    let params = tuned::TunedParams::host::<T>();
    let vendor = measure(reps, flops, || {
        let mut c = Matrix::<T>::zeros(n, n, Layout::RowMajor);
        tuned::gemm(pool, &a, &b, &mut c, &params);
        std::hint::black_box(&c);
    });
    SizePoint {
        n,
        precision: T::NAME,
        naive,
        vendor,
    }
}

fn print_points(points: &[SizePoint], csv: bool, profiling: bool) {
    println!(
        "  {:>6} {:>5}  {:>9} {:>9} {:>9} {:>9} {:>9}  {:>10} {:>12}",
        "n", "prec", "c-openmp", "kokkos", "julia", "numba", "vendor", "best-naive", "vendor/naive"
    );
    for p in points {
        let (bn_name, bn) = p.best_naive();
        print!("  {:>6} {:>5} ", p.n, p.precision);
        for (_, m) in &p.naive {
            print!(" {:>9.3}", m.gflops);
        }
        println!(
            " {:>9.3}  {:>10} {:>11.2}x",
            p.vendor.gflops,
            bn_name,
            p.vendor.gflops / bn
        );
    }
    let have_hw = points.iter().any(|p| p.all().any(|(_, m)| m.hw.is_some()));
    if profiling && !have_hw {
        println!("\n  (--profile requested but counters are unavailable; timing-only)");
    }
    if have_hw {
        println!("\n  hardware counters per variant (timed reps only):");
        println!(
            "  {:>6} {:>5} {:>10} {:>7} {:>10} {:>10} {:>10}",
            "n", "prec", "variant", "IPC", "L1d/ki", "LLC/ki", "branch/ki"
        );
        for p in points {
            for (name, m) in p.all() {
                let Some(hw) = &m.hw else { continue };
                let fmt = |v: Option<f64>| match v {
                    Some(v) => format!("{v:.2}"),
                    None => "-".to_string(),
                };
                println!(
                    "  {:>6} {:>5} {:>10} {:>7} {:>10} {:>10} {:>10}",
                    p.n,
                    p.precision,
                    name,
                    fmt(hw.ipc()),
                    fmt(hw.per_kilo_instruction(HwCounter::L1dMisses)),
                    fmt(hw.per_kilo_instruction(HwCounter::LlcMisses)),
                    fmt(hw.per_kilo_instruction(HwCounter::BranchMisses)),
                );
            }
        }
    }
    if csv {
        println!("-- csv --");
        println!("n,precision,variant,gflops,spread");
        for p in points {
            for (name, m) in p.all() {
                println!(
                    "{},{},{name},{:.4},{:.4}",
                    p.n, p.precision, m.gflops, m.spread
                );
            }
        }
    }
}

fn json_snapshot(
    points: &[SizePoint],
    manifest: &Manifest,
    epoch: &perfport_bench::TelemetryEpoch,
    reps: usize,
    quick: bool,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"perfport-bench-gemm/3\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"manifest\":");
    let _ = writeln!(out, "{},", manifest.to_json(2));
    let _ = writeln!(
        out,
        "  \"protocol\": {{\"reps\": {reps}, \"warmup_runs\": 1, \"metric\": \"gflops\", \"spread\": \"rel_half_range\"}},"
    );
    let _ = writeln!(out, "  \"telemetry\":");
    let _ = writeln!(
        out,
        "{},",
        perfport_bench::telemetry_json_since(epoch, "  ")
    );
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let (bn_name, bn) = p.best_naive();
        let _ = writeln!(
            out,
            "    {{\"n\": {}, \"precision\": \"{}\",",
            p.n, p.precision
        );
        let fields = |f: &dyn Fn(&Measured) -> f64| {
            let mut s = String::from("{");
            for (j, (name, m)) in p.all().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{name}\": {:.4}", f(m));
            }
            s.push('}');
            s
        };
        let _ = writeln!(out, "     \"gflops\": {},", fields(&|m| m.gflops));
        let _ = writeln!(out, "     \"spread\": {},", fields(&|m| m.spread));
        if p.all().any(|(_, m)| m.hw.is_some()) {
            out.push_str("     \"profile\": {");
            let mut first = true;
            for (name, m) in p.all() {
                let Some(hw) = &m.hw else { continue };
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let num =
                    |v: Option<f64>| v.map_or_else(|| "null".to_string(), |v| format!("{v:.4}"));
                let _ = write!(
                    out,
                    "\"{name}\": {{\"ipc\": {}, \"llc_mpki\": {}, \"l1d_mpki\": {}}}",
                    num(hw.ipc()),
                    num(hw.per_kilo_instruction(HwCounter::LlcMisses)),
                    num(hw.per_kilo_instruction(HwCounter::L1dMisses)),
                );
            }
            out.push_str("},\n");
        }
        let _ = write!(
            out,
            "     \"best_naive\": \"{bn_name}\", \"vendor_over_naive\": {:.4}}}",
            p.vendor.gflops / bn
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = HarnessArgs::from_env();
    args.start_profiling();
    let trace = args.start_trace();
    let reps = if args.quick { 3 } else { 5 };
    let workers = args.thread_count();
    let pool = ThreadPool::new(workers);
    let manifest = Manifest::collect(workers);
    println!(
        "host: {workers} workers; caches L1d={}K L2={}K L3={}K ({}); {reps} reps after warm-up; counters {}; tuned microkernel ISA: {}\n",
        manifest.cache.l1d_bytes / 1024,
        manifest.cache.l2_bytes / 1024,
        manifest.cache.l3_bytes / 1024,
        manifest.cache.source,
        manifest.counters,
        manifest.simd_isa
    );
    // Telemetry epoch: everything stamped into the snapshot is a delta
    // from here, so pool construction above stays out of the evidence.
    let epoch = perfport_bench::telemetry_epoch();

    if !args.quick {
        let n = 256;
        println!("== serial loop orders (FP64, n={n}), measured GFLOP/s ==");
        for (name, g) in serial_sweep::<f64>(reps, n) {
            println!("  {name:<6} {g:>8.3}");
        }
        println!("\n== precision sweep (ikj serial, n={n}), measured GFLOP/s ==");
        for (label, g) in [
            ("FP64", serial_sweep::<f64>(reps, n)[1].1),
            ("FP32", serial_sweep::<f32>(reps, n)[1].1),
            ("FP16 (software)", serial_sweep::<F16>(reps, 128)[1].1),
        ] {
            println!("  {label:<16} {g:>8.3}");
        }
        println!();
    }

    println!("== portable models vs tuned vendor baseline, measured GFLOP/s ==");
    let sizes: &[usize] = if args.quick {
        &[1024]
    } else {
        &[256, 512, 1024]
    };
    let mut points = Vec::new();
    for &n in sizes {
        points.push(measure_point::<f64>(&pool, reps, n));
    }
    points.push(measure_point::<f32>(&pool, reps, 1024));
    print_points(&points, args.csv, args.profile);

    let headline = points
        .iter()
        .find(|p| p.n >= 1024 && p.precision == "FP64")
        .expect("sweep includes the headline size");
    println!(
        "\nheadline: tuned vendor kernel is {:.2}x the fastest naive model\n\
         ({}) at n={} FP64 — the measured headroom Table III's host\n\
         efficiencies are scaled by.",
        headline.headroom(),
        headline.best_naive().0,
        headline.n
    );

    let json = json_snapshot(&points, &manifest, &epoch, reps, args.quick);
    let path = "BENCH_gemm.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(trace) = trace {
        trace.finish();
    }
}
