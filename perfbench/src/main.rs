//! The perfport benchmark: one command per workload, driven from outside
//! the program through its public entry points.
//!
//! ```text
//! perfbench --workload dense|naive|serve|study --seed <u64> --seconds <n> --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing
//! off. `--trace 1` is the separate traced run: it replays the workload
//! with tracing off and on in alternation (`trace.overhead`), then runs
//! the traced layer sweep for the per-layer metrics, and writes the spans
//! to `.bench_out/trace-<workload>.json`. Every run checks the program's
//! outputs and prints, as its last line, one JSON object with the check
//! tallies and the metrics. See `perfbench/README.md`.

mod dense;
mod layers;
mod serve;
mod study;
mod util;

use perfport_trace as trace;
use std::time::{Duration, Instant};
use util::{median, quantile, secs, Report, Rng};

/// Measurement epochs per run, each with its own set-up; `setup_s` is
/// the median set-up time.
const EPOCHS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Dense,
    Naive,
    Serve,
    Study,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "dense" => Some(Workload::Dense),
            "naive" => Some(Workload::Naive),
            "serve" => Some(Workload::Serve),
            "study" => Some(Workload::Study),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Dense => "dense",
            Workload::Naive => "naive",
            Workload::Serve => "serve",
            Workload::Study => "study",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Measures in [`EPOCHS`] epochs. Each epoch sets the workload up afresh
/// on its own derived seed (timed; `setup_s` is the median), calls `op`
/// until its share of the run's seconds passes, and hands the state and
/// the epoch's results to `check`, outside the timed calls. Fresh
/// set-ups give each epoch new pool threads and new buffers, so one run
/// samples several thread and memory placements rather than one.
fn epochs<S, T>(
    args: &Args,
    mut setup: impl FnMut(u64) -> S,
    mut op: impl FnMut(&mut S) -> T,
    mut check: impl FnMut(&mut S, &[T]),
) -> Measured<T> {
    let mut seeds = Rng::new(args.seed, "epochs");
    let (mut all, mut setups, mut setup_rss) = (Vec::new(), Vec::new(), None);
    for _ in 0..EPOCHS {
        let seed = seeds.next_u64();
        let t0 = Instant::now();
        let mut state = setup(seed);
        setups.push(secs(t0));
        setup_rss.get_or_insert_with(|| util::rss_mb("VmRSS"));
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / EPOCHS as f64);
        let mut out = Vec::new();
        while out.is_empty() || Instant::now() < deadline {
            out.push(op(&mut state));
        }
        check(&mut state, &out);
        all.extend(out);
    }
    Measured {
        results: all,
        setup_s: median(&setups),
        setup_rss_mb: setup_rss.flatten().unwrap_or(f64::NAN),
    }
}

/// What [`epochs`] measured.
struct Measured<T> {
    /// Every operation's result, epoch after epoch.
    results: Vec<T>,
    /// Median set-up seconds.
    setup_s: f64,
    /// Resident set right after the first set-up, MB.
    setup_rss_mb: f64,
}

/// The end-to-end metrics shared by every workload: the median time of
/// one *operation* (a `dense` or `naive` round, a served request, whose
/// latency is its batch's service time, or a study grid) and the median
/// set-up time. Peak memory and the error rate are printed beside them
/// (see the README for why they are not gated).
fn end_to_end<T>(report: &mut Report, op_seconds: &[f64], m: &Measured<T>) {
    report.note("samples", op_seconds.len() as f64, "count");
    report.metric("op_ms", median(op_seconds) * 1e3, "ms");
    report.metric("setup_s", m.setup_s, "s");
    report.metric("setup_rss_mb", m.setup_rss_mb, "MB");
    report.note(
        "peak_rss_mb",
        util::rss_mb("VmHWM").unwrap_or(f64::NAN),
        "MB",
    );
    let rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.note(
        "error_rate",
        rate,
        &format!("ratio ({} checks)", report.attempted),
    );
}

fn verified(report: &mut Report, outcomes: Vec<(String, Result<f64, String>)>) {
    for (kernel, outcome) in outcomes {
        report.check(outcome.is_ok(), || format!("{kernel}: {outcome:?}"));
    }
}

fn dense_e2e(args: &Args, threads: usize, report: &mut Report) {
    let m = epochs(
        args,
        |s| dense::Tuned::setup(s, threads),
        dense::Tuned::round,
        |t, _| verified(report, t.verify(args.seed)),
    );
    let rounds = &m.results;
    report.note(
        "vendor_gflops_fp64",
        dense::rate(rounds, 0, dense::N_TUNED),
        "GFLOP/s",
    );
    report.note(
        "vendor_gflops_fp32",
        dense::rate(rounds, 1, dense::N_TUNED),
        "GFLOP/s",
    );
    let totals: Vec<f64> = rounds.iter().map(|r| r.iter().sum()).collect();
    end_to_end(report, &totals, &m);
}

fn naive_e2e(args: &Args, threads: usize, report: &mut Report) {
    let m = epochs(
        args,
        |s| dense::Naive::setup(s, threads),
        dense::Naive::round,
        |n, _| verified(report, n.verify(args.seed)),
    );
    let rounds = &m.results;
    let (rates, geomean) = dense::naive_rates(rounds);
    for (v, g) in perfport_gemm::CpuVariant::ALL.iter().zip(rates) {
        report.note(&format!("naive.gflops.{}", v.name()), g, "GFLOP/s");
    }
    report.note("naive_gflops_fp64", geomean, "GFLOP/s");
    let totals: Vec<f64> = rounds.iter().map(|r| r.iter().sum()).collect();
    end_to_end(report, &totals, &m);
}

fn serve_e2e(args: &Args, threads: usize, report: &mut Report) {
    let m = epochs(
        args,
        |s| serve::Serve::setup(s, threads),
        serve::Serve::serve_chunk,
        |_, _| {},
    );
    let batches: Vec<&(f64, bool)> = m.results.iter().flatten().collect();
    for (_, same) in batches.iter().copied() {
        report.check(*same, || {
            "serve: gemm_batch differs from gemm_batch_serial".to_string()
        });
    }
    let latencies: Vec<f64> = batches.iter().map(|(t, _)| *t).collect();
    let requests = (latencies.len() * serve::BATCH) as f64;
    report.note(
        "serve_rps",
        requests / latencies.iter().sum::<f64>(),
        "req/s",
    );
    report.note("serve_p50_ms", median(&latencies) * 1e3, "ms");
    report.note(
        "serve_p99_ms",
        quantile(&latencies, 0.99) * 1e3,
        &format!("ms (of {} batches)", latencies.len()),
    );
    end_to_end(report, &latencies, &m);
}

fn study_e2e(args: &Args, threads: usize, report: &mut Report) {
    let m = epochs(
        args,
        |s| study::Study::setup(s, threads),
        |st| {
            let seed = st.fresh_seed();
            st.run(seed, threads)
        },
        |st, grids| {
            for g in grids {
                let bad = g.bad_points();
                report.check(bad.is_empty(), || format!("study: {}", bad.join("; ")));
            }
            let (first, expected) = (&grids[0], st.grid_len());
            report.check(first.results.len() == expected, || {
                format!("study: {} points, expected {expected}", first.results.len())
            });
            let serial = st.run(first.seed, 1);
            report.check(serial.csv() == first.csv(), || {
                "study: jobs=1 CSV differs from jobs=nproc".to_string()
            });
        },
    );
    let times: Vec<f64> = m.results.iter().map(|g| g.seconds).collect();
    report.note("study_s", median(&times), "s");
    end_to_end(report, &times, &m);
}

/// Alternates untraced and traced calls of `op` (one operation time,
/// seconds; for `serve` the median batch time of one chunk) until
/// `seconds` pass; returns the `(untraced, traced)` medians and the
/// events of the first traced call.
fn overhead(seconds: f64, mut op: impl FnMut() -> f64) -> (f64, f64, Vec<trace::Event>) {
    let (mut off, mut on, mut kept) = (Vec::new(), Vec::new(), None);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while on.is_empty() || Instant::now() < deadline {
        off.push(op());
        let session = trace::TraceSession::start();
        on.push({
            let _sp = trace::span("perfbench", "workload.op");
            op()
        });
        kept.get_or_insert(session.finish());
    }
    (median(&off), median(&on), kept.unwrap_or_default())
}

fn traced(args: &Args, threads: usize, report: &mut Report) -> Vec<trace::Event> {
    let half = args.seconds / 2.0;
    let (off, on, mut events) = match args.workload {
        Workload::Dense => {
            let mut t = dense::Tuned::setup(args.seed, threads);
            overhead(half, || t.round().iter().sum())
        }
        Workload::Naive => {
            let mut n = dense::Naive::setup(args.seed, threads);
            overhead(half, || n.round().iter().sum())
        }
        Workload::Serve => {
            let mut s = serve::Serve::setup(args.seed, threads);
            overhead(half, || {
                let batches = s.serve_chunk();
                for (_, same) in &batches {
                    report.check(*same, || {
                        "serve: gemm_batch differs from gemm_batch_serial".to_string()
                    });
                }
                median(&batches.iter().map(|(t, _)| *t).collect::<Vec<_>>())
            })
        }
        Workload::Study => {
            let mut st = study::Study::setup(args.seed, threads);
            overhead(half, || {
                let seed = st.fresh_seed();
                st.run(seed, threads).seconds
            })
        }
    };

    let session = trace::TraceSession::start();
    layers::dense(args.seed, threads, report);
    layers::serve(args.seed, threads, report);
    layers::gpusim(args.seed, report);
    layers::core(args.seed, threads, report);
    events.extend(session.finish());

    report.metric("trace.overhead", on / off - 1.0, "ratio");
    let rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("error_rate", rate, "ratio");
    events
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload dense|naive|serve|study --seed <u64> --seconds <n> --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== perfbench {} (seed {}, {} s, trace {}, {threads} threads) ==",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    if args.trace {
        let events = traced(&args, threads, &mut report);
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}.json", args.workload.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::export::chrome(&events)));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} events written to {}",
                events.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    } else {
        match args.workload {
            Workload::Dense => dense_e2e(&args, threads, &mut report),
            Workload::Naive => naive_e2e(&args, threads, &mut report),
            Workload::Serve => serve_e2e(&args, threads, &mut report),
            Workload::Study => study_e2e(&args, threads, &mut report),
        }
    }
    println!("{}", report.json());
}
