//! Shared harness code for the figure/table regeneration binaries.
//!
//! Every binary accepts `--quick` (reduced sweep for smoke testing),
//! `--csv` (machine-readable output next to the human-readable table),
//! `--threads <n>` (worker-team size, default: all available cores),
//! `--trace <path>` (write a Chrome `trace_event` file capturing region,
//! kernel-launch, and size-point spans for the run), and `--profile`
//! (read hardware counters around pool regions via `perfport-obs`;
//! degrades to timing-only with a note when counters are unavailable).
//! Unknown flags are an error: the binary prints the usage line and
//! exits with status 2. Binaries with extra flags (`host_gemm`,
//! `roofline_report`) extend the same parser via
//! [`HarnessArgs::try_parse_with`] /
//! [`HarnessArgs::try_parse_with_values`], so the shared set behaves
//! identically everywhere.
//!
//! The figure binaries additionally accept `--shard <i/n>` and
//! `--jobs <n>` ([`ShardArgs`]): sharded invocations emit the canonical
//! per-point study CSV instead of the human-readable panels, and
//! concatenating the stdout of shards `0/n..n-1/n` reproduces the
//! single-shot (`--shard 0/1`) artifact byte for byte (see
//! `perfport_core::shard`).

pub mod diff;
pub mod manifest;

pub use manifest::Manifest;

use perfport_core::{
    figure_efficiency, figure_specs, render_csv, render_efficiency, render_efficiency_csv,
    render_figure, render_study_csv, run_study_sharded, study_grid, FigureSpec, HostBaseline,
    Shard, StudyConfig,
};
use std::path::PathBuf;

/// The usage line shared by every regeneration binary.
pub const USAGE: &str = "usage: [--quick] [--csv] [--threads <n>] [--trace <path>] [--profile]";

/// The usage line for the figure binaries, which also shard and select
/// the vendor baseline for the GPU efficiency rows.
pub const STUDY_USAGE: &str = "usage: [--quick] [--csv] [--threads <n>] [--trace <path>] [--profile] [--shard <i/n>] [--jobs <n>] [--baseline measured|modelled]";

/// Command-line options shared by the regeneration binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Reduced sweep.
    pub quick: bool,
    /// Also print CSV blocks.
    pub csv: bool,
    /// Worker-team size override (`None`: all available cores).
    pub threads: Option<usize>,
    /// Write a Chrome trace of the run here.
    pub trace: Option<PathBuf>,
    /// Read hardware counters around pool regions and kernel sweeps.
    pub profile: bool,
    /// `--help`/`-h` was given; [`HarnessArgs::parse`] prints usage and
    /// exits before a binary ever observes this set.
    pub help: bool,
}

impl HarnessArgs {
    /// Parses the arguments every binary supports, returning an error
    /// message for anything unrecognised or malformed.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        Self::try_parse_with(args, |_| false)
    }

    /// Like [`HarnessArgs::try_parse`], but lets a binary accept extra
    /// boolean flags on top of the shared set: `extra` is called for any
    /// otherwise-unknown argument and returns whether it consumed it.
    pub fn try_parse_with<I: IntoIterator<Item = String>>(
        args: I,
        mut extra: impl FnMut(&str) -> bool,
    ) -> Result<Self, String> {
        Self::try_parse_with_values(args, |flag, _| Ok(extra(flag)))
    }

    /// The general extension hook: `extra` is called for any
    /// otherwise-unknown argument with a puller for the *next* raw
    /// argument, so binary-specific flags can take values (`--shard 0/2`)
    /// as well as report their own parse errors. Returning `Ok(false)`
    /// leaves the argument to the shared parser's unknown-flag rejection.
    pub fn try_parse_with_values<I: IntoIterator<Item = String>>(
        args: I,
        mut extra: impl FnMut(&str, &mut dyn FnMut() -> Option<String>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--csv" => out.csv = true,
                "--profile" => out.profile = true,
                "--help" | "-h" => out.help = true,
                "--threads" => match it.next() {
                    Some(n) => out.threads = Some(parse_thread_count(&n)?),
                    None => return Err("--threads requires a count argument".to_string()),
                },
                "--trace" => match it.next() {
                    Some(path) => out.trace = Some(PathBuf::from(path)),
                    None => return Err("--trace requires a path argument".to_string()),
                },
                other => {
                    if let Some(n) = other.strip_prefix("--threads=") {
                        out.threads = Some(parse_thread_count(n)?);
                    } else if let Some(path) = other.strip_prefix("--trace=") {
                        out.trace = Some(PathBuf::from(path));
                    } else if !extra(other, &mut || it.next())? {
                        return Err(format!("unknown argument '{other}'"));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Parses the arguments every binary supports; prints the usage line
    /// and exits non-zero on anything unrecognised (exits zero for
    /// `--help`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::parse_with_usage(args, USAGE, |_| false)
    }

    /// [`HarnessArgs::parse`] with a binary-specific usage line and extra
    /// flags (see [`HarnessArgs::try_parse_with`]).
    pub fn parse_with_usage<I: IntoIterator<Item = String>>(
        args: I,
        usage: &str,
        extra: impl FnMut(&str) -> bool,
    ) -> Self {
        match Self::try_parse_with(args, extra) {
            Ok(out) if out.help => {
                println!("{usage}");
                std::process::exit(0);
            }
            Ok(out) => out,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    /// Parses from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Enables hardware-counter profiling when `--profile` was given,
    /// printing a one-line notice either way (to stderr, so tables stay
    /// clean). Returns whether counters are actually recording.
    pub fn start_profiling(&self) -> bool {
        if !self.profile {
            return false;
        }
        let avail = perfport_obs::try_enable();
        eprintln!("hardware counters: {}", avail.manifest_str());
        avail.is_available()
    }

    /// The worker-team size to run with: the `--threads` override, or
    /// every core the OS reports.
    pub fn thread_count(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Builds the worker pool these arguments select.
    pub fn make_pool(&self) -> perfport_pool::ThreadPool {
        perfport_pool::ThreadPool::new(self.thread_count())
    }

    /// The study configuration these arguments select.
    pub fn config(&self) -> StudyConfig {
        if self.quick {
            StudyConfig::quick()
        } else {
            StudyConfig::default()
        }
    }

    /// Starts a global trace session when `--trace` was given, stamping
    /// the run's provenance manifest as the first event so every trace
    /// artifact records the machine/toolchain that produced it. Call
    /// [`TraceOutput::finish`] after the run to write the file.
    pub fn start_trace(&self) -> Option<TraceOutput> {
        self.start_trace_with(|_| {})
    }

    /// [`HarnessArgs::start_trace`] with a hook to stamp extra provenance
    /// (shard identity, job count) onto the manifest before it is emitted
    /// as the trace's first event.
    pub fn start_trace_with(&self, stamp: impl FnOnce(&mut Manifest)) -> Option<TraceOutput> {
        self.trace.as_ref().map(|path| {
            let session = perfport_trace::TraceSession::start();
            let mut manifest = Manifest::collect(self.thread_count());
            stamp(&mut manifest);
            perfport_trace::instant("bench", "manifest", manifest.trace_args());
            TraceOutput {
                session,
                path: path.clone(),
            }
        })
    }
}

/// The `--shard i/n` / `--jobs N` / `--baseline` options of the figure
/// binaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardArgs {
    /// Which slice of the study grid to run (`None`: classic panel
    /// output).
    pub shard: Option<Shard>,
    /// Worker count for the sharded runner (`None`: one job).
    pub jobs: Option<usize>,
    /// Vendor baseline dividing the GPU efficiency rows (`None`: the
    /// measured default, see [`HostBaseline`]).
    pub baseline: Option<HostBaseline>,
}

impl ShardArgs {
    /// The [`HarnessArgs::try_parse_with_values`] hook consuming
    /// `--shard`/`--jobs`/`--baseline` in both `--flag value` and
    /// `--flag=value` spellings.
    ///
    /// # Errors
    ///
    /// A message naming the malformed or missing value.
    pub fn consume(
        &mut self,
        flag: &str,
        next: &mut dyn FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        match flag {
            "--shard" => {
                let v = next().ok_or_else(|| "--shard requires an i/n argument".to_string())?;
                self.shard = Some(Shard::parse(&v)?);
            }
            "--jobs" => {
                let v = next().ok_or_else(|| "--jobs requires a count argument".to_string())?;
                self.jobs = Some(parse_job_count(&v)?);
            }
            "--baseline" => {
                let v =
                    next().ok_or_else(|| "--baseline requires measured or modelled".to_string())?;
                self.baseline = Some(parse_baseline(&v)?);
            }
            other => {
                if let Some(v) = other.strip_prefix("--shard=") {
                    self.shard = Some(Shard::parse(v)?);
                } else if let Some(v) = other.strip_prefix("--jobs=") {
                    self.jobs = Some(parse_job_count(v)?);
                } else if let Some(v) = other.strip_prefix("--baseline=") {
                    self.baseline = Some(parse_baseline(v)?);
                } else {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Whether either sharding flag was given: selects the per-point CSV
    /// study runner instead of the human-readable panels.
    pub fn is_sharded(&self) -> bool {
        self.shard.is_some() || self.jobs.is_some()
    }

    /// The selected shard (`0/1`, the whole grid, when only `--jobs` was
    /// given).
    pub fn shard(&self) -> Shard {
        self.shard.unwrap_or(Shard::FULL)
    }

    /// The selected job count (default one: serial on the calling
    /// thread).
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1).max(1)
    }

    /// The vendor baseline the GPU efficiency rows divide by: the
    /// measured simulator headroom unless `--baseline modelled` asked
    /// for the paper's naive framing.
    pub fn baseline(&self) -> HostBaseline {
        self.baseline.unwrap_or_default()
    }
}

/// Parses a figure binary's process arguments: the shared harness set
/// plus `--shard`/`--jobs`. Prints [`STUDY_USAGE`] and exits 0 for
/// `--help`, 2 for anything unrecognised or malformed.
pub fn parse_study_args() -> (HarnessArgs, ShardArgs) {
    let mut shard = ShardArgs::default();
    match HarnessArgs::try_parse_with_values(std::env::args().skip(1), |flag, next| {
        shard.consume(flag, next)
    }) {
        Ok(out) if out.help => {
            println!("{STUDY_USAGE}");
            std::process::exit(0);
        }
        Ok(out) => (out, shard),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{STUDY_USAGE}");
            std::process::exit(2);
        }
    }
}

/// A live trace session bound to its output file.
pub struct TraceOutput {
    session: perfport_trace::TraceSession,
    path: PathBuf,
}

impl TraceOutput {
    /// Stops recording and writes the Chrome `trace_event` JSON. The
    /// harness binaries treat a write failure as fatal: a requested
    /// trace that silently vanishes is worse than an error.
    pub fn finish(self) {
        let events = self.session.finish();
        let chrome = perfport_trace::export::chrome(&events);
        if let Err(e) = std::fs::write(&self.path, chrome) {
            eprintln!("failed to write trace to {}: {e}", self.path.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} trace events to {} (open in chrome://tracing or ui.perfetto.dev,\n  or summarize with: cargo run -p perfport-bench --bin trace_report -- {})",
            events.len(),
            self.path.display(),
            self.path.display()
        );
    }
}

/// The telemetry snapshot captured at a measurement phase boundary.
///
/// Telemetry counters only grow for the process lifetime, so a binary
/// that stamps them directly over-reports whenever warm-up,
/// verification, or an earlier phase ran in the same process. Capture
/// an epoch when measurement starts and stamp the *delta*
/// ([`telemetry_json_since`]) instead.
pub struct TelemetryEpoch {
    telemetry: perfport_telemetry::Snapshot,
}

/// Captures the current telemetry as a [`TelemetryEpoch`].
pub fn telemetry_epoch() -> TelemetryEpoch {
    TelemetryEpoch {
        telemetry: perfport_telemetry::snapshot(),
    }
}

/// The merged telemetry recorded since `epoch`, serialized as the
/// snapshot `telemetry` block (see [`perfport_telemetry::Snapshot::to_json`]).
pub fn telemetry_json_since(epoch: &TelemetryEpoch, indent: &str) -> String {
    perfport_telemetry::snapshot()
        .delta_since(&epoch.telemetry)
        .to_json(indent)
}

fn parse_thread_count(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("invalid thread count '{s}'")),
    }
}

fn parse_job_count(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("invalid job count '{s}'")),
    }
}

fn parse_baseline(s: &str) -> Result<HostBaseline, String> {
    match s {
        "measured" => Ok(HostBaseline::MeasuredTuned),
        "modelled" | "modeled" => Ok(HostBaseline::NaiveModel),
        other => Err(format!(
            "invalid baseline '{other}' (expected measured or modelled)"
        )),
    }
}

/// Finds a registered figure spec by id.
///
/// # Panics
///
/// Panics for unknown ids.
pub fn spec(id: &str) -> FigureSpec {
    figure_specs()
        .into_iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("unknown figure id {id}"))
}

/// Runs the panels the way the figure binaries do: classic tables when
/// no sharding flag was given, the sharded per-point CSV study runner
/// otherwise.
///
/// In sharded mode the CSV header is emitted by shard 0 only, so
/// concatenating the stdout of shards `0/n..n-1/n` in index order is
/// byte-identical to the `--shard 0/1` artifact; the shard/jobs identity
/// goes to stderr and into the `--trace` manifest, never stdout.
pub fn print_study(ids: &[&str], args: &HarnessArgs, study: &ShardArgs) {
    if !study.is_sharded() {
        return print_panels_with(ids, args, study.baseline());
    }
    args.start_profiling();
    let shard = study.shard();
    let jobs = study.jobs();
    let trace = args.start_trace_with(|m| {
        m.shard = Some(shard.to_string());
        m.jobs = Some(jobs);
        // The sharded CSV is raw per-point throughput — the baseline
        // never touches it — but the manifest still records which
        // framing a panel run with the same flags would have divided by.
        m.baseline = Some(study.baseline().label().to_string());
    });
    let cfg = args.config();
    let total = study_grid(ids, &cfg).len();
    let results = run_study_sharded(ids, &cfg, shard, jobs);
    print!("{}", render_study_csv(&results, shard.index == 0));
    eprintln!(
        "shard {shard}: ran {} of {total} grid points across {jobs} job(s)",
        results.len()
    );
    if let Some(trace) = trace {
        trace.finish();
    }
}

/// Runs the panels and prints them (plus CSV when requested) against
/// the default measured vendor baseline.
pub fn print_panels(ids: &[&str], args: &HarnessArgs) {
    print_panels_with(ids, args, HostBaseline::default())
}

/// [`print_panels`] with an explicit vendor baseline: GPU panels are
/// followed by a per-size efficiency block dividing every curve by the
/// vendor reference times the committed headroom (measured on the
/// gpusim simulator, `BENCH_gpu.json`) — or by the naive modelled
/// reference alone under `--baseline modelled`, labeled as such.
pub fn print_panels_with(ids: &[&str], args: &HarnessArgs, baseline: HostBaseline) {
    args.start_profiling();
    let trace = args.start_trace_with(|m| {
        m.baseline = Some(baseline.label().to_string());
    });
    let cfg = args.config();
    for id in ids {
        let spec = spec(id);
        let rows = spec.run(&cfg);
        println!("== {} ==", spec.id);
        println!("{}", render_figure(spec.title, &rows));
        if args.csv {
            println!("-- {} csv --", spec.id);
            println!("{}", render_csv(&rows));
        }
        if spec.arch.is_gpu() {
            if let Some(eff) = figure_efficiency(&spec, &cfg, baseline) {
                println!("{}", render_efficiency(&eff));
                if args.csv {
                    println!("-- {} efficiency csv --", spec.id);
                    println!("{}", render_efficiency_csv(&eff));
                }
            }
        }
    }
    if let Some(trace) = trace {
        trace.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> HarnessArgs {
        HarnessArgs::try_parse(args.iter().map(|s| s.to_string())).expect("args must parse")
    }

    fn parse_err(args: &[&str]) -> String {
        HarnessArgs::try_parse(args.iter().map(|s| s.to_string()))
            .expect_err("args must be rejected")
    }

    #[test]
    fn arg_parsing() {
        let a = parse_ok(&["--quick", "--csv"]);
        assert!(a.quick && a.csv);
        assert!(a.trace.is_none() && a.threads.is_none() && !a.help);
        let b = parse_ok(&[]);
        assert!(!b.quick && !b.csv);
        assert_eq!(b.config().gpu_sizes.len(), 9);
        assert_eq!(a.config().gpu_sizes.len(), 2);
        assert!(parse_ok(&["--help"]).help);
        assert!(parse_ok(&["-h"]).help);
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        // The satellite contract: a typo'd flag must not be silently
        // ignored (HarnessArgs::parse turns these into usage + exit 2).
        assert!(parse_err(&["--qiuck"]).contains("--qiuck"));
        assert!(parse_err(&["--quick", "--frobnicate"]).contains("--frobnicate"));
        assert!(parse_err(&["stray"]).contains("stray"));
        assert!(USAGE.contains("--quick") && USAGE.contains("--threads"));
    }

    #[test]
    fn threads_flag_takes_a_count() {
        assert_eq!(parse_ok(&["--threads", "8"]).threads, Some(8));
        assert_eq!(parse_ok(&["--threads=3", "--quick"]).threads, Some(3));
        assert_eq!(parse_ok(&["--threads", "8"]).thread_count(), 8);
        // Default: every core the OS reports (always at least one).
        assert!(parse_ok(&[]).thread_count() >= 1);
        assert!(parse_err(&["--threads"]).contains("count"));
        assert!(parse_err(&["--threads", "zero"]).contains("zero"));
        assert!(parse_err(&["--threads=0"]).contains('0'));
        let pool = parse_ok(&["--threads", "3"]).make_pool();
        assert_eq!(pool.num_threads(), 3);
    }

    #[test]
    fn trace_flag_takes_a_path() {
        let a = parse_ok(&["--trace", "/tmp/x.trace"]);
        assert_eq!(
            a.trace.as_deref(),
            Some(std::path::Path::new("/tmp/x.trace"))
        );
        let b = parse_ok(&["--trace=/tmp/y.trace", "--quick"]);
        assert_eq!(
            b.trace.as_deref(),
            Some(std::path::Path::new("/tmp/y.trace"))
        );
        assert!(b.quick);
        // A dangling --trace is now a hard error, like any malformed flag.
        assert!(parse_err(&["--trace"]).contains("path"));
    }

    #[test]
    fn profile_flag_parses_everywhere() {
        assert!(parse_ok(&["--profile"]).profile);
        assert!(!parse_ok(&[]).profile);
        let a = parse_ok(&["--quick", "--profile", "--threads", "2"]);
        assert!(a.profile && a.quick);
        assert!(USAGE.contains("--profile"));
    }

    #[test]
    fn extra_flags_extend_but_do_not_weaken_rejection() {
        let mut measured = false;
        let a = HarnessArgs::try_parse_with(
            ["--quick", "--measured"].iter().map(|s| s.to_string()),
            |f| {
                if f == "--measured" {
                    measured = true;
                    true
                } else {
                    false
                }
            },
        )
        .unwrap();
        assert!(a.quick && measured);
        // Anything the hook declines is still a hard error.
        let err =
            HarnessArgs::try_parse_with(["--frobnicate"].iter().map(|s| s.to_string()), |f| {
                f == "--measured"
            })
            .unwrap_err();
        assert!(err.contains("--frobnicate"));
    }

    fn parse_study(args: &[&str]) -> Result<(HarnessArgs, ShardArgs), String> {
        let mut shard = ShardArgs::default();
        let out = HarnessArgs::try_parse_with_values(
            args.iter().map(|s| s.to_string()),
            |flag, next| shard.consume(flag, next),
        )?;
        Ok((out, shard))
    }

    #[test]
    fn shard_flags_parse_in_both_spellings() {
        let (a, s) = parse_study(&["--quick", "--shard", "1/4", "--jobs", "3"]).unwrap();
        assert!(a.quick);
        assert_eq!(s.shard, Some(Shard { index: 1, count: 4 }));
        assert_eq!(s.jobs, Some(3));
        let (_, s) = parse_study(&["--shard=0/2", "--jobs=2"]).unwrap();
        assert_eq!(s.shard(), Shard { index: 0, count: 2 });
        assert_eq!(s.jobs(), 2);
        assert!(s.is_sharded());
    }

    #[test]
    fn shard_defaults_cover_the_whole_grid_serially() {
        let (_, s) = parse_study(&["--quick"]).unwrap();
        assert!(!s.is_sharded());
        assert_eq!(s.shard(), Shard::FULL);
        assert_eq!(s.jobs(), 1);
        // --jobs alone still selects the sharded CSV path over shard 0/1.
        let (_, s) = parse_study(&["--jobs", "2"]).unwrap();
        assert!(s.is_sharded());
        assert_eq!(s.shard(), Shard::FULL);
    }

    #[test]
    fn baseline_flag_selects_the_vendor_framing() {
        // Default: the measured simulator/host headroom divides the rows.
        let (_, s) = parse_study(&["--quick"]).unwrap();
        assert_eq!(s.baseline, None);
        assert_eq!(s.baseline(), HostBaseline::MeasuredTuned);
        let (_, s) = parse_study(&["--baseline", "modelled"]).unwrap();
        assert_eq!(s.baseline(), HostBaseline::NaiveModel);
        let (_, s) = parse_study(&["--baseline=measured", "--quick"]).unwrap();
        assert_eq!(s.baseline(), HostBaseline::MeasuredTuned);
        // The single-l American spelling is accepted too.
        let (_, s) = parse_study(&["--baseline=modeled"]).unwrap();
        assert_eq!(s.baseline(), HostBaseline::NaiveModel);
        let err = parse_study(&["--baseline", "vibes"]).unwrap_err();
        assert!(err.contains("vibes") && err.contains("measured"));
        assert!(parse_study(&["--baseline"])
            .unwrap_err()
            .contains("measured or modelled"));
        assert!(STUDY_USAGE.contains("--baseline"));
    }

    #[test]
    fn malformed_shard_flags_are_hard_errors() {
        assert!(parse_study(&["--shard"]).unwrap_err().contains("i/n"));
        assert!(parse_study(&["--shard", "2/2"])
            .unwrap_err()
            .contains("2/2"));
        assert!(parse_study(&["--shard=banana"])
            .unwrap_err()
            .contains("banana"));
        assert!(parse_study(&["--jobs"]).unwrap_err().contains("count"));
        assert!(parse_study(&["--jobs", "0"]).unwrap_err().contains('0'));
        assert!(parse_study(&["--jobs=none"]).unwrap_err().contains("none"));
        // The hook leaves genuinely unknown flags to the shared rejection.
        assert!(parse_study(&["--shards", "0/2"])
            .unwrap_err()
            .contains("--shards"));
        assert!(STUDY_USAGE.contains("--shard") && STUDY_USAGE.contains("--jobs"));
    }

    #[test]
    fn value_taking_hook_reports_its_own_errors() {
        let err = HarnessArgs::try_parse_with_values(
            ["--custom"].iter().map(|s| s.to_string()),
            |flag, next| {
                if flag == "--custom" {
                    next().ok_or_else(|| "--custom requires a value".to_string())?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            },
        )
        .unwrap_err();
        assert!(err.contains("--custom requires a value"));
    }

    #[test]
    fn spec_lookup() {
        assert_eq!(spec("fig4a").id, "fig4a");
    }

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_spec_panics() {
        let _ = spec("fig9z");
    }
}
