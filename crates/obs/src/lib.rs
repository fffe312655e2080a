//! Hardware-counter observability for the perfport workspace.
//!
//! The benchmark story in the paper (Table III, Figs. 4–7) rests on
//! measured GFLOP/s; this crate attaches the *hardware evidence* behind
//! those rates — instructions-per-cycle, cache-miss traffic, branch
//! behaviour — read from `perf_event_open(2)` counter groups around pool
//! regions and kernel sweeps. Design rules, in the same spirit as
//! `perfport-trace`:
//!
//! - **Observation only.** Counters never feed back into timings or
//!   results; everything stays bit-identical with profiling on or off
//!   (asserted by the end-to-end suite).
//! - **Graceful degradation.** Containers, `perf_event_paranoid >= 3`,
//!   seccomp filters, and non-Linux hosts all land in the same place: a
//!   cached [`Availability::Unavailable`] with the OS's reason, and every
//!   instrumentation site stays a single relaxed atomic load. Timing-only
//!   output is unchanged.
//! - **One sink.** Measured deltas are added to the `perfport-telemetry`
//!   counters `hw/<event>` and `hw/scopes`, so snapshots, Prometheus
//!   text and every trace session's telemetry delta (`hw:*` rows) carry
//!   them with no extra plumbing. [`Totals`] is the derived-rate view of
//!   a snapshot delta. A telemetry `stub` build records no `hw/*`
//!   counts.
//!
//! # Quickstart
//!
//! ```
//! // Ask for counters; fine either way — unavailable hosts keep timing.
//! let avail = perfport_obs::try_enable();
//! let before = perfport_telemetry::snapshot();
//! {
//!     let _scope = perfport_obs::thread_scope();
//!     // ... hot work on this thread ...
//! }
//! let delta = perfport_obs::Totals::since(&before);
//! if avail.is_available() {
//!     println!("IPC {:?}", delta.ipc());
//! }
//! perfport_obs::disable();
//! ```

mod perf;

pub use perf::RawSample;

use perfport_telemetry::Snapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Environment variable that forces [`probe`] to report counters as
/// unavailable (simulating `perf_event_paranoid=3` for tests and CI);
/// its value becomes the reason string.
pub const FORCE_UNAVAILABLE_ENV: &str = "PERFPORT_OBS_FORCE_UNAVAILABLE";

/// The hardware events one counter group measures, in group order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwCounter {
    /// CPU cycles (user space only).
    Cycles,
    /// Retired instructions.
    Instructions,
    /// L1 data-cache read misses.
    L1dMisses,
    /// Last-level-cache misses (DRAM traffic proxy).
    LlcMisses,
    /// Mispredicted branches.
    BranchMisses,
}

impl HwCounter {
    /// Number of events in a group.
    pub const COUNT: usize = 5;

    /// Every event, in the order counts are stored.
    pub const ALL: [HwCounter; HwCounter::COUNT] = [
        HwCounter::Cycles,
        HwCounter::Instructions,
        HwCounter::L1dMisses,
        HwCounter::LlcMisses,
        HwCounter::BranchMisses,
    ];

    /// Stable snake_case name: the telemetry counter is `hw/<name>`.
    pub fn name(self) -> &'static str {
        match self {
            HwCounter::Cycles => "cycles",
            HwCounter::Instructions => "instructions",
            HwCounter::L1dMisses => "l1d_misses",
            HwCounter::LlcMisses => "llc_misses",
            HwCounter::BranchMisses => "branch_misses",
        }
    }

    /// Index into count arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Whether hardware counters can be opened on this host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Availability {
    /// A counter group opened and read successfully.
    Available,
    /// Counters cannot be used; the reason is surfaced verbatim in
    /// manifests (`counters: unavailable (...)`).
    Unavailable {
        /// Why opening failed (OS error, paranoid level, platform).
        reason: String,
    },
}

impl Availability {
    /// True when counters work.
    pub fn is_available(&self) -> bool {
        matches!(self, Availability::Available)
    }

    /// The manifest wording: `"available"` or `"unavailable (reason)"`.
    pub fn manifest_str(&self) -> String {
        match self {
            Availability::Available => "available".to_string(),
            Availability::Unavailable { reason } => format!("unavailable ({reason})"),
        }
    }
}

fn probe_uncached() -> Availability {
    if let Ok(reason) = std::env::var(FORCE_UNAVAILABLE_ENV) {
        let reason = if reason.is_empty() || reason == "1" {
            "forced off via PERFPORT_OBS_FORCE_UNAVAILABLE".to_string()
        } else {
            reason
        };
        return Availability::Unavailable { reason };
    }
    match perf::PerfGroup::open() {
        Ok(group) => match group.read_sample() {
            Ok(_) => Availability::Available,
            Err(e) => Availability::Unavailable {
                reason: format!("group read failed: {e}{}", paranoid_hint()),
            },
        },
        Err(e) => Availability::Unavailable {
            reason: format!("{e}{}", paranoid_hint()),
        },
    }
}

/// Appends the kernel's paranoid level to failure reasons when it is
/// readable — the most common cause on shared machines and containers.
fn paranoid_hint() -> String {
    match std::fs::read_to_string("/proc/sys/kernel/perf_event_paranoid") {
        Ok(s) => format!("; perf_event_paranoid={}", s.trim()),
        Err(_) => String::new(),
    }
}

/// Probes counter availability once per process (cached). The probe
/// actually opens and reads a group, so "available" means the whole
/// path works, not just that the syscall exists.
pub fn probe() -> &'static Availability {
    static PROBE: OnceLock<Availability> = OnceLock::new();
    PROBE.get_or_init(probe_uncached)
}

/// Profiling requested and counters available. One relaxed load; this is
/// the gate every instrumentation site checks first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether profiling is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Requests hardware profiling. Returns the cached availability; when
/// counters are unavailable this is a no-op and every downstream site
/// keeps its timing-only behaviour.
pub fn try_enable() -> &'static Availability {
    let avail = probe();
    if avail.is_available() {
        ENABLED.store(true, Ordering::Relaxed);
    }
    avail
}

/// Stops profiling. Open per-thread groups are kept (cheap, fd-only) but
/// no further scopes record.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// A counter sample with multiplexing metadata, plus derived rates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// The raw kernel-side snapshot.
    pub raw: RawSample,
}

impl Sample {
    /// Multiplexing-corrected count for one event: when the PMU had to
    /// time-share groups, raw counts are scaled by `enabled / running`
    /// (the standard `perf` estimate).
    pub fn scaled(&self, c: HwCounter) -> u64 {
        let raw = self.raw.counts[c.idx()];
        if self.raw.time_running_ns == 0 || self.raw.time_running_ns >= self.raw.time_enabled_ns {
            return raw;
        }
        let ratio = self.raw.time_enabled_ns as f64 / self.raw.time_running_ns as f64;
        (raw as f64 * ratio).round() as u64
    }

    /// Element-wise delta since `earlier` (saturating, in case the group
    /// was reset in between).
    pub fn delta(&self, earlier: &Sample) -> Sample {
        let mut out = RawSample {
            time_enabled_ns: self
                .raw
                .time_enabled_ns
                .saturating_sub(earlier.raw.time_enabled_ns),
            time_running_ns: self
                .raw
                .time_running_ns
                .saturating_sub(earlier.raw.time_running_ns),
            counts: [0; HwCounter::COUNT],
        };
        for i in 0..HwCounter::COUNT {
            out.counts[i] = self.raw.counts[i].saturating_sub(earlier.raw.counts[i]);
        }
        Sample { raw: out }
    }
}

/// Multiplexing-corrected counts summed over every scope that dropped
/// between two telemetry snapshots — the `hw/*` counters of a
/// [`Snapshot`] delta, with derived rates. This is what bench manifests
/// and the measured-roofline mode read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Scaled event counts, indexed by [`HwCounter`] discriminant.
    pub counts: [u64; HwCounter::COUNT],
    /// Number of scopes that contributed.
    pub scopes: u64,
}

impl Totals {
    /// Everything recorded since `before`, a [`perfport_telemetry::snapshot()`]:
    /// the `hw/*` counters of the delta — the usual way to attribute
    /// counts to one phase of a run.
    pub fn since(before: &Snapshot) -> Totals {
        let delta = perfport_telemetry::snapshot().delta_since(before);
        let get = |key: &str| delta.counters.get(key).copied().unwrap_or(0);
        Totals {
            counts: HwCounter::ALL.map(|c| get(&format!("hw/{}", c.name()))),
            scopes: get(SCOPES_KEY),
        }
    }

    /// Count for one event.
    pub fn get(&self, c: HwCounter) -> u64 {
        self.counts[c.idx()]
    }

    /// Instructions per cycle, if both counted.
    pub fn ipc(&self) -> Option<f64> {
        let cycles = self.get(HwCounter::Cycles);
        let instr = self.get(HwCounter::Instructions);
        (cycles > 0).then(|| instr as f64 / cycles as f64)
    }

    /// Misses per thousand instructions for `c`.
    pub fn per_kilo_instruction(&self, c: HwCounter) -> Option<f64> {
        let instr = self.get(HwCounter::Instructions);
        (instr > 0).then(|| self.get(c) as f64 * 1000.0 / instr as f64)
    }

    /// Estimated DRAM traffic in bytes: LLC misses × the (near-universal)
    /// 64-byte line. A lower bound — prefetches that hit LLC are free
    /// here — which is the conservative direction for measured
    /// arithmetic intensity.
    pub fn est_dram_bytes(&self) -> u64 {
        self.get(HwCounter::LlcMisses) * 64
    }
}

/// Telemetry counter holding the number of scopes that recorded.
const SCOPES_KEY: &str = "hw/scopes";

/// Adds one scope's scaled delta to the telemetry registry.
fn record(delta: &Sample) {
    for c in HwCounter::ALL {
        perfport_telemetry::counter_add(&format!("hw/{}", c.name()), delta.scaled(c));
    }
    perfport_telemetry::counter_add(SCOPES_KEY, 1);
}

thread_local! {
    // One lazily-opened group per thread; `None` after a failed open so
    // a denied thread does not retry the syscall per region.
    static THREAD_GROUP: std::cell::RefCell<Option<Option<perf::PerfGroup>>> =
        const { std::cell::RefCell::new(None) };
}

fn with_thread_group<R>(f: impl FnOnce(&perf::PerfGroup) -> R) -> Option<R> {
    THREAD_GROUP.with(|slot| {
        let mut slot = slot.borrow_mut();
        let entry = slot.get_or_insert_with(|| perf::PerfGroup::open().ok());
        entry.as_ref().map(f)
    })
}

/// Measures the calling thread's hardware counters from creation to
/// drop. On drop the scaled delta is added to the telemetry counters
/// `hw/<event>` and `hw/scopes`. When profiling is disabled this is a
/// no-op behind one atomic load.
#[must_use = "a scope measures until this guard drops"]
pub struct ThreadScope {
    start: Option<Sample>,
}

impl ThreadScope {
    /// Whether this scope is actually counting.
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

/// Opens a [`ThreadScope`] on the calling thread.
pub fn thread_scope() -> ThreadScope {
    if !enabled() {
        return ThreadScope { start: None };
    }
    let start = with_thread_group(|g| g.read_sample().ok())
        .flatten()
        .map(|raw| Sample { raw });
    ThreadScope { start }
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let Some(Some(end)) = with_thread_group(|g| g.read_sample().ok()) else {
            return;
        };
        record(&Sample { raw: end }.delta(&start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ENABLED and the `hw/*` telemetry counters are process-wide;
    // serialize the tests that touch them.
    static GLOBAL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn sample(counts: [u64; HwCounter::COUNT], enabled: u64, running: u64) -> Sample {
        Sample {
            raw: RawSample {
                time_enabled_ns: enabled,
                time_running_ns: running,
                counts,
            },
        }
    }

    #[test]
    fn counter_names_are_stable() {
        let names: Vec<&str> = HwCounter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "cycles",
                "instructions",
                "l1d_misses",
                "llc_misses",
                "branch_misses"
            ]
        );
        for (i, c) in HwCounter::ALL.into_iter().enumerate() {
            assert_eq!(c.idx(), i);
        }
    }

    #[test]
    fn multiplex_scaling_applies_only_when_descheduled() {
        let full = sample([1000, 2000, 0, 0, 0], 100, 100);
        assert_eq!(full.scaled(HwCounter::Cycles), 1000);
        // Counted half the time: estimate doubles.
        let half = sample([1000, 2000, 0, 0, 0], 100, 50);
        assert_eq!(half.scaled(HwCounter::Cycles), 2000);
        assert_eq!(half.scaled(HwCounter::Instructions), 4000);
        // Zero running time: no extrapolation, raw counts stand.
        let none = sample([7, 0, 0, 0, 0], 100, 0);
        assert_eq!(none.scaled(HwCounter::Cycles), 7);
    }

    #[test]
    fn sample_delta_is_elementwise_and_saturating() {
        let a = sample([10, 20, 30, 40, 50], 1000, 1000);
        let b = sample([15, 22, 30, 41, 49], 1500, 1400);
        let d = b.delta(&a);
        assert_eq!(d.raw.counts, [5, 2, 0, 1, 0]);
        assert_eq!(d.raw.time_enabled_ns, 500);
        assert_eq!(d.raw.time_running_ns, 400);
    }

    #[test]
    fn totals_derived_rates() {
        let t = Totals {
            counts: [1000, 3000, 60, 15, 9],
            scopes: 2,
        };
        assert!((t.ipc().unwrap() - 3.0).abs() < 1e-12);
        assert!((t.per_kilo_instruction(HwCounter::LlcMisses).unwrap() - 5.0).abs() < 1e-12);
        assert!((t.per_kilo_instruction(HwCounter::L1dMisses).unwrap() - 20.0).abs() < 1e-12);
        assert_eq!(t.est_dram_bytes(), 15 * 64);
        let zero = Totals::default();
        assert_eq!(zero.ipc(), None);
        assert_eq!(zero.per_kilo_instruction(HwCounter::LlcMisses), None);
    }

    #[test]
    fn scope_deltas_land_in_telemetry_scaled() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = perfport_telemetry::snapshot();
        // Counted half the time: every event is recorded doubled.
        record(&sample([100, 300, 6, 2, 1], 1000, 500));
        let delta = perfport_telemetry::snapshot().delta_since(&before);
        let expected = [
            ("hw/cycles", 200),
            ("hw/instructions", 600),
            ("hw/l1d_misses", 12),
            ("hw/llc_misses", 4),
            ("hw/branch_misses", 2),
            ("hw/scopes", 1),
        ];
        for (key, value) in expected {
            assert_eq!(delta.counters.get(key), Some(&value), "{key}");
        }
        let totals = Totals::since(&before);
        assert_eq!(totals.counts, [200, 600, 12, 4, 2]);
        assert_eq!(totals.scopes, 1);
    }

    #[test]
    fn forced_unavailability_reports_reason_and_keeps_sites_inert() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Simulates `perf_event_paranoid=3`: the probe must refuse and
        // every scope must be a recording-free no-op.
        std::env::set_var(FORCE_UNAVAILABLE_ENV, "perf_event_paranoid=3 (simulated)");
        let avail = probe_uncached();
        std::env::remove_var(FORCE_UNAVAILABLE_ENV);
        assert!(!avail.is_available());
        assert_eq!(
            avail.manifest_str(),
            "unavailable (perf_event_paranoid=3 (simulated))"
        );
        disable();
        let before = perfport_telemetry::snapshot();
        let scope = thread_scope();
        assert!(!scope.is_recording());
        drop(scope);
        assert_eq!(
            Totals::since(&before),
            Totals::default(),
            "a disabled scope must record nothing"
        );
    }

    #[test]
    fn scopes_accumulate_when_counters_work() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Whichever way the probe goes on this host, the invariants hold:
        // available -> the scope records and retires instructions;
        // unavailable -> everything stays inert.
        let avail = try_enable();
        let before = perfport_telemetry::snapshot();
        {
            let scope = thread_scope();
            assert_eq!(scope.is_recording(), avail.is_available());
            // Burn a few instructions so the delta is non-trivial.
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
        }
        let delta = Totals::since(&before);
        disable();
        if avail.is_available() {
            assert_eq!(delta.scopes, 1);
            assert!(
                delta.get(HwCounter::Instructions) > 0,
                "a busy loop must retire instructions"
            );
        } else {
            assert_eq!(delta, Totals::default());
        }
    }

    #[test]
    fn manifest_wording() {
        assert_eq!(Availability::Available.manifest_str(), "available");
        assert!(Availability::Unavailable {
            reason: "x".to_string()
        }
        .manifest_str()
        .starts_with("unavailable"));
    }
}
