//! Always-on runtime telemetry for the perfport workspace.
//!
//! `--trace` and `--profile` (PRs 1 and 3) are opt-in: precise, but
//! off by default, so they tell you nothing about the run that just
//! failed or the service that has been up for a week. This crate is
//! the third observability tier — cheap enough to leave on
//! unconditionally:
//!
//! - **Sharded metrics** ([`counter_add`], [`gauge_set`],
//!   [`observe`]): every thread writes its own shard with relaxed
//!   atomics and zero cross-thread traffic; [`snapshot()`] merges the
//!   shards on demand into a canonical [`Snapshot`] with summed
//!   counters, max-merged gauges, and log₂-bucketed streaming
//!   histograms ([`histogram::HistogramSnapshot`]) carrying exact
//!   count/sum.
//! - **Flight recorder** ([`event`], [`flight_dump`]): a fixed-size
//!   per-worker ring of structured runtime events that costs nothing
//!   on disk until a region poisons or a task panics, at which point
//!   the merged rings are serialized to `flight-<pid>.json` for
//!   post-mortem inspection.
//!
//! Instrumentation is **observation-only** by construction: nothing
//! recorded here feeds back into scheduling or numerics, and the
//! workspace's bitwise contracts (serial ≡ parallel, batch ≡ serial,
//! shard concat) are tested with telemetry enabled — because it is
//! always enabled.
//!
//! # Overhead budget and the `stub` feature
//!
//! CI measures the cost of the always-on default by rebuilding the
//! bench harness with this crate's `stub` feature, which replaces
//! every entry point below with an empty inline function, and gating
//! the two `host_gemm` runs against each other (≤2%). Shipping code
//! never enables `stub`; it exists purely as the A/B baseline. Since
//! this crate is the workspace's one metric registry, a `stub` build
//! also records no `perfport-obs` hardware counts (`hw/*`), and every
//! `perfport-trace` session exports an empty telemetry delta.

#![deny(missing_docs)]

pub mod flight;
pub mod histogram;
pub mod snapshot;

#[cfg(not(feature = "stub"))]
mod metrics;

pub use flight::panic_message;
pub use histogram::HistogramSnapshot;
pub use snapshot::Snapshot;

#[cfg(not(feature = "stub"))]
pub use metrics::{counter_add, gauge_set, observe, snapshot};

/// Records a flight-recorder event on the calling thread's ring.
#[cfg(not(feature = "stub"))]
#[inline]
pub fn event(kind: &str, detail: impl Into<String>) {
    flight::event(kind, detail)
}

/// Dumps the flight recorder (first trigger only); returns the path
/// written.
#[cfg(not(feature = "stub"))]
pub fn flight_dump(trigger_kind: &str, trigger_detail: &str) -> Option<std::path::PathBuf> {
    flight::dump(trigger_kind, trigger_detail)
}

/// How this binary was built: `"on"` (the default, telemetry live) or
/// `"stub"` (every entry point compiled to a no-op). Stamped into the
/// run-provenance manifest.
#[cfg(not(feature = "stub"))]
pub fn build_mode() -> &'static str {
    "on"
}

/// Stubbed no-op entry points: same signatures, empty bodies.
#[cfg(feature = "stub")]
mod stubbed {
    use crate::snapshot::Snapshot;

    /// No-op in a `stub` build.
    #[inline]
    pub fn counter_add(_name: &str, _delta: u64) {}

    /// No-op in a `stub` build.
    #[inline]
    pub fn gauge_set(_name: &str, _value: u64) {}

    /// No-op in a `stub` build.
    #[inline]
    pub fn observe(_name: &str, _value: u64) {}

    /// Always the empty snapshot in a `stub` build.
    pub fn snapshot() -> Snapshot {
        Snapshot::default()
    }

    /// No-op in a `stub` build.
    #[inline]
    pub fn event(_kind: &str, _detail: impl Into<String>) {}

    /// Never dumps in a `stub` build.
    pub fn flight_dump(_trigger_kind: &str, _trigger_detail: &str) -> Option<std::path::PathBuf> {
        None
    }

    /// How this binary was built (`"stub"` here).
    pub fn build_mode() -> &'static str {
        "stub"
    }
}

#[cfg(feature = "stub")]
pub use stubbed::{build_mode, counter_add, event, flight_dump, gauge_set, observe, snapshot};
