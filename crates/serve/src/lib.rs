//! Distributed study service: a lease-based shard coordinator and
//! workers speaking a versioned, length-prefixed TCP protocol.
//!
//! The paper's study grid (Figs. 4–7) is embarrassingly parallel across
//! grid points, and `perfport_core::shard` already guarantees that
//! concatenating shard outputs reproduces the single-shot artifact byte
//! for byte. This crate lifts that contract over the wire: a
//! [`coordinator`] enumerates the grid, leases contiguous index ranges
//! to [`worker`]s, re-leases ranges whose workers miss heartbeats, and
//! reassembles the per-point CSV in canonical panel → curve → size
//! order. The acceptance contract is PR 5's, across machines instead of
//! threads:
//!
//! > For any worker count, any lease size, and any kill/retry schedule,
//! > stripping the `#`-prefixed trailer from the joined artifact yields
//! > bytes identical to the `--shard 0/1` single-shot artifact.
//!
//! Each worker stamps its `perfport-manifest/1` (ISA, caches,
//! telemetry mode) into its `Result` frames; the coordinator
//! embeds every worker's manifest into the joined artifact's trailer,
//! so cross-machine provenance survives the join.
//!
//! The wire protocol — [`frame::Frame`]`::{Hello, Lease, Result,
//! Heartbeat, Bye}` over the [`comm::Communicator`] trait, with an
//! in-process loopback transport for tests and [`comm::tcp_v1`] for
//! real sockets — is specified, not just implemented: `DESIGN.md`
//! § "perfport-serve wire protocol" carries the normative frame
//! grammar, the lease lifecycle state machine, the heartbeat/re-lease
//! rules, and the byte-identity proof obligation. The `serve_coordinator`
//! and `serve_worker` binaries are the deployable faces; the
//! coordinator's `--local N` flag runs the whole service in-process as
//! a self-test.
//!
//! # Examples
//!
//! End to end over loopback, one worker, grid of one quick panel:
//!
//! ```
//! use perfport_serve::coordinator::{strip_trailer, CoordinatorConfig};
//! use perfport_serve::local::run_local;
//!
//! let cfg = CoordinatorConfig {
//!     ids: vec!["fig5c".to_string()],
//!     quick: true,
//!     lease_points: 1,
//!     ..CoordinatorConfig::default()
//! };
//! let joined = run_local(&cfg, 1, None).unwrap();
//! let rendered = joined.render();
//! // The trailer carries the worker's provenance manifest...
//! assert!(rendered.contains("# worker-manifest w0"));
//! // ...and stripping it recovers the canonical CSV body exactly.
//! assert_eq!(strip_trailer(&rendered), joined.csv);
//! assert!(joined.csv.starts_with("figure,arch,model,precision,n,"));
//! ```

#![deny(missing_docs)]

pub mod comm;
pub mod coordinator;
pub mod frame;
pub mod local;
pub mod worker;

pub use comm::{CommError, Communicator, Loopback};
pub use coordinator::{strip_trailer, CoordinatorConfig, JoinedArtifact};
pub use frame::{Frame, FrameError, Role, PROTOCOL_VERSION};
pub use local::{run_local, KillPlan};
pub use worker::{WorkerConfig, WorkerSummary};

use std::fmt;

/// A service-level failure of a coordinator or worker session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The underlying transport failed.
    Comm(CommError),
    /// The peer violated the protocol (bad spec, out-of-grid lease,
    /// unexpected frame).
    Protocol(String),
    /// A lease range died more than the configured retry budget allows;
    /// the coordinator aborts rather than loop forever.
    LeaseExhausted {
        /// First canonical grid index of the doomed range.
        start: usize,
        /// One past its last canonical grid index.
        end: usize,
        /// How many times the range was attempted.
        attempts: usize,
    },
    /// The connection source closed with work outstanding and no worker
    /// alive: the grid can never complete.
    NoWorkers,
    /// The coordinator's configured wall-clock cap elapsed.
    DeadlineExceeded,
    /// The coordinator configuration names unregistered figure panels.
    BadSpec(String),
    /// The worker's `fail_after` drill fired (expected, during tests
    /// and the CI dead-lease drill).
    FaultInjected {
        /// Points the worker computed before dying.
        after: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Comm(e) => write!(f, "{e}"),
            ServeError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ServeError::LeaseExhausted {
                start,
                end,
                attempts,
            } => write!(
                f,
                "lease over points {start}..{end} failed {attempts} times; giving up"
            ),
            ServeError::NoWorkers => {
                write!(
                    f,
                    "no workers connected and none can arrive; grid incomplete"
                )
            }
            ServeError::DeadlineExceeded => write!(f, "coordinator deadline exceeded"),
            ServeError::BadSpec(detail) => write!(f, "bad study spec: {detail}"),
            ServeError::FaultInjected { after } => {
                write!(f, "fault injected after {after} points")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CommError> for ServeError {
    fn from(e: CommError) -> ServeError {
        ServeError::Comm(e)
    }
}
