//! An OpenMP-like work-sharing runtime.
//!
//! The paper compares four CPU programming models that all reduce to the
//! same execution shape: a persistent team of worker threads, a `parallel
//! for` over an index space, a loop schedule (OpenMP `static`/`dynamic`/
//! `guided`, Julia `@threads :static`, Numba `prange`), and an optional
//! thread-affinity policy (`OMP_PROC_BIND`/`OMP_PLACES`, `JULIA_EXCLUSIVE`;
//! Numba notably has none). This crate is that substrate, built from
//! scratch on `crossbeam` channels and `parking_lot` primitives:
//!
//! * [`ThreadPool`] — a persistent worker team with fork-join semantics and
//!   panic propagation (the "OpenMP runtime"). Every parallel call site in
//!   the workspace runs on it as a `parallel for` over a [`Schedule`],
//!   which is the execution shape all four of the paper's CPU models share.
//!   A loop that writes disjoint output uses
//!   [`ThreadPool::parallel_for_mut`], which hands every chunk its own
//!   `&mut` slice of the output.
//! * [`Schedule`] — static (block or round-robin chunked), dynamic, and
//!   guided loop schedules, implemented exactly as the OpenMP 5.x
//!   specification describes them.
//! * [`CpuTopology`] / [`PinPolicy`] — affinity bookkeeping. Placement is
//!   *recorded*, not enforced with `sched_setaffinity` (no `libc`
//!   dependency, and containers routinely mask CPU sets); the analytical
//!   timing models in `perfport-machines` consume the recorded placement to
//!   model NUMA locality, which is the effect the paper attributes to
//!   pinning.
//! * [`RegionStats`] — per-region instrumentation: items and chunks per
//!   thread, load imbalance, fork-join overhead.
//! * [`WorkQueue`] — a submit-from-outside task queue drained by the pool's
//!   team, for serving workloads where work arrives continuously instead of
//!   as one up-front index space.
//! * [`SenseBarrier`] — a reusable sense-reversing barrier for phases
//!   inside one region, poisoned (through [`PoisonOnUnwind`]) when a
//!   teammate panics so the rest of the team cannot hang on it.
//! * [`CachePadded`] / [`CacheInfo`] — false-sharing padding for hot
//!   shared atomics, and cache capacities for cache-aware blocking.

#![deny(unsafe_code)]

mod barrier;
mod pad;
mod pool;
mod queue;
mod reduce;
mod schedule;
mod stats;
mod topology;

pub use barrier::{BarrierPoisoned, PoisonOnUnwind, SenseBarrier};
pub use pad::CachePadded;
pub use pool::{ForContext, ThreadPool};
pub use queue::WorkQueue;
pub use schedule::{static_block, Chunk, Schedule, StaticChunks};
pub use stats::RegionStats;
pub use topology::{CacheInfo, CacheSource, CpuTopology, PinPolicy, Placement};
