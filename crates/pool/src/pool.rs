//! The persistent worker team and its fork-join protocol.
//!
//! Like an OpenMP runtime, the pool keeps its team alive across parallel
//! regions: forking a region costs one channel send per worker plus a
//! wake-up, not a thread spawn. Region bodies may borrow from the caller's
//! stack; soundness comes from the strict join protocol — `run_region`
//! does not return until every worker has signalled completion, so the
//! borrowed closure outlives all uses.
//!
//! Regions on one pool run one at a time. The pool is `Sync`, so two
//! threads may fork on it at once; without a per-pool region lock their
//! jobs could reach the worker channels in different orders, and a
//! region whose members meet at an internal [`crate::SenseBarrier`] would
//! wait for a worker that is stuck in the other region's barrier.

use crate::barrier::BarrierPoisoned;
use crate::schedule::{chunk_sequence, Chunk, DynamicCursor, Schedule, StaticChunks};
use crate::stats::RegionStats;
use crate::topology::{place, CpuTopology, PinPolicy, Placement};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-thread context handed to every region body.
#[derive(Debug, Clone, Copy)]
pub struct ForContext {
    /// This worker's index within the team, `0..num_threads`.
    pub thread_id: usize,
    /// Team size (`omp_get_num_threads`).
    pub num_threads: usize,
    /// Where the affinity policy put this worker.
    pub placement: Placement,
}

/// Iterations of the coordinator's spin phase before it parks on the
/// condvar. Sized so a small region (tens of microseconds of work per
/// worker) joins without a futex round trip, while a long region costs
/// at most a few microseconds of extra spinning.
const JOIN_SPIN_ITERS: u32 = 4096;

/// Completion state shared between the coordinator and the team for one
/// region.
///
/// The join counter lives on its own cache-line pair: every worker RMWs
/// it once per region, and at small region sizes those RMWs land within
/// nanoseconds of each other — sharing a line with `done_flag` (which
/// the coordinator polls in its spin phase) would make each decrement
/// evict the coordinator's line.
struct RegionState {
    remaining: crate::pad::CachePadded<AtomicUsize>,
    panicked: AtomicBool,
    /// Lock-free completion flag for the coordinator's spin phase.
    done_flag: AtomicBool,
    /// Parked-path completion state, for when spinning times out.
    done: Mutex<bool>,
    cv: Condvar,
}

impl RegionState {
    fn new(team: usize) -> Arc<Self> {
        Arc::new(RegionState {
            remaining: crate::pad::CachePadded::new(AtomicUsize::new(team)),
            panicked: AtomicBool::new(false),
            done_flag: AtomicBool::new(false),
            done: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn finish_one(&self) {
        // AcqRel: the worker's writes happen-before the coordinator's
        // return from `wait`.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done_flag.store(true, Ordering::Release);
            let mut done = self.done.lock();
            *done = true;
            self.cv.notify_all();
        }
    }

    /// Bounded spin, then park. Forking a region costs one channel send
    /// per worker; at small loop sizes the *join* used to dominate
    /// because the coordinator always took the mutex + condvar path
    /// (a futex sleep/wake pair). Spinning on the lock-free flag first
    /// makes the fork-join round trip allocation- and syscall-free
    /// whenever the region finishes within the spin budget.
    fn wait(&self) {
        for _ in 0..JOIN_SPIN_ITERS {
            // Acquire pairs with the Release store in `finish_one` (and
            // transitively with every worker's AcqRel decrement), so the
            // workers' writes are visible once the flag reads true.
            if self.done_flag.load(Ordering::Acquire) {
                return;
            }
            std::hint::spin_loop();
        }
        let mut done = self.done.lock();
        while !*done {
            self.cv.wait(&mut done);
        }
    }
}

enum Msg {
    Run(handoff::Job),
    Shutdown,
}

/// The hand-off of a region body to the workers, the one module exempt
/// from the crate's `deny` lint: a job carries a type-erased pointer to a
/// body on the coordinator's stack. Jobs are made only by
/// [`handoff::fork_join`], which does not return before every worker has
/// reported completion, and running a job consumes it before the worker
/// can report, so the body outlives every call.
#[allow(unsafe_code)]
mod handoff {
    use super::{Msg, RegionState};
    use crossbeam::channel::Sender;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// One worker's share of a region: the erased body and the region's
    /// completion state.
    pub(super) struct Job {
        data: *const (),
        call: unsafe fn(*const (), usize),
        state: Arc<RegionState>,
    }

    // SAFETY: `data` points at a `F: Sync` closure that the coordinator
    // keeps alive until all workers signalled completion; sending the
    // pointer to worker threads is exactly the `&F: Send` capability
    // `F: Sync` grants.
    unsafe impl Send for Job {}

    impl Job {
        /// Runs the body as worker `tid`, catching a panic, and hands back
        /// the region's state for the worker to report completion on.
        pub(super) fn run(self, tid: usize) -> (std::thread::Result<()>, Arc<RegionState>) {
            // SAFETY: `fork_join` keeps the body alive until this worker
            // reports completion on the returned state, which it can only
            // do after this call.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, tid) }));
            (result, self.state)
        }
    }

    /// Sends every worker behind `senders` a job that runs `body`, and
    /// returns once all of them have reported completion on `state`.
    pub(super) fn fork_join<F: Fn(usize) + Sync>(
        senders: &[Sender<Msg>],
        body: &F,
        state: &Arc<RegionState>,
    ) {
        for tx in senders {
            let job = Job {
                data: body as *const F as *const (),
                call: call_body::<F>,
                state: Arc::clone(state),
            };
            tx.send(Msg::Run(job)).expect("worker channel closed");
        }
        state.wait();
    }

    /// Calls the closure behind the erased pointer. Split out so each
    /// monomorphisation carries the concrete `F`.
    ///
    /// # Safety
    ///
    /// `data` must point to a live `F`.
    unsafe fn call_body<F: Fn(usize) + Sync>(data: *const (), thread_id: usize) {
        let f = unsafe { &*(data as *const F) };
        f(thread_id);
    }
}

/// A persistent team of worker threads with OpenMP-style fork-join
/// parallel regions and work-sharing loops.
///
/// ```
/// use perfport_pool::{Schedule, ThreadPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// pool.parallel_for_each(1000, Schedule::StaticBlock, |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 999 * 1000 / 2);
/// ```
pub struct ThreadPool {
    senders: Vec<Sender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    placements: Vec<Placement>,
    topology: CpuTopology,
    policy: PinPolicy,
    regions_run: AtomicUsize,
    /// Held by `run_region` from the first job send to the join, so the
    /// regions of concurrent callers never interleave on the workers.
    region_lock: Mutex<()>,
}

impl ThreadPool {
    /// Creates a pool of `threads` unpinned workers on a flat topology.
    pub fn new(threads: usize) -> Self {
        Self::with_affinity(
            threads,
            CpuTopology::flat(threads.max(1)),
            PinPolicy::Unpinned,
        )
    }

    /// Creates a pool whose workers are placed on `topology` according to
    /// `policy`. Placement is recorded for the timing models; it is not
    /// enforced with OS affinity calls (see crate docs).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_affinity(threads: usize, topology: CpuTopology, policy: PinPolicy) -> Self {
        assert!(threads > 0, "thread pool must have at least one worker");
        let placements: Vec<Placement> = (0..threads)
            .map(|t| place(&topology, policy, threads, t))
            .collect();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for tid in 0..threads {
            let (tx, rx) = unbounded::<Msg>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("perfport-worker-{tid}"))
                .spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Msg::Run(job) => {
                                let (result, state) = {
                                    // Hardware-counter scope around the
                                    // region body (no-op unless profiling
                                    // is enabled); dropped before
                                    // `finish_one` so the coordinator
                                    // never observes a half-recorded
                                    // region.
                                    let _hw = perfport_obs::thread_scope();
                                    job.run(tid)
                                };
                                if let Err(payload) = &result {
                                    // Flight-record the poisoning task
                                    // itself before the coordinator even
                                    // learns about the failure — the dump
                                    // guard is first-trigger-wins, so the
                                    // file on disk ends with this event.
                                    // A teammate released by a poisoned
                                    // barrier did not fail: only the
                                    // root-cause panic is counted.
                                    if !payload.is::<BarrierPoisoned>() {
                                        let msg = perfport_telemetry::panic_message(&**payload);
                                        perfport_telemetry::counter_add("pool/worker_panics", 1);
                                        perfport_telemetry::event("task_panic", msg.clone());
                                        perfport_telemetry::flight_dump("task_panic", &msg);
                                    }
                                    state.panicked.store(true, Ordering::Release);
                                }
                                state.finish_one();
                            }
                            Msg::Shutdown => break,
                        }
                    }
                })
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        ThreadPool {
            senders,
            handles,
            placements,
            topology,
            policy,
            regions_run: AtomicUsize::new(0),
            region_lock: Mutex::new(()),
        }
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.senders.len()
    }

    /// The topology the team is placed on.
    pub fn topology(&self) -> CpuTopology {
        self.topology
    }

    /// The affinity policy in effect.
    pub fn policy(&self) -> PinPolicy {
        self.policy
    }

    /// Recorded placement of every worker.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of parallel regions executed so far.
    pub fn regions_run(&self) -> usize {
        self.regions_run.load(Ordering::Relaxed)
    }

    /// Runs `body(thread_id)` on every worker and waits for all of them —
    /// a bare `#pragma omp parallel`. Every worker runs the body exactly
    /// once, so members may meet at a barrier inside it; concurrent
    /// callers on one pool queue up for the region lock.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if any worker's body panicked.
    pub fn run_region<F: Fn(usize) + Sync>(&self, body: &F) {
        let mut sp = perfport_trace::span("pool", "region");
        sp.arg("team", self.senders.len());
        let serial = self.region_lock.lock();
        perfport_telemetry::event("region_begin", format!("team={}", self.senders.len()));
        let started = Instant::now();
        let state = RegionState::new(self.senders.len());
        handoff::fork_join(&self.senders, body, &state);
        drop(serial);
        let region_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        perfport_telemetry::counter_add("pool/regions", 1);
        perfport_telemetry::observe("pool/region_ns", region_ns);
        self.regions_run.fetch_add(1, Ordering::Relaxed);
        let panicked = state.panicked.load(Ordering::Acquire);
        sp.arg("panicked", panicked);
        if panicked {
            perfport_telemetry::counter_add("pool/regions_poisoned", 1);
            perfport_telemetry::event("region_poison", format!("ns={region_ns}"));
            perfport_telemetry::flight_dump(
                "region_poison",
                "a perfport-pool worker panicked inside a parallel region",
            );
            panic!("a perfport-pool worker panicked inside a parallel region");
        }
        perfport_telemetry::event("region_end", format!("ns={region_ns}"));
    }

    /// Work-sharing loop over `0..n`: `body(ctx, chunk)` is invoked for
    /// every chunk the schedule assigns, each index reaching exactly one
    /// invocation. Returns the region's instrumentation.
    pub fn parallel_for<F>(&self, n: usize, schedule: Schedule, body: F) -> RegionStats
    where
        F: Fn(ForContext, Chunk) + Sync,
    {
        let team = self.num_threads();
        let mut sp = perfport_trace::span("pool", "parallel_for");
        let tallies: Vec<Mutex<Tally>> = (0..team).map(|_| Mutex::default()).collect();
        let cursor = DynamicCursor::new(n);
        let placements = &self.placements;

        let started = Instant::now();
        let task = |tid: usize| {
            let t0 = Instant::now();
            let ctx = ForContext {
                thread_id: tid,
                num_threads: team,
                placement: placements[tid],
            };
            let mut my_items = 0usize;
            let mut my_chunks = 0usize;
            if schedule.is_static() {
                for c in StaticChunks::new(schedule, n, team, tid) {
                    body(ctx, c);
                    my_items += c.len();
                    my_chunks += 1;
                }
            } else {
                while let Some(c) = cursor.grab(schedule, team) {
                    body(ctx, c);
                    my_items += c.len();
                    my_chunks += 1;
                }
            }
            // Each worker locks only its own tally, so the lock never
            // waits.
            *tallies[tid].lock() = Tally {
                items: my_items,
                chunks: my_chunks,
                busy: t0.elapsed(),
            };
        };
        self.run_region(&task);
        let elapsed = started.elapsed();

        let tallies: Vec<Tally> = tallies.into_iter().map(Mutex::into_inner).collect();
        let max_busy = tallies
            .iter()
            .map(|t| t.busy)
            .max()
            .unwrap_or(Duration::ZERO);
        // A thread that finished early sat at the implicit end barrier for
        // the rest of the region; that wait is the schedule's imbalance in
        // wall time, so it is measured on every run.
        let barrier_wait_per_thread: Vec<Duration> = tallies
            .iter()
            .map(|t| elapsed.saturating_sub(t.busy))
            .collect();
        let stats = RegionStats {
            items_per_thread: tallies.iter().map(|t| t.items).collect(),
            chunks_per_thread: tallies.iter().map(|t| t.chunks).collect(),
            elapsed,
            fork_join_overhead: elapsed.saturating_sub(max_busy),
            barrier_wait_per_thread,
        };
        let barrier_wait_ns = stats
            .total_barrier_wait()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        perfport_telemetry::counter_add("pool/barrier_wait_ns", barrier_wait_ns);
        perfport_telemetry::observe("pool/parallel_for_ns", region_ns_u64(elapsed));
        if sp.is_recording() {
            sp.arg("n", n);
            sp.arg("schedule", format!("{schedule:?}"));
            sp.arg("team", team);
            sp.arg(
                "items_min",
                stats.items_per_thread.iter().copied().min().unwrap_or(0),
            );
            sp.arg(
                "items_max",
                stats.items_per_thread.iter().copied().max().unwrap_or(0),
            );
            sp.arg("imbalance", stats.imbalance());
            sp.arg(
                "fork_join_overhead_ns",
                stats.fork_join_overhead.as_nanos() as u64,
            );
        }
        stats
    }

    /// Work-sharing loop that writes disjoint output: the index space is
    /// `0..data.len() / width`, and every chunk's body receives exactly
    /// its own elements, `data[chunk.start * width..chunk.end * width]`,
    /// as a `&mut` slice.
    ///
    /// This is the safe form of "each row belongs to one thread": `data`
    /// is split with `split_at_mut` along the schedule's chunk sequence
    /// (a pure function of the schedule, `n` and the team size, dynamic
    /// and guided included) before the region starts, and each slice is
    /// handed out once. The static schedules need one slice per chunk, so
    /// [`Schedule::StaticBlock`] allocates one per thread.
    ///
    /// # Panics
    ///
    /// Panics before any worker runs if `width` is zero or does not
    /// divide `data.len()`, or if a chunked schedule's chunk size is zero;
    /// re-raises a worker's panic like [`ThreadPool::parallel_for`].
    pub fn parallel_for_mut<T, F>(
        &self,
        data: &mut [T],
        width: usize,
        schedule: Schedule,
        body: F,
    ) -> RegionStats
    where
        T: Send,
        F: Fn(ForContext, Chunk, &mut [T]) + Sync,
    {
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "width {width} does not divide the {} elements",
            data.len()
        );
        let n = data.len() / width;
        let chunks = chunk_sequence(schedule, n, self.num_threads());
        let mut rest = data;
        let slices: Vec<Mutex<Option<&mut [T]>>> = chunks
            .iter()
            .map(|c| {
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(c.len() * width);
                rest = tail;
                Mutex::new(Some(mine))
            })
            .collect();
        self.parallel_for(n, schedule, |ctx, chunk| {
            let slot = chunks
                .binary_search_by_key(&chunk.start, |c| c.start)
                .expect("the schedule hands out only chunks of its sequence");
            let mine = slices[slot]
                .lock()
                .take()
                .expect("each chunk is handed out once");
            assert_eq!(mine.len(), chunk.len() * width, "chunk {chunk:?} resized");
            body(ctx, chunk, mine);
        })
    }

    /// Convenience per-index variant of [`ThreadPool::parallel_for`].
    pub fn parallel_for_each<F>(&self, n: usize, schedule: Schedule, body: F) -> RegionStats
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for(n, schedule, |_, chunk| {
            for i in chunk.range() {
                body(i);
            }
        })
    }

    /// Work-sharing map over `0..n`: runs `f(i)` for every index under
    /// `schedule` and returns the results **in index order**, regardless
    /// of which worker computed which index or in what interleaving.
    ///
    /// This is the collection primitive behind the sharded study runner:
    /// an embarrassingly parallel grid can fan out across the team while
    /// the ordered return value lets the caller emit output bytes
    /// identical to a serial run.
    pub fn parallel_map<T, F>(&self, n: usize, schedule: Schedule, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        self.parallel_for_mut(&mut slots, 1, schedule, |_, chunk, out| {
            for (i, slot) in chunk.range().zip(out) {
                *slot = Some(f(i));
            }
        });
        slots
            .into_iter()
            .map(|v| v.expect("schedule visited every index exactly once"))
            .collect()
    }
}

/// One worker's share of a `parallel_for`, reported after the join.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    items: usize,
    chunks: usize,
    busy: Duration,
}

/// `Duration` → saturating nanoseconds, for telemetry histograms.
fn region_ns_u64(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            // Workers may already be gone if a panic tore things down.
            let _ = tx.send(Msg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn region_runs_on_every_worker() {
        let pool = ThreadPool::new(6);
        let mask = AtomicU64::new(0);
        pool.run_region(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b11_1111);
        assert_eq!(pool.regions_run(), 1);
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticChunked { chunk: 3 },
            Schedule::Dynamic { chunk: 5 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let n = 1237;
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let stats = pool.parallel_for_each(n, schedule, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{schedule:?} missed or duplicated an index"
            );
            assert_eq!(stats.total_items(), n, "{schedule:?} stats miscounted");

            // The same index space through `parallel_for_mut`: every
            // element written once, each body given exactly its chunk.
            let width = 3;
            let mut data = vec![0u32; n * width];
            let stats = pool.parallel_for_mut(&mut data, width, schedule, |_, chunk, out| {
                assert_eq!(out.len(), chunk.len() * width, "{schedule:?} {chunk:?}");
                for (i, row) in chunk.range().zip(out.chunks_exact_mut(width)) {
                    for x in row {
                        *x += i as u32 + 1;
                    }
                }
            });
            assert!(
                data.chunks_exact(width)
                    .enumerate()
                    .all(|(i, row)| row.iter().all(|&x| x == i as u32 + 1)),
                "{schedule:?} missed or duplicated an element"
            );
            assert_eq!(stats.total_items(), n, "{schedule:?} stats miscounted");
        }
    }

    #[test]
    fn parallel_for_mut_rejects_a_ragged_width_before_any_worker_runs() {
        let pool = ThreadPool::new(3);
        let ran = AtomicUsize::new(0);
        let mut data = vec![0u8; 10];
        for width in [0, 3, 4] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_for_mut(&mut data, width, Schedule::StaticBlock, |_, _, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }));
            let message = result.expect_err("ragged width must panic");
            let message = message
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(message.contains("does not divide"), "{message}");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(pool.regions_run(), 0);
    }

    #[test]
    fn parallel_for_mut_over_empty_data_is_fine() {
        let pool = ThreadPool::new(4);
        let mut empty: Vec<f64> = Vec::new();
        for schedule in [Schedule::StaticBlock, Schedule::Guided { min_chunk: 1 }] {
            let stats =
                pool.parallel_for_mut(&mut empty, 5, schedule, |_, _, _| panic!("must not run"));
            assert_eq!(stats.total_items(), 0);
        }
    }

    #[test]
    fn parallel_for_mut_propagates_a_worker_panic() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 64];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_mut(
                &mut data,
                2,
                Schedule::Dynamic { chunk: 3 },
                |_, chunk, _| {
                    assert!(!chunk.range().contains(&17), "boom");
                },
            );
        }));
        assert!(result.is_err());
        // The pool must remain usable, and the data writable, afterwards.
        pool.parallel_for_mut(&mut data, 2, Schedule::StaticBlock, |_, chunk, out| {
            for (i, x) in (chunk.start * 2..).zip(out) {
                *x = i;
            }
        });
        assert_eq!(data, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_for_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let input: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        pool.parallel_for(input.len(), Schedule::StaticBlock, |_, chunk| {
            let local: u64 = input[chunk.range()].iter().sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1000 * 999 / 2);
    }

    #[test]
    fn static_block_stats_are_balanced() {
        let pool = ThreadPool::new(8);
        let stats = pool.parallel_for_each(800, Schedule::StaticBlock, |_| {});
        assert_eq!(stats.items_per_thread, vec![100; 8]);
        assert_eq!(stats.chunks_per_thread, vec![1; 8]);
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(stats.participation(), 1.0);
    }

    #[test]
    fn dynamic_schedule_lets_fast_threads_take_more() {
        let pool = ThreadPool::new(4);
        // Make thread work heavily skewed: index 0 is very slow.
        let stats = pool.parallel_for(256, Schedule::Dynamic { chunk: 1 }, |_, chunk| {
            if chunk.start == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        assert_eq!(stats.total_items(), 256);
        // The thread that got stuck on index 0 should have processed far
        // fewer items than the busiest thread.
        let max = *stats.items_per_thread.iter().max().unwrap();
        let min = *stats.items_per_thread.iter().min().unwrap();
        assert!(max > min, "dynamic schedule should be uneven under skew");
    }

    #[test]
    fn context_reports_team_and_placement() {
        let topo = CpuTopology::new(2, 4, 1);
        let pool = ThreadPool::with_affinity(8, topo, PinPolicy::Compact);
        let seen = parking_lot::Mutex::new(HashSet::new());
        pool.parallel_for(8, Schedule::StaticBlock, |ctx, chunk| {
            assert_eq!(ctx.num_threads, 8);
            match ctx.placement {
                Placement::Pinned { core, numa } => {
                    assert_eq!(core, ctx.thread_id);
                    assert_eq!(numa, ctx.thread_id / 4);
                }
                Placement::Floating => panic!("compact policy must pin"),
            }
            seen.lock().insert((ctx.thread_id, chunk.start));
        });
        assert_eq!(seen.lock().len(), 8);
    }

    #[test]
    fn pool_survives_many_regions() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.parallel_for_each(64, Schedule::StaticBlock, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 64);
        assert_eq!(pool.regions_run(), 200);
    }

    #[test]
    fn many_tiny_regions_join_correctly() {
        // Small regions finish inside the coordinator's spin budget, so
        // this hammers the lock-free join path; the sleepy regions in
        // `fork_join_overhead_is_measured` cover the parked path.
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..2000 {
            pool.parallel_for_each(4, Schedule::StaticBlock, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_each(16, Schedule::StaticBlock, |i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must remain usable afterwards.
        let stats = pool.parallel_for_each(8, Schedule::StaticBlock, |_| {});
        assert_eq!(stats.total_items(), 8);
    }

    #[test]
    fn empty_loop_is_fine() {
        let pool = ThreadPool::new(4);
        let stats = pool.parallel_for_each(0, Schedule::Dynamic { chunk: 8 }, |_| {
            panic!("must not run")
        });
        assert_eq!(stats.total_items(), 0);
    }

    #[test]
    fn single_thread_pool_runs_serially() {
        let pool = ThreadPool::new(1);
        let mut order = Vec::new();
        let order_cell = parking_lot::Mutex::new(&mut order);
        pool.parallel_for_each(10, Schedule::StaticBlock, |i| {
            order_cell.lock().push(i);
        });
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fork_join_overhead_is_measured() {
        let pool = ThreadPool::new(2);
        let stats = pool.parallel_for_each(2, Schedule::StaticBlock, |_| {
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(stats.elapsed >= Duration::from_millis(5));
        assert!(stats.fork_join_overhead < stats.elapsed);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn parallel_map_returns_results_in_index_order() {
        let pool = ThreadPool::new(4);
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticChunked { chunk: 3 },
            Schedule::Dynamic { chunk: 1 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            let out = pool.parallel_map(37, schedule, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        // Non-Clone, non-Default result types are fine.
        let boxed = pool.parallel_map(5, Schedule::Dynamic { chunk: 2 }, Box::new);
        assert_eq!(
            boxed.iter().map(|b| **b).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        let empty: Vec<usize> = pool.parallel_map(0, Schedule::StaticBlock, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn concurrent_callers_never_interleave_barrier_regions() {
        // Two threads fork regions whose members meet at an internal
        // barrier on one shared pool. Interleaved jobs would leave each
        // region waiting for a worker parked in the other's barrier. The
        // callers start every round together and the team is wide, so
        // their job sends overlap: without the region lock this hangs
        // within a few hundred rounds.
        let pool = ThreadPool::new(8);
        let rounds = 500;
        let finished = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..rounds {
                        let barrier = crate::SenseBarrier::new(pool.num_threads());
                        start.wait();
                        pool.run_region(&|_tid| {
                            barrier.wait();
                            barrier.wait();
                        });
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(finished.load(Ordering::Relaxed), 2 * rounds);
        assert_eq!(pool.regions_run(), 2 * rounds);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn parallel_map_propagates_panics() {
        let pool = ThreadPool::new(2);
        let _ = pool.parallel_map(8, Schedule::StaticBlock, |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
