//! Panic-propagation stress: a worker panic must surface to the caller
//! as a panic, and the pool must stay fully usable afterwards — no
//! wedged workers, no lost messages, no corrupted region accounting.
//!
//! Run this suite both ways (the behaviour must not depend on test
//! parallelism):
//!
//! ```text
//! cargo test -p perfport-pool --test panic_stress
//! RUST_TEST_THREADS=1 cargo test -p perfport-pool --test panic_stress
//! ```
//!
//! `pool/worker_panics` is process-global: the test that counts it
//! exactly holds [`PANICS`] for writing, every other test that makes
//! workers panic holds it for reading, so they still overlap each other.

use perfport_pool::{Schedule, SenseBarrier, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

static PANICS: RwLock<()> = RwLock::new(());

/// Held by a test whose workers panic but which does not count panics.
fn panicking() -> RwLockReadGuard<'static, ()> {
    PANICS.read().unwrap_or_else(|e| e.into_inner())
}

/// The `pool/worker_panics` counter now.
fn worker_panics() -> u64 {
    perfport_telemetry::snapshot()
        .counters
        .get("pool/worker_panics")
        .copied()
        .unwrap_or(0)
}

/// Alternates panicking and clean regions on one pool many times; the
/// pool must recover after every panic.
#[test]
fn pool_survives_repeated_worker_panics() {
    let _panics = panicking();
    let pool = ThreadPool::new(4);
    let completed = AtomicUsize::new(0);
    for round in 0..50 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_each(64, Schedule::Dynamic { chunk: 3 }, |i| {
                if i == round {
                    panic!("induced panic in round {round}");
                }
            });
        }));
        assert!(result.is_err(), "round {round}: panic did not propagate");

        let stats = pool.parallel_for_each(128, Schedule::StaticBlock, |_| {
            completed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.total_items(), 128, "round {round}: pool wedged");
    }
    assert_eq!(completed.load(Ordering::Relaxed), 50 * 128);
}

/// Panics from several workers in the same region collapse into one
/// propagated panic, and the join still completes.
#[test]
fn simultaneous_panics_join_cleanly() {
    let _panics = panicking();
    let pool = ThreadPool::new(8);
    for _ in 0..20 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_region(&|_tid| {
                panic!("every worker panics");
            });
        }));
        assert!(result.is_err());
        // All eight workers must be back in their receive loops.
        let stats = pool.parallel_for_each(8, Schedule::StaticBlock, |_| {});
        assert_eq!(stats.items_per_thread.len(), 8);
        assert_eq!(stats.total_items(), 8);
    }
}

/// A worker that panics before an in-region barrier poisons it on the
/// way out, so its teammates stop waiting and the region re-raises
/// instead of hanging. The teammates it releases are not counted as
/// panics of their own: `pool/worker_panics` rises by one per round.
#[test]
fn panic_before_a_region_barrier_poisons_it_instead_of_hanging() {
    let _exclusive = PANICS.write().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(4);
    for round in 0..20 {
        let barrier = SenseBarrier::new(pool.num_threads());
        let panics_before = worker_panics();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_region(&|tid| {
                let _poison = barrier.poison_on_unwind();
                if tid == 0 {
                    panic!("worker 0 panics before the barrier in round {round}");
                }
                barrier.wait();
                barrier.wait();
            });
        }));
        assert!(result.is_err(), "round {round}: region did not re-raise");
        assert!(barrier.is_poisoned(), "round {round}");
        assert_eq!(worker_panics() - panics_before, 1, "round {round}");
        // Every worker is back in its receive loop.
        let stats = pool.parallel_for_each(8, Schedule::StaticBlock, |_| {});
        assert_eq!(stats.total_items(), 8, "round {round}: pool wedged");
    }
}

/// A panic in one region does not leak into the accounting of later
/// regions (`regions_run` keeps counting, stats stay exact).
#[test]
fn accounting_is_exact_across_panics() {
    let _panics = panicking();
    let pool = ThreadPool::new(3);
    let before = pool.regions_run();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for_each(10, Schedule::StaticBlock, |i| {
            if i == 5 {
                panic!("boom");
            }
        });
    }));
    let stats = pool.parallel_for_each(300, Schedule::Guided { min_chunk: 2 }, |_| {});
    assert_eq!(stats.total_items(), 300);
    assert!((stats.imbalance() - 1.0).abs() < 3.0, "stats corrupted");
    // Both the panicked and the clean region were counted as run.
    assert_eq!(pool.regions_run(), before + 2);
}

/// Panics race with heavy concurrent use from multiple pools without
/// deadlock (regression stress for the join protocol's panic path).
#[test]
fn many_pools_panicking_concurrently() {
    let _panics = panicking();
    std::thread::scope(|s| {
        for p in 0..4 {
            s.spawn(move || {
                let pool = ThreadPool::new(2 + p % 3);
                for round in 0..10 {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        pool.parallel_for_each(32, Schedule::Dynamic { chunk: 1 }, |i| {
                            if i % 7 == round % 7 {
                                panic!("pool {p} round {round}");
                            }
                        });
                    }));
                    let stats = pool.parallel_for_each(32, Schedule::StaticBlock, |_| {});
                    assert_eq!(stats.total_items(), 32);
                }
            });
        }
    });
}
