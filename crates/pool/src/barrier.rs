//! A reusable sense-reversing barrier for a team inside one parallel
//! region.
//!
//! The pool's own fork-join does not use it (`RegionState` counts the
//! team in and out of a region). This barrier synchronises phases
//! *within* a region: the tuned GEMM's workers pack disjoint slices of a
//! shared `B` panel, meet here, and only then read the whole panel. The
//! sense-reversing design (one atomic counter plus a phase flag) is the
//! textbook centralised barrier: the last thread to arrive flips the
//! sense, releasing everyone spinning on it, and the flip itself makes
//! the barrier immediately reusable with no reset step.
//!
//! A teammate that panics never arrives, so a plain barrier would block
//! the rest of the team for ever and the pool's panic→poison path would
//! never fire. Each member therefore holds a [`PoisonOnUnwind`] guard:
//! unwinding out of the region body poisons the barrier, which wakes
//! every waiter and makes its `wait` unwind in turn, so the region
//! re-raises like any other worker panic. Those secondary unwinds carry
//! a [`BarrierPoisoned`] payload and skip the panic hook, so the pool
//! counts, reports and flight-records only the root-cause panic.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A reusable barrier for a fixed-size team.
///
/// Waiters first spin briefly (cheap when the team is balanced, which is
/// the common case for a static GEMM schedule) and then fall back to
/// blocking on a condvar, so an imbalanced team does not burn cores.
pub struct SenseBarrier {
    team: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// The unwind payload of a `wait` on a poisoned [`SenseBarrier`]: this
/// member stopped because a teammate panicked, not because it failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPoisoned;

/// Poisons its [`SenseBarrier`] if dropped while the thread unwinds; see
/// [`SenseBarrier::poison_on_unwind`].
#[must_use = "the barrier is poisoned only if the guard is alive when the panic unwinds"]
pub struct PoisonOnUnwind<'b>(&'b SenseBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// How many times a waiter polls the sense flag before blocking.
const SPIN_LIMIT: u32 = 1 << 12;

impl SenseBarrier {
    /// Creates a barrier for a team of `team` threads.
    ///
    /// # Panics
    ///
    /// Panics if `team == 0`.
    pub fn new(team: usize) -> Self {
        assert!(team > 0, "barrier team must be non-empty");
        SenseBarrier {
            team,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Team size the barrier was built for.
    pub fn team(&self) -> usize {
        self.team
    }

    /// Marks the barrier poisoned and wakes every waiter. A poisoned
    /// barrier stays poisoned: every current and later [`wait`] unwinds
    /// with [`BarrierPoisoned`].
    ///
    /// [`wait`]: SenseBarrier::wait
    pub fn poison(&self) {
        let _guard = self.lock.lock();
        self.poisoned.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Whether a teammate poisoned the barrier.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// A guard that poisons the barrier if the holder unwinds while it is
    /// alive. Each team member takes one at the top of its region body.
    pub fn poison_on_unwind(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(self)
    }

    /// Unwinds with [`BarrierPoisoned`] if a teammate poisoned the
    /// barrier. `resume_unwind` skips the panic hook: the teammate's own
    /// panic already reported the cause.
    fn check_poison(&self) {
        if self.is_poisoned() {
            std::panic::resume_unwind(Box::new(BarrierPoisoned));
        }
    }

    /// Blocks until all `team` threads have called `wait` for this phase.
    /// Returns `true` on exactly one thread per phase (the last arriver),
    /// mirroring `std::sync::Barrier`'s leader result.
    ///
    /// # Panics
    ///
    /// Unwinds with a [`BarrierPoisoned`] payload if the barrier is, or
    /// becomes while waiting, poisoned.
    pub fn wait(&self) -> bool {
        self.check_poison();
        let my_sense = !self.sense.load(Ordering::Relaxed);
        // AcqRel: arrivals before the barrier happen-before releases after.
        let n = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if n == self.team {
            self.arrived.store(0, Ordering::Relaxed);
            // Release the new phase; pairs with the Acquire loads below.
            let _guard = self.lock.lock();
            self.sense.store(my_sense, Ordering::Release);
            self.cv.notify_all();
            return true;
        }
        let mut spins = 0;
        while self.sense.load(Ordering::Acquire) != my_sense {
            self.check_poison();
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                let mut guard = self.lock.lock();
                // `poison` sets the flag under this lock, so a waiter that
                // sees it clear here cannot miss the wake-up.
                if self.sense.load(Ordering::Acquire) != my_sense && !self.is_poisoned() {
                    self.cv.wait(&mut guard);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn single_thread_barrier_is_a_noop_leader() {
        let b = SenseBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
        assert_eq!(b.team(), 1);
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        let team = 8;
        let phases = 50;
        let b = Arc::new(SenseBarrier::new(team));
        let leaders = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..team {
                let b = b.clone();
                let leaders = leaders.clone();
                s.spawn(move || {
                    for _ in 0..phases {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), phases);
    }

    #[test]
    fn barrier_separates_phases() {
        // Classic check: no thread may enter phase k+1 while another is
        // still in phase k.
        let team = 6;
        let phases = 100;
        let b = Arc::new(SenseBarrier::new(team));
        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..team {
                let b = b.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for phase in 0..phases {
                        counter.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the barrier, everyone must have bumped the
                        // counter for this phase.
                        let seen = counter.load(Ordering::SeqCst);
                        assert!(seen >= (phase + 1) * team, "phase {phase}: saw {seen}");
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), team * phases);
    }

    #[test]
    fn poison_wakes_a_parked_waiter_and_makes_it_unwind() {
        // A team of two where one member never arrives, so only the
        // poison can release the other. Whether it is still spinning or
        // already parked on the condvar (the pause makes that likely),
        // its `wait` must unwind with the poison payload.
        let b = SenseBarrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.wait());
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.poison();
            let payload = waiter.join().expect_err("the waiter must unwind");
            assert!(payload.is::<BarrierPoisoned>());
        });
        assert!(b.is_poisoned());
        let late = std::panic::catch_unwind(|| b.wait());
        let payload = late.expect_err("a poisoned barrier stays poisoned");
        assert!(payload.is::<BarrierPoisoned>());
    }

    #[test]
    fn guard_poisons_only_on_unwind() {
        let b = SenseBarrier::new(2);
        drop(b.poison_on_unwind());
        assert!(!b.is_poisoned(), "a normal drop leaves the barrier usable");
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = b.poison_on_unwind();
            panic!("unwinding through the guard");
        }));
        assert!(b.is_poisoned());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_team_panics() {
        let _ = SenseBarrier::new(0);
    }
}
