//! Aggregated launch statistics — the simulator's `nvprof` output.

use crate::coalesce::analyze_warp;
use crate::ctx::{Access, ThreadCtx};
use std::time::Duration;

/// Counters aggregated over one kernel launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchStats {
    /// Blocks in the grid.
    pub blocks: u64,
    /// Warps/wavefronts executed (including partially populated ones).
    pub warps: u64,
    /// Threads launched (grid × block).
    pub threads: u64,
    /// Floating-point operations tallied by the kernel.
    pub flops: u64,
    /// Global-memory element loads.
    pub loads: u64,
    /// Global-memory element stores.
    pub stores: u64,
    /// Coalesced load transactions.
    pub load_transactions: u64,
    /// Coalesced store transactions.
    pub store_transactions: u64,
    /// Bytes requested by loads.
    pub load_bytes: u64,
    /// Bytes requested by stores.
    pub store_bytes: u64,
    /// Atomic read-modify-write operations.
    pub atomic_ops: u64,
    /// Warps whose lanes took different paths (detected from access
    /// streams).
    pub divergent_warps: u64,
    /// Warps with at least one active lane.
    pub active_warps: u64,
    /// Shared-memory element loads (cooperative launches).
    pub shared_loads: u64,
    /// Shared-memory element stores (cooperative launches).
    pub shared_stores: u64,
    /// Extra serialised shared-memory passes from bank conflicts
    /// (cooperative launches).
    pub bank_conflicts: u64,
    /// Barrier phases executed (cooperative launches).
    pub phases: u64,
    /// Host-side wall time spent simulating the launch.
    pub sim_time: Duration,
    /// Transaction granularity used for the analysis, bytes.
    pub line_bytes: u64,
}

impl LaunchStats {
    /// Adds one finished thread's flop and atomic tallies and returns its
    /// access log for the warp analysis.
    pub(crate) fn absorb_thread(&mut self, ctx: ThreadCtx) -> Vec<Access> {
        let (obs, log) = ctx.take_observations();
        self.flops += obs.flops;
        self.atomic_ops += obs.atomics;
        log
    }

    /// Counts one executed warp and adds its coalescing and divergence
    /// analysis.
    pub(crate) fn absorb_warp(&mut self, lanes: &[Vec<Access>]) {
        let w = analyze_warp(lanes, self.line_bytes);
        self.warps += 1;
        self.loads += w.loads;
        self.stores += w.stores;
        self.load_transactions += w.load_transactions;
        self.store_transactions += w.store_transactions;
        self.load_bytes += w.load_bytes;
        self.store_bytes += w.store_bytes;
        if w.divergent {
            self.divergent_warps += 1;
        }
        if w.active {
            self.active_warps += 1;
        }
    }

    pub(crate) fn merge(&mut self, other: &LaunchStats) {
        self.blocks += other.blocks;
        self.warps += other.warps;
        self.threads += other.threads;
        self.flops += other.flops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.load_transactions += other.load_transactions;
        self.store_transactions += other.store_transactions;
        self.load_bytes += other.load_bytes;
        self.store_bytes += other.store_bytes;
        self.atomic_ops += other.atomic_ops;
        self.divergent_warps += other.divergent_warps;
        self.active_warps += other.active_warps;
        self.shared_loads += other.shared_loads;
        self.shared_stores += other.shared_stores;
        self.bank_conflicts += other.bank_conflicts;
        self.phases = self.phases.max(other.phases);
    }

    /// Total DRAM traffic implied by the coalesced transactions, bytes.
    pub fn dram_bytes(&self) -> u64 {
        (self.load_transactions + self.store_transactions) * self.line_bytes
    }

    /// Arithmetic intensity against the *transaction* traffic,
    /// flops per DRAM byte — the roofline x-coordinate.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.dram_bytes();
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.flops as f64 / bytes as f64
    }

    /// Ratio of requested bytes to transferred bytes: 1.0 means perfectly
    /// coalesced, lower means wasted bandwidth.
    pub fn coalescing_efficiency(&self) -> f64 {
        let transferred = self.dram_bytes();
        if transferred == 0 {
            return 1.0;
        }
        (self.load_bytes + self.store_bytes) as f64 / transferred as f64
    }

    /// Fraction of active warps that diverged.
    pub fn divergence_rate(&self) -> f64 {
        if self.active_warps == 0 {
            return 0.0;
        }
        self.divergent_warps as f64 / self.active_warps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_and_merge() {
        let mut a = LaunchStats {
            line_bytes: 128,
            ..Default::default()
        };
        // Two lanes load adjacent f32s from one line; a third lane is
        // masked off, so the warp diverged.
        let load = |addr| Access {
            addr,
            bytes: 4,
            store: false,
            atomic: false,
        };
        a.absorb_warp(&[vec![load(0)], vec![load(4)], vec![]]);
        assert_eq!(a.warps, 1);
        assert_eq!(a.load_transactions, 1);
        assert_eq!(a.loads, 2);
        assert_eq!(a.divergent_warps, 1);
        assert_eq!(a.active_warps, 1);

        let mut b = LaunchStats {
            blocks: 2,
            warps: 4,
            threads: 128,
            flops: 100,
            line_bytes: 128,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.loads, 2);
        assert_eq!(b.warps, 5);
        assert_eq!(b.blocks, 2);
        assert_eq!(b.flops, 100);
    }

    #[test]
    fn derived_metrics() {
        let s = LaunchStats {
            flops: 1280,
            load_transactions: 4,
            store_transactions: 1,
            load_bytes: 512,
            store_bytes: 64,
            line_bytes: 128,
            active_warps: 10,
            divergent_warps: 3,
            ..Default::default()
        };
        assert_eq!(s.dram_bytes(), 5 * 128);
        assert!((s.arithmetic_intensity() - 2.0).abs() < 1e-12);
        assert!((s.coalescing_efficiency() - 576.0 / 640.0).abs() < 1e-12);
        assert!((s.divergence_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_edge_cases() {
        let s = LaunchStats::default();
        assert_eq!(s.dram_bytes(), 0);
        assert!(s.arithmetic_intensity().is_infinite());
        assert_eq!(s.coalescing_efficiency(), 1.0);
        assert_eq!(s.divergence_rate(), 0.0);
    }
}
