//! Launch telemetry: every launch adds its merged totals to the
//! process-wide `gpusim/*` counters.
//!
//! The counters are process-global, so this check lives in its own test
//! binary where no other launch can run between the two snapshots.

use perfport_gpusim::{DeviceClass, Gpu, LaunchConfig, LaunchStats};

fn gpusim_delta(before: &perfport_telemetry::Snapshot) -> Vec<(String, u64)> {
    perfport_telemetry::snapshot()
        .delta_since(before)
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("gpusim/"))
        .collect()
}

fn expected(stats: &LaunchStats) -> Vec<(String, u64)> {
    [
        ("gpusim/blocks", stats.blocks),
        ("gpusim/divergent_warps", stats.divergent_warps),
        ("gpusim/launches", 1),
        ("gpusim/load_transactions", stats.load_transactions),
        ("gpusim/store_transactions", stats.store_transactions),
        ("gpusim/warps", stats.warps),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}

#[test]
fn telemetry_delta_equals_launch_stats() {
    let gpu = Gpu::new(DeviceClass::AmdLike);
    let n = 1000;
    let src = gpu.alloc_filled(n, 1.0f32);
    let dst = gpu.alloc_filled(n, 0.0f32);

    let before = perfport_telemetry::snapshot();
    let stats = gpu
        .launch(LaunchConfig::cover1d(n as u32, 128), |t| {
            let i = t.global_x();
            if i < n {
                dst.write(t, i, src.read(t, i) + 1.0);
            }
        })
        .unwrap();
    // The ragged tail makes one divergent warp, so every counter is
    // non-trivial.
    assert_eq!(stats.divergent_warps, 1);
    assert_eq!(gpusim_delta(&before), expected(&stats));
}
