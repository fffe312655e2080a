//! The committed `BENCH_gemm/serve/gpu.json` snapshots against the
//! current parser and gate: they must keep parsing (including the fields
//! older producers wrote and nothing reads any more), and a uniform 1.5×
//! slowdown of the committed GEMM snapshot must fail `bench_diff` on
//! every cell, however noisy the cell's committed reps were.

use perfport_bench::diff::{diff, parse_snapshot, DiffConfig, SnapshotKind, Verdict, SPREAD_CAP};
use std::path::{Path, PathBuf};
use std::process::Command;

fn committed(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn read(name: &str) -> String {
    std::fs::read_to_string(committed(name)).unwrap_or_else(|e| panic!("cannot read {name}: {e}"))
}

/// `text` with every `"gflops": {...}` cell divided by `factor`.
fn slowed(text: &str, factor: f64) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let body = line.trim_start();
        match body.strip_prefix("\"gflops\": {") {
            Some(cells) => {
                let indent = &line[..line.len() - body.len()];
                let cells: Vec<String> = cells
                    .trim_end_matches("},")
                    .split(", ")
                    .map(|cell| {
                        let (name, v) = cell.split_once(": ").expect("\"variant\": value");
                        let v: f64 = v.parse().expect("numeric GFLOP/s");
                        format!("{name}: {:.6}", v / factor)
                    })
                    .collect();
                out.push_str(&format!("{indent}\"gflops\": {{{}}},", cells.join(", ")));
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[test]
fn committed_snapshots_parse_and_self_compare_within_the_cap() {
    for (name, kind) in [
        ("BENCH_gemm.json", SnapshotKind::Gemm),
        ("BENCH_serve.json", SnapshotKind::Serve),
        ("BENCH_gpu.json", SnapshotKind::Gpu),
    ] {
        let snap = parse_snapshot(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(snap.kind, kind, "{name}");
        assert!(!snap.points.is_empty(), "{name} has no points");
        assert!(snap.simd_isa.is_some(), "{name} lost its manifest");
        let entries = diff(&snap, &snap, &DiffConfig::default());
        assert!(!entries.is_empty(), "{name}");
        for e in &entries {
            assert_eq!(e.verdict, Verdict::Ok, "{name}: {e:?}");
            assert!(e.threshold <= SPREAD_CAP, "{name}: {e:?}");
        }
    }
}

#[test]
fn a_one_and_a_half_times_slowdown_fails_every_committed_gemm_cell() {
    let text = read("BENCH_gemm.json");
    let base = parse_snapshot(&text).unwrap();
    let slow_text = slowed(&text, 1.5);
    let slow = parse_snapshot(&slow_text).unwrap();
    let entries = diff(&base, &slow, &DiffConfig::default());
    let cells: usize = base.points.iter().map(|p| p.gflops.len()).sum();
    assert_eq!(entries.len(), cells, "every committed cell is compared");
    for e in &entries {
        assert!((e.rel_change + 1.0 / 3.0).abs() < 1e-3, "{e:?}");
        assert_eq!(e.verdict, Verdict::Regressed, "{e:?}");
    }

    let dir = std::env::temp_dir().join(format!("perfport-committed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let slow_path = dir.join("BENCH_gemm_slow.json");
    std::fs::write(&slow_path, slow_text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg(committed("BENCH_gemm.json"))
        .arg(&slow_path)
        .output()
        .expect("bench_diff must run");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a 1.5x slowdown must fail the gate:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
