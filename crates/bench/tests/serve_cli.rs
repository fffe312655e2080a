//! End-to-end checks of the `serve_gemm` serving harness: the dry-run
//! byte-stability golden contract, the batch ≡ serial `--verify` gate,
//! the `BENCH_serve.json` schema, and flag rejection.

use std::path::PathBuf;
use std::process::Command;

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_gemm"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("serve_gemm must run");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn out_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfport-serve-{}-{name}", std::process::id()))
}

/// The golden contract: dry-run output is byte-identical across repeated
/// runs and across any `--jobs`/`--threads`, because the stream and the
/// virtual timeline are pure functions of the seed.
#[test]
fn dry_run_is_byte_stable_across_runs_and_workers() {
    let (code, first, _) = run(&["--quick", "--dry-run", "--seed", "5", "--csv"]);
    assert_eq!(code, 0);
    assert!(first.contains("== serve_gemm dry-run (seed 5) =="));
    assert!(first.contains("latency ms: p50 "));
    for extra in [
        vec![],
        vec!["--jobs", "4"],
        vec!["--threads", "2"],
        vec!["--jobs", "7", "--threads", "3"],
    ] {
        let mut args = vec!["--quick", "--dry-run", "--seed", "5", "--csv"];
        args.extend(extra.iter());
        let (code, text, _) = run(&args);
        assert_eq!(code, 0);
        assert_eq!(
            text, first,
            "dry-run output must be byte-stable for args {args:?}"
        );
    }
    // A different seed is a genuinely different stream.
    let (_, other, _) = run(&["--quick", "--dry-run", "--seed", "6", "--csv"]);
    assert_ne!(first, other);
}

/// `--verify` runs every batch through the per-problem serial reference
/// and byte-compares: the bitwise contract, end to end, at several
/// worker counts.
#[test]
fn verify_passes_at_any_worker_count() {
    for jobs in ["1", "3"] {
        let out = out_path(&format!("verify-{jobs}.json"));
        let (code, stdout, stderr) = run(&[
            "--quick",
            "--verify",
            "--seed",
            "11",
            "--requests",
            "48",
            "--jobs",
            jobs,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "verify failed at {jobs} jobs:\n{stdout}\n{stderr}");
        assert!(
            stdout.contains("batch≡serial contract: OK (48 requests)"),
            "contract line missing at {jobs} jobs:\n{stdout}"
        );
        let _ = std::fs::remove_file(out);
    }
}

/// The emitted snapshot carries the advertised schema, the latency
/// percentiles, and an embedded provenance manifest — and `bench_diff`'s
/// parser accepts it.
#[test]
fn snapshot_schema_and_manifest() {
    let out = out_path("schema.json");
    let (code, stdout, stderr) = run(&[
        "--quick",
        "--seed",
        "42",
        "--requests",
        "40",
        "--jobs",
        "2",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&out).expect("snapshot must be written");
    assert!(text.contains("\"schema\": \"perfport-bench-serve/2\""));
    assert!(text.contains("\"schema\": \"perfport-manifest/1\""));
    let snap = perfport_bench::diff::parse_snapshot(&text).expect("bench_diff must parse it");
    assert_eq!(snap.schema, "perfport-bench-serve/2");
    assert!(snap.simd_isa.is_some(), "manifest ISA missing");
    // The always-on telemetry block must be populated: the measured
    // phase serves real batches, so the end-to-end latency histogram
    // and the per-bucket service-time histograms cannot be empty.
    let telemetry = snap.telemetry.as_ref().expect("telemetry block missing");
    let latency = telemetry
        .histograms
        .get("serve/latency_ns")
        .expect("serve/latency_ns histogram missing");
    assert_eq!(latency.count, 40, "one latency sample per request");
    assert!(
        telemetry
            .histograms
            .keys()
            .any(|k| k.starts_with("batch/service_ns/")),
        "per-bucket service-time histograms missing: {:?}",
        telemetry.histograms.keys().collect::<Vec<_>>()
    );
    assert!(
        telemetry.counters.get("pool/regions").copied().unwrap_or(0) > 0,
        "pool region counter missing from the measured phase"
    );
    assert_eq!(snap.points.len(), 1);
    let p = &snap.points[0];
    assert_eq!(p.n, 40);
    assert_eq!(p.precision, "SERVE");
    for key in [
        "inv_p50_ms",
        "inv_p95_ms",
        "inv_p99_ms",
        "sustained_gflops",
        "req_per_s",
    ] {
        assert!(p.gflops.contains_key(key), "metric {key} missing");
        assert!(p.gflops[key] > 0.0, "metric {key} not positive");
    }
    let _ = std::fs::remove_file(out);
}

/// Malformed or unknown flags print usage and exit 2, matching every
/// other harness binary; `--help` exits 0.
#[test]
fn flag_rejection_and_help() {
    for bad in [
        vec!["--seed"],
        vec!["--seed", "banana"],
        vec!["--requests", "0"],
        vec!["--batch", "0"],
        vec!["--rate", "-3"],
        vec!["--jobs", "zero"],
        vec!["--frobnicate"],
        vec!["--dry-run", "--verify"],
        vec!["--dry-run", "--inject-panic", "3"],
        vec!["--inject-panic", "banana"],
        // An unknown flag ahead of a valid one.
        vec!["--quick", "--sched", "graph", "--inject-panic", "3"],
        vec!["--quick", "--requests", "8", "--inject-panic", "99"],
    ] {
        let (code, _, stderr) = run(&bad);
        assert_eq!(code, 2, "args {bad:?} must exit 2:\n{stderr}");
        assert!(
            stderr.contains("usage: serve_gemm"),
            "usage missing for {bad:?}:\n{stderr}"
        );
    }
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("usage: serve_gemm"));
    assert!(stdout.contains("--dry-run") && stdout.contains("--verify"));
}
