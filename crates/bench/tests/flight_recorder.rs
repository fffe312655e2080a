//! End-to-end post-mortem drill: `serve_gemm --inject-panic` must die
//! non-zero and leave a well-formed `flight-<pid>.json` whose last
//! event is the injected failure.
//!
//! This is the flight recorder's whole contract exercised through a
//! real binary: a panicking task rides the work queue into a pool
//! region, the worker's panic fires the first-trigger-wins dump, the
//! queue poisons, and the process dies — with the black box on disk.

use perfport_trace::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

fn flight_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("perfport-flight-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("flight dir must be creatable");
    dir
}

#[test]
fn injected_panic_dumps_a_parseable_flight_recording() {
    let dir = flight_dir("panic");
    let out_json = dir.join("BENCH_serve.json");
    let out = Command::new(env!("CARGO_BIN_EXE_serve_gemm"))
        .args([
            "--quick",
            "--requests",
            "40",
            "--jobs",
            "2",
            "--inject-panic",
            "7",
            "--out",
            out_json.to_str().unwrap(),
        ])
        .env("PERFPORT_FLIGHT_DIR", &dir)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("serve_gemm must run");
    assert!(
        !out.status.success(),
        "an injected panic must kill the run:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("flight recorder dumped"),
        "dump notice missing from stderr:\n{stderr}"
    );

    // Exactly one dump, named after the producing pid.
    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("flight dir must be readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "expected one flight dump, got {dumps:?}");

    let text = std::fs::read_to_string(&dumps[0]).expect("dump must be readable");
    let doc = json::parse(&text).expect("flight dump must be valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("perfport-flight/1")
    );
    assert!(doc.get("pid").and_then(Json::as_f64).is_some());

    // The trigger is the injected panic, and it is the LAST event in
    // the merged stream: the file always ends with the failure.
    let trigger = doc.get("trigger").expect("trigger object");
    assert_eq!(
        trigger.get("kind").and_then(Json::as_str),
        Some("task_panic")
    );
    assert!(trigger
        .get("detail")
        .and_then(Json::as_str)
        .expect("trigger detail")
        .contains("injected panic at request 7"));
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .expect("events array");
    assert!(!events.is_empty());
    let last = events.last().unwrap();
    assert_eq!(last.get("kind").and_then(Json::as_str), Some("task_panic"));
    assert!(last
        .get("detail")
        .and_then(Json::as_str)
        .unwrap()
        .contains("injected panic at request 7"));

    // Every event is fully structured, and the pre-trigger stream is
    // merged in timestamp order.
    let mut prev = 0u64;
    for (i, ev) in events.iter().enumerate() {
        for field in ["worker", "kind", "detail"] {
            assert!(
                ev.get(field).and_then(Json::as_str).is_some(),
                "event {i} missing '{field}': {text}"
            );
        }
        let ts = ev.get("ts_ns").and_then(Json::as_f64).expect("ts_ns") as u64;
        if i + 1 < events.len() {
            assert!(ts >= prev, "pre-trigger events out of ts order at {i}");
            prev = ts;
        }
    }

    // The stream leading up to the failure carries real runtime
    // lifecycle events, not just the trigger.
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    for expected in ["queue_drain_begin", "region_begin"] {
        assert!(
            kinds.contains(&expected),
            "kind '{expected}' missing from {kinds:?}"
        );
    }

    // The run died before the snapshot stage: no BENCH json.
    assert!(
        !out_json.exists(),
        "snapshot must not be written after a panic"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean run leaves no black box behind: the recorder stays invisible
/// in steady state.
#[test]
fn clean_runs_write_no_flight_dump() {
    let dir = flight_dir("clean");
    let out_json = dir.join("BENCH_serve.json");
    let out = Command::new(env!("CARGO_BIN_EXE_serve_gemm"))
        .args([
            "--quick",
            "--requests",
            "16",
            "--jobs",
            "2",
            "--out",
            out_json.to_str().unwrap(),
        ])
        .env("PERFPORT_FLIGHT_DIR", &dir)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("serve_gemm must run");
    assert!(out.status.success());
    let dumps = std::fs::read_dir(&dir)
        .expect("flight dir must be readable")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
        .count();
    assert_eq!(dumps, 0, "no failure, no dump");
    let _ = std::fs::remove_dir_all(&dir);
}
