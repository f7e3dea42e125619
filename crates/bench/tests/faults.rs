//! Fault-injection tests: each `D16_FAILPOINTS` point is armed in a
//! `repro` subprocess (the failpoint env is read once per process, so
//! in-process arming is impossible) and the exit-code contract is
//! pinned: `2` for user errors, `3` for a degraded-but-complete run,
//! with a clean stderr diagnostic and no panic/backtrace either way.
//!
//! See tests/README.md ("faults") and DESIGN.md ("Error taxonomy").

use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_with_fault(fault: &str, args: &[&str]) -> Output {
    repro().env("D16_FAILPOINTS", fault).args(args).output().expect("run repro")
}

/// A degraded run must diagnose, not abort: no panic message, no
/// backtrace, on either stream.
fn assert_no_panic(out: &Output) {
    let err = String::from_utf8_lossy(&out.stderr);
    let text = String::from_utf8_lossy(&out.stdout);
    for hay in [&err, &text] {
        assert!(!hay.contains("panicked at"), "panic leaked: {hay}");
        assert!(!hay.contains("RUST_BACKTRACE"), "backtrace hint leaked: {hay}");
    }
}

#[test]
fn smoke_drift_is_a_user_error_with_valid_names() {
    let out = run_with_fault("smoke-drift", &["--smoke"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_no_panic(&out);
    let err = String::from_utf8_lossy(&out.stderr);
    // Same shape as the `--only` unknown-workload diagnostic.
    assert!(err.contains("unknown workload `gone-workload`"), "{err}");
    assert!(err.contains("valid names:") && err.contains("towers"), "{err}");
}

#[test]
fn store_io_errors_degrade_to_recomputation() {
    let dir = d16_testkit::TempDir::new("fault-store-io");
    let store = dir.path().join("store");
    let store = store.to_str().unwrap();

    let out = run_with_fault("store-io", &["--smoke", "--store", store]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_no_panic(&out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("I/O errors (degraded to recomputation)"), "{err}");
    // Every figure the clean smoke run produces is still there.
    let faulted = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(faulted.contains("Figure 16: I-cache miss rates, assem"), "{faulted}");

    // The results are byte-identical to a storeless run, and the store
    // was not corrupted: a clean warm run afterwards works and exits 0.
    let clean = repro().arg("--smoke").output().expect("run repro");
    assert!(clean.status.success());
    assert_eq!(faulted, String::from_utf8_lossy(&clean.stdout), "stdout must not degrade");
    let warm = repro().args(["--smoke", "--store", store]).output().expect("run repro");
    assert_eq!(warm.status.code(), Some(0), "{}", String::from_utf8_lossy(&warm.stderr));
    assert_eq!(String::from_utf8_lossy(&warm.stdout), faulted);
}

#[test]
fn regalloc_divergence_skips_the_workload_and_continues() {
    let out = run_with_fault("regalloc-diverge=ack", &["--only", "ackermann,towers"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_no_panic(&out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("skipped (ackermann, D16/16/2)") && err.contains("did not converge for `ack`"),
        "{err}"
    );
    // The other workload's cells completed and were reported.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("towers"), "{text}");
    assert!(!text.contains("ackermann"), "skipped rows must not appear: {text}");
}

#[test]
fn off_grid_config_skips_cache_reports_with_the_config_error() {
    let out = run_with_fault("off-grid-config", &["--smoke"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_no_panic(&out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("is not on the experiment grid"), "{err}");
    // The non-cache figures still rendered.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 4: D16 relative density"), "{text}");
    assert!(text.contains("Figure 16, assem: skipped"), "{text}");
}

#[test]
fn unarmed_runs_are_unaffected_by_the_fault_plumbing() {
    // An explicitly-empty failpoint list behaves exactly like no list.
    let out = run_with_fault("", &["--smoke"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_no_panic(&out);
}
