//! Tests for the `repro` command-line interface: argument handling, plus
//! one real end-to-end pass through `--smoke` (2 workloads x 2 targets,
//! the cache grid on the one collected benchmark, and the `--bench-json`
//! timing report). The full regeneration is exercised by `--all` in
//! release runs.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn list_prints_available_experiments() {
    let out = repro().arg("--list").output().expect("run repro");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("figures: 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19"));
    assert!(text.contains("tables:  3 4 5 6 7 8 9 10 11 12 13 14 15 16"));
    assert!(text.contains("fpu-sweep"));
}

#[test]
fn unknown_flag_is_rejected() {
    let out = repro().arg("--nonsense").output().expect("run repro");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument"));
}

#[test]
fn smoke_rejects_all() {
    let out = repro().args(["--smoke", "--all"]).output().expect("run repro");
    assert!(!out.status.success());
}

#[test]
fn unknown_only_workload_lists_the_whole_registry() {
    let out = repro().args(["--only", "nonesuch"]).output().expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--only: unknown workload `nonesuch`; valid names:"), "{err}");
    // The diagnostic must list every name `by_name` resolves — the
    // paper's suite AND the extension workloads, which `--only` accepts.
    for name in ["towers", "whetstone", "fsm", "lexer", "compress", "eqntott"] {
        assert!(err.contains(name), "diagnostic must list `{name}`: {err}");
    }
}

/// `flag` reads the full grid, so a `--smoke` or `--only` subset is a
/// usage error (exit 2), caught before anything is collected.
fn needs_the_full_grid(flag: &str) {
    for args in [[flag, "--smoke"], [flag, "--only"]] {
        let mut cmd = repro();
        cmd.args(args);
        if args[1] == "--only" {
            cmd.arg("towers");
        }
        let out = cmd.output().expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{flag} needs the full grid")), "{args:?}: {err}");
        assert!(!err.contains("collecting"), "{args:?}: {err}");
    }
}

#[test]
fn extended_rejects_smoke_and_only() {
    needs_the_full_grid("--extended");
}

#[test]
fn pipeline_sweep_rejects_smoke_and_only() {
    needs_the_full_grid("--pipeline-sweep");
}

#[test]
fn zero_jobs_is_rejected() {
    let out = repro().args(["--jobs", "0", "--list"]).output().expect("run repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

#[test]
fn missing_flag_value_is_rejected() {
    for flag in ["--jobs", "--fig", "--table", "--bench-json", "--metrics-json"] {
        let out = repro().arg(flag).output().expect("run repro");
        assert!(!out.status.success(), "{flag} without a value must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("requires a value"), "{flag}: {err}");
    }
}

#[test]
fn non_numeric_flag_value_is_rejected() {
    for flag in ["--jobs", "--fig", "--table"] {
        let out = repro().args([flag, "banana"]).output().expect("run repro");
        assert!(!out.status.success(), "{flag} banana must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid value"), "{flag}: {err}");
    }
}

#[test]
fn missing_parent_dir_fails_fast_with_exit_2() {
    // The bad path must be rejected up front — before any collection —
    // not after minutes of measurement. Both JSON flags get the check.
    for flag in ["--bench-json", "--metrics-json"] {
        let start = std::time::Instant::now();
        let out = repro()
            .args(["--smoke", flag, "/nonexistent-d16-dir/report.json"])
            .output()
            .expect("run repro");
        let elapsed = start.elapsed();
        assert_eq!(out.status.code(), Some(2), "{flag} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag)
                && err.contains("/nonexistent-d16-dir")
                && err.contains("does not exist"),
            "{flag} must name the flag and the missing directory: {err}"
        );
        assert!(!err.contains("collecting"), "must fail before collection starts: {err}");
        assert!(elapsed.as_secs() < 5, "{flag}: failed after {elapsed:?}, not up front");
    }
}

#[test]
fn metrics_json_is_identical_across_job_counts() {
    let dir = std::env::temp_dir();
    let p1 = dir.join(format!("metrics_j1_{}.json", std::process::id()));
    let p2 = dir.join(format!("metrics_j2_{}.json", std::process::id()));
    for (jobs, path) in [("1", &p1), ("2", &p2)] {
        let out = repro()
            .args(["--smoke", "--jobs", jobs, "--metrics-json"])
            .arg(path)
            .output()
            .expect("run repro");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    }
    let m1 = std::fs::read_to_string(&p1).expect("jobs=1 metrics");
    let m2 = std::fs::read_to_string(&p2).expect("jobs=2 metrics");
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
    assert_eq!(m1, m2, "metrics dump must be byte-identical for every --jobs");
    for needle in ["\"schema\":\"bench_repro/4\"", "\"kind\":\"metrics\"", "\"span_counts\":"] {
        assert!(m1.contains(needle), "missing {needle} in {m1}");
    }
    assert!(!m1.contains("\"jobs\""), "worker count must not leak into the metrics dump");
    assert!(!m1.contains("\"engine\""), "engine choice must not leak into the metrics dump");
    assert!(!m1.contains("_ns\""), "wall-clock must not leak into the metrics dump");
}

#[test]
fn unknown_engine_is_rejected() {
    let out = repro().args(["--engine", "jit", "--list"]).output().expect("run repro");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--engine") && err.contains("jit"), "{err}");
}

#[test]
fn engines_produce_identical_diffable_output() {
    // The whole point of the block engine: same stdout, same metrics
    // dump, byte for byte — only the wall clock moves.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut outputs = Vec::new();
    for eng in ["interp", "blocks"] {
        let path = dir.join(format!("metrics_{eng}_{pid}.json"));
        let out = repro()
            .args(["--smoke", "--engine", eng, "--metrics-json"])
            .arg(&path)
            .output()
            .expect("run repro");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let metrics = std::fs::read_to_string(&path).expect("metrics written");
        std::fs::remove_file(&path).ok();
        outputs.push((out.stdout, metrics));
    }
    assert_eq!(outputs[0].0, outputs[1].0, "stdout must not depend on the engine");
    assert_eq!(outputs[0].1, outputs[1].1, "metrics dump must not depend on the engine");
}

#[test]
fn smoke_regenerates_and_reports_timing() {
    let json_path = std::env::temp_dir().join(format!("bench_repro_{}.json", std::process::id()));
    let out = repro()
        .args(["--smoke", "--jobs", "2", "--bench-json"])
        .arg(&json_path)
        .output()
        .expect("run repro");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // The smoke set: headline figures plus the cache experiments for the
    // one collected benchmark; the other cache benchmarks are skipped
    // with a note, never silently.
    assert!(text.contains("Figure 4"), "{text}");
    assert!(text.contains("Figure 16: I-cache miss rates, assem"), "{text}");
    assert!(text.contains("Table 14: cache miss rates for assem"), "{text}");
    assert!(text.contains("Figure 16, ipl: skipped"), "{text}");

    let report = std::fs::read_to_string(&json_path).expect("bench json written");
    std::fs::remove_file(&json_path).ok();
    for needle in [
        "\"schema\":\"bench_repro/4\"",
        "\"kind\":\"timing\"",
        "\"smoke\":true",
        "\"engine\":\"blocks\"",
        "\"jobs\":2",
        "\"collect_ns\":",
        "\"cache_grid\":",
        "\"records\":",
        "\"counters\":",
        "\"spans\":",
        "\"suite.collect.cell\":",
        "\"cell_wall_ns\":",
        "\"hist_log2_ns\":",
    ] {
        assert!(report.contains(needle), "missing {needle} in {report}");
    }
}
