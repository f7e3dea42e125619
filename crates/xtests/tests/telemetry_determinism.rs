//! Workspace gates for the telemetry layer (skipped, trivially green,
//! when the `telemetry` feature is off):
//!
//! * the merged counter dump is identical for every worker count, so the
//!   `repro --metrics-json` document CI diffs is trustworthy;
//! * the pipeline's per-stage / per-interlock-class counters reconcile
//!   exactly with the `ExecStats` aggregates the paper's tables use;
//! * the per-cache counters reconcile with `CacheStats`;
//! * phase-span counts match the grid shape.

use d16_bench::report;
use d16_core::{base_specs, Plan, Suite};
use d16_isa::Isa;
use d16_workloads::Workload;

fn small_grid(jobs: usize) -> Suite {
    let ws: Vec<&Workload> =
        ["towers", "assem"].iter().map(|n| d16_workloads::by_name(n).expect("workload")).collect();
    let plan = Plan { trace: true, ..Plan::default() };
    let suite = Suite::collect(&plan, &ws, &base_specs(), jobs).expect("collect");
    // Warm every cache grid so the registry includes the sweep counters.
    let keys: Vec<(String, Isa)> = suite
        .traces
        .keys()
        .map(|(w, isa)| (w.clone(), if isa == "D16" { Isa::D16 } else { Isa::Dlxe }))
        .collect();
    for (w, isa) in keys {
        suite.cache_grid(&w, isa).expect("grid");
    }
    suite
}

#[test]
fn counter_dump_is_identical_across_job_counts() {
    if !d16_telemetry::ENABLED {
        return;
    }
    let s1 = small_grid(1);
    let s4 = small_grid(4);
    let (r1, r4) = (s1.telemetry(), s4.telemetry());
    let c1: Vec<(String, u64)> = r1.counters().map(|(k, v)| (k.to_string(), v)).collect();
    let c4: Vec<(String, u64)> = r4.counters().map(|(k, v)| (k.to_string(), v)).collect();
    assert_eq!(c1, c4, "merged counters must not depend on --jobs");
    assert_eq!(
        report::metrics_json(&r1, true, s1.cells.len(), s1.traces.len()).to_string(),
        report::metrics_json(&r4, true, s4.cells.len(), s4.traces.len()).to_string(),
        "the full metrics document must be byte-identical"
    );
}

#[test]
fn pipeline_counters_reconcile_with_measurement_aggregates() {
    if !d16_telemetry::ENABLED {
        return;
    }
    let suite = small_grid(2);
    assert!(!suite.cells.is_empty());
    for ((w, target), m) in &suite.cells {
        m.stats.reconciles_with(&m.tele).unwrap_or_else(|e| panic!("cell ({w}, {target}): {e}"));
    }
}

#[test]
fn cache_grid_counters_reconcile_and_cover_every_config() {
    if !d16_telemetry::ENABLED {
        return;
    }
    let suite = small_grid(2);
    let reg = suite.telemetry();
    let grid = suite.cache_grid("assem", Isa::D16).expect("grid");
    let n_configs = d16_core::experiments::cache_grid_configs().len();
    assert_eq!(grid.len(), n_configs);
    for sys in grid.iter() {
        sys.reconciles().unwrap();
        // Every member's counters appear in the dump under its label.
        let key = format!("grid.assem.D16.cfg.{}.icache.read.misses", sys.label());
        assert_eq!(reg.counter(&key), Some(sys.icache().read_misses), "{key}");
    }
    // The sweep fed each trace record exactly once regardless of width.
    let trace = suite.try_trace("assem", Isa::D16).expect("trace recorded");
    let swept: u64 = ["fetches", "reads", "writes"]
        .iter()
        .map(|k| reg.counter(&format!("grid.assem.D16.sweep.{k}")).unwrap_or(0))
        .sum();
    assert_eq!(swept, trace.len() as u64);
}

#[test]
fn span_counts_match_the_grid_shape() {
    if !d16_telemetry::ENABLED {
        return;
    }
    let suite = small_grid(3);
    let reg = suite.telemetry();
    let cells = reg.span("suite.collect.cell").expect("collect span");
    assert_eq!(cells.count, suite.cells.len() as u64);
    assert_eq!(cells.hist.samples(), cells.count, "one histogram sample per cell");
    assert!(cells.min_ns <= cells.max_ns);
    assert!(cells.total_ns >= cells.max_ns);
    let sweeps = reg.span("suite.cache_grid.sweep").expect("sweep span");
    assert_eq!(sweeps.count, suite.traces.len() as u64, "one sweep per trace, memoized");
}

#[test]
fn sim_counters_also_agree_in_aggregate() {
    if !d16_telemetry::ENABLED {
        return;
    }
    let suite = small_grid(2);
    let reg = suite.telemetry();
    let total_insns: u64 = suite.cells.values().map(|m| m.stats.insns).sum();
    assert_eq!(reg.counter("sim.stage.if.insns"), Some(total_insns));
    let total_interlocks: u64 = suite.cells.values().map(|m| m.stats.interlocks).sum();
    let dump_interlocks: u64 = reg
        .counters()
        .filter(|(k, _)| k.starts_with("sim.interlock.") && k.ends_with(".cycles"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(dump_interlocks, total_interlocks);
}
