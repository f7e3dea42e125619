//! Workspace gates for the telemetry layer (skipped, trivially green,
//! when the `telemetry` feature is off):
//!
//! * the merged counter dump is identical for every worker count, so the
//!   `repro --metrics-json` document CI diffs is trustworthy;
//! * the pipeline's per-stage / per-interlock-class counters reconcile
//!   exactly with the `ExecStats` aggregates the paper's tables use;
//! * the per-cache counters reconcile with `CacheStats`, and the grid
//!   and Table 4 observers agree with a recorded-trace replay and the
//!   interpreter-run classifier they replaced;
//! * phase-span counts match the grid shape.

use d16_bench::report;
use d16_cc::TargetSpec;
use d16_core::experiments::cache_grid_configs;
use d16_core::{base_specs, Plan, Source, Suite};
use d16_isa::{EncodingParams, ImmOverflow, Insn, Isa};
use d16_mem::CacheBank;
use d16_sim::{AccessSink, Machine, TraceRecorder};
use d16_telemetry::Registry;
use d16_workloads::Workload;

fn small_grid(jobs: usize) -> Suite {
    let ws: Vec<&Workload> =
        ["towers", "assem"].iter().map(|n| d16_workloads::by_name(n).expect("workload")).collect();
    let plan = Plan { cache_grid: true, ..Plan::default() };
    Suite::collect(&plan, &ws, &base_specs(), jobs).expect("collect")
}

/// Table 4's classifier as it ran before it became an observer: a sink
/// of its own on a separate interpreter run, decoding per fetch.
struct FetchClassifier {
    decoded: Vec<Option<Insn>>,
    text_base: u32,
    counts: [u64; 3],
    total: u64,
}

impl AccessSink for FetchClassifier {
    fn fetch(&mut self, addr: u32, _bytes: u8) {
        self.total += 1;
        let insn = self.decoded.get(((addr - self.text_base) / 4) as usize);
        match insn.and_then(|i| EncodingParams::d16_overflow_class(i.as_ref()?)) {
            Some(ImmOverflow::CompareImmediate) => self.counts[0] += 1,
            Some(ImmOverflow::AluImmediate) => self.counts[1] += 1,
            Some(ImmOverflow::MemoryDisplacement) => self.counts[2] += 1,
            None => {}
        }
    }
    fn read(&mut self, _a: u32, _b: u8) {}
    fn write(&mut self, _a: u32, _b: u8) {}
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
        report::metrics_json(r1, true, s1.cells.len(), s1.grids().count()).to_string(),
        report::metrics_json(r4, true, s4.cells.len(), s4.grids().count()).to_string(),
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
    let suite = small_grid(2);
    let grid = suite.cache_grid("assem", Isa::D16).expect("grid");
    let n_configs = cache_grid_configs().len();
    assert_eq!(grid.len(), n_configs);

    // Differential oracle: record the same image's trace and replay it
    // into a fresh bank, the way the grid was computed before it became
    // an observer. Every system must come out identical.
    let w = d16_workloads::by_name("assem").expect("workload");
    let plan = Plan { source: Source::Workload(w), ..Plan::default() };
    let mut trace = TraceRecorder::new();
    Machine::load(&plan.build().expect("build")).run(plan.fuel, &mut trace).expect("run");
    let mut replayed = CacheBank::symmetric(&cache_grid_configs()).expect("grid configs");
    trace.replay(&mut replayed);
    for (sys, want) in grid.iter().zip(replayed.systems()) {
        assert_eq!(sys.icache(), want.icache(), "{} icache", sys.label());
        assert_eq!(sys.dcache(), want.dcache(), "{} dcache", sys.label());
    }

    // Table 4: the observer's counts on one workload equal the old
    // classifier's on a separate interpreter run.
    let t4 = Plan { target: TargetSpec::dlxe_restricted(true, true, false), ..plan };
    let t4_suite = Suite::collect(&Plan::default(), &[w], std::slice::from_ref(&t4.target), 1)
        .expect("collect");
    let m = t4_suite.try_get("assem", &t4.target.label()).expect("DLXe/16/2 cell");
    let image = t4.build().expect("build");
    let mut old = FetchClassifier {
        decoded: image
            .text
            .chunks_exact(4)
            .map(|c| d16_isa::dlxe::decode(u32::from_le_bytes([c[0], c[1], c[2], c[3]])).ok())
            .collect(),
        text_base: image.text_base,
        counts: [0; 3],
        total: 0,
    };
    Machine::load(&image).run(d16_core::measure::FUEL, &mut old).expect("interpreter run");
    let imm = m.imm.expect("Table 4 counts on DLXe/16/2");
    assert_eq!([imm.cmp, imm.alu, imm.mem], old.counts);
    assert_eq!(m.stats.insns, old.total, "Table 4 divides by the fetch count");
    assert!(old.counts.iter().sum::<u64>() > 0, "assem overflows some D16 fields");

    if !d16_telemetry::ENABLED {
        return;
    }
    let reg = suite.telemetry();
    for sys in grid {
        sys.reconciles().unwrap();
        // Every member's counters appear in the dump under its label.
        let key = format!("grid.assem.D16.cfg.{}.icache.read.misses", sys.label());
        assert_eq!(reg.counter(&key), Some(sys.icache().read_misses), "{key}");
    }
    // The exported grid.* telemetry is exactly the replayed bank's.
    let mut want = Registry::new();
    replayed.export_telemetry(&mut want, "grid.assem.D16");
    let got: Vec<(&str, u64)> =
        reg.counters().filter(|(k, _)| k.starts_with("grid.assem.D16.")).collect();
    assert_eq!(got, want.counters().collect::<Vec<_>>());
    // The sweep fed each access exactly once regardless of width.
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
    assert_eq!(sweeps.count, suite.grids().count() as u64, "one sweep per swept cell");
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
