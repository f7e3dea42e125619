//! Engine-equivalence gate: the block-caching engine must be
//! *observationally identical* to the per-instruction interpreter on the
//! real suite — same exit checksum, same pipeline statistics, same
//! telemetry counter values, the same cache grid, and the same access
//! stream byte for byte (a trace recorded here encodes every
//! fetch/read/write in order, so a byte-equal encoding pins the engines
//! to the same memory behavior at the same instruction boundaries).
//!
//! Each cell is also measured with the cache grid off, which runs the
//! observer stacks most cells and every `d16-serve` request use (the two
//! fetch buffers alone, or with the Table 4 classifier on `DLXe/16/2`).
//!
//! The fast default covers a representative subset on every target
//! configuration; the `#[ignore]`d test sweeps every (workload, target)
//! cell of the paper's grid and runs in CI release builds.

use d16_cc::TargetSpec;
use d16_core::experiments::cache_grid_configs;
use d16_core::{standard_specs, Engine, Measurement, PipelineSpec, Plan, Predictor, Source};
use d16_isa::Isa;
use d16_mem::{CacheBank, CacheStats, FetchBuffer};
use d16_sim::{AccessSink, Machine, SimError, StopReason, TraceRecorder};
use d16_workloads::Workload;

/// The cell (`w`, `spec`) on `engine`, sweeping the cache grid, plus the
/// access trace of a second, recorded run of the same image.
fn traced(
    w: &Workload,
    spec: &TargetSpec,
    pipeline: PipelineSpec,
    engine: Engine,
) -> (Measurement, TraceRecorder) {
    let label = format!("({}, {}, {})", w.name, spec.label(), engine.name());
    let plan = Plan {
        source: Source::Workload(w),
        target: spec.clone(),
        pipeline,
        engine,
        cache_grid: true,
        ..Plan::default()
    };
    let m = plan.measure().unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut machine = Machine::load(&plan.build().unwrap_or_else(|e| panic!("{label}: {e}")));
    machine.set_pipeline(pipeline);
    let mut trace = TraceRecorder::new();
    machine
        .run_with(engine, d16_core::measure::FUEL, &mut trace)
        .unwrap_or_else(|e| panic!("{label} traced: {e}"));
    (m, trace)
}

/// The cell (`w`, `spec`) on `engine` with the cache grid off.
fn plain(w: &Workload, spec: &TargetSpec, pipeline: PipelineSpec, engine: Engine) -> Measurement {
    let plan = Plan {
        source: Source::Workload(w),
        target: spec.clone(),
        pipeline,
        engine,
        ..Plan::default()
    };
    plan.measure()
        .unwrap_or_else(|e| panic!("({}, {}, {}): {e}", w.name, spec.label(), engine.name()))
}

/// Measures the cell with the grid off under both engines: both agree
/// with each other and with `gridded`, the interpreter's measurement of
/// the same cell with the grid on, on everything but the grid.
fn assert_plain_identical(
    w: &Workload,
    spec: &TargetSpec,
    pipeline: PipelineSpec,
    gridded: &Measurement,
) {
    let label = format!("({}, {}, grid off)", w.name, spec.label());
    let a = plain(w, spec, pipeline, Engine::Interp);
    let b = plain(w, spec, pipeline, Engine::Blocks);
    for (m, which) in [(&a, "interp"), (&b, "blocks")] {
        assert!(m.grid.is_none(), "{label} {which}: no grid");
        assert_eq!(m.exit, gridded.exit, "{label} {which}: exit checksum");
        assert_eq!(m.stats, gridded.stats, "{label} {which}: pipeline statistics");
        assert_eq!(m.ireq_bus32, gridded.ireq_bus32, "{label} {which}: 32-bit bus requests");
        assert_eq!(m.ireq_bus64, gridded.ireq_bus64, "{label} {which}: 64-bit bus requests");
        assert_eq!(m.tele.values(), gridded.tele.values(), "{label} {which}: telemetry counters");
        assert_eq!(m.imm, gridded.imm, "{label} {which}: Table 4 counts");
    }
}

/// The two engines' grids hold identical statistics.
fn assert_grids_identical(a: &Measurement, b: &Measurement, label: &str) {
    let (ga, gb) = (a.grid.as_ref().expect("interp grid"), b.grid.as_ref().expect("blocks grid"));
    assert_eq!(ga.sweep.values(), gb.sweep.values(), "{label}: sweep counters");
    for (x, y) in ga.systems.iter().zip(&gb.systems) {
        assert_eq!(x.icache(), y.icache(), "{label}: {} icache", x.label());
        assert_eq!(x.dcache(), y.dcache(), "{label}: {} dcache", x.label());
    }
}

/// Measures one cell under both engines and asserts every observable
/// output is identical.
fn assert_cell_identical(w: &Workload, spec: &TargetSpec) {
    let label = format!("({}, {})", w.name, spec.label());
    let pipeline = PipelineSpec::default();
    let (a, ta) = traced(w, spec, pipeline, Engine::Interp);
    let (b, tb) = traced(w, spec, pipeline, Engine::Blocks);
    assert_eq!(a.exit, b.exit, "{label}: exit checksum");
    assert_eq!(a.stats, b.stats, "{label}: pipeline statistics");
    assert_eq!(a.size_bytes, b.size_bytes, "{label}: static size");
    assert_eq!(a.ireq_bus32, b.ireq_bus32, "{label}: 32-bit bus requests");
    assert_eq!(a.ireq_bus64, b.ireq_bus64, "{label}: 64-bit bus requests");
    assert_eq!(a.tele.values(), b.tele.values(), "{label}: telemetry counters");
    assert_eq!(a.imm, b.imm, "{label}: Table 4 counts");
    assert_grids_identical(&a, &b, &label);
    assert_eq!(ta.len(), tb.len(), "{label}: trace record count");
    assert_eq!(ta.encoded_bytes(), tb.encoded_bytes(), "{label}: trace bytes");
    assert_plain_identical(w, spec, pipeline, &a);
}

#[test]
fn engines_agree_on_subset_across_all_targets() {
    // One recursive integer workload, one string/memory-heavy cache
    // benchmark, one floating-point workload: together they exercise the
    // hot micro-op set, the cold-op fallback (FPU), and both ISAs'
    // delay-slot shapes on all five target configurations.
    for name in ["queens", "assem", "whetstone"] {
        let w = d16_workloads::by_name(name).expect("suite workload");
        for spec in standard_specs() {
            assert_cell_identical(w, &spec);
        }
    }
}

/// The same equivalence at the most aggressive non-default pipeline
/// configuration — depth 8 (longest load-use distance, largest misfetch
/// penalty) with the two-bit predictor (history-dependent per-branch
/// state). The BlockEngine runs non-default specs through its dynamic
/// flavor (runtime stall scoreboard, per-step predictor updates), so this
/// pins a code path the default-spec tests above never execute.
#[test]
fn engines_agree_at_depth_eight_with_twobit_predictor() {
    let deep = PipelineSpec { depth: 8, predictor: Predictor::TwoBit, ..PipelineSpec::default() };
    for name in ["queens", "assem", "whetstone"] {
        let w = d16_workloads::by_name(name).expect("suite workload");
        for spec in standard_specs() {
            let label = format!("({}, {}, depth 8 twobit)", w.name, spec.label());
            let (a, ta) = traced(w, &spec, deep, Engine::Interp);
            let (b, tb) = traced(w, &spec, deep, Engine::Blocks);
            assert_eq!(a.exit, b.exit, "{label}: exit checksum");
            assert_eq!(a.stats, b.stats, "{label}: pipeline statistics");
            assert!(a.stats.mispredicts > 0, "{label}: twobit at depth 8 must mispredict");
            assert!(a.stats.misfetch_cycles > 0, "{label}: depth 8 must charge misfetch bubbles");
            assert_grids_identical(&a, &b, &label);
            assert_eq!(ta.encoded_bytes(), tb.encoded_bytes(), "{label}: trace bytes");
            assert_plain_identical(w, &spec, deep, &a);
        }
    }
}

/// What the fetch buffers and the cache grid read after one run of
/// `image`, each observing its own run on a fresh machine.
#[derive(Debug, PartialEq)]
struct Observed {
    stop: Result<StopReason, SimError>,
    ireq: [u64; 2],
    sweep: Vec<u64>,
    caches: Vec<(CacheStats, CacheStats)>,
}

fn observe(image: &d16_asm::Image, engine: Engine, fuel: u64) -> Observed {
    fn run<S: AccessSink>(
        image: &d16_asm::Image,
        engine: Engine,
        fuel: u64,
        sink: &mut S,
    ) -> Result<StopReason, SimError> {
        Machine::load(image).run_with(engine, fuel, sink)
    }
    let (mut fb32, mut fb64) = (FetchBuffer::new(4), FetchBuffer::new(8));
    let mut bank = CacheBank::symmetric(&cache_grid_configs()).expect("grid configurations");
    let stop = run(image, engine, fuel, &mut fb32);
    assert_eq!(run(image, engine, fuel, &mut fb64), stop);
    assert_eq!(run(image, engine, fuel, &mut bank), stop);
    Observed {
        stop,
        ireq: [fb32.irequests, fb64.irequests],
        sweep: bank.telemetry().values().to_vec(),
        caches: bank.into_systems().iter().map(|s| (*s.icache(), *s.dcache())).collect(),
    }
}

/// Runs that leave the block engine's completed blocks read the same
/// under both engines: a program that faults mid-block after a loop (the
/// bail path hands observers the retired prefix's fetches one at a
/// time) and runs whose fuel ends mid-block (the rest goes step by
/// step), on every target.
#[test]
fn observers_agree_through_faults_and_fuel() {
    let fault = d16_asm::build(
        Isa::Dlxe,
        &["
_start: la r9, v
        mvi r3, 40
loop:   ld r2, 0(r9)
        st r2, 4(r9)
        subi r3, r3, 1
        bnz r3, loop
        nop
        addi r9, r9, 2
        addi r2, r2, 1
        ld r2, 0(r9)        ; misaligned: faults after two retired steps
        trap 0
        .data
v:      .word 5
        .word 0
"],
    )
    .expect("assemble the faulting program");
    let a = observe(&fault, Engine::Interp, 10_000);
    assert!(matches!(a.stop, Err(SimError::Unaligned { .. })), "{:?}", a.stop);
    assert_eq!(observe(&fault, Engine::Blocks, 10_000), a, "faulting program");
    let w = d16_workloads::by_name("queens").expect("suite workload");
    for spec in standard_specs() {
        let plan = Plan { source: Source::Workload(w), target: spec.clone(), ..Plan::default() };
        let image = plan.build().expect("build queens");
        for fuel in [1_001, 123_457] {
            let a = observe(&image, Engine::Interp, fuel);
            assert_eq!(a.stop, Ok(StopReason::OutOfFuel));
            assert_eq!(observe(&image, Engine::Blocks, fuel), a, "{} at fuel {fuel}", spec.label());
        }
    }
}

#[test]
#[ignore = "full 15x6 grid under both engines; run with --release -- --ignored (CI does)"]
fn engines_agree_on_every_cell() {
    for w in d16_workloads::SUITE.iter() {
        for spec in standard_specs() {
            assert_cell_identical(w, &spec);
        }
    }
}
