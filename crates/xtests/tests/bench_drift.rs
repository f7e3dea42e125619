//! Bench drift gate: a fresh in-process regeneration must agree with the
//! checked-in `BENCH_repro.json` on everything deterministic — grid
//! shape, the accesses each swept cell fed its grid, and the full
//! telemetry counter dump. Timings are machine-local and only reported,
//! never asserted; the two timing tripwires at the end (the engine
//! speedup floor and the observer-cost ceiling) assert ratios of runs
//! made in one process.
//!
//! `#[ignore]` because it collects the full 15x5 grid (~15 s in release,
//! far slower in debug). CI runs it explicitly:
//!
//! ```text
//! cargo test --release -p d16-xtests --test bench_drift -- --ignored
//! ```

use d16_bench::json::Json;
use d16_core::{experiments as ex, Plan, Source, Suite};

fn checked_in_report() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let text = std::fs::read_to_string(path).expect("read checked-in BENCH_repro.json");
    Json::parse(&text).expect("parse BENCH_repro.json")
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("numeric field `{key}`"))
}

#[test]
#[ignore = "full-grid regeneration; run with --release -- --ignored (CI does)"]
fn fresh_run_matches_checked_in_bench_report() {
    let pinned = checked_in_report();
    assert_eq!(pinned.get("schema").and_then(Json::as_str), Some("bench_repro/4"));
    assert!(
        matches!(pinned.get("smoke"), Some(Json::Bool(false))),
        "the pinned report must come from a full --all run"
    );
    assert_eq!(
        pinned.get("engine").and_then(Json::as_str),
        Some("blocks"),
        "the pinned report must come from a default-engine (blocks) run"
    );

    let t0 = std::time::Instant::now();
    let all: Vec<_> = d16_workloads::SUITE.iter().collect();
    let plan = Plan { cache_grid: true, ..Plan::default() };
    let suite = Suite::collect(&plan, &all, &d16_core::standard_specs(), d16_core::default_jobs())
        .expect("collect full grid");
    let collect_ns = t0.elapsed().as_nanos() as u64;

    // --- counts: exact -------------------------------------------------
    assert_eq!(u(&pinned, "cells"), suite.cells.len() as u64, "cell count drifted");
    let swept: Vec<_> = suite.grids().collect();
    assert_eq!(u(&pinned, "traces"), swept.len() as u64, "swept-cell count drifted");

    let grid = pinned.get("cache_grid").expect("cache_grid object");
    assert_eq!(u(grid, "configs"), ex::cache_grid_configs().len() as u64, "config count drifted");
    let sweeps = grid.get("sweeps").and_then(Json::as_arr).expect("sweeps array");
    assert_eq!(sweeps.len(), swept.len(), "sweep count drifted");
    for (s, (w, isa, g)) in sweeps.iter().zip(&swept) {
        assert_eq!(s.get("workload").and_then(Json::as_str), Some(*w), "sweep order drifted");
        assert_eq!(s.get("isa").and_then(Json::as_str), Some(*isa), "sweep order drifted");
        // The records are the bank's sweep counters: one per access fed,
        // so they read zero with telemetry compiled out.
        if d16_telemetry::ENABLED {
            let records: u64 = g.sweep.values().iter().sum();
            assert_eq!(u(s, "records"), records, "({w}, {isa}) records drifted");
        }
    }

    // --- telemetry counters: exact (they count events, not time) -------
    if d16_telemetry::ENABLED {
        let reg = suite.telemetry();
        let pinned_counters = pinned
            .get("counters")
            .and_then(Json::as_obj)
            .expect("counters object in the checked-in report");
        let fresh: Vec<(String, u64)> = reg.counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(
            pinned_counters.len(),
            fresh.len(),
            "counter set drifted: {} pinned vs {} fresh",
            pinned_counters.len(),
            fresh.len()
        );
        for ((pk, pv), (fk, fv)) in pinned_counters.iter().zip(&fresh) {
            assert_eq!(pk, fk, "counter name drifted");
            assert_eq!(pv.as_u64(), Some(*fv), "counter `{pk}` drifted");
        }
    }

    // --- timings: advisory only ----------------------------------------
    let pinned_collect = u(&pinned, "collect_ns");
    let ratio = collect_ns as f64 / pinned_collect as f64;
    eprintln!(
        "collect: fresh {:.2}s vs pinned {:.2}s ({ratio:.2}x) — advisory, machines differ",
        collect_ns as f64 / 1e9,
        pinned_collect as f64 / 1e9,
    );
    // `engines_cold_ns`, when a pin carries it, is merged in by hand:
    // the cold `collect_ns` of an `--engine interp` and an
    // `--engine blocks` run on the same machine (EXPERIMENTS.md), so the
    // engines' relative collection cost stays on record next to the
    // pinned single-engine timings.
    if let Some(engines) = pinned.get("engines_cold_ns") {
        let (interp_ns, blocks_ns) = (u(engines, "interp"), u(engines, "blocks"));
        eprintln!(
            "pinned cold collect: interp {:.2}s vs blocks {:.2}s ({:.1}x) — same machine at pin time",
            interp_ns as f64 / 1e9,
            blocks_ns as f64 / 1e9,
            interp_ns as f64 / blocks_ns as f64,
        );
    }
}

/// The block engine's reason to exist: executing cached micro-ops must be
/// much faster than decode-and-dispatch per instruction. This times the
/// two engines head-to-head on the same images, same machine, same
/// process, best-of-3 per cell (runner noise is additive contention, so
/// the minimum is the stable estimator).
///
/// The floor is a regression tripwire, not a benchmark claim: raw
/// full-fuel runs measure 4.9-6.0x on a 2-vCPU Xeon VM (a nominal
/// "5x on the smoke collect" is not directly measurable — a smoke
/// collect finishes in ~0 ms, all of it grid setup). 4x is the highest
/// value that stays out of the shared-runner noise band while still
/// catching the engine's advantage being lost.
#[test]
#[ignore = "timing-sensitive; run with --release -- --ignored (CI does)"]
fn block_engine_speedup_floor() {
    use d16_core::Engine;
    use d16_sim::{Machine, NullSink};

    let mut interp_ns: u128 = 0;
    let mut blocks_ns: u128 = 0;
    for name in ["queens", "towers", "latex"] {
        let w = d16_workloads::by_name(name).expect("suite workload");
        for spec in d16_core::base_specs() {
            let plan = Plan { source: Source::Workload(w), target: spec, ..Plan::default() };
            let image = plan.build().expect("build workload");
            for (engine, acc) in
                [(Engine::Interp, &mut interp_ns), (Engine::Blocks, &mut blocks_ns)]
            {
                let best = (0..3)
                    .map(|_| {
                        let mut m = Machine::load(&image);
                        let t0 = std::time::Instant::now();
                        m.run_with(engine, d16_core::measure::FUEL, &mut NullSink)
                            .expect("clean run");
                        t0.elapsed().as_nanos()
                    })
                    .min()
                    .expect("three timed runs");
                *acc += best;
            }
        }
    }
    let ratio = interp_ns as f64 / blocks_ns as f64;
    eprintln!(
        "engine speedup: {ratio:.1}x (interp {:.2}s vs blocks {:.2}s, best-of-3)",
        interp_ns as f64 / 1e9,
        blocks_ns as f64 / 1e9,
    );
    assert!(ratio >= 4.0, "block engine fell under the 4x speedup floor: {ratio:.2}x");
}

/// What a measurement costs over the bare engine: [`Plan::run`] (the
/// machine plus both fetch-buffer bus models, which every cell and every
/// `d16-serve` run attaches) against `Machine::load` and a `NullSink`
/// run of the same images, both sides including the load, best-of-3 per
/// cell on the block engine.
///
/// A ceiling, not a benchmark claim: with the buffers taking each
/// completed block's fetches as one run this measures 1.08x on a 2-vCPU
/// Xeon VM, against 1.38x when every fetch was its own call. 1.35x
/// catches the observers falling back to per-fetch cost.
#[test]
#[ignore = "timing-sensitive; run with --release -- --ignored (CI does)"]
fn observer_cost_ceiling() {
    use d16_sim::{Machine, NullSink};

    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed().as_nanos()
            })
            .min()
            .expect("three timed runs")
    };
    let (mut bare_ns, mut measured_ns) = (0u128, 0u128);
    for name in ["queens", "towers", "latex"] {
        let w = d16_workloads::by_name(name).expect("suite workload");
        for spec in d16_core::base_specs() {
            let plan = Plan { source: Source::Workload(w), target: spec, ..Plan::default() };
            let image = plan.build().expect("build workload");
            bare_ns += best(&|| {
                let mut m = Machine::load(&image);
                m.run_with(plan.engine, plan.fuel, &mut NullSink).expect("clean run");
            });
            measured_ns += best(&|| {
                plan.run(&image).expect("measured run");
            });
        }
    }
    let ratio = measured_ns as f64 / bare_ns as f64;
    eprintln!(
        "observer cost: {ratio:.2}x (Plan::run {:.2}s vs NullSink {:.2}s, best-of-3)",
        measured_ns as f64 / 1e9,
        bare_ns as f64 / 1e9,
    );
    assert!(
        ratio <= 1.35,
        "measurement observers cost {ratio:.2}x the bare engine (ceiling 1.35x)"
    );
}
