//! Gates on the parallel experiment engine:
//!
//! * collection is byte-identical no matter how many worker threads run;
//! * the cache experiments read one grid per swept cell;
//! * the single-pass grid agrees bit-for-bit with dedicated per-config
//!   replays of a trace recorded from the same image.

use d16_core::{base_specs, experiments as ex, standard_specs, Plan, Source, Suite};
use d16_isa::Isa;
use d16_mem::CacheSystem;
use d16_sim::{Machine, TraceRecorder};
use d16_workloads::{by_name, Workload};

fn workloads(names: &[&str]) -> Vec<&'static Workload> {
    names.iter().map(|n| by_name(n).expect("workload")).collect()
}

fn swept() -> Plan<'static> {
    Plan { cache_grid: true, ..Plan::default() }
}

#[test]
fn parallel_collection_is_deterministic() {
    let ws = workloads(&["towers", "assem"]);
    let serial = Suite::collect(&swept(), &ws, &standard_specs(), 1).unwrap();
    let threaded = Suite::collect(&swept(), &ws, &standard_specs(), 4).unwrap();
    // Measurements carry no Eq impl; their Debug form is total (grids and
    // Table 4 counts included), so a byte-identical rendering means
    // byte-identical cells.
    assert_eq!(format!("{:#?}", serial.cells), format!("{:#?}", threaded.cells));
    assert_eq!(serial.cells.len(), ws.len() * standard_specs().len());
    assert_eq!(serial.grids().count(), 3, "assem sweeps on D16, D16x and DLXe");
}

#[test]
fn oversubscribed_pool_is_harmless() {
    // More workers than work items: the pool clamps, and nothing is lost.
    let ws = workloads(&["towers"]);
    let suite = Suite::collect(&Plan::default(), &ws, &base_specs(), 64).unwrap();
    assert_eq!(suite.cells.len(), 2);
}

#[test]
fn cache_experiments_sweep_each_cell_once() {
    let ws = workloads(&["assem"]);
    let suite = Suite::collect(&swept(), &ws, &base_specs(), 2).unwrap();
    ex::fig16_icache_miss(&suite, "assem").unwrap();
    ex::fig17_18_cache_cpi(&suite, "assem", 4096).unwrap();
    ex::fig17_18_cache_cpi(&suite, "assem", 16384).unwrap();
    ex::fig19_cache_traffic(&suite, "assem").unwrap();
    ex::miss_rate_grid(&suite, "assem").unwrap();
    let sweeps = suite.telemetry().span("suite.cache_grid.sweep").expect("sweep span");
    assert_eq!(sweeps.count, 2, "every figure and table reads the two collected grids");
    for isa in [Isa::D16, Isa::Dlxe] {
        let grid = suite.cache_grid("assem", isa).unwrap();
        assert!(std::ptr::eq(grid, suite.cache_grid("assem", isa).unwrap()), "a lookup");
    }
}

#[test]
fn single_pass_grid_matches_legacy_replays() {
    let ws = workloads(&["assem"]);
    let suite = Suite::collect(&swept(), &ws, &base_specs(), 2).unwrap();
    for (isa, target) in [(Isa::D16, base_specs()[0].clone()), (Isa::Dlxe, base_specs()[1].clone())]
    {
        let plan = Plan { source: Source::Workload(ws[0]), target, ..Plan::default() };
        let mut trace = TraceRecorder::new();
        Machine::load(&plan.build().unwrap()).run(plan.fuel, &mut trace).unwrap();
        let grid = suite.cache_grid("assem", isa).unwrap();
        for (i, cfg) in ex::cache_grid_configs().iter().enumerate() {
            let mut solo = CacheSystem::new(*cfg, *cfg).unwrap();
            trace.replay(&mut solo);
            assert_eq!(grid[i].icache(), solo.icache(), "{isa:?} config {cfg:?}");
            assert_eq!(grid[i].dcache(), solo.dcache(), "{isa:?} config {cfg:?}");
        }
    }
}
