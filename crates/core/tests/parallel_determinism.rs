//! Gates on the parallel experiment engine:
//!
//! * collection is byte-identical no matter how many worker threads run;
//! * the cache experiments sweep each recorded trace exactly once;
//! * the single-pass grid agrees bit-for-bit with dedicated per-config
//!   replays.

use d16_core::{base_specs, experiments as ex, standard_specs, Plan, Suite};
use d16_isa::Isa;
use d16_mem::CacheSystem;
use d16_workloads::{by_name, Workload};

fn workloads(names: &[&str]) -> Vec<&'static Workload> {
    names.iter().map(|n| by_name(n).expect("workload")).collect()
}

fn traced() -> Plan<'static> {
    Plan { trace: true, ..Plan::default() }
}

#[test]
fn parallel_collection_is_deterministic() {
    let ws = workloads(&["towers", "assem"]);
    let serial = Suite::collect(&traced(), &ws, &standard_specs(), 1).unwrap();
    let threaded = Suite::collect(&traced(), &ws, &standard_specs(), 4).unwrap();
    // Measurements carry no Eq impl; their Debug form is total, so a
    // byte-identical rendering means byte-identical cells.
    assert_eq!(format!("{:#?}", serial.cells), format!("{:#?}", threaded.cells));
    assert_eq!(serial.traces, threaded.traces, "recorded traces must not depend on jobs");
    assert_eq!(serial.cells.len(), ws.len() * standard_specs().len());
}

#[test]
fn oversubscribed_pool_is_harmless() {
    // More workers than work items: the pool clamps, and nothing is lost.
    let ws = workloads(&["towers"]);
    let suite = Suite::collect(&Plan::default(), &ws, &base_specs(), 64).unwrap();
    assert_eq!(suite.cells.len(), 2);
}

#[test]
fn cache_experiments_replay_each_trace_once() {
    let ws = workloads(&["assem"]);
    let suite = Suite::collect(&traced(), &ws, &base_specs(), 2).unwrap();
    ex::fig16_icache_miss(&suite, "assem").unwrap();
    ex::fig17_18_cache_cpi(&suite, "assem", 4096).unwrap();
    ex::fig17_18_cache_cpi(&suite, "assem", 16384).unwrap();
    ex::fig19_cache_traffic(&suite, "assem").unwrap();
    ex::miss_rate_grid(&suite, "assem").unwrap();
    for isa in [Isa::D16, Isa::Dlxe] {
        assert_eq!(
            suite.try_trace("assem", isa).unwrap().replay_count(),
            1,
            "every figure and table must come out of one {isa:?} sweep"
        );
    }
}

#[test]
fn single_pass_grid_matches_legacy_replays() {
    let ws = workloads(&["assem"]);
    let suite = Suite::collect(&traced(), &ws, &base_specs(), 2).unwrap();
    for isa in [Isa::D16, Isa::Dlxe] {
        let grid = suite.cache_grid("assem", isa).unwrap();
        for (i, cfg) in ex::cache_grid_configs().iter().enumerate() {
            let mut solo = CacheSystem::new(*cfg, *cfg).unwrap();
            suite.try_trace("assem", isa).unwrap().replay(&mut solo);
            assert_eq!(grid[i].icache(), solo.icache(), "{isa:?} config {cfg:?}");
            assert_eq!(grid[i].dcache(), solo.dcache(), "{isa:?} config {cfg:?}");
        }
    }
}
