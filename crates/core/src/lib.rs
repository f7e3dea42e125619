//! # d16-core — the paper's experiment harness
//!
//! Ties the whole reproduction together: compiles each Table 2 workload
//! with `d16-cc` for each target configuration, runs it on the `d16-sim`
//! pipeline, attaches the `d16-mem` memory models, and regenerates every
//! table and figure of *"16-Bit vs. 32-Bit Instructions for Pipelined
//! Microprocessors"* (see DESIGN.md §5 for the experiment index).
//!
//! Every run goes through one [`Plan`] value (source, target, pipeline,
//! opt level, engine, fuel, cache-grid switch, optional store) and one
//! entry point per operation on it; see the [`plan`] module. Each run
//! feeds every observer at once, so the cache study and Table 4 read the
//! same executions the measurement grid runs.
//!
//! ```no_run
//! use d16_core::{default_jobs, experiments, standard_specs, Plan, Suite};
//!
//! let all: Vec<_> = d16_workloads::SUITE.iter().collect();
//! let plan = Plan { cache_grid: true, ..Plan::default() };
//! let suite =
//!     Suite::collect(&plan, &all, &standard_specs(), default_jobs()).expect("measure the grid");
//! let density = experiments::fig4_relative_density(&suite);
//! let avg = experiments::average(&density);
//! assert!(avg > 1.2, "DLXe binaries are bigger: {avg}");
//! ```

pub mod experiments;
pub mod measure;
pub mod plan;
pub mod report;
mod stored;
pub mod suite;

pub use d16_sim::{Engine, PipelineSpec, Predictor};
pub use measure::{CacheGrid, ImmClasses, MeasureError, Measurement};
pub use plan::{Plan, Source};
pub use suite::{base_specs, default_jobs, standard_specs, Skip, Suite, SuiteError};

#[cfg(test)]
mod tests {
    use super::*;
    use d16_cc::TargetSpec;
    use d16_store::Store;
    use std::sync::Arc;

    /// One compact integration pass over a fast subset of the suite:
    /// checks the headline shape of the paper's results.
    #[test]
    fn headline_shape_on_subset() {
        let names = ["ackermann", "towers", "queens"];
        let ws: Vec<_> = names.iter().map(|n| d16_workloads::by_name(n).unwrap()).collect();
        let suite =
            Suite::collect(&Plan::default(), &ws, &standard_specs(), default_jobs()).unwrap();

        let density = experiments::fig4_relative_density(&suite);
        let d_avg = experiments::average(&density);
        assert!(d_avg > 1.2 && d_avg < 2.0, "density ratio {d_avg}");

        let path = experiments::fig5_path_length(&suite);
        let p_avg = experiments::average(&path);
        assert!(p_avg > 0.6 && p_avg <= 1.02, "path ratio {p_avg}");

        // Cacheless machine: with zero wait states DLXe (shorter path)
        // wins; with wait states the D16 traffic advantage pushes the
        // ratio up.
        let ratios = experiments::table11_12_cycle_ratios(&suite, 4);
        for r in &ratios {
            assert!(
                r.ratios[3] > r.ratios[0],
                "{}: wait states must favor D16: {:?}",
                r.workload,
                r.ratios
            );
        }
    }

    #[test]
    fn cache_replay_smoke() {
        let ws = [d16_workloads::by_name("assem").unwrap()];
        let plan = Plan { cache_grid: true, ..Plan::default() };
        let suite = Suite::collect(&plan, &ws, &base_specs(), default_jobs()).unwrap();
        let miss = experiments::fig16_icache_miss(&suite, "assem").unwrap();
        // Bigger caches never miss more; D16 misses at most as often as
        // DLXe at equal size (its working set is half the bytes).
        for pair in miss.windows(2) {
            assert!(pair[1].d16 <= pair[0].d16 + 1e-9);
            assert!(pair[1].dlxe <= pair[0].dlxe + 1e-9);
        }
        // D16's halved footprint wins on average and at the smallest size;
        // individual direct-mapped sizes can flip on conflict luck.
        let d16_mean: f64 = miss.iter().map(|p| p.d16).sum::<f64>() / miss.len() as f64;
        let dlxe_mean: f64 = miss.iter().map(|p| p.dlxe).sum::<f64>() / miss.len() as f64;
        assert!(d16_mean <= dlxe_mean + 1e-9, "{d16_mean} vs {dlxe_mean}");
        assert!(miss[0].d16 <= miss[0].dlxe + 1e-9, "1K: {} vs {}", miss[0].d16, miss[0].dlxe);
        let t = experiments::fig19_cache_traffic(&suite, "assem").unwrap();
        let t_d16: f64 = t.iter().map(|p| p.d16).sum();
        let t_dlxe: f64 = t.iter().map(|p| p.dlxe).sum();
        assert!(t_d16 <= t_dlxe + 1e-9, "D16 I-traffic should be lower overall");
        assert!(t[0].d16 <= t[0].dlxe + 1e-9, "1K traffic");
        assert_eq!(suite.grids().count(), 2, "one grid per unrestricted machine");
    }

    #[test]
    fn stored_compile_serves_identical_images() {
        let dir = d16_testkit::TempDir::new("core-build-store");
        let store = Arc::new(Store::open(dir.path()).unwrap());
        let src = "int main(void) { return 6 * 7; }";
        for spec in [TargetSpec::d16(), TargetSpec::dlxe()] {
            let plan = Plan {
                source: Source::Inline(src),
                target: spec.clone(),
                store: Some(Arc::clone(&store)),
                ..Plan::default()
            };
            let cold = plan.build().unwrap();
            let warm = plan.build().unwrap();
            let direct = d16_cc::compile_to_image(&[src], &spec).unwrap();
            assert_eq!(warm.text, cold.text);
            assert_eq!(warm.data, cold.data);
            assert_eq!(warm.text, direct.text, "cached image matches a fresh compile");
            assert_eq!(warm.symbols, direct.symbols);
        }
        let s = store.stats();
        assert_eq!((s.hit, s.miss, s.write), (2, 2, 2));

        // Damage one entry: the next lookup recompiles instead of serving it.
        let plan = Plan {
            source: Source::Inline(src),
            store: Some(Arc::clone(&store)),
            ..Plan::default()
        };
        let path = store.entry_path(stored::IMAGE.kind, stored::image_key(&plan));
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&path, raw).unwrap();
        let again = plan.build().unwrap();
        let direct = d16_cc::compile_to_image(&[src], &TargetSpec::d16()).unwrap();
        assert_eq!(again.text, direct.text);
        assert_eq!(store.stats().corrupt_evicted, 1);
    }
}
