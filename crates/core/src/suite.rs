//! Collecting the full measurement grid: every workload on every target
//! configuration, with the cache grid swept inside the cache benchmarks'
//! runs.
//!
//! Collection fans the independent (workload, target) cells over a scoped
//! worker pool ([`Suite::collect`]); results are assembled in
//! work-item order, so the collected suite is byte-identical no matter how
//! many threads ran. A cache benchmark's cell on an unrestricted machine
//! feeds the 20-configuration cache grid as it runs, so the whole cache
//! study costs one execution per (workload, ISA); [`Suite::cache_grid`]
//! reads the result.

use crate::measure::{CacheGrid, MeasureError, Measurement};
use crate::plan::{Plan, Source};
use d16_cc::TargetSpec;
use d16_isa::Isa;
use d16_mem::CacheSystem;
use d16_telemetry::{timed, Registry};
use d16_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The five configurations of the paper's grid (Tables 6–7):
/// `D16/16/2, DLXe/16/2, DLXe/16/3, DLXe/32/2, DLXe/32/3` — plus the
/// mixed-width extension target `D16x/16/3`, appended last so the paper
/// grid keeps its work-item order.
pub fn standard_specs() -> Vec<TargetSpec> {
    vec![
        TargetSpec::d16(),
        TargetSpec::dlxe_restricted(true, true, false),
        TargetSpec::dlxe_restricted(true, false, false),
        TargetSpec::dlxe_restricted(false, true, false),
        TargetSpec::dlxe(),
        TargetSpec::d16x(),
    ]
}

/// The two unrestricted machines the headline comparison uses.
pub fn base_specs() -> [TargetSpec; 2] {
    [TargetSpec::d16(), TargetSpec::dlxe()]
}

/// The number of worker threads to collect on when the caller has no
/// preference: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The unrestricted machine of an ISA: the target whose cells sweep the
/// cache grid for the cache experiments.
fn unrestricted(isa: Isa) -> TargetSpec {
    match isa {
        Isa::D16 => TargetSpec::d16(),
        Isa::Dlxe => TargetSpec::dlxe(),
        Isa::D16x => TargetSpec::d16x(),
    }
}

/// Everything that can go wrong collecting or querying a [`Suite`].
#[derive(Debug)]
pub enum SuiteError {
    /// A (workload, target) cell failed to build or run.
    Measure {
        /// Workload name.
        workload: String,
        /// Target label.
        target: String,
        /// The underlying failure.
        source: MeasureError,
    },
    /// A workload exited with different checksums on different targets.
    ChecksumMismatch {
        /// Workload name.
        workload: String,
        /// Exit value on the first target.
        expected: i32,
        /// The disagreeing exit value.
        got: i32,
    },
    /// A queried (workload, target) measurement was never collected.
    MissingCell {
        /// Workload name.
        workload: String,
        /// Target label.
        target: String,
    },
    /// A queried (workload, ISA) cache grid was never swept.
    MissingGrid {
        /// Workload name.
        workload: String,
        /// ISA name.
        isa: String,
    },
    /// A requested (size, block) point is not on the experiment grid.
    OffGrid {
        /// Requested cache size in bytes.
        size: u32,
        /// Requested block size in bytes.
        block: u32,
    },
    /// Every cell of a collection failed, so the suite would be empty.
    NothingCollected {
        /// How many cells were attempted.
        attempted: usize,
        /// The first failure, in work-item order.
        first: String,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Measure { workload, target, source } => {
                write!(f, "measuring ({workload}, {target}): {source}")
            }
            SuiteError::ChecksumMismatch { workload, expected, got } => {
                write!(
                    f,
                    "workload {workload}: targets disagree on the checksum ({expected} vs {got})"
                )
            }
            SuiteError::MissingCell { workload, target } => {
                write!(f, "cell ({workload}, {target}) not collected")
            }
            SuiteError::MissingGrid { workload, isa } => {
                write!(f, "cache grid ({workload}, {isa}) not swept (grid switch off, or not a cache benchmark)")
            }
            SuiteError::OffGrid { size, block } => {
                write!(f, "cache point (size {size}, block {block}) is not on the experiment grid")
            }
            SuiteError::NothingCollected { attempted, first } => {
                write!(f, "all {attempted} cells failed to collect; first error: {first}")
            }
        }
    }
}

impl std::error::Error for SuiteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SuiteError::Measure { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One cell (or workload) left out of a degraded collection: the run
/// completed, reported its results, and recorded why this part is
/// missing. `target` is `*` when a whole workload was dropped (a
/// cross-target checksum disagreement poisons every cell it touched).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Skip {
    /// Workload name.
    pub workload: String,
    /// Target label, or `*` for the whole workload.
    pub target: String,
    /// The rendered failure that caused the skip.
    pub reason: String,
}

impl fmt::Display for Skip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}): {}", self.workload, self.target, self.reason)
    }
}

/// One collected cell, before assembly into the maps.
type CellResult = Result<Measurement, SuiteError>;

/// The whole measurement grid.
#[derive(Clone, Debug, Default)]
pub struct Suite {
    /// `(workload, target label) -> measurement`. The cache benchmarks'
    /// cells on the unrestricted machines carry their cache grid.
    pub cells: BTreeMap<(String, String), Measurement>,
    /// Wall time spent measuring each cell, keyed like `cells`.
    /// Wall-clock: reporting only, never part of diffed output (the
    /// per-cell [`Measurement`]s stay timing-free so their rendering is
    /// deterministic).
    pub cell_wall_ns: BTreeMap<(String, String), u64>,
    /// Cells dropped from a degraded collection, in work-item order
    /// (deterministic for every `jobs` value). Empty on a clean run;
    /// reports filter rows whose cells are missing, so one failing cell
    /// costs its rows, not the sweep.
    pub skipped: Vec<Skip>,
    /// Merged telemetry, absorbed in work-item order at assembly
    /// (deterministic for every `jobs`), plus the phase spans.
    tele: Registry,
}

impl Suite {
    /// Measures every (workload, target) cell on `jobs` worker threads.
    /// Each cell runs `plan` with the workload and target filled in; the
    /// plan's `cache_grid` switch sweeps the cache grid in the
    /// cache-benchmark workloads' cells on the unrestricted machines,
    /// where the cache experiments need it.
    ///
    /// The cells are independent, so they fan out over a scoped thread
    /// pool; cells are assembled — and any skips recorded — in work-item
    /// order, making the result identical for every `jobs` value.
    ///
    /// With a store in the plan, intact cached cells (grids included) are
    /// served without recompiling or re-simulating. Served cells are
    /// bit-identical to computed ones — assembly order, telemetry
    /// absorption, span recording and the checksum gate all run the same
    /// either way — so every diffable output of a warm run matches a cold
    /// one byte for byte.
    ///
    /// A failing cell does not fail the collection: it is dropped and
    /// recorded in [`Suite::skipped`], and a cross-target checksum
    /// disagreement drops the whole offending workload the same way, so
    /// one bad cell degrades a sweep instead of killing it.
    ///
    /// # Errors
    ///
    /// [`SuiteError::NothingCollected`] only when *every* cell failed.
    pub fn collect(
        plan: &Plan<'_>,
        workloads: &[&Workload],
        specs: &[TargetSpec],
        jobs: usize,
    ) -> Result<Suite, SuiteError> {
        let items: Vec<(usize, usize)> =
            (0..workloads.len()).flat_map(|w| (0..specs.len()).map(move |s| (w, s))).collect();
        let run_cell = |&(wi, si): &(usize, usize)| -> CellResult {
            let w = workloads[wi];
            let spec = &specs[si];
            let cell = Plan {
                source: Source::Workload(w),
                target: spec.clone(),
                cache_grid: plan.cache_grid && w.cache_benchmark && *spec == unrestricted(spec.isa),
                ..plan.clone()
            };
            cell.measure().map_err(|e| SuiteError::Measure {
                workload: w.name.to_string(),
                target: spec.label(),
                source: e,
            })
        };

        let jobs = jobs.max(1).min(items.len().max(1));
        // Work-stealing over a shared index; each worker keeps its
        // finished cells (each with the wall time spent measuring it, the
        // "suite.collect.cell" span) locally, and the main thread sorts
        // them back into work-item order after the scope joins.
        let next = AtomicUsize::new(0);
        let mut finished = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, (CellResult, u64))> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, timed(|| run_cell(item))));
                        }
                        local
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(items.len());
            for h in handles {
                all.extend(h.join().expect("collection worker panicked"));
            }
            all
        });
        finished.sort_unstable_by_key(|&(i, _)| i);

        let mut suite = Suite::default();
        for (&(wi, si), (_, (result, wall_ns))) in items.iter().zip(finished) {
            let w = workloads[wi];
            let m = match result {
                Ok(m) => m,
                Err(e) => {
                    suite.skipped.push(Skip {
                        workload: w.name.to_string(),
                        target: specs[si].label(),
                        reason: e.to_string(),
                    });
                    continue;
                }
            };
            // Absorbing here — in work-item order, after the pool joined —
            // is what makes the merged counters identical for every `jobs`.
            // D16x cells merge under their own `simx` prefix so the paper
            // grid's `sim.*` counters stay byte-identical with or without
            // the extension target.
            let isa = specs[si].isa;
            let reg = &mut suite.tele;
            reg.absorb(if isa == Isa::D16x { "simx" } else { "sim" }, &m.tele);
            reg.record_span("suite.collect.cell", wall_ns);
            if let Some(grid) = &m.grid {
                // The sweep ran inside the cell, so its span is the
                // cell's wall time.
                reg.record_span("suite.cache_grid.sweep", wall_ns);
                let prefix = format!("grid.{}.{}", w.name, isa.name());
                reg.absorb(&prefix, &grid.sweep);
                for sys in &grid.systems {
                    sys.export_telemetry(reg, &format!("{prefix}.cfg.{}", sys.label()));
                }
            }
            suite.cell_wall_ns.insert((w.name.to_string(), specs[si].label()), wall_ns);
            suite.cells.insert((w.name.to_string(), specs[si].label()), m);
        }

        // Cross-target checksum agreement: the joint correctness gate.
        // A disagreement means the workload's cells cannot be trusted on
        // *any* target, so the whole workload degrades to a skip.
        for w in workloads {
            let exits: Vec<i32> = suite
                .cells
                .iter()
                .filter(|((name, _), _)| name == w.name)
                .map(|(_, m)| m.exit)
                .collect();
            if let Some(&bad) = exits.iter().find(|&&e| e != exits[0]) {
                let reason = SuiteError::ChecksumMismatch {
                    workload: w.name.to_string(),
                    expected: exits[0],
                    got: bad,
                }
                .to_string();
                suite.cells.retain(|(name, _), _| name != w.name);
                suite.cell_wall_ns.retain(|(name, _), _| name != w.name);
                suite.skipped.push(Skip {
                    workload: w.name.to_string(),
                    target: "*".to_string(),
                    reason,
                });
            }
        }

        if suite.cells.is_empty() && !suite.skipped.is_empty() {
            return Err(SuiteError::NothingCollected {
                attempted: items.len(),
                first: suite.skipped[0].to_string(),
            });
        }
        Ok(suite)
    }

    /// The measurement for one cell.
    ///
    /// # Errors
    ///
    /// [`SuiteError::MissingCell`] naming the absent pair.
    pub fn try_get(&self, workload: &str, target: &str) -> Result<&Measurement, SuiteError> {
        self.cells.get(&(workload.to_string(), target.to_string())).ok_or_else(|| {
            SuiteError::MissingCell { workload: workload.to_string(), target: target.to_string() }
        })
    }

    /// The cache-grid systems of one cache benchmark on the unrestricted
    /// machine of `isa`: every configuration of
    /// [`crate::experiments::cache_grid_configs`], fed by that cell's own
    /// run. Figures 16–19 and Tables 13–16 all read from this; index with
    /// [`crate::experiments::cache_grid_index`].
    ///
    /// # Errors
    ///
    /// [`SuiteError::MissingGrid`] if the cell was not collected or did
    /// not sweep.
    pub fn cache_grid(&self, workload: &str, isa: Isa) -> Result<&[CacheSystem], SuiteError> {
        self.cells
            .get(&(workload.to_string(), unrestricted(isa).label()))
            .and_then(|m| m.grid.as_ref())
            .map(|g| g.systems.as_slice())
            .ok_or_else(|| SuiteError::MissingGrid {
                workload: workload.to_string(),
                isa: isa.name().to_string(),
            })
    }

    /// Every swept cell's grid as `(workload, ISA name, grid)`, in
    /// (workload, ISA) order.
    pub fn grids(&self) -> impl Iterator<Item = (&str, &str, &CacheGrid)> {
        self.cells.iter().filter_map(|((w, target), m)| {
            let isa = target.split('/').next().unwrap_or(target);
            Some((w.as_str(), isa, m.grid.as_ref()?))
        })
    }

    /// The suite's merged telemetry: `sim.*` pipeline counters (D16x
    /// cells under `simx.*`), `grid.*` per-configuration cache counters
    /// (one block per swept cell), and the `suite.collect.cell` /
    /// `suite.cache_grid.sweep` phase spans.
    ///
    /// Counters and span *counts* are deterministic; span durations are
    /// wall-clock.
    pub fn telemetry(&self) -> &Registry {
        &self.tele
    }

    /// Workload names present, in collection order.
    pub fn workloads(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for (w, _) in self.cells.keys() {
            if !names.contains(w) {
                names.push(w.clone());
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_the_grid() {
        let labels: Vec<String> = standard_specs().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["D16/16/2", "DLXe/16/2", "DLXe/16/3", "DLXe/32/2", "DLXe/32/3", "D16x/16/3"]
        );
    }

    #[test]
    fn collect_small_subset() {
        let ws = [d16_workloads::by_name("towers").unwrap()];
        let suite = Suite::collect(&Plan::default(), &ws, &base_specs(), 2).unwrap();
        assert_eq!(suite.cells.len(), 2);
        assert!(suite.skipped.is_empty(), "{:?}", suite.skipped);
        assert_eq!(suite.try_get("towers", "D16/16/2").unwrap().exit, 16383);
        assert_eq!(suite.workloads(), vec!["towers".to_string()]);
    }

    #[test]
    fn failing_cells_degrade_to_skips() {
        // A wrong pinned checksum fails every cell of this workload at
        // measurement time; the good workload must still collect.
        let bad = Workload {
            name: "towers-bad",
            source: d16_workloads::by_name("towers").unwrap().source,
            description: "towers with a wrong pinned checksum",
            expected: Some(-1),
            cache_benchmark: false,
            floating: false,
        };
        let good = d16_workloads::by_name("queens").unwrap();
        let suite = Suite::collect(&Plan::default(), &[&bad, good], &base_specs(), 2).unwrap();
        assert_eq!(suite.cells.len(), 2, "queens cells survive");
        assert_eq!(suite.workloads(), vec!["queens".to_string()]);
        assert_eq!(suite.skipped.len(), 2, "{:?}", suite.skipped);
        for (skip, target) in suite.skipped.iter().zip(["D16/16/2", "DLXe/32/3"]) {
            assert_eq!(skip.workload, "towers-bad");
            assert_eq!(skip.target, target);
            assert!(skip.reason.contains("checksum mismatch"), "{}", skip.reason);
        }

        // When every cell fails, collection reports the first error
        // instead of returning an empty suite.
        let e = Suite::collect(&Plan::default(), &[&bad], &base_specs(), 2).unwrap_err();
        assert!(matches!(&e, SuiteError::NothingCollected { attempted: 2, .. }), "{e:?}");
        assert!(e.to_string().contains("checksum mismatch"), "{e}");
    }

    #[test]
    fn missing_cells_are_named() {
        let suite = Suite::default();
        let e = suite.try_get("towers", "D16/16/2").unwrap_err();
        assert!(
            matches!(&e, SuiteError::MissingCell { workload, target }
                if workload == "towers" && target == "D16/16/2"),
            "{e:?}"
        );
        assert_eq!(e.to_string(), "cell (towers, D16/16/2) not collected");
        let e = suite.cache_grid("assem", Isa::D16).unwrap_err();
        assert!(
            matches!(&e, SuiteError::MissingGrid { workload, isa }
                if workload == "assem" && isa == "D16"),
            "{e:?}"
        );
        assert!(e.to_string().contains("assem"), "{e}");
    }
}
