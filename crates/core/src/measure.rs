//! What one measured cell holds, and how measuring it can fail. The
//! operations that produce cells live on [`crate::Plan`].

use d16_cc::BuildError;
use d16_mem::CacheSystem;
use d16_sim::ExecStats;
use std::fmt;

/// Instruction budget per run: generous, since a correct workload halts
/// far earlier.
pub const FUEL: u64 = 2_000_000_000;

/// Everything measured about one (workload, target) cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name (`inline` for an inline source).
    pub workload: &'static str,
    /// Target label (`D16/16/2`, `DLXe/32/3`, ...).
    pub target: String,
    /// Exit checksum.
    pub exit: i32,
    /// Static size: text + data bytes (the paper's density measure).
    pub size_bytes: u64,
    /// Text segment alone.
    pub text_bytes: u64,
    /// Pipeline statistics (path length, loads/stores, interlocks,
    /// word-granular fetch traffic).
    pub stats: ExecStats,
    /// Fetch-buffer requests for a 32-bit bus (`k` = 2 D16 / 1 DLXe).
    pub ireq_bus32: u64,
    /// Fetch-buffer requests for a 64-bit bus (`k` = 4 D16 / 2 DLXe).
    pub ireq_bus64: u64,
    /// The pipeline's [`d16_sim::SIM_SCHEMA`] telemetry block (per-stage
    /// and per-interlock-class counters). Deterministic — it counts
    /// events, not time — so it may appear in diffed output.
    pub tele: d16_telemetry::Counters,
    /// The cache grid the run fed, when the plan's `cache_grid` switch
    /// was on.
    pub grid: Option<CacheGrid>,
    /// Table 4's immediate-class counts; present on runs of a registered
    /// workload on `DLXe/16/2`.
    pub imm: Option<ImmClasses>,
    /// The pipeline depth × predictor × fetch-width grid the run fed,
    /// when the plan's `pipeline_sweep` switch was on.
    pub pipeline_sweep: Option<d16_sim::SweepResult>,
}

/// A finished cache grid: one [`CacheSystem`] per configuration of
/// [`crate::experiments::cache_grid_configs`], in that order, fed by
/// every access of one run.
#[derive(Clone, Debug)]
pub struct CacheGrid {
    /// The member systems.
    pub systems: Vec<CacheSystem>,
    /// The bank's [`d16_mem::BANK_SCHEMA`] sweep counters: accesses fed,
    /// counted once per access, not per member.
    pub sweep: d16_telemetry::Counters,
}

/// Table 4's dynamic counts of `DLXe/16/2` instructions whose immediate
/// or displacement does not fit the D16 field, by class. Percentages
/// divide by the run's path length.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImmClasses {
    /// Compare-immediate instructions (no D16 form).
    pub cmp: u64,
    /// ALU immediates beyond five bits.
    pub alu: u64,
    /// Memory displacements beyond the D16 reach.
    pub mem: u64,
}

impl Measurement {
    /// External requests on a `bus_bytes`-wide cacheless interface.
    pub fn requests(&self, bus_bytes: u32) -> u64 {
        let ireq = if bus_bytes >= 8 { self.ireq_bus64 } else { self.ireq_bus32 };
        ireq + self.stats.mem_ops()
    }

    /// Cycles on the cacheless machine: `IC + Interlocks + l*(IReq+DReq)`.
    pub fn cacheless_cycles(&self, bus_bytes: u32, wait_states: u64) -> u64 {
        self.stats.base_cycles() + wait_states * self.requests(bus_bytes)
    }
}

/// A failure while building or running a workload.
#[derive(Debug)]
pub enum MeasureError {
    /// Toolchain failure.
    Build(BuildError),
    /// Simulator fault.
    Sim(d16_sim::SimError),
    /// The program did not halt within the plan's instruction budget.
    OutOfFuel,
    /// The checksum differed from the workload's pinned value.
    WrongChecksum {
        /// Expected value.
        expected: i32,
        /// Observed value.
        got: i32,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Build(e) => write!(f, "build: {e}"),
            MeasureError::Sim(e) => write!(f, "simulation fault: {e}"),
            MeasureError::OutOfFuel => write!(f, "did not halt within the instruction budget"),
            MeasureError::WrongChecksum { expected, got } => {
                write!(f, "checksum mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::Build(e) => Some(e),
            MeasureError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, Plan, Source};
    use d16_cc::TargetSpec;

    fn cell(name: &str, target: TargetSpec) -> Plan<'static> {
        Plan {
            source: Source::Workload(d16_workloads::by_name(name).unwrap()),
            target,
            ..Plan::default()
        }
    }

    #[test]
    fn measure_queens_on_both_isas() {
        let d16 = cell("queens", TargetSpec::d16()).measure().unwrap();
        let dlxe = cell("queens", TargetSpec::dlxe()).measure().unwrap();
        assert_eq!(d16.exit, 92);
        assert_eq!(dlxe.exit, 92);
        assert!(d16.size_bytes < dlxe.size_bytes, "D16 binaries are denser");
        assert!(d16.stats.insns >= dlxe.stats.insns, "DLXe path is not longer");
        // 32-bit bus: D16 fetches two instructions per request.
        assert!(d16.ireq_bus32 < d16.stats.insns);
        assert_eq!(dlxe.ireq_bus32, dlxe.stats.insns, "k=1 for DLXe on a 32-bit bus");
        assert!(d16.ireq_bus64 <= d16.ireq_bus32);
    }

    #[test]
    fn engines_measure_identically() {
        for spec in [TargetSpec::d16(), TargetSpec::dlxe()] {
            let plan = Plan { cache_grid: true, ..cell("towers", spec) };
            let a = Plan { engine: Engine::Interp, ..plan.clone() }.measure().unwrap();
            let b = Plan { engine: Engine::Blocks, ..plan }.measure().unwrap();
            assert_eq!(a.exit, b.exit);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.ireq_bus32, b.ireq_bus32);
            assert_eq!(a.ireq_bus64, b.ireq_bus64);
            assert_eq!(a.tele.values(), b.tele.values());
            let (ga, gb) = (a.grid.unwrap(), b.grid.unwrap());
            assert_eq!(ga.sweep.values(), gb.sweep.values());
            for (x, y) in ga.systems.iter().zip(&gb.systems) {
                assert_eq!((x.icache(), x.dcache()), (y.icache(), y.dcache()));
            }
        }
    }

    /// `Cycles = IC + Interlocks + l * (IRequests + DRequests)`, with one
    /// data request per load or store.
    #[test]
    fn cycle_formula_matches_paper() {
        let mut fb = d16_mem::FetchBuffer::new(4);
        for addr in [0, 2, 4, 6] {
            d16_sim::AccessSink::fetch(&mut fb, addr, 2);
        }
        let stats = d16_sim::ExecStats { insns: 4, interlocks: 1, loads: 1, ..Default::default() };
        let m = crate::Measurement {
            workload: "inline",
            target: TargetSpec::d16().label(),
            exit: 0,
            size_bytes: 8,
            text_bytes: 8,
            stats,
            ireq_bus32: fb.irequests,
            ireq_bus64: 1,
            tele: d16_telemetry::Counters::new(&d16_sim::SIM_SCHEMA),
            grid: None,
            imm: None,
            pipeline_sweep: None,
        };
        assert_eq!(m.requests(4), 3);
        assert_eq!(m.cacheless_cycles(4, 0), 5);
        assert_eq!(m.cacheless_cycles(4, 2), 11);
        assert_eq!(m.cacheless_cycles(8, 2), 9);
    }

    /// The observers see one fetch per instruction and one read or write
    /// per memory op: a trace recorded from a separate run of the same
    /// image agrees with the measured cell's statistics.
    #[test]
    fn trace_lengths_match_stats() {
        let plan = cell("ackermann", TargetSpec::d16());
        let m = plan.measure().unwrap();
        let mut trace = d16_sim::TraceRecorder::new();
        d16_sim::Machine::load(&plan.build().unwrap())
            .run(crate::measure::FUEL, &mut trace)
            .unwrap();
        let count = |f: fn(&d16_sim::Access) -> bool| trace.iter().filter(f).count() as u64;
        assert_eq!(count(|a| matches!(a, d16_sim::Access::Fetch(..))), m.stats.insns);
        assert_eq!(count(|a| matches!(a, d16_sim::Access::Read(..))), m.stats.loads);
        assert_eq!(count(|a| matches!(a, d16_sim::Access::Write(..))), m.stats.stores);
    }
}
