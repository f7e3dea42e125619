//! Single-pass pipeline sweep: score every (depth, predictor) timing
//! configuration of the sweep grid — and every fetch width — against one
//! execution of a workload.
//!
//! The collector attaches to a [`crate::Machine`]
//! ([`crate::Machine::attach_pipeline_sweep`]) and is fed every retired
//! instruction from the decode cache the interpreter already maintains, so
//! the whole grid costs one interpreter pass with no re-decode. Each cell
//! replays the *timing* of the machine — and only the timing — through the
//! very same issue rule ([`crate::machine::issue_needs`]) and write-back
//! classification ([`crate::machine::retire_fx`]) the live pipeline uses,
//! just against its own scoreboard and its own depth-derived load delay
//! and misfetch penalty. The cell matching the default spec therefore
//! reproduces [`crate::ExecStats::base_cycles`] exactly (a suite-wide test
//! pins this), and every other cell is that same machine at a different
//! design point.
//!
//! The collector only sees *retired* instructions: a faulting step never
//! reaches it. Sweeps therefore run on cleanly halting workloads — which
//! is every workload in the suite.

use d16_isa::{Insn, Isa};

use crate::machine::{
    issue_needs, retire_fx, FpuLatency, PipelineSpec, Predictor, RetireFx, BP_ENTRIES,
    FETCH_WIDTHS, GPR_SLOTS, PIPELINE_DEPTHS,
};

/// Cells in the depth × predictor sweep grid.
pub const SWEEP_CELLS: usize = PIPELINE_DEPTHS.len() * Predictor::ALL.len();

/// One swept configuration's timing state: the scoreboard of the modeled
/// machine, minus everything architectural.
#[derive(Clone)]
struct CfgState {
    depth: u8,
    predictor: Predictor,
    /// Depth-derived constants, computed once at construction.
    load_delay: u64,
    penalty: u64,
    /// Next issue time (equals retired cycles so far).
    t: u64,
    gpr_ready: [u64; GPR_SLOTS],
    fpr_ready: [u64; 32],
    fpsr_ready: u64,
    fpu_free: u64,
    interlock_cycles: u64,
    mispredicts: u64,
    penalty_cycles: u64,
}

impl CfgState {
    fn new(depth: u8, predictor: Predictor) -> CfgState {
        let spec = PipelineSpec { depth, predictor, ..PipelineSpec::default() };
        CfgState {
            depth,
            predictor,
            load_delay: spec.load_delay(),
            penalty: spec.misfetch_penalty(),
            t: 0,
            gpr_ready: [0; GPR_SLOTS],
            fpr_ready: [0; 32],
            fpsr_ready: 0,
            fpu_free: 0,
            interlock_cycles: 0,
            mispredicts: 0,
            penalty_cycles: 0,
        }
    }
}

/// Fetch-traffic tracker at one fetch-unit width: the machine's
/// last-unit-fetched rule, verbatim, at a different granularity.
#[derive(Copy, Clone)]
struct FetchTracker {
    mask: u32,
    last: Option<u32>,
    units: u64,
}

impl FetchTracker {
    fn new(width_halfwords: u8) -> FetchTracker {
        let spec = PipelineSpec { fetch_width_halfwords: width_halfwords, ..Default::default() };
        FetchTracker { mask: spec.fetch_mask(), last: None, units: 0 }
    }

    fn fetch(&mut self, pc: u32, ilen: u32) {
        let unit = pc & self.mask;
        if self.last != Some(unit) {
            self.units += 1;
        }
        let tail = (pc + ilen - 1) & self.mask;
        if tail != unit {
            self.units += 1;
        }
        self.last = Some(tail);
    }
}

/// One cell of a finished sweep: the modeled machine's cycle account at
/// one (depth, predictor) design point.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SweepCell {
    /// Pipeline depth in stages.
    pub depth: u8,
    /// Front-end predictor.
    pub predictor: Predictor,
    /// Base execution cycles (instructions + interlocks + misfetch
    /// bubbles) — the sweep analogue of [`crate::ExecStats::base_cycles`].
    pub cycles: u64,
    /// Interlock stall cycles (load-use plus FPU) at this depth.
    pub interlock_cycles: u64,
    /// Control transfers whose direction the predictor guessed wrong.
    /// Depth-independent: every depth of one predictor column agrees.
    pub mispredicts: u64,
    /// Misfetch bubble cycles (`mispredicts × penalty`; 0 at depth ≤ 5).
    pub penalty_cycles: u64,
}

/// A finished sweep: the full depth × predictor grid plus fetch traffic
/// at every fetch width, from one pass over one workload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepResult {
    /// Retired instructions scored (the path length of the pass).
    pub insns: u64,
    /// Grid cells, depth-major ([`PIPELINE_DEPTHS`] outer,
    /// [`Predictor::ALL`] inner) — [`SWEEP_CELLS`] of them.
    pub cells: Vec<SweepCell>,
    /// Fetch units pulled at each width of [`FETCH_WIDTHS`], in halfword
    /// units of that width (`fetch_units[1]` matches
    /// [`crate::ExecStats::ifetch_words`] at the default one-word fetch).
    pub fetch_units: [u64; FETCH_WIDTHS.len()],
}

impl SweepResult {
    /// The cell at `(depth, predictor)`, if on-grid.
    pub fn cell(&self, depth: u8, predictor: Predictor) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.depth == depth && c.predictor == predictor)
    }
}

/// The attachable collector. See the module docs for the model; drive it
/// via [`crate::Machine::attach_pipeline_sweep`] and harvest with
/// [`crate::Machine::take_pipeline_sweep`] + [`PipelineSweep::finish`].
#[derive(Clone)]
pub struct PipelineSweep {
    insns: u64,
    cfgs: Vec<CfgState>,
    /// The shared two-bit counter table: the prediction *verdict* depends
    /// only on the predictor, not the depth, so one table serves every
    /// TwoBit column (it sees the same branch stream the machine does).
    bp: Box<[u8; BP_ENTRIES]>,
    fetch: [FetchTracker; FETCH_WIDTHS.len()],
}

impl Default for PipelineSweep {
    fn default() -> Self {
        PipelineSweep::new()
    }
}

impl PipelineSweep {
    /// A fresh collector covering the whole grid.
    pub fn new() -> PipelineSweep {
        let mut cfgs = Vec::with_capacity(SWEEP_CELLS);
        for &depth in &PIPELINE_DEPTHS {
            for &predictor in &Predictor::ALL {
                cfgs.push(CfgState::new(depth, predictor));
            }
        }
        let mut widths = FETCH_WIDTHS.iter();
        let fetch = std::array::from_fn(|_| {
            FetchTracker::new(*widths.next().expect("one tracker per fetch width"))
        });
        PipelineSweep { insns: 0, cfgs, bp: Box::new([0; BP_ENTRIES]), fetch }
    }

    /// Scores one retired instruction against every configuration.
    /// `taken` is `Some(direction)` for control transfers, `None`
    /// otherwise; `ilen` is the instruction's byte length.
    pub(crate) fn retire(
        &mut self,
        insn: &Insn,
        isa: Isa,
        lat: &FpuLatency,
        pc: u32,
        ilen: u32,
        taken: Option<bool>,
    ) {
        self.insns += 1;
        for f in &mut self.fetch {
            f.fetch(pc, ilen);
        }
        let fx = retire_fx(insn, isa, lat);
        // Direction verdicts are per-predictor, not per-cell; resolve them
        // (and advance the shared two-bit table) once per branch.
        let verdicts = taken.map(|taken| {
            let i = ((pc >> 1) as usize) & (BP_ENTRIES - 1);
            let c = self.bp[i];
            self.bp[i] = if taken { (c + 1).min(3) } else { c.saturating_sub(1) };
            [taken, !taken, (c >= 2) != taken]
        });
        for cfg in &mut self.cfgs {
            let (load_need, fpu_need, _) = issue_needs(
                insn,
                isa,
                &cfg.gpr_ready,
                &cfg.fpr_ready,
                cfg.fpsr_ready,
                cfg.fpu_free,
            );
            let stall = load_need.max(fpu_need).saturating_sub(cfg.t);
            cfg.interlock_cycles += stall;
            cfg.t += stall + 1;
            match fx {
                RetireFx::None => {}
                RetireFx::Gpr(r) => cfg.gpr_ready[r as usize] = cfg.t,
                RetireFx::GprLoad(r) => cfg.gpr_ready[r as usize] = cfg.t + cfg.load_delay,
                RetireFx::Fpu { fd, double, lat } => {
                    let done = cfg.t + lat - 1;
                    cfg.fpr_ready[fd as usize] = done;
                    if double {
                        cfg.fpr_ready[(fd ^ 1) as usize] = done;
                    }
                    cfg.fpu_free = done;
                }
                RetireFx::Mtf(fd) => cfg.fpr_ready[fd as usize] = cfg.t + 1,
                RetireFx::Fcmp { lat } => {
                    let done = cfg.t + lat - 1;
                    cfg.fpsr_ready = done;
                    cfg.fpu_free = done;
                }
            }
            if let Some(v) = verdicts {
                let wrong = match cfg.predictor {
                    Predictor::None => v[0],
                    Predictor::StaticTaken => v[1],
                    Predictor::TwoBit => v[2],
                };
                if wrong {
                    cfg.mispredicts += 1;
                    cfg.t += cfg.penalty;
                    cfg.penalty_cycles += cfg.penalty;
                }
            }
        }
    }

    /// Extracts the grid.
    pub fn finish(self) -> SweepResult {
        SweepResult {
            insns: self.insns,
            cells: self
                .cfgs
                .iter()
                .map(|c| SweepCell {
                    depth: c.depth,
                    predictor: c.predictor,
                    cycles: c.t,
                    interlock_cycles: c.interlock_cycles,
                    mispredicts: c.mispredicts,
                    penalty_cycles: c.penalty_cycles,
                })
                .collect(),
            fetch_units: std::array::from_fn(|i| self.fetch[i].units),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, NullSink};
    use d16_asm::build;

    fn sweep_of(isa: Isa, src: &str) -> (Machine, SweepResult) {
        let image = build(isa, &[src]).expect("assemble/link");
        let mut m = Machine::load(&image);
        m.attach_pipeline_sweep(PipelineSweep::new());
        m.run(1_000_000, &mut NullSink).expect("run");
        let sweep = m.take_pipeline_sweep().expect("attached").finish();
        (m, sweep)
    }

    const LOOP: &str = "
_start: mvi r2, 0
        mvi r4, 0
        mvi r3, 10
loop:   subi r3, r3, 1
        cmpne r3, r4
        bnz r0, loop
        addi r2, r2, 1
        trap 0
";

    #[test]
    fn default_cell_matches_live_machine() {
        for isa in Isa::ALL {
            let (m, sweep) = sweep_of(isa, LOOP);
            assert_eq!(sweep.insns, m.stats().insns, "{isa}");
            let d = PipelineSpec::default();
            let cell = sweep.cell(d.depth, d.predictor).expect("on-grid");
            assert_eq!(cell.cycles, m.stats().base_cycles(), "{isa}");
            assert_eq!(cell.interlock_cycles, m.stats().interlocks, "{isa}");
            assert_eq!(cell.penalty_cycles, 0, "{isa}");
            assert_eq!(sweep.fetch_units[1], m.stats().ifetch_words, "{isa}");
        }
    }

    #[test]
    fn both_engines_feed_an_attached_sweep() {
        for isa in Isa::ALL {
            let (_, interp) = sweep_of(isa, LOOP);
            let mut m = Machine::load(&build(isa, &[LOOP]).expect("assemble/link"));
            m.attach_pipeline_sweep(PipelineSweep::new());
            m.run_with(crate::Engine::Blocks, 1_000_000, &mut NullSink).expect("run");
            let blocks = m.take_pipeline_sweep().expect("attached").finish();
            assert_eq!(blocks, interp, "{isa}");
        }
    }

    #[test]
    fn deeper_pipelines_cost_more_on_branchy_code() {
        let (_, sweep) = sweep_of(Isa::D16, LOOP);
        let c5 = sweep.cell(5, Predictor::None).expect("cell").cycles;
        let c8 = sweep.cell(8, Predictor::None).expect("cell").cycles;
        assert!(c8 > c5, "depth 8 pays misfetch bubbles the loop branch causes");
        // The loop's branch is taken 9 of 10 times: static-taken beats
        // no-prediction at any penalized depth.
        let n8 = sweep.cell(8, Predictor::None).expect("cell");
        let t8 = sweep.cell(8, Predictor::StaticTaken).expect("cell");
        assert!(t8.mispredicts < n8.mispredicts);
        assert!(t8.cycles < n8.cycles);
        // Mispredict counts are depth-independent per predictor column.
        for p in Predictor::ALL {
            let m5 = sweep.cell(5, p).expect("cell").mispredicts;
            let m8 = sweep.cell(8, p).expect("cell").mispredicts;
            assert_eq!(m5, m8, "{p:?}");
        }
    }

    #[test]
    fn load_use_distance_stretches_with_depth() {
        // One load-use hazard: 1 stall at depth 5, 2 at depth 6, 4 at 8.
        let src = "_start: la r9, v\nld r2, 0(r9)\naddi r2, r2, 1\ntrap 0\n.data\nv: .word 5\n";
        let (m, sweep) = sweep_of(Isa::Dlxe, src);
        let base = m.stats().interlocks;
        assert_eq!(sweep.cell(5, Predictor::None).expect("cell").interlock_cycles, base);
        assert_eq!(sweep.cell(4, Predictor::None).expect("cell").interlock_cycles, base - 1);
        assert_eq!(sweep.cell(6, Predictor::None).expect("cell").interlock_cycles, base + 1);
        assert_eq!(sweep.cell(8, Predictor::None).expect("cell").interlock_cycles, base + 3);
    }

    #[test]
    fn fetch_units_order_by_width() {
        let (m, sweep) = sweep_of(Isa::D16, LOOP);
        let [w1, w2, w4] = sweep.fetch_units;
        assert!(w1 >= w2 && w2 >= w4, "narrower units mean more of them");
        assert_eq!(w2, m.stats().ifetch_words);
        assert!(w1 >= m.stats().insns, "every insn needs at least one halfword unit");
    }

    #[test]
    fn grid_shape_and_lookup() {
        let (_, sweep) = sweep_of(Isa::D16, "_start: mvi r2, 0\ntrap 0\n");
        assert_eq!(sweep.cells.len(), SWEEP_CELLS);
        assert!(sweep.cell(9, Predictor::None).is_none());
        for &d in &PIPELINE_DEPTHS {
            for p in Predictor::ALL {
                assert!(sweep.cell(d, p).is_some(), "({d}, {p:?})");
            }
        }
    }
}
