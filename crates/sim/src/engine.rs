//! The basic-block micro-op execution engine.
//!
//! [`crate::Machine::run`] decodes and dispatches every instruction on
//! every dynamic execution. This module removes that per-instruction cost:
//! the first time control reaches a PC, [`crate::block`] decodes forward
//! to the block terminator once and lowers the run into a flat micro-op
//! array; a direct-mapped cache (one slot per text instruction, so no
//! conflicts ever evict) then dispatches the lowered block on every later
//! visit with no decode, no operand resolution, and counter traffic
//! batched to a handful of adds per block.
//!
//! The engine is an *optimization, not a second semantics*: everything
//! rare — FPU instructions, traps, faults, delay slots that would not
//! lower, fuel running out mid-block — falls back to
//! [`crate::Machine::step`], the normative interpreter. The contract,
//! enforced by the differential xtest and the fuzzer's fourth oracle, is
//! observational identity: the same [`crate::Access`] stream bytes, the
//! same [`crate::ExecStats`] and [`crate::SIM_SCHEMA`] telemetry, the
//! same [`SimError`] at the same instruction, the same [`StopReason`].
//! A sink that takes fetch runs ([`AccessSink::FETCH_RUNS`]) gets each
//! completed block's fetches in one [`AccessSink::fetch_run`] call after
//! the block's reads and writes, so for it the fetch stream and the data
//! stream are each the interpreter's, in order, but not interleaved.
//!
//! Two accounting techniques make the fast path fast while preserving
//! that identity (counter *values* are compared, not bump order):
//!
//! - **Static pre-aggregation** — per-class instruction counts, writeback
//!   counts, and fetch-word transitions of a block are computed at
//!   lowering time ([`crate::block::Tally`]) and added once per completed
//!   block. A block that bails out at micro-op `i` recomputes the same
//!   sums over the executed prefix (`bail` is the cold path).
//! - **Static interlock analysis** — at the *default* pipeline spec,
//!   with one load delay slot and full forwarding, a lowered instruction
//!   can only ever stall for exactly one cycle, and only when the
//!   *immediately preceding* micro-op is a load producing one of its
//!   sources. That pair is known at lowering time
//!   ([`crate::block::Step::stall`]); only a block's first micro-op
//!   needs a dynamic scoreboard check (its predecessor ran in some other
//!   block).
//!
//! A non-default [`crate::PipelineSpec`] breaks the second technique: a
//! load-use distance above one lets a stale ready time survive past the
//! next micro-op, so per-step timing must consult the live scoreboard.
//! [`exec_block`] is therefore compiled in two flavors (`DYN` const
//! generic): the static flavor is byte-for-byte the historical fast
//! path, and the dynamic flavor re-checks every step's sources, commits
//! the clock per step, and drives the shared branch predictor. Both
//! flavors run the same lowered blocks: every instruction is one packed
//! step whose operands are its architectural registers.

use crate::access::AccessSink;
use crate::block::{self, opc, Block, BlockExit};
use crate::machine::{fuse_a_shape, FuseA, Machine, PipelineSpec};
use crate::stats::{SimCounter, StopReason};
use crate::SimError;
use d16_isa::{AluOp, Cond, Isa, UnOp};
use d16_telemetry::Counters;

/// Which execution engine drives a run (see [`crate::Machine::run_with`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// The basic-block micro-op cache — the default engine.
    #[default]
    Blocks,
    /// The per-instruction interpreter: the normative semantics the block
    /// engine is differentially checked against.
    Interp,
}

impl Engine {
    /// CLI / report name (`"blocks"` / `"interp"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Blocks => "blocks",
            Engine::Interp => "interp",
        }
    }

    /// Parses a CLI / report name; inverse of [`Engine::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "blocks" => Some(Engine::Blocks),
            "interp" => Some(Engine::Interp),
            _ => None,
        }
    }
}

d16_telemetry::counter_schema! {
    /// Block-engine mechanics counters. These count how the engine ran
    /// (compiles, cache traffic, interpreter fallbacks), not what the
    /// simulated program did, so — like `STORE_SCHEMA` — they stay out of
    /// the experiment registry: `--metrics-json` must be byte-identical
    /// across engines. Read them via
    /// [`crate::Machine::engine_telemetry`].
    pub ENGINE_SCHEMA / EngineCounter {
        /// Blocks lowered into the cache.
        BlocksCompiled => "blocks.compiled",
        /// Micro-ops in those blocks.
        UopsLowered => "uops.lowered",
        /// Dispatches answered by the cache (a lowered block, or the
        /// cached fact that this PC does not lower).
        CacheHits => "cache.hits",
        /// First visits to a PC (each triggers a lowering attempt).
        CacheMisses => "cache.misses",
        /// Instructions retired from micro-op arrays.
        UopInsns => "insns.uop",
        /// Instructions retired through the [`crate::Machine::step`]
        /// fallback. `insns.uop + insns.fallback` equals
        /// [`crate::ExecStats::insns`].
        FallbackInsns => "insns.fallback",
    }
}

/// Cache slot: PC not yet visited.
const SLOT_NONE: u32 = u32::MAX;
/// Cache slot: PC visited but not lowerable (FPU/trap/undecodable) —
/// permanently the interpreter's.
const SLOT_NO_BLOCK: u32 = u32::MAX - 1;

/// The block cache plus its dispatch loop. One per [`Machine`], built
/// lazily by [`Machine::run_blocks`] and kept across runs — the keying
/// fields ([`Isa`], text extent, text checksum, [`PipelineSpec`]) only
/// exist to detect a machine swap, since a machine's own text is
/// immutable (stores into it fault). The pipeline spec is a keying field
/// because lowering bakes spec-derived facts into blocks (static stall
/// schedules, fetch-unit boundaries): a cache built at one spec is
/// silently wrong at another.
#[derive(Clone, Debug)]
pub struct BlockEngine {
    isa: Isa,
    text_base: u32,
    text_end: u32,
    text_sum: u64,
    pspec: PipelineSpec,
    /// Direct-mapped: one slot per text instruction ([`SLOT_NONE`],
    /// [`SLOT_NO_BLOCK`], or an index into `blocks`).
    slots: Vec<u32>,
    blocks: Vec<Block>,
    /// One-entry successor cache per block: the last `(next_pc, next_id)`
    /// transition taken out of it. Chained dispatch checks this before
    /// the `slots` lookup; entries are only ever observed after a PC
    /// equality check, so a stale entry costs a refill, never a wrong
    /// block.
    chain: Vec<(u32, u32)>,
    tele: Counters,
}

impl BlockEngine {
    /// An empty cache keyed to `m`'s text.
    #[must_use]
    pub(crate) fn new(m: &Machine) -> Self {
        BlockEngine {
            isa: m.isa,
            text_base: m.text_base,
            text_end: m.text_end,
            text_sum: text_checksum(m),
            pspec: m.pipeline(),
            slots: vec![SLOT_NONE; m.decoded.len()],
            blocks: Vec::new(),
            chain: Vec::new(),
            tele: Counters::new(&ENGINE_SCHEMA),
        }
    }

    /// Whether the cache was built from `m`'s text *and* pipeline spec.
    pub(crate) fn matches(&self, m: &Machine) -> bool {
        self.isa == m.isa
            && self.text_base == m.text_base
            && self.text_end == m.text_end
            && self.pspec == m.pipeline()
            && self.text_sum == text_checksum(m)
    }

    /// The engine-mechanics counter block ([`ENGINE_SCHEMA`]).
    #[must_use]
    pub fn telemetry(&self) -> &Counters {
        &self.tele
    }

    /// Checks the engine's own counters against the machine's
    /// architectural statistics (the engine-side analogue of
    /// [`crate::ExecStats::reconciles_with`]): every retired instruction
    /// is counted exactly once, as micro-op or fallback, and the cache
    /// counters are internally consistent. Trivially `Ok` with telemetry
    /// compiled out.
    ///
    /// # Errors
    ///
    /// Returns a description of the first identity that fails.
    pub fn reconciles_with(&self, stats: &crate::ExecStats) -> Result<(), String> {
        if !d16_telemetry::ENABLED {
            return Ok(());
        }
        let g = |c: EngineCounter| self.tele.get(c);
        let uop = g(EngineCounter::UopInsns);
        let fb = g(EngineCounter::FallbackInsns);
        if uop + fb != stats.insns {
            return Err(format!(
                "insns.uop ({uop}) + insns.fallback ({fb}) != stats.insns ({})",
                stats.insns
            ));
        }
        let compiled = g(EngineCounter::BlocksCompiled);
        if compiled != self.blocks.len() as u64 {
            return Err(format!(
                "blocks.compiled ({compiled}) != cached blocks ({})",
                self.blocks.len()
            ));
        }
        let lowered = g(EngineCounter::UopsLowered);
        let in_cache: u64 = self.blocks.iter().map(|b| b.len() as u64).sum();
        if lowered != in_cache {
            return Err(format!("uops.lowered ({lowered}) != micro-ops in cache ({in_cache})"));
        }
        if g(EngineCounter::CacheMisses) < compiled {
            return Err(format!(
                "cache.misses ({}) < blocks.compiled ({compiled})",
                g(EngineCounter::CacheMisses)
            ));
        }
        Ok(())
    }

    /// The dispatch loop behind [`Machine::run_blocks`]; same contract as
    /// [`Machine::run`].
    ///
    /// All whole-block accounting is summed into a stack-local [`Acc`]
    /// across consecutive cache-served blocks and flushed to the
    /// machine's counters only when the segment ends (a fallback, a
    /// bail-out, or run exit). Counters are only ever *observed* at those
    /// boundaries, so the values seen are identical to per-block
    /// application — the flush just batches the memory traffic.
    pub(crate) fn run(
        &mut self,
        m: &mut Machine,
        fuel: u64,
        sink: &mut impl AccessSink,
    ) -> Result<StopReason, SimError> {
        let end = m.stats.insns + fuel;
        // Non-default specs run every block through the dynamic-timing
        // flavor of `exec_block`; the default spec keeps the historical
        // static fast path, byte for byte.
        let dyn_mode = self.pspec != PipelineSpec::default();
        // `ilen` is 2 or 4: strength-reduce the per-dispatch slot-index
        // division and the alignment remainder to a shift and a mask.
        let shift = m.isa.insn_bytes().trailing_zeros();
        let align_mask = m.isa.insn_bytes() - 1;
        let mut acc = Acc::default();
        // Block the previous iteration ran to completion, if any: its
        // successor cache gets first crack at resolving the next PC.
        let mut pred: Option<u32> = None;
        loop {
            if let Some(v) = m.halted {
                acc.flush(m, &mut self.tele);
                return Ok(StopReason::Halted(v));
            }
            let retired = m.stats.insns + acc.insns;
            if retired >= end {
                acc.flush(m, &mut self.tele);
                return Ok(StopReason::OutOfFuel);
            }
            // A pending branch target means the next instruction is a
            // delay slot the block engine did not lower (blocks swallow
            // their own delay slots): one interpreter step, which also
            // owns the ControlInDelaySlot fault.
            if m.pending_target.is_some() {
                pred = None;
                acc.flush(m, &mut self.tele);
                self.fallback_step(m, sink)?;
                continue;
            }
            let pc = m.pc;
            // Chained dispatch: when the completed predecessor has seen
            // this exact transition before, its cached successor id
            // stands in for the whole slot lookup below (the PC equality
            // check subsumes the range/alignment checks — a cached PC
            // was resolved through them when the entry was filled).
            let chained = pred.and_then(|p| {
                let (cpc, cid) = self.chain[p as usize];
                (cpc == pc).then_some(cid)
            });
            let id = if let Some(id) = chained {
                acc.hits += 1;
                id
            } else {
                if pc < m.text_base || pc >= m.text_end || (pc - m.text_base) & align_mask != 0 {
                    // Let the interpreter raise the canonical PcOutOfText.
                    pred = None;
                    acc.flush(m, &mut self.tele);
                    self.fallback_step(m, sink)?;
                    continue;
                }
                let idx = ((pc - m.text_base) >> shift) as usize;
                let id = match self.slots[idx] {
                    SLOT_NO_BLOCK => {
                        pred = None;
                        acc.hits += 1;
                        acc.flush(m, &mut self.tele);
                        self.fallback_step(m, sink)?;
                        continue;
                    }
                    SLOT_NONE => {
                        acc.misses += 1;
                        match block::lower_block(m, pc) {
                            Some(b) => {
                                self.tele.bump(EngineCounter::BlocksCompiled);
                                self.tele.add(EngineCounter::UopsLowered, b.len() as u64);
                                let id = self.blocks.len() as u32;
                                self.blocks.push(b);
                                self.chain.push((u32::MAX, 0));
                                self.slots[idx] = id;
                                id
                            }
                            None => {
                                self.slots[idx] = SLOT_NO_BLOCK;
                                pred = None;
                                acc.flush(m, &mut self.tele);
                                self.fallback_step(m, sink)?;
                                continue;
                            }
                        }
                    }
                    id => {
                        acc.hits += 1;
                        id
                    }
                };
                if let Some(p) = pred {
                    self.chain[p as usize] = (pc, id);
                }
                id
            };
            pred = None;
            let b = &self.blocks[id as usize];
            // The interpreter stops on the exact instruction where fuel
            // runs out; a block is all-or-nothing, so when the remaining
            // budget cannot cover it, finish the run one step at a time.
            if end - retired < b.len() as u64 {
                acc.flush(m, &mut self.tele);
                self.fallback_step(m, sink)?;
                continue;
            }
            let r = if dyn_mode {
                exec_block::<true, _>(m, b, &mut acc, sink)
            } else {
                exec_block::<false, _>(m, b, &mut acc, sink)
            };
            match r {
                Ok(()) => pred = Some(id),
                Err(why) => {
                    acc.flush(m, &mut self.tele);
                    bail(m, b, &why, dyn_mode, &mut self.tele, sink)?;
                }
            }
        }
    }

    /// One interpreter step, with the retired-instruction delta (1, or 0
    /// when the step faults before retiring) credited to the fallback
    /// counter so `insns.uop + insns.fallback == stats.insns` holds
    /// exactly.
    fn fallback_step(
        &mut self,
        m: &mut Machine,
        sink: &mut impl AccessSink,
    ) -> Result<(), SimError> {
        let before = m.stats.insns;
        let r = m.step(sink);
        self.tele.add(EngineCounter::FallbackInsns, m.stats.insns - before);
        r
    }
}

/// Segment accumulator: the whole-block accounting sums carried in
/// registers/stack across consecutive cache-served blocks, flushed to
/// the machine's (memory-resident, bounds-checked) counters only at
/// segment boundaries. See [`BlockEngine::run`].
#[derive(Default)]
struct Acc {
    /// Instructions retired from micro-op arrays this segment (also the
    /// pending `insns.uop` delta).
    insns: u64,
    /// Per-class sums of those instructions.
    tally: block::Tally,
    /// Dynamic conditional-branch outcomes.
    taken: u64,
    untaken: u64,
    /// Load-use interlocks: scoreboard events and stalled cycles.
    stall_events: u64,
    stall_cycles: u64,
    /// Instruction-fetch word transitions.
    words: u64,
    /// D16x macro-op pairs fused this segment, by shape.
    fused_cmp_br: u64,
    fused_lui_addi: u64,
    /// Pending `cache.hits` / `cache.misses` deltas.
    hits: u64,
    misses: u64,
}

impl Acc {
    /// Folds one completed block (with its resolved load-use stall
    /// events/cycles and conditional-branch outcomes) into the segment
    /// sums. The caller supplies the stall totals because the two
    /// [`exec_block`] flavors derive them differently: static sums plus
    /// the entry stall on the fast path, live per-step counts on the
    /// dynamic path.
    #[inline]
    fn absorb(
        &mut self,
        b: &Block,
        stall_events: u64,
        stall_cycles: u64,
        taken: u64,
        untaken: u64,
    ) {
        self.insns += b.len() as u64;
        let tl = &b.totals;
        self.tally.ex_alu += tl.ex_alu;
        self.tally.ex_control += tl.ex_control;
        self.tally.ex_nop += tl.ex_nop;
        self.tally.loads += tl.loads;
        self.tally.stores += tl.stores;
        self.tally.wb_gpr += tl.wb_gpr;
        self.tally.static_taken += tl.static_taken;
        self.taken += taken;
        self.untaken += untaken;
        self.stall_events += stall_events;
        self.stall_cycles += stall_cycles;
    }

    /// Applies the segment sums to the machine and engine counters and
    /// resets. The values land exactly as per-block application would
    /// have left them.
    fn flush(&mut self, m: &mut Machine, tele: &mut Counters) {
        if self.hits != 0 || self.misses != 0 {
            tele.add(EngineCounter::CacheHits, self.hits);
            tele.add(EngineCounter::CacheMisses, self.misses);
        }
        if self.insns > 0 {
            apply_tally(m, self.insns, &self.tally, self.taken, self.untaken);
            if self.stall_cycles > 0 {
                m.stats.interlocks += self.stall_cycles;
                m.stats.load_interlocks += self.stall_cycles;
                m.tele.add(SimCounter::LoadEvents, self.stall_events);
                m.tele.add(SimCounter::LoadCycles, self.stall_cycles);
            }
            m.stats.ifetch_words += self.words;
            m.tele.add(SimCounter::IfWords, self.words);
            m.stats.fused_cmp_br += self.fused_cmp_br;
            m.stats.fused_lui_addi += self.fused_lui_addi;
            m.tele.add(SimCounter::FuseCmpBr, self.fused_cmp_br);
            m.tele.add(SimCounter::FuseLuiAddi, self.fused_lui_addi);
            tele.add(EngineCounter::UopInsns, self.insns);
        }
        *self = Acc::default();
    }
}

/// Why [`exec_block`] could not complete: micro-op `i` would fault, with
/// the partial-block state the settlement in [`bail`] needs.
struct Bail {
    i: usize,
    d: u64,
    pending: Option<u32>,
    taken: u64,
    untaken: u64,
    /// Dynamic-path load-use stall events over the completed prefix
    /// (always 0 on the static path, which recomputes from the steps).
    events: u64,
    /// Dynamic-path load-use stall cycles over the completed prefix.
    cycles: u64,
}

/// FNV-1a over the text segment: the engine's staleness check for a
/// machine swap. Not adversarial — a machine cannot modify its own text
/// (stores into it raise [`SimError::WriteToText`]).
fn text_checksum(m: &Machine) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &byte in &m.mem[m.text_base as usize..m.text_end as usize] {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Masked register-file index. Lowered register slots are always below
/// [`crate::machine::GPR_SLOTS`]; the mask (a no-op on valid slots)
/// proves it to the optimizer, eliding the bounds check on the
/// simulator's hottest array.
macro_rules! slot {
    ($r:expr) => {
        ($r as usize) & (crate::machine::GPR_SLOTS - 1)
    };
}

/// Executes one lowered block to completion, or bails to the interpreter
/// at the first micro-op that would fault. Preconditions (the dispatch
/// loop establishes them): not halted, no pending branch target, and
/// enough fuel for the whole block.
///
/// `DYN == false` (the default pipeline spec): the loop body carries no
/// cycle arithmetic and no counter traffic — every step's clock is
/// `base + Step::cum` with `base` fixed once at entry (the one dynamic
/// scoreboard check), and all accounting lands in a handful of local
/// adds ([`Acc::absorb`]) after the last micro-op retires.
///
/// `DYN == true` (any other spec): static stall schedules are unsound
/// (a load-use distance above one outlives the next micro-op, and ready
/// times must be cleared by later writes), so each step replays the
/// interpreter's issue sequence exactly — scoreboard check against the
/// live clock, clock commit, ready-time write, then branch-predictor
/// update and misfetch charge. The stall/clock for a step are computed
/// *before* its arm runs and committed *after* it, so a bailing arm
/// leaves the machine exactly where the interpreter would re-find it.
///
/// Either way a would-fault micro-op returns [`Bail`]; the caller
/// settles.
fn exec_block<const DYN: bool, S: AccessSink>(
    m: &mut Machine,
    b: &Block,
    acc: &mut Acc,
    sink: &mut S,
) -> Result<(), Bail> {
    // One dynamic interlock check per block on the static path: only the
    // first micro-op can see a load delay from *outside* the block (see
    // the module doc); every later stall is static and already folded
    // into `Step::cum`. The dynamic path folds the entry stall into its
    // first per-step check instead.
    let d = if DYN {
        0
    } else {
        m.gpr_ready[slot!(b.first_srcs[0])]
            .max(m.gpr_ready[slot!(b.first_srcs[1])])
            .saturating_sub(m.t)
    };
    let base = m.t + d;
    let ldelay = m.pspec.load_delay();
    let penalty = m.pspec.misfetch_penalty();
    // Dynamic-path load-use stall totals for the block.
    let (mut ev, mut cyc) = (0u64, 0u64);
    let mut pc = b.start_pc;
    let mut pending: Option<u32> = None;
    let (mut taken, mut untaken) = (0u64, 0u64);
    for (i, s) in b.steps.iter().enumerate() {
        // Dynamic issue: resolve this step's stall and post-issue clock
        // from the live scoreboard, but commit nothing until the arm has
        // proven it cannot fault (a bail must leave no trace).
        let (stall, t_next) = if DYN {
            let srcs = block::xstep_srcs(s);
            let need = m.gpr_ready[slot!(srcs[0])].max(m.gpr_ready[slot!(srcs[1])]);
            let stall = need.saturating_sub(m.t);
            (stall, m.t + stall + 1)
        } else {
            (0, 0)
        };
        let taken_before = taken;
        // The arm bodies, shared across the opcode groups. Defined inside
        // the loop so `m`/`s`/`pc`/`sink` are in scope at the definition
        // site (macro hygiene resolves them there). A sink that takes
        // fetch runs gets the whole block's fetches at completion
        // instead of one call per step.
        macro_rules! fetch {
            () => {
                if !S::FETCH_RUNS {
                    sink.fetch(pc, s.len);
                }
            };
        }
        macro_rules! rr {
            ($op:expr) => {{
                fetch!();
                m.gpr[slot!(s.a)] = $op.eval(m.gpr[slot!(s.b)], m.gpr[slot!(s.c)]);
            }};
        }
        macro_rules! ri {
            ($op:expr) => {{
                fetch!();
                m.gpr[slot!(s.a)] = $op.eval(m.gpr[slot!(s.b)], s.imm);
            }};
        }
        macro_rules! cmp_rr {
            ($cond:expr) => {{
                fetch!();
                m.gpr[slot!(s.a)] =
                    if $cond.eval(m.gpr[slot!(s.b)], m.gpr[slot!(s.c)]) { u32::MAX } else { 0 };
            }};
        }
        macro_rules! cmp_ri {
            ($cond:expr) => {{
                fetch!();
                m.gpr[slot!(s.a)] = if $cond.eval(m.gpr[slot!(s.b)], s.imm) { u32::MAX } else { 0 };
            }};
        }
        macro_rules! un {
            ($op:expr) => {{
                fetch!();
                m.gpr[slot!(s.a)] = $op.eval(m.gpr[slot!(s.b)]);
            }};
        }
        // The memory arms run their fault pre-check before any sink traffic:
        // `step()` redoes the full per-instruction sequence (fetch emission
        // included) and then raises the canonical fault, so the engine must
        // leave no trace of the bailing instruction behind — which is also
        // why these arms emit their own fetch only after the check passes.
        // Widths are powers of two; the and-mask alignment test avoids the
        // hardware divide `%` costs with a runtime divisor.
        macro_rules! ld {
            ($bl:literal, $a:ident, $val:expr) => {{
                let ea = m.gpr[slot!(s.b)].wrapping_add(s.imm);
                if ea as u64 + $bl > m.mem.len() as u64 || ea & ($bl as u32 - 1) != 0 {
                    return Err(Bail { i, d, pending, taken, untaken, events: ev, cycles: cyc });
                }
                fetch!();
                sink.read(ea, $bl as u8);
                let $a = ea as usize;
                m.gpr[slot!(s.a)] = $val;
                // Result ready `load_delay` cycles after issue (one on
                // the static path, where issue time is `base + cum`).
                m.gpr_ready[slot!(s.a)] =
                    if DYN { t_next + ldelay } else { base + u64::from(s.cum) + 1 };
            }};
        }
        macro_rules! st {
            ($bl:literal, $a:ident, $v:ident, $put:expr) => {{
                let ea = m.gpr[slot!(s.b)].wrapping_add(s.imm);
                if ea as u64 + $bl > m.mem.len() as u64
                    || ea & ($bl as u32 - 1) != 0
                    || ea < m.data_base
                {
                    return Err(Bail { i, d, pending, taken, untaken, events: ev, cycles: cyc });
                }
                fetch!();
                sink.write(ea, $bl as u8);
                let $a = ea as usize;
                let $v = m.gpr[slot!(s.a)];
                $put;
            }};
        }
        // One flat jump per micro-op: the opcode byte already encodes the
        // ALU operation / condition / width / branch sense, so no arm
        // re-dispatches on a second memory-loaded operand.
        match s.code {
            opc::ADD_RR => rr!(AluOp::Add),
            opc::SUB_RR => rr!(AluOp::Sub),
            opc::AND_RR => rr!(AluOp::And),
            opc::OR_RR => rr!(AluOp::Or),
            opc::XOR_RR => rr!(AluOp::Xor),
            opc::SHL_RR => rr!(AluOp::Shl),
            opc::SHR_RR => rr!(AluOp::Shr),
            opc::SHRA_RR => rr!(AluOp::Shra),
            opc::ADD_RI => ri!(AluOp::Add),
            opc::SUB_RI => ri!(AluOp::Sub),
            opc::AND_RI => ri!(AluOp::And),
            opc::OR_RI => ri!(AluOp::Or),
            opc::XOR_RI => ri!(AluOp::Xor),
            opc::SHL_RI => ri!(AluOp::Shl),
            opc::SHR_RI => ri!(AluOp::Shr),
            opc::SHRA_RI => ri!(AluOp::Shra),
            opc::EQ_RR => cmp_rr!(Cond::Eq),
            opc::NE_RR => cmp_rr!(Cond::Ne),
            opc::LT_RR => cmp_rr!(Cond::Lt),
            opc::LTU_RR => cmp_rr!(Cond::Ltu),
            opc::LE_RR => cmp_rr!(Cond::Le),
            opc::LEU_RR => cmp_rr!(Cond::Leu),
            opc::GT_RR => cmp_rr!(Cond::Gt),
            opc::GTU_RR => cmp_rr!(Cond::Gtu),
            opc::GE_RR => cmp_rr!(Cond::Ge),
            opc::GEU_RR => cmp_rr!(Cond::Geu),
            opc::EQ_RI => cmp_ri!(Cond::Eq),
            opc::NE_RI => cmp_ri!(Cond::Ne),
            opc::LT_RI => cmp_ri!(Cond::Lt),
            opc::LTU_RI => cmp_ri!(Cond::Ltu),
            opc::LE_RI => cmp_ri!(Cond::Le),
            opc::LEU_RI => cmp_ri!(Cond::Leu),
            opc::GT_RI => cmp_ri!(Cond::Gt),
            opc::GTU_RI => cmp_ri!(Cond::Gtu),
            opc::GE_RI => cmp_ri!(Cond::Ge),
            opc::GEU_RI => cmp_ri!(Cond::Geu),
            opc::NEG => un!(UnOp::Neg),
            opc::INV => un!(UnOp::Inv),
            opc::MV => un!(UnOp::Mv),
            opc::MOVI => {
                fetch!();
                m.gpr[slot!(s.a)] = s.imm;
            }
            opc::LD_B => ld!(1u64, a, m.mem[a] as i8 as i32 as u32),
            opc::LD_BU => ld!(1u64, a, m.mem[a] as u32),
            opc::LD_H => ld!(2u64, a, i16::from_le_bytes([m.mem[a], m.mem[a + 1]]) as i32 as u32),
            opc::LD_HU => ld!(2u64, a, u16::from_le_bytes([m.mem[a], m.mem[a + 1]]) as u32),
            opc::LD_W => {
                ld!(4u64, a, u32::from_le_bytes(m.mem[a..a + 4].try_into().expect("4-byte slice")))
            }
            opc::LD_ABS => {
                // Pre-validated at lowering time: cannot fault.
                fetch!();
                sink.read(s.imm, 4);
                let a = s.imm as usize;
                m.gpr[slot!(s.a)] =
                    u32::from_le_bytes(m.mem[a..a + 4].try_into().expect("4-byte slice"));
                m.gpr_ready[slot!(s.a)] =
                    if DYN { t_next + ldelay } else { base + u64::from(s.cum) + 1 };
            }
            opc::ST_B => st!(1u64, a, v, m.mem[a] = v as u8),
            opc::ST_H => {
                st!(2u64, a, v, m.mem[a..a + 2].copy_from_slice(&(v as u16).to_le_bytes()))
            }
            opc::ST_W => st!(4u64, a, v, m.mem[a..a + 4].copy_from_slice(&v.to_le_bytes())),
            opc::BR => {
                fetch!();
                pending = Some(s.imm);
            }
            opc::BC_Z => {
                fetch!();
                if m.gpr[slot!(s.a)] == 0 {
                    pending = Some(s.imm);
                    taken += 1;
                } else {
                    pending = Some(s.aux);
                    untaken += 1;
                }
            }
            opc::BC_NZ => {
                fetch!();
                if m.gpr[slot!(s.a)] != 0 {
                    pending = Some(s.imm);
                    taken += 1;
                } else {
                    pending = Some(s.aux);
                    untaken += 1;
                }
            }
            opc::JR => {
                fetch!();
                pending = Some(m.gpr[slot!(s.a)]);
            }
            opc::JC_Z => {
                fetch!();
                if m.gpr[slot!(s.a)] == 0 {
                    pending = Some(m.gpr[slot!(s.b)]);
                    taken += 1;
                } else {
                    pending = Some(s.aux);
                    untaken += 1;
                }
            }
            opc::JC_NZ => {
                fetch!();
                if m.gpr[slot!(s.a)] != 0 {
                    pending = Some(m.gpr[slot!(s.b)]);
                    taken += 1;
                } else {
                    pending = Some(s.aux);
                    untaken += 1;
                }
            }
            opc::JL => {
                // Read the target before writing the link — they may be
                // the same register (the interpreter reads first too).
                fetch!();
                let dest = m.gpr[slot!(s.a)];
                m.gpr[slot!(s.b)] = s.imm;
                pending = Some(dest);
            }
            opc::JAL => {
                fetch!();
                m.gpr[slot!(s.a)] = s.aux;
                pending = Some(s.imm);
            }
            opc::NOP => fetch!(),
            code => unreachable!("invalid packed opcode {code}"),
        }
        if DYN {
            // Commit the issue resolved above, then replay the
            // interpreter's post-execute bookkeeping: forwarded results
            // become ready at issue time (overwriting any pending load
            // ready time — the staleness the static path cannot see),
            // and resolved control transfers update the shared predictor
            // and charge the spec's misfetch bubbles. `pc` still points
            // at this step.
            if stall > 0 {
                ev += 1;
                cyc += stall;
            }
            m.t = t_next;
            match s.code {
                opc::ALU_RR..=opc::MOVI => m.gpr_ready[slot!(s.a)] = t_next,
                opc::JL => m.gpr_ready[slot!(s.b)] = t_next,
                opc::JAL => m.gpr_ready[slot!(s.a)] = t_next,
                _ => {}
            }
            let resolved = match s.code {
                opc::BR | opc::JR | opc::JL | opc::JAL => Some(true),
                opc::BC_Z | opc::BC_NZ | opc::JC_Z | opc::JC_NZ => Some(taken > taken_before),
                _ => None,
            };
            if let Some(tk) = resolved {
                let mispredicted = m.predict_and_update(pc, tk);
                if mispredicted && penalty > 0 {
                    m.stats.mispredicts += 1;
                    m.stats.misfetch_cycles += penalty;
                    m.t += penalty;
                }
            }
        }
        pc += u32::from(s.len);
    }

    // Whole-block completion: fold the block's static sums and dynamic
    // outcomes into the segment accumulator (local adds, no counter
    // memory traffic) and advance the per-block architectural state. The
    // dynamic path counted its stalls and advanced the clock per step;
    // the static path derives both from the lowering-time schedule plus
    // the entry stall.
    if DYN {
        acc.absorb(b, ev, cyc, taken, untaken);
    } else {
        acc.absorb(
            b,
            b.static_stalls + u64::from(d > 0),
            b.static_stall_cycles + d,
            taken,
            untaken,
        );
        m.t = base + b.cycles;
    }
    acc.words += b.words_after_first + u64::from(m.last_fetch_word != Some(b.first_word));
    m.last_fetch_word = Some(b.last_word);
    if S::FETCH_RUNS {
        sink.fetch_run(b.start_pc, b.last_pc, b.steps.iter().map(|s| s.len));
    }
    if m.isa == Isa::D16x {
        // Fusion settlement: the pair split across the block's entry edge
        // (the machine's carried A-half against the block's head shape),
        // then the statically counted internal pairs, then the exit-side
        // A-half handed to whatever retires next.
        if let (Some((epc, a)), Some((kind, reg))) = (m.fuse_prev, b.head_fuse) {
            if epc == b.start_pc && head_pair_hit(a, kind, reg) {
                match a {
                    FuseA::Cmp(_) => acc.fused_cmp_br += 1,
                    FuseA::Lui(_) => acc.fused_lui_addi += 1,
                }
            }
        }
        acc.fused_cmp_br += b.fused_cmp_br;
        acc.fused_lui_addi += b.fused_lui_addi;
        m.fuse_prev = b.exit_fuse;
    }
    match b.exit {
        BlockExit::FallThrough => m.pc = pc,
        BlockExit::PendingAtEnd => {
            m.pending_target = pending;
            m.pc = pc;
        }
        BlockExit::TakePending => {
            m.pc = pending.expect("a TakePending block's control micro-op set the target");
        }
    }
    Ok(())
}

/// Whether a retired A-half completes the (kind, register) head shape of
/// a block's first instruction — the packed-block form of
/// [`crate::machine::fuse_b_matches`].
fn head_pair_hit(a: FuseA, kind: u8, reg: u8) -> bool {
    match a {
        FuseA::Cmp(r) => kind == block::FUSE_CMP_BR && r == reg,
        FuseA::Lui(r) => kind == block::FUSE_LUI_ADDI && r == reg,
    }
}

/// Adds the per-class counts of `n` retired instructions summarized by
/// `tl` (plus the dynamic conditional-branch outcomes) to the machine,
/// exactly as `n` interpreter steps would have.
fn apply_tally(m: &mut Machine, n: u64, tl: &block::Tally, taken: u64, untaken: u64) {
    m.stats.insns += n;
    m.stats.loads += tl.loads;
    m.stats.stores += tl.stores;
    m.stats.nops += tl.ex_nop;
    m.stats.branches += tl.ex_control;
    m.stats.taken_branches += tl.static_taken + taken;
    m.tele.add(SimCounter::IfInsns, n);
    m.tele.add(SimCounter::IdInsns, n);
    m.tele.add(SimCounter::ExAlu, tl.ex_alu);
    m.tele.add(SimCounter::ExControl, tl.ex_control);
    m.tele.add(SimCounter::ExNop, tl.ex_nop);
    m.tele.add(SimCounter::MemLoads, tl.loads);
    m.tele.add(SimCounter::MemStores, tl.stores);
    m.tele.add(SimCounter::WbGpr, tl.wb_gpr);
    m.tele.add(SimCounter::CtlTaken, tl.static_taken + taken);
    m.tele.add(SimCounter::CtlUntaken, untaken);
}

/// The cold path out of [`exec_block`]: micro-op `i` would fault. Settle
/// the accounts for the `i` completed micro-ops (recomputing the prefix
/// sums the completion path gets statically), restore the architectural
/// PC/pending/scoreboard state, and hand the faulting instruction to
/// [`Machine::step`], which re-derives and raises the canonical
/// [`SimError`]. The faulting micro-op's own stall (static flag, or the
/// dynamic entry stall when `i == 0`) is *not* settled here — `step()`
/// rediscovers it from the scoreboard and accounts it before faulting,
/// exactly as the interpreter would.
#[cold]
fn bail<S: AccessSink>(
    m: &mut Machine,
    b: &Block,
    why: &Bail,
    dyn_mode: bool,
    tele: &mut Counters,
    sink: &mut S,
) -> Result<(), SimError> {
    let Bail { i, d, pending, taken, untaken, events, cycles } = *why;
    let prefix = block::xtally(&b.steps[..i]);
    apply_tally(m, i as u64, &prefix, taken, untaken);
    if dyn_mode {
        // The dynamic path already advanced the clock, ready times, and
        // predictor per retired step; only the prefix's stall counters
        // remain unapplied (they ride in the accumulator on the fast
        // path, which was flushed before `bail`).
        if cycles > 0 {
            m.stats.interlocks += cycles;
            m.stats.load_interlocks += cycles;
            m.tele.add(SimCounter::LoadEvents, events);
            m.tele.add(SimCounter::LoadCycles, cycles);
        }
    } else if i > 0 {
        let stalls = b.steps[..i].iter().filter(|s| s.stall > 0).count() as u64;
        let cycles = b.steps[..i].iter().map(|s| u64::from(s.stall)).sum::<u64>() + d;
        if cycles > 0 {
            m.stats.interlocks += cycles;
            m.stats.load_interlocks += cycles;
            m.tele.add(SimCounter::LoadEvents, stalls + u64::from(d > 0));
            m.tele.add(SimCounter::LoadCycles, cycles);
        }
        m.t += d + u64::from(b.steps[i - 1].cum);
    }
    // Fetch-unit settlement over the retired prefix, walking the real
    // byte extent of every instruction with the interpreter's two-unit
    // rule at the spec's fetch width: a transition to the instruction's
    // first unit, then one more when its last byte straddles into the
    // next unit. A sink that takes fetch runs had no fetch from the
    // prefix yet: it gets them here, one at a time, before the faulting
    // instruction's own.
    let fmask = m.pspec.fetch_mask();
    let mut words = 0u64;
    let mut prev = m.last_fetch_word;
    let mut pc = b.start_pc;
    for s in &b.steps[..i] {
        if S::FETCH_RUNS {
            sink.fetch(pc, s.len);
        }
        let w0 = pc & fmask;
        if prev != Some(w0) {
            words += 1;
            prev = Some(w0);
        }
        let w1 = (pc + u32::from(s.len) - 1) & fmask;
        if prev != Some(w1) {
            words += 1;
            prev = Some(w1);
        }
        pc += u32::from(s.len);
    }
    m.stats.ifetch_words += words;
    m.tele.add(SimCounter::IfWords, words);
    m.last_fetch_word = prev;
    m.pending_target = pending;
    m.pc = pc;
    if m.isa == Isa::D16x && i > 0 {
        // Same settlement as block completion (the accumulator was
        // flushed before `bail`, so the counters take the hits directly):
        // the entry-edge pair, then internal pairs whose B-half retired
        // (step index below `i`), then the carried state — the last
        // retired instruction's A-shape, reread from the decode array.
        if let (Some((epc, a)), Some((kind, reg))) = (m.fuse_prev, b.head_fuse) {
            if epc == b.start_pc && head_pair_hit(a, kind, reg) {
                match a {
                    FuseA::Cmp(_) => {
                        m.stats.fused_cmp_br += 1;
                        m.tele.bump(SimCounter::FuseCmpBr);
                    }
                    FuseA::Lui(_) => {
                        m.stats.fused_lui_addi += 1;
                        m.tele.bump(SimCounter::FuseLuiAddi);
                    }
                }
            }
        }
        for &(bi, kind) in b.fuse_pairs.iter() {
            if (bi as usize) < i {
                if kind == block::FUSE_CMP_BR {
                    m.stats.fused_cmp_br += 1;
                    m.tele.bump(SimCounter::FuseCmpBr);
                } else {
                    m.stats.fused_lui_addi += 1;
                    m.tele.bump(SimCounter::FuseLuiAddi);
                }
            }
        }
        let lpc = pc - u32::from(b.steps[i - 1].len);
        let idx = ((lpc - m.text_base) / m.isa.insn_bytes()) as usize;
        let (insn, _) = m.decoded[idx].expect("a retired instruction decoded");
        m.fuse_prev = fuse_a_shape(&insn).map(|a| (pc, a));
    }
    tele.add(EngineCounter::UopInsns, i as u64);
    let before = m.stats.insns;
    let r = m.step(sink);
    tele.add(EngineCounter::FallbackInsns, m.stats.insns - before);
    r
}
