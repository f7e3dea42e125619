//! Basic-block discovery and micro-op lowering for the block engine.
//!
//! A *block* is a straight-line run of instructions starting at some PC
//! and ending at the first control transfer (including its delay slot
//! when that is lowerable), the first non-lowerable instruction, the end
//! of the text segment, or [`MAX_BLOCK_LEN`]. Lowering happens once per
//! entry PC: operands are pre-resolved (register file slots as raw
//! indices, immediates pre-cast, PC-relative targets and `ldc` literal
//! addresses pre-computed), and everything about the block that does not
//! depend on machine state is pre-aggregated so the dispatch loop in
//! [`crate::engine`] can account for a whole block with a handful of
//! adds instead of per-instruction counter traffic.
//!
//! The lowered (hot) set covers the integer ALU, compares, moves, loads
//! and stores, and all control transfers. FPU instructions, traps, and
//! undecodable words are *not* lowered — they terminate the block and
//! execute through [`crate::Machine::step`], which stays the normative
//! semantics.

use crate::machine::{fuse_a_shape, fuse_b_matches, FuseA, Machine};
use d16_isa::{AluOp, Cond, Gpr, Insn, Isa, MemWidth, UnOp};

/// Write-discard register-file slot: DLXe `r0` as a *destination* lowers
/// to this, making the hardwired-zero write a plain array store.
pub(crate) const SCRATCH_REG: u8 = 32;
/// Permanent-zero register-file slot: DLXe `r0` as a *source* lowers to
/// this; also used for "no source" in static interlock metadata (its
/// ready time is never written, so it never stalls anything).
pub(crate) const ZERO_REG: u8 = 33;

/// Longest lowered block in micro-ops. Bounds compile latency and keeps
/// the fuel fast-path check (`remaining >= len`) conservative.
pub(crate) const MAX_BLOCK_LEN: usize = 64;

/// One lowered micro-operation. Register fields are raw register-file
/// slot indices (see [`SCRATCH_REG`]/[`ZERO_REG`]); immediates are
/// pre-cast to the `u32` the ALU consumes; control targets that are
/// statically known are pre-computed byte addresses.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Uop {
    /// `rd <- rs1 op rs2`.
    Alu { op: AluOp, rd: u8, rs1: u8, rs2: u8 },
    /// `rd <- rs1 op imm`.
    AluI { op: AluOp, rd: u8, rs1: u8, imm: u32 },
    /// `rd <- op rs`.
    Un { op: UnOp, rd: u8, rs: u8 },
    /// `rd <- imm` (from `Mvi`, or `Lui` with the shift pre-applied).
    MovImm { rd: u8, imm: u32 },
    /// `rd <- (rs1 cond rs2) ? ~0 : 0`.
    Cmp { cond: Cond, rd: u8, rs1: u8, rs2: u8 },
    /// `rd <- (rs1 cond imm) ? ~0 : 0`.
    CmpI { cond: Cond, rd: u8, rs1: u8, imm: u32 },
    /// `rd <- mem[rs(base) + disp]`; the effective address is dynamic, so
    /// faults are pre-checked at dispatch (bailing to the interpreter).
    Ld { w: MemWidth, rd: u8, base: u8, disp: u32 },
    /// D16 `ldc` with its literal-pool address pre-computed *and*
    /// pre-validated at lowering time — this micro-op cannot fault.
    LdAbs { rd: u8, addr: u32 },
    /// `mem[base + disp] <- rs`; faults pre-checked like [`Uop::Ld`].
    St { w: MemWidth, rs: u8, base: u8, disp: u32 },
    /// Unconditional PC-relative branch (also linkless `Jdisp`), target
    /// pre-computed.
    Br { target: u32 },
    /// Conditional branch with both outcomes pre-computed.
    Bc { neg: bool, rs: u8, taken: u32, fall: u32 },
    /// Register-indirect jump.
    Jr { target: u8 },
    /// Conditional register-indirect jump.
    Jc { neg: bool, rs: u8, target: u8, fall: u32 },
    /// Jump-and-link through a register; the link value is static.
    Jl { target: u8, link: u8, link_val: u32 },
    /// `Jdisp` with link: static target and static link value.
    Jal { target: u32, link: u8, link_val: u32 },
    /// No operation.
    Nop,
}

/// A micro-op plus its statically known pipeline behavior: `stall` is the
/// interlock cycles the step spends waiting on an earlier load in the
/// *same block*, from a lowering-time scoreboard replay of the issue rule
/// at the active spec's load-use distance. At the default depth (distance
/// one) this reduces to the classic rule — only a load's destination read
/// by the immediately following micro-op stalls, for exactly one cycle.
///
/// With the stalls known, the cycle count at which each step completes is
/// static too: `cum` is the number of cycles from block entry through the
/// end of this step (issue cycles plus static stalls). At dispatch the
/// engine adds the one dynamic quantity — the first micro-op's scoreboard
/// stall — to the block's entry time and every step's clock is
/// `entry + dynamic + cum`, so the hot loop carries no cycle arithmetic
/// at all.
///
/// That static schedule is only *trusted* at the default spec: with a
/// load-use distance above one, a load near the end of the previous block
/// can stall micro-ops past the entry edge, so non-default-spec blocks
/// run on the engine's dynamic timing path, which recomputes every stall
/// against the live scoreboard and ignores `stall`/`cum` entirely.
///
/// `Step` is the *lowering-time* form; what the block actually stores is
/// the packed [`XStep`] each step encodes to.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Step {
    pub uop: Uop,
    pub stall: u32,
    pub cum: u32,
    /// Byte length of the source instruction (2 or 4 on D16x, else the
    /// ISA's fixed width).
    pub len: u8,
}

/// Flat execution opcodes: the [`Uop`] variant *and* everything it used
/// to dispatch on at run time — ALU operation, compare condition, memory
/// width, branch-sense flag — baked into a single byte at lowering time.
/// Executing a `Uop` costs two data-dependent dispatches (the variant
/// jump table, then `AluOp::eval`/`Cond::eval`'s inner match on an op
/// loaded from memory); executing an opcode costs one. The numeric
/// layout is grouped so the cold accounting paths can classify with
/// range patterns (see [`xtally`]).
pub(crate) mod opc {
    // 0..=7: ALU register-register, base + `alu_sel`.
    pub const ALU_RR: u8 = 0;
    // 8..=15: ALU register-immediate, base + `alu_sel`.
    pub const ALU_RI: u8 = 8;
    // 16..=25: compare register-register, base + `cond_sel`.
    pub const CMP_RR: u8 = 16;
    // 26..=35: compare register-immediate, base + `cond_sel`.
    pub const CMP_RI: u8 = 26;
    // Named members of the four groups, for the engine's match patterns.
    pub const ADD_RR: u8 = ALU_RR;
    pub const SUB_RR: u8 = ALU_RR + 1;
    pub const AND_RR: u8 = ALU_RR + 2;
    pub const OR_RR: u8 = ALU_RR + 3;
    pub const XOR_RR: u8 = ALU_RR + 4;
    pub const SHL_RR: u8 = ALU_RR + 5;
    pub const SHR_RR: u8 = ALU_RR + 6;
    pub const SHRA_RR: u8 = ALU_RR + 7;
    pub const ADD_RI: u8 = ALU_RI;
    pub const SUB_RI: u8 = ALU_RI + 1;
    pub const AND_RI: u8 = ALU_RI + 2;
    pub const OR_RI: u8 = ALU_RI + 3;
    pub const XOR_RI: u8 = ALU_RI + 4;
    pub const SHL_RI: u8 = ALU_RI + 5;
    pub const SHR_RI: u8 = ALU_RI + 6;
    pub const SHRA_RI: u8 = ALU_RI + 7;
    pub const EQ_RR: u8 = CMP_RR;
    pub const NE_RR: u8 = CMP_RR + 1;
    pub const LT_RR: u8 = CMP_RR + 2;
    pub const LTU_RR: u8 = CMP_RR + 3;
    pub const LE_RR: u8 = CMP_RR + 4;
    pub const LEU_RR: u8 = CMP_RR + 5;
    pub const GT_RR: u8 = CMP_RR + 6;
    pub const GTU_RR: u8 = CMP_RR + 7;
    pub const GE_RR: u8 = CMP_RR + 8;
    pub const GEU_RR: u8 = CMP_RR + 9;
    pub const EQ_RI: u8 = CMP_RI;
    pub const NE_RI: u8 = CMP_RI + 1;
    pub const LT_RI: u8 = CMP_RI + 2;
    pub const LTU_RI: u8 = CMP_RI + 3;
    pub const LE_RI: u8 = CMP_RI + 4;
    pub const LEU_RI: u8 = CMP_RI + 5;
    pub const GT_RI: u8 = CMP_RI + 6;
    pub const GTU_RI: u8 = CMP_RI + 7;
    pub const GE_RI: u8 = CMP_RI + 8;
    pub const GEU_RI: u8 = CMP_RI + 9;
    pub const NEG: u8 = 36;
    pub const INV: u8 = 37;
    pub const MV: u8 = 38;
    pub const MOVI: u8 = 39;
    pub const LD_B: u8 = 40;
    pub const LD_BU: u8 = 41;
    pub const LD_H: u8 = 42;
    pub const LD_HU: u8 = 43;
    pub const LD_W: u8 = 44;
    pub const LD_ABS: u8 = 45;
    pub const ST_B: u8 = 46;
    pub const ST_H: u8 = 47;
    pub const ST_W: u8 = 48;
    pub const BR: u8 = 49;
    /// `Bc`, taken when the register is zero (`neg == false`).
    pub const BC_Z: u8 = 50;
    /// `Bc`, taken when the register is non-zero (`neg == true`).
    pub const BC_NZ: u8 = 51;
    pub const JR: u8 = 52;
    pub const JC_Z: u8 = 53;
    pub const JC_NZ: u8 = 54;
    pub const JL: u8 = 55;
    pub const JAL: u8 = 56;
    pub const NOP: u8 = 57;
}

/// Offset of an [`AluOp`] within the `ALU_RR`/`ALU_RI` opcode groups.
fn alu_sel(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::And => 2,
        AluOp::Or => 3,
        AluOp::Xor => 4,
        AluOp::Shl => 5,
        AluOp::Shr => 6,
        AluOp::Shra => 7,
    }
}

/// Offset of a [`Cond`] within the `CMP_RR`/`CMP_RI` opcode groups.
fn cond_sel(cond: Cond) -> u8 {
    match cond {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Lt => 2,
        Cond::Ltu => 3,
        Cond::Le => 4,
        Cond::Leu => 5,
        Cond::Gt => 6,
        Cond::Gtu => 7,
        Cond::Ge => 8,
        Cond::Geu => 9,
    }
}

/// The packed execution form of a [`Step`]: one 16-byte record the
/// dispatch loop consumes with a single flat jump on `code` and no
/// further data-dependent branching. Operand meaning per opcode group:
///
/// | group            | `a`     | `b`     | `c`   | `imm`      | `aux`      |
/// |------------------|---------|---------|-------|------------|------------|
/// | `ALU_RR`/`CMP_RR`| rd      | rs1     | rs2   | —          | —          |
/// | `ALU_RI`/`CMP_RI`| rd      | rs1     | —     | imm        | —          |
/// | `NEG`/`INV`/`MV` | rd      | rs      | —     | —          | —          |
/// | `MOVI`           | rd      | —       | —     | imm        | —          |
/// | `LD_*`           | rd      | base    | —     | disp       | —          |
/// | `LD_ABS`         | rd      | —       | —     | addr       | —          |
/// | `ST_*`           | rs      | base    | —     | disp       | —          |
/// | `BR`             | —       | —       | —     | target     | —          |
/// | `BC_Z`/`BC_NZ`   | rs      | —       | —     | taken      | fall       |
/// | `JR`             | target  | —       | —     | —          | —          |
/// | `JC_Z`/`JC_NZ`   | rs      | target  | —     | —          | fall       |
/// | `JL`             | target  | link    | —     | link_val   | —          |
/// | `JAL`            | link    | —       | —     | target     | link_val   |
#[derive(Copy, Clone, Debug)]
pub(crate) struct XStep {
    pub code: u8,
    pub a: u8,
    pub b: u8,
    pub c: u8,
    pub imm: u32,
    pub aux: u32,
    /// See [`Step::stall`]; read only on the cold bail path, and only
    /// meaningful on the static timing path (saturated on encode — a
    /// dynamic-timing block never reads it).
    pub stall: u8,
    /// See [`Step::cum`]; `2 * MAX_BLOCK_LEN` fits a byte on the static
    /// timing path (stalls there are one cycle each), which is the only
    /// path that reads it. Saturated on encode like `stall`.
    pub cum: u8,
    /// See [`Step::len`]: the step's fetch size and PC advance.
    pub len: u8,
}

const _: () = assert!(2 * MAX_BLOCK_LEN <= u8::MAX as usize);

/// Packs one analyzed [`Step`] into its execution form.
fn encode(s: &Step) -> XStep {
    let mut x = XStep {
        code: opc::NOP,
        a: 0,
        b: 0,
        c: 0,
        imm: 0,
        aux: 0,
        stall: s.stall.min(u32::from(u8::MAX)) as u8,
        cum: s.cum.min(u32::from(u8::MAX)) as u8,
        len: s.len,
    };
    match s.uop {
        Uop::Alu { op, rd, rs1, rs2 } => {
            x.code = opc::ALU_RR + alu_sel(op);
            (x.a, x.b, x.c) = (rd, rs1, rs2);
        }
        Uop::AluI { op, rd, rs1, imm } => {
            x.code = opc::ALU_RI + alu_sel(op);
            (x.a, x.b, x.imm) = (rd, rs1, imm);
        }
        Uop::Un { op, rd, rs } => {
            x.code = match op {
                UnOp::Neg => opc::NEG,
                UnOp::Inv => opc::INV,
                UnOp::Mv => opc::MV,
            };
            (x.a, x.b) = (rd, rs);
        }
        Uop::MovImm { rd, imm } => {
            x.code = opc::MOVI;
            (x.a, x.imm) = (rd, imm);
        }
        Uop::Cmp { cond, rd, rs1, rs2 } => {
            x.code = opc::CMP_RR + cond_sel(cond);
            (x.a, x.b, x.c) = (rd, rs1, rs2);
        }
        Uop::CmpI { cond, rd, rs1, imm } => {
            x.code = opc::CMP_RI + cond_sel(cond);
            (x.a, x.b, x.imm) = (rd, rs1, imm);
        }
        Uop::Ld { w, rd, base, disp } => {
            x.code = match w {
                MemWidth::B => opc::LD_B,
                MemWidth::Bu => opc::LD_BU,
                MemWidth::H => opc::LD_H,
                MemWidth::Hu => opc::LD_HU,
                MemWidth::W => opc::LD_W,
            };
            (x.a, x.b, x.imm) = (rd, base, disp);
        }
        Uop::LdAbs { rd, addr } => {
            x.code = opc::LD_ABS;
            (x.a, x.imm) = (rd, addr);
        }
        Uop::St { w, rs, base, disp } => {
            // Unsigned widths store the same bits as signed ones.
            x.code = match w {
                MemWidth::B | MemWidth::Bu => opc::ST_B,
                MemWidth::H | MemWidth::Hu => opc::ST_H,
                MemWidth::W => opc::ST_W,
            };
            (x.a, x.b, x.imm) = (rs, base, disp);
        }
        Uop::Br { target } => {
            x.code = opc::BR;
            x.imm = target;
        }
        Uop::Bc { neg, rs, taken, fall } => {
            x.code = if neg { opc::BC_NZ } else { opc::BC_Z };
            (x.a, x.imm, x.aux) = (rs, taken, fall);
        }
        Uop::Jr { target } => {
            x.code = opc::JR;
            x.a = target;
        }
        Uop::Jc { neg, rs, target, fall } => {
            x.code = if neg { opc::JC_NZ } else { opc::JC_Z };
            (x.a, x.b, x.aux) = (rs, target, fall);
        }
        Uop::Jl { target, link, link_val } => {
            x.code = opc::JL;
            (x.a, x.b, x.imm) = (target, link, link_val);
        }
        Uop::Jal { target, link, link_val } => {
            x.code = opc::JAL;
            (x.a, x.imm, x.aux) = (link, target, link_val);
        }
        Uop::Nop => x.code = opc::NOP,
    }
    x
}

/// How control leaves a completed block.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum BlockExit {
    /// No control transfer: the next PC is the instruction after the
    /// block.
    FallThrough,
    /// The block ends with a control micro-op whose delay slot was not
    /// lowerable: the machine's `pending_target` is left set and the
    /// delay-slot instruction executes through the interpreter.
    PendingAtEnd,
    /// The block ends with a control micro-op followed by its lowered
    /// delay slot: the next PC is the pending target.
    TakePending,
}

/// Statically known accounting for a run of micro-ops: the per-class
/// instruction counts the interpreter bumps one at a time, pre-summed so
/// the engine adds them per block (or per bailed-out prefix) instead.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct Tally {
    /// `stage.ex.alu` instructions.
    pub ex_alu: u64,
    /// Control transfers (0 or 1 per block; always last, or before the
    /// delay slot).
    pub ex_control: u64,
    /// Explicit nops.
    pub ex_nop: u64,
    /// Loads (`Ld` + `LdAbs`).
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Integer writebacks (`stage.wb.gpr`), discarded DLXe `r0` writes
    /// included.
    pub wb_gpr: u64,
    /// Control transfers that are statically taken (`Br`/`Jr`/`Jl`/`Jal`).
    pub static_taken: u64,
}

/// Classifies `steps` the way [`crate::Machine::step`] classifies
/// instructions, summed.
pub(crate) fn tally(steps: &[Step]) -> Tally {
    let mut t = Tally::default();
    for s in steps {
        match s.uop {
            Uop::Alu { .. }
            | Uop::AluI { .. }
            | Uop::Un { .. }
            | Uop::MovImm { .. }
            | Uop::Cmp { .. }
            | Uop::CmpI { .. } => {
                t.ex_alu += 1;
                t.wb_gpr += 1;
            }
            Uop::Ld { .. } | Uop::LdAbs { .. } => {
                t.loads += 1;
                t.wb_gpr += 1;
            }
            Uop::St { .. } => t.stores += 1,
            Uop::Br { .. } | Uop::Jr { .. } => {
                t.ex_control += 1;
                t.static_taken += 1;
            }
            Uop::Jl { .. } | Uop::Jal { .. } => {
                t.ex_control += 1;
                t.static_taken += 1;
                t.wb_gpr += 1;
            }
            Uop::Bc { .. } | Uop::Jc { .. } => t.ex_control += 1,
            Uop::Nop => t.ex_nop += 1,
        }
    }
    t
}

/// [`tally`] over the packed execution form, for the bail path (which
/// only has the block's [`XStep`]s). The opcode space is laid out in
/// class-contiguous ranges so this stays a handful of range tests;
/// `lower_block` debug-asserts it agrees with [`tally`] on every block.
pub(crate) fn xtally(steps: &[XStep]) -> Tally {
    let mut t = Tally::default();
    for s in steps {
        match s.code {
            opc::ALU_RR..=opc::MOVI => {
                t.ex_alu += 1;
                t.wb_gpr += 1;
            }
            opc::LD_B..=opc::LD_ABS => {
                t.loads += 1;
                t.wb_gpr += 1;
            }
            opc::ST_B..=opc::ST_W => t.stores += 1,
            opc::BR | opc::JR => {
                t.ex_control += 1;
                t.static_taken += 1;
            }
            opc::JL | opc::JAL => {
                t.ex_control += 1;
                t.static_taken += 1;
                t.wb_gpr += 1;
            }
            opc::BC_Z | opc::BC_NZ | opc::JC_Z | opc::JC_NZ => t.ex_control += 1,
            _ => t.ex_nop += 1,
        }
    }
    t
}

/// Kind tags for D16x macro-op pairs in [`Block::head_fuse`] and
/// [`Block::fuse_pairs`]: compare → dependent branch.
pub(crate) const FUSE_CMP_BR: u8 = 0;
/// `mvhi` → dependent `ori`/`addi`.
pub(crate) const FUSE_LUI_ADDI: u8 = 1;

/// The B-shape of an instruction as the (kind, register) a prior A-half
/// must present to fuse with it — the head-of-block dual of
/// [`fuse_b_matches`], classified on the raw instruction because `Lui`
/// and `Mvi` are indistinguishable once lowered (both become `MovImm`).
fn head_shape(insn: &Insn) -> Option<(u8, u8)> {
    match *insn {
        Insn::Bc { rs, .. } => Some((FUSE_CMP_BR, rs.index() as u8)),
        Insn::AluI { op: AluOp::Or | AluOp::Add, rd, rs1, .. } if rd == rs1 => {
            Some((FUSE_LUI_ADDI, rd.index() as u8))
        }
        _ => None,
    }
}

/// A lowered basic block plus everything about its execution that is
/// known statically, pre-aggregated for batched accounting.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// PC of the first instruction.
    pub start_pc: u32,
    /// PC of the last instruction: with `start_pc` and the step widths,
    /// the block's fetch run ([`crate::AccessSink::fetch_run`]).
    pub last_pc: u32,
    /// The packed micro-ops, in program order: one per instruction.
    pub steps: Box<[XStep]>,
    pub exit: BlockExit,
    /// Mapped source slots of the first micro-op, for the one dynamic
    /// interlock check a block needs ([`ZERO_REG`] when absent).
    pub first_srcs: [u8; 2],
    /// Per-class totals for a completed block.
    pub totals: Tally,
    /// Total cycles for a completed block before the dynamic first-step
    /// stall: `steps.last().cum` (instruction issues plus static stalls).
    /// Trusted only on the static timing path (see [`Step`]).
    pub cycles: u64,
    /// Number of static ([`Step::stall`]) interlock *events* in the
    /// block. Static-path only, like [`Block::cycles`].
    pub static_stalls: u64,
    /// Static interlock *cycles* in the block (equals
    /// [`Block::static_stalls`] at the default spec, where every static
    /// stall is one cycle). Static-path only.
    pub static_stall_cycles: u64,
    /// Fetch-unit transitions after the first instruction, at the active
    /// spec's fetch width: the block's fetch count minus the dynamic
    /// first-unit term.
    pub words_after_first: u64,
    /// Fetch unit of the first instruction (spec's fetch width).
    pub first_word: u32,
    /// Fetch unit of the last byte of the last instruction.
    pub last_word: u32,
    /// D16x: the (kind, register) a *prior* retired A-half must present
    /// for the block's first instruction to complete a fused pair (see
    /// [`head_shape`]); checked dynamically against the machine's fusion
    /// state at dispatch. Always `None` outside D16x.
    pub head_fuse: Option<(u8, u8)>,
    /// D16x: the machine's fusion state after the whole block retires —
    /// the last instruction's A-shape keyed by its successor PC.
    pub exit_fuse: Option<(u32, FuseA)>,
    /// D16x: internal fused pairs as (step index of the B-half,
    /// kind), for prefix counting on the bail path.
    pub fuse_pairs: Box<[(u32, u8)]>,
    /// Internal compare→branch pairs (head pair excluded).
    pub fused_cmp_br: u64,
    /// Internal `mvhi`→`ori`/`addi` pairs (head pair excluded).
    pub fused_lui_addi: u64,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.steps.len()
    }
}

/// The GPR the micro-op writes with *load* timing, if any — the only
/// writes whose ready times the engine must track (everything else is
/// forwarded by issue time).
fn load_dest(u: &Uop) -> Option<u8> {
    match *u {
        Uop::Ld { rd, .. } | Uop::LdAbs { rd, .. } => Some(rd),
        _ => None,
    }
}

/// The GPR slot the micro-op writes with *forwarded* (non-load) timing,
/// if any: ready at issue time, exactly like the interpreter's
/// `write_int`. The lowering-time scoreboard needs these to clear
/// pending load-ready times a later micro-op overwrites — invisible at
/// the default load-use distance of one, load-bearing above it.
fn write_dest(u: &Uop) -> Option<u8> {
    match *u {
        Uop::Alu { rd, .. }
        | Uop::AluI { rd, .. }
        | Uop::Un { rd, .. }
        | Uop::MovImm { rd, .. }
        | Uop::Cmp { rd, .. }
        | Uop::CmpI { rd, .. } => Some(rd),
        Uop::Jl { link, .. } | Uop::Jal { link, .. } => Some(link),
        _ => None,
    }
}

/// Mapped source slots of a micro-op, mirroring [`Insn::use_gprs`] over
/// the lowered set ([`ZERO_REG`] pads absent operands).
fn uop_srcs(u: &Uop) -> [u8; 2] {
    match *u {
        Uop::Alu { rs1, rs2, .. } | Uop::Cmp { rs1, rs2, .. } => [rs1, rs2],
        Uop::AluI { rs1, .. } | Uop::CmpI { rs1, .. } => [rs1, ZERO_REG],
        Uop::Un { rs, .. } => [rs, ZERO_REG],
        Uop::Ld { base, .. } => [base, ZERO_REG],
        Uop::St { rs, base, .. } => [rs, base],
        Uop::Bc { rs, .. } => [rs, ZERO_REG],
        Uop::Jr { target } | Uop::Jl { target, .. } => [target, ZERO_REG],
        Uop::Jc { rs, target, .. } => [rs, target],
        Uop::MovImm { .. } | Uop::LdAbs { .. } | Uop::Br { .. } | Uop::Jal { .. } | Uop::Nop => {
            [ZERO_REG; 2]
        }
    }
}

/// Mapped source slots of a *packed* step, for the dynamic-timing path's
/// per-step interlock check ([`ZERO_REG`] pads absent operands). Mirrors
/// [`uop_srcs`] over the [`XStep`] operand layout.
pub(crate) fn xstep_srcs(x: &XStep) -> [u8; 2] {
    match x.code {
        opc::ALU_RR..=opc::SHRA_RR | opc::CMP_RR..=opc::GEU_RR => [x.b, x.c],
        opc::ALU_RI..=opc::SHRA_RI
        | opc::CMP_RI..=opc::GEU_RI
        | opc::NEG
        | opc::INV
        | opc::MV
        | opc::LD_B..=opc::LD_W => [x.b, ZERO_REG],
        opc::ST_B..=opc::ST_W | opc::JC_Z | opc::JC_NZ => [x.a, x.b],
        opc::BC_Z | opc::BC_NZ | opc::JR | opc::JL => [x.a, ZERO_REG],
        _ => [ZERO_REG; 2],
    }
}

/// Whether the micro-op is a control transfer (sets the pending target).
fn is_control(u: &Uop) -> bool {
    matches!(
        u,
        Uop::Br { .. }
            | Uop::Bc { .. }
            | Uop::Jr { .. }
            | Uop::Jc { .. }
            | Uop::Jl { .. }
            | Uop::Jal { .. }
    )
}

/// Lowers one instruction, or `None` if it is outside the hot set (FPU,
/// traps, and — as a lowering-time fault check — an `ldc` whose static
/// literal address would fault). `len` is the instruction's byte length;
/// fall-through and link addresses skip the *delay slot's* length too,
/// via [`Machine::next_len`], exactly as the interpreter computes them.
fn lower_insn(m: &Machine, pc: u32, len: u32, insn: &Insn) -> Option<Uop> {
    let isa = m.isa;
    let after_slot = |m: &Machine| pc + len + m.next_len(pc + len);
    let dlxe = isa == Isa::Dlxe;
    let src = |r: Gpr| -> u8 {
        if dlxe && r.index() == 0 {
            ZERO_REG
        } else {
            r.index() as u8
        }
    };
    let dst = |r: Gpr| -> u8 {
        if dlxe && r.index() == 0 {
            SCRATCH_REG
        } else {
            r.index() as u8
        }
    };
    Some(match *insn {
        Insn::Alu { op, rd, rs1, rs2 } => {
            Uop::Alu { op, rd: dst(rd), rs1: src(rs1), rs2: src(rs2) }
        }
        Insn::AluI { op, rd, rs1, imm } => {
            Uop::AluI { op, rd: dst(rd), rs1: src(rs1), imm: imm as u32 }
        }
        Insn::Un { op, rd, rs } => Uop::Un { op, rd: dst(rd), rs: src(rs) },
        Insn::Mvi { rd, imm } => Uop::MovImm { rd: dst(rd), imm: imm as u32 },
        Insn::Lui { rd, imm } => Uop::MovImm { rd: dst(rd), imm: imm << 16 },
        Insn::Cmp { cond, rd, rs1, rs2 } => {
            Uop::Cmp { cond, rd: dst(rd), rs1: src(rs1), rs2: src(rs2) }
        }
        Insn::CmpI { cond, rd, rs1, imm } => {
            Uop::CmpI { cond, rd: dst(rd), rs1: src(rs1), imm: imm as u32 }
        }
        Insn::Ld { w, rd, base, disp } => {
            Uop::Ld { w, rd: dst(rd), base: src(base), disp: disp as u32 }
        }
        Insn::Ldc { rd, disp } => {
            let addr = ((pc + 2 + 3) & !3).wrapping_add(disp as u32);
            // Pre-validate: a faulting literal load is left to the
            // interpreter (ends the block), so `LdAbs` cannot fault.
            if addr as u64 + 4 > m.mem.len() as u64 || !addr.is_multiple_of(4) {
                return None;
            }
            Uop::LdAbs { rd: dst(rd), addr }
        }
        Insn::St { w, rs, base, disp } => {
            Uop::St { w, rs: src(rs), base: src(base), disp: disp as u32 }
        }
        Insn::Br { disp } => Uop::Br { target: add_disp(pc + len, disp) },
        Insn::Bc { neg, rs, disp } => {
            Uop::Bc { neg, rs: src(rs), taken: add_disp(pc + len, disp), fall: after_slot(m) }
        }
        Insn::J { target } => Uop::Jr { target: src(target) },
        Insn::Jc { neg, rs, target } => {
            Uop::Jc { neg, rs: src(rs), target: src(target), fall: after_slot(m) }
        }
        Insn::Jl { target } => {
            Uop::Jl { target: src(target), link: dst(isa.link_reg()), link_val: after_slot(m) }
        }
        Insn::Jdisp { link: false, disp } => Uop::Br { target: add_disp(pc + len, disp) },
        Insn::Jdisp { link: true, disp } => Uop::Jal {
            target: add_disp(pc + len, disp),
            link: dst(isa.link_reg()),
            link_val: after_slot(m),
        },
        Insn::Nop => Uop::Nop,
        // The cold set: FPU, transfers, status reads, and traps keep
        // their interpreter semantics (latency model, console, halt).
        Insn::FAlu { .. }
        | Insn::FNeg { .. }
        | Insn::FCmp { .. }
        | Insn::Cvt { .. }
        | Insn::Mtf { .. }
        | Insn::Mff { .. }
        | Insn::Rdsr { .. }
        | Insn::Trap { .. } => return None,
    })
}

fn add_disp(base: u32, disp: i32) -> u32 {
    base.wrapping_add(disp as u32)
}

/// Discovers and lowers the block starting at `start_pc`, which must be
/// a valid, aligned text address. Returns `None` when not even the first
/// instruction is lowerable (the engine then marks the slot so the
/// interpreter handles that PC permanently).
pub(crate) fn lower_block(m: &Machine, start_pc: u32) -> Option<Block> {
    let unit = m.isa.insn_bytes();
    let mut steps: Vec<Step> = Vec::new();
    // Source PC, byte length, and raw instruction of every step: the
    // fetch-word walk needs the real byte extents, and the D16x fusion
    // scan must classify *instructions* (see [`head_shape`]).
    let mut metas: Vec<(u32, u32, Insn)> = Vec::new();
    let mut exit = BlockExit::FallThrough;
    let mut pc = start_pc;
    while steps.len() < MAX_BLOCK_LEN && pc < m.text_end {
        let idx = ((pc - m.text_base) / unit) as usize;
        // An undecodable word ends the block; `step()` raises the fault.
        let Some((insn, len)) = m.decoded[idx] else { break };
        let len = u32::from(len);
        let Some(uop) = lower_insn(m, pc, len, &insn) else { break };
        let control = is_control(&uop);
        steps.push(Step { uop, stall: 0, cum: 0, len: len as u8 });
        metas.push((pc, len, insn));
        pc += len;
        if control {
            // Lower the delay slot too when possible; a control transfer
            // or non-lowerable instruction there is the interpreter's
            // business (including the ControlInDelaySlot fault).
            exit = BlockExit::PendingAtEnd;
            if pc < m.text_end {
                let didx = ((pc - m.text_base) / unit) as usize;
                if let Some((dinsn, dlen)) = m.decoded[didx] {
                    let dlen = u32::from(dlen);
                    if let Some(duop) = lower_insn(m, pc, dlen, &dinsn) {
                        if !is_control(&duop) {
                            steps.push(Step { uop: duop, stall: 0, cum: 0, len: dlen as u8 });
                            metas.push((pc, dlen, dinsn));
                            exit = BlockExit::TakePending;
                        }
                    }
                }
            }
            break;
        }
    }
    if steps.is_empty() {
        return None;
    }

    // D16x macro-op fusion, resolved statically over the block body. In
    // straight-line code the dynamic pairing rule (B retires right after
    // A, at A's successor address) degenerates to adjacency, so internal
    // pairs are a pure scan; only the pair split across the block's entry
    // edge stays dynamic (`head_fuse` against the machine's state), and
    // `exit_fuse` is what the block leaves behind for the next one.
    let mut head_fuse = None;
    let mut exit_fuse = None;
    let mut fuse_pairs: Vec<(u32, u8)> = Vec::new();
    let (mut fused_cmp_br, mut fused_lui_addi) = (0u64, 0u64);
    if m.isa == Isa::D16x {
        head_fuse = head_shape(&metas[0].2);
        for i in 1..metas.len() {
            if let Some(shape) = fuse_a_shape(&metas[i - 1].2) {
                if fuse_b_matches(shape, &metas[i].2) {
                    let kind = match shape {
                        FuseA::Cmp(_) => FUSE_CMP_BR,
                        FuseA::Lui(_) => FUSE_LUI_ADDI,
                    };
                    match shape {
                        FuseA::Cmp(_) => fused_cmp_br += 1,
                        FuseA::Lui(_) => fused_lui_addi += 1,
                    }
                    fuse_pairs.push((i as u32, kind));
                }
            }
        }
        let (lpc, llen, ref last) = metas[metas.len() - 1];
        exit_fuse = fuse_a_shape(last).map(|a| (lpc + llen, a));
    }

    // Static load-use interlocks: a lowering-time scoreboard replay of
    // the interpreter's issue rule over the block body, ready times
    // relative to block entry, at the active spec's load-use distance.
    // At the default distance of one this reduces exactly to the classic
    // rule — only a load's destination read by the immediately following
    // micro-op stalls, for exactly one cycle (see [`Step`] for why the
    // schedule is only trusted at the default spec).
    let ldelay = m.pspec.load_delay();
    let mut ready = [0u64; 64];
    let mut t = 0u64;
    let mut static_stalls = 0u64;
    let mut static_stall_cycles = 0u64;
    for s in &mut steps {
        let srcs = uop_srcs(&s.uop);
        let need = ready[srcs[0] as usize].max(ready[srcs[1] as usize]);
        let stall = need.saturating_sub(t);
        static_stalls += u64::from(stall > 0);
        static_stall_cycles += stall;
        t += stall + 1;
        s.stall = stall as u32;
        s.cum = t as u32;
        if let Some(d) = load_dest(&s.uop) {
            ready[d as usize] = t + ldelay;
        } else if let Some(d) = write_dest(&s.uop) {
            ready[d as usize] = t;
        }
    }

    let packed: Vec<XStep> = steps.iter().map(encode).collect();
    debug_assert_eq!(tally(&steps), xtally(&packed), "opcode classification drifted");
    let fmask = m.pspec.fetch_mask();
    let mut b = Block {
        start_pc,
        last_pc: metas[metas.len() - 1].0,
        exit,
        first_srcs: uop_srcs(&steps[0].uop),
        totals: tally(&steps),
        cycles: t,
        static_stalls,
        static_stall_cycles,
        steps: packed.into_boxed_slice(),
        words_after_first: 0,
        first_word: start_pc & fmask,
        last_word: 0,
        head_fuse,
        exit_fuse,
        fuse_pairs: fuse_pairs.into_boxed_slice(),
        fused_cmp_br,
        fused_lui_addi,
    };
    // Fetch-unit transitions at the spec's fetch width, mirroring the
    // interpreter's two-unit rule: each instruction moves the buffer to
    // its first unit, then to the unit holding its last byte (an
    // instruction straddling a unit boundary). The first instruction's
    // *entry* transition is the dynamic term the engine adds at dispatch;
    // its straddle is static and counted here.
    let mut prev_word = b.first_word;
    for &(mpc, mlen, _) in &metas {
        let w0 = mpc & fmask;
        if w0 != prev_word {
            b.words_after_first += 1;
            prev_word = w0;
        }
        let w1 = (mpc + mlen - 1) & fmask;
        if w1 != prev_word {
            b.words_after_first += 1;
            prev_word = w1;
        }
    }
    b.last_word = prev_word;
    Some(b)
}
