//! The differential oracles.
//!
//! For each program, four independent checks:
//!
//! 1. **Reference agreement** — the exit status on every target at every
//!    opt level must equal the reference interpreter's value.
//! 2. **Cross-target agreement** — implied by (1), but reported
//!    distinctly: two targets disagreeing with each other is a stronger
//!    signal than both disagreeing with the interpreter (which could be
//!    an interpreter bug).
//! 3. **Encoding round-trip** — every instruction word in every compiled
//!    image must decode and re-encode byte-identically (D16) or to a
//!    stable canonical form (DLXe). This re-checks the exhaustive
//!    `isa`-level property on exactly the words real codegen emits.
//! 4. **Engine agreement** — the block-caching execution engine and the
//!    per-instruction interpreter must agree on the stop result, the
//!    pipeline statistics, and an order-sensitive checksum of the entire
//!    access stream, on every image the other oracles compile. Generated
//!    programs reach block shapes (computed branches, tight self-loops,
//!    faults) the curated suite never produces.

use crate::ast::Prog;
use crate::interp;
use d16_cc::{compile_to_image_with, BuildError, OptLevel, TargetSpec};
use d16_sim::{
    ChecksumSink, Engine, Machine, PipelineSpec, Predictor, StopReason, FETCH_WIDTHS,
    PIPELINE_DEPTHS,
};

/// Simulator fuel per run — orders of magnitude above what the
/// generator's cost model permits, so exhaustion means a codegen bug that
/// turned a terminating program into a non-terminating one.
pub const SIM_FUEL: u64 = 100_000_000;

/// The extra pipeline configuration oracle 4 re-checks for a case seed.
///
/// Decorrelated seed bits pick depth, predictor, and fetch width, so a
/// budget run walks the whole depth × predictor × width grid while any
/// failing case replays its exact configuration from the seed alone.
#[must_use]
pub fn pipeline_spec_for(seed: u64) -> PipelineSpec {
    PipelineSpec {
        depth: PIPELINE_DEPTHS[(seed % PIPELINE_DEPTHS.len() as u64) as usize],
        predictor: Predictor::ALL[((seed >> 8) % Predictor::ALL.len() as u64) as usize],
        fetch_width_halfwords: FETCH_WIDTHS[((seed >> 16) % FETCH_WIDTHS.len() as u64) as usize],
    }
}

/// The targets × opt levels every program runs on.
pub fn grid() -> Vec<(TargetSpec, OptLevel)> {
    let mut g = Vec::new();
    for spec in d16_core::standard_specs() {
        for opt in [OptLevel::O0, OptLevel::O2] {
            g.push((spec.clone(), opt));
        }
    }
    g
}

/// One oracle violation.
#[derive(Clone, Debug)]
pub enum Divergence {
    /// A target's exit status disagrees with the reference interpreter.
    WrongValue {
        /// Target label.
        target: String,
        /// Opt level.
        opt: OptLevel,
        /// What the machine returned.
        got: i32,
        /// What the interpreter computed.
        want: i32,
    },
    /// The program failed to compile on one target (the generator only
    /// emits valid Mini-C, so this is a compiler defect).
    Build {
        /// Target label.
        target: String,
        /// Opt level.
        opt: OptLevel,
        /// The error rendered.
        error: String,
    },
    /// The machine did not halt (ran out of fuel or trapped).
    BadStop {
        /// Target label.
        target: String,
        /// Opt level.
        opt: OptLevel,
        /// Description of the stop.
        stop: String,
    },
    /// An instruction word in the compiled image failed the
    /// decode/re-encode round-trip.
    Encoding {
        /// Target label.
        target: String,
        /// Opt level.
        opt: OptLevel,
        /// Byte offset in the text segment.
        offset: usize,
        /// Description.
        detail: String,
    },
    /// The two execution engines disagreed on the same image: stop
    /// result, pipeline statistics, or the access-stream checksum.
    EngineMismatch {
        /// Target label.
        target: String,
        /// Opt level.
        opt: OptLevel,
        /// Which observable diverged, with both sides rendered.
        detail: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::WrongValue { target, opt, got, want } => {
                write!(f, "[{target} {opt:?}] exit {got}, reference {want}")
            }
            Divergence::Build { target, opt, error } => {
                write!(f, "[{target} {opt:?}] build failed: {error}")
            }
            Divergence::BadStop { target, opt, stop } => {
                write!(f, "[{target} {opt:?}] did not halt: {stop}")
            }
            Divergence::Encoding { target, opt, offset, detail } => {
                write!(f, "[{target} {opt:?}] encoding roundtrip at text+{offset:#x}: {detail}")
            }
            Divergence::EngineMismatch { target, opt, detail } => {
                write!(f, "[{target} {opt:?}] engines disagree: {detail}")
            }
        }
    }
}

/// Outcome of checking one program.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// All oracles agree everywhere.
    Ok,
    /// The program exceeded a static encoding limit (branch reach,
    /// literal-pool displacement) the compiler does not relax; not a
    /// correctness bug. The generator's budgets make this rare.
    TooLarge(String),
    /// An oracle violation, with the source that triggered it.
    Diverged(Box<Divergence>),
}

/// Runs all oracles on a program's source text against a reference value,
/// at the default pipeline configuration.
pub fn check_source(src: &str, reference: i32) -> Outcome {
    check_source_at(src, reference, PipelineSpec::default())
}

/// Runs all oracles on a program's source text against a reference value.
///
/// The engine-agreement oracle always runs at the default pipeline spec
/// (the byte-for-byte historical contract); when `pspec` is non-default
/// it runs a second time at that configuration, which exercises the
/// BlockEngine's dynamic-timing flavor — runtime scoreboard, predictor
/// and misfetch accounting — a code path the default-spec comparison
/// never reaches.
pub fn check_source_at(src: &str, reference: i32, pspec: PipelineSpec) -> Outcome {
    for (spec, opt) in grid() {
        let image = match compile_to_image_with(&[src], &spec, opt) {
            Ok(i) => i,
            Err(BuildError::Assemble(e, _)) if is_size_limit(&e.to_string()) => {
                return Outcome::TooLarge(e.to_string());
            }
            Err(e) => {
                return Outcome::Diverged(Box::new(Divergence::Build {
                    target: spec.label(),
                    opt,
                    error: e.to_string(),
                }));
            }
        };
        if let Some(d) = encoding_roundtrip(&spec, opt, &image.text) {
            return Outcome::Diverged(Box::new(d));
        }
        // Oracle 4: run the image under both execution engines and demand
        // identical observable behavior before trusting either for the
        // reference comparison. Stop results are compared through Debug
        // (a SimError's rendered position is part of the contract), the
        // access streams through an order-sensitive checksum.
        let mut m = Machine::load(&image);
        let mut interp_sink = ChecksumSink::default();
        let interp_run = m.run_with(Engine::Interp, SIM_FUEL, &mut interp_sink);
        let mut mb = Machine::load(&image);
        let mut blocks_sink = ChecksumSink::default();
        let blocks_run = mb.run_with(Engine::Blocks, SIM_FUEL, &mut blocks_sink);
        let mismatch = if format!("{interp_run:?}") != format!("{blocks_run:?}") {
            Some(format!("stop: interp {interp_run:?}, blocks {blocks_run:?}"))
        } else if m.stats() != mb.stats() {
            Some(format!("stats: interp {:?}, blocks {:?}", m.stats(), mb.stats()))
        } else if (interp_sink.count(), interp_sink.digest())
            != (blocks_sink.count(), blocks_sink.digest())
        {
            Some(format!(
                "access stream: interp {} accesses digest {:#018x}, blocks {} accesses digest {:#018x}",
                interp_sink.count(),
                interp_sink.digest(),
                blocks_sink.count(),
                blocks_sink.digest()
            ))
        } else {
            None
        };
        if let Some(detail) = mismatch {
            return Outcome::Diverged(Box::new(Divergence::EngineMismatch {
                target: spec.label(),
                opt,
                detail,
            }));
        }
        if pspec != PipelineSpec::default() {
            if let Some(detail) = engine_mismatch_at(&image, pspec) {
                return Outcome::Diverged(Box::new(Divergence::EngineMismatch {
                    target: spec.label(),
                    opt,
                    detail,
                }));
            }
        }
        match interp_run {
            Ok(StopReason::Halted(v)) => {
                if v != reference {
                    return Outcome::Diverged(Box::new(Divergence::WrongValue {
                        target: spec.label(),
                        opt,
                        got: v,
                        want: reference,
                    }));
                }
            }
            Ok(other) => {
                return Outcome::Diverged(Box::new(Divergence::BadStop {
                    target: spec.label(),
                    opt,
                    stop: format!("{other:?}"),
                }));
            }
            Err(e) => {
                return Outcome::Diverged(Box::new(Divergence::BadStop {
                    target: spec.label(),
                    opt,
                    stop: format!("simulator error: {e} at pc {:#x}", m.pc()),
                }));
            }
        }
    }
    Outcome::Ok
}

/// Runs the image under both engines at `pspec` and renders the first
/// disagreeing observable, or `None` when they agree.
fn engine_mismatch_at(image: &d16_asm::Image, pspec: PipelineSpec) -> Option<String> {
    let mut m = Machine::load(image);
    m.set_pipeline(pspec);
    let mut interp_sink = ChecksumSink::default();
    let interp_run = m.run_with(Engine::Interp, SIM_FUEL, &mut interp_sink);
    let mut mb = Machine::load(image);
    mb.set_pipeline(pspec);
    let mut blocks_sink = ChecksumSink::default();
    let blocks_run = mb.run_with(Engine::Blocks, SIM_FUEL, &mut blocks_sink);
    let at = format!(
        "at depth {} predictor {} fetch {}",
        pspec.depth,
        pspec.predictor.name(),
        pspec.fetch_width_halfwords
    );
    if format!("{interp_run:?}") != format!("{blocks_run:?}") {
        return Some(format!("stop {at}: interp {interp_run:?}, blocks {blocks_run:?}"));
    }
    if m.stats() != mb.stats() {
        return Some(format!("stats {at}: interp {:?}, blocks {:?}", m.stats(), mb.stats()));
    }
    if (interp_sink.count(), interp_sink.digest()) != (blocks_sink.count(), blocks_sink.digest()) {
        return Some(format!(
            "access stream {at}: interp {} accesses digest {:#018x}, blocks {} accesses digest {:#018x}",
            interp_sink.count(),
            interp_sink.digest(),
            blocks_sink.count(),
            blocks_sink.digest()
        ));
    }
    None
}

/// Runs all oracles on a generated program, using the interpreter for the
/// reference value.
pub fn check(prog: &Prog) -> Outcome {
    check_at(prog, PipelineSpec::default())
}

/// [`check`] with an extra engine-agreement pass at `pspec` (see
/// [`check_source_at`]).
pub fn check_at(prog: &Prog, pspec: PipelineSpec) -> Outcome {
    let reference = match interp::run(prog) {
        Ok(v) => v,
        // Fuel exhaustion means the generator's cost model failed, not a
        // compiler bug; treat like an oversized program.
        Err(e) => return Outcome::TooLarge(format!("interpreter: {e:?}")),
    };
    check_source_at(&prog.to_c(), reference, pspec)
}

/// Whether an assembler diagnostic is a static size/reach limit rather
/// than a correctness failure.
fn is_size_limit(msg: &str) -> bool {
    msg.contains("out of range") || msg.contains("does not fit")
}

/// Decode/re-encode every instruction of a DLXe or D16x text segment.
/// D16 images are skipped here: their text interleaves literal-pool
/// *data* words with instructions (`ldc` is PC-relative into text), which
/// cannot be told apart without layout metadata — the D16 word space is
/// instead covered completely by the exhaustive `isa`/`asm` tests. DLXe
/// and D16x materialize constants with `mvhi`/`ori`, so their text is
/// pure instructions; D16x is walked by each instruction's own
/// length-decoded size, which also exercises the `insn_len` boundary rule
/// on exactly the streams real codegen emits.
fn encoding_roundtrip(spec: &TargetSpec, opt: OptLevel, text: &[u8]) -> Option<Divergence> {
    use d16_isa::{d16x, dlxe, Isa};
    match spec.isa {
        Isa::D16 => None,
        Isa::Dlxe => {
            for (k, ch) in text.chunks_exact(4).enumerate() {
                let w = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
                let detail = match dlxe::decode(w) {
                    Ok(insn) => match dlxe::encode(&insn) {
                        // Codegen emits canonical words, so byte identity
                        // holds on real output even though the DLXe
                        // decoder accepts redundant shapes.
                        Ok(w2) if w2 == w => continue,
                        Ok(w2) => format!("{w:#010x} -> {insn:?} -> {w2:#010x}"),
                        Err(e) => format!("{w:#010x} -> {insn:?} re-encode failed: {e}"),
                    },
                    Err(e) => format!("emitted word {w:#010x} does not decode: {e}"),
                };
                return Some(Divergence::Encoding {
                    target: spec.label(),
                    opt,
                    offset: k * 4,
                    detail,
                });
            }
            None
        }
        Isa::D16x => {
            let mut o = 0usize;
            while o + 1 < text.len() {
                let first = u16::from_le_bytes([text[o], text[o + 1]]);
                let len = d16x::insn_len(first) as usize;
                let second = if len == 4 {
                    if o + 3 >= text.len() {
                        return Some(Divergence::Encoding {
                            target: spec.label(),
                            opt,
                            offset: o,
                            detail: format!("escape halfword {first:#06x} truncated at text end"),
                        });
                    }
                    Some(u16::from_le_bytes([text[o + 2], text[o + 3]]))
                } else {
                    None
                };
                let detail = match d16x::decode(first, second) {
                    // The narrow-first encoder plus the canonicality rule
                    // (wide patterns expressible narrow are Illegal) make
                    // decode -> encode the byte identity on legal streams.
                    Ok((insn, dlen)) => match d16x::encode(&insn) {
                        Ok(enc) if enc.len() == dlen && enc.to_bytes() == text[o..o + len] => {
                            o += len;
                            continue;
                        }
                        Ok(enc) => format!("{insn:?} re-encoded to {enc:?}, not the emitted bytes"),
                        Err(e) => format!("{insn:?} re-encode failed: {e}"),
                    },
                    Err(e) => format!("emitted instruction at {first:#06x} does not decode: {e}"),
                };
                return Some(Divergence::Encoding { target: spec.label(), opt, offset: o, detail });
            }
            None
        }
    }
}
