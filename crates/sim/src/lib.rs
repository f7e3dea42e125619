//! # d16-sim — the shared parameterized pipeline
//!
//! Executes linked D16 or DLXe images on the paper's pipeline model
//! (Figure 3): single issue at one instruction per cycle peak, one branch
//! delay slot, one load delay slot, and FPU-latency ("math unit")
//! interlocks. The timing shape is a [`PipelineSpec`] — depth 3..=8, an
//! optional branch predictor, and the fetch-unit width — whose default
//! (depth 5, no predictor, one-word fetch) is exactly the paper's
//! machine, byte for byte. The simulator produces the raw measurements
//! behind every table in the paper — path length, loads/stores,
//! interlock cycles, and fetch-unit-granular instruction fetch traffic —
//! and streams each memory reference to an [`AccessSink`] so the
//! `d16-mem` models can attach cache or fetch-buffer timing. A
//! [`PipelineSweep`] collector scores the whole depth × predictor ×
//! fetch-width grid against one execution.
//!
//! ```
//! use d16_asm::build;
//! use d16_isa::Isa;
//! use d16_sim::{Machine, NullSink};
//!
//! let image = build(Isa::D16, &["
//! _start: mvi r2, 6
//!         mvi r3, 7
//!         add r2, r3      ; two-address: r2 += r3
//!         trap 0
//! "])?;
//! let mut m = Machine::load(&image);
//! let stop = m.run(1_000, &mut NullSink)?;
//! assert_eq!(stop.exit_status(), Some(13));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod access;
mod block;
mod engine;
mod machine;
mod psweep;
mod stats;

pub use access::{Access, AccessSink, ChecksumSink, NullSink, TraceIter, TraceRecorder};
pub use engine::{BlockEngine, Engine, EngineCounter, ENGINE_SCHEMA};
pub use machine::{
    FpuLatency, Machine, PipelineSpec, Predictor, SimError, BP_ENTRIES, FETCH_WIDTHS,
    PIPELINE_DEPTHS,
};
pub use psweep::{PipelineSweep, SweepCell, SweepResult, SWEEP_CELLS};
pub use stats::{ExecStats, SimCounter, StopReason, SIM_SCHEMA};

#[cfg(test)]
mod tests {
    use super::*;
    use d16_asm::build;
    use d16_isa::{Gpr, Isa};

    fn run_prog(isa: Isa, src: &str) -> (Machine, StopReason) {
        let image = build(isa, &[src]).expect("assemble/link");
        let mut m = Machine::load(&image);
        let stop = m.run(1_000_000, &mut NullSink).expect("run");
        (m, stop)
    }

    #[test]
    fn halts_with_exit_status() {
        for isa in Isa::ALL {
            let (_, stop) = run_prog(isa, "_start: mvi r2, 42\ntrap 0\n");
            assert_eq!(stop.exit_status(), Some(42), "{isa}");
        }
    }

    #[test]
    fn loop_counts_path_length() {
        // 10 iterations of a 4-instruction loop (incl. delay slot) plus
        // setup and halt.
        let src = "
_start: mvi r2, 0
        mvi r4, 0           ; explicit zero: D16 r0 is the compare result
        mvi r3, 10
loop:   subi r3, r3, 1
        cmpne r3, r4        ; r0 <- (r3 != 0)
        bnz r0, loop
        addi r2, r2, 1      ; delay slot: runs every iteration
        trap 0
";
        let (m, stop) = run_prog(Isa::D16, src);
        assert_eq!(stop.exit_status(), Some(10));
        // 3 setup + 10*(subi+cmpne+bnz+delay) + trap.
        assert_eq!(m.stats().insns, 3 + 40 + 1);
        assert_eq!(m.stats().branches, 10);
        assert_eq!(m.stats().taken_branches, 9);
    }

    #[test]
    fn branch_delay_slot_always_executes() {
        let src = "
_start: mvi r2, 1
        br over
        addi r2, r2, 10     ; delay slot executes
        addi r2, r2, 20     ; skipped
over:   trap 0
";
        for isa in Isa::ALL {
            let (_, stop) = run_prog(isa, src);
            assert_eq!(stop.exit_status(), Some(11), "{isa}");
        }
    }

    #[test]
    fn untaken_branch_still_has_delay_slot() {
        let src = "
_start: mvi r2, 0
        cmpne r2, r0        ; false
        bnz r0, nowhere
        addi r2, r2, 1      ; delay slot
        addi r2, r2, 2
        trap 0
nowhere: mvi r2, 99
        trap 0
";
        let (m, stop) = run_prog(Isa::D16, src);
        assert_eq!(stop.exit_status(), Some(3));
        assert_eq!(m.stats().taken_branches, 0);
    }

    #[test]
    fn call_and_return_through_link_register() {
        let d16 = "
_start: ldc r9, =double_it
        mvi r2, 21
        jl r9
        nop
        trap 0
double_it:
        add r2, r2
        ret
        nop
";
        let (_, stop) = run_prog(Isa::D16, d16);
        assert_eq!(stop.exit_status(), Some(42));

        let dlxe = "
_start: mvi r2, 21
        jal double_it
        nop
        trap 0
double_it:
        add r2, r2, r2
        ret
        nop
";
        let (_, stop) = run_prog(Isa::Dlxe, dlxe);
        assert_eq!(stop.exit_status(), Some(42));
    }

    #[test]
    fn memory_and_subword_semantics() {
        let src = "
_start: la r9, buf
        li r3, 0x12345678
        st r3, 0(r9)
        ldb r2, (r9)        ; 0x78
        ldbu r4, (r9)
        addi r9, r9, 1      ; D16 subword is not offsettable: bump the base
        ldb r5, (r9)        ; byte 1 is 0x56
        trap 0
        .data
buf:    .word 0
";
        let (m, stop) = run_prog(Isa::D16, src);
        assert_eq!(stop.exit_status(), Some(0x78));
        assert_eq!(m.gpr(Gpr::new(5)), 0x56);
        assert_eq!(m.stats().loads, 5, "ldc + ldc(li) + three byte loads");
        assert_eq!(m.stats().stores, 1);
    }

    #[test]
    fn signed_subword_loads_extend() {
        let src = "
_start: la r9, buf
        ldb r2, 0(r9)
        ldh r3, 0(r9)
        ldhu r4, 0(r9)
        trap 0
        .data
buf:    .word 0xFFFEFDFC
";
        let image = build(Isa::Dlxe, &[src]).unwrap();
        let mut m = Machine::load(&image);
        m.run(100, &mut NullSink).unwrap();
        assert_eq!(m.gpr(Gpr::new(2)), 0xFFFF_FFFC);
        assert_eq!(m.gpr(Gpr::new(3)), 0xFFFF_FDFC);
        assert_eq!(m.gpr(Gpr::new(4)), 0x0000_FDFC);
    }

    #[test]
    fn load_use_interlock_counted() {
        let use_immediately = "
_start: la r9, v
        ld r2, 0(r9)
        addi r2, r2, 1      ; uses r2 in the delay slot -> 1 stall
        trap 0
        .data
v:      .word 5
";
        let scheduled = "
_start: la r9, v
        ld r2, 0(r9)
        nop                 ; delay slot filled with unrelated work
        addi r2, r2, 1
        trap 0
        .data
v:      .word 5
";
        let (m1, s1) = run_prog(Isa::Dlxe, use_immediately);
        let (m2, s2) = run_prog(Isa::Dlxe, scheduled);
        assert_eq!(s1.exit_status(), Some(6));
        assert_eq!(s2.exit_status(), Some(6));
        assert_eq!(m1.stats().load_interlocks, 1);
        assert_eq!(m2.stats().load_interlocks, 0);
    }

    #[test]
    fn d16_ldc_also_has_load_delay() {
        let src = "
_start: ldc r2, =1234
        addi r2, r2, 1
        trap 0
";
        let (m, stop) = run_prog(Isa::D16, src);
        assert_eq!(stop.exit_status(), Some(1235));
        assert_eq!(m.stats().load_interlocks, 1);
    }

    #[test]
    fn fpu_interlocks_scale_with_latency() {
        let src = "
_start: mvi r3, 3
        mtf f2, r3
        si2sf f2, f2
        mvi r4, 4
        mtf f4, r4
        si2sf f4, f4
        mul.sf f2, f2, f4
        mff r2, f2          ; immediately dependent on the multiply
        trap 0
";
        let image = build(Isa::Dlxe, &[src]).unwrap();
        let mut fast = Machine::load(&image);
        fast.set_fpu_latency(FpuLatency { add: 1, mul: 1, div_s: 1, div_d: 1, cvt: 1 });
        fast.run(100, &mut NullSink).unwrap();
        let mut slow = Machine::load(&image);
        slow.set_fpu_latency(FpuLatency { add: 2, mul: 8, div_s: 12, div_d: 19, cvt: 2 });
        slow.run(100, &mut NullSink).unwrap();
        // The two mtf -> cvt transfer hazards stall one cycle each even at
        // unit latency; the multiply adds nothing at latency 1.
        assert_eq!(fast.stats().fpu_interlocks, 2);
        assert!(slow.stats().fpu_interlocks >= 9, "mul latency 8 stalls the mff");
        // Result is 12.0f32.
        assert_eq!(fast.gpr(Gpr::new(2)), 12.0f32.to_bits());
    }

    #[test]
    fn double_precision_arithmetic() {
        // Build 2.5 and 0.5 as doubles via integer conversion and division.
        let src = "
_start: mvi r3, 5
        mtf f2, r3
        si2df f2, f2        ; f2:f3 = 5.0
        mvi r3, 2
        mtf f4, r3
        si2df f4, f4        ; f4:f5 = 2.0
        div.df f2, f2, f4   ; 2.5
        add.df f2, f2, f4   ; 4.5
        df2si f6, f2        ; truncates to 4
        mff r2, f6
        trap 0
";
        let (m, stop) = run_prog(Isa::Dlxe, src);
        assert_eq!(stop.exit_status(), Some(4));
        assert!(m.stats().fpu_interlocks > 0, "dependent FPU chain interlocks");
    }

    #[test]
    fn fp_compare_and_rdsr() {
        let src = "
_start: mvi r3, 1
        mtf f2, r3
        si2sf f2, f2
        mvi r3, 2
        mtf f4, r3
        si2sf f4, f4
        cmplt.sf f2, f4     ; 1.0 < 2.0 -> status 1
        rdsr r2
        trap 0
";
        for isa in Isa::ALL {
            let (_, stop) = run_prog(isa, src);
            assert_eq!(stop.exit_status(), Some(1), "{isa}");
        }
    }

    #[test]
    fn console_traps() {
        let src = "
_start: mvi r2, 'H'
        trap 1
        mvi r2, 'i'
        trap 1
        mvi r2, -42
        trap 2
        mvi r2, 0
        trap 0
";
        let (m, _) = run_prog(Isa::D16, src);
        assert_eq!(m.console_string(), "Hi-42");
    }

    #[test]
    fn ifetch_word_counting_d16_pairs() {
        // Six sequential D16 instructions share three 32-bit words.
        let src = "_start: nop\nnop\nnop\nnop\nmvi r2, 0\ntrap 0\n";
        let (m, _) = run_prog(Isa::D16, src);
        assert_eq!(m.stats().insns, 6);
        assert_eq!(m.stats().ifetch_words, 3);
        let (m, _) = run_prog(Isa::Dlxe, src);
        assert_eq!(m.stats().insns, 6);
        assert_eq!(m.stats().ifetch_words, 6, "each DLXe insn is a full word");
    }

    #[test]
    fn tight_loop_refetches_taken_branch_words() {
        let src = "
_start: mvi r3, 5
loop:   subi r3, r3, 1
        cmpne r3, r0
        bnz r0, loop
        nop
        mvi r2, 0
        trap 0
";
        let (m, _) = run_prog(Isa::D16, src);
        assert!(m.stats().ifetch_words > m.stats().insns / 2, "branches waste buffer slots");
        assert!(m.stats().ifetch_words <= m.stats().insns);
    }

    #[test]
    fn trace_recorder_captures_all_references() {
        let src = "
_start: la r9, v
        ld r2, 0(r9)
        nop
        st r2, 4(r9)
        trap 0
        .data
v:      .word 3, 0
";
        let image = build(Isa::Dlxe, &[src]).unwrap();
        let mut m = Machine::load(&image);
        let mut rec = TraceRecorder::new();
        m.run(100, &mut rec).unwrap();
        let fetches = rec.iter().filter(|a| matches!(a, Access::Fetch(..))).count();
        let reads = rec.iter().filter(|a| matches!(a, Access::Read(..))).count();
        let writes = rec.iter().filter(|a| matches!(a, Access::Write(..))).count();
        assert_eq!(fetches as u64, m.stats().insns);
        assert_eq!(reads as u64, m.stats().loads);
        assert_eq!(writes as u64, m.stats().stores);
    }

    #[test]
    fn store_to_text_is_fatal() {
        let src = "_start: mvi r9, 0\nla r9, _start\nst r9, 0(r9)\ntrap 0\n";
        let image = build(Isa::Dlxe, &[src]).unwrap();
        let mut m = Machine::load(&image);
        let e = m.run(100, &mut NullSink).unwrap_err();
        assert!(matches!(e, SimError::WriteToText { .. }), "{e}");
    }

    #[test]
    fn misaligned_word_access_is_fatal() {
        let src = "_start: la r9, v\naddi r9, r9, 2\nld r2, 0(r9)\ntrap 0\n.data\nv: .word 1\n";
        let image = build(Isa::Dlxe, &[src]).unwrap();
        let mut m = Machine::load(&image);
        let e = m.run(100, &mut NullSink).unwrap_err();
        assert!(matches!(e, SimError::Unaligned { bytes: 4, .. }), "{e}");
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let src = "_start: br _start\nnop\n";
        let image = build(Isa::D16, &[src]).unwrap();
        let mut m = Machine::load(&image);
        let stop = m.run(1000, &mut NullSink).unwrap();
        assert_eq!(stop, StopReason::OutOfFuel);
        assert!(m.stats().insns >= 1000);
    }

    #[test]
    fn dlxe_r0_is_hardwired_zero() {
        let src = "_start: mvi r0, 7\nmv r2, r0\ntrap 0\n";
        let (_, stop) = run_prog(Isa::Dlxe, src);
        assert_eq!(stop.exit_status(), Some(0));
        // ...but D16 r0 is a real register (the compare destination).
        let (_, stop) = run_prog(Isa::D16, src);
        assert_eq!(stop.exit_status(), Some(7));
    }

    #[test]
    fn read_insn_count_trap() {
        let src = "_start: nop\nnop\ntrap 3\nmv r2, r2\ntrap 0\n";
        let (_, stop) = run_prog(Isa::D16, src);
        assert_eq!(stop.exit_status(), Some(3), "count includes the trap itself");
    }

    // --- block engine: observational equivalence -----------------------

    /// A sink that takes fetch runs: it checks each run's ends against
    /// its widths, then records fetches and data references as two
    /// traces, which must equal the interpreter's stream split the same
    /// way.
    #[derive(Default)]
    struct SplitRecorder {
        fetches: TraceRecorder,
        data: TraceRecorder,
    }

    impl AccessSink for SplitRecorder {
        const FETCH_RUNS: bool = true;
        fn fetch(&mut self, addr: u32, bytes: u8) {
            self.fetches.fetch(addr, bytes);
        }
        fn read(&mut self, addr: u32, bytes: u8) {
            self.data.read(addr, bytes);
        }
        fn write(&mut self, addr: u32, bytes: u8) {
            self.data.write(addr, bytes);
        }
        fn fetch_run(
            &mut self,
            first: u32,
            last: u32,
            widths: impl ExactSizeIterator<Item = u8> + Clone,
        ) {
            let ws: Vec<u8> = widths.collect();
            let span: u32 = ws[..ws.len() - 1].iter().map(|&w| u32::from(w)).sum();
            assert_eq!(first + span, last, "a run's last fetch follows from its widths");
            let mut addr = first;
            for w in ws {
                self.fetch(addr, w);
                addr += u32::from(w);
            }
        }
    }

    /// Runs `src` under both engines with the same fuel and asserts every
    /// observable agrees: recorded trace bytes, statistics, telemetry,
    /// console, halt state, and the stop reason or fault. The block
    /// engine runs a second time into a sink that takes fetch runs, whose
    /// fetch and data streams must each equal the interpreter's. Returns
    /// the first block-engine machine for further inspection.
    fn assert_engines_agree(
        isa: Isa,
        src: &str,
        fuel: u64,
    ) -> (Machine, Result<StopReason, SimError>) {
        assert_engines_agree_at(PipelineSpec::default(), isa, src, fuel)
    }

    /// [`assert_engines_agree`] at an explicit pipeline spec — the
    /// non-default specs drive the engine's dynamic timing path.
    fn assert_engines_agree_at(
        spec: PipelineSpec,
        isa: Isa,
        src: &str,
        fuel: u64,
    ) -> (Machine, Result<StopReason, SimError>) {
        let image = build(isa, &[src]).expect("assemble/link");
        let mut mi = Machine::load(&image);
        mi.set_pipeline(spec);
        let mut ti = TraceRecorder::new();
        let ri = mi.run(fuel, &mut ti);
        let mut mb = Machine::load(&image);
        mb.set_pipeline(spec);
        let mut tb = TraceRecorder::new();
        let rb = mb.run_blocks(fuel, &mut tb);
        assert_eq!(ri, rb, "stop/fault disagree ({isa})");
        assert_eq!(ti.len(), tb.len(), "trace length disagrees ({isa})");
        assert_eq!(ti.encoded_bytes(), tb.encoded_bytes(), "trace bytes disagree ({isa})");
        assert_eq!(mi.stats(), mb.stats(), "stats disagree ({isa})");
        assert_eq!(mi.console(), mb.console(), "console disagrees ({isa})");
        assert_eq!(mi.halted(), mb.halted(), "halt state disagrees ({isa})");
        assert_eq!(
            mi.telemetry().values(),
            mb.telemetry().values(),
            "sim telemetry disagrees ({isa})"
        );
        // A faulting step bumps its stage-class counter before the
        // execute stage raises, so reconciliation only holds (for either
        // engine) on clean runs. What matters here is that the engines
        // agree — asserted above — and reconcile identically when the
        // interpreter does.
        if rb.is_ok() {
            mb.stats().reconciles_with(mb.telemetry()).expect("stats reconcile");
        }
        let mut mr = Machine::load(&image);
        mr.set_pipeline(spec);
        let mut split = SplitRecorder::default();
        assert_eq!(mr.run_blocks(fuel, &mut split), ri, "stop/fault disagree with runs ({isa})");
        assert_eq!(mr.stats(), mi.stats(), "stats disagree with runs ({isa})");
        let mut want = SplitRecorder::default();
        ti.replay(&mut want);
        assert_eq!(split.fetches, want.fetches, "fetch stream disagrees with runs ({isa})");
        assert_eq!(split.data, want.data, "data stream disagrees with runs ({isa})");
        (mb, rb)
    }

    /// Every program the interpreter tests above exercise, under both
    /// engines: ALU, branches, calls, memory, subword, FPU fallbacks,
    /// console traps, and D16/DLXe register conventions.
    #[test]
    fn engines_agree_on_interpreter_test_programs() {
        let programs: &[&str] = &[
            "_start: mvi r2, 42\ntrap 0\n",
            "_start: mvi r2, 1\nbr over\naddi r2, r2, 10\naddi r2, r2, 20\nover: trap 0\n",
            "_start: nop\nnop\nnop\nnop\nmvi r2, 0\ntrap 0\n",
            "_start: nop\nnop\ntrap 3\nmv r2, r2\ntrap 0\n",
            "
_start: mvi r3, 1
        mtf f2, r3
        si2sf f2, f2
        mvi r3, 2
        mtf f4, r3
        si2sf f4, f4
        cmplt.sf f2, f4
        rdsr r2
        trap 0
",
        ];
        for isa in Isa::ALL {
            for src in programs {
                let _ = assert_engines_agree(isa, src, 1_000_000);
            }
        }
        let d16_only: &[&str] = &[
            "
_start: mvi r2, 0
        mvi r4, 0
        mvi r3, 10
loop:   subi r3, r3, 1
        cmpne r3, r4
        bnz r0, loop
        addi r2, r2, 1
        trap 0
",
            "_start: ldc r2, =1234\naddi r2, r2, 1\ntrap 0\n",
            "_start: ldc r9, =double_it\nmvi r2, 21\njl r9\nnop\ntrap 0\ndouble_it: add r2, r2\nret\nnop\n",
            "_start: mvi r2, 'H'\ntrap 1\nmvi r2, 'i'\ntrap 1\nmvi r2, -42\ntrap 2\nmvi r2, 0\ntrap 0\n",
        ];
        for src in d16_only {
            let _ = assert_engines_agree(Isa::D16, src, 1_000_000);
        }
        let dlxe_only: &[&str] = &[
            "_start: la r9, v\nld r2, 0(r9)\naddi r2, r2, 1\ntrap 0\n.data\nv: .word 5\n",
            "_start: la r9, v\nld r2, 0(r9)\nnop\naddi r2, r2, 1\ntrap 0\n.data\nv: .word 5\n",
            "_start: la r9, buf\nli r3, 0x12345678\nst r3, 0(r9)\nldb r2, (r9)\ntrap 0\n.data\nbuf: .word 0\n",
            "_start: mvi r0, 7\nmv r2, r0\ntrap 0\n",
            "_start: mvi r2, 21\njal double_it\nnop\ntrap 0\ndouble_it: add r2, r2, r2\nret\nnop\n",
        ];
        for src in dlxe_only {
            let _ = assert_engines_agree(Isa::Dlxe, src, 1_000_000);
        }
    }

    /// Faults must surface at the same instruction with the same error
    /// and identical prefix accounting — the mid-block bail path.
    #[test]
    fn engines_agree_on_faults() {
        // Store into text, mid-block after completed micro-ops.
        let _ = assert_engines_agree(
            Isa::Dlxe,
            "_start: mvi r9, 0\nla r9, _start\nst r9, 0(r9)\ntrap 0\n",
            100,
        );
        // Misaligned load mid-block.
        let _ = assert_engines_agree(
            Isa::Dlxe,
            "_start: la r9, v\naddi r9, r9, 2\nld r2, 0(r9)\ntrap 0\n.data\nv: .word 1\n",
            100,
        );
        // Out-of-bounds store through a computed address.
        let _ = assert_engines_agree(Isa::Dlxe, "_start: mvi r9, -4\nst r9, 0(r9)\ntrap 0\n", 100);
        // PC running off the end of text (no trap).
        let _ = assert_engines_agree(Isa::D16, "_start: mvi r2, 1\nnop\n", 100);
    }

    /// The interpreter stops mid-block when fuel runs out; the engine
    /// must stop at exactly the same instruction with the same stats.
    #[test]
    fn engines_agree_when_fuel_expires_mid_block() {
        let src = "_start: br _start\nnop\n";
        for fuel in [1u64, 2, 3, 7, 1000, 1001] {
            let (m, stop) = assert_engines_agree(Isa::D16, src, fuel);
            assert_eq!(stop, Ok(StopReason::OutOfFuel));
            assert_eq!(m.stats().insns, fuel);
        }
        // A straight-line program cut off mid-way through a long block.
        let long = "_start: mvi r2, 0\nnop\nnop\nnop\nnop\nnop\nnop\nnop\ntrap 0\n";
        for fuel in 1..=9u64 {
            let _ = assert_engines_agree(Isa::D16, long, fuel);
        }
    }

    /// Branching into the middle of an already-cached block must compile
    /// (and cache) a second block at the interior PC, not misuse the
    /// enclosing one.
    #[test]
    fn engines_agree_on_branch_into_middle_of_block() {
        let src = "
_start: mvi r2, 0
        mvi r3, 2
        br mid
        nop
head:   addi r2, r2, 1      ; first entry lowers the block at `head`
mid:    addi r2, r2, 10     ; second entry starts here, inside it
        subi r3, r3, 1
        cmpne r3, r4
        bnz r0, head
        nop
        trap 0
";
        let (m, stop) = assert_engines_agree(Isa::D16, src, 10_000);
        assert_eq!(stop.map(|s| s.exit_status()), Ok(Some(21)));
        if d16_telemetry::ENABLED {
            let eng = m.engine_telemetry().expect("engine ran");
            assert!(
                eng.get(EngineCounter::BlocksCompiled) >= 2,
                "interior entry compiles its own block"
            );
        }
    }

    /// A control transfer whose delay slot does not lower (an FPU
    /// transfer) leaves `pending_target` set for the interpreter; a
    /// control transfer *in* a delay slot is the interpreter's fault to
    /// raise.
    #[test]
    fn engines_agree_on_delay_slot_edges() {
        let _ = assert_engines_agree(
            Isa::Dlxe,
            "_start: mvi r3, 7\nbr over\nmtf f2, r3\nover: mff r2, f2\ntrap 0\n",
            100,
        );
        let _ = assert_engines_agree(
            Isa::D16,
            "_start: br a\nnop\na: br b\nbr a\nb: mvi r2, 0\ntrap 0\n",
            100,
        );
    }

    /// The engine's own counters reconcile with the architectural
    /// statistics, and the cache serves re-entries without recompiling.
    #[test]
    fn engine_counters_reconcile_and_cache_serves_reentries() {
        let src = "
_start: mvi r2, 0
        mvi r4, 0
        mvi r3, 50
loop:   subi r3, r3, 1
        cmpne r3, r4
        bnz r0, loop
        addi r2, r2, 1
        trap 0
";
        let image = build(Isa::D16, &[src]).expect("assemble/link");
        let mut m = Machine::load(&image);
        let stop = m.run_blocks(1_000_000, &mut NullSink).expect("run");
        assert_eq!(stop.exit_status(), Some(50));
        let eng = m.engine.as_ref().expect("engine retained");
        eng.reconciles_with(m.stats()).expect("engine counters reconcile");
        if d16_telemetry::ENABLED {
            let tele = eng.telemetry();
            let hits = tele.get(EngineCounter::CacheHits);
            let misses = tele.get(EngineCounter::CacheMisses);
            assert!(
                hits > misses,
                "a 50-iteration loop is cache-hit dominated ({hits} vs {misses})"
            );
            assert!(
                tele.get(EngineCounter::UopInsns) > tele.get(EngineCounter::FallbackInsns),
                "hot path retires most instructions"
            );
            // A second run on the same machine reuses the cache.
            let compiled = tele.get(EngineCounter::BlocksCompiled);
            let mut m2 = Machine::load(&image);
            m2.engine = m.engine.take();
            m2.run_blocks(1_000_000, &mut NullSink).expect("rerun");
            let tele2 = m2.engine_telemetry().expect("engine retained");
            assert_eq!(
                tele2.get(EngineCounter::BlocksCompiled),
                compiled,
                "second run compiles nothing new"
            );
        }
    }

    /// `run_with` selects engines; a stale engine (different machine
    /// text) is rebuilt, not reused.
    #[test]
    fn run_with_selects_engine_and_stale_cache_is_rebuilt() {
        let a = build(Isa::D16, &["_start: mvi r2, 1\ntrap 0\n"]).expect("assemble");
        let b = build(Isa::D16, &["_start: mvi r2, 2\nnop\ntrap 0\n"]).expect("assemble");
        let mut ma = Machine::load(&a);
        ma.run_with(Engine::Blocks, 100, &mut NullSink).expect("run a");
        let mut mb = Machine::load(&b);
        mb.engine = ma.engine.take(); // transplant a stale cache
        let stop = mb.run_with(Engine::Blocks, 100, &mut NullSink).expect("run b");
        assert_eq!(stop.exit_status(), Some(2), "stale cache must not leak blocks");
        let mut mc = Machine::load(&a);
        let stop = mc.run_with(Engine::Interp, 100, &mut NullSink).expect("interp");
        assert_eq!(stop.exit_status(), Some(1));
        assert!(mc.engine.is_none(), "interp engine builds no cache");
    }

    /// The checksum sink distinguishes streams and agrees across engines.
    #[test]
    fn checksum_sink_digests_access_streams() {
        let image =
            build(Isa::D16, &["_start: ldc r2, =7\naddi r2, r2, 1\ntrap 0\n"]).expect("assemble");
        let mut mi = Machine::load(&image);
        let mut ci = ChecksumSink::new();
        mi.run(100, &mut ci).expect("interp");
        let mut mb = Machine::load(&image);
        let mut cb = ChecksumSink::new();
        mb.run_blocks(100, &mut cb).expect("blocks");
        assert_eq!(ci.digest(), cb.digest());
        assert_eq!(ci.count(), cb.count());
        let mut other = ChecksumSink::new();
        other.fetch(0, 2);
        assert_ne!(other.digest(), ci.digest());
        assert_ne!(ChecksumSink::new().digest(), ci.digest());
    }

    // --- parameterized pipeline timing ---------------------------------

    fn spec(depth: u8, predictor: Predictor, fw: u8) -> PipelineSpec {
        PipelineSpec { depth, predictor, fetch_width_halfwords: fw }
    }

    /// The load-use stall is the spec's load-use distance, not a
    /// hard-coded single cycle: regression for the fixed-depth assumption
    /// the interpreter's issue accounting used to bake in.
    #[test]
    fn load_use_interlock_scales_with_depth() {
        let src = "
_start: la r9, v
        ld r2, 0(r9)
        addi r2, r2, 1      ; uses r2 at distance one
        trap 0
        .data
v:      .word 5
";
        let image = build(Isa::Dlxe, &[src]).expect("assemble/link");
        for (depth, want) in [(3u8, 0u64), (4, 0), (5, 1), (6, 2), (7, 3), (8, 4)] {
            let mut m = Machine::load(&image);
            m.set_pipeline(spec(depth, Predictor::None, 2));
            let stop = m.run(1_000, &mut NullSink).expect("run");
            assert_eq!(stop.exit_status(), Some(6), "depth {depth}");
            assert_eq!(m.stats().load_interlocks, want, "depth {depth}");
            assert_eq!(m.stats().interlocks, want, "depth {depth}");
        }
    }

    /// Misfetch bubbles appear above depth 5 and depend on the predictor;
    /// the default spec stays penalty-free. Regression for the
    /// delay-slot-absorbs-everything branch arithmetic.
    #[test]
    fn misfetch_penalty_depends_on_depth_and_predictor() {
        // 10 loop iterations: 10 conditional branches, 9 taken.
        let src = "
_start: mvi r2, 0
        mvi r4, 0
        mvi r3, 10
loop:   subi r3, r3, 1
        cmpne r3, r4
        bnz r0, loop
        addi r2, r2, 1
        trap 0
";
        let image = build(Isa::D16, &[src]).expect("assemble/link");
        // (predictor, expected mispredicts at depth 7): no prediction
        // misses every taken transfer; static-taken misses the one
        // fall-through; two-bit (from strongly-not-taken) misses the
        // first two takens and the final untaken.
        let cases = [(Predictor::None, 9u64), (Predictor::StaticTaken, 1), (Predictor::TwoBit, 3)];
        for (p, want) in cases {
            let mut m = Machine::load(&image);
            m.set_pipeline(spec(7, p, 2));
            m.run(1_000, &mut NullSink).expect("run");
            assert_eq!(m.stats().mispredicts, want, "{p:?}");
            assert_eq!(m.stats().misfetch_cycles, want * 2, "depth 7 charges 2 bubbles ({p:?})");
            assert_eq!(
                m.stats().base_cycles(),
                m.stats().insns + m.stats().interlocks + want * 2,
                "{p:?}"
            );
        }
        let mut m = Machine::load(&image);
        m.run(1_000, &mut NullSink).expect("run");
        assert_eq!(m.stats().mispredicts, 0, "default spec is penalty-free");
        assert_eq!(m.stats().misfetch_cycles, 0);
    }

    /// Fetch-traffic accounting follows the spec's fetch width.
    #[test]
    fn ifetch_units_follow_fetch_width() {
        // Six sequential D16 halfword instructions: 6 one-halfword units,
        // 3 words, 2 double-words (4 insns + 2 insns).
        let src = "_start: nop\nnop\nnop\nnop\nmvi r2, 0\ntrap 0\n";
        let image = build(Isa::D16, &[src]).expect("assemble/link");
        for (fw, want) in [(1u8, 6u64), (2, 3), (4, 2)] {
            let mut m = Machine::load(&image);
            m.set_pipeline(spec(5, Predictor::None, fw));
            m.run(1_000, &mut NullSink).expect("run");
            assert_eq!(m.stats().ifetch_words, want, "fetch width {fw} halfwords");
        }
    }

    /// Both engines agree on every observable at non-default specs — the
    /// dynamic timing path against the interpreter. Covers stretched
    /// load-use distances (stale static stall bits would miscount),
    /// cross-block load shadows, predictor state, and misfetch charges.
    #[test]
    fn engines_agree_at_nondefault_specs() {
        let specs = [
            spec(6, Predictor::None, 2),
            spec(8, Predictor::TwoBit, 1),
            spec(3, Predictor::StaticTaken, 4),
            spec(7, Predictor::StaticTaken, 2),
        ];
        let programs: &[(Isa, &str)] = &[
            (
                Isa::D16,
                "
_start: mvi r2, 0
        mvi r4, 0
        mvi r3, 10
loop:   subi r3, r3, 1
        cmpne r3, r4
        bnz r0, loop
        addi r2, r2, 1
        trap 0
",
            ),
            (Isa::D16, "_start: ldc r2, =1234\naddi r2, r2, 1\ntrap 0\n"),
            (
                Isa::Dlxe,
                "_start: la r9, v\nld r2, 0(r9)\naddi r2, r2, 1\ntrap 0\n.data\nv: .word 5\n",
            ),
            (
                // A load at the end of one block shadowing the next
                // block's entry: the cross-block hazard the static path's
                // one-entry check cannot represent at distance > 1.
                Isa::Dlxe,
                "
_start: la r9, v
        mvi r3, 3
loop:   ld r2, 0(r9)
        subi r3, r3, 1
        bnz r3, loop
        addi r2, r2, 1      ; delay slot uses the load result
        trap 0
        .data
v:      .word 5
",
            ),
            (
                Isa::Dlxe,
                "_start: mvi r2, 21\njal double_it\nnop\ntrap 0\ndouble_it: add r2, r2, r2\nret\nnop\n",
            ),
            (Isa::D16x, "_start: mvi r3, 9\ncmpne r3, r0\nbnz r0, t\nnop\nt: mvi r2, 7\ntrap 0\n"),
        ];
        for sp in specs {
            for &(isa, src) in programs {
                let _ = assert_engines_agree_at(sp, isa, src, 1_000_000);
            }
            // Bail paths under dynamic timing: a mid-block fault and fuel
            // expiring mid-block.
            let _ = assert_engines_agree_at(
                sp,
                Isa::Dlxe,
                "_start: mvi r9, 0\nla r9, _start\nst r9, 0(r9)\ntrap 0\n",
                100,
            );
            for fuel in [1u64, 2, 3, 7] {
                let _ = assert_engines_agree_at(sp, Isa::D16, "_start: br _start\nnop\n", fuel);
            }
        }
    }

    /// The block cache is keyed by the active pipeline spec: a cache
    /// built at one spec must be rebuilt — not reused — at another, or
    /// its baked-in stall schedule and fetch-unit sums leak across.
    #[test]
    fn block_cache_is_keyed_by_pipeline_spec() {
        let src = "
_start: mvi r2, 0
        mvi r4, 0
        mvi r3, 10
loop:   subi r3, r3, 1
        cmpne r3, r4
        bnz r0, loop
        addi r2, r2, 1
        trap 0
";
        let image = build(Isa::D16, &[src]).expect("assemble/link");
        let fresh = |sp: PipelineSpec| {
            let mut m = Machine::load(&image);
            m.set_pipeline(sp);
            m.run_blocks(1_000_000, &mut NullSink).expect("run");
            *m.stats()
        };
        let deep = spec(8, Predictor::TwoBit, 2);
        let want5 = fresh(PipelineSpec::default());
        let want8 = fresh(deep);
        assert_ne!(want5, want8, "depth 8 must time differently");
        // Alternate specs across runs, transplanting the engine cache
        // each time; a cache not keyed by spec would serve the previous
        // spec's blocks and reproduce the wrong stats.
        let mut engine = None;
        for (sp, want) in [
            (PipelineSpec::default(), want5),
            (deep, want8),
            (PipelineSpec::default(), want5),
            (deep, want8),
        ] {
            let mut m = Machine::load(&image);
            m.set_pipeline(sp);
            m.engine = engine.take();
            m.run_blocks(1_000_000, &mut NullSink).expect("run");
            assert_eq!(*m.stats(), want, "spec {sp:?}");
            engine = m.engine.take();
        }
    }
}
