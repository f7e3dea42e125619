//! The run plan: one value that says how a program is built and run, and
//! one entry point per operation on it — [`Plan::build`],
//! [`Plan::measure`] (or [`Plan::run`] on a built image),
//! [`crate::Suite::collect`], [`Plan::table4`], [`Plan::fpu_sweep`] and
//! [`Plan::pipeline_sweep`]. `repro`, the experiments and `d16-serve` all
//! run through these.
//!
//! One run feeds every observer at once: the two fetch-buffer bus models,
//! the cache grid (when the plan asks for it) and the Table 4 classifier
//! (on `DLXe/16/2`).

use crate::experiments::{cache_grid_configs, table4_target, ImmClassifier};
use crate::measure::{CacheGrid, MeasureError, Measurement, FUEL};
use crate::stored;
use d16_asm::Image;
use d16_cc::{OptLevel, TargetSpec};
use d16_mem::{CacheBank, FetchBuffer};
use d16_sim::{AccessSink, Engine, Machine, NullSink, PipelineSpec, StopReason};
use d16_store::Store;
use d16_workloads::Workload;
use std::sync::Arc;

/// Where a plan's program comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    /// A registered workload; its pinned checksum, if any, is enforced.
    Workload(&'a Workload),
    /// Inline Mini-C text. It has no pinned checksum and is measured
    /// (and keyed) under the name `inline`.
    Inline(&'a str),
}

impl Source<'_> {
    pub(crate) fn text(&self) -> &str {
        match self {
            Source::Workload(w) => w.source,
            Source::Inline(src) => src,
        }
    }

    pub(crate) fn name(&self) -> &'static str {
        match self {
            Source::Workload(w) => w.name,
            Source::Inline(_) => "inline",
        }
    }

    pub(crate) fn expected(&self) -> Option<i32> {
        match self {
            Source::Workload(w) => w.expected,
            Source::Inline(_) => None,
        }
    }
}

/// How to build and run one program.
///
/// [`Plan::default`] is an empty inline program on `D16/16/2` with every
/// knob at its default; set `source` and `target` with struct-update
/// syntax. [`crate::Suite::collect`] and [`Plan::table4`] use a plan as
/// the template for their cells and fill in `source` and `target`
/// themselves.
///
/// The store is keyed so that a default knob adds nothing to a key: a
/// cell at `O2`, the default pipeline and the default fuel keeps the key
/// (and the stored bytes) it had before the knob existed. The engine
/// never enters a key — both engines produce byte-identical cells.
#[derive(Clone, Debug)]
pub struct Plan<'a> {
    /// The program.
    pub source: Source<'a>,
    /// Code-generation target.
    pub target: TargetSpec,
    /// Pipeline design point the machine is retimed to.
    pub pipeline: PipelineSpec,
    /// Optimization level.
    pub opt: OptLevel,
    /// Execution engine ([`Engine::Blocks`] by default; the interpreter
    /// exists for A/B timing and differential checking).
    pub engine: Engine,
    /// Instruction budget.
    pub fuel: u64,
    /// Whether the run feeds the cache grid: a [`CacheBank`] of every
    /// [`cache_grid_configs`] configuration, observing each access as it
    /// happens.
    pub cache_grid: bool,
    /// Artifact store: images, cells and experiment records are served
    /// from it when an intact entry exists and committed to it otherwise.
    pub store: Option<Arc<Store>>,
}

impl Default for Plan<'_> {
    fn default() -> Self {
        Plan {
            source: Source::Inline(""),
            target: TargetSpec::d16(),
            pipeline: PipelineSpec::default(),
            opt: OptLevel::O2,
            engine: Engine::default(),
            fuel: FUEL,
            cache_grid: false,
            store: None,
        }
    }
}

impl Plan<'_> {
    /// Compiles, assembles and links the source for the target. With a
    /// store, an intact `image` entry is served instead; a miss compiles
    /// and commits. This is the only place images meet the store.
    ///
    /// # Errors
    ///
    /// Propagates toolchain diagnostics.
    pub fn build(&self) -> Result<Image, MeasureError> {
        self.through_store(&stored::IMAGE, || {
            d16_cc::compile_to_image_with(&[self.source.text()], &self.target, self.opt)
                .map_err(MeasureError::Build)
        })
    }

    /// Builds, runs and measures one cell. With a store, an intact cell
    /// is served without compiling or simulating anything; a miss (or a
    /// damaged entry, which the store evicts) builds, runs and commits.
    ///
    /// A served cell is complete: measurement, telemetry block, cache grid
    /// and Table 4 counts are bit-identical to a cold computation, and the
    /// pinned checksum is re-verified at decode time.
    ///
    /// # Errors
    ///
    /// Toolchain errors, simulator faults, fuel exhaustion, or a checksum
    /// mismatch against the workload's pinned value. Store damage is
    /// never an error.
    pub fn measure(&self) -> Result<Measurement, MeasureError> {
        self.through_store(&stored::CELL, || self.run(&self.build()?))
    }

    /// Runs an already-built image on the retimed machine with every
    /// observer attached and assembles the [`Measurement`]; no store is
    /// involved. [`Plan::measure`] is [`Plan::build`] followed by this.
    ///
    /// # Errors
    ///
    /// See [`Plan::measure`].
    ///
    /// # Panics
    ///
    /// Only if the constant [`cache_grid_configs`] stopped being valid
    /// cache geometries, which every grid-sweeping test would show first.
    pub fn run(&self, image: &Image) -> Result<Measurement, MeasureError> {
        let mut machine = Machine::load(image);
        machine.set_pipeline(self.pipeline);
        let bank =
            || CacheBank::symmetric(&cache_grid_configs()).expect("grid configurations are valid");
        let imm = || ImmClassifier::new(image);
        let m = &mut machine;
        // One sink type per observer set: an absent observer is a
        // `NullSink` the compiler removes, not a branch on every access.
        let (stop, ireq, bank, imm) = match (self.cache_grid, self.counts_table4()) {
            (false, false) => {
                self.observe(m, NullSink, NullSink).map(|(s, i, _, _)| (s, i, None, None))
            }
            (true, false) => {
                self.observe(m, bank(), NullSink).map(|(s, i, b, _)| (s, i, Some(b), None))
            }
            (false, true) => {
                self.observe(m, NullSink, imm()).map(|(s, i, _, c)| (s, i, None, Some(c)))
            }
            (true, true) => {
                self.observe(m, bank(), imm()).map(|(s, i, b, c)| (s, i, Some(b), Some(c)))
            }
        }
        .map_err(MeasureError::Sim)?;
        let exit = match stop {
            StopReason::Halted(v) => v,
            StopReason::OutOfFuel => return Err(MeasureError::OutOfFuel),
        };
        if let Some(expected) = self.source.expected() {
            if exit != expected {
                return Err(MeasureError::WrongChecksum { expected, got: exit });
            }
        }
        Ok(Measurement {
            workload: self.source.name(),
            target: self.target.label(),
            exit,
            size_bytes: image.size_bytes() as u64,
            text_bytes: image.text.len() as u64,
            stats: *machine.stats(),
            ireq_bus32: ireq[0],
            ireq_bus64: ireq[1],
            tele: machine.telemetry().clone(),
            grid: bank.map(|bank| CacheGrid {
                sweep: bank.telemetry().clone(),
                systems: bank.into_systems(),
            }),
            imm: imm.map(|c| c.classes(image)),
        })
    }

    /// Whether a run of this plan counts Table 4's immediate classes: a
    /// registered workload on `DLXe/16/2`. The table averages the suite,
    /// so an inline source has no row in it, and the count costs every
    /// fetch an add.
    pub(crate) fn counts_table4(&self) -> bool {
        matches!(self.source, Source::Workload(_)) && self.target == table4_target()
    }

    /// Runs `machine` with both fetch-buffer bus models and the two given
    /// observers attached; returns the stop, the 32- and 64-bit bus
    /// request counts, and the observers.
    fn observe<G: AccessSink, T: AccessSink>(
        &self,
        machine: &mut Machine,
        grid: G,
        imm: T,
    ) -> Result<(StopReason, [u64; 2], G, T), d16_sim::SimError> {
        let mut sink =
            MeasureSink { fb32: FetchBuffer::new(4), fb64: FetchBuffer::new(8), grid, imm };
        let stop = machine.run_with(self.engine, self.fuel, &mut sink)?;
        Ok((stop, [sink.fb32.irequests, sink.fb64.irequests], sink.grid, sink.imm))
    }

    /// Serves `record` from the plan's store when an intact entry exists
    /// (a damaged one is evicted); otherwise computes and commits it.
    /// Without a store this is `compute()`.
    pub(crate) fn through_store<T, E>(
        &self,
        record: &stored::Record<T>,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let Some(store) = self.store.as_deref() else { return compute() };
        let key = (record.key)(self);
        if let Some(v) = store.get_with(record.kind, key, |b| (record.decode)(b, self)) {
            return Ok(v);
        }
        let v = compute()?;
        store.put(record.kind, key, &(record.encode)(&v));
        Ok(v)
    }
}

/// The concrete observer stack of one measurement run: both fetch-buffer
/// bus models plus the cache grid and the Table 4 classifier (each a
/// `NullSink` when absent), statically dispatched. A `dyn` fan-out here
/// would put an indirect call on every access, and the block engine has
/// removed the decode overhead that used to hide it.
struct MeasureSink<G, T> {
    fb32: FetchBuffer,
    fb64: FetchBuffer,
    grid: G,
    imm: T,
}

impl<G: AccessSink, T: AccessSink> AccessSink for MeasureSink<G, T> {
    #[inline]
    fn fetch(&mut self, addr: u32, bytes: u8) {
        self.fb32.fetch(addr, bytes);
        self.fb64.fetch(addr, bytes);
        self.grid.fetch(addr, bytes);
        self.imm.fetch(addr, bytes);
    }
    #[inline]
    fn read(&mut self, addr: u32, bytes: u8) {
        self.fb32.read(addr, bytes);
        self.fb64.read(addr, bytes);
        self.grid.read(addr, bytes);
        self.imm.read(addr, bytes);
    }
    #[inline]
    fn write(&mut self, addr: u32, bytes: u8) {
        self.fb32.write(addr, bytes);
        self.fb64.write(addr, bytes);
        self.grid.write(addr, bytes);
        self.imm.write(addr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, target: TargetSpec) -> Plan<'static> {
        Plan {
            source: Source::Workload(d16_workloads::by_name(name).unwrap()),
            target,
            ..Plan::default()
        }
    }

    #[test]
    fn inline_sources_run_without_a_checksum_and_respect_fuel() {
        let src = "int main(void) { int i, s = 0; for (i = 0; i < 100; i++) s += i; return s; }";
        let plan = Plan { source: Source::Inline(src), ..Plan::default() };
        let m = plan.measure().unwrap();
        assert_eq!((m.workload, m.exit), ("inline", 4950));
        let t4 = Plan { target: crate::experiments::table4_target(), ..plan.clone() };
        assert!(t4.measure().unwrap().imm.is_none(), "Table 4 counts only registered workloads");
        let starved = Plan { fuel: m.stats.insns - 1, ..plan };
        assert!(matches!(starved.measure(), Err(MeasureError::OutOfFuel)));
    }

    #[test]
    fn opt_levels_get_their_own_images_in_one_store() {
        let dir = d16_testkit::TempDir::new("plan-opt-store");
        let store = Arc::new(Store::open(dir.path()).unwrap());
        let o2 = Plan { store: Some(Arc::clone(&store)), ..cell("towers", TargetSpec::d16()) };
        let o0 = Plan { opt: OptLevel::O0, ..o2.clone() };
        let (i2, i0) = (o2.build().unwrap(), o0.build().unwrap());
        assert_ne!(i0.text, i2.text, "O0 and O2 compile differently");
        // Served back, each level still gets its own image.
        assert_eq!(o0.build().unwrap().text, i0.text);
        assert_eq!(o2.build().unwrap().text, i2.text);
        let m2 = o2.measure().unwrap();
        let m0 = o0.measure().unwrap();
        assert_eq!(m0.exit, m2.exit);
        assert_ne!(m0.stats.insns, m2.stats.insns, "cells do not collide either");
        assert_eq!(o0.measure().unwrap().stats, m0.stats);
    }
}
