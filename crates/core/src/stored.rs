//! Cache keys and codecs for the harness's `d16-store` artifacts.
//!
//! Six artifact kinds ride in the store:
//!
//! * `image` — linked binaries ([`crate::Plan::build`]).
//! * `cell` — one (workload, target) [`Measurement`] plus its optional
//!   recorded access trace.
//! * `grid` — one (workload, ISA) cache-grid sweep: per-configuration
//!   aggregate statistics, from which every counter is rebuilt.
//! * `table4` / `fpu` / `psweep` — the experiments that re-run workloads
//!   outside the suite grid (immediate-class counts, FPU-latency points,
//!   pipeline-sweep grids).
//!
//! Every key folds in [`CORE_TAG`] (bump when the simulator, memory
//! models, or these codecs change observable results), the image keys of
//! what was run (so source, codegen or toolchain changes retire entries),
//! and — for records that carry telemetry counter blocks — the
//! compile-time telemetry mode, because a block dumped in one mode cannot
//! be restored in the other. A plan knob at its default adds nothing to
//! a key, so keys written before the knob existed still match.
//!
//! Restores are *complete*: a warm run's measurements, traces, grids,
//! and derived tables are bit-identical to a cold run's, so caching can
//! never change a paper-facing number (DESIGN.md §6).

use crate::experiments::{FpuSweepPoint, PipelineSweepRow};
use crate::measure::{Measurement, FUEL};
use crate::plan::Plan;
use d16_asm::Image;
use d16_cc::{OptLevel, TargetSpec};
use d16_mem::{CacheConfig, CacheStats, CacheSystem, BANK_SCHEMA};
use d16_sim::{ExecStats, PipelineSpec, Predictor, TraceRecorder, SIM_SCHEMA};
use d16_store::{CacheKey, Reader, StableHasher, Writer};
use d16_telemetry::Counters;

/// Version tag for everything the harness persists: simulator and
/// memory-model behavior, the codecs below, and the grid configuration
/// set. Bump it whenever any of those changes observable numbers, and
/// every stale entry stops matching at once.
pub(crate) const CORE_TAG: &str = "d16-core/3";

/// One artifact kind: its store namespace, how a plan keys it, and its
/// codec. [`Plan::through_store`] serves and commits records through it.
pub(crate) struct Record<T> {
    pub(crate) kind: &'static str,
    pub(crate) key: fn(&Plan<'_>) -> CacheKey,
    pub(crate) decode: fn(&[u8], &Plan<'_>) -> Option<T>,
    pub(crate) encode: fn(&T) -> Vec<u8>,
}

/// Linked images.
pub(crate) const IMAGE: Record<Image> = Record {
    kind: "image",
    key: image_key,
    decode: |b, _| d16_asm::codec::decode_image(b),
    encode: d16_asm::codec::encode_image,
};

/// (workload, target) measurement cells with their optional traces.
pub(crate) const CELL: Record<(Measurement, Option<TraceRecorder>)> = Record {
    kind: "cell",
    key: cell_key,
    decode: decode_cell,
    encode: |(m, trace)| encode_cell(m, trace.as_ref()),
};

/// (workload, ISA) cache-grid sweeps: the systems plus the sweep counters.
pub(crate) const GRID: Record<(Vec<CacheSystem>, Counters)> = Record {
    kind: "grid",
    key: grid_key,
    decode: |b, _| decode_grid(b),
    encode: |(systems, sweep)| encode_grid(systems, sweep),
};

/// Per-workload Table 4 immediate-class counts.
pub(crate) const TABLE4: Record<(u64, u64, u64, u64)> = Record {
    kind: "table4",
    key: table4_key,
    decode: |b, _| decode_table4(b),
    encode: |&counts| encode_table4(counts),
};

/// Per-workload FPU-latency sweep points.
pub(crate) const FPU: Record<Vec<FpuSweepPoint>> =
    Record { kind: "fpu", key: fpu_key, decode: |b, _| decode_fpu(b), encode: |p| encode_fpu(p) };

/// Per-workload pipeline depth × predictor sweep grids.
pub(crate) const PSWEEP: Record<Vec<PipelineSweepRow>> = Record {
    kind: "psweep",
    key: psweep_key,
    decode: |b, _| decode_psweep(b),
    encode: |rows| encode_psweep(rows),
};

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

/// Key of the image [`Plan::build`] produces: [`d16_cc::build_key`] (both
/// toolchain tags, every target knob, the runtime library and the source
/// text), plus the opt level when it is `O0`.
pub(crate) fn image_key(p: &Plan<'_>) -> CacheKey {
    let key = d16_cc::build_key(&[p.source.text()], &p.target);
    if p.opt == OptLevel::O2 {
        return key;
    }
    let mut h = StableHasher::new("d16-core.image");
    h.field_key(key).field_str(p.opt.name());
    h.finish()
}

/// [`image_key`] of `p` retargeted to `target`.
fn image_key_on(p: &Plan<'_>, target: TargetSpec) -> CacheKey {
    image_key(&Plan { target, ..p.clone() })
}

/// Folds a non-default fuel budget into a key.
fn fuel_field(h: &mut StableHasher, p: &Plan<'_>) {
    if p.fuel != FUEL {
        h.field_u64(p.fuel);
    }
}

/// Key of one measurement cell: the image it runs plus what the run
/// records. A non-default [`PipelineSpec`] retimes the machine, so it
/// folds into the key.
pub(crate) fn cell_key(p: &Plan<'_>) -> CacheKey {
    let mut h = StableHasher::new("d16-core.cell");
    h.field_str(CORE_TAG)
        .field_bool(d16_telemetry::ENABLED)
        .field_key(image_key(p))
        .field_str(p.source.name())
        .field_bool(p.trace);
    if p.pipeline != PipelineSpec::default() {
        h.field_u64(u64::from(p.pipeline.depth))
            .field_str(p.pipeline.predictor.name())
            .field_u64(u64::from(p.pipeline.fetch_width_halfwords));
    }
    fuel_field(&mut h, p);
    h.finish()
}

/// Key of one cache-grid sweep: the image of the traced cell `p`, plus a
/// fingerprint of every configuration on the grid. The access trace does
/// not depend on the pipeline timing, so the pipeline spec stays out.
pub(crate) fn grid_key(p: &Plan<'_>) -> CacheKey {
    let mut h = StableHasher::new("d16-core.grid");
    h.field_str(CORE_TAG)
        .field_bool(d16_telemetry::ENABLED)
        .field_key(image_key(p))
        .field_str(p.source.name());
    let configs = crate::experiments::cache_grid_configs();
    h.field_u64(configs.len() as u64);
    for c in &configs {
        h.field_u32(c.size)
            .field_u32(c.block)
            .field_u32(c.sub_block)
            .field_u32(c.assoc)
            .field_bool(c.wrap_prefetch);
    }
    h.finish()
}

/// Key of one workload's Table 4 classification counts (always measured
/// on `DLXe/16/2`; the counts are plain integers, so the telemetry mode
/// does not enter).
pub(crate) fn table4_key(p: &Plan<'_>) -> CacheKey {
    let mut h = StableHasher::new("d16-core.table4");
    h.field_str(CORE_TAG)
        .field_key(image_key_on(p, crate::experiments::table4_target()))
        .field_str(p.source.name());
    fuel_field(&mut h, p);
    h.finish()
}

/// Key of one workload's FPU-latency sweep (runs both unrestricted
/// images over the fixed latency ladder).
pub(crate) fn fpu_key(p: &Plan<'_>) -> CacheKey {
    let mut h = StableHasher::new("d16-core.fpu");
    h.field_str(CORE_TAG)
        .field_key(image_key_on(p, TargetSpec::d16()))
        .field_key(image_key_on(p, TargetSpec::dlxe()))
        .field_str(p.source.name());
    fuel_field(&mut h, p);
    h.finish()
}

/// Key of one workload's pipeline sweep: every standard target's image
/// (one interpreter pass each feeds the grid) plus the sweep-grid shape,
/// so widening the grid retires stale records.
pub(crate) fn psweep_key(p: &Plan<'_>) -> CacheKey {
    let mut h = StableHasher::new("d16-core.psweep");
    h.field_str(CORE_TAG).field_str(p.source.name());
    for spec in crate::suite::standard_specs() {
        h.field_key(image_key_on(p, spec));
    }
    h.field_u64(d16_sim::SWEEP_CELLS as u64);
    for &d in &d16_sim::PIPELINE_DEPTHS {
        h.field_u64(u64::from(d));
    }
    for &fw in &d16_sim::FETCH_WIDTHS {
        h.field_u64(u64::from(fw));
    }
    fuel_field(&mut h, p);
    h.finish()
}

// ---------------------------------------------------------------------
// Cell records
// ---------------------------------------------------------------------

/// Serializes one measured cell and its optional trace.
#[must_use]
pub(crate) fn encode_cell(m: &Measurement, trace: Option<&TraceRecorder>) -> Vec<u8> {
    let mut w = Writer::new();
    w.i32(m.exit).u64(m.size_bytes).u64(m.text_bytes);
    let s = &m.stats;
    w.u64(s.insns)
        .u64(s.loads)
        .u64(s.stores)
        .u64(s.interlocks)
        .u64(s.load_interlocks)
        .u64(s.fpu_interlocks)
        .u64(s.ifetch_words)
        .u64(s.branches)
        .u64(s.taken_branches)
        .u64(s.nops)
        .u64(s.fused_cmp_br)
        .u64(s.fused_lui_addi)
        .u64(s.mispredicts)
        .u64(s.misfetch_cycles);
    w.u64(m.ireq_bus32).u64(m.ireq_bus64);
    write_counter_values(&mut w, &m.tele);
    match trace {
        Some(t) => {
            w.bool(true).u64(t.len() as u64).bytes(t.encoded_bytes());
        }
        None => {
            w.bool(false);
        }
    }
    w.into_bytes()
}

/// Deserializes a cell record; `None` on any structural damage,
/// including a trace that fails the [`TraceRecorder::from_encoded`]
/// validation walk or a counter block from the other telemetry mode.
#[must_use]
pub(crate) fn decode_cell(
    bytes: &[u8],
    p: &Plan<'_>,
) -> Option<(Measurement, Option<TraceRecorder>)> {
    let mut r = Reader::new(bytes);
    let exit = r.i32()?;
    let size_bytes = r.u64()?;
    let text_bytes = r.u64()?;
    let stats = ExecStats {
        insns: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        interlocks: r.u64()?,
        load_interlocks: r.u64()?,
        fpu_interlocks: r.u64()?,
        ifetch_words: r.u64()?,
        branches: r.u64()?,
        taken_branches: r.u64()?,
        nops: r.u64()?,
        fused_cmp_br: r.u64()?,
        fused_lui_addi: r.u64()?,
        mispredicts: r.u64()?,
        misfetch_cycles: r.u64()?,
    };
    let ireq_bus32 = r.u64()?;
    let ireq_bus64 = r.u64()?;
    let tele = read_counter_values(&mut r, &SIM_SCHEMA)?;
    let trace = if r.bool()? {
        let len = usize::try_from(r.u64()?).ok()?;
        let raw = r.bytes()?.to_vec();
        Some(TraceRecorder::from_encoded(raw, len).ok()?)
    } else {
        None
    };
    r.finish()?;
    // The record was validated against the pinned checksum when it was
    // written, but re-check: a record that disagrees cannot be served.
    if p.source.expected().is_some_and(|expected| exit != expected) {
        return None;
    }
    let m = Measurement {
        workload: p.source.name(),
        target: p.target.label(),
        exit,
        size_bytes,
        text_bytes,
        stats,
        ireq_bus32,
        ireq_bus64,
        tele,
    };
    Some((m, trace))
}

// ---------------------------------------------------------------------
// Grid records
// ---------------------------------------------------------------------

/// Serializes a swept cache grid: the sweep-level counters plus each
/// system's configurations and aggregate statistics. Per-cache telemetry
/// is *not* stored — [`d16_mem::Cache::from_stats`] rebuilds it from the
/// aggregates, reconciled by construction.
#[must_use]
pub(crate) fn encode_grid(systems: &[CacheSystem], sweep: &Counters) -> Vec<u8> {
    let mut w = Writer::new();
    write_counter_values(&mut w, sweep);
    w.u64(systems.len() as u64);
    for s in systems {
        write_cache_half(&mut w, s.iconfig(), s.icache());
        write_cache_half(&mut w, s.dconfig(), s.dcache());
    }
    w.into_bytes()
}

/// Deserializes a grid record into its systems and sweep counters;
/// `None` on structural damage or statistics [`CacheSystem::from_stats`]
/// rejects as inconsistent.
#[must_use]
pub(crate) fn decode_grid(bytes: &[u8]) -> Option<(Vec<CacheSystem>, Counters)> {
    let mut r = Reader::new(bytes);
    let sweep = read_counter_values(&mut r, &BANK_SCHEMA)?;
    let n = usize::try_from(r.u64()?).ok()?;
    let mut systems = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let (icfg, istats) = read_cache_half(&mut r)?;
        let (dcfg, dstats) = read_cache_half(&mut r)?;
        systems.push(CacheSystem::from_stats(icfg, istats, dcfg, dstats).ok()?);
    }
    r.finish()?;
    Some((systems, sweep))
}

fn write_cache_half(w: &mut Writer, cfg: &CacheConfig, stats: &CacheStats) {
    w.u32(cfg.size).u32(cfg.block).u32(cfg.sub_block).u32(cfg.assoc).bool(cfg.wrap_prefetch);
    w.u64(stats.reads)
        .u64(stats.read_misses)
        .u64(stats.writes)
        .u64(stats.write_misses)
        .u64(stats.demand_bytes_in)
        .u64(stats.prefetch_bytes_in)
        .u64(stats.bytes_out);
}

fn read_cache_half(r: &mut Reader<'_>) -> Option<(CacheConfig, CacheStats)> {
    let cfg = CacheConfig {
        size: r.u32()?,
        block: r.u32()?,
        sub_block: r.u32()?,
        assoc: r.u32()?,
        wrap_prefetch: r.bool()?,
    };
    let stats = CacheStats {
        reads: r.u64()?,
        read_misses: r.u64()?,
        writes: r.u64()?,
        write_misses: r.u64()?,
        demand_bytes_in: r.u64()?,
        prefetch_bytes_in: r.u64()?,
        bytes_out: r.u64()?,
    };
    Some((cfg, stats))
}

// ---------------------------------------------------------------------
// Table 4 and FPU-sweep records
// ---------------------------------------------------------------------

/// Serializes one workload's Table 4 classification counts
/// `(cmp, alu, mem, total)`.
#[must_use]
pub(crate) fn encode_table4(counts: (u64, u64, u64, u64)) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(counts.0).u64(counts.1).u64(counts.2).u64(counts.3);
    w.into_bytes()
}

/// Deserializes Table 4 counts; `None` on structural damage or counts
/// that exceed their own total.
#[must_use]
pub(crate) fn decode_table4(bytes: &[u8]) -> Option<(u64, u64, u64, u64)> {
    let mut r = Reader::new(bytes);
    let counts = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    r.finish()?;
    let (cmp, alu, mem, total) = counts;
    if cmp.checked_add(alu)?.checked_add(mem)? > total || total == 0 {
        return None;
    }
    Some(counts)
}

/// Serializes an FPU-latency sweep (rates ride as IEEE-754 bit patterns,
/// so the restore is bit-exact).
#[must_use]
pub(crate) fn encode_fpu(points: &[FpuSweepPoint]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(points.len() as u64);
    for p in points {
        w.u64(p.mul_latency)
            .u64(p.d16_cycles)
            .u64(p.dlxe_cycles)
            .u64(p.d16_rate.to_bits())
            .u64(p.dlxe_rate.to_bits());
    }
    w.into_bytes()
}

/// Deserializes an FPU-latency sweep; `None` on structural damage.
#[must_use]
pub(crate) fn decode_fpu(bytes: &[u8]) -> Option<Vec<FpuSweepPoint>> {
    let mut r = Reader::new(bytes);
    let n = usize::try_from(r.u64()?).ok()?;
    let mut points = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        points.push(FpuSweepPoint {
            mul_latency: r.u64()?,
            d16_cycles: r.u64()?,
            dlxe_cycles: r.u64()?,
            d16_rate: f64::from_bits(r.u64()?),
            dlxe_rate: f64::from_bits(r.u64()?),
        });
    }
    r.finish()?;
    Some(points)
}

/// Serializes a pipeline sweep: one depth × predictor grid (plus the
/// fetch-width traffic vector) per standard target.
#[must_use]
pub(crate) fn encode_psweep(rows: &[PipelineSweepRow]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(rows.len() as u64);
    for row in rows {
        w.str(&row.target).u64(row.sweep.insns);
        w.u64(row.sweep.cells.len() as u64);
        for c in &row.sweep.cells {
            w.u8(c.depth)
                .str(c.predictor.name())
                .u64(c.cycles)
                .u64(c.interlock_cycles)
                .u64(c.mispredicts)
                .u64(c.penalty_cycles);
        }
        for &u in &row.sweep.fetch_units {
            w.u64(u);
        }
    }
    w.into_bytes()
}

/// Deserializes a pipeline sweep; `None` on structural damage, an
/// unknown predictor name, or a grid of the wrong shape.
#[must_use]
pub(crate) fn decode_psweep(bytes: &[u8]) -> Option<Vec<PipelineSweepRow>> {
    let mut r = Reader::new(bytes);
    let n = usize::try_from(r.u64()?).ok()?;
    let mut rows = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let target = r.str()?.to_string();
        let insns = r.u64()?;
        let cells_n = usize::try_from(r.u64()?).ok()?;
        if cells_n != d16_sim::SWEEP_CELLS {
            return None;
        }
        let mut cells = Vec::with_capacity(cells_n);
        for _ in 0..cells_n {
            cells.push(d16_sim::SweepCell {
                depth: r.u8()?,
                predictor: Predictor::parse(r.str()?)?,
                cycles: r.u64()?,
                interlock_cycles: r.u64()?,
                mispredicts: r.u64()?,
                penalty_cycles: r.u64()?,
            });
        }
        let mut fetch_units = [0u64; d16_sim::FETCH_WIDTHS.len()];
        for u in &mut fetch_units {
            *u = r.u64()?;
        }
        rows.push(PipelineSweepRow {
            target,
            sweep: d16_sim::SweepResult { insns, cells, fetch_units },
        });
    }
    r.finish()?;
    Some(rows)
}

// ---------------------------------------------------------------------
// Counter blocks
// ---------------------------------------------------------------------

fn write_counter_values(w: &mut Writer, c: &Counters) {
    let vals = c.values();
    w.u64(vals.len() as u64);
    for &v in vals {
        w.u64(v);
    }
}

fn read_counter_values(
    r: &mut Reader<'_>,
    schema: &'static d16_telemetry::Schema,
) -> Option<Counters> {
    let n = usize::try_from(r.u64()?).ok()?;
    let mut vals = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        vals.push(r.u64()?);
    }
    Counters::from_values(schema, &vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Source;

    fn cell(name: &str, target: TargetSpec, trace: bool) -> Plan<'static> {
        Plan {
            source: Source::Workload(d16_workloads::by_name(name).unwrap()),
            target,
            trace,
            ..Plan::default()
        }
    }

    #[test]
    fn cell_roundtrips_with_and_without_trace() {
        for plan in [
            cell("towers", TargetSpec::d16(), true),
            cell("towers", TargetSpec::dlxe_restricted(true, true, false), false),
        ] {
            let (m, trace) = plan.measure().unwrap();
            let bytes = encode_cell(&m, trace.as_ref());
            let (back, back_trace) = decode_cell(&bytes, &plan).unwrap();
            assert_eq!(back.exit, m.exit);
            assert_eq!(back.target, m.target);
            assert_eq!((back.size_bytes, back.text_bytes), (m.size_bytes, m.text_bytes));
            assert_eq!(back.stats, m.stats);
            assert_eq!((back.ireq_bus32, back.ireq_bus64), (m.ireq_bus32, m.ireq_bus64));
            assert_eq!(back.tele.values(), m.tele.values());
            assert_eq!(back_trace, trace, "trace restores bit-identically");
        }
    }

    #[test]
    fn cell_decode_rejects_damage_and_wrong_checksum() {
        let plan = cell("towers", TargetSpec::d16(), true);
        let (m, t) = plan.measure().unwrap();
        let bytes = encode_cell(&m, t.as_ref());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_cell(&bytes[..cut], &plan).is_none(), "cut at {cut}");
        }
        // A record whose exit disagrees with the pinned checksum must
        // not be served, even if structurally intact.
        let mut wrong = m.clone();
        wrong.exit += 1;
        let bad = encode_cell(&wrong, t.as_ref());
        assert!(decode_cell(&bad, &plan).is_none());
    }

    #[test]
    fn keys_separate_cells_and_artifact_kinds() {
        let towers = cell("towers", TargetSpec::d16(), false);
        let queens = cell("queens", TargetSpec::d16(), false);
        let base = cell_key(&towers);
        assert_eq!(base, cell_key(&towers.clone()));
        assert_ne!(
            base,
            cell_key(&Plan { trace: true, ..towers.clone() }),
            "trace recording changes the record"
        );
        assert_ne!(base, cell_key(&queens));
        assert_ne!(base, cell_key(&Plan { target: TargetSpec::dlxe(), ..towers.clone() }));
        let deep = PipelineSpec { depth: 8, predictor: Predictor::TwoBit, ..towers.pipeline };
        assert_ne!(
            base,
            cell_key(&Plan { pipeline: deep, ..towers.clone() }),
            "a retimed machine is a new cell"
        );
        assert_ne!(base, cell_key(&Plan { fuel: 1000, ..towers.clone() }), "fuel keys");
        assert_eq!(
            base,
            cell_key(&Plan { engine: d16_sim::Engine::Interp, ..towers.clone() }),
            "the engine never keys"
        );
        let o0 = Plan { opt: OptLevel::O0, ..towers.clone() };
        assert_ne!(image_key(&towers), image_key(&o0));
        assert_ne!(base, cell_key(&o0));
        assert_ne!(grid_key(&towers), grid_key(&o0));
        assert_ne!(
            grid_key(&towers),
            grid_key(&Plan { target: TargetSpec::dlxe(), ..towers.clone() })
        );
        assert_ne!(table4_key(&towers), table4_key(&queens));
        assert_ne!(fpu_key(&towers), fpu_key(&queens));
        assert_ne!(psweep_key(&towers), psweep_key(&queens));
    }

    /// Keys are the store's on-disk addresses: a change here orphans
    /// every existing store. These are the keys existing stores hold for
    /// towers on D16/16/2 at O2 (the telemetry mode folds into the cell
    /// and grid keys, so each mode has its own values).
    #[test]
    fn keys_do_not_move() {
        let w = d16_workloads::by_name("towers").unwrap();
        let plan = cell("towers", TargetSpec::d16(), false);
        let build = d16_cc::build_key(&[w.source], &TargetSpec::d16());
        assert_eq!(build.hex(), "2c4bf3fb3bd62d32d75acec0759432d8");
        assert_eq!(image_key(&plan), build, "an O2 image keeps the toolchain's key");
        let (cell_plain, cell_traced, grid) = if d16_telemetry::ENABLED {
            (
                "a25255d4a59d00ad7bc0309b7ed61de6",
                "a25255d4a69d00ad7bc0309b7ed61f21",
                "c2b03d4aba873dd57864e7dd24d498e7",
            )
        } else {
            (
                "2f48476e1db4cce2cfc45d4399895d27",
                "2f48476e1cb4cce2cfc45d4399895bec",
                "f7bbab120a9debc4bfc35e208b867ef0",
            )
        };
        assert_eq!(cell_key(&plan).hex(), cell_plain);
        assert_eq!(cell_key(&Plan { trace: true, ..plan.clone() }).hex(), cell_traced);
        assert_eq!(grid_key(&plan).hex(), grid);
    }

    #[test]
    fn psweep_roundtrips_and_rejects_damage() {
        let rows = cell("towers", TargetSpec::d16(), false).pipeline_sweep().unwrap();
        assert_eq!(rows.len(), crate::suite::standard_specs().len());
        for row in &rows {
            assert_eq!(row.sweep.cells.len(), d16_sim::SWEEP_CELLS);
            // The default-spec cell reproduces the live machine's timing
            // constants: at depth 5 every predictor column is identical
            // (zero penalty) and depths 3/4 carry no interlocks at all.
            let d5 = row.sweep.cell(5, Predictor::None).unwrap();
            for p in [Predictor::StaticTaken, Predictor::TwoBit] {
                assert_eq!(row.sweep.cell(5, p).unwrap().cycles, d5.cycles, "{}", row.target);
            }
            assert_eq!(row.sweep.cell(3, Predictor::None).unwrap().interlock_cycles, 0);
        }
        let bytes = encode_psweep(&rows);
        let back = decode_psweep(&bytes).unwrap();
        assert_eq!(back, rows, "sweep rows restore bit-identically");
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_psweep(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn grid_roundtrips_bit_identically() {
        let (_, trace) = cell("towers", TargetSpec::d16(), true).measure().unwrap();
        let mut bank =
            d16_mem::CacheBank::symmetric(&crate::experiments::cache_grid_configs()[..4]).unwrap();
        trace.unwrap().replay(&mut bank);
        let sweep = bank.telemetry().clone();
        let systems = bank.into_systems();
        let bytes = encode_grid(&systems, &sweep);
        let (back, back_sweep) = decode_grid(&bytes).unwrap();
        assert_eq!(back.len(), systems.len());
        for (b, s) in back.iter().zip(&systems) {
            assert_eq!(b.iconfig(), s.iconfig());
            assert_eq!(b.icache(), s.icache());
            assert_eq!(b.dcache(), s.dcache());
            b.reconciles().unwrap();
        }
        assert_eq!(back_sweep.values(), sweep.values());
        // Structural damage decodes to None, never a bad grid.
        for cut in [0, 9, bytes.len() - 1] {
            assert!(decode_grid(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }
}
