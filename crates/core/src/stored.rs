//! Cache keys and codecs for the harness's `d16-store` artifacts.
//!
//! Four artifact kinds ride in the store:
//!
//! * `image` — linked binaries ([`crate::Plan::build`]).
//! * `cell` — one (workload, target) [`Measurement`], with what its
//!   observers computed: the cache grid's per-configuration aggregate
//!   statistics (from which every cache counter is rebuilt) when the run
//!   swept it, and Table 4's immediate-class counts on `DLXe/16/2`.
//! * `fpu` / `psweep` — the experiments that re-run workloads outside
//!   the suite grid (FPU-latency points, pipeline-sweep grids).
//!
//! Every key folds in [`CORE_TAG`] (bump when the simulator, memory
//! models, or these codecs change observable results), the image keys of
//! what was run (so source, codegen or toolchain changes retire entries),
//! and — for records that carry telemetry counter blocks — the
//! compile-time telemetry mode, because a block dumped in one mode cannot
//! be restored in the other. A plan knob at its default adds nothing to
//! a key, so keys written before the knob existed still match.
//!
//! Restores are *complete*: a warm run's measurements, grids and derived
//! tables are bit-identical to a cold run's, so caching can never change
//! a paper-facing number (DESIGN.md §6).

use crate::experiments::{cache_grid_configs, FpuSweepPoint, PipelineSweepRow};
use crate::measure::{CacheGrid, ImmClasses, Measurement, FUEL};
use crate::plan::Plan;
use d16_asm::Image;
use d16_cc::{OptLevel, TargetSpec};
use d16_mem::{CacheConfig, CacheStats, CacheSystem, BANK_SCHEMA};
use d16_sim::{ExecStats, PipelineSpec, Predictor, SIM_SCHEMA};
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

/// (workload, target) measurement cells with their observers' results.
pub(crate) const CELL: Record<Measurement> =
    Record { kind: "cell", key: cell_key, decode: decode_cell, encode: encode_cell };

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

/// Key of one measurement cell: the image it runs plus whether the run
/// sweeps the cache grid. A non-default [`PipelineSpec`] retimes the
/// machine, so it folds into the key.
pub(crate) fn cell_key(p: &Plan<'_>) -> CacheKey {
    let mut h = StableHasher::new("d16-core.cell");
    h.field_str(CORE_TAG)
        .field_bool(d16_telemetry::ENABLED)
        .field_key(image_key(p))
        .field_str(p.source.name())
        .field_bool(p.cache_grid);
    if p.pipeline != PipelineSpec::default() {
        h.field_u64(u64::from(p.pipeline.depth))
            .field_str(p.pipeline.predictor.name())
            .field_u64(u64::from(p.pipeline.fetch_width_halfwords));
    }
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

/// The byte after a cell's counter block: whether a cache grid follows.
/// Cell keys are shared with records that carried an access trace after
/// byte 1; such a record decodes to `None`, so it is recomputed and
/// re-committed instead of served.
const NO_GRID: u8 = 0;
const GRID: u8 = 2;

/// Serializes one measured cell: the measurement, its cache grid when
/// the run swept one, and its Table 4 counts when it took them.
#[must_use]
pub(crate) fn encode_cell(m: &Measurement) -> Vec<u8> {
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
    match &m.grid {
        Some(g) => write_grid(w.u8(GRID), g),
        None => {
            w.u8(NO_GRID);
        }
    }
    if let Some(c) = m.imm {
        w.u64(c.cmp).u64(c.alu).u64(c.mem);
    }
    w.into_bytes()
}

/// Deserializes a cell record for the plan `p`; `None` on any structural
/// damage, on a record whose shape disagrees with what a run of `p`
/// observes (a grid exactly when `p` sweeps one, Table 4 counts exactly
/// when `p` counts them), or on a counter block from the other telemetry
/// mode.
#[must_use]
pub(crate) fn decode_cell(bytes: &[u8], p: &Plan<'_>) -> Option<Measurement> {
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
    let grid = match (r.u8()?, p.cache_grid) {
        (NO_GRID, false) => None,
        (GRID, true) => Some(read_grid(&mut r)?),
        _ => return None,
    };
    let imm = if p.counts_table4() {
        Some(ImmClasses { cmp: r.u64()?, alu: r.u64()?, mem: r.u64()? })
    } else {
        None
    };
    r.finish()?;
    // The record was validated against the pinned checksum when it was
    // written, but re-check: a record that disagrees cannot be served.
    if p.source.expected().is_some_and(|expected| exit != expected) {
        return None;
    }
    Some(Measurement {
        workload: p.source.name(),
        target: p.target.label(),
        exit,
        size_bytes,
        text_bytes,
        stats,
        ireq_bus32,
        ireq_bus64,
        tele,
        grid,
        imm,
    })
}

/// Serializes a swept cache grid: the sweep-level counters plus each
/// system's configurations and aggregate statistics. Per-cache telemetry
/// is *not* stored — [`d16_mem::Cache::from_stats`] rebuilds it from the
/// aggregates, reconciled by construction.
fn write_grid(w: &mut Writer, grid: &CacheGrid) {
    write_counter_values(w, &grid.sweep);
    w.u64(grid.systems.len() as u64);
    for s in &grid.systems {
        write_cache_half(w, s.iconfig(), s.icache());
        write_cache_half(w, s.dconfig(), s.dcache());
    }
}

/// Deserializes a swept grid; `None` on structural damage, statistics
/// [`CacheSystem::from_stats`] rejects as inconsistent, or systems that
/// are not exactly today's [`cache_grid_configs`], in order.
fn read_grid(r: &mut Reader<'_>) -> Option<CacheGrid> {
    let sweep = read_counter_values(r, &BANK_SCHEMA)?;
    let configs = cache_grid_configs();
    if usize::try_from(r.u64()?).ok()? != configs.len() {
        return None;
    }
    let mut systems = Vec::with_capacity(configs.len());
    for want in &configs {
        let (icfg, istats) = read_cache_half(r)?;
        let (dcfg, dstats) = read_cache_half(r)?;
        if (icfg, dcfg) != (*want, *want) {
            return None;
        }
        systems.push(CacheSystem::from_stats(icfg, istats, dcfg, dstats).ok()?);
    }
    Some(CacheGrid { systems, sweep })
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
// FPU-sweep and pipeline-sweep records
// ---------------------------------------------------------------------

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
    use crate::experiments::table4_target;
    use crate::plan::Source;

    fn cell(name: &str, target: TargetSpec, cache_grid: bool) -> Plan<'static> {
        Plan {
            source: Source::Workload(d16_workloads::by_name(name).unwrap()),
            target,
            cache_grid,
            ..Plan::default()
        }
    }

    #[test]
    fn cell_roundtrips_with_and_without_observers() {
        for plan in [
            cell("towers", TargetSpec::d16(), true),
            cell("towers", TargetSpec::d16(), false),
            cell("towers", table4_target(), false),
        ] {
            let m = plan.measure().unwrap();
            assert_eq!(m.grid.is_some(), plan.cache_grid);
            assert_eq!(m.imm.is_some(), plan.counts_table4());
            let bytes = encode_cell(&m);
            let back = decode_cell(&bytes, &plan).unwrap();
            assert_eq!(back.exit, m.exit);
            assert_eq!(back.target, m.target);
            assert_eq!((back.size_bytes, back.text_bytes), (m.size_bytes, m.text_bytes));
            assert_eq!(back.stats, m.stats);
            assert_eq!((back.ireq_bus32, back.ireq_bus64), (m.ireq_bus32, m.ireq_bus64));
            assert_eq!(back.tele.values(), m.tele.values());
            assert_eq!(back.imm, m.imm, "Table 4 counts restore");
            assert_eq!(back.grid.is_some(), m.grid.is_some());
            if let (Some(b), Some(g)) = (&back.grid, &m.grid) {
                assert_eq!(b.sweep.values(), g.sweep.values());
                for (x, y) in b.systems.iter().zip(&g.systems) {
                    assert_eq!((x.icache(), x.dcache()), (y.icache(), y.dcache()));
                }
            }
            // A record only serves the plan shape it was computed for.
            let other = Plan { cache_grid: !plan.cache_grid, ..plan.clone() };
            assert!(decode_cell(&bytes, &other).is_none());
        }
    }

    #[test]
    fn cell_decode_rejects_damage_and_wrong_checksum() {
        let plan = cell("towers", TargetSpec::d16(), true);
        let m = plan.measure().unwrap();
        let bytes = encode_cell(&m);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_cell(&bytes[..cut], &plan).is_none(), "cut at {cut}");
        }
        // A record whose exit disagrees with the pinned checksum must
        // not be served, even if structurally intact.
        let mut wrong = m.clone();
        wrong.exit += 1;
        assert!(decode_cell(&encode_cell(&wrong), &plan).is_none());

        // Records an older build committed under the same keys. An
        // untraced cell ended in a zero byte, as an ungridded cell does
        // now, so it is still served. A traced cell ended in byte 1, the
        // trace length and the encoded trace; a `DLXe/16/2` cell ended
        // without Table 4 counts. Both must miss, so they are recomputed
        // and re-committed rather than served as wrong cells.
        let plain = cell("towers", TargetSpec::d16(), false);
        let old_plain = encode_cell(&plain.measure().unwrap());
        assert_eq!(old_plain.last(), Some(&0));
        assert!(decode_cell(&old_plain, &plain).is_some(), "unchanged records still serve");
        let mut trace = d16_sim::TraceRecorder::new();
        d16_sim::Machine::load(&plain.build().unwrap()).run(FUEL, &mut trace).unwrap();
        let mut old_traced = Writer::new();
        old_traced.bool(true).u64(trace.len() as u64).bytes(trace.encoded_bytes());
        let old_traced = [&old_plain[..old_plain.len() - 1], &old_traced.into_bytes()].concat();
        assert!(decode_cell(&old_traced, &plan).is_none(), "a traced record misses");
        let t4 = cell("towers", table4_target(), false);
        let old_t4 = encode_cell(&Measurement { imm: None, ..t4.measure().unwrap() });
        assert!(decode_cell(&old_t4, &t4).is_none(), "a count-less DLXe/16/2 record misses");
    }

    #[test]
    fn keys_separate_cells_and_artifact_kinds() {
        let towers = cell("towers", TargetSpec::d16(), false);
        let queens = cell("queens", TargetSpec::d16(), false);
        let base = cell_key(&towers);
        assert_eq!(base, cell_key(&towers.clone()));
        assert_ne!(
            base,
            cell_key(&Plan { cache_grid: true, ..towers.clone() }),
            "sweeping the grid changes the record"
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
        assert_ne!(fpu_key(&towers), fpu_key(&queens));
        assert_ne!(psweep_key(&towers), psweep_key(&queens));
    }

    /// Keys are the store's on-disk addresses: a change here orphans
    /// every existing store. These are the keys existing stores hold for
    /// towers on D16/16/2 at O2 (the telemetry mode folds into the cell
    /// keys, so each mode has its own values).
    #[test]
    fn keys_do_not_move() {
        let w = d16_workloads::by_name("towers").unwrap();
        let plan = cell("towers", TargetSpec::d16(), false);
        let build = d16_cc::build_key(&[w.source], &TargetSpec::d16());
        assert_eq!(build.hex(), "2c4bf3fb3bd62d32d75acec0759432d8");
        assert_eq!(image_key(&plan), build, "an O2 image keeps the toolchain's key");
        let (cell_plain, cell_swept) = if d16_telemetry::ENABLED {
            ("a25255d4a59d00ad7bc0309b7ed61de6", "a25255d4a69d00ad7bc0309b7ed61f21")
        } else {
            ("2f48476e1db4cce2cfc45d4399895d27", "2f48476e1cb4cce2cfc45d4399895bec")
        };
        assert_eq!(cell_key(&plan).hex(), cell_plain);
        assert_eq!(cell_key(&Plan { cache_grid: true, ..plan.clone() }).hex(), cell_swept);
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
        let grid = cell("towers", TargetSpec::d16(), true).measure().unwrap().grid.unwrap();
        let mut w = Writer::new();
        write_grid(&mut w, &grid);
        let bytes = w.into_bytes();
        let back = read_grid(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.systems.len(), grid.systems.len());
        for (b, s) in back.systems.iter().zip(&grid.systems) {
            assert_eq!(b.iconfig(), s.iconfig());
            assert_eq!(b.icache(), s.icache());
            assert_eq!(b.dcache(), s.dcache());
            b.reconciles().unwrap();
        }
        assert_eq!(back.sweep.values(), grid.sweep.values());
        // Structural damage decodes to None, never a bad grid; so does a
        // grid over other configurations than today's.
        for cut in [0, 9, bytes.len() - 1] {
            assert!(read_grid(&mut Reader::new(&bytes[..cut])).is_none(), "cut at {cut}");
        }
        let mut short = grid.clone();
        short.systems.pop();
        let mut w = Writer::new();
        write_grid(&mut w, &short);
        assert!(read_grid(&mut Reader::new(&w.into_bytes())).is_none());
    }
}
