//! Traced calls into the layers, shared by the workloads' traced runs,
//! and the per-layer metrics computed from the spans.

use crate::trace::{self, Accounting, Span, Tracer};
use crate::{Args, Metric, Outcome};
use d16_asm::Image;
use d16_cc::{OptLevel, TargetSpec};
use d16_sim::{AccessSink, Engine, EngineCounter, Machine, PipelineSpec, StopReason};
use std::collections::BTreeMap;

/// Compiles, assembles and links one source with a span per layer call.
/// `cc.parse` is timed by parsing the sources on their own first;
/// `compile_to_asm_with` parses them again, so the compile time
/// reported is the `cc.compile` span minus `cc.parse`.
pub fn build(
    t: &Tracer,
    req: u64,
    src: &str,
    spec: &TargetSpec,
    opt: OptLevel,
) -> Result<Image, String> {
    t.span("cc.parse", req, || {
        let mut prog = d16_cc::Program::default();
        d16_cc::parse_into(&mut prog, src)?;
        d16_cc::parse_into(&mut prog, d16_cc::RUNTIME_C)
    })
    .map_err(|e| format!("parse: {e}"))?;
    let asm = t
        .span("cc.compile", req, || d16_cc::compile_to_asm_with(&[src], spec, opt))
        .map_err(|e| e.to_string())?;
    t.add("cc.compiles", 1.0);
    t.add("cc.asm_bytes", asm.len() as f64);
    let obj = t
        .span("asm.assemble", req, || d16_asm::assemble(spec.isa, &asm))
        .map_err(|e| format!("assemble: {e}"))?;
    let image = t
        .span("asm.link", req, || d16_asm::link(spec.isa, &[obj]))
        .map_err(|e| format!("link: {e}"))?;
    t.add("asm.images", 1.0);
    t.add("asm.text_bytes", image.text.len() as f64);
    Ok(image)
}

/// Loads and runs an image under `engine` inside a `sim.*` span,
/// returning the stopped machine.
pub fn execute(
    t: &Tracer,
    req: u64,
    image: &Image,
    engine: Engine,
    pspec: PipelineSpec,
    fuel: u64,
    sink: &mut impl AccessSink,
) -> (Machine, Result<StopReason, d16_sim::SimError>) {
    let name = match engine {
        Engine::Blocks => "sim.blocks",
        Engine::Interp => "sim.interp",
    };
    let (m, stop) = t.span(name, req, || {
        let mut m = load(t, req, image);
        m.set_pipeline(pspec);
        let stop = m.run_with(engine, fuel, sink);
        (m, stop)
    });
    count_execution(t, engine, &m);
    (m, stop)
}

/// `Machine::load` in its own span, inside the engine's span: it zeroes
/// the machine's 16 MiB memory before the program runs.
pub fn load(t: &Tracer, req: u64, image: &Image) -> Machine {
    t.span("sim.load", req, || Machine::load(image))
}

/// Adds one finished run's instruction and block-cache counts.
pub fn count_execution(t: &Tracer, engine: Engine, m: &Machine) {
    let insns = m.stats().insns as f64;
    t.add("sim.insns", insns);
    match engine {
        Engine::Blocks => {
            t.add("sim.blocks_insns", insns);
            if let Some(c) = m.engine_telemetry() {
                t.add("sim.block_hits", c.get(EngineCounter::CacheHits) as f64);
                t.add("sim.block_misses", c.get(EngineCounter::CacheMisses) as f64);
            }
        }
        Engine::Interp => t.add("sim.interp_insns", insns),
    }
}

/// Counts that must repeat exactly for one seed and build.
const EXACT: [&str; 7] = [
    "cc.asm_bytes",
    "asm.text_bytes",
    "sim.insns",
    "sim.trace_records",
    "mem.grid_accesses",
    "core.cells",
    "store.hits",
];

/// Ends a traced run: prints the layer table, sets the per-layer
/// metrics, records the exact counts for the determinism check and
/// writes the spans.
pub fn finish(
    t: Tracer,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    args: &Args,
    out: &mut Outcome,
) -> Result<(), String> {
    let (spans, counts) = t.finish();
    let acct = trace::account(&spans, (traced_wall_s * 1e9) as u64);
    let view =
        Traced { spans: &spans, counts: &counts, acct: &acct, traced_wall_s, untraced_wall_s };
    view.print_layers();
    out.metrics = view.metrics();
    for name in EXACT {
        out.determinism.insert(format!("traced.{name}"), view.count(name) as u64);
    }
    let path = crate::work_root().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    Ok(())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Everything the per-layer report needs from one traced run.
struct Traced<'a> {
    spans: &'a [Span],
    counts: &'a BTreeMap<&'static str, f64>,
    acct: &'a Accounting,
    traced_wall_s: f64,
    untraced_wall_s: f64,
}

impl Traced<'_> {
    /// Σ durations of the spans named `name`, in seconds.
    fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e9
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn self_s(&self, layer: &str) -> f64 {
        self.acct.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9
    }

    /// The per-layer metrics, in the order of `BENCHMARK.json`.
    fn metrics(&self) -> Vec<Metric> {
        let parse = self.total_s("cc.parse");
        let blocks = self.total_s("sim.blocks");
        let interp = self.total_s("sim.interp");
        let replay = self.total_s("mem.grid_replay");
        let accesses = self.count("mem.grid_accesses");
        let hits = self.count("store.hits");
        let misses = self.count("store.misses");
        let cell_busy = self.total_s("core.cell");
        let collect_wall = self.total_s("core.collect") + self.total_s("core.collect_extended");
        let mut m: Vec<Metric> = vec![
            ("cc.parse_s", parse, "s"),
            ("cc.compile_s", self.total_s("cc.compile") - parse, "s"),
            ("cc.compiles", self.count("cc.compiles"), "count"),
            ("cc.asm_bytes", self.count("cc.asm_bytes"), "bytes"),
            ("asm.assemble_s", self.total_s("asm.assemble"), "s"),
            ("asm.link_s", self.total_s("asm.link"), "s"),
            ("asm.images", self.count("asm.images"), "count"),
            ("asm.text_bytes", self.count("asm.text_bytes"), "bytes"),
            ("sim.blocks_s", blocks, "s"),
            (
                "sim.blocks_minsn_per_s",
                ratio(self.count("sim.blocks_insns") / 1e6, blocks),
                "Minsn/s",
            ),
            (
                "sim.block_hit_ratio",
                ratio(
                    self.count("sim.block_hits"),
                    self.count("sim.block_hits") + self.count("sim.block_misses"),
                ),
                "ratio",
            ),
            ("sim.interp_s", interp, "s"),
            (
                "sim.interp_minsn_per_s",
                ratio(self.count("sim.interp_insns") / 1e6, interp),
                "Minsn/s",
            ),
            ("sim.insns", self.count("sim.insns"), "count"),
            ("sim.load_s", self.total_s("sim.load"), "s"),
            (
                "sim.trace_record_s",
                self.count("sim.recorded_s") - self.total_s("probe.trace_baseline"),
                "s",
            ),
            ("sim.trace_records", self.count("sim.trace_records"), "count"),
            ("sim.trace_bytes", self.count("sim.trace_bytes"), "bytes"),
            ("mem.grid_replay_s", replay, "s"),
            ("mem.grid_accesses", accesses, "count"),
            ("mem.grid_maccess_per_s", ratio(accesses / 1e6, replay), "Maccess/s"),
            ("core.collect_s", self.total_s("core.collect"), "s"),
            ("core.collect_extended_s", self.total_s("core.collect_extended"), "s"),
            ("core.cache_grid_s", self.total_s("core.cache_grid"), "s"),
            ("core.table4_s", self.total_s("core.table4"), "s"),
            ("core.fpu_sweep_s", self.total_s("core.fpu_sweep"), "s"),
            ("core.pipeline_sweep_s", self.total_s("core.pipeline_sweep"), "s"),
            ("core.cells", self.count("core.cells"), "count"),
            ("core.jobs_efficiency", ratio(cell_busy, crate::JOBS as f64 * collect_wall), "ratio"),
            ("core.other_s", self.count("core.other_s"), "s"),
            ("store.hits", hits, "count"),
            ("store.misses", misses, "count"),
            ("store.writes", self.count("store.writes"), "count"),
            ("store.hit_ratio", ratio(hits, hits + misses), "ratio"),
            ("serve.hit_s", self.total_s("store.hit"), "s"),
            ("serve.parse_s", self.total_s("serve.parse"), "s"),
            ("serve.run_s", self.total_s("serve.run") + self.total_s("store.hit"), "s"),
            ("serve.compile_s", self.count("serve.compile_s"), "s"),
            ("serve.execute_s", self.count("serve.execute_s"), "s"),
            ("serve.sweep_s", self.count("serve.sweep_s"), "s"),
            ("serve.wait_s", self.count("serve.wait_s"), "s"),
            ("serve.shed", self.count("serve.shed"), "count"),
            ("fuzz.gen_s", self.total_s("fuzz.gen"), "s"),
            ("fuzz.reference_s", self.total_s("fuzz.reference"), "s"),
        ];
        for layer in ["cc", "asm", "sim", "mem", "core", "store", "serve", "fuzz", "probe"] {
            m.push((self_metric(layer), self.self_s(layer), "s"));
        }
        m.push(("trace.overlap_s", self.acct.overlap_ns as f64 / 1e9, "s"));
        m.push(("trace.residual_s", self.acct.residual_ns as f64 / 1e9, "s"));
        m.push(("trace.wall_s", self.traced_wall_s, "s"));
        m.push(("trace.untraced_wall_s", self.untraced_wall_s, "s"));
        m.push(("trace.overhead_s", self.traced_wall_s - self.untraced_wall_s, "s"));
        m
    }

    /// A human-readable table of the layers' self times, each with its
    /// share of all spans' self time (thread-seconds: two threads busy
    /// for one second count two).
    fn print_layers(&self) {
        let busy: f64 = self.acct.self_ns.values().map(|&n| n as f64 / 1e9).sum();
        println!("layer self times (traced wall {:.3} s, {busy:.3} s busy):", self.traced_wall_s);
        let mut rows: Vec<(&String, &u64)> = self.acct.self_ns.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        for (layer, ns) in rows {
            let s = *ns as f64 / 1e9;
            println!("  {layer:<8} {s:>9.3} s  {:>5.1}%", s / busy.max(1e-9) * 100.0);
        }
        let overlap = self.acct.overlap_ns as f64 / 1e9;
        let residual = self.acct.residual_ns as f64 / 1e9;
        println!("  overlap  {:>9.3} s  (children running in parallel)", -overlap);
        println!("  residual {residual:>9.3} s  (no span)");
        println!("  = wall   {:>9.3} s", busy - overlap + residual);
    }
}

fn self_metric(layer: &str) -> &'static str {
    match layer {
        "cc" => "self.cc_s",
        "asm" => "self.asm_s",
        "sim" => "self.sim_s",
        "mem" => "self.mem_s",
        "core" => "self.core_s",
        "store" => "self.store_s",
        "serve" => "self.serve_s",
        "fuzz" => "self.fuzz_s",
        _ => "self.probe_s",
    }
}
