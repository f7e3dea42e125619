//! `paper-cold`: `repro --all --no-store --jobs 2` in a fresh process,
//! the run every reproduction user pays for. Its stdout must equal the
//! committed `results.txt` byte for byte.
//!
//! The traced run repeats the same work in this process, calling the
//! layers one by one: every cell of both grids is compiled, assembled,
//! linked and executed on two worker threads, the nine cache-benchmark
//! traces are replayed into the 20-configuration cache bank, and the
//! Table 4, FPU-latency and pipeline sweeps are re-run.

use crate::layers;
use crate::trace::Tracer;
use crate::{fastest, fresh_dir, median, proc, Args, Outcome};
use d16_bench::json::Json;
use d16_cc::{OptLevel, TargetSpec};
use d16_core::experiments as ex;
use d16_core::measure::FUEL;
use d16_sim::{AccessSink, Engine, NullSink, PipelineSpec, StopReason, TraceRecorder};
use d16_workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is the fastest.
const SETUPS: usize = 1001;

/// Requested seconds per `repro --all` run: one run takes 21–37 s on the
/// machine the benchmark was designed on.
const SECONDS_PER_REPRO: u64 = 30;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, expected) = setup()?;
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    // The traced run checks its counts against the report of a real run,
    // and takes the time outside repro's own phases from it.
    let mut report = None;
    // One `repro --all` is the unit of work. How many units run depends
    // on `--seconds` alone, not on how fast the host is at the moment,
    // so every run of one `--seconds` does the same work.
    for _ in 0..(args.seconds / SECONDS_PER_REPRO).max(1) {
        let dir = fresh_dir("paper-cold")?;
        let bench_json = (args.trace && report.is_none()).then(|| dir.join("bench.json"));
        let r = run_repro(&dir, &expected, bench_json.as_deref(), &mut out)?;
        if let Some(path) = bench_json {
            report = Some(Report::read(&path, &dir.join("stderr.txt"), r.wall_s)?);
        }
        walls.push(r.wall_s);
        rss.push(r.peak_rss_mb);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    let untraced_wall = median(&walls);
    if args.trace {
        let t = Tracer::new();
        let t0 = Instant::now();
        let counted = traced(&t, &mut out);
        let traced_wall = t0.elapsed().as_secs_f64();
        let report = report.expect("a traced run keeps one repro report");
        out.attempted += 1;
        if let Err(e) = counted.matches(&report.json) {
            out.failed += 1;
            out.fail(format!("the traced run no longer does what repro does: {e}"));
        }
        t.add("core.other_s", report.other_s);
        layers::finish(t, traced_wall, untraced_wall, args, &mut out)?;
    } else {
        out.metrics = vec![
            ("wall_s", untraced_wall, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", median(&rss), "MB"),
            // The timed phase is one batch operation.
            ("p50_ms", untraced_wall * 1e3, "ms"),
            ("p99_ms", untraced_wall * 1e3, "ms"),
        ];
    }
    Ok(out)
}

/// The set-up the timed phase depends on: a fresh output directory and
/// the oracle loaded into memory, repeated `SETUPS` times; returns the
/// fastest and the oracle.
fn setup() -> Result<(f64, Vec<u8>), String> {
    let mut times = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let dir = fresh_dir("paper-cold")?;
        expected = std::fs::read("results.txt").map_err(|e| format!("results.txt: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    Ok((fastest(&times), expected))
}

/// Runs `repro` once; counts the run and its output check as two
/// operations.
fn run_repro(
    dir: &Path,
    expected: &[u8],
    bench_json: Option<&Path>,
    out: &mut Outcome,
) -> Result<proc::Exit, String> {
    let stdout = dir.join("stdout.txt");
    let stderr = dir.join("stderr.txt");
    let file =
        |p: &Path| std::fs::File::create(p).map_err(|e| format!("creating {}: {e}", p.display()));
    let mut cmd = Command::new(crate::bin_dir().join("repro"));
    cmd.args(["--all", "--no-store", "--jobs", &crate::JOBS.to_string()])
        .stdin(Stdio::null())
        .stdout(file(&stdout)?)
        .stderr(file(&stderr)?);
    if let Some(p) = bench_json {
        cmd.arg("--bench-json").arg(p);
    }
    let exit = proc::spawn(&mut cmd)?.wait(Duration::from_secs(170))?;
    out.attempted += 2;
    if exit.code != Some(0) {
        out.failed += 1;
        out.fail(format!("repro exited with {:?}", exit.code));
    }
    let got = std::fs::read(&stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    if got != expected {
        out.failed += 1;
        out.fail("repro stdout differs from results.txt");
    }
    Ok(exit)
}

/// The sink of a measured cell: both fetch-buffer bus models plus an
/// optional trace recorder, as `d16-core` measures a cell.
struct CellSink<'a> {
    fb32: d16_mem::FetchBuffer,
    fb64: d16_mem::FetchBuffer,
    rec: Option<&'a mut TraceRecorder>,
}

impl AccessSink for CellSink<'_> {
    fn fetch(&mut self, addr: u32, bytes: u8) {
        self.fb32.fetch(addr, bytes);
        self.fb64.fetch(addr, bytes);
        if let Some(r) = &mut self.rec {
            r.fetch(addr, bytes);
        }
    }
    fn read(&mut self, addr: u32, bytes: u8) {
        self.fb32.read(addr, bytes);
        self.fb64.read(addr, bytes);
        if let Some(r) = &mut self.rec {
            r.read(addr, bytes);
        }
    }
    fn write(&mut self, addr: u32, bytes: u8) {
        self.fb32.write(addr, bytes);
        self.fb64.write(addr, bytes);
        if let Some(r) = &mut self.rec {
            r.write(addr, bytes);
        }
    }
}

fn cell_sink(rec: Option<&mut TraceRecorder>) -> CellSink<'_> {
    CellSink { fb32: d16_mem::FetchBuffer::new(4), fb64: d16_mem::FetchBuffer::new(8), rec }
}

type Traces = Mutex<BTreeMap<(usize, usize), TraceRecorder>>;

/// One grid cell, as `Suite` collects it: build, run on the block
/// engine (recording the trace for cache-benchmark cells on the
/// unrestricted machines), check the pinned checksum. Returns the
/// instructions executed and the trace.
fn cell(
    t: &Tracer,
    req: u64,
    w: &Workload,
    spec: &TargetSpec,
    want_trace: bool,
) -> Result<(u64, Option<TraceRecorder>), String> {
    t.span("core.cell", req, || {
        let image = layers::build(t, req, w.source, spec, OptLevel::O2)?;
        let pspec = PipelineSpec::default();
        let mut rec = TraceRecorder::new();
        let t0 = Instant::now();
        let (m, stop) = layers::execute(
            t,
            req,
            &image,
            Engine::Blocks,
            pspec,
            FUEL,
            &mut cell_sink(want_trace.then_some(&mut rec)),
        );
        let exit = match stop.map_err(|e| e.to_string())? {
            StopReason::Halted(v) => v,
            StopReason::OutOfFuel => return Err("out of fuel".into()),
        };
        if w.expected.is_some_and(|e| e != exit) {
            return Err(format!("checksum {exit}, expected {:?}", w.expected));
        }
        let insns = m.stats().insns;
        if !want_trace {
            return Ok((insns, None));
        }
        t.add("sim.recorded_s", t0.elapsed().as_secs_f64());
        // The cost of recording: the same cell again, without a recorder.
        t.span("probe.trace_baseline", req, || {
            let mut m = d16_sim::Machine::load(&image);
            m.run_with(Engine::Blocks, FUEL, &mut cell_sink(None))
        })
        .map_err(|e| e.to_string())?;
        // `d16-core` revalidates every recorded stream through the codec.
        let checked = t
            .span("sim.trace_check", req, || {
                TraceRecorder::from_encoded(rec.encoded_bytes().to_vec(), rec.len())
            })
            .map_err(|e| format!("trace: {e}"))?;
        t.add("sim.trace_records", checked.len() as f64);
        t.add("sim.trace_bytes", checked.encoded_bytes().len() as f64);
        Ok((insns, Some(checked)))
    })
}

/// Collects `workloads × standard_specs` on `JOBS` threads under a
/// `phase` span; `trace_cache` records the cache-benchmark traces.
/// Returns the instructions the cells executed.
fn collect(
    t: &Tracer,
    phase: &'static str,
    workloads: &[Workload],
    trace_cache: bool,
    traces: &Traces,
    out: &Mutex<&mut Outcome>,
) -> u64 {
    let specs = d16_core::standard_specs();
    let items: Vec<(usize, usize)> =
        (0..workloads.len()).flat_map(|w| (0..specs.len()).map(move |s| (w, s))).collect();
    let insns = std::sync::atomic::AtomicU64::new(0);
    t.span(phase, 0, || {
        let parent = Tracer::current();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..crate::JOBS {
                scope.spawn(|| {
                    Tracer::with_parent(parent, || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(wi, si)) = items.get(i) else { break };
                        let (w, spec) = (&workloads[wi], &specs[si]);
                        let unrestricted = *spec == TargetSpec::d16()
                            || *spec == TargetSpec::dlxe()
                            || *spec == TargetSpec::d16x();
                        let want_trace = trace_cache && w.cache_benchmark && unrestricted;
                        let r = cell(t, i as u64, w, spec, want_trace);
                        t.add("core.cells", 1.0);
                        let mut o = out.lock().expect("outcome lock poisoned");
                        o.attempted += 1;
                        match r {
                            Ok((n, rec)) => {
                                insns.fetch_add(n, Ordering::Relaxed);
                                if let Some(rec) = rec {
                                    traces
                                        .lock()
                                        .expect("trace map poisoned")
                                        .insert((wi, si), rec);
                                }
                            }
                            Err(e) => {
                                o.failed += 1;
                                o.fail(format!("traced cell {} on {}: {e}", w.name, spec.label()));
                            }
                        }
                    })
                });
            }
        });
    });
    insns.into_inner()
}

/// What one untraced `repro --bench-json` run reports about itself.
struct Report {
    json: Json,
    /// The run's wall time outside the phases repro times itself (the
    /// two collections and the cache grids): start-up, Table 4, the FPU
    /// and pipeline sweeps, and printing the figures and tables.
    other_s: f64,
}

impl Report {
    fn read(path: &Path, stderr: &Path, wall_s: f64) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let ns = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0) / 1e9;
        let collect_s = ns(json.get("collect_ns"));
        let grid_s = ns(json.get("cache_grid").and_then(|g| g.get("ns")));
        // The extended collection is timed only in the progress lines,
        // `collected in 1.4s`; the second one is the extended grid's.
        let log = std::fs::read_to_string(stderr).map_err(|e| format!("repro stderr: {e}"))?;
        let extended_s = log
            .lines()
            .filter_map(|l| l.strip_prefix("collected in ")?.strip_suffix('s')?.parse::<f64>().ok())
            .nth(1)
            .ok_or("repro printed no extended collection time")?;
        Ok(Report { json, other_s: wall_s - collect_s - extended_s - grid_s })
    }
}

/// The counts of the traced run that `repro --bench-json` also reports.
/// The traced run repeats `d16-core`'s work by calling the layers
/// itself; if the two ever disagree, the layer figures describe code
/// `repro` no longer runs.
#[derive(Debug)]
struct Counted {
    /// Instructions executed by the paper-grid cells.
    grid_insns: u64,
    /// Cache-benchmark traces recorded and replayed.
    traces: u64,
    /// Records replayed into each cache configuration.
    grid_accesses: u64,
}

impl Counted {
    fn matches(&self, dump: &Json) -> Result<(), String> {
        let counters = dump.get("counters").and_then(Json::as_obj).ok_or("no counters")?;
        let counter = |name: &str| {
            counters.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.as_u64()).unwrap_or(0)
        };
        // Every cache access lands in one `grid.<cell>.cfg.<config>`
        // hit or miss counter, for every configuration.
        let accesses: u64 = counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with("grid.")
                    && (k.ends_with(".read.hits")
                        || k.ends_with(".read.misses")
                        || k.ends_with(".write.hits")
                        || k.ends_with(".write.misses"))
            })
            .filter_map(|(_, v)| v.as_u64())
            .sum();
        let want = Counted {
            grid_insns: counter("sim.stage.id.insns") + counter("simx.stage.id.insns"),
            traces: dump.get("traces").and_then(Json::as_u64).ok_or("no trace count")?,
            grid_accesses: accesses / ex::cache_grid_configs().len() as u64,
        };
        let mine = (self.grid_insns, self.traces, self.grid_accesses);
        if mine == (want.grid_insns, want.traces, want.grid_accesses) {
            Ok(())
        } else {
            Err(format!("traced {self:?}, repro {want:?}"))
        }
    }
}

/// The traced run: the work of `repro --all --no-store`, layer by layer.
fn traced(t: &Tracer, out: &mut Outcome) -> Counted {
    let traces: Traces = Mutex::new(BTreeMap::new());
    let grid_insns = {
        let shared = Mutex::new(&mut *out);
        let grid = collect(t, "core.collect", d16_workloads::SUITE, true, &traces, &shared);
        collect(t, "core.collect_extended", d16_workloads::EXTRAS, false, &traces, &shared);
        grid
    };
    let traces = traces.into_inner().expect("trace map poisoned");
    let mut grid_accesses = 0;
    t.span("core.cache_grid", 0, || {
        for (i, rec) in traces.values().enumerate() {
            t.span("mem.grid_replay", i as u64, || {
                let mut bank = d16_mem::CacheBank::symmetric(&ex::cache_grid_configs())
                    .expect("the cache grid configurations are valid");
                rec.replay(&mut bank);
                std::hint::black_box(bank.systems().len());
            });
            t.add("mem.grid_accesses", rec.len() as f64);
            grid_accesses += rec.len() as u64;
        }
    });
    out.attempted += 1;
    if let Err((w, e)) = t.span("core.table4", 0, ex::table4_immediate_profile) {
        out.failed += 1;
        out.fail(format!("table 4 on {w}: {e}"));
    }
    t.span("core.fpu_sweep", 0, || {
        for name in ["whetstone", "linpack"] {
            out.attempted += 1;
            if let Err(e) = fpu_sweep(t, name) {
                out.failed += 1;
                out.fail(format!("fpu sweep {name}: {e}"));
            }
        }
    });
    t.span("core.pipeline_sweep", 0, || {
        for name in ["towers", "assem"] {
            out.attempted += 1;
            if let Err(e) = pipeline_sweep(t, name) {
                out.failed += 1;
                out.fail(format!("pipeline sweep {name}: {e}"));
            }
        }
    });
    Counted { grid_insns, traces: traces.len() as u64, grid_accesses }
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    d16_workloads::by_name(name).ok_or_else(|| format!("no workload {name}"))
}

/// `experiments::fpu_latency_sweep`: five multiply latencies on D16 and
/// DLXe, on the interpreter.
fn fpu_sweep(t: &Tracer, name: &str) -> Result<(), String> {
    let w = workload(name)?;
    let images = [
        layers::build(t, 0, w.source, &TargetSpec::d16(), OptLevel::O2)?,
        layers::build(t, 0, w.source, &TargetSpec::dlxe(), OptLevel::O2)?,
    ];
    for mul in [1u64, 2, 4, 8, 16] {
        let lat = d16_sim::FpuLatency { add: 2, mul, div_s: mul * 3, div_d: mul * 3 + 4, cvt: 2 };
        for image in &images {
            let (m, stop) = t.span("sim.interp", mul, || {
                let mut m = layers::load(t, mul, image);
                m.set_fpu_latency(lat);
                let stop = m.run(FUEL, &mut NullSink);
                (m, stop)
            });
            layers::count_execution(t, Engine::Interp, &m);
            stop.map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `experiments::pipeline_sweep`: one interpreter pass per standard
/// target with the depth × predictor × fetch collector attached.
fn pipeline_sweep(t: &Tracer, name: &str) -> Result<(), String> {
    let w = workload(name)?;
    for spec in d16_core::standard_specs() {
        let image = layers::build(t, 0, w.source, &spec, OptLevel::O2)?;
        let (m, stop) = t.span("sim.interp", 0, || {
            let mut m = layers::load(t, 0, &image);
            m.attach_pipeline_sweep(d16_sim::PipelineSweep::new());
            let stop = m.run(FUEL, &mut NullSink);
            let sweep = m.take_pipeline_sweep().map(|s| s.finish());
            std::hint::black_box(sweep);
            (m, stop)
        });
        layers::count_execution(t, Engine::Interp, &m);
        match stop.map_err(|e| e.to_string())? {
            StopReason::Halted(_) => {}
            StopReason::OutOfFuel => return Err(format!("{name} on {}: no halt", spec.label())),
        }
    }
    Ok(())
}
