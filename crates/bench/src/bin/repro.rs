//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro --all                # everything (the default)
//! repro --fig 4              # one figure
//! repro --table 11           # one table
//! repro --jobs 4             # worker threads (default: all cores)
//! repro --smoke              # tiny 2-workload x 2-target run
//! repro --only towers,assem  # collect only the named workloads
//! repro --engine interp      # per-instruction engine (default: blocks)
//! repro --pipeline-sweep     # depth x predictor sweep tables
//! repro --extended           # extended-suite distribution tables
//! repro --pipeline-depth 8   # retime the whole grid (3..8; default 5)
//! repro --pipeline-predictor twobit   # none | taken | twobit
//! repro --pipeline-fetch 4   # fetch width in halfwords (1, 2 or 4)
//! repro --store DIR          # incremental: reuse artifacts across runs
//! repro --no-store           # override an earlier --store
//! repro --store-verify       # integrity-sweep the store before running
//! repro --bench-json FILE    # write a machine-readable timing report
//! repro --metrics-json FILE  # write the deterministic telemetry dump
//! repro --list               # what is available
//! ```
//!
//! Output is plain text, one block per table/figure, in the paper's
//! numbering. See EXPERIMENTS.md for paper-vs-measured commentary, the
//! `bench_repro/4` schema of the two JSON reports, and the README's
//! Performance section for how to read `BENCH_repro.json`.
//!
//! `--engine` selects the simulator's execution engine (the block-caching
//! `blocks` default or the per-instruction `interp` reference). The two
//! are observationally identical — stdout and `--metrics-json` are
//! byte-for-byte the same either way — so the flag only moves the timing
//! numbers; the timing report records which engine ran.
//!
//! Both JSON reports share the schema tag; they differ in kind. The
//! `--metrics-json` dump is the deterministic projection (counters and
//! span counts — byte-identical for every `--jobs N`, CI diffs it); the
//! `--bench-json` report adds the wall-clock half (phase timings, span
//! histograms, per-cell wall times). Store hit/miss accounting rides
//! only in the timing report and on stderr: a warm `--store` run's
//! stdout and `--metrics-json` are byte-identical to a cold run's.
//!
//! Exit codes (see DESIGN.md §"Error taxonomy"):
//!
//! - `0` — every requested figure and table was produced in full.
//! - `1` — nothing could be measured (or a report file was unwritable).
//! - `2` — user error: bad flags, unknown workload, missing directory.
//! - `3` — degraded: the run completed but one or more cells, grids or
//!   reports were skipped; each skip is diagnosed on stderr.

use d16_bench::json::Json;
use d16_bench::report;
use d16_core::report::{f2, f3, pct, Table};
use d16_core::suite::standard_specs;
use d16_core::{base_specs, default_jobs, experiments as ex, Engine, Plan, Source, Suite};
use d16_sim::{PipelineSpec, Predictor, PIPELINE_DEPTHS};
use d16_store::Store;
use d16_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// The value following a value-taking flag, or a clean usage error.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    let v = flag_value(args, i, flag);
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: invalid value `{v}`");
        std::process::exit(2);
    })
}

/// Rejects an output path whose parent directory does not exist — up
/// front, before minutes of collection are spent, naming the flag and the
/// missing directory.
fn ensure_parent_dir(flag: &str, path: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() && !dir.is_dir() {
            eprintln!("{flag}: parent directory `{}` does not exist", dir.display());
            std::process::exit(2);
        }
    }
}

/// Every name `by_name` resolves — the paper's suite then the extension
/// workloads, in registry order. `--only` and `--smoke` accept extension
/// names, so their unknown-workload diagnostics must list them too.
fn valid_workload_names() -> Vec<&'static str> {
    d16_workloads::SUITE.iter().chain(d16_workloads::EXTRAS).map(|w| w.name).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figs: Vec<u32> = Vec::new();
    let mut tables: Vec<u32> = Vec::new();
    let mut fpu_sweep = false;
    let mut pipeline_sweep = false;
    let mut extended = false;
    let mut pspec = PipelineSpec::default();
    let mut d16x = false;
    let mut all = args.is_empty();
    let mut smoke = false;
    let mut jobs = default_jobs();
    let mut bench_json: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut no_store = false;
    let mut store_verify = false;
    let mut only: Vec<String> = Vec::new();
    let mut engine = Engine::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--list" => {
                print_list();
                return;
            }
            "--fpu-sweep" => fpu_sweep = true,
            "--pipeline-sweep" => pipeline_sweep = true,
            "--extended" => extended = true,
            "--pipeline-depth" => pspec.depth = parsed_flag(&args, &mut i, "--pipeline-depth"),
            "--pipeline-predictor" => {
                let v = flag_value(&args, &mut i, "--pipeline-predictor");
                pspec.predictor = Predictor::parse(v).unwrap_or_else(|| {
                    eprintln!(
                        "--pipeline-predictor: unknown predictor `{v}`; valid predictors: none taken twobit"
                    );
                    std::process::exit(2);
                });
            }
            "--pipeline-fetch" => {
                pspec.fetch_width_halfwords = parsed_flag(&args, &mut i, "--pipeline-fetch");
            }
            "--d16x" => d16x = true,
            "--smoke" => smoke = true,
            "--store" => store_dir = Some(flag_value(&args, &mut i, "--store").to_string()),
            "--no-store" => no_store = true,
            "--store-verify" => store_verify = true,
            "--only" => only.extend(
                flag_value(&args, &mut i, "--only")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string),
            ),
            "--engine" => {
                let v = flag_value(&args, &mut i, "--engine");
                engine = Engine::parse(v).unwrap_or_else(|| {
                    eprintln!("--engine: unknown engine `{v}` (blocks or interp)");
                    std::process::exit(2);
                });
            }
            "--fig" => figs.push(parsed_flag(&args, &mut i, "--fig")),
            "--table" => tables.push(parsed_flag(&args, &mut i, "--table")),
            "--jobs" => {
                jobs = parsed_flag(&args, &mut i, "--jobs");
                if jobs == 0 {
                    eprintln!("--jobs must be at least 1");
                    std::process::exit(2);
                }
            }
            "--bench-json" => {
                bench_json = Some(flag_value(&args, &mut i, "--bench-json").to_string());
            }
            "--metrics-json" => {
                metrics_json = Some(flag_value(&args, &mut i, "--metrics-json").to_string());
            }
            other => {
                eprintln!("unknown argument `{other}` (try --list)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Err(e) = pspec.validate() {
        eprintln!("--pipeline-depth/--pipeline-fetch: {e}");
        std::process::exit(2);
    }
    if smoke && all {
        eprintln!("--smoke collects only 2 workloads x 2 targets; it cannot serve --all");
        std::process::exit(2);
    }
    if !only.is_empty() && (smoke || all) {
        eprintln!("--only picks its own workloads; it cannot combine with --smoke or --all");
        std::process::exit(2);
    }
    if extended && (smoke || !only.is_empty()) {
        eprintln!("--extended needs the full grid; it cannot combine with --smoke or --only");
        std::process::exit(2);
    }
    // The extended distribution tables ride along with every full run.
    let extended = extended || all;
    let only_workloads: Vec<&Workload> = only
        .iter()
        .map(|name| {
            d16_workloads::by_name(name).unwrap_or_else(|| {
                let valid: Vec<&str> = valid_workload_names();
                eprintln!("--only: unknown workload `{name}`; valid names: {}", valid.join(" "));
                std::process::exit(2);
            })
        })
        .collect();
    if no_store {
        store_dir = None;
    }
    if store_verify && store_dir.is_none() {
        eprintln!("--store-verify needs a store (pass --store DIR)");
        std::process::exit(2);
    }
    if let Some(p) = &bench_json {
        ensure_parent_dir("--bench-json", p);
    }
    if let Some(p) = &metrics_json {
        ensure_parent_dir("--metrics-json", p);
    }
    if all {
        figs = vec![4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19];
        tables = vec![3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
    } else if smoke && figs.is_empty() && tables.is_empty() {
        // Everything derivable from the two unrestricted targets and the
        // one collected cache benchmark.
        figs = vec![4, 5, 16, 17, 18, 19];
        tables = vec![13, 14];
    } else if !only.is_empty() && figs.is_empty() && tables.is_empty() {
        // Everything derivable from the filtered grid. Table 4 averages
        // over the whole suite, so it stays out of a filtered run unless
        // asked for by number.
        figs = vec![4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19];
        tables = vec![3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
    }

    // --- open the artifact store (incremental runs) --------------------
    let store: Option<Arc<Store>> = store_dir.as_ref().map(|dir| match Store::open(dir.as_str()) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("--store {dir}: {e}");
            std::process::exit(2);
        }
    });
    if store_verify {
        let s = store.as_ref().expect("checked above");
        match s.verify() {
            Ok(r) => eprintln!(
                "store verify: {} scanned, {} ok, {} evicted, {} temps removed, {} stale locks removed",
                r.scanned, r.ok, r.evicted, r.temps_removed, r.locks_removed
            ),
            Err(e) => {
                eprintln!("--store-verify: {e}");
                std::process::exit(2);
            }
        }
    }

    // --- collect (the timed, parallel phase) ---------------------------
    // The `smoke-drift` failpoint simulates the smoke list drifting out
    // of sync with the workload crate (a bug class this lookup guards
    // against): resolve failures are a user-facing diagnostic, not a
    // panic, and use the same shape as the `--only` error path.
    let smoke_names: [&str; 2] = if d16_testkit::faults::armed("smoke-drift").is_some() {
        ["towers", "gone-workload"]
    } else {
        ["towers", "assem"]
    };
    let smoke_workloads: Vec<&Workload> = if smoke {
        smoke_names
            .iter()
            .map(|n| {
                d16_workloads::by_name(n).unwrap_or_else(|| {
                    let valid: Vec<&str> = valid_workload_names();
                    eprintln!("--smoke: unknown workload `{n}`; valid names: {}", valid.join(" "));
                    std::process::exit(2);
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    // One plan for every cell of the run: the grid collections fill in
    // each workload and target, the experiments their own.
    let plan =
        Plan { pipeline: pspec, engine, cache_grid: true, store: store.clone(), ..Plan::default() };
    let paper: Vec<&Workload> = d16_workloads::SUITE.iter().collect();
    let collect = |jobs: usize| {
        if smoke {
            Suite::collect(&plan, &smoke_workloads, &base_specs(), jobs)
        } else if !only_workloads.is_empty() {
            Suite::collect(&plan, &only_workloads, &standard_specs(), jobs)
        } else {
            Suite::collect(&plan, &paper, &standard_specs(), jobs)
        }
    };
    if smoke {
        eprintln!("collecting the smoke grid (2 workloads x 2 targets, {jobs} jobs)...");
    } else if !only_workloads.is_empty() {
        eprintln!(
            "collecting the filtered grid ({} workloads x 6 targets, {jobs} jobs)...",
            only_workloads.len()
        );
    } else {
        eprintln!("collecting the measurement grid (15 workloads x 6 targets, {jobs} jobs)...");
    }
    let start = Instant::now();
    let suite = match collect(jobs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("measurement failed: {e}");
            std::process::exit(1);
        }
    };
    let collect_ns = start.elapsed().as_nanos();
    eprintln!("collected in {:.1}s", collect_ns as f64 / 1e9);

    // --- collect the extension workloads (the extended suite) ----------
    // The extension cells live in their own Suite so the main suite's
    // cell counts, telemetry and metrics dumps stay byte-identical to
    // runs that predate the extended tables. No cache grids: the
    // distribution tables need only static size and path length.
    let xsuite = if extended {
        let extras: Vec<&Workload> = d16_workloads::EXTRAS.iter().collect();
        eprintln!(
            "collecting the extended grid ({} extension workloads x 6 targets, {jobs} jobs)...",
            extras.len()
        );
        let xstart = Instant::now();
        match Suite::collect(
            &Plan { cache_grid: false, ..plan.clone() },
            &extras,
            &standard_specs(),
            jobs,
        ) {
            Ok(s) => {
                eprintln!("collected in {:.1}s", xstart.elapsed().as_nanos() as f64 / 1e9);
                Some(s)
            }
            Err(e) => {
                eprintln!("extended collection failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    // Degraded cells: diagnose each on stderr, keep the rest of the run.
    // The diffable outputs stay clean-run-identical because report
    // functions drop skipped workloads entirely.
    let mut skips: Vec<(String, String, String)> = suite
        .skipped
        .iter()
        .chain(xsuite.iter().flat_map(|x| x.skipped.iter()))
        .map(|s| (s.workload.clone(), s.target.clone(), s.reason.clone()))
        .collect();
    for (w, t, reason) in &skips {
        eprintln!("skipped ({w}, {t}): {reason}");
    }

    // --- the cache grids: swept inside the collected cells, so this
    // phase only looks them up --------------------------------------------
    let start = Instant::now();
    let swept = suite.grids().count();
    let grid_ns = start.elapsed().as_nanos();
    if swept > 0 {
        eprintln!(
            "cache grids ({swept} cells x {} configs) swept during collection",
            ex::cache_grid_configs().len()
        );
    }

    for f in &figs {
        for (w, reason) in print_fig(&suite, *f) {
            let target = format!("figure {f}");
            eprintln!("skipped ({w}, {target}): {reason}");
            skips.push((w, target, reason));
        }
    }
    for t in &tables {
        for (w, reason) in print_table(&suite, *t, &plan) {
            let target = format!("table {t}");
            eprintln!("skipped ({w}, {target}): {reason}");
            skips.push((w, target, reason));
        }
    }
    if fpu_sweep || all {
        for (w, reason) in print_fpu_sweep(&plan) {
            eprintln!("skipped ({w}, fpu sweep): {reason}");
            skips.push((w, "fpu sweep".to_string(), reason));
        }
    }
    if d16x || all {
        print_d16x(&suite);
    }
    // The pipeline sweep prints after the paper's blocks so earlier
    // blocks of a regenerated results.txt stay byte-identical to runs
    // that predate the sweep.
    if pipeline_sweep || all {
        for (w, reason) in print_pipeline_sweep(&plan) {
            eprintln!("skipped ({w}, pipeline sweep): {reason}");
            skips.push((w, "pipeline sweep".to_string(), reason));
        }
    }
    // The extended-suite distribution tables print last, after the
    // sweep, for the same append-only reason.
    if let Some(x) = &xsuite {
        print_extended(&suite, x);
    }

    // Store accounting goes to stderr and the timing report only; the
    // diffable outputs (stdout, --metrics-json) stay store-free so warm
    // runs match cold runs byte for byte.
    let mut store_io_degraded = false;
    if let Some(s) = &store {
        let st = s.stats();
        eprintln!(
            "store: {} hits, {} misses, {} writes, {} corrupt evicted",
            st.hit, st.miss, st.write, st.corrupt_evicted
        );
        if st.io_errors > 0 {
            eprintln!("store: {} I/O errors (degraded to recomputation)", st.io_errors);
            store_io_degraded = true;
        }
        if st.lock_contention > 0 {
            eprintln!("store: {} lock contentions (degraded to recomputation)", st.lock_contention);
        }
    }

    // The registry holds the sim counters, the per-config cache counters
    // and both phase spans, all absorbed at collection.
    let tele = suite.telemetry();

    if let Some(path) = metrics_json {
        let doc = report::metrics_json(tele, smoke, suite.cells.len(), swept);
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = bench_json {
        let sweeps: Vec<Json> = suite
            .grids()
            .map(|(w, isa, g)| {
                Json::obj()
                    .with("workload", w)
                    .with("isa", isa)
                    .with("records", g.sweep.values().iter().sum::<u64>())
            })
            .collect();
        let cells: Vec<Json> = suite
            .cell_wall_ns
            .iter()
            .map(|((w, target), ns)| {
                Json::obj()
                    .with("workload", w.as_str())
                    .with("target", target.as_str())
                    .with("wall_ns", *ns)
            })
            .collect();
        let report = Json::obj()
            .with("schema", "bench_repro/4")
            .with("kind", "timing")
            .with("smoke", smoke)
            .with("engine", engine.name())
            .with(
                "pipeline",
                Json::obj()
                    .with("depth", u64::from(pspec.depth))
                    .with("predictor", pspec.predictor.name())
                    .with("fetch_halfwords", u64::from(pspec.fetch_width_halfwords)),
            )
            .with("jobs", jobs)
            .with("cells", suite.cells.len())
            .with("traces", swept)
            .with("collect_ns", collect_ns)
            .with(
                "cache_grid",
                Json::obj()
                    .with("ns", grid_ns)
                    .with("configs", ex::cache_grid_configs().len())
                    .with("sweeps", sweeps),
            )
            .with("counters", report::counters_json(tele))
            .with("spans", report::spans_json(tele))
            .with("store", {
                let st = store.as_ref().map(|s| s.stats()).unwrap_or_default();
                Json::obj()
                    .with("enabled", store.is_some())
                    .with("hit", st.hit)
                    .with("miss", st.miss)
                    .with("write", st.write)
                    .with("corrupt_evicted", st.corrupt_evicted)
                    .with("io_errors", st.io_errors)
                    .with("lock_contention", st.lock_contention)
            })
            .with(
                "skipped",
                skips
                    .iter()
                    .map(|(w, t, reason)| {
                        Json::obj()
                            .with("workload", w.as_str())
                            .with("target", t.as_str())
                            .with("reason", reason.as_str())
                    })
                    .collect::<Vec<Json>>(),
            )
            .with("cell_wall_ns", cells);
        if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    if !skips.is_empty() || store_io_degraded {
        eprintln!("run degraded: {} skip(s), see diagnostics above", skips.len());
        std::process::exit(3);
    }
}

/// Cells or grids the run never collected (a `--smoke` or `--only`
/// subset) are an expected shape of the output, not a degradation; any
/// other skip reason marks the run degraded (exit 3).
fn fault_skip(e: &d16_core::SuiteError) -> bool {
    use d16_core::SuiteError;
    !matches!(e, SuiteError::MissingCell { .. } | SuiteError::MissingGrid { .. })
}

/// `plan` on the named workload.
fn workload_plan<'a>(plan: &Plan<'a>, name: &str) -> Result<Plan<'a>, String> {
    let w = d16_workloads::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
    Ok(Plan { source: Source::Workload(w), ..plan.clone() })
}

/// Extension beyond the paper: how sensitive is the comparison to the FPU
/// ("math unit") latency the prototype interface fixes? Returns the
/// `(workload, reason)` of every sweep that had to be skipped.
fn print_fpu_sweep(plan: &Plan) -> Vec<(String, String)> {
    let mut skips = Vec::new();
    for w in ["whetstone", "linpack"] {
        match workload_plan(plan, w).and_then(|p| p.fpu_sweep()) {
            Ok(points) => {
                let mut t = Table::new(
                    &format!("Extension: FPU-latency sensitivity, {w} (base cycles)"),
                    &["mul latency", "D16", "DLXe", "DLXe/D16", "D16 rate", "DLXe rate"],
                );
                for p in points {
                    t.row(vec![
                        p.mul_latency.to_string(),
                        p.d16_cycles.to_string(),
                        p.dlxe_cycles.to_string(),
                        f2(p.dlxe_cycles as f64 / p.d16_cycles as f64),
                        f3(p.d16_rate),
                        f3(p.dlxe_rate),
                    ]);
                }
                println!("{}", t.render());
            }
            Err(e) => skips.push((w.to_string(), e)),
        }
    }
    skips
}

/// Extension beyond the paper: retime every standard target across the
/// pipeline depth × predictor grid (one interpreter pass per target; see
/// DESIGN.md §14). Returns the `(workload, reason)` of skipped sweeps.
fn print_pipeline_sweep(plan: &Plan) -> Vec<(String, String)> {
    let mut skips = Vec::new();
    for w in ["towers", "assem"] {
        match workload_plan(plan, w).and_then(|p| p.pipeline_sweep()) {
            Ok(rows) => {
                for row in &rows {
                    let mut t = Table::new(
                        &format!(
                            "Extension: pipeline sweep, {w} on {} ({} insns; base cycles)",
                            row.target, row.sweep.insns
                        ),
                        &["depth", "interlock", "none", "taken", "twobit"],
                    );
                    for &d in &PIPELINE_DEPTHS {
                        let cyc = |p: Predictor| {
                            row.sweep.cell(d, p).map_or("-".into(), |c| c.cycles.to_string())
                        };
                        let il = row
                            .sweep
                            .cell(d, Predictor::None)
                            .map_or("-".into(), |c| c.interlock_cycles.to_string());
                        t.row(vec![
                            d.to_string(),
                            il,
                            cyc(Predictor::None),
                            cyc(Predictor::StaticTaken),
                            cyc(Predictor::TwoBit),
                        ]);
                    }
                    let mis = |p: Predictor| {
                        row.sweep
                            .cell(PIPELINE_DEPTHS[0], p)
                            .map_or("-".into(), |c| c.mispredicts.to_string())
                    };
                    t.row(vec![
                        "mispredicts".into(),
                        "-".into(),
                        mis(Predictor::None),
                        mis(Predictor::StaticTaken),
                        mis(Predictor::TwoBit),
                    ]);
                    println!("{}", t.render());
                }
                let mut t = Table::new(
                    &format!("Extension: fetch traffic across fetch widths, {w} (units)"),
                    &["target", "w=1", "w=2", "w=4"],
                );
                for row in &rows {
                    let [u1, u2, u4] = row.sweep.fetch_units;
                    t.row(vec![row.target.clone(), u1.to_string(), u2.to_string(), u4.to_string()]);
                }
                println!("{}", t.render());
            }
            Err(e) => skips.push((w.to_string(), e)),
        }
    }
    skips
}

/// Extension beyond the paper: the D16x mixed-width target as a third
/// curve next to Figures 4/5, plus its macro-op fusion ablation. Fusion
/// is pure accounting, so both ablation columns derive from the same
/// cells; workloads missing any of the three unrestricted cells drop out
/// like every other report.
fn print_d16x(suite: &Suite) {
    let rows = ex::d16x_third_curve(suite);
    let mut t = Table::new(
        "Extension: D16x mixed-width third curve (Figures 4/5 axes)",
        &["program", "size vs D16", "density vs DLXe", "path vs D16"],
    );
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            f2(r.size_vs_d16),
            f2(r.density_vs_dlxe),
            f2(r.path_vs_d16),
        ]);
    }
    println!("{}", t.render());
    let mut t = Table::new(
        "Extension: D16x macro-op fusion ablation (base cycles)",
        &["program", "cmp+br", "lui+addi", "fusion off", "fusion on", "saved"],
    );
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            r.fused_cmp_br.to_string(),
            r.fused_lui_addi.to_string(),
            r.base_cycles.to_string(),
            r.fused_cycles.to_string(),
            pct(r.fusion_savings_pct()),
        ]);
    }
    println!("{}", t.render());
}

/// Extension beyond the paper: the full registry — the paper's fifteen
/// programs plus the extension workloads — as per-workload static-size
/// and path-length ratio tables over all six targets, then one
/// distribution summary per target (min/median/max/mean over workloads
/// with a deterministic bootstrap 95% CI on the mean). The extension
/// cells live in `extras`; see `ex::extended_rows`.
fn print_extended(main: &Suite, extras: &Suite) {
    let rows = ex::extended_rows(main, extras);
    let labels: Vec<String> = standard_specs().iter().map(|s| s.label()).collect();
    let headers: Vec<&str> =
        std::iter::once("program").chain(labels.iter().map(String::as_str)).collect();
    let mut size = Table::new(
        &format!("Extension: extended-suite static size vs D16 = 1.00 ({} programs)", rows.len()),
        &headers,
    );
    let mut path = Table::new(
        &format!("Extension: extended-suite path length vs D16 = 1.00 ({} programs)", rows.len()),
        &headers,
    );
    for r in &rows {
        let cells = |pick: fn(&(String, f64, f64)) -> f64| {
            std::iter::once(r.workload.clone())
                .chain(r.ratios.iter().map(|c| f2(pick(c))))
                .collect()
        };
        size.row(cells(|c| c.1));
        path.row(cells(|c| c.2));
    }
    println!("{}", size.render());
    println!("{}", path.render());
    let mut t = Table::new(
        "Extension: extended-suite ratio distributions over workloads (vs D16 = 1.00)",
        &["target", "metric", "n", "min", "median", "max", "mean", "95% CI"],
    );
    for d in ex::extended_distributions(&rows) {
        for (metric, s) in [("size", &d.size), ("path", &d.path)] {
            t.row(vec![
                d.target.clone(),
                metric.into(),
                s.n.to_string(),
                f2(s.min),
                f2(s.median),
                f2(s.max),
                f2(s.mean),
                format!("[{}, {}]", f2(s.ci_lo), f2(s.ci_hi)),
            ]);
        }
    }
    println!("{}", t.render());
}

fn print_list() {
    println!("figures: 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19");
    println!("tables:  3 4 5 6 7 8 9 10 11 12 13 14 15 16");
    println!("extras:  --fpu-sweep (FPU-latency sensitivity, beyond the paper)");
    println!("         --d16x (D16x third curve + fusion ablation, beyond the paper)");
    println!("         --pipeline-sweep (depth x predictor grid, beyond the paper)");
    println!("         --extended (extended-suite distribution tables, beyond the paper)");
    println!("options: --jobs N (worker threads), --smoke (tiny 2x2 grid),");
    println!("         --pipeline-depth N / --pipeline-predictor P / --pipeline-fetch W");
    println!("           (retime the grid: depths 3-8, predictors none|taken|twobit,");
    println!("            fetch widths 1|2|4 halfwords; defaults 5/none/2),");
    println!("         --only W[,W...] (collect only the named workloads),");
    println!("         --engine blocks|interp (execution engine, default blocks),");
    println!("         --store DIR (incremental artifact store), --no-store,");
    println!("         --store-verify (integrity-sweep the store first),");
    println!("         --bench-json FILE (machine-readable timing report),");
    println!("         --metrics-json FILE (deterministic telemetry dump)");
}

fn ratio_table(title: &str, rows: &[ex::RatioRow]) -> String {
    let mut t = Table::new(title, &["program", "value"]);
    for r in rows {
        t.row(vec![r.workload.clone(), f2(r.value)]);
    }
    t.row(vec!["AVERAGE".into(), f2(ex::average(rows))]);
    t.render()
}

fn grid_table(title: &str, rows: &[ex::GridRow]) -> String {
    let mut t = Table::new(title, &["program", "DLXe/16/2", "DLXe/16/3", "DLXe/32/2", "DLXe/32/3"]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            f2(r.dlxe_16_2),
            f2(r.dlxe_16_3),
            f2(r.dlxe_32_2),
            f2(r.dlxe_32_3),
        ]);
    }
    t.render()
}

/// Prints one figure; returns the `(workload, reason)` of every
/// fault-caused skip (see [`fault_skip`]).
fn print_fig(suite: &Suite, n: u32) -> Vec<(String, String)> {
    let mut skips = Vec::new();
    let out = match n {
        4 => ratio_table(
            "Figure 4: D16 relative density (DLXe/D16)",
            &ex::fig4_relative_density(suite),
        ),
        5 => ratio_table("Figure 5: DLXe path length (D16 = 1.0)", &ex::fig5_path_length(suite)),
        6 | 8 | 11 => grid_table(
            &format!("Figure {n}: code size vs D16 = 1.0 (feature grid)"),
            &ex::code_size_grid(suite),
        ),
        7 | 9 | 12 => grid_table(
            &format!("Figure {n}: path length vs D16 = 1.0 (feature grid)"),
            &ex::path_length_grid(suite),
        ),
        10 => ratio_table(
            "Figure 10: speedup from DLXe immediates/offsets (D16 = 1.0)",
            &ex::fig10_immediate_speedup(suite),
        ),
        13 => {
            let mut t = Table::new(
                "Figure 13: instruction traffic vs static size (DLXe/D16)",
                &["program", "traffic", "static"],
            );
            for r in ex::fig13_traffic_vs_density(suite) {
                t.row(vec![r.workload, f2(r.traffic_ratio), f2(r.size_ratio)]);
            }
            t.render()
        }
        14 => {
            let mut out = String::new();
            for bus in [4u32, 8] {
                let mut t = Table::new(
                    &format!("Figure 14: normalized CPI, {}-bit fetch, no cache", bus * 8),
                    &["wait states", "DLXe CPI", "D16 CPI", "D16 normalized"],
                );
                for p in ex::fig14_cacheless_cpi(suite, bus) {
                    t.row(vec![
                        p.wait_states.to_string(),
                        f2(p.dlxe_cpi),
                        f2(p.d16_cpi),
                        f2(p.d16_normalized),
                    ]);
                }
                out.push_str(&t.render());
            }
            out
        }
        15 => {
            let mut out = String::new();
            for bus in [4u32, 8] {
                let mut t = Table::new(
                    &format!("Figure 15: fetch saturation, {}-bit bus (fetches/cycle)", bus * 8),
                    &["wait states", "DLXe", "D16"],
                );
                for p in ex::fig15_fetch_saturation(suite, bus) {
                    t.row(vec![p.wait_states.to_string(), f2(p.dlxe), f2(p.d16)]);
                }
                out.push_str(&t.render());
            }
            out
        }
        16 => {
            let mut out = String::new();
            for w in d16_workloads::cache_benchmarks() {
                match ex::fig16_icache_miss(suite, w.name) {
                    Ok(points) => {
                        let mut t = Table::new(
                            &format!("Figure 16: I-cache miss rates, {}", w.name),
                            &["size", "D16", "DLXe"],
                        );
                        for p in points {
                            t.row(vec![format!("{}K", p.size / 1024), f3(p.d16), f3(p.dlxe)]);
                        }
                        out.push_str(&t.render());
                    }
                    Err(e) => {
                        if fault_skip(&e) {
                            skips.push((w.name.to_string(), e.to_string()));
                        }
                        out.push_str(&format!("Figure 16, {}: skipped ({e})\n\n", w.name));
                    }
                }
            }
            out
        }
        17 | 18 => {
            let size = if n == 17 { 4096 } else { 16384 };
            let mut out = String::new();
            for w in d16_workloads::cache_benchmarks() {
                match ex::fig17_18_cache_cpi(suite, w.name, size) {
                    Ok(points) => {
                        let mut t = Table::new(
                            &format!(
                                "Figure {n}: CPI with {}K I+D caches, {}",
                                size / 1024,
                                w.name
                            ),
                            &["miss penalty", "DLXe", "D16", "D16 normalized"],
                        );
                        for p in points {
                            t.row(vec![
                                p.penalty.to_string(),
                                f2(p.dlxe_cpi),
                                f2(p.d16_cpi),
                                f2(p.d16_normalized),
                            ]);
                        }
                        out.push_str(&t.render());
                    }
                    Err(e) => {
                        if fault_skip(&e) {
                            skips.push((w.name.to_string(), e.to_string()));
                        }
                        out.push_str(&format!("Figure {n}, {}: skipped ({e})\n\n", w.name));
                    }
                }
            }
            out
        }
        19 => {
            let mut out = String::new();
            for w in d16_workloads::cache_benchmarks() {
                match ex::fig19_cache_traffic(suite, w.name) {
                    Ok(points) => {
                        let mut t = Table::new(
                            &format!("Figure 19: instruction traffic (words/cycle), {}", w.name),
                            &["size", "DLXe", "D16"],
                        );
                        for p in points {
                            t.row(vec![format!("{}K", p.size / 1024), f3(p.dlxe), f3(p.d16)]);
                        }
                        out.push_str(&t.render());
                    }
                    Err(e) => {
                        if fault_skip(&e) {
                            skips.push((w.name.to_string(), e.to_string()));
                        }
                        out.push_str(&format!("Figure 19, {}: skipped ({e})\n\n", w.name));
                    }
                }
            }
            out
        }
        other => format!("no figure {other} in the paper's evaluation\n"),
    };
    println!("{out}");
    skips
}

/// Prints one table; returns the `(workload, reason)` of every
/// fault-caused skip (see [`fault_skip`]).
fn print_table(suite: &Suite, n: u32, plan: &Plan) -> Vec<(String, String)> {
    let mut skips = Vec::new();
    let out = match n {
        3 => {
            let mut t = Table::new(
                "Table 3: data traffic increase for the small register file (%)",
                &["program", "D16", "DLXe-16"],
            );
            let rows = ex::table3_data_traffic(suite);
            let (mut a, mut b) = (0.0, 0.0);
            for r in &rows {
                t.row(vec![r.workload.clone(), pct(r.d16_pct), pct(r.dlxe16_pct)]);
                a += r.d16_pct;
                b += r.dlxe16_pct;
            }
            let nrows = rows.len() as f64;
            t.row(vec!["AVERAGE".into(), pct(a / nrows), pct(b / nrows)]);
            t.render()
        }
        // Read from the suite's `DLXe/16/2` cells; a subset run (or a
        // degraded one) collects the suite's cells on that target alone.
        4 => match ex::table4_from_suite(suite).or_else(|_| plan.table4()) {
            Ok(t4) => {
                let mut t = Table::new(
                    "Table 4: average immediate-field instruction frequencies",
                    &["class", "% of instructions"],
                );
                t.row(vec!["Compare immediate".into(), pct(t4.cmp_imm_pct)]);
                t.row(vec!["ALU immediate, > 5 bits".into(), pct(t4.alu_imm_pct)]);
                t.row(vec!["Memory displacements beyond D16".into(), pct(t4.mem_disp_pct)]);
                t.row(vec!["Total".into(), pct(t4.total_pct())]);
                t.render()
            }
            Err((w, e)) => {
                skips.push((w.clone(), e.clone()));
                format!("table 4 failed on {w}: {e}\n")
            }
        },
        5 => {
            let mut t = Table::new(
                "Table 5: summary of density and path length effects (D16 = 1.00)",
                &["config", "code size", "path length"],
            );
            for (cfg, (size, path)) in ex::table5_summary(suite) {
                t.row(vec![cfg, f2(size), f2(path)]);
            }
            t.render()
        }
        6 => grid_table(
            "Table 6: code size /density summary (ratios vs D16)",
            &ex::code_size_grid(suite),
        ),
        7 => {
            grid_table("Table 7: path length summary (ratios vs D16)", &ex::path_length_grid(suite))
        }
        8 => {
            let mut t = Table::new(
                "Table 8: path length and instruction traffic (words)",
                &["program", "D16 path", "DLXe path", "D16 words", "DLXe words"],
            );
            for r in ex::appendix_tables(suite) {
                t.row(vec![
                    r.workload,
                    r.d16_insns.to_string(),
                    r.dlxe_insns.to_string(),
                    r.d16_ifetch_words.to_string(),
                    r.dlxe_ifetch_words.to_string(),
                ]);
            }
            t.render()
        }
        9 => {
            let mut t =
                Table::new("Table 9: total loads and stores", &["program", "D16", "DLXe", "%"]);
            for r in ex::appendix_tables(suite) {
                let p = (r.dlxe_mem_ops as f64 / r.d16_mem_ops as f64 - 1.0) * 100.0;
                t.row(vec![
                    r.workload,
                    r.d16_mem_ops.to_string(),
                    r.dlxe_mem_ops.to_string(),
                    pct(p),
                ]);
            }
            t.render()
        }
        10 => {
            let mut t = Table::new(
                "Table 10: delayed-load and math-unit interlocks",
                &["program", "D16 interlocks", "D16 rate", "DLXe interlocks", "DLXe rate"],
            );
            for r in ex::appendix_tables(suite) {
                t.row(vec![
                    r.workload,
                    r.d16_interlocks.to_string(),
                    f3(r.d16_interlocks as f64 / r.d16_insns as f64),
                    r.dlxe_interlocks.to_string(),
                    f3(r.dlxe_interlocks as f64 / r.dlxe_insns as f64),
                ]);
            }
            t.render()
        }
        11 | 12 => {
            let bus = if n == 11 { 4 } else { 8 };
            let mut t = Table::new(
                &format!("Table {n}: DLXe/D16 cycles, {}-bit fetch bus, no cache", bus * 8),
                &["program", "l=0", "l=1", "l=2", "l=3"],
            );
            let rows = ex::table11_12_cycle_ratios(suite, bus);
            let mut sums = [0.0; 4];
            for r in &rows {
                t.row(vec![
                    r.workload.clone(),
                    f2(r.ratios[0]),
                    f2(r.ratios[1]),
                    f2(r.ratios[2]),
                    f2(r.ratios[3]),
                ]);
                for (s, v) in sums.iter_mut().zip(r.ratios) {
                    *s += v;
                }
            }
            let nr = rows.len() as f64;
            t.row(vec![
                "MEAN".into(),
                f2(sums[0] / nr),
                f2(sums[1] / nr),
                f2(sums[2] / nr),
                f2(sums[3] / nr),
            ]);
            t.render()
        }
        13 => {
            let mut t = Table::new(
                "Table 13: traffic and interlocks for cache benchmarks",
                &["program", "ISA", "insns", "interlock rate", "ifetch words", "reads", "writes"],
            );
            for r in ex::table13_cache_traffic(suite) {
                t.row(vec![
                    r.workload,
                    r.isa.to_string(),
                    r.insns.to_string(),
                    f3(r.interlock_rate),
                    r.ifetch_words.to_string(),
                    r.reads.to_string(),
                    r.writes.to_string(),
                ]);
            }
            t.render()
        }
        14..=16 => {
            let w = match n {
                14 => "assem",
                15 => "ipl",
                _ => "latex",
            };
            match ex::miss_rate_grid(suite, w) {
                Ok(rows) => {
                    let mut t = Table::new(
                        &format!("Table {n}: cache miss rates for {w}"),
                        &["size", "block", "I D16", "I DLXe", "R D16", "R DLXe", "W D16", "W DLXe"],
                    );
                    for r in rows {
                        t.row(vec![
                            format!("{}K", r.size / 1024),
                            r.block.to_string(),
                            f3(r.insn.0),
                            f3(r.insn.1),
                            f3(r.read.0),
                            f3(r.read.1),
                            f3(r.write.0),
                            f3(r.write.1),
                        ]);
                    }
                    t.render()
                }
                Err(e) => {
                    if fault_skip(&e) {
                        skips.push((w.to_string(), e.to_string()));
                    }
                    format!("Table {n}, {w}: skipped ({e})\n")
                }
            }
        }
        other => format!("no table {other} in the paper's evaluation\n"),
    };
    println!("{out}");
    skips
}
