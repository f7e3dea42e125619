//! `fuzz-budget`: `d16-fuzz --seed <seed> --count N`, the CI fuzz
//! gate's command, run on a prefix of the gate's own case stream and
//! then on cases from the benchmark's seed. Every case is compiled for
//! 6 targets × 2 opt levels, run on both engines and checked against
//! the reference interpreter, so this workload stresses the compiler,
//! the assembler and the engines on short, freshly built programs.
//!
//! The traced run repeats each case in this process with a span per
//! layer call: `fuzz.gen`, `fuzz.reference`, then per configuration
//! `cc.*`, `asm.*` and `sim.interp` / `sim.blocks`.

use crate::layers;
use crate::trace::Tracer;
use crate::{fastest, fresh_dir, proc, Args, Outcome};
use d16_fuzz::{case_seed, gen, interp, oracle};
use d16_sim::{ChecksumSink, Engine, Machine, PipelineSpec, SimError, StopReason};
use d16_testkit::Rng;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

type Stop = Result<StopReason, SimError>;

/// Set-up repetitions; `setup_s` is the fastest.
const SETUPS: usize = 1001;

/// The CI fuzz gate's seed. Its case stream is the work CI pays for on
/// every change, so most of each run replays a prefix of it.
const GATE_SEED: u64 = 20260806;

/// Cases per ten requested seconds from the gate's stream, and from the
/// benchmark's seed (0.1–0.2 s per case on the machine the benchmark
/// was designed on, as its shared host speeds up and slows down).
/// Per-case cost is heavy-tailed: a few programs run long loops, and
/// twenty cases took from 2.2 to 5.1 s depending on the seed. The seeded
/// share is kept small so that the choice of seed barely moves the run's
/// wall time; it still changes with `--seed`, so a claim can be checked
/// on a held-out seed.
const GATE_CASES_PER_10S: u64 = 53;
const SEEDED_CASES_PER_10S: u64 = 4;

/// One `d16-fuzz` invocation of the timed phase.
struct Batch {
    seed: u64,
    count: u64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let batches = [
        Batch { seed: GATE_SEED, count: (args.seconds * GATE_CASES_PER_10S / 10).max(1) },
        Batch { seed: args.seed, count: (args.seconds * SEEDED_CASES_PER_10S / 10).max(1) },
    ];
    // Set-up: a fresh directory holding an output and an error file per
    // batch. d16-fuzz makes its own inputs from `--seed`.
    let mut times = Vec::new();
    let mut files = Vec::new();
    let mut dir = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let d = fresh_dir("fuzz-budget")?;
        let create = |name: String| {
            let p = d.join(name);
            std::fs::File::create(&p).map_err(|e| format!("creating {}: {e}", p.display()))
        };
        files = (0..batches.len())
            .map(|i| Ok((create(format!("stdout-{i}.txt"))?, create(format!("stderr-{i}.txt"))?)))
            .collect::<Result<Vec<_>, String>>()?;
        times.push(t0.elapsed().as_secs_f64());
        dir = Some(d);
    }
    let dir = dir.expect("at least one set-up ran");
    let (mut wall_s, mut peak_rss_mb) = (0.0, 0.0);
    let mut counted = Vec::new();
    for (i, (b, (out_file, err_file))) in batches.iter().zip(files).enumerate() {
        let stdout = dir.join(format!("stdout-{i}.txt"));
        let mut cmd = Command::new(crate::bin_dir().join("d16-fuzz"));
        cmd.args(["--seed", &b.seed.to_string(), "--count", &b.count.to_string()])
            .stdin(Stdio::null())
            .stdout(out_file)
            .stderr(err_file);
        let exit = proc::spawn(&mut cmd)?.wait(Duration::from_secs(170))?;
        wall_s += exit.wall_s;
        if i == 0 {
            // The seeded cases' peak depends on which programs the seed
            // drew; the gate stream's peak is the same on every run.
            peak_rss_mb = exit.peak_rss_mb;
        }
        let report =
            std::fs::read_to_string(&stdout).map_err(|e| format!("d16-fuzz output: {e}"))?;
        let (ok, skipped, diverged) = summary(&report)
            .ok_or_else(|| format!("d16-fuzz printed no summary (exit {:?})", exit.code))?;
        out.attempted += b.count;
        out.failed += diverged;
        if exit.code != Some(0) {
            out.fail(format!("d16-fuzz --seed {} exited with {:?}", b.seed, exit.code));
        }
        if ok + skipped + diverged != b.count {
            out.fail(format!(
                "d16-fuzz accounted {} of {} cases",
                ok + skipped + diverged,
                b.count
            ));
        }
        out.determinism.insert(format!("fuzz.{i}.ok"), ok);
        out.determinism.insert(format!("fuzz.{i}.skipped"), skipped);
        counted.push((ok, skipped));
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;

    if args.trace {
        let t = Tracer::new();
        let t0 = Instant::now();
        for (b, &(ok, skipped)) in batches.iter().zip(&counted) {
            let mut ran = 0;
            for case in 0..b.count {
                out.attempted += 1;
                match traced_case(&t, case, case_seed(b.seed, case)) {
                    Ok(checked) => ran += u64::from(checked),
                    Err(e) => {
                        out.failed += 1;
                        out.fail(format!("traced case {case} of seed {}: {e}", b.seed));
                    }
                }
            }
            // The traced run repeats the oracle by calling the layers
            // itself; if it checks other cases than d16-fuzz, its layer
            // figures describe code d16-fuzz no longer runs.
            out.attempted += 1;
            if (ran, b.count - ran) != (ok, skipped) {
                out.failed += 1;
                out.fail(format!(
                    "seed {}: the traced run checked {ran} and skipped {} cases, \
                     d16-fuzz {ok} and {skipped}",
                    b.seed,
                    b.count - ran
                ));
            }
        }
        let traced_wall = t0.elapsed().as_secs_f64();
        layers::finish(t, traced_wall, wall_s, args, &mut out)?;
    } else {
        out.metrics = vec![
            ("wall_s", wall_s, "s"),
            ("setup_s", fastest(&times), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            // The timed phase is one batch operation.
            ("p50_ms", wall_s * 1e3, "ms"),
            ("p99_ms", wall_s * 1e3, "ms"),
        ];
    }
    Ok(out)
}

/// `(ok, skipped, diverged)` from d16-fuzz's closing line
/// `d16-fuzz: A ok, B skipped, C diverged of N cases`.
fn summary(report: &str) -> Option<(u64, u64, u64)> {
    let line = report.lines().rev().find(|l| l.contains(" diverged of "))?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    match nums[..] {
        [_, ok, skipped, diverged, _] | [ok, skipped, diverged, _] => Some((ok, skipped, diverged)),
        _ => None,
    }
}

/// One case as `d16_fuzz::run_case` checks it, minus the encoding
/// round-trip oracle (private to the fuzz crate; its time shows only in
/// the untraced wall). A program too large for a target is skipped, as
/// d16-fuzz skips it. Returns whether the case was checked rather than
/// skipped.
fn traced_case(t: &Tracer, case: u64, seed: u64) -> Result<bool, String> {
    t.span("fuzz.case", case, || {
        let (prog, src) = t.span("fuzz.gen", case, || {
            let prog = gen::program(&mut Rng::new(seed));
            let src = prog.to_c();
            (prog, src)
        });
        let Ok(reference) = t.span("fuzz.reference", case, || interp::run(&prog)) else {
            return Ok(false);
        };
        let pspec = oracle::pipeline_spec_for(seed);
        for (spec, opt) in oracle::grid() {
            let image = match layers::build(t, case, &src, &spec, opt) {
                Ok(i) => i,
                Err(e) if e.contains("out of range") || e.contains("does not fit") => {
                    return Ok(false)
                }
                Err(e) => return Err(format!("{} {opt:?}: {e}", spec.label())),
            };
            // Both engines at the default spec, then (for a non-default
            // spec) both again while the first pair is still alive, as
            // the oracle holds them: each `Machine::load` zeroes 16 MiB,
            // and what that costs depends on which allocations are live.
            let engines = |ps| -> Result<(Machine, Machine, Stop), String> {
                let mut si = ChecksumSink::default();
                let (mi, ri) =
                    layers::execute(t, case, &image, Engine::Interp, ps, oracle::SIM_FUEL, &mut si);
                let mut sb = ChecksumSink::default();
                let (mb, rb) =
                    layers::execute(t, case, &image, Engine::Blocks, ps, oracle::SIM_FUEL, &mut sb);
                if format!("{ri:?}") != format!("{rb:?}")
                    || mi.stats() != mb.stats()
                    || (si.count(), si.digest()) != (sb.count(), sb.digest())
                {
                    return Err(format!("{} {opt:?}: engines disagree", spec.label()));
                }
                Ok((mi, mb, ri))
            };
            let (_mi, _mb, stop) = engines(PipelineSpec::default())?;
            if pspec != PipelineSpec::default() {
                let (_pi, _pb, _) = engines(pspec)?;
            }
            match stop {
                Ok(StopReason::Halted(v)) if v == reference => {}
                other => {
                    return Err(format!(
                        "{} {opt:?}: {other:?}, reference {reference}",
                        spec.label()
                    ))
                }
            }
        }
        Ok(true)
    })
}
