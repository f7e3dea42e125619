//! End-to-end and per-layer benchmark of the d16 reproduction.
//!
//! ```text
//! perfbench --workload <paper-cold|fuzz-budget|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the programs under test (`repro`, `d16-fuzz`,
//! `d16-serve`) run as separate processes and the end-to-end metrics are
//! reported. With `--trace 1` the workload also runs in this process
//! with spans around every call into a crate, and the per-layer metrics
//! are reported. The last stdout line is the result JSON. See README.md.

mod fuzz;
mod layers;
mod paper;
mod proc;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed the documented numbers were taken with.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claimed change.
pub const HELD_OUT_SEED: u64 = 20261017;
/// Worker threads and client connections: the machine's core count
/// the benchmark was designed on.
pub const JOBS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failures of checks other than counted operations (a wrong output
    /// file, a determinism mismatch).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly for a given seed.
    pub determinism: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }
}

/// Where the benchmark keeps its scratch files, inside the checkout.
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// The directory the programs under test were built into.
pub fn bin_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("release")
}

/// A fresh, empty directory under the work root.
pub fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = work_root().join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The fastest of repeated set-ups. Host noise only ever adds time, so
/// the minimum of many repetitions moves far less between runs than
/// their median.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile (`q` in 0..=1) of an unsorted sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 20, trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn fingerprint(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let tool = |cmd: &str, arg: &[&str]| {
        std::process::Command::new(cmd)
            .args(arg)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".into())
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "fingerprint: {{\"workload\":\"{}\",\"seed\":{},\"default_seed\":{},\"held_out_seed\":{},\
         \"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\
         \"git_head\":\"{}\",\"engine\":\"blocks\",\"jobs\":{JOBS}}}",
        args.workload,
        args.seed,
        DEFAULT_SEED,
        HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace),
        cpu.replace('"', "'"),
        tool("rustc", &["-V"]),
        tool("git", &["rev-parse", "HEAD"]),
    )
}

/// Identifies the build under test: size and modification time of the
/// programs and of this harness, so a rebuilt program starts a fresh
/// determinism record.
fn build_id() -> u128 {
    let mut h = d16_store::StableHasher::new("perfbench.build");
    let exe = std::env::current_exe().unwrap_or_default();
    for p in ["repro", "d16-fuzz", "d16-serve"].map(|b| bin_dir().join(b)).iter().chain([&exe]) {
        let meta = std::fs::metadata(p).ok();
        let mtime = meta
            .as_ref()
            .and_then(|m| m.modified().ok())
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos() as u64);
        h.field_u64(meta.map_or(0, |m| m.len())).field_u64(mtime);
    }
    h.finish().0
}

/// Compares this run's exact counts with the first run of the same
/// workload, seed, `--seconds` (which sets the amount of work), mode and
/// build; records them if this is the first.
fn check_determinism(args: &Args, out: &mut Outcome) {
    if out.determinism.is_empty() {
        return;
    }
    let dir = work_root().join("determinism");
    let path = dir.join(format!(
        "{}-{}-s{}-t{}-{:032x}.txt",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        build_id()
    ));
    let mine: String = out.determinism.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != mine => {
            for (a, b) in prev.lines().zip(mine.lines()).filter(|(a, b)| a != b) {
                out.fail(format!("determinism: first run had `{a}`, this run `{b}`"));
            }
        }
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, mine))
            {
                out.fail(format!("determinism: cannot record {}: {e}", path.display()));
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark runs from the root of a source checkout; it needs
    // the committed oracle and the programs built from that checkout.
    for need in [Path::new("results.txt"), &bin_dir().join("repro")] {
        if !need.exists() {
            eprintln!("perfbench: {} not found (run from the repository root)", need.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", fingerprint(&args));
    let result = match args.workload.as_str() {
        "paper-cold" => paper::run(&args),
        "fuzz-budget" => fuzz::run(&args),
        "serve-mixed" => serve::run(&args),
        other => {
            Err(format!("unknown workload `{other}` (paper-cold, fuzz-budget or serve-mixed)"))
        }
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    check_determinism(&args, &mut out);
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|&(name, v, unit)| {
            // A sum over no samples is -0.0; and JSON has no NaN.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.errors.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
