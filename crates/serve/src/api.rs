//! The `/v1/run` API: request parsing, the typed error → HTTP status
//! mapping, and the store-backed response cache around d16-core's build
//! and run operations (the same ones `repro` measures with; a sweep
//! request runs the cache grid as an observer of the run).
//!
//! Response bodies are **pure functions of the request**: no wall-clock
//! time, no machine-dependent counter ever enters a body, so a cached
//! body is byte-identical to a recomputed one and CI can diff replayed
//! traffic against golden answers. Timing and cache provenance ride in
//! response *headers* (`X-D16-Wall-Ns`, `X-D16-Cache`), which the
//! corpus tooling excludes from saved bodies.

use d16_bench::json::Json;
use d16_cc::{OptLevel, TargetSpec};
use d16_core::experiments::cache_grid_configs;
use d16_core::measure::FUEL;
use d16_core::{standard_specs, MeasureError, Plan, Source};
use d16_sim::{Engine, PipelineSpec, Predictor};
use d16_store::{CacheKey, Reader, StableHasher, Store, Writer};
use std::time::Instant;

/// Response/schema tag; also part of every cache key, so bumping it
/// retires every cached response at once.
pub const SERVE_TAG: &str = "d16-serve/1";

/// Store namespace for cached response bodies.
pub const SERVE_KIND: &str = "serve";

/// A parsed `/v1/run` request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Mini-C source text (inline or resolved from a suite workload).
    pub source: String,
    /// Target knobs.
    pub spec: TargetSpec,
    /// Optimization level.
    pub opt: OptLevel,
    /// Execution engine. Observationally irrelevant (the engines are
    /// byte-identical by contract), so it is *not* part of the cache
    /// key and never appears in a response body.
    pub engine: Engine,
    /// Instruction budget for the simulation.
    pub fuel: u64,
    /// Whether the run sweeps the 20-config cache grid.
    pub sweep: bool,
    /// Pipeline design point to retime the machine with. The default
    /// spec adds nothing to the cache key and nothing to the body, so
    /// requests that predate the knob keep their cached entries and
    /// golden bodies; a non-default spec keys and reports itself.
    pub pspec: PipelineSpec,
    /// Free-form client tag; subject string for the serve failpoints.
    pub tag: String,
}

/// Everything that can go wrong serving a run, each variant carrying
/// its HTTP status. This is the serving face of the PR 4 taxonomy:
/// user mistakes are 4xx, our faults are 500, shed load is 429/503.
#[derive(Debug)]
pub enum ApiError {
    /// Unparseable or self-contradictory request (400).
    BadRequest(String),
    /// The program ran out of its instruction budget (400 — the budget
    /// is a user-chosen resource cap, not a server fault).
    FuelExhausted {
        /// The budget that was exhausted.
        fuel: u64,
    },
    /// Toolchain rejection: compile, register allocation, or assembly
    /// diagnostics (422).
    Compile(String),
    /// Simulator fault or other internal failure (500).
    Internal(String),
    /// The per-request deadline passed between phases (503).
    Timeout,
    /// The store's entry lock stayed contended past its retry budget
    /// (503 — backpressure, try again).
    StoreContention,
}

impl ApiError {
    /// The HTTP status this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ApiError::BadRequest(_) | ApiError::FuelExhausted { .. } => 400,
            ApiError::Compile(_) => 422,
            ApiError::Internal(_) => 500,
            ApiError::Timeout | ApiError::StoreContention => 503,
        }
    }

    /// Stable machine-readable discriminant for response bodies.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ApiError::BadRequest(_) => "bad_request",
            ApiError::FuelExhausted { .. } => "fuel_exhausted",
            ApiError::Compile(_) => "compile_error",
            ApiError::Internal(_) => "internal_error",
            ApiError::Timeout => "timeout",
            ApiError::StoreContention => "store_contention",
        }
    }

    /// Human-readable message for response bodies.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            ApiError::BadRequest(m) | ApiError::Compile(m) | ApiError::Internal(m) => m.clone(),
            ApiError::FuelExhausted { fuel } => {
                format!("execution exhausted its {fuel}-instruction budget")
            }
            ApiError::Timeout => "request deadline exceeded".to_string(),
            ApiError::StoreContention => {
                "store entry lock contended past the retry budget".to_string()
            }
        }
    }

    /// The JSON error body (deterministic — these are byte-diffed in CI
    /// like every other body).
    #[must_use]
    pub fn body(&self) -> Vec<u8> {
        let doc = Json::obj()
            .with("schema", SERVE_TAG)
            .with("ok", false)
            .with("error", Json::obj().with("kind", self.kind()).with("message", self.message()));
        body_bytes(&doc)
    }
}

fn body_bytes(doc: &Json) -> Vec<u8> {
    format!("{doc}\n").into_bytes()
}

impl RunRequest {
    /// Parses and validates a request body against `fuel_cap`.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] with a deterministic message naming the
    /// offending field.
    pub fn parse(body: &[u8], fuel_cap: u64) -> Result<RunRequest, ApiError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ApiError::BadRequest("body is not utf-8".to_string()))?;
        let doc = Json::parse(text).map_err(|e| ApiError::BadRequest(format!("bad json: {e}")))?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| ApiError::BadRequest("body must be a json object".to_string()))?;
        const KNOWN: &[&str] = &[
            "workload",
            "source",
            "target",
            "opt",
            "engine",
            "fuel",
            "sweep",
            "tag",
            "d16_immediates",
            "cmpeqi",
            "schedule_delay_slots",
            "pipeline_depth",
            "pipeline_predictor",
            "pipeline_fetch_halfwords",
        ];
        for (k, _) in obj {
            if !KNOWN.contains(&k.as_str()) {
                return Err(ApiError::BadRequest(format!("unknown field `{k}`")));
            }
        }
        let str_field = |name: &str| -> Result<Option<&str>, ApiError> {
            match doc.get(name) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(Some)
                    .ok_or_else(|| ApiError::BadRequest(format!("`{name}` must be a string"))),
            }
        };
        let bool_field = |name: &str| -> Result<Option<bool>, ApiError> {
            match doc.get(name) {
                None => Ok(None),
                Some(Json::Bool(b)) => Ok(Some(*b)),
                Some(_) => Err(ApiError::BadRequest(format!("`{name}` must be a boolean"))),
            }
        };

        let source = match (str_field("source")?, str_field("workload")?) {
            (Some(_), Some(_)) => {
                return Err(ApiError::BadRequest(
                    "give either `source` or `workload`, not both".to_string(),
                ))
            }
            (Some(src), None) => src.to_string(),
            (None, Some(name)) => match d16_workloads::by_name(name) {
                Some(w) => w.source.to_string(),
                None => {
                    // `by_name` searches the suite and the extension
                    // workloads, so the diagnostic must list both.
                    let valid: Vec<&str> = d16_workloads::SUITE
                        .iter()
                        .chain(d16_workloads::EXTRAS)
                        .map(|w| w.name)
                        .collect();
                    return Err(ApiError::BadRequest(format!(
                        "unknown workload `{name}` (valid: {})",
                        valid.join(", ")
                    )));
                }
            },
            (None, None) => {
                return Err(ApiError::BadRequest(
                    "give `source` (inline Mini-C) or `workload` (suite name)".to_string(),
                ))
            }
        };

        let label = str_field("target")?.unwrap_or("D16/16/2");
        let specs = standard_specs();
        let mut spec = specs.iter().find(|s| s.label() == label).cloned().ok_or_else(|| {
            let valid: Vec<String> = specs.iter().map(TargetSpec::label).collect();
            ApiError::BadRequest(format!("unknown target `{label}` (valid: {})", valid.join(", ")))
        })?;
        if let Some(v) = bool_field("d16_immediates")? {
            spec.d16_immediates = v;
        }
        if let Some(v) = bool_field("cmpeqi")? {
            spec.cmpeqi = v;
        }
        if let Some(v) = bool_field("schedule_delay_slots")? {
            spec.schedule_delay_slots = v;
        }

        let opt = str_field("opt")?.unwrap_or("O2");
        let opt = OptLevel::parse(opt).ok_or_else(|| {
            ApiError::BadRequest(format!("unknown opt level `{opt}` (valid: O0, O2)"))
        })?;
        let engine = str_field("engine")?.unwrap_or("blocks");
        let engine = Engine::parse(engine).ok_or_else(|| {
            ApiError::BadRequest(format!("unknown engine `{engine}` (valid: blocks, interp)"))
        })?;
        let fuel = match doc.get("fuel") {
            None => fuel_cap,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ApiError::BadRequest("`fuel` must be an integer".to_string()))?,
        };
        if fuel == 0 || fuel > fuel_cap {
            return Err(ApiError::BadRequest(format!("`fuel` must be between 1 and {fuel_cap}")));
        }
        let sweep = bool_field("sweep")?.unwrap_or(false);
        let u8_field = |name: &str| -> Result<Option<u8>, ApiError> {
            match doc.get(name) {
                None => Ok(None),
                Some(v) => {
                    v.as_u64().and_then(|n| u8::try_from(n).ok()).map(Some).ok_or_else(|| {
                        ApiError::BadRequest(format!("`{name}` must be a small integer"))
                    })
                }
            }
        };
        let mut pspec = PipelineSpec::default();
        if let Some(d) = u8_field("pipeline_depth")? {
            pspec.depth = d;
        }
        if let Some(p) = str_field("pipeline_predictor")? {
            pspec.predictor = Predictor::parse(p).ok_or_else(|| {
                ApiError::BadRequest(format!(
                    "unknown predictor `{p}` (valid: none, taken, twobit)"
                ))
            })?;
        }
        if let Some(w) = u8_field("pipeline_fetch_halfwords")? {
            pspec.fetch_width_halfwords = w;
        }
        pspec.validate().map_err(ApiError::BadRequest)?;
        let tag = str_field("tag")?.unwrap_or("").to_string();
        Ok(RunRequest { source, spec, opt, engine, fuel, sweep, pspec, tag })
    }

    /// The response-cache key: serve tag, full toolchain/source key,
    /// opt level, and the sweep request (with the grid fingerprint, so
    /// a grid change retires sweep entries). Fuel is deliberately *not*
    /// keyed — the cached entry records how many instructions the run
    /// took, and a lookup serves it to any request whose budget covers
    /// that count.
    #[must_use]
    pub fn key(&self) -> CacheKey {
        let mut h = StableHasher::new("d16-serve.request");
        h.field_str(SERVE_TAG)
            .field_key(d16_cc::build_key(&[&self.source], &self.spec))
            .field_str(self.opt.name())
            .field_bool(self.sweep);
        if self.pspec != PipelineSpec::default() {
            h.field_u64(u64::from(self.pspec.depth))
                .field_str(self.pspec.predictor.name())
                .field_u64(u64::from(self.pspec.fetch_width_halfwords));
        }
        if self.sweep {
            let configs = cache_grid_configs();
            h.field_u64(configs.len() as u64);
            for c in &configs {
                h.field_str(&c.label());
            }
        }
        h.finish()
    }
}

/// A served run: the response body plus provenance for headers/counters.
#[derive(Debug)]
pub struct RunOutcome {
    /// The JSON body (terminated by one newline), ready to send.
    pub body: Vec<u8>,
    /// Whether the body came out of the store.
    pub cache_hit: bool,
    /// Wall time spent compiling (0 on a hit).
    pub compile_ns: u64,
    /// Wall time spent simulating (0 on a hit).
    pub execute_ns: u64,
    /// Wall time spent building the sweep rows from the run's finished
    /// cache grid (0 on a hit / no sweep); the sweep itself runs inside
    /// the execution and is timed by `execute_ns`.
    pub sweep_ns: u64,
}

/// The default per-request instruction budget (and the daemon's default
/// cap): the same fuel the batch experiments run with.
pub const DEFAULT_FUEL_CAP: u64 = FUEL;

fn check_deadline(deadline: Instant) -> Result<(), ApiError> {
    if Instant::now() > deadline {
        return Err(ApiError::Timeout);
    }
    Ok(())
}

/// Serves one parsed run request: response-cache lookup, else build →
/// run (sweeping the cache grid inline when asked) → commit. The compute
/// is d16-core's [`Plan::build`] and [`Plan::run`] with no store of their
/// own: only the finished body is cached. The deadline is
/// checked between phases; a fuel budget bounds the simulation itself,
/// so no phase runs unboundedly long.
///
/// # Errors
///
/// [`ApiError`], already mapped to its HTTP status.
pub fn run(
    req: &RunRequest,
    store: Option<&Store>,
    deadline: Instant,
) -> Result<RunOutcome, ApiError> {
    if d16_testkit::faults::armed_for("serve-store-contention", &req.tag) {
        return Err(ApiError::StoreContention);
    }
    let key = req.key();
    if let Some(store) = store {
        let cached = store.get_with(SERVE_KIND, key, decode_entry);
        if let Some((insns, body)) = cached {
            // A cached run that needed more instructions than this
            // request's budget allows must re-run (and exhaust).
            if insns <= req.fuel {
                return Ok(RunOutcome {
                    body,
                    cache_hit: true,
                    compile_ns: 0,
                    execute_ns: 0,
                    sweep_ns: 0,
                });
            }
        }
    }
    if d16_testkit::faults::armed_for("serve-slow-worker", &req.tag) {
        // A wedged worker: sleep through the whole deadline so the
        // next phase boundary degrades the request instead of hanging
        // the connection forever.
        let now = Instant::now();
        std::thread::sleep(
            deadline.saturating_duration_since(now) + std::time::Duration::from_millis(50),
        );
    }
    check_deadline(deadline)?;

    let mut plan = Plan {
        source: Source::Inline(&req.source),
        target: req.spec.clone(),
        pipeline: req.pspec,
        opt: req.opt,
        engine: req.engine,
        fuel: req.fuel,
        cache_grid: req.sweep,
        pipeline_sweep: false,
        store: None,
    };
    if d16_testkit::faults::armed_for("serve-fuel-exhausted", &req.tag) {
        plan.fuel = plan.fuel.min(1_000);
    }
    let fail = |e: MeasureError| match e {
        MeasureError::Build(e) => ApiError::Compile(e.to_string()),
        MeasureError::Sim(e) => ApiError::Internal(format!("simulator fault: {e}")),
        MeasureError::OutOfFuel => ApiError::FuelExhausted { fuel: plan.fuel },
        e @ MeasureError::WrongChecksum { .. } => ApiError::Internal(e.to_string()),
    };

    let t0 = Instant::now();
    let image = plan.build().map_err(fail)?;
    let compile_ns = t0.elapsed().as_nanos() as u64;
    check_deadline(deadline)?;

    let t0 = Instant::now();
    let m = plan.run(&image).map_err(fail)?;
    let execute_ns = t0.elapsed().as_nanos() as u64;
    check_deadline(deadline)?;

    let (sweep_json, sweep_ns) = match &m.grid {
        Some(grid) => {
            let t0 = Instant::now();
            let rows: Vec<Json> = grid
                .systems
                .iter()
                .map(|sys| {
                    let (i, d) = (*sys.icache(), *sys.dcache());
                    Json::obj()
                        .with("config", sys.label())
                        .with("ic_reads", i.reads)
                        .with("ic_read_misses", i.read_misses)
                        .with("ic_bytes_in", i.demand_bytes_in + i.prefetch_bytes_in)
                        .with("dc_reads", d.reads)
                        .with("dc_read_misses", d.read_misses)
                        .with("dc_writes", d.writes)
                        .with("dc_write_misses", d.write_misses)
                        .with("dc_bytes_in", d.demand_bytes_in + d.prefetch_bytes_in)
                        .with("dc_bytes_out", d.bytes_out)
                })
                .collect();
            (Json::Arr(rows), t0.elapsed().as_nanos() as u64)
        }
        None => (Json::Null, 0),
    };

    let stats = &m.stats;
    let mut doc = Json::obj()
        .with("schema", SERVE_TAG)
        .with("ok", true)
        .with("target", m.target.as_str())
        .with("opt", req.opt.name())
        .with("exit", f64::from(m.exit))
        .with("text_bytes", m.text_bytes)
        .with(
            "stats",
            Json::obj()
                .with("insns", stats.insns)
                .with("loads", stats.loads)
                .with("stores", stats.stores)
                .with("interlocks", stats.interlocks)
                .with("load_interlocks", stats.load_interlocks)
                .with("fpu_interlocks", stats.fpu_interlocks)
                .with("ifetch_words", stats.ifetch_words)
                .with("branches", stats.branches)
                .with("taken_branches", stats.taken_branches)
                .with("nops", stats.nops),
        )
        .with("ireq_bus32", m.ireq_bus32)
        .with("ireq_bus64", m.ireq_bus64)
        .with("sweep", sweep_json);
    // Only a retimed machine reports its pipeline (and the two counters
    // the default spec holds at zero): bodies of default-spec requests
    // stay byte-identical to the pre-knob golden corpus.
    if req.pspec != PipelineSpec::default() {
        doc = doc.with(
            "pipeline",
            Json::obj()
                .with("depth", u64::from(req.pspec.depth))
                .with("predictor", req.pspec.predictor.name())
                .with("fetch_halfwords", u64::from(req.pspec.fetch_width_halfwords))
                .with("mispredicts", stats.mispredicts)
                .with("misfetch_cycles", stats.misfetch_cycles),
        );
    }
    let body = body_bytes(&doc);
    let insns = stats.insns;

    check_deadline(deadline)?;
    if let Some(store) = store {
        store.put(SERVE_KIND, key, &encode_entry(insns, &body));
    }
    Ok(RunOutcome { body, cache_hit: false, compile_ns, execute_ns, sweep_ns })
}

fn encode_entry(insns: u64, body: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(insns).bytes(body);
    w.into_bytes()
}

fn decode_entry(payload: &[u8]) -> Option<(u64, Vec<u8>)> {
    let mut r = Reader::new(payload);
    let insns = r.u64()?;
    let body = r.bytes()?.to_vec();
    r.finish()?;
    Some((insns, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deadline() -> Instant {
        Instant::now() + std::time::Duration::from_secs(60)
    }

    #[test]
    fn parse_rejects_each_bad_field_deterministically() {
        let cap = DEFAULT_FUEL_CAP;
        let cases: &[(&str, &str)] = &[
            ("not json", "bad json"),
            ("[1,2]", "must be a json object"),
            ("{}", "give `source`"),
            (r#"{"source":"int main(){return 0;}","workload":"towers"}"#, "not both"),
            (r#"{"workload":"nope"}"#, "unknown workload `nope`"),
            (r#"{"workload":"towers","target":"X86"}"#, "unknown target `X86`"),
            (r#"{"workload":"towers","opt":"O1"}"#, "unknown opt level `O1`"),
            (r#"{"workload":"towers","engine":"jit"}"#, "unknown engine `jit`"),
            (r#"{"workload":"towers","fuel":0}"#, "`fuel` must be between"),
            (r#"{"workload":"towers","frobnicate":1}"#, "unknown field `frobnicate`"),
            (r#"{"workload":"towers","pipeline_depth":9}"#, "valid depths: 3 4 5 6 7 8"),
            (
                r#"{"workload":"towers","pipeline_predictor":"oracle"}"#,
                "valid: none, taken, twobit",
            ),
            (r#"{"workload":"towers","pipeline_fetch_halfwords":3}"#, "valid widths: 1 2 4"),
        ];
        for (body, want) in cases {
            let err = RunRequest::parse(body.as_bytes(), cap).unwrap_err();
            assert!(matches!(err, ApiError::BadRequest(_)), "{body}: {err:?}");
            assert!(err.message().contains(want), "{body}: {}", err.message());
        }
        // Every standard target parses, and the diagnostic lists them all.
        let err = RunRequest::parse(br#"{"workload":"towers","target":"X86"}"#, cap).unwrap_err();
        for spec in standard_specs() {
            let label = spec.label();
            let body = format!(r#"{{"workload":"towers","target":"{label}"}}"#);
            let req = RunRequest::parse(body.as_bytes(), cap).unwrap();
            assert_eq!(req.spec, spec, "{label}");
            assert!(err.message().contains(&label), "{label}: {}", err.message());
        }
        assert!(err.message().contains("D16x/16/3"), "{}", err.message());
    }

    #[test]
    fn a_source_string_of_the_largest_body_parses_exactly() {
        let max_body = crate::ServeConfig::default().max_body;
        // One source line as JSON text: escapes and multi-byte characters.
        let line = r#"int main(void) { return 0; } // \"ü\" 世界\n"#;
        let (head, tail) = (r#"{"source":""#, r#""}"#);
        let lines = (max_body - head.len() - tail.len()) / line.len();
        let body = format!("{head}{}{tail}", line.repeat(lines));
        assert!(body.len() + line.len() > max_body, "the body fills the limit");
        let req = RunRequest::parse(body.as_bytes(), DEFAULT_FUEL_CAP).unwrap();
        let source_line = "int main(void) { return 0; } // \"ü\" 世界\n";
        assert_eq!(req.source, source_line.repeat(lines));
    }

    #[test]
    fn fuel_above_cap_is_a_user_error() {
        let err = RunRequest::parse(br#"{"workload":"towers","fuel":1000}"#, 100).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("between 1 and 100"));
    }

    #[test]
    fn status_mapping_covers_the_taxonomy() {
        assert_eq!(ApiError::BadRequest(String::new()).status(), 400);
        assert_eq!(ApiError::FuelExhausted { fuel: 1 }.status(), 400);
        assert_eq!(ApiError::Compile(String::new()).status(), 422);
        assert_eq!(ApiError::Internal(String::new()).status(), 500);
        assert_eq!(ApiError::Timeout.status(), 503);
        assert_eq!(ApiError::StoreContention.status(), 503);
    }

    #[test]
    fn run_is_deterministic_and_cacheable() {
        let req =
            RunRequest::parse(br#"{"workload":"towers","target":"D16/16/2"}"#, DEFAULT_FUEL_CAP)
                .unwrap();
        let a = run(&req, None, deadline()).unwrap();
        let b = run(&req, None, deadline()).unwrap();
        assert_eq!(a.body, b.body, "bodies are pure functions of the request");
        assert!(!a.cache_hit);

        let dir = d16_testkit::TempDir::new("serve-api");
        let store = Store::open(dir.path()).unwrap();
        let cold = run(&req, Some(&store), deadline()).unwrap();
        let warm = run(&req, Some(&store), deadline()).unwrap();
        assert_eq!(cold.body, a.body);
        assert_eq!(warm.body, a.body, "warm body byte-identical to cold");
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
    }

    #[test]
    fn fuel_gates_cache_reuse() {
        let dir = d16_testkit::TempDir::new("serve-fuel");
        let store = Store::open(dir.path()).unwrap();
        let full = RunRequest::parse(br#"{"workload":"towers"}"#, DEFAULT_FUEL_CAP).unwrap();
        let out = run(&full, Some(&store), deadline()).unwrap();
        let doc = Json::parse(std::str::from_utf8(&out.body).unwrap()).unwrap();
        let insns = doc.get("stats").and_then(|s| s.get("insns")).and_then(Json::as_u64).unwrap();
        // A budget below the recorded instruction count must not be
        // served from cache — it must re-run and exhaust.
        let tiny = RunRequest { fuel: insns - 1, ..full.clone() };
        match run(&tiny, Some(&store), deadline()) {
            Err(ApiError::FuelExhausted { .. }) => {}
            other => panic!("expected fuel exhaustion, got {other:?}"),
        }
        // And the entry must survive for budgets that cover it.
        let again = run(&full, Some(&store), deadline()).unwrap();
        assert!(again.cache_hit);
    }

    #[test]
    fn compile_errors_map_to_422_with_diagnostics() {
        let req = RunRequest::parse(br#"{"source":"int main( {"}"#, DEFAULT_FUEL_CAP).unwrap();
        let err = run(&req, None, deadline()).unwrap_err();
        assert_eq!(err.status(), 422);
        assert_eq!(err.kind(), "compile_error");
    }

    #[test]
    fn sweep_rows_cover_the_grid() {
        let req =
            RunRequest::parse(br#"{"workload":"towers","sweep":true}"#, DEFAULT_FUEL_CAP).unwrap();
        let out = run(&req, None, deadline()).unwrap();
        let doc = Json::parse(std::str::from_utf8(&out.body).unwrap()).unwrap();
        let rows = doc.get("sweep").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), cache_grid_configs().len());
    }

    #[test]
    fn keys_separate_what_must_not_collide() {
        let base = RunRequest::parse(br#"{"workload":"towers"}"#, DEFAULT_FUEL_CAP).unwrap();
        let mut by_opt = base.clone();
        by_opt.opt = OptLevel::O0;
        let mut by_sweep = base.clone();
        by_sweep.sweep = true;
        let mut by_target = base.clone();
        by_target.spec = TargetSpec::dlxe();
        let keys = [base.key(), by_opt.key(), by_sweep.key(), by_target.key()];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "{i} vs {j}");
            }
        }
        // Fuel and engine deliberately do not key.
        let mut by_fuel = base.clone();
        by_fuel.fuel = 12345;
        by_fuel.engine = Engine::Interp;
        assert_eq!(base.key(), by_fuel.key());
        // A non-default pipeline spec keys; spelling out the defaults
        // does not.
        let mut by_pipe = base.clone();
        by_pipe.pspec = PipelineSpec { depth: 8, predictor: Predictor::TwoBit, ..base.pspec };
        assert_ne!(base.key(), by_pipe.key());
        let explicit = RunRequest::parse(
            br#"{"workload":"towers","pipeline_depth":5,"pipeline_predictor":"none","pipeline_fetch_halfwords":2}"#,
            DEFAULT_FUEL_CAP,
        )
        .unwrap();
        assert_eq!(base.key(), explicit.key());
    }

    #[test]
    fn pipeline_knobs_retime_the_run_and_report_themselves() {
        let base = RunRequest::parse(br#"{"workload":"towers"}"#, DEFAULT_FUEL_CAP).unwrap();
        let deep = RunRequest::parse(
            br#"{"workload":"towers","pipeline_depth":8,"pipeline_predictor":"twobit"}"#,
            DEFAULT_FUEL_CAP,
        )
        .unwrap();
        let a = run(&base, None, deadline()).unwrap();
        let b = run(&deep, None, deadline()).unwrap();
        let base_doc = Json::parse(std::str::from_utf8(&a.body).unwrap()).unwrap();
        let deep_doc = Json::parse(std::str::from_utf8(&b.body).unwrap()).unwrap();
        assert!(base_doc.get("pipeline").is_none(), "default spec adds no body field");
        let p = deep_doc.get("pipeline").expect("retimed run reports its pipeline");
        assert_eq!(p.get("depth").and_then(Json::as_u64), Some(8));
        assert_eq!(p.get("predictor").and_then(Json::as_str), Some("twobit"));
        let il = |d: &Json| {
            d.get("stats").and_then(|s| s.get("interlocks")).and_then(Json::as_u64).unwrap()
        };
        assert!(il(&deep_doc) > il(&base_doc), "depth 8 stretches the load-use shadow");
        assert_eq!(
            base_doc.get("exit").and_then(Json::as_u64),
            deep_doc.get("exit").and_then(Json::as_u64),
            "retiming never changes architectural results"
        );
    }
}
