//! `serve-mixed`: `d16-serve --workers 2 --store <fresh dir>` driven by
//! a closed loop of two connections (each client waits for its reply
//! before sending the next request, as d16-serve's script callers do).
//!
//! The seeded stream holds every named workload × serve target × opt
//! level once, inline programs from `d16_fuzz::gen`, a few cache-grid
//! sweeps on small traces, a few invalid requests, and repeats that hit
//! the response cache. A repeat is sent only after the request it
//! repeats was answered, so which requests hit the cache does not
//! depend on timing.
//!
//! The traced run replays the same stream in this process through
//! `RunRequest::parse` and `api::run` on a fresh store.

use crate::layers;
use crate::trace::Tracer;
use crate::{fastest, fresh_dir, proc, quantile, Args, Outcome};
use d16_bench::json::Json;
use d16_serve::http;
use d16_serve::{api, RunRequest, DEFAULT_FUEL_CAP};
use d16_testkit::Rng;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is the fastest.
const SETUPS: usize = 7;

/// Requests per requested second; never fewer than `MIN_REQUESTS`.
const REQUESTS_PER_SECOND: u64 = 50;

/// Enough requests that at least ten samples lie beyond p99.
const MIN_REQUESTS: u64 = 1000;

/// Share of the stream that repeats an earlier request.
const REPEAT_SHARE: f64 = 0.2;

/// Seeds the order of the heavy requests, which is the same for every
/// workload seed.
const HEAVY_ORDER_SEED: u64 = 0x5e57_4ea7;

/// Cache-grid sweeps, on workloads with small traces only.
const SWEEPS: [(&str, &str); 4] = [
    ("towers", "D16/16/2"),
    ("queens", "DLXe/32/3"),
    ("towers", "D16x/16/3"),
    ("queens", "D16/16/2"),
];

/// The longest programs: their interpreter runs take a second or more
/// per request, so they run on the block engine only. Their requests
/// and the sweeps are the heavy ones, which set p99 (0.25–0.9 s against
/// a p50 of 10–16 ms on the machine the benchmark was designed on).
const BLOCKS_ONLY: [&str; 4] = ["intkernel", "pi", "latex", "ipl"];

const TARGETS: [&str; 6] =
    ["D16/16/2", "DLXe/16/2", "DLXe/16/3", "DLXe/32/2", "DLXe/32/3", "D16x/16/3"];

/// A loop that needs far more than 1000 instructions.
const LOOP_SRC: &str = "int main(void) { int i; int s; s = 0; \
    for (i = 0; i < 5000; i++) s = (s + i) & 4095; return s; }";

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    Named,
    Inline,
    Sweep,
    Invalid,
    Repeat,
}

#[derive(Clone)]
struct Req {
    class: Class,
    body: String,
    status: u16,
    /// The `exit` a 200 body must carry.
    exit: Option<i32>,
    /// For a repeat, the stream index of the request it repeats; it is
    /// sent only once that request has been answered.
    after: Option<usize>,
    /// A first-time request expected to take longer than p99: a sweep
    /// or a named run of a `BLOCKS_ONLY` program. A repeat is a cache
    /// hit, never heavy.
    heavy: bool,
}

fn quote(s: &str) -> String {
    Json::from(s).to_string_compact()
}

/// The first-time requests of the stream, before repeats.
fn first_time(rng: &mut Rng, inline: u64) -> Result<Vec<Req>, String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    for w in d16_workloads::SUITE.iter().chain(d16_workloads::EXTRAS) {
        for target in TARGETS {
            for opt in ["O0", "O2"] {
                // Engines alternate over the fixed grid, so every stream
                // carries the same named work; the longest programs run
                // on the block engine only.
                let long = BLOCKS_ONLY.contains(&w.name);
                let interp = i % 2 == 1 && !long;
                let engine = if interp { "interp" } else { "blocks" };
                i += 1;
                out.push(Req {
                    class: Class::Named,
                    body: format!(
                        "{{\"workload\":\"{}\",\"target\":\"{target}\",\"opt\":\"{opt}\",\"engine\":\"{engine}\"}}",
                        w.name
                    ),
                    status: 200,
                    exit: w.expected,
                    after: None,
                    heavy: long,
                });
            }
        }
    }
    for (name, target) in SWEEPS {
        let w = d16_workloads::by_name(name).ok_or(format!("no workload {name}"))?;
        out.push(Req {
            class: Class::Sweep,
            body: format!("{{\"workload\":\"{name}\",\"target\":\"{target}\",\"sweep\":true}}"),
            status: 200,
            exit: w.expected,
            after: None,
            heavy: true,
        });
    }
    let invalid = [
        ("{\"workload\":\"towers\",\"target\":\"M68K\"}".to_string(), 400),
        ("{\"workload\":\"nonesuch\"}".to_string(), 400),
        ("{\"source\":\"int main( { return oops; }\"}".to_string(), 422),
        (format!("{{\"source\":{},\"fuel\":1000}}", quote(LOOP_SRC)), 400),
    ];
    for (body, status) in invalid.iter().chain(invalid.iter()) {
        out.push(Req {
            class: Class::Invalid,
            body: body.clone(),
            status: *status,
            exit: None,
            after: None,
            heavy: false,
        });
    }
    let mut made = 0;
    while made < inline {
        let prog = d16_fuzz::gen::program(&mut Rng::new(rng.next_u64()));
        // A program the reference interpreter cannot finish has no
        // expected value; draw another.
        let Ok(exit) = d16_fuzz::interp::run(&prog) else { continue };
        let target = *rng.pick(&TARGETS);
        let opt = *rng.pick(&["O0", "O2"]);
        let engine = *rng.pick(&["blocks", "interp"]);
        out.push(Req {
            class: Class::Inline,
            body: format!(
                "{{\"source\":{},\"target\":\"{target}\",\"opt\":\"{opt}\",\"engine\":\"{engine}\"}}",
                quote(&prog.to_c())
            ),
            status: 200,
            exit: Some(exit),
            after: None,
            heavy: false,
        });
        made += 1;
    }
    Ok(out)
}

/// The request stream for `seed`: first-time requests in a seeded
/// order, with repeats of earlier ones mixed in.
///
/// The heavy requests set p99, and two of them running at once on the
/// two connections slow each other. They therefore take evenly spaced
/// positions in one fixed order, the same for every seed, so that which
/// of them overlap does not change with the seed; the seed orders the
/// light requests around them.
fn stream(seed: u64, total: u64) -> Result<Vec<Req>, String> {
    let mut rng = Rng::new(seed ^ 0x5e57_e000);
    let fixed = (d16_workloads::SUITE.len() + d16_workloads::EXTRAS.len()) * TARGETS.len() * 2
        + SWEEPS.len()
        + 8;
    let firsts = ((total as f64) * (1.0 - REPEAT_SHARE)).round() as u64;
    let mut reqs = first_time(&mut rng, firsts.saturating_sub(fixed as u64))?;
    // Each cacheable request key appears once among first-time
    // requests, so only planned repeats can hit the cache.
    let mut keys = HashSet::new();
    reqs.retain(|r| match RunRequest::parse(r.body.as_bytes(), DEFAULT_FUEL_CAP) {
        Ok(p) if r.status == 200 => keys.insert(p.key()),
        _ => true,
    });
    let (mut heavy, mut light): (Vec<Req>, Vec<Req>) = reqs.into_iter().partition(|r| r.heavy);
    shuffle(&mut heavy, &mut Rng::new(HEAVY_ORDER_SEED));
    shuffle(&mut light, &mut rng);
    let mut repeats = total.saturating_sub((heavy.len() + light.len()) as u64) as usize;
    let n = heavy.len() + light.len() + repeats;
    let stride = n / heavy.len().max(1);
    let mut left = light.len();
    let (mut heavy, mut light) = (heavy.into_iter().peekable(), light.into_iter());
    let mut out: Vec<Req> = Vec::with_capacity(n);
    let mut originals: Vec<usize> = Vec::new();
    while out.len() < n {
        if out.len() % stride == stride / 2 && heavy.peek().is_some() {
            originals.push(out.len());
            out.push(heavy.next().expect("a heavy request remains"));
            continue;
        }
        let repeat = !originals.is_empty()
            && repeats > 0
            && (left == 0 || rng.below((left + repeats) as u32) < repeats as u32);
        if repeat {
            let of = originals[rng.below(originals.len() as u32) as usize];
            let r = Req { class: Class::Repeat, after: Some(of), heavy: false, ..out[of].clone() };
            out.push(r);
            repeats -= 1;
        } else {
            originals.push(out.len());
            out.push(light.next().expect("first-time requests remain"));
            left -= 1;
        }
    }
    Ok(out)
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u32 + 1) as usize);
    }
}

fn composition(reqs: &[Req]) -> BTreeMap<Class, u64> {
    let mut m = BTreeMap::new();
    for r in reqs {
        *m.entry(r.class).or_insert(0) += 1;
    }
    m
}

/// Runs `each` over the stream on `JOBS` threads in a closed loop: a
/// thread takes the next request only after its previous one was
/// answered, and holds a repeat until its original was answered.
fn closed_loop<T: Send>(reqs: &[Req], each: impl Fn(usize, &Req) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(vec![false; reqs.len()]);
    let answered = Condvar::new();
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..crate::JOBS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(r) = reqs.get(i) else { break };
                        if let Some(of) = r.after {
                            let mut d = done.lock().expect("done list poisoned");
                            while !d[of] {
                                d = answered.wait(d).expect("done list poisoned");
                            }
                        }
                        mine.push((i, each(i, r)));
                        done.lock().expect("done list poisoned")[i] = true;
                        answered.notify_all();
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    results.sort_by_key(|r| r.0);
    results.into_iter().map(|r| r.1).collect()
}

/// A booted daemon.
struct Daemon {
    proc: proc::Running,
    addr: String,
}

fn boot(store: &Path, dir: &Path) -> Result<Daemon, String> {
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| format!("log: {e}"))?;
    let mut cmd = Command::new(crate::bin_dir().join("d16-serve"));
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_file)
        .args(["--workers", &crate::JOBS.to_string(), "--queue", "64"])
        .arg("--store")
        .arg(store)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log);
    let proc = proc::spawn(&mut cmd)?;
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut daemon = None;
    while Instant::now() < deadline {
        if let Ok(port) = std::fs::read_to_string(&port_file) {
            let port = port.trim();
            if !port.is_empty() {
                let addr =
                    if port.contains(':') { port.to_string() } else { format!("127.0.0.1:{port}") };
                if http::request(&addr, "GET", "/healthz", b"").is_ok_and(|r| r.status == 200) {
                    daemon = Some(addr);
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    match daemon {
        Some(addr) => Ok(Daemon { proc, addr }),
        None => {
            let pid = proc.pid();
            let _ = proc.wait(Duration::ZERO);
            Err(format!("d16-serve (pid {pid}) did not answer /healthz"))
        }
    }
}

impl Daemon {
    fn stop(self) -> Result<proc::Exit, String> {
        http::request(&self.addr, "POST", "/shutdown", b"")
            .map_err(|e| format!("POST /shutdown: {e:?}"))?;
        self.proc.wait(Duration::from_secs(30))
    }
}

/// One answered request, as the client saw it.
struct Seen {
    latency_s: f64,
    server_s: f64,
    status: u16,
    hit: bool,
    exit: Option<i32>,
}

fn send(addr: &str, r: &Req) -> Result<Seen, String> {
    let t0 = Instant::now();
    let resp = http::request(addr, "POST", "/v1/run", r.body.as_bytes())
        .map_err(|e| format!("POST /v1/run: {e:?}"))?;
    let latency_s = t0.elapsed().as_secs_f64();
    let server_s =
        resp.header("x-d16-wall-ns").and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 1e9;
    let exit = (resp.status == 200)
        .then(|| Json::parse(&String::from_utf8_lossy(&resp.body)).ok())
        .flatten()
        .and_then(|doc| doc.get("exit").and_then(Json::as_f64))
        .map(|v| v as i32);
    Ok(Seen {
        latency_s,
        server_s,
        status: resp.status,
        hit: resp.header("x-d16-cache") == Some("hit"),
        exit,
    })
}

/// Whether an answer is the expected one.
fn answered_right(r: &Req, status: u16, exit: Option<i32>) -> bool {
    status == r.status && (status != 200 || exit == r.exit)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let total = MIN_REQUESTS.max(args.seconds * REQUESTS_PER_SECOND);
    let mut setups = Vec::new();
    let mut live: Option<(std::path::PathBuf, Daemon, Vec<Req>)> = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let dir = fresh_dir(&format!("serve-mixed-{i}"))?;
        let reqs = stream(args.seed, total)?;
        let daemon = boot(&dir.join("store"), &dir)?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some((old_dir, old_daemon, old_reqs)) = live.replace((dir, daemon, reqs)) {
            old_daemon.stop()?;
            std::fs::remove_dir_all(&old_dir).map_err(|e| format!("removing: {e}"))?;
            if composition(&old_reqs) != composition(&live.as_ref().expect("just set").2) {
                out.fail("the request stream differs between two set-ups of one seed");
            }
        }
    }
    let (dir, daemon, reqs) = live.expect("at least one set-up ran");

    let comp = composition(&reqs);
    let n = reqs.len();
    let class = |c| comp.get(&c).copied().unwrap_or(0);
    let heavy = reqs.iter().filter(|r| r.heavy).count();
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    // p99 lands inside the heavy requests' own spread only if there are
    // several times more of them than samples beyond the p99 rank.
    println!(
        "stream: {n} requests, closed loop of {} connections: named {} inline {} sweep {} \
         invalid {} repeat {}; heavy (sweeps and named {}) {heavy} vs {} samples beyond \
         the p99 rank {p99_rank}",
        crate::JOBS,
        class(Class::Named),
        class(Class::Inline),
        class(Class::Sweep),
        class(Class::Invalid),
        class(Class::Repeat),
        BLOCKS_ONLY.join("/"),
        n - p99_rank,
    );
    for (class, count) in &comp {
        out.determinism.insert(format!("stream.{class:?}"), *count);
    }
    out.determinism.insert("stream.heavy".into(), heavy as u64);

    let t0 = Instant::now();
    let seen = closed_loop(&reqs, |_, r| send(&daemon.addr, r));
    let wall_s = t0.elapsed().as_secs_f64();
    let exit = daemon.stop()?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;

    let mut latencies = Vec::new();
    let (mut wait_s, mut shed, mut hits) = (0.0, 0u64, 0u64);
    for (r, s) in reqs.iter().zip(seen) {
        let s = s?;
        out.attempted += 1;
        latencies.push(s.latency_s);
        wait_s += s.latency_s - s.server_s;
        shed += u64::from(s.status == 429);
        hits += u64::from(s.hit);
        if !answered_right(r, s.status, s.exit) {
            out.failed += 1;
            if out.failed <= 5 {
                eprintln!("unexpected answer {} {:?} to {}", s.status, s.exit, r.body);
            }
        }
    }
    out.determinism.insert("store.hits".into(), hits);
    // Which requests p99 actually rests on: the classes of the samples
    // at and beyond its rank.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| latencies[b].total_cmp(&latencies[a]));
    let tail = &order[..=n - p99_rank];
    println!(
        "tail: p99 {:.1} ms; of the {} slowest requests {} are heavy; slowest light request \
         {:.1} ms",
        quantile(&latencies, 0.99) * 1e3,
        tail.len(),
        tail.iter().filter(|&&i| reqs[i].heavy).count(),
        order.iter().find(|&&i| !reqs[i].heavy).map_or(0.0, |&i| latencies[i] * 1e3),
    );

    if args.trace {
        let t = Tracer::new();
        let t0 = Instant::now();
        let traced_hits = traced(&t, &reqs, &mut out)?;
        let traced_wall = t0.elapsed().as_secs_f64();
        // The traced run calls the daemon's request pipeline itself; a
        // different hit count means it no longer serves as d16-serve does.
        out.attempted += 1;
        if traced_hits != hits {
            out.failed += 1;
            out.fail(format!("the traced run hit the store {traced_hits} times, d16-serve {hits}"));
        }
        t.add("serve.wait_s", wait_s);
        t.add("serve.shed", shed as f64);
        layers::finish(t, traced_wall, wall_s, args, &mut out)?;
    } else {
        out.metrics = vec![
            ("wall_s", wall_s, "s"),
            ("setup_s", fastest(&setups), "s"),
            ("peak_rss_mb", exit.peak_rss_mb, "MB"),
            ("p50_ms", quantile(&latencies, 0.50) * 1e3, "ms"),
            ("p99_ms", quantile(&latencies, 0.99) * 1e3, "ms"),
        ];
    }
    Ok(out)
}

/// Replays the stream through `api::run` on a fresh store, in the same
/// closed loop the daemon is driven with. Returns the store's hits.
fn traced(t: &Tracer, reqs: &[Req], out: &mut Outcome) -> Result<u64, String> {
    let dir = fresh_dir("serve-mixed-traced")?;
    let store = d16_store::Store::open(dir.join("store")).map_err(|e| format!("store: {e}"))?;
    let answers = closed_loop(reqs, |i, r| traced_request(t, i as u64, r, &store));
    for (r, (status, exit)) in reqs.iter().zip(answers) {
        out.attempted += 1;
        out.failed += u64::from(!answered_right(r, status, exit));
    }
    let st = store.stats();
    t.add("store.hits", st.hit as f64);
    t.add("store.misses", st.miss as f64);
    t.add("store.writes", st.write as f64);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(st.hit)
}

/// One request through the daemon's request pipeline, with spans.
/// Returns the status and, for a 200, the body's `exit`.
fn traced_request(t: &Tracer, id: u64, r: &Req, store: &d16_store::Store) -> (u16, Option<i32>) {
    let parsed =
        t.span("serve.parse", id, || RunRequest::parse(r.body.as_bytes(), DEFAULT_FUEL_CAP));
    let req = match parsed {
        Ok(req) => req,
        Err(e) => return (e.status(), None),
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let res = t.span_named_by(
        id,
        || {
            let res = api::run(&req, Some(store), deadline);
            if let Ok(o) = &res {
                if !o.cache_hit {
                    let sim = match req.engine {
                        d16_sim::Engine::Blocks => "sim.blocks",
                        d16_sim::Engine::Interp => "sim.interp",
                    };
                    t.record_seq(
                        id,
                        &[
                            ("cc.compile", o.compile_ns),
                            (sim, o.execute_ns),
                            ("mem.grid_replay", o.sweep_ns),
                        ],
                    );
                }
            }
            res
        },
        |res| if res.as_ref().is_ok_and(|o| o.cache_hit) { "store.hit" } else { "serve.run" },
    );
    match res {
        Ok(o) => {
            let doc = Json::parse(&String::from_utf8_lossy(&o.body)).ok();
            let exit =
                doc.as_ref().and_then(|d| d.get("exit")).and_then(Json::as_f64).map(|v| v as i32);
            if !o.cache_hit {
                t.add("serve.compile_s", o.compile_ns as f64 / 1e9);
                t.add("serve.execute_s", o.execute_ns as f64 / 1e9);
                t.add("serve.sweep_s", o.sweep_ns as f64 / 1e9);
                t.add("cc.compiles", 1.0);
                t.add("asm.images", 1.0);
                if let Some(d) = &doc {
                    let text = d.get("text_bytes").and_then(Json::as_f64).unwrap_or(0.0);
                    t.add("asm.text_bytes", text);
                    let insns = d
                        .get("stats")
                        .and_then(|s| s.get("insns"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    t.add("sim.insns", insns);
                    t.add(
                        match req.engine {
                            d16_sim::Engine::Blocks => "sim.blocks_insns",
                            d16_sim::Engine::Interp => "sim.interp_insns",
                        },
                        insns,
                    );
                }
            }
            (200, exit)
        }
        Err(e) => (e.status(), None),
    }
}
