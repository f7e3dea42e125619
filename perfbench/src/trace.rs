//! In-memory span recorder for the traced run.
//!
//! A span is (id, parent, name, request id, start, end). Spans are kept
//! in memory and written out once, when the run ends. The layer of a
//! span is its name up to the first `.` (`cc.compile` is in `cc`).
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! the crates; nothing inside the program under test is instrumented.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans per storage chunk. Spans are kept in fixed-size chunks that
/// are never reallocated, so recording does not free and re-request
/// large blocks from the allocator while the traced code runs (its
/// `Machine::load` cost depends on the allocator's state).
const CHUNK: usize = 1024;

/// Span and counter sink shared by every thread of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Spans>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

#[derive(Default)]
struct Spans {
    chunks: Vec<Vec<Span>>,
    len: usize,
}

impl Spans {
    /// Appends a span, giving it the next id (ids start at 1).
    fn push(&mut self, mut s: Span) -> u64 {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.len += 1;
        s.id = self.len as u64;
        self.chunks.last_mut().expect("a chunk was just ensured").push(s);
        self.len as u64
    }

    fn get_mut(&mut self, id: u64) -> &mut Span {
        let i = (id - 1) as usize;
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
}

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Spans { chunks: Vec::with_capacity(4096), len: 0 }),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` whose parent is the
    /// innermost span open on this thread.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.span_named_by(req, f, |_| name)
    }

    /// [`Tracer::span`] whose name is chosen from `f`'s result (a store
    /// hit and a computed request are different layers).
    pub fn span_named_by<T>(
        &self,
        req: u64,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        let parent = CURRENT.with(Cell::get);
        let start_ns = self.now_ns();
        let id = self.spans.lock().expect("span list poisoned").push(Span {
            id: 0,
            parent,
            name: "",
            req,
            start_ns,
            end_ns: start_ns,
        });
        CURRENT.with(|c| c.set(id));
        let out = f();
        CURRENT.with(|c| c.set(parent));
        let end_ns = self.now_ns();
        let name = name(&out);
        let mut spans = self.spans.lock().expect("span list poisoned");
        let s = spans.get_mut(id);
        s.end_ns = end_ns;
        s.name = name;
        out
    }

    /// Records already-measured phases as children of the innermost open
    /// span, laid back to back and ending now (used for phase times the
    /// program reports itself, such as a served request's compile time).
    pub fn record_seq(&self, req: u64, parts: &[(&'static str, u64)]) {
        let parent = CURRENT.with(Cell::get);
        let total: u64 = parts.iter().map(|p| p.1).sum();
        let mut start_ns = self.now_ns().saturating_sub(total);
        let mut spans = self.spans.lock().expect("span list poisoned");
        for &(name, dur_ns) in parts.iter().filter(|p| p.1 > 0) {
            spans.push(Span { id: 0, parent, name, req, start_ns, end_ns: start_ns + dur_ns });
            start_ns += dur_ns;
        }
    }

    /// The innermost open span on this thread, to hand to a worker.
    pub fn current() -> u64 {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` on this (worker) thread as if `parent` were open.
    pub fn with_parent<T>(parent: u64, f: impl FnOnce() -> T) -> T {
        let saved = CURRENT.with(|c| c.replace(parent));
        let out = f();
        CURRENT.with(|c| c.set(saved));
        out
    }

    pub fn add(&self, name: &'static str, v: f64) {
        *self.counts.lock().expect("counter map poisoned").entry(name).or_insert(0.0) += v;
    }

    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        (
            self.spans.into_inner().expect("span list poisoned").chunks.concat(),
            self.counts.into_inner().expect("counter map poisoned"),
        )
    }
}

/// Where a traced run's wall time went.
pub struct Accounting {
    /// Self time per layer: a span's duration minus the union of its
    /// direct children's intervals.
    pub self_ns: BTreeMap<String, u64>,
    /// Child time that ran in parallel under one parent: the sum of the
    /// children's durations minus their union.
    pub overlap_ns: u64,
    /// Wall time no span covers.
    pub residual_ns: i64,
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Splits `wall_ns` into per-layer self times, parallel overlap and an
/// explicit residual, so that `Σ self − overlap + residual = wall`.
pub fn account(spans: &[Span], wall_ns: u64) -> Accounting {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut overlap_ns = 0u64;
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let (union, sum) = union_and_sum(kids);
        overlap_ns += sum - union;
        *self_ns.entry(layer_of(s.name).to_string()).or_insert(0) +=
            s.dur_ns().saturating_sub(union);
    }
    let roots = children.get(&0).map(Vec::as_slice).unwrap_or(&[]);
    let (root_union, root_sum) = union_and_sum(roots);
    overlap_ns += root_sum - root_union;
    let covered = self_ns.values().sum::<u64>() as i64 - overlap_ns as i64;
    Accounting { self_ns, overlap_ns, residual_ns: wall_ns as i64 - covered }
}

/// Total length of the union of intervals, and the sum of their lengths.
fn union_and_sum(intervals: &[(u64, u64)]) -> (u64, u64) {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let (mut union, mut sum) = (0u64, 0u64);
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        sum += b - a;
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                union += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        union += cb - ca;
    }
    (union, sum)
}

/// Writes the spans as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
