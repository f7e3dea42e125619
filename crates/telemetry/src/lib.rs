//! # d16-telemetry — counters and phase spans for the measurement path
//!
//! The paper's conclusions rest on counted events (instruction counts,
//! interlocks, I/D requests, cache misses per sub-block), so the engine
//! counts them with first-class, statically registered counters instead of
//! ad-hoc fields, and wraps its phases (cell collection, cache-grid
//! sweeps) in timed spans. The dump feeds `repro --metrics-json`
//! (schema `bench_repro/4`), which CI diffs byte-for-byte across worker
//! counts and execution engines.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Counter storage and every bump are
//!    behind the `enabled` cargo feature (re-exported as `telemetry` by
//!    the downstream crates). Compiled out, [`Counters`] is zero-sized
//!    and [`Counters::bump`] is an empty `#[inline]` function.
//! 2. **Deterministic when enabled.** Counters live in per-cell blocks
//!    (never shared atomics), are merged in cell order, and are rendered
//!    from ordered maps, so the dump is byte-identical for any `--jobs N`.
//! 3. **Cheap when enabled.** A bump is a bounds-checked array add into a
//!    statically laid-out block — no hashing, no locking, no allocation
//!    on the hot path (< 3% on the pipeline interpreter; see README
//!    "Telemetry").
//!
//! Counter *names* are registered statically through a [`Schema`]
//! (normally via the [`counter_schema!`] macro, which also defines an
//! index enum), so every subsystem's counters are enumerable without
//! running anything.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Whether counter storage is compiled in (the `enabled` cargo feature).
pub const ENABLED: bool = cfg!(feature = "enabled");

// ---------------------------------------------------------------------
// Static registration
// ---------------------------------------------------------------------

/// A statically registered table of counter names. One per subsystem,
/// built in a `static` (see [`counter_schema!`]); a [`Counters`] block is
/// laid out by it.
#[derive(Debug)]
pub struct Schema {
    names: &'static [&'static str],
}

impl Schema {
    /// Registers a name table. Intended to be called in a `static`.
    #[must_use]
    pub const fn new(names: &'static [&'static str]) -> Self {
        Schema { names }
    }

    /// Number of counters in the schema.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the schema registers no counters.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The registered names, in index order.
    #[must_use]
    pub const fn names(&self) -> &'static [&'static str] {
        self.names
    }
}

/// An index into a [`Schema`] — implemented by the enums that
/// [`counter_schema!`] generates.
pub trait CounterId: Copy {
    /// The counter's position in its schema.
    fn index(self) -> usize;
}

/// Defines a counter enum plus its static [`Schema`] in one place, so a
/// subsystem's counters are registered exactly once and bumps are plain
/// array adds:
///
/// ```
/// d16_telemetry::counter_schema! {
///     /// Demo counters.
///     pub DEMO_SCHEMA / DemoCounter {
///         Widgets => "widgets",
///         Gadgets => "gadgets",
///     }
/// }
/// let mut c = d16_telemetry::Counters::new(&DEMO_SCHEMA);
/// c.bump(DemoCounter::Widgets);
/// c.add(DemoCounter::Gadgets, 2);
/// # if d16_telemetry::ENABLED {
/// assert_eq!(c.get(DemoCounter::Gadgets), 2);
/// # }
/// ```
#[macro_export]
macro_rules! counter_schema {
    (
        $(#[$meta:meta])*
        $vis:vis $schema:ident / $id:ident {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Copy, Clone, PartialEq, Eq, Debug)]
        $vis enum $id {
            $($(#[$vmeta])* $variant,)+
        }

        impl $crate::CounterId for $id {
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }

        $(#[$meta])*
        $vis static $schema: $crate::Schema =
            $crate::Schema::new(&[$($name,)+]);
    };
}

counter_schema! {
    /// Artifact-store operation counters (`d16-store`), registered here
    /// so the `store.*` names are enumerable like every other
    /// subsystem's. The store counts with its own atomics (it must
    /// count even with telemetry compiled out — cache behavior is not
    /// a measurement) and renders through these names; the counts stay
    /// out of the experiment registry so cold and warm `--metrics-json`
    /// dumps remain byte-identical (DESIGN.md §6).
    pub STORE_SCHEMA / StoreCounter {
        /// Entries served from disk.
        Hit => "hit",
        /// Lookups that found nothing servable.
        Miss => "miss",
        /// Entries committed.
        Write => "write",
        /// Entries evicted for failing the envelope check (damaged or
        /// foreign bytes).
        CorruptEvicted => "corrupt_evicted",
        /// Lookups or commits abandoned on a filesystem error (each one
        /// degraded to recomputation).
        IoErrors => "io_errors",
        /// Commits or evictions abandoned because another writer held the
        /// entry lock past the retry budget (degraded, never blocked).
        LockContention => "lock_contention",
        /// Entries evicted because the reader's decoder rejected an intact
        /// envelope's payload (a record in another payload format).
        StaleEvicted => "stale_evicted",
    }
}

// ---------------------------------------------------------------------
// Counter blocks (the hot path)
// ---------------------------------------------------------------------

/// A block of counters laid out by a static [`Schema`]. This is the only
/// type that appears on hot paths; with the `enabled` feature off it
/// carries no storage and every method is an empty inline function.
#[derive(Clone)]
pub struct Counters {
    schema: &'static Schema,
    #[cfg(feature = "enabled")]
    vals: Vec<u64>,
}

impl Counters {
    /// An all-zero block for `schema`.
    #[must_use]
    pub fn new(schema: &'static Schema) -> Self {
        Counters {
            schema,
            #[cfg(feature = "enabled")]
            vals: vec![0; schema.len()],
        }
    }

    /// The schema this block is laid out by.
    #[must_use]
    pub fn schema(&self) -> &'static Schema {
        self.schema
    }

    /// Increments one counter.
    #[inline]
    pub fn bump(&mut self, id: impl CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&mut self, id: impl CounterId, n: u64) {
        #[cfg(feature = "enabled")]
        {
            self.vals[id.index()] += n;
        }
        #[cfg(not(feature = "enabled"))]
        let _ = (id, n);
    }

    /// One counter's value (always 0 with telemetry compiled out).
    #[must_use]
    pub fn get(&self, id: impl CounterId) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.vals[id.index()]
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = id;
            0
        }
    }

    /// Adds every counter of `other` (same schema) into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the blocks were laid out by different schemas.
    pub fn merge_from(&mut self, other: &Counters) {
        assert!(
            std::ptr::eq(self.schema, other.schema),
            "merging counter blocks of different schemas"
        );
        #[cfg(feature = "enabled")]
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            *a += *b;
        }
    }

    /// Raw values in schema order — the persistence projection (see
    /// `d16-store`). Empty with telemetry compiled out, mirroring
    /// [`Counters::iter`].
    #[must_use]
    pub fn values(&self) -> &[u64] {
        #[cfg(feature = "enabled")]
        {
            &self.vals
        }
        #[cfg(not(feature = "enabled"))]
        {
            &[]
        }
    }

    /// Rebuilds a block from values captured by [`Counters::values`].
    /// Returns `None` on a length mismatch — which is what a dump from
    /// the *other* telemetry mode looks like, so persisted blocks never
    /// silently cross the enabled/disabled boundary.
    #[must_use]
    pub fn from_values(schema: &'static Schema, vals: &[u64]) -> Option<Counters> {
        #[cfg(feature = "enabled")]
        {
            (vals.len() == schema.len()).then(|| Counters { schema, vals: vals.to_vec() })
        }
        #[cfg(not(feature = "enabled"))]
        {
            vals.is_empty().then(|| Counters::new(schema))
        }
    }

    /// `(name, value)` pairs in schema order. Empty with telemetry
    /// compiled out, so dumps degrade to nothing rather than to zeros.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        #[cfg(feature = "enabled")]
        {
            self.schema.names().iter().copied().zip(self.vals.iter().copied())
        }
        #[cfg(not(feature = "enabled"))]
        {
            std::iter::empty()
        }
    }
}

impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Number of log2 histogram buckets: bucket `i` holds durations in
/// `[2^i, 2^(i+1))` nanoseconds, with the last bucket open-ended
/// (~9.2 minutes and beyond).
pub const HIST_BUCKETS: usize = 40;

/// A log2-bucketed duration histogram (nanoseconds).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS] }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
    }

    /// The bucket a duration falls in.
    #[must_use]
    pub fn bucket(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Bucket counts; index `i` covers `[2^i, 2^(i+1))` ns.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Total recorded samples.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Aggregated statistics for one named span (phase): how often it ran
/// and how long it took. The count is deterministic; the durations are
/// wall-clock and belong in the timing (non-diffed) half of a report.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SpanStats {
    /// Completed executions of the span.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Shortest execution.
    pub min_ns: u64,
    /// Longest execution.
    pub max_ns: u64,
    /// Log2 duration histogram.
    pub hist: Histogram,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats { count: 0, total_ns: 0, min_ns: u64::MAX, max_ns: 0, hist: Histogram::default() }
    }
}

impl SpanStats {
    /// Records one execution.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.hist.record(ns);
    }

    /// Merges another span's executions into this one.
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.hist.buckets.iter_mut().zip(other.hist.buckets) {
            *a += b;
        }
    }
}

/// Times a closure, returning its result and the elapsed nanoseconds.
/// The span-recording idiom is
/// `let (v, ns) = timed(|| ...); registry.record_span("phase", ns);`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_nanos() as u64)
}

// ---------------------------------------------------------------------
// Registry (the cold path: merge + dump)
// ---------------------------------------------------------------------

/// An ordered dump target: named counters plus named spans. Everything
/// is keyed by `String` in `BTreeMap`s, so iteration — and therefore any
/// serialized dump — is deterministic no matter what order subsystems
/// reported in. Cold path only; hot paths use [`Counters`].
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStats>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `v` to the counter `name` (creating it at zero).
    pub fn add_counter(&mut self, name: impl Into<String>, v: u64) {
        *self.counters.entry(name.into()).or_insert(0) += v;
    }

    /// Absorbs a whole counter block under `prefix` (`prefix.name`).
    /// A no-op with telemetry compiled out.
    pub fn absorb(&mut self, prefix: &str, block: &Counters) {
        for (name, v) in block.iter() {
            self.add_counter(format!("{prefix}.{name}"), v);
        }
    }

    /// Records one execution of the span `name`.
    pub fn record_span(&mut self, name: impl Into<String>, wall_ns: u64) {
        self.spans.entry(name.into()).or_default().record(wall_ns);
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// One counter's value, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Spans in name order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanStats)> + '_ {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// One span's statistics, if present.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// Merges another registry (summing counters, merging spans).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.add_counter(k.clone(), *v);
        }
        for (k, s) in &other.spans {
            self.spans.entry(k.clone()).or_default().merge(s);
        }
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_schema! {
        /// Test counters.
        TEST_SCHEMA / TestCounter {
            Alpha => "alpha",
            Beta => "beta",
        }
    }

    #[test]
    fn schema_registers_names() {
        assert_eq!(TEST_SCHEMA.len(), 2);
        assert_eq!(TEST_SCHEMA.names(), &["alpha", "beta"]);
        assert!(!TEST_SCHEMA.is_empty());
    }

    #[test]
    fn bump_add_get_merge() {
        let mut a = Counters::new(&TEST_SCHEMA);
        a.bump(TestCounter::Alpha);
        a.add(TestCounter::Beta, 5);
        let mut b = Counters::new(&TEST_SCHEMA);
        b.add(TestCounter::Beta, 2);
        b.merge_from(&a);
        if ENABLED {
            assert_eq!(b.get(TestCounter::Alpha), 1);
            assert_eq!(b.get(TestCounter::Beta), 7);
            assert_eq!(b.iter().collect::<Vec<_>>(), vec![("alpha", 1), ("beta", 7)]);
        } else {
            assert_eq!(b.get(TestCounter::Beta), 0);
            assert_eq!(b.iter().count(), 0);
        }
    }

    #[test]
    fn values_roundtrip_through_from_values() {
        let mut a = Counters::new(&TEST_SCHEMA);
        a.add(TestCounter::Alpha, 3);
        a.add(TestCounter::Beta, 9);
        let vals = a.values().to_vec();
        let b = Counters::from_values(&TEST_SCHEMA, &vals).unwrap();
        assert_eq!(b.get(TestCounter::Alpha), a.get(TestCounter::Alpha));
        assert_eq!(b.get(TestCounter::Beta), a.get(TestCounter::Beta));
        if ENABLED {
            assert_eq!(vals, vec![3, 9]);
            assert!(Counters::from_values(&TEST_SCHEMA, &[1]).is_none(), "length checked");
        } else {
            assert!(vals.is_empty());
            assert!(Counters::from_values(&TEST_SCHEMA, &[1, 2]).is_none(), "cross-mode dump");
        }
    }

    #[test]
    fn store_schema_names() {
        assert_eq!(
            STORE_SCHEMA.names(),
            &[
                "hit",
                "miss",
                "write",
                "corrupt_evicted",
                "io_errors",
                "lock_contention",
                "stale_evicted"
            ]
        );
    }

    #[test]
    fn debug_renders_as_map() {
        let mut c = Counters::new(&TEST_SCHEMA);
        c.bump(TestCounter::Alpha);
        let s = format!("{c:?}");
        if ENABLED {
            assert!(s.contains("alpha"), "{s}");
        } else {
            assert_eq!(s, "{}");
        }
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 0);
        assert_eq!(Histogram::bucket(2), 1);
        assert_eq!(Histogram::bucket(3), 1);
        assert_eq!(Histogram::bucket(1024), 10);
        assert_eq!(Histogram::bucket(u64::MAX), HIST_BUCKETS - 1);
        let mut h = Histogram::default();
        h.record(1000);
        h.record(1024);
        assert_eq!(h.samples(), 2);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.buckets()[10], 1);
    }

    #[test]
    fn span_stats_aggregate() {
        let mut s = SpanStats::default();
        s.record(10);
        s.record(30);
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 40);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        let mut t = SpanStats::default();
        t.record(5);
        t.merge(&s);
        assert_eq!(t.count, 3);
        assert_eq!(t.min_ns, 5);
        assert_eq!(t.max_ns, 30);
        assert_eq!(t.hist.samples(), 3);
    }

    #[test]
    fn timed_measures_something() {
        let (v, ns) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000, "a constant should not take a second");
    }

    #[test]
    fn registry_is_ordered_and_mergeable() {
        let mut r = Registry::new();
        r.add_counter("z.last", 1);
        r.add_counter("a.first", 2);
        r.add_counter("z.last", 1);
        r.record_span("phase", 100);
        r.record_span("phase", 300);
        let names: Vec<_> = r.counters().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
        assert_eq!(r.counter("z.last"), Some(2));
        assert_eq!(r.span("phase").unwrap().count, 2);

        let mut other = Registry::new();
        other.add_counter("a.first", 1);
        other.record_span("phase", 50);
        other.record_span("other", 1);
        r.merge(&other);
        assert_eq!(r.counter("a.first"), Some(3));
        assert_eq!(r.span("phase").unwrap().count, 3);
        assert_eq!(r.span("phase").unwrap().min_ns, 50);
        assert_eq!(r.span("other").unwrap().count, 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn absorb_prefixes_block_counters() {
        let mut c = Counters::new(&TEST_SCHEMA);
        c.add(TestCounter::Alpha, 3);
        let mut r = Registry::new();
        r.absorb("sim", &c);
        if ENABLED {
            assert_eq!(r.counter("sim.alpha"), Some(3));
        } else {
            assert!(r.is_empty());
        }
    }
}
