//! # d16-bench — benchmarks and the reproduction harness
//!
//! * `repro` (binary): regenerates every table and figure of the paper —
//!   `cargo run --release -p d16-bench --bin repro -- --all`. With
//!   `--bench-json <path>` it also writes a machine-readable timing
//!   report (`BENCH_repro.json`) covering end-to-end suite collection and
//!   cache-grid regeneration.
//! * `checksums` (binary): prints each workload's pinned checksum.
//! * `benches/components.rs`: encoder/pipeline/cache/compiler throughput.
//! * `benches/paper_tables.rs`: per-table regeneration timing + sanity.
//! * `benches/ablations.rs`: design-choice ablations with asserted effect
//!   directions (delay-slot scheduling, `cmpeqi`, wrap-around prefetch).
//!
//! The benches use the in-repo [`harness`] below instead of an external
//! framework so the workspace builds offline with no registry access
//! (DESIGN.md §7); each bench is a plain `fn main()` with
//! `harness = false`.

pub mod harness {
    //! A deliberately small wall-clock timing harness: warm up, run a
    //! fixed number of timed iterations, report min / mean / max. The
    //! point is stable, machine-readable numbers with zero dependencies,
    //! not statistical rigor — for that, profile the `repro` binary.

    use std::hint::black_box;
    use std::time::Instant;

    /// One benchmark's timing summary. Durations are nanoseconds per
    /// iteration; `throughput_elems` (when set) lets reports derive
    /// elements/second.
    #[derive(Clone, Debug)]
    pub struct Measurement {
        pub name: String,
        pub iters: u32,
        pub min_ns: u128,
        pub mean_ns: u128,
        pub max_ns: u128,
        pub throughput_elems: Option<u64>,
    }

    impl Measurement {
        /// Elements per second at the mean iteration time, if a
        /// throughput was declared.
        pub fn elems_per_sec(&self) -> Option<f64> {
            let n = self.throughput_elems?;
            if self.mean_ns == 0 {
                return None;
            }
            Some(n as f64 * 1e9 / self.mean_ns as f64)
        }
    }

    /// Times `f` over `iters` iterations (plus one untimed warm-up),
    /// printing a one-line summary and returning the measurement. The
    /// closure's result is `black_box`ed so the work is not optimized
    /// away.
    pub fn bench<T>(name: &str, iters: u32, f: impl FnMut() -> T) -> Measurement {
        let m = quiet_bench(name, iters, f);
        print_line(&m);
        m
    }

    /// Like [`bench()`] but tags the measurement with an element count so
    /// the summary line includes a throughput figure.
    pub fn bench_throughput<T>(
        name: &str,
        iters: u32,
        elems: u64,
        f: impl FnMut() -> T,
    ) -> Measurement {
        let mut m = quiet_bench(name, iters, f);
        m.throughput_elems = Some(elems);
        print_line(&m);
        m
    }

    /// [`bench()`] without the summary line, for callers that render their
    /// own report (the `repro` binary's JSON output).
    pub fn quiet_bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> Measurement {
        assert!(iters > 0, "iters must be positive");
        black_box(f());
        let mut min = u128::MAX;
        let mut max = 0u128;
        let mut total = 0u128;
        for _ in 0..iters {
            let t0 = Instant::now();
            black_box(f());
            let dt = t0.elapsed().as_nanos();
            min = min.min(dt);
            max = max.max(dt);
            total += dt;
        }
        Measurement {
            name: name.to_string(),
            iters,
            min_ns: min,
            mean_ns: total / u128::from(iters),
            max_ns: max,
            throughput_elems: None,
        }
    }

    fn print_line(m: &Measurement) {
        let fmt = |ns: u128| -> String {
            if ns >= 1_000_000_000 {
                format!("{:.3} s", ns as f64 / 1e9)
            } else if ns >= 1_000_000 {
                format!("{:.3} ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.3} us", ns as f64 / 1e3)
            } else {
                format!("{ns} ns")
            }
        };
        match m.elems_per_sec() {
            Some(eps) => println!(
                "{:<44} {:>12}/iter  (min {:>12}, {} iters, {:.2} Melem/s)",
                m.name,
                fmt(m.mean_ns),
                fmt(m.min_ns),
                m.iters,
                eps / 1e6
            ),
            None => println!(
                "{:<44} {:>12}/iter  (min {:>12}, {} iters)",
                m.name,
                fmt(m.mean_ns),
                fmt(m.min_ns),
                m.iters
            ),
        }
    }
}

pub mod json {
    //! A minimal JSON value + serializer, enough for `BENCH_repro.json`.
    //! Numbers are emitted via Rust's `Display` for `f64`/`u64`/`i64`
    //! (non-finite floats become `null`, as JSON has no NaN/Inf).

    use std::fmt;

    /// A JSON value. Object keys keep insertion order.
    #[derive(Clone, Debug)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn obj() -> Json {
            Json::Obj(Vec::new())
        }

        /// Appends a key/value pair; builder-style.
        pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
            match &mut self {
                Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
                _ => panic!("Json::with on a non-object"),
            }
            self
        }

        /// Serializes with no insignificant whitespace.
        pub fn to_string_compact(&self) -> String {
            self.to_string()
        }

        /// Parses a JSON document (the subset this module emits: no
        /// exponent-less edge cases are excluded — standard numbers,
        /// strings with the common escapes, arrays, objects).
        ///
        /// # Errors
        ///
        /// Returns a message with the byte offset of the first error.
        pub fn parse(text: &str) -> Result<Json, String> {
            let b = text.as_bytes();
            let mut pos = 0usize;
            let v = parse_value(text, &mut pos)?;
            skip_ws(b, &mut pos);
            if pos != b.len() {
                return Err(format!("trailing data at byte {pos}"));
            }
            Ok(v)
        }

        /// The value under `key`, if this is an object that has it.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if it is one exactly.
        pub fn as_u64(&self) -> Option<u64> {
            let n = self.as_f64()?;
            (n >= 0.0 && n.fract() == 0.0 && n <= 9e15).then_some(n as u64)
        }

        /// The string value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The key/value pairs, if this is an object.
        pub fn as_obj(&self) -> Option<&[(String, Json)]> {
            match self {
                Json::Obj(pairs) => Some(pairs),
                _ => None,
            }
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn eat(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {pos}"))
        }
    }

    fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
        let b = text.as_bytes();
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => eat(b, pos, "null").map(|()| Json::Null),
            Some(b't') => eat(b, pos, "true").map(|()| Json::Bool(true)),
            Some(b'f') => eat(b, pos, "false").map(|()| Json::Bool(false)),
            Some(b'"') => parse_string(text, pos).map(Json::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(text, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut pairs = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(text, pos)?;
                    skip_ws(b, pos);
                    eat(b, pos, ":")?;
                    pairs.push((key, parse_value(text, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                    }
                }
            }
            Some(_) => {
                let start = *pos;
                if b.get(*pos) == Some(&b'-') {
                    *pos += 1;
                }
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                s.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{s}` at byte {start}"))
            }
        }
    }

    /// Parses the string starting at byte `pos` of `text`. Each run of
    /// plain characters up to the next `"` or `\` is copied at once;
    /// both are ASCII, so every run starts and ends on a character
    /// boundary and the whole string costs one pass.
    fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
        let b = text.as_bytes();
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad codepoint at byte {pos}"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\');
                    let end = run.map_or(b.len(), |n| *pos + n);
                    out.push_str(&text[*pos..end]);
                    *pos = end;
                }
            }
        }
    }

    impl From<bool> for Json {
        fn from(v: bool) -> Json {
            Json::Bool(v)
        }
    }
    impl From<f64> for Json {
        fn from(v: f64) -> Json {
            Json::Num(v)
        }
    }
    impl From<u32> for Json {
        fn from(v: u32) -> Json {
            Json::Num(f64::from(v))
        }
    }
    impl From<u64> for Json {
        fn from(v: u64) -> Json {
            Json::Num(v as f64)
        }
    }
    impl From<usize> for Json {
        fn from(v: usize) -> Json {
            Json::Num(v as f64)
        }
    }
    impl From<u128> for Json {
        fn from(v: u128) -> Json {
            Json::Num(v as f64)
        }
    }
    impl From<&str> for Json {
        fn from(v: &str) -> Json {
            Json::Str(v.to_string())
        }
    }
    impl From<String> for Json {
        fn from(v: String) -> Json {
            Json::Str(v)
        }
    }
    impl From<Vec<Json>> for Json {
        fn from(v: Vec<Json>) -> Json {
            Json::Arr(v)
        }
    }

    impl fmt::Display for Json {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Json::Null => write!(f, "null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Num(n) => {
                    if n.is_finite() {
                        // Integral values print without a trailing ".0" so
                        // counters read as integers.
                        if n.fract() == 0.0 && n.abs() < 9e15 {
                            write!(f, "{}", *n as i64)
                        } else {
                            write!(f, "{n}")
                        }
                    } else {
                        write!(f, "null")
                    }
                }
                Json::Str(s) => {
                    write!(f, "\"")?;
                    for c in s.chars() {
                        match c {
                            '"' => write!(f, "\\\"")?,
                            '\\' => write!(f, "\\\\")?,
                            '\n' => write!(f, "\\n")?,
                            '\r' => write!(f, "\\r")?,
                            '\t' => write!(f, "\\t")?,
                            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                            c => write!(f, "{c}")?,
                        }
                    }
                    write!(f, "\"")
                }
                Json::Arr(items) => {
                    write!(f, "[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{v}")?;
                    }
                    write!(f, "]")
                }
                Json::Obj(pairs) => {
                    write!(f, "{{")?;
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}:{v}", Json::Str(k.clone()))?;
                    }
                    write!(f, "}}")
                }
            }
        }
    }

    /// A [`super::harness::Measurement`] as a JSON object.
    pub fn measurement(m: &crate::harness::Measurement) -> Json {
        let mut j = Json::obj()
            .with("name", m.name.as_str())
            .with("iters", m.iters)
            .with("min_ns", m.min_ns)
            .with("mean_ns", m.mean_ns)
            .with("max_ns", m.max_ns);
        if let Some(n) = m.throughput_elems {
            j = j.with("throughput_elems", n);
        }
        j
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn escapes_and_shapes() {
            let j = Json::obj()
                .with("s", "a\"b\\c\nd")
                .with("n", 42u64)
                .with("f", 1.5f64)
                .with("b", true)
                .with("a", vec![Json::Null, Json::Num(3.0)]);
            assert_eq!(j.to_string(), r#"{"s":"a\"b\\c\nd","n":42,"f":1.5,"b":true,"a":[null,3]}"#);
        }

        #[test]
        fn non_finite_is_null() {
            assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        }

        #[test]
        fn parse_round_trips_what_we_emit() {
            let j = Json::obj()
                .with("s", "a\"b\\c\nd")
                .with("n", 42u64)
                .with("f", -1.5f64)
                .with("b", true)
                .with("x", Json::Null)
                .with("a", vec![Json::Num(3.0), Json::Str("y".into())])
                .with("o", Json::obj().with("k", 7u64));
            let text = j.to_string();
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed.to_string(), text, "round trip is stable");
            assert_eq!(parsed.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
            assert_eq!(parsed.get("n").unwrap().as_u64(), Some(42));
            assert_eq!(parsed.get("f").unwrap().as_f64(), Some(-1.5));
            assert_eq!(parsed.get("a").unwrap().as_arr().unwrap().len(), 2);
            assert_eq!(parsed.get("o").unwrap().get("k").unwrap().as_u64(), Some(7));
            assert!(parsed.get("missing").is_none());
        }

        #[test]
        fn parse_accepts_whitespace_and_escapes() {
            let j = Json::parse(" { \"a\" : [ 1 , 2.5e1 ] , \"u\" : \"\\u0041\" } ").unwrap();
            assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(25.0));
            assert_eq!(j.get("u").unwrap().as_str(), Some("A"));
        }

        #[test]
        fn parse_decodes_every_escape_and_multibyte_text() {
            let j = Json::parse(r#""q\"b\\s\/n\nr\rt\tu\u00e9""#).unwrap();
            assert_eq!(j.as_str(), Some("q\"b\\s/n\nr\rt\tu\u{e9}"));
            // Two-, three- and four-byte characters, next to escapes and
            // at both ends of the string.
            let text = "é, 世界 \n 🚀 ünï\"cødé🚀";
            let j = Json::parse(&Json::Str(text.to_string()).to_string()).unwrap();
            assert_eq!(j.as_str(), Some(text));
            let j = Json::parse("{\"ключ\":\"значение\"}").unwrap();
            assert_eq!(j.get("ключ").and_then(Json::as_str), Some("значение"));
            for bad in [r#""\x""#, r#""\u12""#, r#""\ud800""#, "\"\\", "\"é"] {
                assert!(Json::parse(bad).is_err(), "{bad}");
            }
        }

        #[test]
        fn parse_rejects_garbage() {
            assert!(Json::parse("").is_err());
            assert!(Json::parse("{").is_err());
            assert!(Json::parse("[1,]").is_err());
            assert!(Json::parse("{\"a\":1} extra").is_err());
            assert!(Json::parse("nul").is_err());
            assert!(Json::parse("\"open").is_err());
        }
    }
}

pub mod report {
    //! Rendering a [`d16_telemetry::Registry`] into the two halves of the
    //! `bench_repro/4` schema (see EXPERIMENTS.md):
    //!
    //! * [`metrics_json`] — the **deterministic projection**: counters and
    //!   span *counts* only. CI diffs this byte-for-byte across `--jobs`
    //!   values, so nothing wall-clock may appear in it.
    //! * [`spans_json`] — the full **timing report** for one registry's
    //!   spans (totals, min/max, log2 histograms), embedded in the
    //!   `--bench-json` output alongside the machine-local phase timings.

    use crate::json::Json;
    use d16_telemetry::{Registry, SpanStats};

    /// Registry counters as an ordered JSON object (name order).
    pub fn counters_json(reg: &Registry) -> Json {
        let mut j = Json::obj();
        for (name, v) in reg.counters() {
            j = j.with(name, v);
        }
        j
    }

    /// One span's full statistics, histogram trimmed to its last
    /// non-empty bucket (bucket `i` covers `[2^i, 2^(i+1))` ns).
    pub fn span_json(s: &SpanStats) -> Json {
        let buckets = s.hist.buckets();
        let used = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let hist: Vec<Json> = buckets[..used].iter().map(|&b| Json::from(b)).collect();
        Json::obj()
            .with("count", s.count)
            .with("total_ns", s.total_ns)
            .with("min_ns", if s.count == 0 { 0 } else { s.min_ns })
            .with("max_ns", s.max_ns)
            .with("hist_log2_ns", hist)
    }

    /// All spans with full timing statistics (wall-clock: `--bench-json`
    /// only, never the metrics dump).
    pub fn spans_json(reg: &Registry) -> Json {
        let mut j = Json::obj();
        for (name, s) in reg.spans() {
            j = j.with(name, span_json(s));
        }
        j
    }

    /// Span execution counts only — the deterministic part of the spans.
    pub fn span_counts_json(reg: &Registry) -> Json {
        let mut j = Json::obj();
        for (name, s) in reg.spans() {
            j = j.with(name, s.count);
        }
        j
    }

    /// The deterministic `bench_repro/4` metrics document: schema tag,
    /// grid shape, full counter dump, span counts. Everything in it is a
    /// pure function of the measured programs — no worker count, no
    /// wall-clock, no `--engine` choice (both engines count the same
    /// events) — so it must be byte-identical for every `--jobs N` and
    /// either engine (CI enforces this).
    pub fn metrics_json(reg: &Registry, smoke: bool, cells: usize, traces: usize) -> Json {
        Json::obj()
            .with("schema", "bench_repro/4")
            .with("kind", "metrics")
            .with("smoke", smoke)
            .with("telemetry_enabled", d16_telemetry::ENABLED)
            .with("cells", cells)
            .with("traces", traces)
            .with("counters", counters_json(reg))
            .with("span_counts", span_counts_json(reg))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn metrics_json_is_deterministic_and_timing_free() {
            let mut reg = Registry::new();
            reg.add_counter("sim.z", 2);
            reg.add_counter("sim.a", 1);
            reg.record_span("phase", 123_456);
            reg.record_span("phase", 7);
            let a = metrics_json(&reg, false, 10, 2).to_string();
            let b = metrics_json(&reg.clone(), false, 10, 2).to_string();
            assert_eq!(a, b);
            assert!(!a.contains("ns"), "no wall-clock fields in the metrics dump: {a}");
            assert!(a.contains("\"span_counts\":{\"phase\":2}"), "{a}");
            let names: Vec<usize> = ["sim.a", "sim.z"].iter().map(|n| a.find(n).unwrap()).collect();
            assert!(names[0] < names[1], "counters render in name order");
        }

        #[test]
        fn span_json_trims_histogram() {
            let mut s = SpanStats::default();
            s.record(5); // bucket 2
            let j = span_json(&s).to_string();
            assert!(j.contains("\"hist_log2_ns\":[0,0,1]"), "{j}");
            assert!(j.contains("\"min_ns\":5"), "{j}");
            let empty = span_json(&SpanStats::default()).to_string();
            assert!(empty.contains("\"hist_log2_ns\":[]"), "{empty}");
            assert!(empty.contains("\"min_ns\":0"), "empty span renders 0, not u64::MAX");
        }
    }
}
