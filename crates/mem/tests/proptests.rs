//! Property-style tests on the memory models: accounting identities,
//! inclusion monotonicity, fetch-buffer conservation laws, and the
//! single-pass/serial replay equivalence of [`CacheBank`].
//!
//! Deterministic `d16-testkit` generators replace the original `proptest`
//! strategies (offline builds, DESIGN.md §7).

use d16_mem::{Cache, CacheBank, CacheConfig, CacheSystem, FetchBuffer};
use d16_sim::{AccessSink, TraceRecorder};
use d16_telemetry::Registry;
use d16_testkit::{cases, Rng};

/// A valid geometry: blocks of 8-64 bytes, sub-blocks of 4 bytes up to
/// the whole block, direct-mapped or 2-way.
fn config(rng: &mut Rng) -> CacheConfig {
    let block_log = 3 + rng.below(4);
    CacheConfig {
        size: 1024 << rng.below(4),
        block: 1 << block_log,
        sub_block: 4 << rng.below(block_log - 1),
        assoc: 1 << rng.below(2),
        wrap_prefetch: rng.bool(),
    }
}

/// Mixed strided and random accesses over a 64K region; bool = write.
fn addr_stream(rng: &mut Rng) -> Vec<(u32, bool)> {
    let n = 1 + rng.below(600) as usize;
    (0..n).map(|_| (rng.below(16384) * 4, rng.bool())).collect()
}

/// Hits + misses == accesses, misses <= accesses, ratios in [0, 1].
#[test]
fn cache_accounting() {
    cases(200, |case, rng| {
        let cfg = config(rng);
        let stream = addr_stream(rng);
        let mut c = Cache::new(cfg).unwrap();
        for (a, w) in &stream {
            if *w {
                c.write(*a);
            } else {
                c.read(*a);
            }
        }
        let s = *c.stats();
        assert_eq!(s.accesses(), stream.len() as u64, "case {case}");
        assert!(s.read_misses <= s.reads, "case {case}");
        assert!(s.write_misses <= s.writes, "case {case}");
        assert!((0.0..=1.0).contains(&s.miss_ratio()), "case {case}");
        // Demand traffic only flows on read misses; each brings at most
        // two sub-blocks (demand + prefetch).
        assert!(s.demand_bytes_in <= s.read_misses * u64::from(cfg.sub_block), "case {case}");
        assert!(s.prefetch_bytes_in <= s.read_misses * u64::from(cfg.sub_block), "case {case}");
    });
}

/// Repeating the same stream twice never increases the second pass's
/// misses beyond the first (warm cache).
#[test]
fn warm_pass_not_worse() {
    cases(200, |case, rng| {
        let cfg = config(rng);
        let stream = addr_stream(rng);
        let mut c1 = Cache::new(cfg).unwrap();
        for (a, w) in &stream {
            if *w {
                c1.write(*a);
            } else {
                c1.read(*a);
            }
        }
        let cold = c1.stats().misses();
        for (a, w) in &stream {
            if *w {
                c1.write(*a);
            } else {
                c1.read(*a);
            }
        }
        let warm = c1.stats().misses() - cold;
        assert!(warm <= cold, "case {case}: warm {warm} > cold {cold}");
    });
}

/// A repeated-loop access pattern misses monotonically less as the cache
/// doubles (true for looping patterns in direct-mapped caches; random
/// single-pass streams can violate this via conflict luck, so the
/// property is stated over loops).
#[test]
fn loops_like_bigger_caches() {
    cases(100, |case, rng| {
        let n = 1 + rng.below(128) as usize;
        let seed: Vec<u32> = (0..n).map(|_| rng.below(2048)).collect();
        let mut last = u64::MAX;
        for size in [1024u32, 2048, 4096, 8192] {
            let mut c = Cache::new(CacheConfig::paper(size, 32)).unwrap();
            for _ in 0..4 {
                for a in &seed {
                    c.read(a * 4);
                }
            }
            assert!(c.stats().misses() <= last, "case {case}, size {size}");
            last = c.stats().misses();
        }
    });
}

/// Fetch-buffer conservation: requests never exceed fetches, and a
/// sequential stream of `n` halfwords over a `k`-wide bus makes
/// ceil(n / k) requests.
#[test]
fn fetch_buffer_conservation() {
    cases(300, |case, rng| {
        let n = 1 + rng.below(2000);
        let bus = 4u32 << rng.below(2); // 4 or 8 bytes
        let mut fb = FetchBuffer::new(bus);
        for i in 0..n {
            fb.fetch(0x1000 + i * 2, 2);
        }
        assert!(fb.irequests <= u64::from(n), "case {case}");
        let k = bus / 2;
        let expected = n.div_ceil(k);
        assert_eq!(fb.irequests, u64::from(expected), "case {case}");
    });
}

/// The split system routes fetches and data to different caches.
#[test]
fn split_system_routing() {
    cases(200, |case, rng| {
        let stream = addr_stream(rng);
        let mut cs = CacheSystem::paper(2048).unwrap();
        let mut fetches = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (a, w) in &stream {
            if *w {
                cs.write(*a, 4);
                writes += 1;
            } else if a % 8 == 0 {
                cs.fetch(*a, 4);
                fetches += 1;
            } else {
                cs.read(*a, 4);
                reads += 1;
            }
        }
        assert_eq!(cs.icache().reads, fetches, "case {case}");
        assert_eq!(cs.dcache().reads, reads, "case {case}");
        assert_eq!(cs.dcache().writes, writes, "case {case}");
    });
}

/// A trace with all three access kinds and mixed widths. Fetches step
/// by 2 or 4 bytes (2-byte steps make long same-granule runs), and data
/// accesses include read-after-write and re-reads of the same word. Half
/// the traces end inside a run of repeated fetches and reads.
fn bank_trace(rng: &mut Rng) -> TraceRecorder {
    let mut trace = TraceRecorder::new();
    let n = 200 + rng.below(2000);
    let step = if rng.bool() { 2 } else { 4 };
    let mut pc = 0x1000u32;
    let mut data = 0u32;
    for _ in 0..n {
        match rng.below(6) {
            0..=2 => {
                trace.fetch(pc, step as u8);
                // Mostly sequential with occasional branches, like a
                // real instruction stream.
                pc = if rng.below(8) == 0 { rng.below(16384) * 2 } else { pc + step };
            }
            3 => {
                data = rng.below(16384) * 4;
                trace.read(data, *rng.pick(&[1u8, 2, 4]));
            }
            4 => {
                data = rng.below(16384) * 4;
                trace.write(data, *rng.pick(&[1u8, 2, 4]));
            }
            // The word just read or written, again.
            _ => trace.read(data + rng.below(4), 1),
        }
    }
    if rng.bool() {
        for i in 0..1 + rng.below(8) {
            trace.fetch((pc & !3) + (i & 1) * 2, 2);
            trace.read(data, 4);
        }
    }
    trace
}

/// Every exported telemetry counter of one system.
fn exported(s: &CacheSystem) -> Vec<(String, u64)> {
    let mut reg = Registry::new();
    s.export_telemetry(&mut reg, "sys");
    reg.counters().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The differential gate for the single-pass engine: feeding a trace
/// through a [`CacheBank`] of N configurations must produce, for every
/// member, statistics and telemetry bit-identical to a dedicated serial
/// replay of the same trace through that configuration alone. Half the
/// banks are symmetric; the other half give each member different I and
/// D geometries.
#[test]
fn bank_single_pass_equals_serial_replays() {
    cases(120, |case, rng| {
        let trace = bank_trace(rng);
        let ncfg = 1 + rng.below(6) as usize;
        let pairs: Vec<(CacheConfig, CacheConfig)> = if case % 2 == 0 {
            (0..ncfg).map(|_| config(rng)).map(|c| (c, c)).collect()
        } else {
            (0..ncfg).map(|_| (config(rng), config(rng))).collect()
        };
        let mut bank =
            CacheBank::new(pairs.iter().map(|&(i, d)| CacheSystem::new(i, d).unwrap()).collect());
        trace.replay(&mut bank);

        for (&(icfg, dcfg), banked) in pairs.iter().zip(bank.systems()) {
            let mut solo = CacheSystem::new(icfg, dcfg).unwrap();
            trace.replay(&mut solo);
            let at = format!("case {case}, i {icfg:?}, d {dcfg:?}");
            assert_eq!(banked.icache(), solo.icache(), "{at}");
            assert_eq!(banked.dcache(), solo.dcache(), "{at}");
            assert_eq!(exported(banked), exported(&solo), "{at}");
            banked.reconciles().unwrap();
        }
    });
}
