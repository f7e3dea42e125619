//! A dinero-equivalent sub-blocked cache simulator.
//!
//! The paper's configuration (§4.1, Appendix A.3): separate direct-mapped
//! instruction and data caches, blocks of 8–64 bytes organized in
//! sub-blocks, "wrap-around prefetch for instruction and data reads and no
//! prefetch on write". This module implements that organization with
//! configurable size, block size, sub-block size and associativity (LRU).
//!
//! Semantics:
//!
//! * A read that misses (tag miss, or tag hit with the sub-block invalid)
//!   fetches the missed sub-block and *prefetches the following sub-block*
//!   (wrapping within the block) in the same transaction.
//! * A write that misses allocates the block and validates the written
//!   sub-block without fetching it (write-validate), counting one write
//!   miss; dirty sub-blocks are written back on eviction.
//! * Miss counts are demand misses only; prefetched sub-blocks count as
//!   traffic but not as misses.

use d16_telemetry::Counters;

d16_telemetry::counter_schema! {
    /// Per-cache hit/miss/traffic counters, bumped by [`Cache`] on every
    /// access. They mirror [`CacheStats`] exactly (hits are counted
    /// explicitly rather than derived) so a dump can be reconciled against
    /// the aggregates; traffic is counted in sub-blocks here and in bytes
    /// there.
    pub MEM_SCHEMA / MemCounter {
        /// Demand reads that hit.
        ReadHits => "read.hits",
        /// Demand reads that missed (tag or sub-block miss).
        ReadMisses => "read.misses",
        /// Writes that hit a valid sub-block.
        WriteHits => "write.hits",
        /// Writes that missed (allocated by write-validate).
        WriteMisses => "write.misses",
        /// Sub-blocks fetched on demand.
        DemandFetches => "demand.sub_blocks",
        /// Sub-blocks fetched by wrap-around prefetch.
        Prefetches => "prefetch.sub_blocks",
        /// Dirty sub-blocks written back (evictions and flushes).
        Writebacks => "writeback.sub_blocks",
    }
}

/// A rejected cache geometry: the offending configuration's label and
/// the first violated constraint. Returned by [`CacheConfig::validate`]
/// and every constructor that takes a configuration, so an off-grid or
/// corrupted geometry surfaces as a reportable error instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// Label of the rejected geometry (see [`CacheConfig::label`]).
    pub config: String,
    /// The first violated constraint, in prose.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache config {}: {}", self.config, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Cache geometry and policy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u32,
    /// Block (line) size in bytes.
    pub block: u32,
    /// Sub-block size in bytes (equal to `block` for unit-block caches).
    pub sub_block: u32,
    /// Associativity (1 = direct-mapped).
    pub assoc: u32,
    /// Whether read misses prefetch the next sub-block (wrap-around).
    pub wrap_prefetch: bool,
}

impl CacheConfig {
    /// The paper's organization: direct-mapped, 8-byte sub-blocks,
    /// wrap-around prefetch.
    pub fn paper(size: u32, block: u32) -> Self {
        CacheConfig { size, block, sub_block: 8.min(block), assoc: 1, wrap_prefetch: true }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fail = |reason: String| ConfigError { config: self.label(), reason };
        let pow2 = |v: u32, what: &str| {
            if v.is_power_of_two() {
                Ok(())
            } else {
                Err(fail(format!("{what} {v} is not a power of two")))
            }
        };
        pow2(self.size, "size")?;
        pow2(self.block, "block")?;
        pow2(self.sub_block, "sub-block")?;
        pow2(self.assoc, "associativity")?;
        if self.sub_block < 4 || self.sub_block > self.block {
            return Err(fail(format!(
                "sub-block {} must be in 4..=block ({})",
                self.sub_block, self.block
            )));
        }
        if self.block * self.assoc > self.size {
            return Err(fail(format!(
                "size {} too small for {}-way blocks of {}",
                self.size, self.assoc, self.block
            )));
        }
        if self.subs_per_block() > 64 {
            return Err(fail(format!(
                "block {} holds more than 64 sub-blocks of {} (validity bitmap limit)",
                self.block, self.sub_block
            )));
        }
        Ok(())
    }

    /// A stable, filesystem- and JSON-key-safe label for this geometry,
    /// e.g. `4096B.b32.s8.a1` (plus `.np` when prefetch is disabled).
    /// Used to key per-configuration telemetry dumps.
    pub fn label(&self) -> String {
        let mut s = format!("{}B.b{}.s{}.a{}", self.size, self.block, self.sub_block, self.assoc);
        if !self.wrap_prefetch {
            s.push_str(".np");
        }
        s
    }

    fn sets(&self) -> u32 {
        self.size / (self.block * self.assoc)
    }

    fn subs_per_block(&self) -> u32 {
        self.block / self.sub_block
    }
}

/// Traffic and miss counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Demand read accesses.
    pub reads: u64,
    /// Demand read misses.
    pub read_misses: u64,
    /// Write accesses.
    pub writes: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Bytes fetched from memory (demand sub-blocks).
    pub demand_bytes_in: u64,
    /// Bytes fetched from memory by wrap-around prefetch.
    pub prefetch_bytes_in: u64,
    /// Bytes written back to memory (dirty sub-block evictions).
    pub bytes_out: u64,
}

impl CacheStats {
    /// Demand misses (read + write).
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// All accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Demand miss ratio over all accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }

    /// Read miss ratio.
    pub fn read_miss_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_misses as f64 / self.reads as f64
        }
    }

    /// Write miss ratio.
    pub fn write_miss_ratio(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.write_misses as f64 / self.writes as f64
        }
    }

    /// Total bus traffic in bytes (in + out).
    pub fn traffic_bytes(&self) -> u64 {
        self.demand_bytes_in + self.prefetch_bytes_in + self.bytes_out
    }
}

#[derive(Clone, Debug)]
struct Line {
    tag: u32,
    valid: u64, // sub-block validity bitmap
    dirty: u64, // sub-block dirty bitmap
    lru: u64,
}

/// One cache (instruction or data — the organization is identical).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * assoc
    tick: u64,
    stats: CacheStats,
    tele: Counters,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Errors
    ///
    /// Rejects a configuration that fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = (cfg.sets() * cfg.assoc) as usize;
        Ok(Cache {
            cfg,
            lines: (0..n).map(|_| Line { tag: 0, valid: 0, dirty: 0, lru: 0 }).collect(),
            tick: 0,
            stats: CacheStats::default(),
            tele: Counters::new(&MEM_SCHEMA),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The `MEM_SCHEMA` telemetry block (all zeros with telemetry
    /// compiled out).
    pub fn telemetry(&self) -> &Counters {
        &self.tele
    }

    /// Performs a read access; returns whether it hit.
    pub fn read(&mut self, addr: u32) -> bool {
        self.stats.reads += 1;
        let hit = self.touch(addr, false);
        if hit {
            self.tele.bump(MemCounter::ReadHits);
        } else {
            self.stats.read_misses += 1;
            self.tele.bump(MemCounter::ReadMisses);
        }
        hit
    }

    /// Performs a write access; returns whether it hit.
    pub fn write(&mut self, addr: u32) -> bool {
        self.stats.writes += 1;
        let hit = self.touch(addr, true);
        if hit {
            self.tele.bump(MemCounter::WriteHits);
        } else {
            self.stats.write_misses += 1;
            self.tele.bump(MemCounter::WriteMisses);
        }
        hit
    }

    fn touch(&mut self, addr: u32, is_write: bool) -> bool {
        self.tick += 1;
        let cfg = self.cfg;
        let block_addr = addr / cfg.block;
        let set = block_addr % cfg.sets();
        let tag = block_addr / cfg.sets();
        let sub = (addr % cfg.block) / cfg.sub_block;
        let base = (set * cfg.assoc) as usize;
        let ways = &mut self.lines[base..base + cfg.assoc as usize];

        // Look for a tag match.
        if let Some(way) = ways.iter_mut().find(|w| w.valid != 0 && w.tag == tag) {
            way.lru = self.tick;
            let present = way.valid & (1 << sub) != 0;
            if is_write {
                way.valid |= 1 << sub;
                way.dirty |= 1 << sub;
                return present;
            }
            if present {
                return true;
            }
            // Tag hit, sub-block miss: demand-fetch + wrap-around prefetch.
            way.valid |= 1 << sub;
            self.stats.demand_bytes_in += cfg.sub_block as u64;
            self.tele.bump(MemCounter::DemandFetches);
            if cfg.wrap_prefetch && cfg.subs_per_block() > 1 {
                let nxt = (sub + 1) % cfg.subs_per_block();
                if way.valid & (1 << nxt) == 0 {
                    way.valid |= 1 << nxt;
                    self.stats.prefetch_bytes_in += cfg.sub_block as u64;
                    self.tele.bump(MemCounter::Prefetches);
                }
            }
            return false;
        }

        // Tag miss: evict the LRU way.
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid == 0 { 0 } else { w.lru })
            .expect("at least one way");
        let dirty_subs = victim.dirty.count_ones() as u64;
        self.stats.bytes_out += dirty_subs * cfg.sub_block as u64;
        self.tele.add(MemCounter::Writebacks, dirty_subs);
        victim.tag = tag;
        victim.valid = 1 << sub;
        victim.dirty = 0;
        victim.lru = self.tick;
        if is_write {
            victim.dirty = 1 << sub;
        } else {
            self.stats.demand_bytes_in += cfg.sub_block as u64;
            self.tele.bump(MemCounter::DemandFetches);
            if cfg.wrap_prefetch && cfg.subs_per_block() > 1 {
                let nxt = (sub + 1) % cfg.subs_per_block();
                victim.valid |= 1 << nxt;
                self.stats.prefetch_bytes_in += cfg.sub_block as u64;
                self.tele.bump(MemCounter::Prefetches);
            }
        }
        false
    }

    /// Checks that the telemetry block agrees with [`CacheStats`]:
    /// hits + misses partition the accesses and the sub-block traffic
    /// counters scale to the byte aggregates. Trivially passes with
    /// telemetry compiled out.
    ///
    /// # Errors
    ///
    /// Returns a description naming the failing identity and both sides.
    pub fn reconciles(&self) -> Result<(), String> {
        if !d16_telemetry::ENABLED {
            return Ok(());
        }
        let eq = |what: &str, counter: u64, aggregate: u64| {
            if counter == aggregate {
                Ok(())
            } else {
                Err(format!("{what}: counter {counter} != aggregate {aggregate}"))
            }
        };
        let t = &self.tele;
        let s = &self.stats;
        let sb = self.cfg.sub_block as u64;
        eq(
            "read hits + misses",
            t.get(MemCounter::ReadHits) + t.get(MemCounter::ReadMisses),
            s.reads,
        )?;
        eq("read.misses", t.get(MemCounter::ReadMisses), s.read_misses)?;
        eq(
            "write hits + misses",
            t.get(MemCounter::WriteHits) + t.get(MemCounter::WriteMisses),
            s.writes,
        )?;
        eq("write.misses", t.get(MemCounter::WriteMisses), s.write_misses)?;
        eq("demand bytes", t.get(MemCounter::DemandFetches) * sb, s.demand_bytes_in)?;
        eq("prefetch bytes", t.get(MemCounter::Prefetches) * sb, s.prefetch_bytes_in)?;
        eq("writeback bytes", t.get(MemCounter::Writebacks) * sb, s.bytes_out)?;
        Ok(())
    }

    /// Rebuilds a cache whose aggregate statistics — and therefore every
    /// figure the experiments derive — equal a previously measured run:
    /// the `d16-store` restore path. Contents start cold (restored
    /// systems are read for their results, not swept further), and the
    /// telemetry block is reconstructed from the aggregates via the same
    /// identities [`Cache::reconciles`] checks, so a restored cache
    /// reconciles by construction.
    ///
    /// # Errors
    ///
    /// Rejects an invalid geometry or internally inconsistent statistics
    /// (more misses than accesses, byte traffic not a multiple of the
    /// sub-block) — the shapes a damaged persisted record would take.
    pub fn from_stats(cfg: CacheConfig, stats: CacheStats) -> Result<Cache, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        if stats.read_misses > stats.reads {
            return Err(format!("{} read misses > {} reads", stats.read_misses, stats.reads));
        }
        if stats.write_misses > stats.writes {
            return Err(format!("{} write misses > {} writes", stats.write_misses, stats.writes));
        }
        let sb = u64::from(cfg.sub_block);
        for (what, bytes) in [
            ("demand", stats.demand_bytes_in),
            ("prefetch", stats.prefetch_bytes_in),
            ("writeback", stats.bytes_out),
        ] {
            if bytes % sb != 0 {
                return Err(format!("{what} traffic {bytes} is not whole sub-blocks of {sb}"));
            }
        }
        let mut c = Cache::new(cfg).map_err(|e| e.to_string())?;
        c.stats = stats;
        c.tele.add(MemCounter::ReadHits, stats.reads - stats.read_misses);
        c.tele.add(MemCounter::ReadMisses, stats.read_misses);
        c.tele.add(MemCounter::WriteHits, stats.writes - stats.write_misses);
        c.tele.add(MemCounter::WriteMisses, stats.write_misses);
        c.tele.add(MemCounter::DemandFetches, stats.demand_bytes_in / sb);
        c.tele.add(MemCounter::Prefetches, stats.prefetch_bytes_in / sb);
        c.tele.add(MemCounter::Writebacks, stats.bytes_out / sb);
        debug_assert!(c.reconciles().is_ok());
        Ok(c)
    }

    /// Invalidates all contents, keeping the statistics.
    pub fn flush(&mut self) {
        let dirty: u64 = self.lines.iter().map(|l| l.dirty.count_ones() as u64).sum();
        self.stats.bytes_out += dirty * self.cfg.sub_block as u64;
        self.tele.add(MemCounter::Writebacks, dirty);
        for l in &mut self.lines {
            l.valid = 0;
            l.dirty = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 256 B direct-mapped, 32 B blocks, 8 B sub-blocks.
        Cache::new(CacheConfig {
            size: 256,
            block: 32,
            sub_block: 8,
            assoc: 1,
            wrap_prefetch: true,
        })
        .unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.read(0));
        assert!(c.read(0), "same sub-block hits");
        assert!(c.read(4), "same sub-block, different word");
        assert!(c.read(8), "wrap-around prefetch made the next sub-block present");
        assert!(!c.read(16), "third sub-block was not prefetched");
        assert_eq!(c.stats().read_misses, 2);
    }

    #[test]
    fn wraparound_prefetch_wraps() {
        let mut c = small();
        assert!(!c.read(24), "last sub-block of block 0");
        assert!(c.read(0), "prefetch wrapped to sub-block 0");
    }

    #[test]
    fn prefetch_disabled() {
        let mut c = Cache::new(CacheConfig {
            size: 256,
            block: 32,
            sub_block: 8,
            assoc: 1,
            wrap_prefetch: false,
        })
        .unwrap();
        assert!(!c.read(0));
        assert!(!c.read(8), "no prefetch: next sub-block misses");
        assert_eq!(c.stats().prefetch_bytes_in, 0);
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let mut c = small();
        // 256/32 = 8 sets; addresses 0 and 256 conflict in set 0.
        assert!(!c.read(0));
        assert!(!c.read(256));
        assert!(!c.read(0), "evicted by the conflicting block");
    }

    #[test]
    fn two_way_avoids_simple_conflict() {
        let mut c = Cache::new(CacheConfig {
            size: 256,
            block: 32,
            sub_block: 8,
            assoc: 2,
            wrap_prefetch: true,
        })
        .unwrap();
        assert!(!c.read(0));
        assert!(!c.read(256));
        assert!(c.read(0), "both fit in a 2-way set");
        // A third conflicting block evicts the LRU (256).
        assert!(!c.read(512));
        assert!(c.read(0));
        assert!(!c.read(256));
    }

    #[test]
    fn write_validate_and_writeback() {
        let mut c = small();
        assert!(!c.write(0), "write miss allocates without fetching");
        assert_eq!(c.stats().demand_bytes_in, 0);
        assert!(c.write(0), "second write hits");
        assert!(c.read(0), "reading the written sub-block hits");
        // Evict the dirty block: one dirty sub-block writes back.
        c.read(256);
        assert_eq!(c.stats().bytes_out, 8);
    }

    #[test]
    fn flush_writes_back_dirty() {
        let mut c = small();
        c.write(0);
        c.write(8);
        c.flush();
        assert_eq!(c.stats().bytes_out, 16);
        assert!(!c.read(0), "flushed");
    }

    #[test]
    fn stats_identities() {
        let mut c = small();
        for a in (0..1024).step_by(4) {
            c.read(a);
        }
        for a in (0..512).step_by(16) {
            c.write(a);
        }
        let s = *c.stats();
        assert_eq!(s.accesses(), 256 + 32);
        assert!(s.read_misses <= s.reads);
        assert!(s.write_misses <= s.writes);
        assert!(s.miss_ratio() <= 1.0 && s.miss_ratio() >= 0.0);
    }

    #[test]
    fn paper_config_shape() {
        let c = CacheConfig::paper(4096, 32);
        assert_eq!(c.sub_block, 8);
        assert_eq!(c.assoc, 1);
        assert!(c.validate().is_ok());
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(CacheConfig { size: 100, block: 32, sub_block: 8, assoc: 1, wrap_prefetch: true }
            .validate()
            .is_err());
        assert!(CacheConfig { size: 128, block: 32, sub_block: 64, assoc: 1, wrap_prefetch: true }
            .validate()
            .is_err());
        assert!(CacheConfig { size: 64, block: 64, sub_block: 8, assoc: 2, wrap_prefetch: true }
            .validate()
            .is_err());
        // More than 64 sub-blocks per block overflows the validity bitmap.
        let wide =
            CacheConfig { size: 4096, block: 1024, sub_block: 4, assoc: 1, wrap_prefetch: true };
        let err = wide.validate().unwrap_err();
        assert!(err.reason.contains("64 sub-blocks"), "{err}");
        assert_eq!(err.config, wide.label());
        assert!(Cache::new(wide).is_err());
    }

    #[test]
    fn telemetry_reconciles_with_stats() {
        let mut c = small();
        for i in 0..4000u32 {
            let a = (i * 52) % 4096;
            if i % 3 == 0 {
                c.write(a);
            } else {
                c.read(a);
            }
        }
        c.flush();
        c.reconciles().unwrap();
        if d16_telemetry::ENABLED {
            use d16_telemetry::CounterId;
            assert_eq!(c.telemetry().get(MemCounter::ReadMisses), c.stats().read_misses);
            assert_eq!(MEM_SCHEMA.len(), 7);
            assert_eq!(MemCounter::ReadHits.index(), 0);
        }
    }

    #[test]
    fn from_stats_restores_results_and_reconciles() {
        let mut c = small();
        for i in 0..4000u32 {
            let a = (i * 52) % 4096;
            if i % 3 == 0 {
                c.write(a);
            } else {
                c.read(a);
            }
        }
        let restored = Cache::from_stats(*c.config(), *c.stats()).unwrap();
        assert_eq!(restored.stats(), c.stats());
        assert_eq!(restored.config(), c.config());
        restored.reconciles().unwrap();
        if d16_telemetry::ENABLED {
            assert_eq!(
                restored.telemetry().iter().collect::<Vec<_>>(),
                c.telemetry().iter().collect::<Vec<_>>(),
                "telemetry rebuilt exactly from the aggregates"
            );
        }
    }

    #[test]
    fn from_stats_rejects_inconsistent_records() {
        let cfg = CacheConfig::paper(4096, 32);
        let more_misses_than_reads =
            CacheStats { reads: 1, read_misses: 2, ..CacheStats::default() };
        assert!(Cache::from_stats(cfg, more_misses_than_reads).is_err());
        let ragged_traffic = CacheStats { demand_bytes_in: 7, ..CacheStats::default() };
        assert!(Cache::from_stats(cfg, ragged_traffic).is_err());
        let bad_cfg = CacheConfig { size: 100, ..cfg };
        assert!(Cache::from_stats(bad_cfg, CacheStats::default()).is_err());
    }

    #[test]
    fn config_labels_are_stable() {
        assert_eq!(CacheConfig::paper(4096, 32).label(), "4096B.b32.s8.a1");
        let np = CacheConfig { size: 128, block: 16, sub_block: 8, assoc: 2, wrap_prefetch: false };
        assert_eq!(np.label(), "128B.b16.s8.a2.np");
    }

    #[test]
    fn bigger_cache_never_misses_more_on_loops() {
        // A looping access pattern: miss count must not increase with size.
        let pattern: Vec<u32> = (0..10).flat_map(|_| (0..2048u32).step_by(4)).collect();
        let mut last = u64::MAX;
        for size in [1024, 2048, 4096, 8192] {
            let mut c = Cache::new(CacheConfig::paper(size, 32)).unwrap();
            for &a in &pattern {
                c.read(a);
            }
            assert!(c.stats().misses() <= last, "size {size}");
            last = c.stats().misses();
        }
    }
}
