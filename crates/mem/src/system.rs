//! A split I/D cache system fed by a pipeline trace, with the paper's CPI
//! composition (§4.1.1):
//!
//! ```text
//! Cycles = IC + Interlocks + MissPenalty * (IMiss + RMiss + WMiss)
//! ```

use crate::cache::{Cache, CacheConfig, CacheStats, ConfigError};
use d16_sim::{AccessSink, ExecStats};
use d16_telemetry::Registry;

/// Separate on-chip instruction and data caches (the paper's organization).
#[derive(Clone, Debug)]
pub struct CacheSystem {
    icache: Cache,
    dcache: Cache,
}

impl CacheSystem {
    /// Builds a system with the given instruction and data cache
    /// configurations.
    ///
    /// # Errors
    ///
    /// Rejects an invalid configuration (see [`CacheConfig::validate`]).
    pub fn new(icfg: CacheConfig, dcfg: CacheConfig) -> Result<Self, ConfigError> {
        Ok(CacheSystem { icache: Cache::new(icfg)?, dcache: Cache::new(dcfg)? })
    }

    /// Builds the paper's symmetric configuration: equal-size direct-mapped
    /// I and D caches with 32-byte blocks and 8-byte sub-blocks.
    ///
    /// # Errors
    ///
    /// Rejects a `size` the paper geometry cannot realize (not a power of
    /// two, or smaller than one 32-byte block).
    pub fn paper(size: u32) -> Result<Self, ConfigError> {
        Self::new(CacheConfig::paper(size, 32), CacheConfig::paper(size, 32))
    }

    /// Instruction-cache counters.
    pub fn icache(&self) -> &CacheStats {
        self.icache.stats()
    }

    /// Data-cache counters.
    pub fn dcache(&self) -> &CacheStats {
        self.dcache.stats()
    }

    /// Instruction-cache configuration.
    pub fn iconfig(&self) -> &CacheConfig {
        self.icache.config()
    }

    /// Data-cache configuration.
    pub fn dconfig(&self) -> &CacheConfig {
        self.dcache.config()
    }

    /// Rebuilds a system from persisted configurations and statistics
    /// (see [`Cache::from_stats`] — the `d16-store` restore path).
    ///
    /// # Errors
    ///
    /// Propagates either cache's rejection, tagged with the side.
    pub fn from_stats(
        icfg: CacheConfig,
        istats: CacheStats,
        dcfg: CacheConfig,
        dstats: CacheStats,
    ) -> Result<Self, String> {
        Ok(CacheSystem {
            icache: Cache::from_stats(icfg, istats).map_err(|e| format!("icache: {e}"))?,
            dcache: Cache::from_stats(dcfg, dstats).map_err(|e| format!("dcache: {e}"))?,
        })
    }

    /// A stable label for the system's geometry: the shared
    /// [`CacheConfig::label`] when I and D agree (the paper's symmetric
    /// configurations), `i<label>.d<label>` otherwise.
    pub fn label(&self) -> String {
        let (i, d) = (self.icache.config(), self.dcache.config());
        if i == d {
            i.label()
        } else {
            format!("i{}.d{}", i.label(), d.label())
        }
    }

    /// Dumps both caches' telemetry blocks into `reg` under
    /// `<prefix>.icache.*` / `<prefix>.dcache.*`. A no-op with telemetry
    /// compiled out.
    pub fn export_telemetry(&self, reg: &mut Registry, prefix: &str) {
        reg.absorb(&format!("{prefix}.icache"), self.icache.telemetry());
        reg.absorb(&format!("{prefix}.dcache"), self.dcache.telemetry());
    }

    /// Checks both caches' telemetry against their aggregate statistics
    /// (see [`Cache::reconciles`]).
    ///
    /// # Errors
    ///
    /// Returns the first failing identity, tagged with the cache side.
    pub fn reconciles(&self) -> Result<(), String> {
        self.icache.reconciles().map_err(|e| format!("icache: {e}"))?;
        self.dcache.reconciles().map_err(|e| format!("dcache: {e}"))?;
        Ok(())
    }

    /// Both caches, mutably: [`crate::CacheBank`] feeds each side from
    /// its own queue.
    pub(crate) fn caches_mut(&mut self) -> (&mut Cache, &mut Cache) {
        (&mut self.icache, &mut self.dcache)
    }

    /// Demand misses across both caches.
    pub fn total_misses(&self) -> u64 {
        self.icache.stats().misses() + self.dcache.stats().misses()
    }

    /// Total cycles under a given miss penalty, per the paper's formula.
    pub fn cycles(&self, stats: &ExecStats, miss_penalty: u64) -> u64 {
        stats.base_cycles() + miss_penalty * self.total_misses()
    }

    /// Cycles per instruction under a given miss penalty.
    pub fn cpi(&self, stats: &ExecStats, miss_penalty: u64) -> f64 {
        self.cycles(stats, miss_penalty) as f64 / stats.insns as f64
    }

    /// Instruction-side memory traffic in 32-bit words per cycle
    /// (Figure 19's measure).
    pub fn itraffic_words_per_cycle(&self, stats: &ExecStats, miss_penalty: u64) -> f64 {
        let bytes = self.icache.stats().demand_bytes_in + self.icache.stats().prefetch_bytes_in;
        (bytes as f64 / 4.0) / self.cycles(stats, miss_penalty) as f64
    }

    /// Per-instruction miss rates `(ifetch, data read, data write)` — the
    /// paper's Tables 14–16 report read/write misses as a percent of read
    /// and write *instructions* and instruction misses per instruction.
    pub fn miss_rates_per_access(&self) -> (f64, f64, f64) {
        (
            self.icache.stats().read_miss_ratio(),
            self.dcache.stats().read_miss_ratio(),
            self.dcache.stats().write_miss_ratio(),
        )
    }
}

impl AccessSink for CacheSystem {
    fn fetch(&mut self, addr: u32, _bytes: u8) {
        self.icache.read(addr);
    }

    fn read(&mut self, addr: u32, _bytes: u8) {
        self.dcache.read(addr);
    }

    fn write(&mut self, addr: u32, _bytes: u8) {
        self.dcache.write(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_caches_do_not_interfere() {
        let mut s = CacheSystem::paper(1024).unwrap();
        s.fetch(0x1000, 4);
        s.read(0x1000, 4); // same address, different cache
        assert_eq!(s.icache().reads, 1);
        assert_eq!(s.icache().read_misses, 1);
        assert_eq!(s.dcache().reads, 1);
        assert_eq!(s.dcache().read_misses, 1);
    }

    #[test]
    fn cpi_composition() {
        let mut s = CacheSystem::paper(1024).unwrap();
        for a in (0x1000..0x1100).step_by(4) {
            s.fetch(a, 4);
        }
        let stats = ExecStats { insns: 64, interlocks: 6, ..Default::default() };
        let misses = s.total_misses();
        assert!(misses > 0);
        assert_eq!(s.cycles(&stats, 4), 70 + 4 * misses);
        let cpi0 = s.cpi(&stats, 0);
        assert!((cpi0 - 70.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_counts_prefetch() {
        let mut s = CacheSystem::paper(1024).unwrap();
        s.fetch(0x1000, 4);
        let stats = ExecStats { insns: 1, ..Default::default() };
        // One demand sub-block (8B) + one prefetch (8B) = 4 words.
        let words = s.itraffic_words_per_cycle(&stats, 0) * s.cycles(&stats, 0) as f64;
        assert!((words - 4.0).abs() < 1e-12);
    }
}
