//! Single-pass multi-configuration cache evaluation.
//!
//! The paper's cache study replays each recorded access trace once per
//! cache configuration, dinero-style. The classic trace-driven-simulation
//! literature (Mattson et al.'s stack algorithms; Sugumar & Abraham's
//! Cheetah) observes that independent configurations can instead be
//! evaluated in *one* sweep over the trace. [`CacheBank`] is the simplest
//! correct form of that idea: it holds N independent [`CacheSystem`]s and
//! feeds every access to all of them, so a trace is decoded and walked
//! exactly once no matter how many geometries are under study.
//!
//! Two things keep the per-access cost of a wide bank down:
//!
//! * **A repeat-granule filter.** Per side (instruction fetches; data
//!   reads and writes) the bank keeps the *granule* of the previous
//!   access: the address shifted right by log2 of the smallest member
//!   sub-block on that side. A fetch or read in the same granule as the
//!   previous access on its side hits in every member and changes no
//!   contents: that access left the sub-block valid (a read fetches it, a
//!   write validates it) in a line that is now its set's most recently
//!   used, and nothing else has touched that cache since. Skipping the LRU
//!   update therefore leaves every set's replacement order as it was.
//!   Such repeats are counted once, as pending hits, and added to each
//!   member's `reads` and `read.hits` in bulk. Writes always take the full
//!   path, since they set dirty bits.
//! * **Member-major order.** The remaining accesses are queued per side
//!   and run through one member cache at a time, so a member's geometry
//!   and counters stay hot across the batch. The I and D caches of a
//!   system are independent, so each side's queue keeps its own order.
//!
//! A full queue, and every accessor that exposes the members
//! ([`CacheBank::systems`], [`CacheBank::into_systems`],
//! [`CacheBank::export_telemetry`]), first runs what is queued; there is
//! no separate finish step. So each member's statistics and telemetry are
//! bit-identical to a dedicated replay (a differential test in
//! `tests/proptests.rs` asserts this), and the sweep counters still count
//! every access.

use crate::cache::{Cache, CacheConfig, ConfigError};
use crate::system::CacheSystem;
use d16_sim::AccessSink;
use d16_telemetry::{Counters, Registry};

d16_telemetry::counter_schema! {
    /// Sweep-level counters: how many accesses one single-pass replay fed
    /// to every member system. Counted once per access, not per member,
    /// so they measure the trace, not the bank width.
    pub BANK_SCHEMA / BankCounter {
        /// Instruction fetches swept.
        Fetches => "sweep.fetches",
        /// Data reads swept.
        Reads => "sweep.reads",
        /// Data writes swept.
        Writes => "sweep.writes",
    }
}

/// Accesses a side queues before running them through the members.
const QUEUE: usize = 1024;

/// One side's repeat-granule filter and queue (see the module docs).
#[derive(Clone, Debug)]
struct Side {
    /// log2 of the smallest member sub-block on this side.
    shift: u32,
    /// Granule of the previous access on this side; `u32::MAX` before
    /// the first (no address shifted by a sub-block of at least 4 bytes
    /// reaches it, and an empty bank has no member to count into).
    last: u32,
    /// Repeat reads not yet counted in the members.
    pending: u64,
    /// Other accesses (address, is-write), in order, not yet run.
    queue: Vec<(u32, bool)>,
}

impl Side {
    fn new(sub_blocks: impl Iterator<Item = u32>) -> Self {
        let shift = sub_blocks.min().map_or(0, u32::trailing_zeros);
        Side { shift, last: u32::MAX, pending: 0, queue: Vec::with_capacity(QUEUE) }
    }

    /// Takes one access; returns whether the queue is now full.
    #[inline]
    fn push(&mut self, addr: u32, is_write: bool) -> bool {
        let granule = addr >> self.shift;
        let repeat = granule == self.last;
        self.last = granule;
        if repeat && !is_write {
            self.pending += 1;
            false
        } else {
            self.queue.push((addr, is_write));
            self.queue.len() == QUEUE
        }
    }

    /// Runs the pending hits and the queue through each member's cache
    /// on this side, then empties both.
    fn drain<'a>(&mut self, caches: impl Iterator<Item = &'a mut Cache>) {
        for cache in caches {
            cache.run(&self.queue, self.pending);
        }
        self.pending = 0;
        self.queue.clear();
    }
}

/// N independent split-cache systems fed by one access stream.
#[derive(Clone, Debug)]
pub struct CacheBank {
    systems: Vec<CacheSystem>,
    tele: Counters,
    fetches: Side,
    data: Side,
}

impl CacheBank {
    /// Builds a bank from pre-constructed systems.
    pub fn new(systems: Vec<CacheSystem>) -> Self {
        CacheBank {
            fetches: Side::new(systems.iter().map(|s| s.iconfig().sub_block)),
            data: Side::new(systems.iter().map(|s| s.dconfig().sub_block)),
            systems,
            tele: Counters::new(&BANK_SCHEMA),
        }
    }

    /// Builds a bank of symmetric systems (equal I and D configuration),
    /// one per entry of `configs` — the shape every experiment in the
    /// paper uses.
    ///
    /// # Errors
    ///
    /// Rejects the first invalid configuration (see
    /// [`CacheConfig::validate`]).
    pub fn symmetric(configs: &[CacheConfig]) -> Result<Self, ConfigError> {
        let systems =
            configs.iter().map(|c| CacheSystem::new(*c, *c)).collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(systems))
    }

    /// Number of member systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// The member systems, in construction order, with every access fed
    /// so far counted.
    pub fn systems(&mut self) -> &[CacheSystem] {
        self.drain_fetches();
        self.drain_data();
        &self.systems
    }

    /// Consumes the bank, returning the member systems with their
    /// accumulated statistics.
    pub fn into_systems(mut self) -> Vec<CacheSystem> {
        self.systems();
        self.systems
    }

    /// The [`BANK_SCHEMA`] sweep counters (all zeros with telemetry
    /// compiled out).
    pub fn telemetry(&self) -> &Counters {
        &self.tele
    }

    /// Dumps the sweep counters plus every member system's per-cache
    /// counters into `reg`: sweep counters under `<prefix>.*`, member
    /// counters under `<prefix>.cfg.<label>.{icache,dcache}.*` (systems
    /// with identical geometry merge into one entry). A no-op with
    /// telemetry compiled out.
    pub fn export_telemetry(&mut self, reg: &mut Registry, prefix: &str) {
        reg.absorb(prefix, &self.tele);
        for s in self.systems() {
            s.export_telemetry(reg, &format!("{prefix}.cfg.{}", s.label()));
        }
    }

    fn drain_fetches(&mut self) {
        self.fetches.drain(self.systems.iter_mut().map(|s| s.caches_mut().0));
    }

    fn drain_data(&mut self) {
        self.data.drain(self.systems.iter_mut().map(|s| s.caches_mut().1));
    }
}

impl AccessSink for CacheBank {
    const FETCH_RUNS: bool = true;

    fn fetch(&mut self, addr: u32, _bytes: u8) {
        self.tele.bump(BankCounter::Fetches);
        if self.fetches.push(addr, false) {
            self.drain_fetches();
        }
    }

    fn read(&mut self, addr: u32, _bytes: u8) {
        self.tele.bump(BankCounter::Reads);
        if self.data.push(addr, false) {
            self.drain_data();
        }
    }

    fn write(&mut self, addr: u32, _bytes: u8) {
        self.tele.bump(BankCounter::Writes);
        if self.data.push(addr, true) {
            self.drain_data();
        }
    }

    /// Walks the run's granules instead of its fetches: the first fetch
    /// goes through the repeat filter, the first fetch of each later
    /// granule is queued, and every other fetch is a repeat. A granule
    /// of at least 4 bytes (the longest instruction) holds a fetch for
    /// every granule from the run's first to its last, since consecutive
    /// fetches are never a whole granule apart; and the members see only
    /// the granule of a queued address, so its base stands in for the
    /// fetch. With a narrower granule (an empty bank has none) the run
    /// is replayed fetch by fetch.
    fn fetch_run(
        &mut self,
        first: u32,
        last: u32,
        widths: impl ExactSizeIterator<Item = u8> + Clone,
    ) {
        let shift = self.fetches.shift;
        if shift < 2 {
            let mut addr = first;
            for w in widths {
                self.fetch(addr, w);
                addr += u32::from(w);
            }
            return;
        }
        let n = widths.len() as u64;
        self.tele.add(BankCounter::Fetches, n);
        let (g0, g1) = (first >> shift, last >> shift);
        if self.fetches.push(first, false) {
            self.drain_fetches();
        }
        for g in g0 + 1..=g1 {
            if self.fetches.push(g << shift, false) {
                self.drain_fetches();
            }
        }
        self.fetches.pending += n - 1 - u64::from(g1 - g0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d16_sim::Access;
    use d16_testkit::{cases, Rng};

    fn feed(s: &mut impl AccessSink, a: Access) {
        match a {
            Access::Fetch(addr, b) => s.fetch(addr, b),
            Access::Read(addr, b) => s.read(addr, b),
            Access::Write(addr, b) => s.write(addr, b),
        }
    }

    #[test]
    fn bank_members_match_dedicated_systems() {
        let cfgs = [CacheConfig::paper(1024, 32), CacheConfig::paper(4096, 32)];
        let mut bank = CacheBank::symmetric(&cfgs).unwrap();
        let mut solo: Vec<CacheSystem> =
            cfgs.iter().map(|c| CacheSystem::new(*c, *c).unwrap()).collect();
        for i in 0..2000u32 {
            let a = (i * 52) % 8192;
            match i % 3 {
                0 => {
                    bank.fetch(a, 4);
                    solo.iter_mut().for_each(|s| s.fetch(a, 4));
                }
                1 => {
                    bank.read(a, 4);
                    solo.iter_mut().for_each(|s| s.read(a, 4));
                }
                _ => {
                    bank.write(a, 4);
                    solo.iter_mut().for_each(|s| s.write(a, 4));
                }
            }
        }
        for (b, s) in bank.systems().iter().zip(&solo) {
            assert_eq!(b.icache(), s.icache());
            assert_eq!(b.dcache(), s.dcache());
        }
    }

    #[test]
    fn bank_telemetry_counts_sweep_and_exports_per_config() {
        let cfgs = [CacheConfig::paper(1024, 32), CacheConfig::paper(4096, 32)];
        let mut bank = CacheBank::symmetric(&cfgs).unwrap();
        for i in 0..300u32 {
            let a = (i * 20) % 4096;
            bank.fetch(a, 4);
            if i % 2 == 0 {
                bank.read(a, 4);
            } else {
                bank.write(a, 4);
            }
        }
        for s in bank.systems() {
            s.reconciles().unwrap();
        }
        let mut reg = d16_telemetry::Registry::new();
        bank.export_telemetry(&mut reg, "grid");
        if d16_telemetry::ENABLED {
            assert_eq!(bank.telemetry().get(BankCounter::Fetches), 300);
            assert_eq!(reg.counter("grid.sweep.fetches"), Some(300));
            assert_eq!(
                reg.counter("grid.cfg.1024B.b32.s8.a1.icache.read.hits").unwrap()
                    + reg.counter("grid.cfg.1024B.b32.s8.a1.icache.read.misses").unwrap(),
                300
            );
            assert!(reg.counter("grid.cfg.4096B.b32.s8.a1.dcache.write.misses").is_some());
        } else {
            assert!(reg.is_empty());
        }
    }

    #[test]
    fn trailing_repeat_run_is_counted_without_a_finish_step() {
        // One paper geometry and one with 4-byte sub-blocks, so the
        // filter granule is 4 bytes.
        let cfgs = [
            CacheConfig::paper(1024, 32),
            CacheConfig { size: 2048, block: 16, sub_block: 4, assoc: 2, wrap_prefetch: false },
        ];
        let mut bank = CacheBank::symmetric(&cfgs).unwrap();
        let mut solo: Vec<CacheSystem> =
            cfgs.iter().map(|c| CacheSystem::new(*c, *c).unwrap()).collect();
        let mut both = |a: Access| {
            feed(&mut bank, a);
            solo.iter_mut().for_each(|s| feed(s, a));
        };
        // A cold fetch miss, then three fetches in the same granule.
        both(Access::Fetch(0x100, 2));
        both(Access::Fetch(0x102, 2));
        both(Access::Fetch(0x100, 2));
        both(Access::Fetch(0x102, 2));
        // A write miss, then two reads of the word it validated.
        both(Access::Write(0x2000, 4));
        both(Access::Read(0x2000, 4));
        both(Access::Read(0x2002, 2));

        // Read right away: nothing to call first.
        if d16_telemetry::ENABLED {
            assert_eq!(bank.telemetry().get(BankCounter::Fetches), 4);
            assert_eq!(bank.telemetry().get(BankCounter::Reads), 2);
            assert_eq!(bank.telemetry().get(BankCounter::Writes), 1);
        }
        for (b, s) in bank.systems().iter().zip(&solo) {
            assert_eq!(b.icache(), s.icache());
            assert_eq!(b.dcache(), s.dcache());
            assert_eq!((b.icache().reads, b.icache().read_misses), (4, 1));
            assert_eq!((b.dcache().reads, b.dcache().read_misses), (2, 0));
            assert_eq!((b.dcache().writes, b.dcache().write_misses), (1, 1));
            b.reconciles().unwrap();
        }
        let mut banked = Registry::new();
        bank.export_telemetry(&mut banked, "grid");
        let mut dedicated = Registry::new();
        for s in &solo {
            s.export_telemetry(&mut dedicated, &format!("grid.cfg.{}", s.label()));
        }
        if d16_telemetry::ENABLED {
            assert_eq!(banked.counter("grid.sweep.fetches"), Some(4));
            assert_eq!(banked.counter("grid.sweep.reads"), Some(2));
            assert_eq!(banked.counter("grid.cfg.1024B.b32.s8.a1.icache.read.hits"), Some(3));
            assert_eq!(banked.counter("grid.cfg.2048B.b16.s4.a2.np.dcache.read.hits"), Some(2));
        }
        let members: Vec<_> = banked.counters().filter(|(k, _)| k.contains(".cfg.")).collect();
        assert_eq!(members, dedicated.counters().collect::<Vec<_>>());
    }

    /// A geometry with a 4- to 64-byte sub-block, so bank granules vary.
    fn config(rng: &mut Rng) -> CacheConfig {
        let block_log = 3 + rng.below(4);
        CacheConfig {
            size: 1024 << rng.below(3),
            block: 1 << block_log,
            sub_block: 4 << rng.below(block_log - 1),
            assoc: 1 << rng.below(2),
            wrap_prefetch: rng.bool(),
        }
    }

    #[test]
    fn fetch_runs_match_fetch_by_fetch() {
        cases(60, |case, rng| {
            let cfgs: Vec<CacheConfig> = (0..rng.below(4)).map(|_| config(rng)).collect();
            let mut by_run = CacheBank::symmetric(&cfgs).unwrap();
            let mut by_fetch = by_run.clone();
            let widths: &[u8] = rng.pick::<&[u8]>(&[&[2u8][..], &[4][..], &[2, 4][..]]);
            let mut pc = 0x1000 + 2 * rng.below(64);
            for _ in 0..1 + rng.below(40) {
                // Some runs are long enough to fill the 1024-entry queue
                // on their own; all of them together cross it repeatedly.
                let n = if rng.below(8) == 0 { 1100 + rng.below(900) } else { 1 + rng.below(60) };
                let ws: Vec<u8> = (0..n).map(|_| *rng.pick(widths)).collect();
                let mut addr = pc;
                for &w in &ws[..ws.len() - 1] {
                    by_fetch.fetch(addr, w);
                    addr += u32::from(w);
                }
                by_fetch.fetch(addr, ws[ws.len() - 1]);
                by_run.fetch_run(pc, addr, ws.iter().copied());
                // Data traffic between runs, and the next run starts in
                // the same granule, just after, or elsewhere.
                for _ in 0..rng.below(6) {
                    let a = Access::Read(0x8000 + 4 * rng.below(256), 4);
                    let a = if rng.bool() { a } else { Access::Write(a.addr(), 4) };
                    feed(&mut by_run, a);
                    feed(&mut by_fetch, a);
                }
                pc = match rng.below(3) {
                    0 => addr & !7,
                    1 => addr + u32::from(ws[ws.len() - 1]),
                    _ => 0x1000 + 2 * rng.below(8192),
                };
            }
            if d16_telemetry::ENABLED {
                let v = |b: &CacheBank| b.telemetry().values().to_vec();
                assert_eq!(v(&by_run), v(&by_fetch), "case {case}: sweep counters");
            }
            let (a, b) = (by_run.into_systems(), by_fetch.into_systems());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.icache(), y.icache(), "case {case}: {}", x.label());
                assert_eq!(x.dcache(), y.dcache(), "case {case}: {}", x.label());
                let (mut rx, mut ry) = (Registry::new(), Registry::new());
                x.export_telemetry(&mut rx, "c");
                y.export_telemetry(&mut ry, "c");
                assert_eq!(
                    rx.counters().collect::<Vec<_>>(),
                    ry.counters().collect::<Vec<_>>(),
                    "case {case}: {} telemetry",
                    x.label()
                );
            }
        });
    }

    #[test]
    fn empty_bank_is_a_null_sink() {
        let mut bank = CacheBank::symmetric(&[]).unwrap();
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        bank.fetch(0, 4);
        bank.read(0, 4);
        bank.write(0, 4);
        assert!(bank.into_systems().is_empty());
    }
}
