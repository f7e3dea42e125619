//! The cacheless memory interface of Section 4: a fetch buffer of `k`
//! instructions and a flat `l`-wait-state memory.
//!
//! "Without an instruction cache, each fetch request returns a block of `k`
//! instructions, where `k` is the fetch bus width divided by instruction
//! size. When `k` is greater than 1, the instruction block is buffered, and
//! as long as instructions requested are in the buffer, no memory request
//! is made." Performance follows the paper's formula:
//!
//! ```text
//! Cycles = IC + Interlocks + Latency * (IRequests + DRequests)
//! ```

use d16_sim::AccessSink;

/// Counts the instruction-fetch requests a fetch buffer of `bus_bytes`
/// makes to memory. Data requests are one per load or store, which the
/// pipeline already counts, so reads and writes are ignored here;
/// `Measurement::cacheless_cycles` in `d16-core` applies the formula.
#[derive(Copy, Clone, Debug)]
pub struct FetchBuffer {
    bus_bytes: u32,
    buffered: Option<u32>,
    /// Instruction fetch requests issued to memory.
    pub irequests: u64,
}

impl FetchBuffer {
    /// Creates a buffer for the given fetch bus width in bytes (4 for the
    /// paper's 32-bit bus, 8 for the 64-bit bus).
    ///
    /// # Panics
    ///
    /// Panics unless `bus_bytes` is a power of two of at least 2.
    pub fn new(bus_bytes: u32) -> Self {
        assert!(bus_bytes.is_power_of_two() && bus_bytes >= 2, "bad bus width {bus_bytes}");
        FetchBuffer { bus_bytes, buffered: None, irequests: 0 }
    }
}

impl AccessSink for FetchBuffer {
    const FETCH_RUNS: bool = true;

    #[inline]
    fn fetch(&mut self, addr: u32, _bytes: u8) {
        let block = addr & !(self.bus_bytes - 1);
        if self.buffered != Some(block) {
            self.irequests += 1;
            self.buffered = Some(block);
        }
    }

    #[inline]
    fn read(&mut self, _addr: u32, _bytes: u8) {}

    #[inline]
    fn write(&mut self, _addr: u32, _bytes: u8) {}

    /// A run makes one request on entry unless its first bus word is the
    /// buffered one, then one per bus word it moves into. On a bus at
    /// least as wide as the longest instruction, consecutive fetches
    /// are never a whole word apart, so the run visits every word from
    /// its first to its last; on the 2-byte bus every fetch is a word of
    /// its own.
    #[inline]
    fn fetch_run(
        &mut self,
        first: u32,
        last: u32,
        widths: impl ExactSizeIterator<Item = u8> + Clone,
    ) {
        let mask = !(self.bus_bytes - 1);
        let (w0, w1) = (first & mask, last & mask);
        let moves =
            if self.bus_bytes >= 4 { (w1 - w0) / self.bus_bytes } else { widths.len() as u32 - 1 };
        self.irequests += u64::from(self.buffered != Some(w0)) + u64::from(moves);
        self.buffered = Some(w1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d16_testkit::{cases, Rng};

    fn feed(buf: &mut FetchBuffer, addrs: &[u32]) {
        for &a in addrs {
            buf.fetch(a, 2);
        }
    }

    #[test]
    fn sequential_d16_amortizes_k2() {
        // Eight 2-byte instructions over a 32-bit bus: 4 requests.
        let mut b = FetchBuffer::new(4);
        feed(&mut b, &[0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(b.irequests, 4);
        // Over a 64-bit bus: k = 4, so 2 requests.
        let mut b = FetchBuffer::new(8);
        feed(&mut b, &[0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(b.irequests, 2);
    }

    #[test]
    fn dlxe_k1_requests_every_word() {
        let mut b = FetchBuffer::new(4);
        for a in (0..32).step_by(4) {
            b.fetch(a, 4);
        }
        assert_eq!(b.irequests, 8, "k=1: every instruction is a request");
    }

    #[test]
    fn branch_back_into_buffer_is_free() {
        let mut b = FetchBuffer::new(8);
        // A 3-instruction D16 loop entirely inside one 8-byte block.
        feed(&mut b, &[8, 10, 12, 8, 10, 12, 8, 10, 12]);
        assert_eq!(b.irequests, 1, "the loop body stays buffered");
    }

    #[test]
    fn branch_out_refetches() {
        let mut b = FetchBuffer::new(4);
        feed(&mut b, &[0, 2, 100, 0]);
        assert_eq!(b.irequests, 3, "leaving and re-entering a block refetches");
    }

    #[test]
    fn data_accesses_leave_the_buffer_alone() {
        let mut b = FetchBuffer::new(4);
        b.fetch(0x1000, 2);
        b.read(0x2000, 4);
        b.write(0x3000, 4);
        b.fetch(0x1002, 2);
        assert_eq!(b.irequests, 1, "loads and stores neither request nor evict");
    }

    /// A run of random 2- and 4-byte (D16x) or fixed-width fetches
    /// starting at a random 2-aligned address near `near`.
    fn run(rng: &mut Rng, near: u32, widths: &[u8]) -> (u32, Vec<u8>) {
        let first = near + 2 * rng.below(8);
        let n = 1 + rng.below(40) as usize;
        (first, (0..n).map(|_| *rng.pick(widths)).collect())
    }

    /// The last fetch address of the run `(first, widths)`.
    fn last(first: u32, widths: &[u8]) -> u32 {
        first + widths[..widths.len() - 1].iter().map(|&w| u32::from(w)).sum::<u32>()
    }

    #[test]
    fn fetch_runs_count_like_their_fetches() {
        cases(300, |case, rng| {
            let bus = 2u32 << rng.below(3); // 2, 4 or 8 bytes
            let widths: &[u8] = rng.pick::<&[u8]>(&[&[2u8][..], &[4][..], &[2, 4][..]]);
            let (mut by_run, mut by_fetch) = (FetchBuffer::new(bus), FetchBuffer::new(bus));
            // Runs that start inside the buffered word, right after it,
            // or somewhere else entirely.
            let mut near = 0x1000;
            for _ in 0..1 + rng.below(12) {
                let (first, ws) = run(rng, near, widths);
                by_run.fetch_run(first, last(first, &ws), ws.iter().copied());
                let mut a = first;
                for &w in &ws {
                    by_fetch.fetch(a, w);
                    a += u32::from(w);
                }
                assert_eq!(by_run.irequests, by_fetch.irequests, "case {case}, bus {bus}");
                near = match rng.below(3) {
                    0 => last(first, &ws) & !(bus - 1),
                    1 => a,
                    _ => 0x1000 + 2 * rng.below(4096),
                };
            }
        });
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two_bus() {
        let _ = FetchBuffer::new(6);
    }
}
