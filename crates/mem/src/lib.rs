//! # d16-mem — memory-system models
//!
//! The two memory interfaces evaluated in Section 4 of the paper:
//!
//! * [`FetchBuffer`] — the cacheless machine's instruction bus: the
//!   fetch requests a `k`-instruction fetch buffer over a 32- or 64-bit
//!   bus makes (Figures 14–15, Tables 11–12). Data requests are one per
//!   load or store, and `d16-core`'s `Measurement::cacheless_cycles`
//!   turns both into cycles at `l` wait states.
//! * [`Cache`] / [`CacheSystem`] — dinero-equivalent sub-blocked caches
//!   with wrap-around prefetch, split I/D (Figures 16–19, Tables 13–16).
//! * [`CacheBank`] — a single-pass multi-configuration evaluator: one
//!   trace sweep drives any number of `CacheSystem`s at once, which is
//!   how the experiment harness regenerates every cache figure from
//!   exactly one replay per trace.
//!
//! All of them consume the access stream of `d16-sim`'s pipeline via the
//! [`d16_sim::AccessSink`] trait, so one functional run can drive any
//! number of memory-system configurations, directly or through a
//! recorded trace. [`FetchBuffer`] and [`CacheBank`] take the block
//! engine's fetch runs ([`d16_sim::AccessSink::fetch_run`]): a completed
//! block's fetches in one call, accounted from the run's ends and length.
//!
//! ```
//! use d16_mem::{CacheSystem, FetchBuffer};
//! use d16_sim::{AccessSink, ExecStats};
//!
//! // A 64-bit bus delivers four D16 instructions per fetch (k = 4).
//! let mut fb = FetchBuffer::new(8);
//! for addr in (0x1000..0x1010).step_by(2) {
//!     fb.fetch(addr, 2);
//! }
//! assert_eq!(fb.irequests, 2);
//!
//! // The paper's 4K direct-mapped split caches.
//! let mut cs = CacheSystem::paper(4096).unwrap();
//! cs.fetch(0x1000, 2);
//! assert_eq!(cs.icache().read_misses, 1);
//! ```

mod bank;
mod cache;
mod fetch;
mod system;

pub use bank::{BankCounter, CacheBank, BANK_SCHEMA};
pub use cache::{Cache, CacheConfig, CacheStats, ConfigError};
pub use fetch::FetchBuffer;
pub use system::CacheSystem;
