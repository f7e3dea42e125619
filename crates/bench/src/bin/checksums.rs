//! Prints each workload's checksum on the D16 target (used to pin the
//! `expected` values in `d16-workloads`), extras included.

use d16_core::{Plan, Source};

fn main() {
    for w in d16_workloads::SUITE.iter().chain(d16_workloads::EXTRAS) {
        match (Plan { source: Source::Workload(w), ..Plan::default() }).measure() {
            Ok(m) => println!("{}: {}", w.name, m.exit),
            Err(e) => println!("{}: ERROR {e}", w.name),
        }
    }
}
