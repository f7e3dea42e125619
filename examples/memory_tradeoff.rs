//! Memory-system trade-off: for *your* memory latency and bus width, which
//! encoding is faster? Reproduces the paper's Section 4 decision procedure
//! over the whole suite and prints the crossover.
//!
//! ```text
//! cargo run --release -p d16-core --example memory_tradeoff [wait_states] [bus_bits]
//! ```

use d16_core::{base_specs, default_jobs, Plan, Suite};
use d16_workloads::SUITE;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let wait: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let bus_bits: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(32);
    let bus = bus_bits / 8;

    eprintln!("measuring the suite on both machines...");
    let all: Vec<_> = SUITE.iter().collect();
    let suite = match Suite::collect(&Plan::default(), &all, &base_specs(), default_jobs()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("measurement failed: {e}");
            std::process::exit(1);
        }
    };

    println!("\ncacheless machine, {bus_bits}-bit fetch bus, {wait} wait state(s):\n");
    println!("{:<12} {:>14} {:>14} {:>8}", "program", "D16 cycles", "DLXe cycles", "winner");
    let mut d16_wins = 0;
    for w in suite.workloads() {
        // A degraded suite may be missing cells; skip those workloads.
        let (Ok(d16), Ok(dlxe)) = (suite.try_get(&w, "D16/16/2"), suite.try_get(&w, "DLXe/32/3"))
        else {
            continue;
        };
        let d16 = d16.cacheless_cycles(bus, wait);
        let dlxe = dlxe.cacheless_cycles(bus, wait);
        let winner = if d16 <= dlxe { "D16" } else { "DLXe" };
        if d16 <= dlxe {
            d16_wins += 1;
        }
        println!("{:<12} {:>14} {:>14} {:>8}", w, d16, dlxe, winner);
    }
    println!("\nD16 wins {d16_wins}/{} workloads at this design point.", suite.workloads().len());

    // Where is the crossover for this bus width?
    println!("\ncrossover sweep (mean cycle ratio DLXe/D16 per wait state):");
    for l in 0..=4u64 {
        let mut ratio = 0.0;
        let mut n = 0usize;
        for w in &suite.workloads() {
            let (Ok(d16), Ok(dlxe)) = (suite.try_get(w, "D16/16/2"), suite.try_get(w, "DLXe/32/3"))
            else {
                continue;
            };
            ratio += dlxe.cacheless_cycles(bus, l) as f64 / d16.cacheless_cycles(bus, l) as f64;
            n += 1;
        }
        ratio /= n as f64;
        let note = if ratio >= 1.0 { "D16 faster on average" } else { "DLXe faster on average" };
        println!("  l={l}: {ratio:.3}  ({note})");
    }
}
