//! Unit tests of the experiment arithmetic over a synthetic suite —
//! fast checks that the ratio/CPI formulas match the paper's definitions,
//! independent of the toolchain.

use d16_core::{experiments as ex, Measurement, Suite};
use d16_sim::ExecStats;

/// Builds a synthetic measurement cell.
fn cell(workload: &str, target: &str, size: u64, insns: u64, interlocks: u64) -> Measurement {
    Measurement {
        workload: Box::leak(workload.to_string().into_boxed_str()),
        target: target.to_string(),
        exit: 0,
        size_bytes: size,
        text_bytes: size,
        stats: ExecStats {
            insns,
            loads: insns / 10,
            stores: insns / 20,
            interlocks,
            ifetch_words: if target.starts_with("D16") { insns * 6 / 10 } else { insns },
            ..Default::default()
        },
        // A 32-bit bus fetches every word once for DLXe (k=1) and about
        // six tenths as many words for D16 (k=2 with branch waste).
        ireq_bus32: if target.starts_with("D16") { insns * 6 / 10 } else { insns },
        ireq_bus64: if target.starts_with("D16") { insns * 3 / 10 } else { insns / 2 },
        tele: d16_telemetry::Counters::new(&d16_sim::SIM_SCHEMA),
        grid: None,
        imm: None,
        pipeline_sweep: None,
    }
}

fn synthetic_suite() -> Suite {
    let mut suite = Suite::default();
    for (w, d16_size, d16_insns, dlxe_size, dlxe_insns) in
        [("alpha", 1000u64, 100_000u64, 1500u64, 85_000u64), ("beta", 2000, 400_000, 3200, 340_000)]
    {
        for (target, size, insns) in [
            ("D16/16/2", d16_size, d16_insns),
            ("DLXe/16/2", dlxe_size + 100, dlxe_insns + 8000),
            ("DLXe/16/3", dlxe_size + 50, dlxe_insns + 4000),
            ("DLXe/32/2", dlxe_size + 40, dlxe_insns + 3000),
            ("DLXe/32/3", dlxe_size, dlxe_insns),
        ] {
            suite.cells.insert(
                (w.to_string(), target.to_string()),
                cell(w, target, size, insns, insns / 10),
            );
        }
    }
    suite
}

#[test]
fn density_ratios_are_size_quotients() {
    let suite = synthetic_suite();
    let rows = ex::fig4_relative_density(&suite);
    assert_eq!(rows.len(), 2);
    let alpha = rows.iter().find(|r| r.workload == "alpha").unwrap();
    assert!((alpha.value - 1.5).abs() < 1e-12);
    let avg = ex::average(&rows);
    assert!((avg - (1.5 + 1.6) / 2.0).abs() < 1e-12);
}

#[test]
fn path_ratios_are_insn_quotients() {
    let suite = synthetic_suite();
    let rows = ex::fig5_path_length(&suite);
    let alpha = rows.iter().find(|r| r.workload == "alpha").unwrap();
    assert!((alpha.value - 0.85).abs() < 1e-12);
}

#[test]
fn grid_is_normalized_to_d16() {
    let suite = synthetic_suite();
    let size = ex::code_size_grid(&suite);
    let alpha = size.iter().find(|r| r.workload == "alpha").unwrap();
    assert!((alpha.dlxe_32_3 - 1.5).abs() < 1e-12);
    assert!(alpha.dlxe_16_2 > alpha.dlxe_32_3, "restrictions add size");
    let path = ex::path_length_grid(&suite);
    let alpha = path.iter().find(|r| r.workload == "alpha").unwrap();
    assert!(alpha.dlxe_16_2 > alpha.dlxe_32_3, "restrictions add path");
}

#[test]
fn cacheless_cycles_follow_paper_formula() {
    let suite = synthetic_suite();
    let m = suite.try_get("alpha", "D16/16/2").unwrap();
    // Cycles = IC + Interlocks + l * (IReq + DReq).
    let base = m.stats.insns + m.stats.interlocks;
    assert_eq!(m.cacheless_cycles(4, 0), base);
    let reqs = m.ireq_bus32 + m.stats.loads + m.stats.stores;
    assert_eq!(m.cacheless_cycles(4, 3), base + 3 * reqs);
    let reqs64 = m.ireq_bus64 + m.stats.loads + m.stats.stores;
    assert_eq!(m.cacheless_cycles(8, 2), base + 2 * reqs64);
}

#[test]
fn cycle_ratios_rise_with_wait_states() {
    let suite = synthetic_suite();
    let rows = ex::table11_12_cycle_ratios(&suite, 4);
    for r in &rows {
        assert!(r.ratios[0] < 1.0, "DLXe wins at l=0 (shorter path)");
        for w in r.ratios.windows(2) {
            assert!(w[1] > w[0], "latency must erode the DLXe advantage: {:?}", r.ratios);
        }
    }
}

#[test]
fn fig14_normalization_uses_dlxe_instruction_count() {
    let suite = synthetic_suite();
    let points = ex::fig14_cacheless_cpi(&suite, 4);
    for p in &points {
        // Normalized D16 CPI divides D16 cycles by the *DLXe* path, so it
        // exceeds the raw D16 CPI (D16 executes more instructions).
        assert!(p.d16_normalized > p.d16_cpi, "{p:?}");
    }
    // CPI at zero latency is (IC + interlocks)/IC = 1.1 for both.
    assert!((points[0].dlxe_cpi - 1.1).abs() < 1e-9);
    assert!((points[0].d16_cpi - 1.1).abs() < 1e-9);
}

#[test]
fn saturation_decreases_with_latency() {
    let suite = synthetic_suite();
    let pts = ex::fig15_fetch_saturation(&suite, 4);
    for w in pts.windows(2) {
        assert!(w[1].dlxe < w[0].dlxe);
        assert!(w[1].d16 < w[0].d16);
    }
    // D16 makes fewer requests per cycle at equal latency.
    for p in &pts {
        assert!(p.d16 < p.dlxe, "{p:?}");
    }
}

#[test]
fn traffic_vs_density_rows() {
    let suite = synthetic_suite();
    let rows = ex::fig13_traffic_vs_density(&suite);
    for r in &rows {
        assert!(r.traffic_ratio > 1.0, "DLXe moves more instruction words");
        assert!(r.size_ratio > 1.0);
    }
}

#[test]
fn table3_is_zero_when_traffic_is_equal() {
    // The synthetic suite gives every target loads = insns/10; D16 runs
    // more instructions so its traffic increase is positive.
    let suite = synthetic_suite();
    let rows = ex::table3_data_traffic(&suite);
    for r in &rows {
        assert!(r.d16_pct > 0.0);
        assert!(r.dlxe16_pct > 0.0);
        assert!(r.d16_pct > r.dlxe16_pct, "D16 pays most");
    }
}
