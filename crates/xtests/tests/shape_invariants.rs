//! Suite-level shape invariants: the headline numbers EXPERIMENTS.md
//! reports must stay inside the bands the paper's qualitative claims
//! define. These are the regression tripwires for "the reproduction still
//! reproduces" — if a compiler or simulator change moves the averages out
//! of these windows, the paper-vs-measured story needs re-checking.

use d16_core::{default_jobs, experiments as ex, standard_specs, Plan, Suite};
use d16_workloads::SUITE;

#[test]
fn headline_averages_stay_in_band() {
    let all: Vec<_> = SUITE.iter().collect();
    let suite = Suite::collect(&Plan::default(), &all, &standard_specs(), default_jobs()).unwrap();

    // Figure 4: "DLXe programs average approximately 1.5 times the size".
    // Measured 1.49 on the full suite (EXPERIMENTS.md).
    let density = ex::average(&ex::fig4_relative_density(&suite));
    assert!(
        (1.4..=1.7).contains(&density),
        "D16 density ratio drifted out of band: {density:.3} (expect 1.4-1.7)"
    );

    // Figure 5: DLXe executes fewer instructions, but far fewer than the
    // 2x raw width would suggest. The paper measured a 13-15% advantage;
    // our simpler two-address coalescing and ldc literal pools make it
    // larger (25% on the full suite, see EXPERIMENTS.md on Figure 5), so
    // the band is 5-30%.
    let path = ex::average(&ex::fig5_path_length(&suite));
    let advantage_pct = (1.0 - path) * 100.0;
    assert!(
        (5.0..=30.0).contains(&advantage_pct),
        "DLXe path-length advantage drifted out of band: {advantage_pct:.1}% (expect 5-30%)"
    );

    // Every workload individually: denser in 16-bit form, never a shorter
    // D16 path (the two per-program directions everything else rests on).
    for r in ex::fig4_relative_density(&suite) {
        assert!(r.value > 1.0, "{}: DLXe must be bigger ({:.3})", r.workload, r.value);
    }
    for r in ex::fig5_path_length(&suite) {
        assert!(r.value <= 1.0, "{}: DLXe path must not be longer ({:.3})", r.workload, r.value);
    }
}
