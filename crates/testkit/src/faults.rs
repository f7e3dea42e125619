//! Deterministic fault injection for the experiment stack.
//!
//! A *failpoint* is a named site in library code that can be armed from
//! the outside to simulate a failure the real world produces rarely —
//! store I/O errors, a register allocator that fails to converge, a
//! truncated access trace, an off-grid cache configuration. Armed
//! failpoints take the code down its *real* error path; nothing is
//! mocked, so the CI `faults` stage can assert that a fault degrades a
//! run (documented exit codes, stderr diagnostics, remaining cells
//! intact) instead of aborting it.
//!
//! Failpoints are armed through the `D16_FAILPOINTS` environment
//! variable: a comma-separated list of `name` or `name=arg` entries,
//! parsed once per process. An entry without an argument arms the point
//! for every subject; `name=arg` arms it only where the site's subject
//! (a workload or function name) equals `arg` exactly.
//!
//! ```text
//! D16_FAILPOINTS=store-io                   repro --smoke --store DIR
//! D16_FAILPOINTS=regalloc-diverge=ack       repro --only ackermann,towers
//! D16_FAILPOINTS=smoke-drift,off-grid-config   repro --smoke
//! ```
//!
//! With the variable unset (every production run), an armed-check is one
//! `OnceLock` load and a probe of an empty list — nothing on any hot
//! path, and no behavior change anywhere.

use std::sync::OnceLock;

/// The environment variable failpoints are armed through.
pub const ENV: &str = "D16_FAILPOINTS";

/// One parsed failpoint entry: the point name and its optional subject
/// argument.
pub type Entry = (String, Option<String>);

/// Parses a `D16_FAILPOINTS` specification. Empty entries are skipped;
/// `name=arg` splits on the first `=`.
#[must_use]
pub fn parse(spec: &str) -> Vec<Entry> {
    spec.split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(|e| match e.split_once('=') {
            Some((name, arg)) => (name.to_string(), Some(arg.to_string())),
            None => (e.to_string(), None),
        })
        .collect()
}

fn armed_points() -> &'static [Entry] {
    static POINTS: OnceLock<Vec<Entry>> = OnceLock::new();
    POINTS.get_or_init(|| match std::env::var(ENV) {
        Ok(spec) => parse(&spec),
        Err(_) => Vec::new(),
    })
}

/// Whether `point` is armed, returning its argument (an armed point
/// with no argument returns `Some("")`). Use [`armed_for`] when the
/// site has a subject to match against the argument.
#[must_use]
pub fn armed(point: &str) -> Option<&'static str> {
    armed_points()
        .iter()
        .find(|(name, _)| name == point)
        .map(|(_, arg)| arg.as_deref().unwrap_or(""))
}

/// Whether `point` is armed for `subject`: armed with no argument, or
/// armed with an argument equal to `subject`.
#[must_use]
pub fn armed_for(point: &str, subject: &str) -> bool {
    armed_points()
        .iter()
        .any(|(name, arg)| name == point && arg.as_deref().is_none_or(|a| a == subject))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_splits_entries_and_arguments() {
        assert_eq!(parse(""), vec![]);
        assert_eq!(parse("store-io"), vec![("store-io".to_string(), None)]);
        assert_eq!(
            parse("regalloc-diverge=ack, serve-slow-worker=slow ,,off-grid-config"),
            vec![
                ("regalloc-diverge".to_string(), Some("ack".to_string())),
                ("serve-slow-worker".to_string(), Some("slow".to_string())),
                ("off-grid-config".to_string(), None),
            ]
        );
        // Only the first `=` splits; the rest rides in the argument.
        assert_eq!(parse("a=b=c"), vec![("a".to_string(), Some("b=c".to_string()))]);
    }

    #[test]
    fn unarmed_process_has_no_failpoints() {
        // The test binary never sets D16_FAILPOINTS, so every probe is
        // cold — the production fast path.
        assert_eq!(armed("store-io"), None);
        assert!(!armed_for("regalloc-diverge", "ack"));
    }
}
