//! `d16-serve` and `repro` measure a cell the same way: a `/v1/run` body
//! carries exactly the numbers the suite collects for that (workload,
//! target) cell — exit checksum, text size, every pipeline statistic the
//! body reports, and both fetch-bus request counts.

use d16_bench::json::Json;
use d16_core::{standard_specs, Plan, Suite};
use d16_serve::api::{self, RunRequest, DEFAULT_FUEL_CAP};
use std::time::{Duration, Instant};

#[test]
fn run_bodies_match_suite_cells() {
    let names = ["towers", "whetstone"];
    let ws: Vec<_> = names.iter().map(|n| d16_workloads::by_name(n).expect("workload")).collect();
    let suite = Suite::collect(&Plan::default(), &ws, &standard_specs(), 2).expect("collect");
    for name in names {
        for spec in standard_specs() {
            let label = spec.label();
            let cell = suite.try_get(name, &label).expect("collected cell");
            let body = format!(r#"{{"workload":"{name}","target":"{label}"}}"#);
            let req = RunRequest::parse(body.as_bytes(), DEFAULT_FUEL_CAP).expect("parse");
            let deadline = Instant::now() + Duration::from_secs(120);
            let out = api::run(&req, None, deadline).expect("run");
            let doc = Json::parse(std::str::from_utf8(&out.body).expect("utf-8")).expect("json");
            let num = |d: &Json, k: &str| d.get(k).and_then(Json::as_f64);
            let at = format!("({name}, {label})");
            assert_eq!(num(&doc, "exit"), Some(f64::from(cell.exit)), "{at} exit");
            assert_eq!(num(&doc, "text_bytes"), Some(cell.text_bytes as f64), "{at} text_bytes");
            assert_eq!(num(&doc, "ireq_bus32"), Some(cell.ireq_bus32 as f64), "{at} ireq_bus32");
            assert_eq!(num(&doc, "ireq_bus64"), Some(cell.ireq_bus64 as f64), "{at} ireq_bus64");
            let stats = doc.get("stats").expect("stats object");
            let s = &cell.stats;
            for (k, v) in [
                ("insns", s.insns),
                ("loads", s.loads),
                ("stores", s.stores),
                ("interlocks", s.interlocks),
                ("load_interlocks", s.load_interlocks),
                ("fpu_interlocks", s.fpu_interlocks),
                ("ifetch_words", s.ifetch_words),
                ("branches", s.branches),
                ("taken_branches", s.taken_branches),
                ("nops", s.nops),
            ] {
                assert_eq!(num(stats, k), Some(v as f64), "{at} stats.{k}");
            }
            assert_eq!(
                stats.as_obj().map(<[_]>::len),
                Some(10),
                "{at}: a new body statistic needs a parity check here"
            );
        }
    }
}
