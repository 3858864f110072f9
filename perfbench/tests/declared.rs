//! `BENCHMARK.json` and the benchmark agree: every name is well formed,
//! every declared metric is in the registry with the same unit and
//! direction, and a run emits exactly the declared metrics.

use std::path::{Path, PathBuf};

use dl_obs::Json;
use perfbench::metrics::{end_to_end, per_layer, valid_name, Metric};
use perfbench::{report, Options, Workload};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn declared() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string<'a>(item: &'a Json, key: &str) -> &'a str {
    match item.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// `(name, unit, better)` of every declared metric in `section`.
fn declared_metrics(section: &str) -> Vec<(String, String, String)> {
    let doc = declared();
    items(&doc, section)
        .iter()
        .map(|m| {
            (
                string(m, "name").to_owned(),
                string(m, "unit").to_owned(),
                string(m, "better").to_owned(),
            )
        })
        .collect()
}

fn registry(metrics: Vec<Metric>) -> Vec<(String, String, String)> {
    metrics
        .into_iter()
        .map(|m| (m.name, m.unit.to_owned(), m.better.as_str().to_owned()))
        .collect()
}

#[test]
fn every_name_is_well_formed_and_unique() {
    let doc = declared();
    let mut names: Vec<String> = Vec::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for item in items(&doc, section) {
            names.push(string(item, "name").to_owned());
        }
    }
    for name in &names {
        assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

#[test]
fn declared_workloads_are_the_benchmarks() {
    let doc = declared();
    let declared: Vec<&str> = items(&doc, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, ours);
}

#[test]
fn declared_metrics_match_the_registry() {
    assert_eq!(declared_metrics("end_to_end"), registry(end_to_end()));
    assert_eq!(declared_metrics("per_layer"), registry(per_layer()));
    assert!(declared_metrics("end_to_end")
        .iter()
        .any(|(name, unit, better)| name == "setup_s" && unit == "s" && better == "lower"));
}

/// The metric names of a run's final JSON line.
fn emitted(trace: bool) -> Vec<String> {
    let options = Options {
        workload: Workload::Static,
        seed: 7,
        seconds: 0.0,
        trace,
        root: repo_root(),
    };
    let outcome = perfbench::run(&options).expect("static workload runs");
    let problems = outcome.problems();
    assert!(problems.is_empty(), "{problems:?}");
    assert_eq!(outcome.failed(), 0);
    let line = report::result_line(&outcome, &problems);
    let result = Json::parse(&line).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn every_declared_metric_is_emitted() {
    let names = |section: &str| -> Vec<String> {
        declared_metrics(section)
            .into_iter()
            .map(|(name, _, _)| name)
            .collect()
    };
    assert_eq!(emitted(false), names("end_to_end"));
    assert_eq!(emitted(true), names("per_layer"));
}
