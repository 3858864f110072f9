//! Output: greppable `TOKEN key=value` lines, the results file with
//! provenance, the cross-run exact-counter check, and the one-line JSON
//! result the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use dl_obs::Json;

use crate::{host, Outcome};

/// Run identity recorded with every result.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical CPUs.
    pub nproc: usize,
    /// CPU model.
    pub cpu_model: String,
    /// Checked-out commit, or `none`.
    pub commit: String,
    /// Source-tree fingerprint.
    pub tree: String,
}

impl Provenance {
    /// Reads the host and the tree at `root`.
    #[must_use]
    pub fn collect(root: &Path) -> Provenance {
        Provenance {
            nproc: host::nproc(),
            cpu_model: host::cpu_model(),
            commit: host::commit(root),
            tree: host::tree_fingerprint(root),
        }
    }
}

/// Formats a token value, quoting it when it holds spaces.
fn token_value(v: &str) -> String {
    if v.is_empty() || v.contains(char::is_whitespace) || v.contains('"') {
        format!("\"{}\"", v.replace('"', "'"))
    } else {
        v.to_owned()
    }
}

/// A number as JSON: every digit Rust's shortest round-trip form has.
/// Non-finite values, which JSON cannot carry, and negative zero (an
/// empty float sum) print as 0.
fn number(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The directory run artifacts go to: `perfbench/` under the Cargo
/// target directory (`CARGO_TARGET_DIR`, else `perfbench/target`),
/// resolved against the repository root.
#[must_use]
pub fn out_dir(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    root.join(target).join("perfbench")
}

/// Compares the run's exact counters with those an earlier run of the
/// same source tree (and workload, and seed where the counters depend
/// on it) recorded, recording them if none did. Returns one line per
/// disagreement.
///
/// # Errors
///
/// Fails when the record cannot be read or written.
pub fn check_exact(
    outcome: &Outcome,
    provenance: &Provenance,
    dir: &Path,
) -> Result<Vec<String>, String> {
    let o = &outcome.options;
    let mut key = format!("{}-{}", provenance.tree, o.workload.name());
    if o.workload.seeded_counters() {
        let _ = write!(key, "-seed{}", o.seed);
    }
    let path = dir.join("exact").join(format!("{key}.txt"));
    let current = outcome.exact();
    let mut text = String::new();
    for (name, value) in &current {
        let _ = writeln!(text, "{name} {value}");
    }
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let previous: BTreeMap<String, u64> = previous
            .lines()
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect();
        return Ok(current
            .iter()
            .filter(|(name, value)| previous.get(*name) != Some(value))
            .map(|(name, value)| {
                format!(
                    "exact counter {name}={value} differs from an earlier run of this tree ({:?})",
                    previous.get(name)
                )
            })
            .collect());
    }
    let parent = path.parent().expect("exact record has a parent directory");
    std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Vec::new())
}

/// Writes the results file and the Chrome trace; returns the results
/// file's path.
///
/// # Errors
///
/// Fails when a file cannot be written.
pub fn write_artifacts(
    outcome: &Outcome,
    provenance: &Provenance,
    problems: &[String],
    dir: &Path,
) -> Result<PathBuf, String> {
    let o = &outcome.options;
    let stem = format!(
        "{}-seed{}-trace{}",
        o.workload.name(),
        o.seed,
        u8::from(o.trace)
    );
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if let Some(trace) = &outcome.chrome_trace {
        let path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut end_to_end = Json::obj();
    for (m, value, summary) in outcome.end_to_end() {
        let mut entry = Json::obj()
            .with("value", value.into())
            .with("unit", m.unit.into());
        if let Some(s) = summary {
            entry = entry
                .with("median", s.median.into())
                .with("q1", s.q1.into())
                .with("q3", s.q3.into())
                .with("n", s.n.into());
        }
        end_to_end.set(&m.name, entry);
    }
    let mut per_layer = Json::obj();
    for (m, value) in outcome.per_layer() {
        per_layer.set(
            &m.name,
            Json::obj()
                .with("value", value.into())
                .with("unit", m.unit.into())
                .with("exact", m.is_exact().into()),
        );
    }
    let layers = layer_self_times(outcome)
        .into_iter()
        .fold(Json::obj(), |j, (layer, secs)| j.with(layer, secs.into()));
    let doc = Json::obj()
        .with(
            "provenance",
            Json::obj()
                .with("workload", o.workload.name().into())
                .with("seed", o.seed.into())
                .with("seconds", o.seconds.into())
                .with("trace", o.trace.into())
                .with("threads", o.workload.threads().into())
                .with("nproc", provenance.nproc.into())
                .with("cpu_model", provenance.cpu_model.as_str().into())
                .with("commit", provenance.commit.as_str().into())
                .with("tree", provenance.tree.as_str().into())
                .with("setup_repetitions", outcome.setup_secs.len().into())
                .with("repetitions", outcome.reps.len().into())
                .with("traced_repetitions", outcome.traced.len().into()),
        )
        .with("correct", outcome.correct(problems).into())
        .with("attempted", outcome.attempted().into())
        .with("failed", outcome.failed().into())
        .with(
            "problems",
            Json::Arr(problems.iter().map(|p| p.as_str().into()).collect()),
        )
        .with(
            "samples",
            Json::obj()
                .with("wall_s", samples(outcome.reps.iter().map(|r| r.wall_s)))
                .with("cpu_s", samples(outcome.reps.iter().map(|r| r.cpu_s)))
                .with("setup_s", samples(outcome.setup_secs.iter().copied())),
        )
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
        .with("layer_self_s", layers);
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Every sample of one timing, in run order.
fn samples(values: impl Iterator<Item = f64>) -> Json {
    Json::Arr(values.map(Json::F64).collect())
}

/// Median self time of each layer over the traced repetitions.
fn layer_self_times(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    if outcome.traced.is_empty() {
        return Vec::new();
    }
    crate::metrics::LAYERS
        .iter()
        .map(|layer| {
            let values: Vec<f64> = outcome
                .traced
                .iter()
                .map(|r| r.get(&format!("layer.{layer}.self_s")))
                .collect();
            (*layer, crate::stats::median(&values))
        })
        .collect()
}

/// The `TOKEN key=value` summary lines.
#[must_use]
pub fn token_lines(outcome: &Outcome, provenance: &Provenance, problems: &[String]) -> Vec<String> {
    let o = &outcome.options;
    let mut lines = vec![format!(
        "PROVENANCE workload={} seed={} seconds={} trace={} threads={} nproc={} cpu_model={} \
         commit={} tree={} setup_repetitions={} repetitions={} traced_repetitions={}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.workload.threads(),
        provenance.nproc,
        token_value(&provenance.cpu_model),
        provenance.commit,
        provenance.tree,
        outcome.setup_secs.len(),
        outcome.reps.len(),
        outcome.traced.len(),
    )];
    let e2e = outcome.end_to_end();
    let value = |name: &str| {
        e2e.iter()
            .find(|(m, _, _)| m.name == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let attempted = outcome.attempted();
    let failed = outcome.failed();
    lines.push(format!(
        "WORKLOAD name={} wall_s={:.4} setup_s={:.6} cpu_s={:.4} peak_rss_mb={:.1} \
         fail_frac={} attempted={attempted} failed={failed}",
        o.workload.name(),
        value("wall_s"),
        value("setup_s"),
        value("cpu_s"),
        value("peak_rss_mb"),
        number(outcome.fail_frac()),
    ));
    for (m, v, summary) in &e2e {
        let mut line = format!(
            "METRIC name={} unit={} value={}",
            m.name,
            m.unit,
            number(*v)
        );
        if let Some(s) = summary {
            let _ = write!(
                line,
                " median={} q1={} q3={} n={}",
                number(s.median),
                number(s.q1),
                number(s.q3),
                s.n
            );
        }
        lines.push(line);
    }
    if o.trace {
        for (m, v) in outcome.per_layer() {
            lines.push(format!(
                "METRIC name={} unit={} value={}{}",
                m.name,
                m.unit,
                number(v),
                if m.is_exact() { " exact=1" } else { "" }
            ));
        }
        let wall: f64 = {
            let walls: Vec<f64> = outcome.traced.iter().map(|r| r.wall_s).collect();
            crate::stats::median(&walls)
        };
        for (layer, secs) in layer_self_times(outcome) {
            lines.push(format!(
                "LAYER name={layer} self_s={secs:.4} share_of_wall={:.3}",
                if wall > 0.0 { secs / wall } else { 0.0 }
            ));
        }
    }
    for problem in problems {
        lines.push(format!("PROBLEM detail={}", token_value(problem)));
    }
    lines.push(format!(
        "RESULT correct={} attempted={attempted} failed={failed}",
        outcome.correct(problems)
    ));
    lines
}

/// The final JSON line: `correct`, `attempted`, `failed` and the
/// end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
#[must_use]
pub fn result_line(outcome: &Outcome, problems: &[String]) -> String {
    let metrics: Vec<(String, f64, &str)> = if outcome.options.trace {
        outcome
            .per_layer()
            .into_iter()
            .map(|(m, v)| (m.name, v, m.unit))
            .collect()
    } else {
        outcome
            .end_to_end()
            .into_iter()
            .map(|(m, v, _)| (m.name, v, m.unit))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(problems),
        outcome.attempted(),
        outcome.failed(),
        body.join(", ")
    )
}
