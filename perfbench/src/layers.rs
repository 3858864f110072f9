//! Self time from a span timeline: a span's duration minus the part of
//! its interval that its child spans cover.
//!
//! Spans on one thread nest by time. A worker thread's outermost spans
//! (a prewarm worker's compile and simulation spans) hang under the
//! smallest span of the main thread whose interval contains them, so
//! `experiments/prewarm` owns its workers' spans. The main thread is
//! the one holding the longest span, the benchmark's root span.
//! Self time is therefore summed over threads: with two busy workers,
//! the layers' self times add up to more than the wall time.

use std::collections::BTreeMap;

use dl_obs::SpanRecord;

/// Slack for comparing span endpoints that went through `f64` offsets.
const EPS: f64 = 1e-7;

/// Self time of every span in `records`, index-aligned with it.
#[must_use]
pub fn self_times(records: &[SpanRecord]) -> Vec<f64> {
    let parents = parents(records);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    for (child, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            children[*p].push(child);
        }
    }
    records
        .iter()
        .zip(&children)
        .map(|(r, kids)| {
            let mut intervals: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| {
                    let c = &records[k];
                    (
                        c.start_secs.max(r.start_secs),
                        (c.start_secs + c.secs).min(r.start_secs + r.secs),
                    )
                })
                .filter(|(s, e)| e > s)
                .collect();
            (r.secs - covered(&mut intervals)).max(0.0)
        })
        .collect()
}

/// Total length of the union of `intervals`.
fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

fn contains(outer: &SpanRecord, inner: &SpanRecord) -> bool {
    outer.start_secs <= inner.start_secs + EPS
        && inner.start_secs + inner.secs <= outer.start_secs + outer.secs + EPS
}

/// The parent of every span: the innermost enclosing span on its own
/// thread, or for a worker thread's outermost spans the smallest
/// enclosing span on the main thread. (A span of the other worker can
/// enclose a short one in time, but it does not own it.)
fn parents(records: &[SpanRecord]) -> Vec<Option<usize>> {
    let mut parent = vec![None; records.len()];
    let mut by_thread: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        by_thread.entry(r.tid).or_default().push(i);
    }
    let mut roots = Vec::new();
    for spans in by_thread.values_mut() {
        // Outer spans first: earlier start, then longer duration.
        spans.sort_by(|&a, &b| {
            let (ra, rb) = (&records[a], &records[b]);
            ra.start_secs
                .total_cmp(&rb.start_secs)
                .then(rb.secs.total_cmp(&ra.secs))
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in spans.iter() {
            while let Some(&top) = stack.last() {
                if contains(&records[top], &records[i]) {
                    break;
                }
                stack.pop();
            }
            match stack.last() {
                Some(&top) => parent[i] = Some(top),
                None => roots.push(i),
            }
            stack.push(i);
        }
    }
    let main_tid = records
        .iter()
        .max_by(|a, b| a.secs.total_cmp(&b.secs))
        .map(|r| r.tid);
    for i in roots {
        let r = &records[i];
        parent[i] = records
            .iter()
            .enumerate()
            .filter(|(_, o)| Some(o.tid) == main_tid && o.tid != r.tid)
            .filter(|(_, o)| contains(o, r) && o.secs > r.secs)
            .min_by(|a, b| a.1.secs.total_cmp(&b.1.secs))
            .map(|(j, _)| j);
    }
    parent
}

/// The layer a span's self time belongs to, by the span path's first
/// segment. The two tables that simulate outside the memo table
/// (`extension-prefetch`, `profile-geometries`) spend their self time
/// in direct simulator calls the program does not span, so it counts
/// as `sim`.
#[must_use]
pub fn layer_of(path: &str) -> &'static str {
    if path == "experiments/table/extension-prefetch"
        || path == "experiments/table/profile-geometries"
    {
        return "sim";
    }
    match path.split('/').next().unwrap_or("") {
        "compile" | "minic" => "minic",
        "analysis" => "analysis",
        "sim" => "sim",
        "core" => "core",
        "baselines" => "baselines",
        "experiments" => "experiments",
        "obs" => "obs",
        _ => "harness",
    }
}

/// Self time summed per layer.
#[must_use]
pub fn by_layer(records: &[SpanRecord], selfs: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (r, s) in records.iter().zip(selfs) {
        *out.entry(layer_of(&r.path)).or_insert(0.0) += s;
    }
    out
}

/// Self time summed over spans whose path satisfies `pick`.
#[must_use]
pub fn sum_where(records: &[SpanRecord], selfs: &[f64], pick: impl Fn(&str) -> bool) -> f64 {
    records
        .iter()
        .zip(selfs)
        .filter(|(r, _)| pick(&r.path))
        .map(|(_, s)| s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, start: f64, secs: f64, tid: u64) -> SpanRecord {
        SpanRecord {
            path: path.into(),
            secs,
            start_secs: start,
            tid,
        }
    }

    #[test]
    fn nested_spans_subtract_children() {
        let records = vec![
            span("bench/x", 0.0, 10.0, 1),
            span("compile/a", 1.0, 4.0, 1),
            span("analysis/a/cfg", 2.0, 1.0, 1),
            span("analysis/a/patterns", 3.0, 1.5, 1),
        ];
        let selfs = self_times(&records);
        assert_eq!(selfs, vec![6.0, 1.5, 1.0, 1.5]);
        let layers = by_layer(&records, &selfs);
        assert_eq!(layers["harness"], 6.0);
        assert_eq!(layers["minic"], 1.5);
        assert_eq!(layers["analysis"], 2.5);
    }

    #[test]
    fn worker_spans_hang_under_the_enclosing_main_thread_span() {
        let records = vec![
            span("bench/x", 0.0, 10.0, 1),
            span("experiments/prewarm", 0.0, 8.0, 1),
            span("sim/a", 0.0, 6.0, 2),
            span("sim/b", 3.0, 5.0, 3),
        ];
        let selfs = self_times(&records);
        // The two workers together cover the whole prewarm interval.
        assert_eq!(selfs, vec![2.0, 0.0, 6.0, 5.0]);
        assert_eq!(by_layer(&records, &selfs)["sim"], 11.0);
    }

    #[test]
    fn a_worker_span_inside_another_workers_span_is_not_its_child() {
        let records = vec![
            span("bench/x", 0.0, 10.0, 1),
            span("analysis/a", 0.0, 8.0, 2),
            span("minic/compile/b", 1.0, 2.0, 3),
        ];
        let selfs = self_times(&records);
        assert_eq!(selfs, vec![2.0, 8.0, 2.0]);
    }

    #[test]
    fn direct_simulation_tables_count_as_sim() {
        assert_eq!(layer_of("experiments/table/extension-prefetch"), "sim");
        assert_eq!(layer_of("experiments/table/table11"), "experiments");
        assert_eq!(layer_of("compile/181.mcf/O0"), "minic");
        assert_eq!(layer_of("bench/check"), "harness");
    }
}
