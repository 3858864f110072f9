//! `repro-par`: regenerate all 24 tables from a cold [`Pipeline`],
//! exactly as `repro all` does with its default of 2 prewarm workers on
//! a 2-CPU host. One operation is one table; each rendered table must
//! match the committed `EXPERIMENTS.md` byte for byte.

use std::sync::Arc;
use std::time::Instant;

use dl_experiments::pipeline::Pipeline;
use dl_experiments::report::Table;
use dl_experiments::schedule::{
    prewarm_with_stats, table_specs, union_specs, PrewarmReport, RunSpec,
};
use dl_experiments::tables::{all_tables, TableFn};
use dl_obs::Spans;
use dl_sim::CacheConfig;
use dl_testkit::Rng;

use crate::{guarded, shuffle, span, Rep};

/// One regeneration of some tables from a cold pipeline: what
/// `repro` does for the tables it is given.
pub struct Pass {
    /// The pipeline the tables were assembled from.
    pub pipeline: Pipeline,
    /// The prewarm report, `None` if prewarm panicked.
    pub report: Option<PrewarmReport>,
    /// Seconds spent in prewarm.
    pub prewarm_s: f64,
    /// Each table in assembly order: `None` if it panicked, and the
    /// seconds it took to assemble.
    pub tables: Vec<(&'static str, Option<Table>, f64)>,
}

/// Prewarms `specs` on `jobs` workers into a new pipeline, then
/// assembles `tables` in order, each under its own span and guarded so
/// that a panic is a missing table.
pub fn run_tables(
    specs: &[RunSpec],
    tables: &[(&'static str, TableFn)],
    jobs: usize,
    classify: bool,
    spans: Option<&Arc<Spans>>,
) -> Pass {
    let pipeline = Pipeline::new();
    pipeline.set_classify_misses(classify);
    if let Some(s) = spans {
        pipeline.set_trace_spans(Arc::clone(s));
    }
    let start = Instant::now();
    let report = span(spans, "experiments/prewarm", || {
        guarded(|| prewarm_with_stats(&pipeline, specs, jobs))
    });
    let prewarm_s = start.elapsed().as_secs_f64();
    let tables = tables
        .iter()
        .map(|(name, f)| {
            let start = Instant::now();
            let table = span(spans, &format!("experiments/table/{name}"), || {
                guarded(|| f(&pipeline))
            });
            (*name, table, start.elapsed().as_secs_f64())
        })
        .collect();
    Pass {
        pipeline,
        report,
        prewarm_s,
        tables,
    }
}

/// Set-up state of the repro workload.
pub struct Repro {
    jobs: usize,
    expected: Arc<str>,
    /// Tables in assembly order (a seeded permutation: assembly reads
    /// only the warmed memo table, so order changes no output byte).
    order: Vec<(&'static str, TableFn)>,
    /// The prewarm schedule, in `repro all` order.
    specs: Vec<RunSpec>,
}

impl Repro {
    /// Builds the table registry and the prewarm schedule; `expected`
    /// is the committed `EXPERIMENTS.md`.
    #[must_use]
    pub fn setup(expected: Arc<str>, seed: u64, jobs: usize) -> Repro {
        let tables = all_tables();
        let specs = union_specs(tables.iter().map(|(n, _)| *n));
        let mut order = tables;
        shuffle(&mut order, &mut Rng::new(seed));
        Repro {
            jobs,
            expected,
            order,
            specs,
        }
    }

    /// Regenerates every table once.
    pub fn rep(&self, spans: Option<&Arc<Spans>>) -> Rep {
        let mut rep = Rep::default();
        let cpu0 = crate::host::cpu_secs();
        let t0 = Instant::now();
        let pass = run_tables(&self.specs, &self.order, self.jobs, false, spans);
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.cpu_s = crate::host::cpu_secs() - cpu0;

        let pipeline = &pass.pipeline;
        let rendered = &pass.tables;
        span(spans, "bench/check", || {
            self.check(pipeline, rendered, &mut rep);
        });
        crate::pipeline_metrics(pipeline, &mut rep);
        rep.set("experiments.prewarm_s", pass.prewarm_s);
        rep.set(
            "experiments.tail_s",
            rendered.iter().map(|(_, _, secs)| secs).sum(),
        );
        for (name, _, secs) in rendered {
            if crate::metrics::TIMED_TABLES.contains(name) {
                rep.set(&format!("experiments.table.{name}_s"), *secs);
            }
        }
        if let Some(report) = &pass.report {
            let busy: f64 = report.workers.iter().map(|w| w.busy_secs).sum();
            let capacity = report.workers.len() as f64 * report.wall_secs;
            if capacity > 0.0 {
                rep.set("experiments.worker_busy_frac", busy / capacity);
            }
            rep.set("experiments.imbalance", report.imbalance());
        }
        self.tail_regimes(pipeline, rendered, &mut rep);
        accuracy(rendered, &mut rep);
        rep
    }

    /// One operation per table: it must render without a panic and
    /// appear verbatim in `EXPERIMENTS.md`.
    fn check(&self, pipeline: &Pipeline, rendered: &[(&str, Option<Table>, f64)], rep: &mut Rep) {
        for (name, table, _) in rendered {
            rep.attempted += 1;
            match table {
                None => {
                    rep.failed += 1;
                    rep.problems.push(format!("table {name} panicked"));
                }
                Some(t) if !self.expected.contains(&t.to_markdown()) => {
                    rep.failed += 1;
                    rep.problems
                        .push(format!("table {name} differs from EXPERIMENTS.md"));
                }
                Some(_) => {}
            }
        }
        let total = format!("Total distinct simulations: {}\n", pipeline.simulations());
        if !self.expected.contains(&total) {
            rep.problems.push(format!(
                "{} simulations, EXPERIMENTS.md records another count",
                pipeline.simulations()
            ));
        }
    }

    /// Instruction counts of the two table-internal simulation regimes.
    /// `extension-prefetch` re-simulates each of its base runs once per
    /// site policy (one table row each) and `profile-geometries` once
    /// with reuse measurement; neither changes the executed instruction
    /// stream, so each equals its base run's count from the memo table.
    fn tail_regimes(
        &self,
        pipeline: &Pipeline,
        rendered: &[(&str, Option<Table>, f64)],
        rep: &mut Rep,
    ) {
        let timings = pipeline.config_timings();
        let base_insts = |table: &str| -> u64 {
            table_specs(table)
                .iter()
                .filter(|s| s.cache == CacheConfig::paper_baseline() && s.memory.is_default())
                .filter_map(|s| {
                    timings.iter().find(|t| {
                        t.bench == s.bench.name
                            && t.opt == s.opt
                            && t.input_set == s.input_set
                            && t.cache == s.cache
                            && t.memory == s.memory
                    })
                })
                .map(|t| t.instructions)
                .sum()
        };
        let rows = |table: &str| -> Option<u64> {
            rendered
                .iter()
                .find(|(n, _, _)| *n == table)
                .and_then(|(_, t, _)| t.as_ref())
                .map(|t| t.rows.len() as u64)
        };
        if let Some(policies) = rows("extension-prefetch") {
            rep.exact(
                "sim.site_pf.insts",
                policies * base_insts("extension-prefetch"),
            );
        }
        if rows("profile-geometries").is_some() {
            rep.exact("sim.reuse.insts", base_insts("profile-geometries"));
        }
    }
}

/// The four accuracy figures, read from the rendered tables: the
/// heuristic's average π and ρ (Table 11), `ProfilePredictor`'s
/// average ρ at 8 KB (extension-profile) and the static profile's
/// weighted |Δ| against the shadow LRU at 8 KB (profile-geometries).
pub fn accuracy(rendered: &[(&str, Option<Table>, f64)], rep: &mut Rep) {
    let table = |id: &str| {
        rendered
            .iter()
            .find(|(n, _, _)| *n == id)
            .and_then(|(_, t, _)| t.as_ref())
    };
    let row = |id: &str, first: &str| -> Option<Vec<String>> {
        table(id)?.rows.iter().find(|r| r[0] == first).cloned()
    };
    if let Some(r) = row("table11", "AVERAGE") {
        set_pct(rep, "heur_pi_pct", &r[1], 0);
        set_pct(rep, "heur_rho_pct", &r[2], 0);
    }
    if let Some(r) = row("extension-profile", "AVERAGE") {
        // "π / ρ" cell of the profile predictor.
        set_pct(rep, "profile_rho_8k_pct", &r[2], 1);
    }
    if let Some(r) = row("profile-geometries", "8KB/4-way") {
        set_pct(rep, "profile_err_8k_pts", &r[4], 0);
    }
}

/// Parses part `part` of a `a% / b%` cell.
fn set_pct(rep: &mut Rep, name: &str, cell: &str, part: usize) {
    let value = cell
        .split(" / ")
        .nth(part)
        .and_then(|s| s.trim().trim_end_matches('%').parse::<f64>().ok());
    match value {
        Some(v) => rep.set(name, v),
        None => rep.problems.push(format!("{name}: cannot read {cell:?}")),
    }
}
