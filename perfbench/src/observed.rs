//! `observed`: regenerate `table11` and `table12` with the run
//! manifest on — miss classification on every one of their 18
//! simulations, then the manifest assembled and rendered. Prewarm runs
//! on 1 worker, not the CLI default of 2, so that the workload's wall
//! time is the classification path's own and not also the prewarm
//! schedule's balance, which `repro-par` measures. One operation is
//! one simulated configuration.
//!
//! The first repetition first runs the same tables once with the
//! manifest off (untimed, outside the traced span): its instruction
//! counts are the reference for the check and its wall time the
//! denominator of `obs.overhead_x`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dl_experiments::obs::{run_manifest, RunInfo};
use dl_experiments::schedule::{union_specs, RunSpec};
use dl_experiments::tables::{all_tables, TableFn};
use dl_obs::Spans;
use dl_testkit::Rng;

use crate::repro::{run_tables, Pass};
use crate::{guarded, shuffle, span, Rep};

/// The tables this workload regenerates.
pub const TABLES: [&str; 2] = ["table11", "table12"];

/// Prewarm workers.
const JOBS: usize = 1;

/// Set-up state of the observed workload.
pub struct Observed {
    expected: Arc<str>,
    /// The two tables, in a seeded assembly order (assembly reads only
    /// the warmed memo table, so order changes no output byte).
    tables: Vec<(&'static str, TableFn)>,
    /// The 18 configurations, in `repro`'s prewarm order.
    specs: Vec<RunSpec>,
    /// The manifest-off pass, made by the first repetition.
    reference: Option<Reference>,
}

/// What the manifest-off pass measured.
struct Reference {
    /// Instructions per configuration label.
    insts: BTreeMap<String, u64>,
    wall_s: f64,
}

impl Observed {
    /// Builds the schedule; `expected` is the committed
    /// `EXPERIMENTS.md`.
    #[must_use]
    pub fn setup(expected: Arc<str>, seed: u64) -> Observed {
        let mut tables: Vec<_> = all_tables()
            .into_iter()
            .filter(|(n, _)| TABLES.contains(n))
            .collect();
        shuffle(&mut tables, &mut Rng::new(seed));
        let specs = union_specs(TABLES);
        Observed {
            expected,
            tables,
            specs,
            reference: None,
        }
    }

    /// Runs the manifest-off pass and checks its tables.
    fn reference(&self, rep: &mut Rep) -> Reference {
        let start = Instant::now();
        let plain = run_tables(&self.specs, &self.tables, JOBS, false, None);
        let wall_s = start.elapsed().as_secs_f64();
        self.check_tables(&plain, rep);
        Reference {
            insts: plain
                .pipeline
                .config_timings()
                .iter()
                .map(|t| (t.label(), t.instructions))
                .collect(),
            wall_s,
        }
    }

    /// Runs the observed pass (after the reference pass, the first
    /// time).
    pub fn rep(&mut self, spans: Option<&Arc<Spans>>) -> Rep {
        let mut rep = Rep::default();
        if self.reference.is_none() {
            self.reference = Some(self.reference(&mut rep));
        }
        let cpu0 = crate::host::cpu_secs();
        let t0 = Instant::now();
        let observed = run_tables(&self.specs, &self.tables, JOBS, true, spans);
        let manifest_start = Instant::now();
        let local = Spans::default();
        let manifest = span(spans, "obs/manifest", || {
            guarded(|| {
                let info = RunInfo {
                    command: "repro".into(),
                    jobs: JOBS,
                    smoke: false,
                    tables: TABLES.iter().map(|t| (*t).to_owned()).collect(),
                };
                let stage_spans = spans.map_or(&local, |s| s.as_ref());
                run_manifest(
                    &info,
                    &observed.pipeline,
                    observed.report.as_ref(),
                    stage_spans,
                )
                .render()
            })
        });
        let manifest_s = manifest_start.elapsed().as_secs_f64();
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.cpu_s = crate::host::cpu_secs() - cpu0;

        span(spans, "bench/check", || {
            self.check(&observed, manifest.is_some(), &mut rep);
        });
        crate::pipeline_metrics(&observed.pipeline, &mut rep);
        rep.set("experiments.prewarm_s", observed.prewarm_s);
        rep.set(
            "experiments.tail_s",
            observed.tables.iter().map(|(_, _, s)| s).sum(),
        );
        rep.set("obs.manifest_s", manifest_s);
        if let Some(reference) = self.reference.as_ref().filter(|r| r.wall_s > 0.0) {
            rep.set("obs.overhead_x", rep.wall_s / reference.wall_s);
        }
        crate::repro::accuracy(&observed.tables, &mut rep);
        rep
    }

    /// One operation per configuration: miss classes must sum to
    /// misses (in total and per load), and the instruction count must
    /// equal the manifest-off pass's. The tables must match
    /// `EXPERIMENTS.md`.
    fn check(&self, observed: &Pass, manifest_ok: bool, rep: &mut Rep) {
        let plain_insts = &self.reference.as_ref().expect("reference pass").insts;
        let runs = observed.pipeline.ready_runs();
        for timing in observed.pipeline.config_timings() {
            rep.attempted += 1;
            let label = timing.label();
            let mut ok = plain_insts.get(&label) == Some(&timing.instructions);
            if !ok {
                rep.problems.push(format!(
                    "{label}: instruction count differs with the manifest on"
                ));
            }
            let run = runs
                .iter()
                .find(|r| r.name == timing.bench && r.result.instructions == timing.instructions);
            let classes_ok = run.is_some_and(|r| {
                let res = &r.result;
                let total_ok = res
                    .cache_profile
                    .as_ref()
                    .is_some_and(|p| p.classes.total() == res.dcache_misses);
                let per_load_ok = res.load_miss_classes.as_ref().is_some_and(|per| {
                    per.len() == res.load_misses.len()
                        && per
                            .iter()
                            .zip(&res.load_misses)
                            .all(|(c, &m)| c.iter().sum::<u64>() == m)
                });
                total_ok && per_load_ok
            });
            if !classes_ok {
                rep.problems
                    .push(format!("{label}: miss classes do not sum to misses"));
            }
            ok &= classes_ok;
            if !ok {
                rep.failed += 1;
            }
        }
        if observed.pipeline.config_timings().len() != self.specs.len() {
            rep.problems.push(format!(
                "{} configurations simulated, {} scheduled",
                observed.pipeline.config_timings().len(),
                self.specs.len()
            ));
        }
        self.check_tables(observed, rep);
        if !manifest_ok {
            rep.problems.push("manifest assembly panicked".into());
        }
    }

    /// A pass's tables must match `EXPERIMENTS.md`.
    fn check_tables(&self, pass: &Pass, rep: &mut Rep) {
        for (name, table, _) in &pass.tables {
            if !table
                .as_ref()
                .is_some_and(|t| self.expected.contains(&t.to_markdown()))
            {
                rep.problems.push(format!(
                    "table {name} missing or differs from EXPERIMENTS.md"
                ));
            }
        }
    }
}
