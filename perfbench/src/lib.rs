//! Workload-mix benchmark for the delinquent-loads reproduction.
//!
//! One process runs one named workload for a time budget: it sets the
//! workload up several times (reporting the median as `setup_s`), then
//! repeats it, timing every call into the repository's crates from the
//! outside. With tracing on it also repeats the workload under
//! `dl-obs` spans and reports each layer's self time. See
//! `perfbench/README.md` for the workloads and metrics.

#![warn(missing_docs)]

pub mod host;
pub mod layers;
pub mod metrics;
pub mod observed;
pub mod report;
pub mod repro;
pub mod static_mix;
pub mod stats;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dl_experiments::pipeline::Pipeline;
use dl_obs::{SpanRecord, Spans};
use dl_testkit::Rng;

use crate::metrics::{Metric, LAYERS, PASSES, PREDICTORS, REGIMES};

/// Set-up repetitions before the first timed operation; one more runs
/// before every untraced repetition, and `setup_s` is the median of
/// all of them. Set-up is the program work done before the first
/// operation: the table registry and prewarm schedule
/// (`all_tables`, `union_specs`) on the repro workloads, drawing and
/// parsing the generated programs on `static`.
pub const SETUP_REPEATS: usize = 9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 24 tables from a cold pipeline, two prewarm workers.
    ReproPar,
    /// `table11` and `table12` with the run manifest on.
    Observed,
    /// Compile and statically analyze, no simulation.
    Static,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ReproPar, Workload::Observed, Workload::Static];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproPar => "repro-par",
            Workload::Observed => "observed",
            Workload::Static => "static",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload computes on.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Workload::ReproPar => 2,
            Workload::Observed => 1,
            Workload::Static => static_mix::THREADS,
        }
    }

    /// Whether the workload's deterministic counters depend on the
    /// seed (only `static` draws programs from it; the others only
    /// reorder work).
    #[must_use]
    pub fn seeded_counters(self) -> bool {
        self == Workload::Static
    }
}

/// What one repetition measured.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Wall seconds of the timed work (checks excluded).
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or produced a wrong output.
    pub failed: u64,
    /// Deterministic work counters.
    pub exact: BTreeMap<String, u64>,
    /// Every other per-layer value.
    pub values: BTreeMap<String, f64>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Rep {
    /// Records a per-layer value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Records a deterministic counter.
    pub fn exact(&mut self, name: &str, value: u64) {
        self.exact.insert(name.to_owned(), value);
    }

    /// A value recorded under `name` either way, or 0.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .copied()
            .or_else(|| self.exact.get(name).map(|&v| v as f64))
            .unwrap_or(0.0)
    }
}

/// Runs `f` inside a span at `path` when tracing.
pub fn span<T>(spans: Option<&Arc<Spans>>, path: &str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(path, f),
        None => f(),
    }
}

/// Runs `f`, turning a panic into `None`: a panic or trap in the
/// program is a failed operation, not a crash of the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Fisher–Yates shuffle driven by the in-tree PRNG.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// The committed `EXPERIMENTS.md` at `root`.
///
/// # Errors
///
/// Fails when the file cannot be read.
pub fn read_experiments(root: &Path) -> Result<String, String> {
    let path = root.join("EXPERIMENTS.md");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The simulator regime a memo-table configuration ran under.
fn regime(memory: &dl_sim::MemoryConfig, classify: bool) -> &'static str {
    if classify {
        "classify"
    } else if memory.prefetch.is_some() {
        "stride_pf"
    } else if memory.l2.is_some() {
        "l2"
    } else {
        "fast"
    }
}

/// Counters and per-regime simulation time the pipeline reports about
/// itself (memo table, block cache, pass manager, configuration
/// timings).
pub fn pipeline_metrics(pipeline: &Pipeline, rep: &mut Rep) {
    let stats = pipeline.stats();
    let classify = pipeline
        .ready_runs()
        .iter()
        .any(|r| r.result.cache_profile.is_some());
    let mut secs: BTreeMap<&str, f64> = BTreeMap::new();
    let mut insts: BTreeMap<&str, u64> = BTreeMap::new();
    for t in pipeline.config_timings() {
        let r = regime(&t.memory, classify);
        *secs.entry(r).or_default() += t.sim_secs;
        *insts.entry(r).or_default() += t.instructions;
    }
    for r in ["fast", "l2", "stride_pf", "classify"] {
        rep.set(&format!("sim.{r}.s"), secs.get(r).copied().unwrap_or(0.0));
        rep.exact(
            &format!("sim.{r}.insts"),
            insts.get(r).copied().unwrap_or(0),
        );
    }
    rep.exact("sim.dispatches", stats.block.dispatches);
    rep.exact("sim.blocks_decoded", stats.block.blocks_decoded);
    rep.set("sim.insts_decoded", stats.block.insts_decoded as f64);
    if stats.block.dispatches > 0 {
        rep.set(
            "sim.dispatch_hit_rate",
            stats.block.dispatch_hits as f64 / stats.block.dispatches as f64,
        );
    }
    rep.exact("experiments.simulations", pipeline.simulations() as u64);
    rep.set("experiments.memo_hits", stats.hits as f64);
    rep.exact("experiments.memo_misses", stats.misses);
    rep.set("experiments.memo_waits", stats.waits as f64);
    rep.set("minic.compiles", stats.compile_misses as f64);
    let analysis = pipeline.analysis_stats();
    rep.set("analysis.pass_hits", analysis.hits() as f64);
    rep.exact("analysis.pass_misses", analysis.misses());
    // One program per (bench, opt): O0 and O1 builds of one benchmark
    // never share a length, so (name, length) identifies a build.
    let mut programs = BTreeMap::new();
    for run in pipeline.ready_runs() {
        programs.insert(
            (run.name.clone(), run.program().insts.len()),
            run.program().insts.len() as u64,
        );
    }
    rep.exact("minic.static_insts", programs.values().sum());
}

/// Per-layer times read from a traced repetition's spans.
fn span_metrics(records: &[SpanRecord], rep: &mut Rep) {
    let selfs = layers::self_times(records);
    let by_layer = layers::by_layer(records, &selfs);
    for layer in LAYERS {
        rep.set(
            &format!("layer.{layer}.self_s"),
            by_layer.get(layer).copied().unwrap_or(0.0),
        );
    }
    let sum = |pick: &dyn Fn(&str) -> bool| layers::sum_where(records, &selfs, pick);
    rep.set("minic.compile_s", sum(&|p| layers::layer_of(p) == "minic"));
    for pass in PASSES {
        let suffix = format!("/{pass}");
        rep.set(
            &format!("analysis.{pass}.s"),
            sum(&|p| p.starts_with("analysis/") && p.ends_with(&suffix)),
        );
    }
    for name in PREDICTORS {
        let prefix = format!("{}/", name.trim_end_matches(".s").replace('.', "/"));
        rep.set(name, sum(&|p| p.starts_with(&prefix)));
    }
    rep.set(
        "sim.site_pf.s",
        sum(&|p| p == "experiments/table/extension-prefetch"),
    );
    rep.set(
        "sim.reuse.s",
        sum(&|p| p == "experiments/table/profile-geometries"),
    );
}

/// Fills each regime's throughput from its instructions and seconds.
fn throughput(rep: &mut Rep) {
    for r in REGIMES {
        let secs = rep.get(&format!("sim.{r}.s"));
        let insts = rep.get(&format!("sim.{r}.insts"));
        let mips = if secs > 0.0 { insts / secs / 1e6 } else { 0.0 };
        rep.set(&format!("sim.{r}.minsts_per_s"), mips);
    }
}

/// A set-up workload.
enum State {
    Repro(repro::Repro),
    Observed(observed::Observed),
    Static(static_mix::StaticMix),
}

impl State {
    fn setup(workload: Workload, expected: &Arc<str>, seed: u64) -> State {
        match workload {
            Workload::ReproPar => State::Repro(repro::Repro::setup(
                Arc::clone(expected),
                seed,
                workload.threads(),
            )),
            Workload::Observed => {
                State::Observed(observed::Observed::setup(Arc::clone(expected), seed))
            }
            Workload::Static => State::Static(static_mix::StaticMix::setup(seed)),
        }
    }

    fn rep(&mut self, spans: Option<&Arc<Spans>>) -> Rep {
        match self {
            State::Repro(r) => r.rep(spans),
            State::Observed(o) => o.rep(spans),
            State::Static(s) => s.rep(spans),
        }
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether to add traced repetitions and report per-layer metrics.
    pub trace: bool,
    /// Repository root (holds `EXPERIMENTS.md`).
    pub root: PathBuf,
}

/// Everything a run measured, before formatting.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The options the run used.
    pub options: Options,
    /// Set-up seconds of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Untraced repetitions.
    pub reps: Vec<Rep>,
    /// Traced repetitions (empty without `--trace 1`).
    pub traced: Vec<Rep>,
    /// Chrome trace of the first traced repetition.
    pub chrome_trace: Option<String>,
    /// Peak resident set after set-up and the first repetition (on
    /// `static`, all untraced repetitions), MB.
    pub peak_rss_mb: f64,
}

/// Whether another repetition fits in the budget, judging by the
/// median repetition so far. At least one always runs.
fn room(start: Instant, budget: f64, durations: &[f64]) -> bool {
    start.elapsed().as_secs_f64() + stats::median(durations) <= budget
}

/// Sets the workload up, then repeats it within the time budget.
///
/// # Errors
///
/// Fails when `EXPERIMENTS.md`, the reference for the output checks,
/// cannot be read.
pub fn run(options: &Options) -> Result<Outcome, String> {
    // The committed tables are the benchmark's reference for the output
    // checks, not part of the program's set-up, so they are read once
    // and untimed.
    let expected: Arc<str> = read_experiments(&options.root)?.into();
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        state = Some(State::setup(options.workload, &expected, options.seed));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("SETUP_REPEATS > 0");

    let start = Instant::now();
    let untraced_budget = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let mut reps = Vec::new();
    let mut durations = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        // One more set-up per repetition, so the set-up samples span
        // the run as the repetitions do.
        let t = Instant::now();
        drop(State::setup(options.workload, &expected, options.seed));
        setup_secs.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut rep = state.rep(None);
        throughput(&mut rep);
        reps.push(rep);
        durations.push(t.elapsed().as_secs_f64());
        if reps.len() == 1 {
            // A later repetition's fresh pipeline can land the heap
            // higher, so the peak is read once, for one cold job.
            peak_rss_mb = host::peak_rss_mb();
        }
        if !room(start, untraced_budget, &durations) {
            break;
        }
    }
    if options.workload == Workload::Static {
        // One round's peak depends on how its two workers happened to
        // split the programs; over all rounds it settles.
        peak_rss_mb = host::peak_rss_mb();
    }

    let mut traced = Vec::new();
    let mut chrome_trace = None;
    if options.trace {
        let traced_start = Instant::now();
        let mut durations = Vec::new();
        loop {
            let t = Instant::now();
            let spans = Arc::new(Spans::default());
            let root = format!("bench/{}", options.workload.name());
            let mut rep = spans.time(&root, || state.rep(Some(&spans)));
            let records = spans.records();
            span_metrics(&records, &mut rep);
            throughput(&mut rep);
            if chrome_trace.is_none() {
                chrome_trace = Some(dl_obs::chrome_trace(&spans).render());
            }
            traced.push(rep);
            durations.push(t.elapsed().as_secs_f64());
            let left = options.seconds - traced_start.duration_since(start).as_secs_f64();
            if !room(traced_start, left, &durations) {
                break;
            }
        }
    }
    Ok(Outcome {
        options: options.clone(),
        setup_secs,
        reps,
        traced,
        chrome_trace,
        peak_rss_mb,
    })
}

impl Outcome {
    /// Every repetition, untraced then traced.
    pub fn all_reps(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().chain(&self.traced)
    }

    /// Operations attempted over the whole run.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.all_reps().map(|r| r.attempted).sum()
    }

    /// Operations failed over the whole run.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.all_reps().map(|r| r.failed).sum()
    }

    /// Failed over attempted operations.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Whether the run's outputs are correct: no operation failed and
    /// no check in `problems` did.
    #[must_use]
    pub fn correct(&self, problems: &[String]) -> bool {
        problems.is_empty() && self.failed() == 0
    }

    /// Check failures over the whole run, plus any exact counter that
    /// differs between two repetitions.
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let mut problems: Vec<String> = self
            .all_reps()
            .flat_map(|r| r.problems.iter().cloned())
            .collect();
        if let Some(first) = self.reps.first() {
            for rep in self.all_reps().skip(1) {
                if rep.exact != first.exact {
                    problems.push(format!(
                        "exact counters differ between repetitions: {:?} vs {:?}",
                        first.exact, rep.exact
                    ));
                    break;
                }
            }
        }
        problems.sort();
        problems.dedup();
        problems
    }

    /// The run's deterministic counters (from its first repetition).
    #[must_use]
    pub fn exact(&self) -> BTreeMap<String, u64> {
        self.reps
            .first()
            .map(|r| r.exact.clone())
            .unwrap_or_default()
    }

    /// Summary of one end-to-end timing over the untraced repetitions.
    #[must_use]
    pub fn timing(&self, pick: impl Fn(&Rep) -> f64) -> stats::Summary {
        let values: Vec<f64> = self.reps.iter().map(pick).collect();
        stats::summarize(&values).expect("at least one repetition")
    }

    /// Every end-to-end metric: value and, for timings, its summary.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<(Metric, f64, Option<stats::Summary>)> {
        metrics::end_to_end()
            .into_iter()
            .map(|m| {
                let summary = match m.name.as_str() {
                    "wall_s" => Some(self.timing(|r| r.wall_s)),
                    "cpu_s" => Some(self.timing(|r| r.cpu_s)),
                    "setup_s" => stats::summarize(&self.setup_secs),
                    _ => None,
                };
                let value = match m.name.as_str() {
                    "peak_rss_mb" => self.peak_rss_mb,
                    _ => summary.map_or(0.0, |s| s.median),
                };
                (m, value, summary)
            })
            .collect()
    }

    /// Every per-layer metric: exact counters from the run, timings as
    /// the median over traced repetitions, the failure fraction over
    /// the whole run, and the tracing overhead as the difference of the
    /// traced and untraced median walls.
    #[must_use]
    pub fn per_layer(&self) -> Vec<(Metric, f64)> {
        let exact = self.exact();
        let sample = if self.traced.is_empty() {
            &self.reps
        } else {
            &self.traced
        };
        metrics::per_layer()
            .into_iter()
            .map(|m| {
                let value = match m.name.as_str() {
                    "fail_frac" => self.fail_frac(),
                    "trace.overhead_s" if !self.traced.is_empty() => {
                        let traced: Vec<f64> = self.traced.iter().map(|r| r.wall_s).collect();
                        stats::median(&traced) - self.timing(|r| r.wall_s).median
                    }
                    name if m.is_exact() => exact.get(name).map_or(0.0, |&v| v as f64),
                    name => {
                        let values: Vec<f64> = sample.iter().map(|r| r.get(name)).collect();
                        stats::median(&values)
                    }
                };
                (m, value)
            })
            .collect()
    }
}
