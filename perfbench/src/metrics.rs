//! The metric registry: every metric the benchmark emits, with its
//! unit and direction. `BENCHMARK.json` declares exactly this list
//! (the `declared` test pins the two together), and a run's output is
//! produced by walking the registry, so a declared metric can never go
//! missing from the output.

/// Whether a smaller or a larger value is the improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, work, errors).
    Lower,
    /// Larger is better (throughput, hit rates, coverage).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The unit of a deterministic work counter. Two runs of one commit
/// must report the same value, and the benchmark fails if they do not.
pub const EXACT: &str = "exact_count";

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, better: Better) -> Self {
        Metric {
            name: name.into(),
            unit,
            better,
        }
    }

    /// Whether this is a deterministic work counter.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.unit == EXACT
    }
}

/// Simulator regimes, named by what forced the simulation onto its
/// path: `fast` (block engine, default memory system or a replacement
/// policy only), `l2` (an L2 behind L1), `stride_pf` (the stride
/// prefetcher), `site_pf` (per-site next-line prefetch), `reuse`
/// (shadow-LRU reuse measurement) and `classify` (miss
/// classification).
pub const REGIMES: [&str; 6] = ["fast", "l2", "stride_pf", "site_pf", "reuse", "classify"];

/// The nine analysis passes, in the pass manager's dependency order.
pub const PASSES: [&str; 9] = [
    "cfg",
    "dom",
    "reaching",
    "patterns",
    "loops",
    "indvar",
    "freq",
    "callgraph",
    "profile",
];

/// The tables whose assembly time is reported on its own: the two
/// that simulate outside the memo table, and the slowest pure-table
/// one.
pub const TIMED_TABLES: [&str; 3] = [
    "extension-prefetch",
    "profile-geometries",
    "ablation-patterns",
];

/// The static predictors timed on their own. Each metric is the self
/// time of the spans under the path its name spells (`core.heuristic.s`
/// sums `core/heuristic/<program>`).
pub const PREDICTORS: [&str; 5] = [
    "core.heuristic.s",
    "baselines.okn.s",
    "baselines.bdh.s",
    "baselines.reuse.s",
    "baselines.profile.s",
];

/// The layers traced-run self time is attributed to. `harness` is the
/// benchmark's own work (output checks) inside a repetition.
pub const LAYERS: [&str; 8] = [
    "minic",
    "analysis",
    "sim",
    "core",
    "baselines",
    "experiments",
    "obs",
    "harness",
];

/// End-to-end metrics, reported with `--trace 0`.
#[must_use]
pub fn end_to_end() -> Vec<Metric> {
    use Better::Lower;
    vec![
        Metric::new("wall_s", "s", Lower),
        Metric::new("setup_s", "s", Lower),
        Metric::new("cpu_s", "s", Lower),
        Metric::new("peak_rss_mb", "MB", Lower),
    ]
}

/// Per-layer metrics, reported with `--trace 1`.
#[must_use]
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    for regime in REGIMES {
        v.push(Metric::new(format!("sim.{regime}.s"), "s", Lower));
        v.push(Metric::new(format!("sim.{regime}.insts"), EXACT, Lower));
        v.push(Metric::new(
            format!("sim.{regime}.minsts_per_s"),
            "Minsts/s",
            Higher,
        ));
    }
    v.push(Metric::new("sim.dispatches", EXACT, Lower));
    v.push(Metric::new("sim.blocks_decoded", EXACT, Lower));
    v.push(Metric::new("sim.insts_decoded", "count", Lower));
    v.push(Metric::new("sim.dispatch_hit_rate", "frac", Higher));

    v.push(Metric::new("minic.compile_s", "s", Lower));
    v.push(Metric::new("minic.compiles", "count", Lower));
    v.push(Metric::new("minic.static_insts", EXACT, Lower));

    for pass in PASSES {
        v.push(Metric::new(format!("analysis.{pass}.s"), "s", Lower));
    }
    v.push(Metric::new("analysis.pass_hits", "count", Higher));
    v.push(Metric::new("analysis.pass_misses", EXACT, Lower));

    for name in PREDICTORS {
        v.push(Metric::new(name, "s", Lower));
    }

    v.push(Metric::new("experiments.prewarm_s", "s", Lower));
    v.push(Metric::new("experiments.tail_s", "s", Lower));
    for table in TIMED_TABLES {
        v.push(Metric::new(
            format!("experiments.table.{table}_s"),
            "s",
            Lower,
        ));
    }
    v.push(Metric::new("experiments.simulations", EXACT, Lower));
    v.push(Metric::new("experiments.memo_hits", "count", Higher));
    v.push(Metric::new("experiments.memo_misses", EXACT, Lower));
    v.push(Metric::new("experiments.memo_waits", "count", Lower));
    v.push(Metric::new("experiments.worker_busy_frac", "frac", Higher));
    v.push(Metric::new("experiments.imbalance", "ratio", Lower));

    v.push(Metric::new("obs.manifest_s", "s", Lower));
    v.push(Metric::new("obs.overhead_x", "ratio", Lower));

    v.push(Metric::new("fail_frac", "frac", Lower));
    v.push(Metric::new("heur_rho_pct", "%", Higher));
    v.push(Metric::new("heur_pi_pct", "%", Lower));
    v.push(Metric::new("profile_rho_8k_pct", "%", Higher));
    v.push(Metric::new("profile_err_8k_pts", "pts", Lower));

    for layer in LAYERS {
        v.push(Metric::new(format!("layer.{layer}.self_s"), "s", Lower));
    }
    v.push(Metric::new("trace.overhead_s", "s", Lower));
    v
}

/// Whether `name` is a well-formed metric name: `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
