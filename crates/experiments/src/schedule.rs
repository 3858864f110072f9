//! Work scheduling for the experiment pipeline: enumerate the
//! simulation configurations a set of tables needs, then pre-warm the
//! [`Pipeline`] memo table by fanning those configurations across a
//! scoped worker pool.
//!
//! Table *assembly* stays sequential and deterministic — the workers
//! only populate the memo table, so the rendered output is
//! byte-identical to a fully sequential run regardless of the worker
//! count or completion order. In-flight deduplication inside
//! [`Pipeline::run`] guarantees that overlapping specs (most tables
//! share configurations) still simulate exactly once.
//!
//! The few simulations a table runs outside the memo table (prefetch
//! and reuse-measurement variants of a memoized run) fan out on the
//! prewarm's worker count through the same worker pool, which returns
//! results in input order, so assembly consumes them exactly as a
//! sequential loop would.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dl_minic::OptLevel;
use dl_sim::{CacheConfig, MemoryConfig};
use dl_workloads::Benchmark;

use crate::pipeline::Pipeline;

/// One simulation configuration a table needs: the full memo key.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload to compile and simulate.
    pub bench: Benchmark,
    /// Optimization level.
    pub opt: OptLevel,
    /// Input set (1 or 2).
    pub input_set: u8,
    /// Cache geometry.
    pub cache: CacheConfig,
    /// Memory system (replacement policy / L2 / prefetcher). The
    /// default — LRU, L1-only, no prefetch — for every paper table;
    /// only the memmatrix sweep varies it.
    pub memory: MemoryConfig,
}

impl RunSpec {
    fn key(&self) -> (&'static str, OptLevel, u8, CacheConfig, MemoryConfig) {
        (
            self.bench.name,
            self.opt,
            self.input_set,
            self.cache,
            self.memory,
        )
    }
}

fn specs(
    benches: Vec<Benchmark>,
    opt: OptLevel,
    input_set: u8,
    cache: CacheConfig,
) -> Vec<RunSpec> {
    benches
        .into_iter()
        .map(|bench| RunSpec {
            bench,
            opt,
            input_set,
            cache,
            memory: MemoryConfig::default(),
        })
        .collect()
}

/// The simulation configurations one named table consumes through the
/// pipeline. Unknown names (and `table6`, which simulates nothing)
/// yield an empty list — prewarming simply does nothing for them.
///
/// This mirrors the `p.run(...)` calls in [`crate::tables`]; the
/// `specs_cover_every_table` test pins the two in sync.
#[must_use]
pub fn table_specs(table: &str) -> Vec<RunSpec> {
    let o0 = OptLevel::O0;
    let o1 = OptLevel::O1;
    let training = CacheConfig::paper_training();
    let baseline = CacheConfig::paper_baseline();
    match table {
        "table1" | "table2" | "table14" | "ablation-profile-fidelity" => {
            specs(dl_workloads::all(), o0, 1, training)
        }
        "table3" | "table4" | "table5" => specs(dl_workloads::training_set(), o0, 1, baseline),
        "table7" => {
            let mut v = specs(dl_workloads::training_set(), o0, 1, training);
            v.extend(specs(dl_workloads::training_set(), o0, 2, training));
            v
        }
        "table8" => [2u32, 4, 8]
            .into_iter()
            .flat_map(|assoc| {
                specs(
                    dl_workloads::training_set(),
                    o1,
                    1,
                    CacheConfig::kb(8, assoc),
                )
            })
            .collect(),
        "table9" => [8u32, 16, 32, 64]
            .into_iter()
            .flat_map(|kb| specs(dl_workloads::training_set(), o1, 1, CacheConfig::kb(kb, 4)))
            .collect(),
        "table10" => specs(dl_workloads::test_set(), o0, 1, training),
        "table11"
        | "table12"
        | "ablation-classes"
        | "ablation-patterns"
        | "extension-static-frequency"
        | "extension-reuse"
        | "extension-profile"
        | "ablation-delta-tuning" => specs(dl_workloads::all(), o0, 1, baseline),
        "table13" => specs(dl_workloads::training_set(), o1, 1, CacheConfig::kb(16, 4)),
        "extension-prefetch" => {
            let benches = ["181.mcf", "183.equake", "179.art", "164.gzip"]
                .into_iter()
                .map(|n| dl_workloads::by_name(n).expect("known benchmark"))
                .collect();
            specs(benches, o0, 1, baseline)
        }
        "extension-memmatrix" => {
            let benches: Vec<_> = crate::tables::memmatrix_benches()
                .into_iter()
                .map(|n| dl_workloads::by_name(n).expect("known benchmark"))
                .collect();
            crate::tables::memmatrix_configs()
                .into_iter()
                .flat_map(|memory| {
                    benches.iter().cloned().map(move |bench| RunSpec {
                        bench,
                        opt: o0,
                        input_set: 1,
                        cache: baseline,
                        memory,
                    })
                })
                .collect()
        }
        "profile-geometries" => {
            let benches: Vec<_> = ["181.mcf", "183.equake", "179.art", "164.gzip"]
                .into_iter()
                .map(|n| dl_workloads::by_name(n).expect("known benchmark"))
                .collect();
            let mut v = specs(benches.clone(), o0, 1, baseline);
            for kb in [8u32, 16, 64] {
                for assoc in [2u32, 4, 8] {
                    v.extend(specs(benches.clone(), o0, 1, CacheConfig::kb(kb, assoc)));
                }
            }
            v
        }
        _ => Vec::new(),
    }
}

/// A multiply-rotate hasher for the schedule's own memo keys: they come
/// from the table registry, never from outside the program, so
/// SipHash's collision resistance buys nothing, and it was half the
/// cost of [`union_specs`].
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The deduplicated union of configurations needed by `tables`, in
/// first-seen order.
#[must_use]
pub fn union_specs<'a>(tables: impl IntoIterator<Item = &'a str>) -> Vec<RunSpec> {
    let mut seen: std::collections::HashSet<_, std::hash::BuildHasherDefault<KeyHasher>> =
        std::collections::HashSet::default();
    let mut union = Vec::new();
    for table in tables {
        for spec in table_specs(table) {
            if seen.insert(spec.key()) {
                union.push(spec);
            }
        }
    }
    union
}

/// The default worker count: available hardware parallelism, or 1 if
/// it cannot be determined.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Utilisation of one prewarm worker thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStat {
    /// Worker index (0-based).
    pub worker: usize,
    /// Specs this worker processed.
    pub specs: u64,
    /// Seconds this worker spent inside [`Pipeline::run`] (simulating,
    /// or blocked on another worker's in-flight computation).
    pub busy_secs: f64,
}

/// What one [`prewarm_with_stats`] call did: how many specs ran and
/// how evenly the work spread across workers.
#[derive(Debug, Clone, Default)]
pub struct PrewarmReport {
    /// Total specs processed (= the input length).
    pub processed: usize,
    /// Per-worker utilisation, indexed by worker id.
    pub workers: Vec<WorkerStat>,
    /// Wall-clock seconds for the whole prewarm.
    pub wall_secs: f64,
}

impl PrewarmReport {
    /// Ratio of the busiest worker's spec count to the mean — 1.0 is
    /// perfectly balanced; large values mean one worker dragged the
    /// tail. Returns 0 for an empty report.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        if self.workers.is_empty() || self.processed == 0 {
            return 0.0;
        }
        let max = self.workers.iter().map(|w| w.specs).max().unwrap_or(0) as f64;
        let mean = self.processed as f64 / self.workers.len() as f64;
        max / mean
    }
}

/// Runs every spec through the pipeline across `jobs` worker threads,
/// populating the memo table. Returns the number of specs processed.
///
/// Workers claim specs from a shared atomic index, so long-running
/// simulations do not stall the queue behind them. With `jobs <= 1`
/// the specs run on the calling thread in order — exactly the
/// sequential behaviour. The worker count is recorded on the pipeline,
/// where table assembly finds it for its own side simulations.
///
/// # Panics
///
/// Propagates a panic from any worker (a benchmark failing to compile
/// or trapping — the same conditions that panic [`Pipeline::run`]).
pub fn prewarm(pipeline: &Pipeline, specs: &[RunSpec], jobs: usize) -> usize {
    prewarm_with_stats(pipeline, specs, jobs).processed
}

/// Like [`prewarm`], additionally reporting per-worker utilisation —
/// the raw material for the pipeline's `--profile` report and
/// `RUN_MANIFEST.json`.
///
/// # Panics
///
/// Propagates a panic from any worker, exactly like [`prewarm`].
pub fn prewarm_with_stats(pipeline: &Pipeline, specs: &[RunSpec], jobs: usize) -> PrewarmReport {
    let wall = Instant::now();
    pipeline.set_jobs(jobs);
    let busy = par_map(specs, jobs, |worker, spec| {
        let start = Instant::now();
        let _ = pipeline.run_mem(
            &spec.bench,
            spec.opt,
            spec.input_set,
            spec.cache,
            spec.memory,
        );
        (worker, start.elapsed().as_secs_f64())
    });
    let mut workers: Vec<WorkerStat> = (0..threads(specs.len(), jobs))
        .map(|worker| WorkerStat {
            worker,
            ..WorkerStat::default()
        })
        .collect();
    for (worker, secs) in busy {
        workers[worker].specs += 1;
        workers[worker].busy_secs += secs;
    }
    PrewarmReport {
        processed: specs.len(),
        workers,
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

/// Worker threads [`par_map`] runs `items` on: one (the calling
/// thread) for at most one item or job, else `jobs` capped at `items`.
fn threads(items: usize, jobs: usize) -> usize {
    if jobs <= 1 || items <= 1 {
        1
    } else {
        jobs.min(items)
    }
}

/// Applies `f` to every item on [`threads`] scoped worker threads and
/// returns the results in input order. Workers claim items from a
/// shared atomic index, so a long item does not stall the queue behind
/// it; `f` also receives the index of the worker that runs it. A
/// single worker is the calling thread, taking the items in order.
///
/// # Panics
///
/// Propagates a panic from any call of `f`.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = threads(items.len(), jobs);
    if workers == 1 {
        return items.iter().map(|item| f(0, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break done;
                        };
                        done.push((i, f(worker, item)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::all_tables;

    /// Prewarming a table's specs then generating it must add zero new
    /// simulations — i.e. the spec registry covers everything each
    /// table asks the pipeline for.
    ///
    /// Runs on shrunk inputs to keep it fast: the spec registry only
    /// depends on names/opt/input/cache, not input values.
    #[test]
    fn specs_cover_every_table() {
        for (name, f) in all_tables() {
            let pipeline = Pipeline::new();
            let mut specs = table_specs(name);
            for spec in &mut specs {
                shrink(&mut spec.bench);
            }
            prewarm(&pipeline, &specs, 1);
            let warmed = pipeline.simulations();
            // The memo key is (name, opt, input-set, cache) — not the
            // input *values* — so the generator hits the shrunk
            // prewarmed entries and must simulate nothing new.
            let _ = f(&pipeline);
            assert_eq!(
                pipeline.simulations(),
                warmed,
                "{name} simulated configurations its spec registry misses"
            );
        }
    }

    /// `table_specs` keys must be unique per table after union-ing.
    #[test]
    fn union_deduplicates_shared_configs() {
        let union = union_specs(["table1", "table2", "table14"]);
        // All three tables need exactly the same configurations.
        assert_eq!(union.len(), table_specs("table1").len());
        let keys: std::collections::HashSet<_> = union.iter().map(RunSpec::key).collect();
        assert_eq!(keys.len(), union.len());
    }

    #[test]
    fn parallel_prewarm_matches_sequential_simulation_count() {
        let mut specs = table_specs("table3");
        for spec in &mut specs {
            shrink(&mut spec.bench);
        }
        let sequential = Pipeline::new();
        prewarm(&sequential, &specs, 1);
        let parallel = Pipeline::new();
        prewarm(&parallel, &specs, 4);
        assert_eq!(sequential.simulations(), parallel.simulations());
        assert_eq!(parallel.simulations(), specs.len());
    }

    #[test]
    fn prewarm_reports_worker_utilisation() {
        let mut specs = table_specs("table3");
        for spec in &mut specs {
            shrink(&mut spec.bench);
        }
        let pipeline = Pipeline::new();
        let report = prewarm_with_stats(&pipeline, &specs, 3);
        assert_eq!(report.processed, specs.len());
        assert_eq!(report.workers.len(), 3.min(specs.len()));
        let total: u64 = report.workers.iter().map(|w| w.specs).sum();
        assert_eq!(total, specs.len() as u64);
        assert!(report.imbalance() >= 1.0);
        // Sequential path reports a single worker owning everything.
        let seq = prewarm_with_stats(&Pipeline::new(), &specs, 1);
        assert_eq!(seq.workers.len(), 1);
        assert_eq!(seq.workers[0].specs, specs.len() as u64);
    }

    #[test]
    fn par_map_returns_results_in_input_order() {
        use std::sync::{Condvar, Mutex};
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(par_map(&items, 1, |_, &x| x * x), want);
        assert!(par_map(&[] as &[u64], 4, |_, &x| x).is_empty());
        for jobs in [2, 8] {
            // Item 0 finishes only after another worker has finished
            // item 1, so results arrive out of input order.
            let one_done = (Mutex::new(false), Condvar::new());
            let got = par_map(&items, jobs, |_, &x| {
                let (done, wake) = &one_done;
                if x == 0 {
                    let mut done = done.lock().expect("test lock");
                    while !*done {
                        done = wake.wait(done).expect("test lock");
                    }
                } else if x == 1 {
                    *done.lock().expect("test lock") = true;
                    wake.notify_all();
                }
                x * x
            });
            assert_eq!(got, want, "jobs {jobs}");
        }
    }

    #[test]
    fn prewarm_records_its_worker_count() {
        let pipeline = Pipeline::new();
        assert_eq!(pipeline.jobs(), 1);
        prewarm(&pipeline, &[], 3);
        assert_eq!(pipeline.jobs(), 3);
        prewarm(&pipeline, &[], 0);
        assert_eq!(pipeline.jobs(), 1);
    }

    /// Shrinks a benchmark's inputs so tests stay fast.
    fn shrink(b: &mut Benchmark) {
        for v in b.input1.iter_mut().chain(b.input2.iter_mut()) {
            *v = (*v).clamp(1, 64);
        }
    }
}
