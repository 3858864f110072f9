//! `static`: the paper's own use case, a post-compilation static pass
//! with no simulation. Each round compiles the 42 builds (18 SPEC
//! stand-ins and 3 `ext.*` programs, each at O0 and O1), then for them
//! and for seed-drawn `dl-testkit::progen` programs builds a fresh
//! [`AnalysisCtx`], computes all nine passes and runs every predictor
//! that needs no simulation, on two worker threads. One operation is
//! one program; its predictions must equal the first round's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use dl_analysis::ctx::{AnalysisCtx, CtxStats};
use dl_analysis::CacheGeometry;
use dl_baselines::{Bdh, Okn, ProfilePredictor, ReusePredictor};
use dl_core::{Heuristic, Predictor};
use dl_experiments::obs::SpanPassObserver;
use dl_minic::OptLevel;
use dl_mips::parse::parse_asm;
use dl_mips::program::Program;
use dl_obs::Spans;
use dl_testkit::{progen, Rng};
use dl_workloads::Benchmark;

use crate::host::{fnv1a, FNV_BASIS};
use crate::{guarded, span, Rep};

/// Seed-drawn generated programs analyzed per round, next to the 42
/// builds: one from each `progen` generator (`arb_program`,
/// `arb_pattern_program`, `arb_stack_heavy_program`). They are kernels
/// of a few dozen instructions, there so that the seed changes the
/// analyzed code; the 42 builds carry the traffic (48 generated
/// programs took 1.2% of a round's wall time).
pub const GENERATED: usize = 3;

/// Worker threads a round runs on. Programs are independent, so a
/// round spreads over both CPUs of the 2-CPU host as a parallel build
/// would; with both CPUs busy its timing also swings less on a shared
/// host (`perfbench/README.md`, Noise).
pub const THREADS: usize = 2;

/// Set-up state of the static workload.
pub struct StaticMix {
    builds: Vec<(Benchmark, OptLevel)>,
    /// Generated programs, parsed once at set-up (a parse failure
    /// stays an error and counts as a failed operation every round).
    generated: Vec<(String, Result<Program, String>)>,
    geometry: CacheGeometry,
    /// Per-program prediction digests of the first round.
    reference: Option<Vec<Option<u64>>>,
}

/// What analyzing one program produced.
struct Analyzed {
    stats: CtxStats,
    digest: u64,
}

/// What one program produced in a round.
struct Done {
    /// Instructions of a compiled build (`None` for a generated
    /// program or a failed compile).
    compiled: Option<u64>,
    /// `None` if the program did not compile, parse or analyze.
    analyzed: Option<Analyzed>,
}

impl StaticMix {
    /// Lists the builds and draws the generated programs from `seed`.
    #[must_use]
    pub fn setup(seed: u64) -> StaticMix {
        let builds = dl_workloads::all_with_extensions()
            .into_iter()
            .flat_map(|b| [(b.clone(), OptLevel::O0), (b, OptLevel::O1)])
            .collect();
        let mut rng = Rng::new(seed);
        let generated = (0..GENERATED)
            .map(|i| {
                let text = match i % 3 {
                    0 => progen::arb_program(&mut rng),
                    1 => progen::arb_pattern_program(&mut rng),
                    _ => progen::arb_stack_heavy_program(&mut rng),
                };
                (
                    format!("progen/{i}"),
                    parse_asm(&text).map_err(|e| e.to_string()),
                )
            })
            .collect();
        StaticMix {
            builds,
            generated,
            geometry: CacheGeometry::new(8 * 1024, 32, 4),
            reference: None,
        }
    }

    /// One round over every program.
    pub fn rep(&mut self, spans: Option<&Arc<Spans>>) -> Rep {
        let mut rep = Rep::default();
        let cpu0 = crate::host::cpu_secs();
        let t0 = Instant::now();
        let done = self.round(spans);
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.cpu_s = crate::host::cpu_secs() - cpu0;

        span(spans, "bench/check", || self.check(&done, &mut rep));
        let compiled: Vec<u64> = done.iter().filter_map(|d| d.compiled).collect();
        rep.set("minic.compiles", compiled.len() as f64);
        rep.exact("minic.static_insts", compiled.iter().sum());
        let mut stats = CtxStats::default();
        for analyzed in done.iter().filter_map(|d| d.analyzed.as_ref()) {
            stats.merge(&analyzed.stats);
        }
        rep.set("analysis.pass_hits", stats.hits() as f64);
        rep.exact("analysis.pass_misses", stats.misses());
        rep
    }

    /// Every program, on [`THREADS`] workers that each take the next
    /// unprocessed one; the results come back in program order.
    fn round(&self, spans: Option<&Arc<Spans>>) -> Vec<Done> {
        let count = self.builds.len() + self.generated.len();
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, Done)> = thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break mine;
                            }
                            mine.push((i, self.process(i, spans)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("program work is guarded"))
                .collect()
        });
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, d)| d).collect()
    }

    /// The label of program `i`: builds first, then generated programs.
    fn label(&self, i: usize) -> String {
        match self.builds.get(i) {
            Some((bench, opt)) => format!("{}/{opt}", bench.name),
            None => self.generated[i - self.builds.len()].0.clone(),
        }
    }

    /// Compiles program `i` (or takes its parsed text) and analyzes it.
    fn process(&self, i: usize, spans: Option<&Arc<Spans>>) -> Done {
        let label = self.label(i);
        let (program, compiled) = match self.builds.get(i) {
            Some((bench, opt)) => {
                let program = span(spans, &format!("minic/compile/{label}"), || {
                    guarded(|| bench.compile(*opt).ok()).flatten()
                });
                let insts = program.as_ref().map(|p| p.insts.len() as u64);
                (program, insts)
            }
            None => {
                let parsed = &self.generated[i - self.builds.len()].1;
                (parsed.as_ref().ok().cloned(), None)
            }
        };
        let analyzed = program.and_then(|program| {
            // The enclosing span gives ctx construction and pass
            // dispatch to the analysis layer; passes and predictors
            // record their own child spans.
            span(spans, &format!("analysis/{label}"), || {
                guarded(|| self.analyze(&label, program, spans))
            })
        });
        Done { compiled, analyzed }
    }

    /// Computes every pass on a fresh ctx, then runs each predictor.
    fn analyze(&self, label: &str, program: Program, spans: Option<&Arc<Spans>>) -> Analyzed {
        let ctx = AnalysisCtx::new(program);
        if let Some(s) = spans {
            ctx.set_pass_observer(Arc::new(SpanPassObserver::new(
                Arc::clone(s),
                format!("analysis/{label}"),
            )));
        }
        // Every pass: cfg, dom and reaching come in through patterns
        // and loops.
        let _ = ctx.analysis();
        let _ = ctx.loops();
        let _ = ctx.load_classes();
        let _ = ctx.freq();
        let _ = ctx.callgraph();
        let _ = ctx.reuse_profiles();
        // Each predictor's time is its span's: with the passes already
        // computed, a predictor span has no children.
        let predictors: [(&dyn Predictor, &str); 5] = [
            (&Heuristic::default(), "core/heuristic"),
            (&Okn, "baselines/okn"),
            (&Bdh, "baselines/bdh"),
            (&ReusePredictor::new(self.geometry), "baselines/reuse"),
            (&ProfilePredictor::new(self.geometry), "baselines/profile"),
        ];
        let mut digest = FNV_BASIS;
        for (predictor, path) in predictors {
            let set = span(spans, &format!("{path}/{label}"), || {
                predictor.predict(&ctx)
            });
            for index in set {
                digest = fnv1a(&(index as u64).to_le_bytes(), digest);
            }
            digest = fnv1a(path.as_bytes(), digest);
        }
        Analyzed {
            stats: ctx.stats(),
            digest,
        }
    }

    /// One operation per program: it must compile (or parse) and
    /// analyze without a panic, and predict what the first round did.
    fn check(&mut self, done: &[Done], rep: &mut Rep) {
        let digests: Vec<Option<u64>> = done
            .iter()
            .map(|d| d.analyzed.as_ref().map(|a| a.digest))
            .collect();
        let reference = self
            .reference
            .get_or_insert_with(|| digests.clone())
            .clone();
        for (i, (digest, first)) in digests.iter().zip(reference.iter()).enumerate() {
            rep.attempted += 1;
            let ok = digest.is_some() && digest == first;
            if !ok {
                rep.failed += 1;
                let label = self.label(i);
                rep.problems.push(match digest {
                    None => format!("{label}: failed to compile or analyze"),
                    Some(_) => format!("{label}: predictions differ from the first round"),
                });
            }
        }
    }
}
