//! The four workloads: set-up, one measured pass, and the correctness
//! gate each pass must clear.
//!
//! Workloads 1–3 are sweeps taken from registered experiments and run on
//! the [`Serial`] executor with the benchmark's seed as
//! `SweepConfig.seed`; `suite_parallel` is the whole registry through
//! [`ExperimentHarness`] on `Parallel(nproc)`, whose seed is fixed.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ringleader_analysis::{
    fit_series, sweep_protocol_with, ExperimentHarness, GrowthModel, Parallel, Registry, Scale,
    Serial, SweepConfig, SweepExecutor, SweepGrid, SweepPoint, Verdict,
};
use ringleader_core::{BidirMeetInMiddle, DfaOnePass, LgRecognizer, WcWPrefixForward};
use ringleader_langs::{regular_corpus, GrowthFunction, Language, LgLanguage, WcW};
use ringleader_obs::Metrics;
use ringleader_sim::{Protocol, Scheduler};

use crate::trace::{Counts, GridSpan, TimedExecutor, TracedLanguage, TracedProtocol};

/// The registry's sweep seed (`SweepConfig::default().seed`).
pub const DEFAULT_SEED: u64 = 0xB17C0DE;

/// Workload names. `token_massive` and `bidir_schedules` are not in
/// `BENCHMARK.json`: they run by hand (see `perfbench/README.md` for why).
pub const NAMES: [&str; 4] =
    ["payload_quadratic", "token_massive", "bidir_schedules", "suite_parallel"];

/// E8's bound on a growth function's `bits/g(n)` band (max over min).
const LG_BAND: f64 = 4.0;

/// Simulated totals of a pass, read from an enabled obs registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// `engine.deliveries`.
    pub deliveries: u64,
    /// `engine.messages`.
    pub messages: u64,
    /// `engine.bits_sent`.
    pub bits_sent: u64,
    /// `engine.max_message_bits` (a max-gauge).
    pub max_message_bits: u64,
}

impl Totals {
    fn read(metrics: &Metrics) -> Totals {
        Totals {
            deliveries: metrics.counter_value("engine.deliveries"),
            messages: metrics.counter_value("engine.messages"),
            bits_sent: metrics.counter_value("engine.bits_sent"),
            max_message_bits: metrics.gauge_value("engine.max_message_bits"),
        }
    }

    fn merge(&mut self, other: Totals) {
        self.deliveries += other.deliveries;
        self.messages += other.messages;
        self.bits_sent += other.bits_sent;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
    }
}

/// A span on the pass clock, in seconds.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: a spec id, or a sweep/fit label.
    pub label: String,
    /// Start, seconds since the pass began.
    pub start: f64,
    /// End, seconds since the pass began.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// What a traced pass recorded.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    /// Layer counts summed over every job.
    pub counts: Counts,
    /// One span per `sweep_protocol_with` call (workloads 1–3).
    pub sweeps: Vec<Span>,
    /// One span per `fit_series` call (workloads 1–3).
    pub fits: Vec<Span>,
    /// One span per `ExperimentHarness::run(spec)` (suite).
    pub specs: Vec<Span>,
    /// Executor grids with their jobs.
    pub grids: Vec<GridSpan>,
}

/// One measured pass over a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of the pass.
    pub wall: f64,
    /// Simulated totals.
    pub totals: Totals,
    /// Operations attempted (grid points, or specs on the suite).
    pub attempted: usize,
    /// Operations that failed the gate.
    pub failed: usize,
    /// Why operations failed.
    pub problems: Vec<String>,
    /// The obs `pool.jobs` counter.
    pub obs_pool_jobs: u64,
    /// Spans, when the pass was traced.
    pub trace: Option<PassTrace>,
}

/// Words regenerated from a sweep's grid and checked against the
/// language, outside any measured pass.
#[derive(Debug, Clone, Default)]
pub struct Verification {
    /// Grid points with a word, i.e. runs a pass makes.
    pub runs: usize,
    /// Generated words on the wrong side of `Language::contains`.
    pub mismatches: usize,
    /// Which words.
    pub problems: Vec<String>,
}

/// A built workload.
pub trait Workload {
    /// The executor and worker count the workload measures.
    fn executor(&self) -> String;
    /// Threads the executor runs jobs on.
    fn workers(&self) -> usize;
    /// Where the workload's seed goes.
    fn seed_note(&self) -> String;
    /// Checks every generated word against `Language::contains`.
    fn verify(&self) -> Verification;
    /// Runs one pass, traced or not.
    fn pass(&self, traced: bool) -> Pass;
}

/// Builds the named workload: languages, DFAs, protocols, the registry
/// and the grids — everything before the first measured sweep.
#[must_use]
pub fn setup(name: &str, seed: u64, nproc: usize) -> Option<Box<dyn Workload>> {
    let registry = ringleader_bench::registry();
    let grid_config = |id: &str, scale: Scale| {
        let grid = registry.get(id).expect("registered spec").grid(scale);
        SweepConfig {
            sizes: grid.sizes.clone(),
            samples_per_size: grid.samples_per_size,
            seed,
            ..SweepConfig::default()
        }
    };
    let workload: Box<dyn Workload> = match name {
        "payload_quadratic" => {
            let mut cases = vec![Case {
                label: "E6 wcw".into(),
                protocol: Box::new(WcWPrefixForward::new()),
                language: Box::new(WcW::new()),
                // Half of WcW's negative examples are a positive with one
                // mirrored letter flipped (as costly as a positive), half
                // random words (almost free), so with one sample per size
                // a seeded E6 sweep costs either ~0.9 s or ~2 s. E6 keeps
                // the registry seed so the pass cost does not depend on
                // `--seed`; the E8 sweeps, whose cost does not depend on
                // the word, take it.
                config: SweepConfig { seed: DEFAULT_SEED, ..grid_config("E6", Scale::Large) },
                check: Check::Fit(GrowthModel::Quadratic),
            }];
            for g in [
                GrowthFunction::NLogN,
                GrowthFunction::NQuarterLog,
                GrowthFunction::NSqrtN,
                GrowthFunction::NSquaredHalf,
            ] {
                let lang = LgLanguage::new(g);
                cases.push(Case {
                    label: format!("E8 L_g[{}]", g.label()),
                    protocol: Box::new(LgRecognizer::new(&lang)),
                    language: Box::new(lang),
                    config: grid_config("E8", Scale::Large),
                    check: Check::Band(g),
                });
            }
            Box::new(SweepWorkload {
                cases,
                seed_note: "the seed is SweepConfig.seed of the four E8 sweeps; E6 keeps the \
                            registry seed 0xB17C0DE (its cost is bimodal in the seed)"
                    .into(),
            })
        }
        "token_massive" => {
            let config = grid_config("E1", Scale::Massive);
            let cases = regular_corpus()
                .into_iter()
                .map(|lang| {
                    let proto = DfaOnePass::new(&lang);
                    let predicted =
                        config.sizes.iter().map(|&n| (n, proto.predicted_bits(n))).collect();
                    Case {
                        label: format!("E1 {}", lang.name()),
                        check: Check::Exact {
                            predicted,
                            fit: (proto.state_bits() > 0).then_some(GrowthModel::Linear),
                        },
                        protocol: Box::new(proto),
                        language: Box::new(lang),
                        config: config.clone(),
                    }
                })
                .collect();
            Box::new(SweepWorkload { cases, seed_note: SEED_NOTE.into() })
        }
        "bidir_schedules" => {
            let base = grid_config("E5", Scale::Large);
            let mut cases = Vec::new();
            for (scheduler, label) in [
                (Scheduler::Fifo, "fifo".to_owned()),
                (Scheduler::LongestQueue, "longest-queue".to_owned()),
                (Scheduler::Random { seed }, format!("random({seed})")),
            ] {
                for lang in regular_corpus() {
                    let proto = BidirMeetInMiddle::new(&lang);
                    cases.push(Case {
                        label: format!("E5 {label} {}", lang.name()),
                        check: Check::Bidir { bound: proto.message_bits_bound() },
                        protocol: Box::new(proto),
                        language: Box::new(lang),
                        config: SweepConfig { scheduler: scheduler.clone(), ..base.clone() },
                    });
                }
            }
            Box::new(SweepWorkload {
                cases,
                seed_note: format!("{SEED_NOTE}, and the Random scheduler's seed"),
            })
        }
        "suite_parallel" => Box::new(SuiteWorkload { registry, exec: Parallel(nproc) }),
        _ => return None,
    };
    Some(workload)
}

/// What a sweep must show to count as correct.
enum Check {
    /// Bits equal the closed form at every size, plus an optional fit.
    Exact { predicted: BTreeMap<usize, usize>, fit: Option<GrowthModel> },
    /// The series fits this model.
    Fit(GrowthModel),
    /// `bits/g(n)` stays within [`LG_BAND`].
    Band(GrowthFunction),
    /// E5's gate: linear fit over the non-zero points, and messages no
    /// wider than the protocol's constant bound.
    Bidir { bound: usize },
}

/// One sweep of a workload.
struct Case {
    label: String,
    protocol: Box<dyn Protocol>,
    language: Box<dyn Language>,
    config: SweepConfig,
    check: Check,
}

impl Case {
    fn points(&self) -> usize {
        self.config.sizes.len() * self.config.samples_per_size * 2
    }

    /// Returns a problem description if the sweep's points miss the
    /// check; records a span for every `fit_series` call in `fits`.
    fn check(&self, points: &[SweepPoint], fits: &mut Vec<Span>, clock: Instant) -> Option<String> {
        if points.len() != self.config.sizes.len() {
            return Some(format!(
                "{} measured {} of {} sizes",
                self.label,
                points.len(),
                self.config.sizes.len()
            ));
        }
        let mut expect_fit = |model: GrowthModel, series: &[(usize, f64)]| {
            let start = clock.elapsed().as_secs_f64();
            let got = fit_series(series).best_model;
            let end = clock.elapsed().as_secs_f64();
            fits.push(Span { label: self.label.clone(), start, end });
            (got != model).then(|| format!("{}: fit {got:?}, expected {model:?}", self.label))
        };
        let series: Vec<(usize, f64)> = points.iter().map(|p| (p.n, p.bits as f64)).collect();
        match &self.check {
            Check::Exact { predicted, fit } => {
                match points.iter().find(|p| predicted.get(&p.n) != Some(&p.bits)) {
                    Some(p) => Some(format!(
                        "{}: {} bits at n={}, closed form {:?}",
                        self.label,
                        p.bits,
                        p.n,
                        predicted.get(&p.n)
                    )),
                    None => fit.and_then(|model| expect_fit(model, &series)),
                }
            }
            Check::Fit(model) => expect_fit(*model, &series),
            Check::Band(g) => {
                let ratios: Vec<f64> =
                    points.iter().map(|p| p.bits as f64 / g.eval(p.n as u64) as f64).collect();
                let max = ratios.iter().copied().fold(f64::MIN, f64::max);
                let min = ratios.iter().copied().fold(f64::MAX, f64::min);
                (max / min > LG_BAND).then(|| {
                    format!("{}: ratio band {min:.3}..{max:.3} wider than {LG_BAND}", self.label)
                })
            }
            Check::Bidir { bound } => {
                if let Some(p) = points.iter().find(|p| p.max_message_bits > *bound) {
                    return Some(format!(
                        "{}: {}-bit message at n={}, bound {bound}",
                        self.label, p.max_message_bits, p.n
                    ));
                }
                let nonzero: Vec<(usize, f64)> =
                    series.iter().copied().filter(|&(_, b)| b > 0.0).collect();
                if nonzero.len() >= 3 {
                    expect_fit(GrowthModel::Linear, &nonzero)
                } else {
                    None
                }
            }
        }
    }
}

/// Time covered by the union of `intervals`.
pub fn union_secs(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, f64::MIN);
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".to_owned())
}

/// Workloads 1–3: a list of sweeps on the serial executor.
struct SweepWorkload {
    cases: Vec<Case>,
    seed_note: String,
}

const SEED_NOTE: &str = "the seed is every sweep's SweepConfig.seed";

impl Workload for SweepWorkload {
    fn executor(&self) -> String {
        "Serial (1 worker)".into()
    }

    fn workers(&self) -> usize {
        Serial.workers()
    }

    fn seed_note(&self) -> String {
        self.seed_note.clone()
    }

    fn verify(&self) -> Verification {
        let mut v = Verification::default();
        for case in &self.cases {
            for p in SweepGrid::new(&case.config).points() {
                let mut rng = StdRng::seed_from_u64(p.seed);
                let word = if p.positive {
                    case.language.positive_example(p.n, &mut rng)
                } else {
                    case.language.negative_example(p.n, &mut rng)
                };
                let Some(word) = word else { continue };
                v.runs += 1;
                if case.language.contains(&word) != p.positive {
                    v.mismatches += 1;
                    v.problems.push(format!(
                        "{}: the {} example at n={} sample {} is on the wrong side of contains",
                        case.label,
                        if p.positive { "positive" } else { "negative" },
                        p.n,
                        p.sample
                    ));
                }
            }
        }
        v
    }

    fn pass(&self, traced: bool) -> Pass {
        let clock = Instant::now();
        let timed = TimedExecutor::new(&Serial, clock);
        let exec: &dyn SweepExecutor = if traced { &timed } else { &Serial };
        let mut trace = PassTrace::default();
        let mut pass = Pass::default();
        for case in &self.cases {
            let metrics = Metrics::enabled();
            let config = SweepConfig { metrics: metrics.clone(), ..case.config.clone() };
            let start = clock.elapsed().as_secs_f64();
            timed.set_label(&case.label);
            let result = if traced {
                let protocol = TracedProtocol(case.protocol.as_ref());
                let language = TracedLanguage(case.language.as_ref());
                catch_unwind(AssertUnwindSafe(|| {
                    sweep_protocol_with(&protocol, &language, &config, exec)
                }))
            } else {
                catch_unwind(AssertUnwindSafe(|| {
                    sweep_protocol_with(
                        case.protocol.as_ref(),
                        case.language.as_ref(),
                        &config,
                        exec,
                    )
                }))
            };
            trace.sweeps.push(Span {
                label: case.label.clone(),
                start,
                end: clock.elapsed().as_secs_f64(),
            });
            pass.totals.merge(Totals::read(&metrics));
            pass.obs_pool_jobs += metrics.counter_value("pool.jobs");
            pass.attempted += case.points();
            let problem = match result {
                Ok(Ok(points)) => case.check(&points, &mut trace.fits, clock),
                Ok(Err(e)) => Some(format!("{}: simulator error {e}", case.label)),
                Err(payload) => {
                    Some(format!("{}: panic: {}", case.label, panic_text(payload.as_ref())))
                }
            };
            if let Some(problem) = problem {
                pass.failed += case.points();
                pass.problems.push(problem);
            }
        }
        pass.wall = clock.elapsed().as_secs_f64();
        if traced {
            trace.grids = timed.take_grids();
            for grid in &trace.grids {
                for job in &grid.jobs {
                    trace.counts.add(job.counts);
                }
            }
            pass.trace = Some(trace);
        }
        pass
    }
}

/// Workload 4: the full registry at `Scale::Large` on the pool.
struct SuiteWorkload {
    registry: Registry,
    exec: Parallel,
}

impl Workload for SuiteWorkload {
    fn executor(&self) -> String {
        format!("Parallel({}) ({} workers)", self.exec.0, self.exec.workers())
    }

    fn workers(&self) -> usize {
        self.exec.workers()
    }

    fn seed_note(&self) -> String {
        "the seed is not used: the registry fixes every spec's seed (SweepConfig default 0xB17C0DE)"
            .into()
    }

    fn verify(&self) -> Verification {
        // Every spec checks its own decisions against ground truth and
        // reports through its verdict, which each pass gates on.
        Verification::default()
    }

    fn pass(&self, traced: bool) -> Pass {
        let clock = Instant::now();
        let metrics = Metrics::enabled();
        let timed = TimedExecutor::new(&self.exec, clock);
        let exec: &dyn SweepExecutor = if traced { &timed } else { &self.exec };
        let harness = ExperimentHarness::new(exec, Scale::Large).with_metrics(metrics.clone());
        let mut trace = PassTrace::default();
        let mut pass = Pass::default();
        for spec in self.registry.specs() {
            timed.set_label(spec.id());
            let start = clock.elapsed().as_secs_f64();
            let result = catch_unwind(AssertUnwindSafe(|| harness.run(spec)));
            trace.specs.push(Span {
                label: spec.id().into(),
                start,
                end: clock.elapsed().as_secs_f64(),
            });
            pass.attempted += 1;
            let problem = match result {
                Ok(r) if r.verdict == Verdict::Reproduced => None,
                Ok(r) => Some(format!("{}: verdict {}", spec.id(), r.verdict)),
                Err(payload) => {
                    Some(format!("{}: panic: {}", spec.id(), panic_text(payload.as_ref())))
                }
            };
            if let Some(problem) = problem {
                pass.failed += 1;
                pass.problems.push(problem);
            }
        }
        pass.wall = clock.elapsed().as_secs_f64();
        pass.totals = Totals::read(&metrics);
        pass.obs_pool_jobs = metrics.counter_value("pool.jobs");
        if traced {
            trace.grids = timed.take_grids();
            pass.trace = Some(trace);
        }
        pass
    }
}
