//! The repository benchmark: four workloads through the workspace's
//! public APIs, end-to-end metrics from untraced passes and per-layer
//! metrics from traced ones, with a correctness gate on every pass.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It prints a report, then as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md` for what each
//! workload and metric means.

mod probe;
mod report;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use report::{median, ratio, Metric};
use workloads::{Pass, PassTrace, Totals, Verification, DEFAULT_SEED, NAMES};

/// Set-ups before the first pass; the last one is measured.
const SETUP_REPS: usize = 101;

/// Set-ups after every untraced pass.
const SETUP_REPS_PER_PASS: usize = 21;

/// The core clock, in GHz, that `wall_s` and `setup_s` are stated at:
/// host seconds times the run's median clock reading (see `probe`),
/// over this.
const REFERENCE_GHZ: f64 = 3.0;

/// Simulated totals per workload at [`DEFAULT_SEED`]: deliveries,
/// messages, bits sent, widest message.
const EXPECTED_TOTALS: &str = include_str!("../expected_totals.txt");

/// Spec ids, in registry order, for the per-spec span metrics.
const SPEC_IDS: [&str; 14] =
    ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "A1", "A2"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("--seed {value}: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(args)
}

/// The recorded totals of `workload` at `seed`, if `expected_totals.txt`
/// has a row for that seed or for `any`.
fn expected_totals(workload: &str, seed: u64) -> Option<Totals> {
    EXPECTED_TOTALS.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse().ok());
        let seed_matches = f.get(1).is_some_and(|&s| s == "any" || s.parse() == Ok(seed));
        if f.first() != Some(&workload) || !seed_matches {
            return None;
        }
        Some(Totals {
            deliveries: num(2)?,
            messages: num(3)?,
            bits_sent: num(4)?,
            max_message_bits: num(5)?,
        })
    })
}

/// The correctness state of a run.
struct Gate {
    attempted: usize,
    failed: usize,
    broken_checks: usize,
    problems: Vec<String>,
}

impl Gate {
    /// Admits a pass: its own failures, plus the whole pass when its
    /// totals differ from the reference or the words it ran were wrong.
    fn admit(&mut self, pass: &Pass, reference: Option<Totals>, verification: &Verification) {
        self.attempted += pass.attempted;
        let mut failed = pass.failed + verification.mismatches;
        self.problems.extend(pass.problems.iter().cloned());
        if let Some(want) = reference {
            if pass.totals != want {
                failed = pass.attempted;
                self.problems
                    .push(format!("simulated totals {:?} differ from {want:?}", pass.totals));
            }
        }
        self.failed += failed.min(pass.attempted);
    }

    fn check(&mut self, ok: bool, what: String) {
        println!("  [{}] {what}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.broken_checks += 1;
            self.problems.push(what);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Set-up, several times; the last build is the one measured. More
    // set-ups follow every untraced pass, so that `setup_s` is sampled
    // across the whole run.
    let mut setup_times = Vec::new();
    let mut build = |reps: usize| {
        let mut built = None;
        for _ in 0..reps {
            drop(built.take());
            let start = Instant::now();
            built = workloads::setup(&args.workload, args.seed, nproc);
            setup_times.push(start.elapsed().as_secs_f64());
        }
        built
    };
    let workload = build(if args.trace { 1 } else { SETUP_REPS }).expect("workload name validated");

    println!("perfbench {} (trace {})", args.workload, u8::from(args.trace));
    for (key, value) in
        report::environment(args.seed, &workload.executor(), nproc, &workload.seed_note())
    {
        println!("  {key:<9} {value}");
    }

    let verification = workload.verify();
    let recorded = expected_totals(&args.workload, args.seed);
    let mut gate =
        Gate { attempted: 0, failed: 0, broken_checks: 0, problems: verification.problems.clone() };

    // Measured passes: untraced only, or untraced and traced alternately.
    let budget = args.seconds;
    let clock = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    // The core clock before the first pass and after every untraced one.
    let mut clocks = vec![probe::clock_ghz(workload.workers())];
    loop {
        untraced.push(workload.pass(false));
        clocks.push(probe::clock_ghz(workload.workers()));
        if untraced.len() == 1 {
            peak_rss_mb = report::peak_rss_mb();
        }
        if args.trace {
            traced.push(workload.pass(true));
        } else {
            drop(build(SETUP_REPS_PER_PASS));
        }
        let round = median(&untraced.iter().map(|p| p.wall).collect::<Vec<_>>())
            + median(&traced.iter().map(|p| p.wall).collect::<Vec<_>>());
        if clock.elapsed().as_secs_f64() + round > budget {
            break;
        }
    }
    let reference = recorded.or(Some(untraced[0].totals));
    for pass in untraced.iter().chain(&traced) {
        gate.admit(pass, reference, &verification);
    }

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall).collect();
    // The host's clock phases last minutes, far longer than a run, so
    // the run's median reading stands for every pass and set-up in it.
    let clock_ghz = median(&clocks);
    let to_reference = clock_ghz / REFERENCE_GHZ;
    let scaled: Vec<f64> = walls.iter().map(|w| w * to_reference).collect();
    let wall = median(&scaled);
    let totals = untraced[0].totals;
    println!("untraced passes: {} {walls:.4?} host s", walls.len());
    println!("  core clock before and after them: {clocks:.3?} GHz, median {clock_ghz:.4}");
    println!(
        "  wall_s {wall:.4} s at {REFERENCE_GHZ} GHz: median over {} passes, max {:.4} s (the highest percentile {} passes support); host-second median {:.4} s",
        scaled.len(),
        scaled.iter().copied().fold(0.0, f64::max),
        scaled.len(),
        median(&walls),
    );
    println!(
        "  sim totals: deliveries {} messages {} bits_sent {} max_message_bits {} ({})",
        totals.deliveries,
        totals.messages,
        totals.bits_sent,
        totals.max_message_bits,
        match recorded {
            Some(_) => "checked against expected_totals.txt",
            None =>
                "expected_totals.txt has no row for this seed; checked for equality across passes",
        }
    );

    let metrics: Vec<Metric> = if args.trace {
        let mut layers =
            layer_report(&args.workload, &traced, median(&walls), totals, &verification, &mut gate);
        layers.push(("bench.clock_ghz".into(), clock_ghz, "GHz"));
        layers
    } else {
        let setup = setup_times.iter().copied().fold(f64::MAX, f64::min);
        vec![
            ("wall_s".into(), wall, "s"),
            ("deliveries_per_s".into(), ratio(totals.deliveries as f64, wall), "1/s"),
            ("setup_s".into(), setup * to_reference, "s"),
            ("peak_rss_mb".into(), peak_rss_mb, "MB"),
        ]
    };

    let correct = gate.failed == 0 && gate.broken_checks == 0;
    println!(
        "error_rate {} ({} failed of {} attempted {})",
        ratio(gate.failed as f64, gate.attempted as f64),
        gate.failed,
        gate.attempted,
        if args.workload == "suite_parallel" { "specs" } else { "grid points" }
    );
    for problem in &gate.problems {
        println!("  problem: {problem}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("{}", report::result_line(correct, gate.attempted.max(1), gate.failed, &metrics));
    ExitCode::SUCCESS
}

/// Sum of `values`, 0.0 when empty.
fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

/// Per-layer metrics of one traced pass.
fn pass_layers(suite: bool, pass: &Pass, t: &PassTrace) -> BTreeMap<String, (f64, &'static str)> {
    let c = t.counts;
    let s = |ns: u64| ns as f64 / 1e9;
    let secs = |spans: &[workloads::Span]| total(spans.iter().map(workloads::Span::secs));
    let jobs = t.grids.iter().flat_map(|g| &g.jobs);
    let job_s = total(jobs.clone().map(trace::JobSpan::secs));
    let grid_s = total(t.grids.iter().map(|g| g.end - g.start));

    let (mut straggler, mut overhead, mut capacity, mut workers) = (0.0, 0.0, 0.0, 0);
    for g in &t.grids {
        let wall = g.end - g.start;
        let mut busy = vec![0.0; g.workers.max(1)];
        let mut last_end = vec![0.0; g.workers.max(1)];
        for job in &g.jobs {
            if job.worker >= busy.len() {
                busy.resize(job.worker + 1, 0.0);
                last_end.resize(job.worker + 1, 0.0);
            }
            busy[job.worker] += job.secs();
            last_end[job.worker] = f64::max(last_end[job.worker], job.end);
        }
        let first_dry = last_end.iter().copied().fold(f64::MAX, f64::min);
        straggler += wall - first_dry;
        overhead += wall - busy.iter().copied().fold(0.0, f64::max);
        capacity += busy.len() as f64 * wall;
        workers = workers.max(busy.len());
    }
    let spec_self = total(t.specs.iter().map(|sp| {
        let mut inside: Vec<(f64, f64)> = t
            .grids
            .iter()
            .filter(|g| g.start >= sp.start && g.end <= sp.end)
            .map(|g| (g.start, g.end))
            .collect();
        sp.secs() - workloads::union_secs(&mut inside)
    }));

    let engine_self =
        if suite { 0.0 } else { job_s - s(c.gen_ns) - s(c.construct_ns) - s(c.handler_ns) };
    let sweep_self = if suite { 0.0 } else { secs(&t.sweeps) - grid_s };
    let covered = if suite { secs(&t.specs) } else { secs(&t.sweeps) + secs(&t.fits) };
    let d = pass.totals.deliveries as f64;

    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_owned(), (value, unit));
    };
    put("langs.gen_s", s(c.gen_ns), "s");
    put("langs.gen_ns_per_letter", ratio(c.gen_ns as f64, c.letters as f64), "ns");
    put("langs.words", c.words as f64, "count");
    put("core.construct_s", s(c.construct_ns), "s");
    put("core.construct_ns_per_process", ratio(c.construct_ns as f64, c.processes as f64), "ns");
    put("core.handler_s", s(c.handler_ns), "s");
    put("core.handler_ns_per_delivery", ratio(c.handler_ns as f64, c.deliveries as f64), "ns");
    put("core.handler_ns_per_payload_bit", ratio(c.handler_ns as f64, c.payload_bits as f64), "ns");
    put("bitio.payload_bits_in", c.payload_bits as f64, "bits");
    put("bitio.mean_message_bits", ratio(c.payload_bits as f64, c.deliveries as f64), "bits");
    put("bitio.spilled_share", ratio(c.spilled as f64, c.deliveries as f64), "ratio");
    put("sim.runs", jobs.clone().filter(|j| j.ran).count() as f64, "count");
    put("sim.deliveries", d, "count");
    put("sim.messages", pass.totals.messages as f64, "count");
    put("sim.bits_sent", pass.totals.bits_sent as f64, "bits");
    put("sim.max_message_bits", pass.totals.max_message_bits as f64, "bits");
    put("sim.engine_self_s", engine_self, "s");
    put("sim.engine_ns_per_delivery", ratio(engine_self * 1e9, d), "ns");
    put("analysis.points", jobs.clone().filter(|j| j.point.is_some()).count() as f64, "count");
    put("analysis.sweep_self_s", sweep_self, "s");
    put("analysis.spec_self_s", spec_self, "s");
    put("analysis.fit_s", secs(&t.fits), "s");
    for id in SPEC_IDS {
        let spec_s = total(t.specs.iter().filter(|sp| sp.label == id).map(workloads::Span::secs));
        put(&format!("analysis.spec_s.{id}"), spec_s, "s");
    }
    put("pool.workers", workers as f64, "count");
    put("pool.jobs", jobs.clone().count() as f64, "count");
    put("pool.busy_share", ratio(job_s, capacity), "ratio");
    put("pool.straggler_s", straggler, "s");
    put("pool.overhead_s", overhead, "s");
    put("bench.traced_wall_s", pass.wall, "s");
    put("bench.span_coverage", ratio(covered, pass.wall), "ratio");
    m
}

/// Computes the per-layer metrics (median over traced passes), runs the
/// traced-run cross-checks, and prints the layer split and the slowest
/// grid points.
fn layer_report(
    workload: &str,
    traced: &[Pass],
    untraced_wall: f64,
    untraced_totals: Totals,
    verification: &Verification,
    gate: &mut Gate,
) -> Vec<Metric> {
    let suite = workload == "suite_parallel";
    let per_pass: Vec<_> = traced
        .iter()
        .map(|p| pass_layers(suite, p, p.trace.as_ref().expect("traced pass")))
        .collect();
    let mut layers: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    for (name, &(_, unit)) in &per_pass[0] {
        let values: Vec<f64> = per_pass.iter().map(|m| m[name].0).collect();
        layers.insert(name.clone(), (median(&values), unit));
    }
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
    layers.insert(
        "bench.trace_overhead".into(),
        (ratio(median(&traced_walls), untraced_wall), "ratio"),
    );
    let v = |name: &str| layers[name].0;

    println!(
        "traced passes: {} (tracing overhead {:.3}x)",
        traced.len(),
        v("bench.trace_overhead")
    );
    println!("cross-checks:");
    for (i, pass) in traced.iter().enumerate() {
        let t = pass.trace.as_ref().expect("traced pass");
        let m = &per_pass[i];
        if !suite {
            gate.check(
                t.counts.deliveries == pass.totals.deliveries,
                format!(
                    "pass {i}: handler-wrapper calls {} == obs engine.deliveries {}",
                    t.counts.deliveries, pass.totals.deliveries
                ),
            );
            gate.check(
                m["sim.runs"].0 as usize == verification.runs,
                format!(
                    "pass {i}: executor-wrapper runs {} == words generated {}",
                    m["sim.runs"].0, verification.runs
                ),
            );
        }
        let coverage = m["bench.span_coverage"].0;
        gate.check(
            (0.95..=1.0 + 1e-9).contains(&coverage),
            format!(
                "pass {i}: layer self times sum to {:.2}% of the traced wall (need 95-100%)",
                coverage * 100.0
            ),
        );
        let negative: Vec<&String> = m
            .iter()
            .filter(|(_, (val, unit))| *unit == "s" && *val < -1e-3)
            .map(|(k, _)| k)
            .collect();
        gate.check(negative.is_empty(), format!("pass {i}: no negative self time {negative:?}"));
        gate.check(
            pass.totals == untraced_totals,
            format!("pass {i}: traced totals {:?} == untraced totals", pass.totals),
        );
    }
    let jobs = v("pool.jobs");
    println!(
        "  [gap] executor-wrapper jobs {jobs} vs obs pool.jobs {}: obs counts only ThreadPool::execute, \
         which the sweep executors never call",
        traced[0].obs_pool_jobs
    );

    // The layer split, next to the predicted one.
    let split: Vec<(&str, f64)> = if suite {
        vec![
            ("analysis.spec_self_s", v("analysis.spec_self_s")),
            (
                "pool grids (busiest worker)",
                v("bench.traced_wall_s") * v("bench.span_coverage")
                    - v("analysis.spec_self_s")
                    - v("pool.overhead_s"),
            ),
            ("pool.overhead_s", v("pool.overhead_s")),
        ]
    } else {
        vec![
            ("langs.gen_s", v("langs.gen_s")),
            ("core.construct_s", v("core.construct_s")),
            ("core.handler_s", v("core.handler_s")),
            ("sim.engine_self_s", v("sim.engine_self_s")),
            ("analysis.sweep_self_s", v("analysis.sweep_self_s")),
            ("analysis.fit_s", v("analysis.fit_s")),
        ]
    };
    println!("layer split of the traced wall ({:.4} s):", v("bench.traced_wall_s"));
    for (name, secs) in &split {
        println!(
            "  {name:<30} {secs:>10.4} s  {:>6.2}%",
            100.0 * ratio(*secs, v("bench.traced_wall_s"))
        );
    }
    let largest = split.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map_or("-", |l| l.0);
    match workload {
        "payload_quadratic" => println!(
            "  prediction: core.handler_s is the largest layer -> measured largest: {largest} ({})",
            if largest == "core.handler_s" { "holds" } else { "CONTRADICTED" }
        ),
        "token_massive" => {
            let setup_side = v("langs.gen_s") + v("core.construct_s") + v("sim.engine_self_s");
            println!(
                "  prediction: langs.gen_s + core.construct_s + sim.engine_self_s ({setup_side:.4} s) > core.handler_s ({:.4} s) -> {}",
                v("core.handler_s"),
                if setup_side > v("core.handler_s") { "holds" } else { "CONTRADICTED" }
            );
        }
        _ => println!("  largest layer: {largest}"),
    }

    // The slowest grid points of the last traced pass.
    let last = traced.last().and_then(|p| p.trace.as_ref()).expect("traced pass");
    let mut jobs: Vec<&trace::JobSpan> = last.grids.iter().flat_map(|g| &g.jobs).collect();
    jobs.sort_by(|a, b| b.secs().total_cmp(&a.secs()));
    println!("slowest jobs (last traced pass):");
    println!(
        "  {:<34} {:>8} {:>6} {:>4} {:>10} {:>12} {:>6}",
        "spec/protocol", "n", "sample", "side", "seconds", "deliveries", "worker"
    );
    for job in jobs.iter().take(10) {
        let (n, sample, side) = job.point.map_or(("-".into(), "-".into(), "idx"), |p| {
            (p.n.to_string(), p.sample.to_string(), if p.positive { "pos" } else { "neg" })
        });
        let deliveries = if suite { "-".to_owned() } else { job.counts.deliveries.to_string() };
        println!(
            "  {:<34} {n:>8} {sample:>6} {side:>4} {:>10.4} {deliveries:>12} {:>6}",
            job.label,
            job.secs(),
            job.worker
        );
    }
    layers.into_iter().map(|(name, (value, unit))| (name, value, unit)).collect()
}
