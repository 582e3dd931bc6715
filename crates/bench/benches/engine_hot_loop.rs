//! Engine-throughput benches: the per-delivery cost of the event loop.
//!
//! Unlike `protocols.rs` (one group per paper experiment), this group
//! isolates the *simulator substrate*: four workload shapes chosen to
//! stress the scheduler index and the message hot path at ring sizes where
//! an O(n)-per-delivery engine becomes the bottleneck.
//!
//! * `one_pass` — unidirectional single token (`DfaOnePass`): exactly one
//!   link is ever non-empty, the best case for the single-link fast path.
//!   It also runs at n = 65536, where a per-run cost that grows with the
//!   ring (rather than with the traffic in flight) would show: CI gates
//!   its ns per delivery at ≤ 1.5× the n = 512 figure (`BENCH_0009.json`).
//! * `bidir_collision` — `BidirMeetInMiddle` probes crossing in both
//!   directions: two active links, exercises the index under churn.
//! * `quadratic_stateless` — the Theorem 3 stateless replay
//!   (`StatelessTwoPass`), whose pass-2 messages replay pass-1 history:
//!   wider payloads and two full passes of deliveries.
//! * `payload` — the `{wcw}` recognizer (`WcWPrefixForward`) at
//!   n ∈ {1025, 4097}: a Θ(n)-bit token on every hop, so it prices the
//!   payload codec per delivery on top of the scheduler
//!   (`BENCH_0008.json`).
//! * `sampler` — word generation for those runs: `DfaLanguage`'s
//!   positive and negative examples of `(a|b)*abb` at n ∈ {4096, 65536},
//!   which price `WordSampler`'s counting DP (`BENCH_0009.json`).
//! * `metered` — the one-pass workload with an enabled metrics registry
//!   attached (`on/<n>`) vs its unmetered twin (`off/<n>`), timed
//!   back-to-back: prices the observability layer itself. CI gates `on`
//!   at ≤3% over `off` at n = 4096 (`BENCH_0007.json`).
//!
//! Run with `CRITERION_SNAPSHOT=out.jsonl` to dump machine-readable
//! measurements; `BENCH_0003.json` in the repo root is the checked-in
//! trajectory for the serial engine (pre- and post-incremental-index).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ringleader_automata::Word;
use ringleader_core::{BidirMeetInMiddle, DfaOnePass, StatelessTwoPass, WcWPrefixForward};
use ringleader_langs::{DfaLanguage, Language};
use ringleader_sim::RingRunner;

const SIZES: [usize; 3] = [64, 512, 4096];

fn word_for(lang: &dyn Language, n: usize, seed: u64) -> Word {
    let mut rng = StdRng::seed_from_u64(seed);
    lang.positive_example(n, &mut rng)
        .or_else(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            lang.negative_example(n, &mut rng)
        })
        .expect("language has examples at bench sizes")
}

/// Unidirectional one-pass run: n deliveries, one message in flight.
fn bench_one_pass(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let proto = DfaOnePass::new(&lang);
    let mut group = c.benchmark_group("engine_hot_loop/one_pass");
    for n in SIZES.into_iter().chain([65536]) {
        let word = word_for(&lang, n, 0xE0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &word, |b, w| {
            b.iter(|| RingRunner::new().run(&proto, w).unwrap());
        });
    }
    group.finish();
}

/// Word generation: one positive and one negative example of
/// `(a|b)*abb` per iteration, each building a `WordSampler` over the
/// language's DFA (or its complement) and walking it once.
fn bench_sampler(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let mut group = c.benchmark_group("engine_hot_loop/sampler");
    for n in [4096usize, 65536] {
        group.bench_function(BenchmarkId::new("positive", n), |b| {
            let mut rng = StdRng::seed_from_u64(0xE4);
            b.iter(|| lang.positive_example(n, &mut rng).unwrap());
        });
        group.bench_function(BenchmarkId::new("negative", n), |b| {
            let mut rng = StdRng::seed_from_u64(0xE4);
            b.iter(|| lang.negative_example(n, &mut rng).unwrap());
        });
    }
    group.finish();
}

/// Bidirectional meet-in-the-middle: probes collide, two active links.
fn bench_bidir_collision(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(ab)*", &sigma).unwrap();
    let proto = BidirMeetInMiddle::new(&lang);
    let mut group = c.benchmark_group("engine_hot_loop/bidir_collision");
    for n in SIZES {
        let word = word_for(&lang, n, 0xE1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &word, |b, w| {
            b.iter(|| RingRunner::new().run(&proto, w).unwrap());
        });
    }
    group.finish();
}

/// Stateless replay (Theorem 3 stage 1): two passes, replayed payloads.
fn bench_quadratic_stateless(c: &mut Criterion) {
    let proto = StatelessTwoPass::new(3);
    let lang = proto.language().clone();
    let mut group = c.benchmark_group("engine_hot_loop/quadratic_stateless");
    for n in SIZES {
        let word = word_for(&lang, n, 0xE2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &word, |b, w| {
            b.iter(|| RingRunner::new().run(&proto, w).unwrap());
        });
    }
    group.finish();
}

/// Payload-heavy token: the Θ(n²)-bit `{wcw}` recognizer, whose token
/// carries the Θ(n)-bit prefix `w` on every hop. Each delivery adds the
/// payload codec's work (decode, absorb, re-encode ~n/2 bits) to the
/// engine floor that `one_pass` measures; `BENCH_0008.json` records it
/// next to the codec layer's per-bit cost.
fn bench_payload(c: &mut Criterion) {
    let proto = WcWPrefixForward::new();
    let lang = proto.language().clone();
    let mut group = c.benchmark_group("engine_hot_loop/payload");
    for n in [1025usize, 4097] {
        let word = word_for(&lang, n, 0xE3);
        group.bench_with_input(BenchmarkId::new("wcw", n), &word, |b, w| {
            b.iter(|| RingRunner::new().run(&proto, w).unwrap());
        });
    }
    group.finish();
}

/// Metrics overhead: the one-pass workload with an enabled
/// `ringleader_obs::Metrics` registry attached, measured against its own
/// unmetered twin (`off/<n>` vs `on/<n>`, timed back-to-back so machine
/// drift between bench groups cancels out). The serial engine only
/// touches the registry once per run (one counter flush when the leader
/// decides), so the metered run must track the twin within a few
/// percent — CI's perf-smoke gate enforces ≤3% at n = 4096, the bound
/// that justifies calling the layer zero-cost-when-disabled *and*
/// cheap-when-enabled. `BENCH_0007.json` is the checked-in snapshot.
fn bench_metered(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let proto = DfaOnePass::new(&lang);
    let mut group = c.benchmark_group("engine_hot_loop/metered");
    for n in SIZES {
        let word = word_for(&lang, n, 0xE0);
        group.bench_with_input(BenchmarkId::new("off", n), &word, |b, w| {
            b.iter(|| {
                let mut runner = RingRunner::new();
                runner.metrics(ringleader_obs::Metrics::disabled());
                runner.run(&proto, w).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("on", n), &word, |b, w| {
            let metrics = ringleader_obs::Metrics::enabled();
            b.iter(|| {
                let mut runner = RingRunner::new();
                runner.metrics(metrics.clone());
                runner.run(&proto, w).unwrap()
            });
        });
    }
    group.finish();
}

/// Bounded-trace cost: the one-pass workload untraced vs ring-traced
/// (capacity 1024) vs fully traced. The ring's push is O(1) with a
/// fixed-size buffer, so it must track the untraced run within a few
/// percent while the full trace pays O(events) retention — the reason
/// `large`/`massive` profiles get a tail at all.
fn bench_trace_ring(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let proto = DfaOnePass::new(&lang);
    let n = 4096usize;
    let word = word_for(&lang, n, 0xE0);
    let mut group = c.benchmark_group("engine_hot_loop/trace");
    group.bench_function("untraced", |b| {
        b.iter(|| RingRunner::new().run(&proto, &word).unwrap());
    });
    group.bench_function("ring_1024", |b| {
        b.iter(|| {
            let mut runner = RingRunner::new();
            runner.trace_ring(1024);
            runner.run(&proto, &word).unwrap()
        });
    });
    group.bench_function("full", |b| {
        b.iter(|| {
            let mut runner = RingRunner::new();
            runner.record_trace(true);
            runner.run(&proto, &word).unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    engine_hot_loop,
    bench_one_pass,
    bench_sampler,
    bench_bidir_collision,
    bench_quadratic_stateless,
    bench_payload,
    bench_metered,
    bench_trace_ring
);
criterion_main!(engine_hot_loop);
