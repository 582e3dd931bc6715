//! Scheduler-equivalence suite: the incremental active-link index must be
//! *behaviorally invisible* versus the seed implementation's full scan.
//!
//! Three layers of evidence:
//!
//! 1. **Index dynamics** — randomized push/deliver schedules drive the
//!    production [`LinkIndex`](ringleader_sim::LinkIndex) and the retained
//!    naive-scan oracle ([`sched_testkit::NaiveChooser`]) side by side;
//!    the chosen link sequences must match exactly for every policy,
//!    including the engine's single-link fast path (which for the random
//!    policy must consume identical RNG state).
//! 2. **Queue dynamics** — the same comparison through the real
//!    [`sched_testkit::Links`], which notifies its index only while two
//!    or more links are non-empty. Schedules keep a handful of messages
//!    in flight so occupancy crosses 1↔2 over and over, often with the
//!    lone link already holding a backlog when it is admitted.
//! 3. **Engine replay** — full runs of contention-heavy protocols record a
//!    trace; every `Deliver` event is then re-validated against what the
//!    naive oracle would have picked given the reconstructed queue state.
//!    This pins the engine integration end to end: queue bookkeeping,
//!    notification ordering, and the fast path.
//!
//! A final set of assertions uses the index's operation counter to show
//! the per-event cost is O(log n), not the seed engine's O(n) scan.

use std::collections::VecDeque;

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringleader_automata::{Alphabet, Symbol, Word};
use ringleader_bitio::{BitString, BitWriter};
use ringleader_sim::sched_testkit::{LinkView, Links, NaiveChooser};
use ringleader_sim::{
    sched_testkit, Context, Direction, EventKind, Process, ProcessResult, Protocol, RingRunner,
    Scheduler, Topology,
};

fn schedulers() -> [Scheduler; 4] {
    [
        Scheduler::Fifo,
        Scheduler::LongestQueue,
        Scheduler::Random { seed: 7 },
        Scheduler::Random { seed: 0xDEAD_BEEF },
    ]
}

/// Non-empty links of the model queues, as the oracle sees them.
fn views_of(queues: &[VecDeque<u64>]) -> Vec<LinkView> {
    queues
        .iter()
        .enumerate()
        .filter(|(_, q)| !q.is_empty())
        .map(|(id, q)| LinkView {
            id,
            backlog: q.len(),
            head_seq: *q.front().expect("filtered non-empty"),
        })
        .collect()
}

/// Drives the incremental index and the naive oracle through one identical
/// randomized schedule over `links` queues and asserts every choice
/// matches. Returns (events, index_ops) for the complexity assertions.
fn run_dynamics(scheduler: &Scheduler, links: usize, script: &[(u8, u16)]) -> (u64, u64) {
    let mut index = sched_testkit::build_index(scheduler, links);
    let mut oracle = NaiveChooser::new(scheduler);
    // Queue model: per-link FIFO of sequence numbers.
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); links];
    let mut occupied = 0usize;
    let mut id_xor = 0usize;
    let mut seq = 0u64;
    let mut events = 0u64;

    for &(action, link_hint) in script {
        // Bias towards pushes (2/3) so queues actually build backlog.
        let push = action % 3 != 0 || occupied == 0;
        if push {
            let link = link_hint as usize % links;
            queues[link].push_back(seq);
            if queues[link].len() == 1 {
                occupied += 1;
                id_xor ^= link;
            }
            index.on_push(link, seq, queues[link].len());
            seq += 1;
        } else {
            // Mirror the engine: skip the index when one link is non-empty.
            let chosen = if occupied == 1 {
                index.on_trivial_choose();
                id_xor
            } else {
                index.choose()
            };
            let expected = oracle.choose(&views_of(&queues));
            assert_eq!(
                chosen, expected,
                "{scheduler:?}: index and oracle disagree at event {events} \
                 (occupied={occupied})"
            );
            queues[chosen].pop_front();
            if queues[chosen].is_empty() {
                occupied -= 1;
                id_xor ^= chosen;
            }
            index.on_pop(chosen, queues[chosen].front().copied(), queues[chosen].len());
        }
        events += 1;
    }
    (events, index.index_ops())
}

proptest! {
    #[test]
    fn index_matches_oracle_on_random_dynamics(
        links in 1usize..24,
        script in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..400),
    ) {
        for scheduler in schedulers() {
            run_dynamics(&scheduler, links, &script);
        }
    }

    #[test]
    fn index_ops_stay_logarithmic(
        links in 2usize..64,
        script in proptest::collection::vec((any::<u8>(), any::<u16>()), 64..512),
    ) {
        for scheduler in schedulers() {
            let (events, ops) = run_dynamics(&scheduler, links, &script);
            // Each event costs O(log links) elementary index operations —
            // heap entry moves, bucket transfers, Fenwick node visits —
            // where the seed implementation's scan cost O(links). The
            // bound is generous (log₂ rounds up, +4 constant) but two
            // orders of magnitude below O(links) at engine scale.
            let budget = index_budget(events, links);
            prop_assert!(
                ops <= budget,
                "{scheduler:?}: {ops} index ops over {events} events exceeds \
                 amortized budget {budget} (links={links})"
            );
        }
    }
}

/// What one [`run_links`] schedule exercised.
#[derive(Debug, Default)]
struct LinksRun {
    events: u64,
    index_ops: u64,
    /// Pushes that took occupancy from one non-empty link to two.
    admits: u64,
    /// ... of which the lone link already held two or more messages.
    backlogged_admits: u64,
    /// Pops that took occupancy from two non-empty links to one.
    evicts: u64,
}

/// Drives the real [`Links`] and the naive oracle through one schedule.
///
/// Each step `(target, hint)` pushes while fewer than `target % 5`
/// messages are in flight (or none are) and delivers otherwise, so
/// occupancy hovers around one or two links. A push whose `hint` has its
/// top bit set goes to the lone non-empty link when there is one, which
/// builds the backlog it carries into the index when a second link opens.
/// Every pick must equal the oracle's, and every popped payload (the
/// message's seq) must be that link's oldest.
fn run_links(scheduler: &Scheduler, links: usize, script: &[(u8, u16)]) -> LinksRun {
    let mut real: Links<u64> = Links::new(links, scheduler);
    let mut oracle = NaiveChooser::new(scheduler);
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); links];
    let mut in_flight = 0usize;
    let mut seq = 0u64;
    let mut run = LinksRun::default();

    for &(target, hint) in script {
        let occupied = queues.iter().filter(|q| !q.is_empty()).count();
        assert_eq!(real.occupied(), occupied);
        if in_flight == 0 || in_flight < usize::from(target % 5) {
            let lone = queues.iter().position(|q| !q.is_empty()).filter(|_| occupied == 1);
            let link = match lone {
                Some(lone) if hint & 0x8000 != 0 => lone,
                _ => usize::from(hint) % links,
            };
            if occupied == 1 && queues[link].is_empty() {
                run.admits += 1;
                let lone = lone.expect("one non-empty link");
                if queues[lone].len() >= 2 {
                    run.backlogged_admits += 1;
                }
            }
            queues[link].push_back(seq);
            real.push(link, seq, seq);
            in_flight += 1;
            seq += 1;
        } else {
            let chosen = real.choose().expect("messages in flight");
            let expected = oracle.choose(&views_of(&queues));
            assert_eq!(
                chosen, expected,
                "{scheduler:?}: Links and oracle disagree at event {} (occupied={occupied})",
                run.events
            );
            assert_eq!(Some(real.pop(chosen)), queues[chosen].pop_front());
            assert_eq!(real.backlog(chosen), queues[chosen].len());
            if occupied == 2 && queues[chosen].is_empty() {
                run.evicts += 1;
            }
            in_flight -= 1;
        }
        run.events += 1;
    }
    assert_eq!(real.choose().is_none(), in_flight == 0);
    run.index_ops = real.index_ops();
    run
}

/// Amortized per-event budget of elementary index operations over
/// `links` queues: O(log links), generous constants.
fn index_budget(events: u64, links: usize) -> u64 {
    let log2 = usize::BITS as u64 - u64::from((2 * links - 1).leading_zeros());
    events * (2 * log2 + 4)
}

proptest! {
    #[test]
    fn links_match_oracle_across_occupancy_crossings(
        links in 1usize..24,
        script in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..400),
    ) {
        for scheduler in schedulers() {
            let run = run_links(&scheduler, links, &script);
            let budget = index_budget(run.events, links);
            prop_assert!(
                run.index_ops <= budget,
                "{:?}: {} index ops over {} events exceeds budget {}",
                scheduler, run.index_ops, run.events, budget
            );
        }
    }
}

/// A long seeded schedule must actually exercise the bypass: many 1↔2
/// crossings, including admits of a lone link holding a backlog of two or
/// more, with every pick still the oracle's.
#[test]
fn links_bypass_crosses_occupancy_repeatedly() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let script: Vec<(u8, u16)> = (0..20_000).map(|_| (rng.gen(), rng.gen())).collect();
    for links in [2usize, 3, 16, 1024] {
        for scheduler in schedulers() {
            let run = run_links(&scheduler, links, &script);
            assert!(run.admits >= 500, "{scheduler:?} links={links}: only {} admits", run.admits);
            assert!(
                run.backlogged_admits >= 100,
                "{scheduler:?} links={links}: only {} admits with backlog ≥ 2",
                run.backlogged_admits
            );
            assert!(run.evicts >= 500, "{scheduler:?} links={links}: only {} evicts", run.evicts);
            assert!(run.index_ops <= index_budget(run.events, links));
        }
    }
}

// ---------------------------------------------------------------------------
// Engine replay: full runs re-validated event by event against the oracle.
// ---------------------------------------------------------------------------

/// Leader launches `k` tokens clockwise and `k` counter-clockwise;
/// followers forward everything onward; the leader accepts once all `2k`
/// tokens return. With several tokens in flight the scheduler makes a
/// genuine choice at nearly every step.
struct TokenStorm {
    k: usize,
}

struct StormLeader {
    k: usize,
    returned: usize,
}

impl Process for StormLeader {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        for i in 0..self.k {
            let mut w = BitWriter::new();
            w.write_bits(i as u64, 4);
            ctx.send(Direction::Clockwise, w.finish());
            let mut w = BitWriter::new();
            w.write_bits(i as u64, 4).write_bit(true);
            ctx.send(Direction::CounterClockwise, w.finish());
        }
        Ok(())
    }

    fn on_message(&mut self, _d: Direction, _m: &BitString, ctx: &mut Context) -> ProcessResult {
        self.returned += 1;
        if self.returned == 2 * self.k {
            ctx.decide(true);
        }
        Ok(())
    }
}

struct StormFollower;

impl Process for StormFollower {
    fn on_message(&mut self, d: Direction, m: &BitString, ctx: &mut Context) -> ProcessResult {
        ctx.send(d, m.clone());
        Ok(())
    }
}

impl Protocol for TokenStorm {
    fn name(&self) -> &'static str {
        "token-storm"
    }
    fn topology(&self) -> Topology {
        Topology::Bidirectional
    }
    fn leader(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(StormLeader { k: self.k, returned: 0 })
    }
    fn follower(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(StormFollower)
    }
}

/// Link id for a send from `position` travelling in `direction` (the
/// engine's layout: 0..n clockwise, n..2n counter-clockwise).
fn link_of(position: usize, direction: Direction, n: usize) -> usize {
    match direction {
        Direction::Clockwise => position,
        Direction::CounterClockwise => n + (position + n - 1) % n,
    }
}

/// Receiving end of `link`: the position whose delivery events consume it.
fn receiver_of(link: usize, n: usize) -> (usize, Direction) {
    if link < n {
        ((link + 1) % n, Direction::Clockwise)
    } else {
        (link - n, Direction::CounterClockwise)
    }
}

/// Replays a traced run, asserting every delivery is the link the naive
/// scan oracle picks given the reconstructed queue state.
fn assert_trace_matches_oracle(scheduler: &Scheduler, n: usize, proto: &dyn Protocol) {
    let mut runner = RingRunner::new();
    runner.scheduler(scheduler.clone()).record_trace(true);
    let word = Word::from_str(&"0".repeat(n), &Alphabet::binary()).expect("binary word");
    let outcome = runner.run(proto, &word).expect("protocol completes");
    assert_eq!(outcome.decision, Some(true));

    let trace = outcome.trace.expect("trace was recorded");
    let mut oracle = NaiveChooser::new(scheduler);
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); 2 * n];
    let mut deliveries = 0usize;
    for event in trace.events() {
        match event.kind {
            EventKind::Send => {
                let link = link_of(event.position, event.direction, n);
                queues[link].push_back(event.seq);
            }
            EventKind::Deliver => {
                let expected = oracle.choose(&views_of(&queues));
                let (position, direction) = receiver_of(expected, n);
                assert_eq!(
                    (event.position, event.direction),
                    (position, direction),
                    "{scheduler:?} n={n}: delivery {deliveries} diverged from the oracle"
                );
                queues[expected].pop_front().expect("oracle picked a non-empty link");
                deliveries += 1;
            }
        }
    }
    assert_eq!(deliveries, outcome.stats.deliveries);
}

#[test]
fn engine_deliveries_match_oracle_for_all_policies() {
    for scheduler in schedulers() {
        for n in [1usize, 2, 3, 8, 17] {
            for k in [1usize, 3] {
                assert_trace_matches_oracle(&scheduler, n, &TokenStorm { k });
            }
        }
    }
}

/// A protocol with bursty, position-dependent fan-out: each follower
/// re-emits a shrinking burst, so backlogs differ across links and the
/// longest-queue policy faces real ties.
struct BurstRelay;

struct BurstLeader {
    originals: usize,
}

impl Process for BurstLeader {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        for _ in 0..3 {
            ctx.send(Direction::Clockwise, BitString::parse("1101").unwrap());
        }
        Ok(())
    }

    fn on_message(&mut self, _d: Direction, m: &BitString, ctx: &mut Context) -> ProcessResult {
        // Count only the three originals home; padding messages the
        // followers injected may legally still be in flight at decision.
        if m.count_ones() > 2 {
            self.originals += 1;
            if self.originals == 3 {
                ctx.decide(true);
            }
        }
        Ok(())
    }
}

struct BurstFollower {
    emitted: bool,
}

impl Process for BurstFollower {
    fn on_message(&mut self, d: Direction, m: &BitString, ctx: &mut Context) -> ProcessResult {
        ctx.send(d, m.clone());
        if !self.emitted && m.count_ones() > 2 {
            // One extra single-bit padding message per follower: builds
            // uneven backlogs so longest-queue faces genuine ties.
            ctx.send(d, BitString::parse("1").unwrap());
            self.emitted = true;
        }
        Ok(())
    }
}

impl Protocol for BurstRelay {
    fn name(&self) -> &'static str {
        "burst-relay"
    }
    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }
    fn leader(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(BurstLeader { originals: 0 })
    }
    fn follower(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(BurstFollower { emitted: false })
    }
}

#[test]
fn engine_deliveries_match_oracle_under_bursts() {
    for scheduler in schedulers() {
        for n in [2usize, 5, 12] {
            assert_trace_matches_oracle(&scheduler, n, &BurstRelay);
        }
    }
}

// ---------------------------------------------------------------------------
// Asymptotics: per-event engine cost must not scale with ring size.
// ---------------------------------------------------------------------------

/// One-pass unidirectional run: `n` deliveries, one message in flight.
struct OnePassToken;

impl Protocol for OnePassToken {
    fn name(&self) -> &'static str {
        "one-pass-token"
    }
    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }
    fn leader(&self, _input: Symbol) -> Box<dyn Process> {
        struct L;
        impl Process for L {
            fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                ctx.send(Direction::Clockwise, BitString::parse("10110101").unwrap());
                Ok(())
            }
            fn on_message(
                &mut self,
                _d: Direction,
                _m: &BitString,
                ctx: &mut Context,
            ) -> ProcessResult {
                ctx.decide(true);
                Ok(())
            }
        }
        Box::new(L)
    }
    fn follower(&self, _input: Symbol) -> Box<dyn Process> {
        struct F;
        impl Process for F {
            fn on_message(
                &mut self,
                d: Direction,
                m: &BitString,
                ctx: &mut Context,
            ) -> ProcessResult {
                ctx.send(d, m.clone());
                Ok(())
            }
        }
        Box::new(F)
    }
}

fn time_run(runner: &RingRunner, proto: &dyn Protocol, n: usize, reps: u32) -> std::time::Duration {
    let word = Word::from_str(&"0".repeat(n), &Alphabet::binary()).expect("binary word");
    // Warm up allocator and caches once.
    runner.run(proto, &word).expect("run succeeds");
    let start = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(runner.run(proto, &word).expect("run succeeds"));
    }
    start.elapsed() / reps
}

/// The headline acceptance property behind the ≥5× `engine_hot_loop`
/// speedup at n = 4096: with the incremental index, growing the ring 8×
/// grows the *total* run time ~8× (deliveries) — not 64× (deliveries ×
/// scan width). The seed engine's measured ratio was ≈ 55; an engine
/// doing any per-event full scan cannot come in under the bound asserted
/// here. Timing-based, so it runs in the nightly soak
/// (`--include-ignored`), not on every push.
#[test]
#[ignore = "timing-sensitive; nightly soak runs with --include-ignored"]
fn per_event_cost_is_flat_in_ring_size() {
    let runner = RingRunner::new();
    let small = time_run(&runner, &OnePassToken, 512, 20);
    let large = time_run(&runner, &OnePassToken, 4096, 5);
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    // 8× the deliveries: the ratio should sit near 8. Allow generous
    // noise headroom; the O(n·deliveries) seed engine measured ≈ 55×.
    assert!(
        ratio < 24.0,
        "n=4096 run is {ratio:.1}× the n=512 run — per-event cost is scaling with n \
         (was the incremental index bypassed?)"
    );
}
