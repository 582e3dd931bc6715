//! The discrete-event execution engine.

use ringleader_automata::Word;
use ringleader_obs::Metrics;

use crate::context::{Context, Process, Protocol};
use crate::faults::FaultPlan;
use crate::sched::Links;
use crate::trace::{EventKind, Trace, TraceEvent, TraceRing, TraceSink};
use crate::{Direction, ExecStats, Scheduler, SimError, Topology};

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The leader's decision (`Some(true)` = accept). Always `Some` for a
    /// successful run.
    pub decision: Option<bool>,
    /// Bit-complexity accounting.
    pub stats: ExecStats,
    /// Full event trace, when [`RingRunner::record_trace`] was enabled.
    pub trace: Option<Trace>,
    /// Bounded trace, when [`RingRunner::trace_ring`] was enabled.
    pub trace_ring: Option<TraceRing>,
}

impl Outcome {
    /// The decision, treating the (unreachable for well-formed protocols)
    /// missing case as reject.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.decision == Some(true)
    }
}

/// Configures and runs protocol executions on a simulated ring.
///
/// A non-consuming builder: configure scheduling, tracing, the known-`n`
/// mode, and an event budget, then call [`run`](RingRunner::run) any
/// number of times.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct RingRunner {
    scheduler: Scheduler,
    record_trace: bool,
    trace_ring: Option<usize>,
    known_ring_size: bool,
    max_events: usize,
    fault_plan: Option<FaultPlan>,
    metrics: Metrics,
}

impl Default for RingRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl RingRunner {
    /// A runner with FIFO scheduling, no tracing, unknown ring size, and a
    /// generous event budget.
    #[must_use]
    pub fn new() -> Self {
        Self {
            scheduler: Scheduler::Fifo,
            record_trace: false,
            trace_ring: None,
            known_ring_size: false,
            max_events: 50_000_000,
            fault_plan: None,
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a metrics handle: run-level counters, histograms, and
    /// timings flow into it (see the crate docs' Observability section).
    /// The default disabled handle costs nothing; either way the run's
    /// observables are byte-identical — metrics read state, never feed
    /// it, and the equivalence suite pins exactly that.
    pub fn metrics(&mut self, metrics: Metrics) -> &mut Self {
        self.metrics = metrics;
        self
    }

    /// Chooses the delivery [`Scheduler`].
    pub fn scheduler(&mut self, scheduler: Scheduler) -> &mut Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables or disables full event tracing (needed for information-state
    /// extraction and token-discipline validation).
    pub fn record_trace(&mut self, on: bool) -> &mut Self {
        self.record_trace = on;
        self
    }

    /// Enables bounded tracing: keep only the last `capacity` events in a
    /// [`TraceRing`] (plus streamed per-interval stats), the O(capacity)
    /// alternative to [`record_trace`](RingRunner::record_trace) for
    /// `large`/`massive` runs. `0` disables the ring.
    ///
    /// Like full tracing, ring tracing makes deliveries consume sequence
    /// numbers, so a ring-traced run is event-for-event comparable to a
    /// fully-traced one (and differs in seq numbering from an untraced
    /// one, exactly as full tracing always has).
    pub fn trace_ring(&mut self, capacity: usize) -> &mut Self {
        self.trace_ring = (capacity > 0).then_some(capacity);
        self
    }

    /// Installs a deterministic [`FaultPlan`] applied on every delivery.
    /// An empty plan (the default) costs nothing.
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Switches the paper's Note 7.4 mode on: every processor learns `n`
    /// via [`Context::known_ring_size`].
    pub fn known_ring_size(&mut self, on: bool) -> &mut Self {
        self.known_ring_size = on;
        self
    }

    /// Caps the number of deliveries before the run aborts with
    /// [`SimError::EventLimitExceeded`]. Guards against runaway protocols.
    pub fn max_events(&mut self, limit: usize) -> &mut Self {
        self.max_events = limit;
        self
    }

    /// Executes `protocol` on the ring labelled with `word`.
    ///
    /// Processor `i` receives letter `word[i]`; processor 0 is the leader
    /// and is started exactly once. The run ends when the leader decides.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyRing`] for an empty word.
    /// * [`SimError::IllegalSend`] / [`SimError::FollowerDecided`] /
    ///   [`SimError::Process`] on protocol bugs.
    /// * [`SimError::Stalled`] if traffic dries up without a decision.
    /// * [`SimError::EventLimitExceeded`] if the budget is exhausted.
    pub fn run(&self, protocol: &dyn Protocol, word: &Word) -> Result<Outcome, SimError> {
        let n = word.len();
        if n == 0 {
            return Err(SimError::EmptyRing);
        }
        let topology = protocol.topology();
        let mut processes: Vec<Box<dyn Process>> = Vec::with_capacity(n);
        for (i, &sym) in word.symbols().iter().enumerate() {
            processes.push(if i == 0 { protocol.leader(sym) } else { protocol.follower(sym) });
        }

        let mut links: Links = Links::new(2 * n, &self.scheduler);
        let mut stats = ExecStats::new(n);
        let mut sink = TraceSink::new(self.record_trace, self.trace_ring);
        let mut seq: u64 = 0;
        let mut deliveries: usize = 0;
        let mut position_deliveries: Vec<u64> = vec![0; n];

        // One context for the whole run; reset per event so the outbox
        // buffer's allocation is reused across deliveries.
        let mut ctx = Context::new(true, self.known_ring_size.then_some(n));

        // Start the leader.
        processes[0]
            .on_start(&mut ctx)
            .map_err(|source| SimError::Process { position: 0, source })?;
        let mut decision =
            apply_effects(&mut ctx, 0, n, topology, &mut links, &mut stats, &mut sink, &mut seq)?;

        let fault_plan = self.fault_plan.as_ref();

        while decision.is_none() {
            let Some(link) = links.choose() else {
                return Err(SimError::Stalled { deliveries });
            };
            if deliveries >= self.max_events {
                return Err(SimError::EventLimitExceeded { limit: self.max_events });
            }
            let mut payload = links.pop(link);
            deliveries += 1;

            // Decode link id back to (receiver, direction of travel).
            let (receiver, direction) = if link < n {
                ((link + 1) % n, Direction::Clockwise)
            } else {
                (link - n, Direction::CounterClockwise)
            };

            position_deliveries[receiver] += 1;
            let fault =
                fault_plan.and_then(|p| p.for_delivery(receiver, position_deliveries[receiver]));
            if let Some(c) = fault.as_ref().and_then(|f| f.corrupt.as_ref()) {
                payload = c.apply(&payload);
            }

            if sink.active() {
                sink.push(TraceEvent {
                    seq,
                    kind: EventKind::Deliver,
                    position: receiver,
                    direction,
                    payload: payload.clone(),
                });
                seq += 1;
            }

            ctx.reset(receiver == 0);
            processes[receiver]
                .on_message(direction, &payload, &mut ctx)
                .map_err(|source| SimError::Process { position: receiver, source })?;
            if let Some(f) = &fault {
                if f.stall {
                    // Swallow the handler's effects: the processor "hangs".
                    ctx.reset(receiver == 0);
                }
                for (d, p) in &f.inject_sends {
                    ctx.send(*d, p.clone());
                }
                if let Some(accept) = f.inject_decide {
                    ctx.decide(accept);
                }
            }
            decision = apply_effects(
                &mut ctx, receiver, n, topology, &mut links, &mut stats, &mut sink, &mut seq,
            )?;
        }

        stats.deliveries = deliveries;
        flush_engine_metrics(&self.metrics, &stats, sink.ring.as_ref());
        Ok(Outcome { decision, stats, trace: sink.trace, trace_ring: sink.ring })
    }
}

/// Folds a completed run's already-computed totals into the metrics
/// registry — one call when the leader decides, zero hot-loop cost.
/// Scheduler picks equal deliveries on the event engine (every pick
/// delivers exactly one message); bit-rounds is the max over per-link
/// bit totals, the unit of the Θ(D + log n) bound in PAPERS.md.
fn flush_engine_metrics(metrics: &Metrics, stats: &ExecStats, ring: Option<&TraceRing>) {
    if !metrics.is_enabled() {
        return;
    }
    metrics.counter_add("engine.deliveries", stats.deliveries as u64);
    metrics.counter_add("engine.scheduler_picks", stats.deliveries as u64);
    metrics.counter_add("engine.messages", stats.message_count as u64);
    metrics.counter_add("engine.bits_sent", stats.total_bits as u64);
    metrics.gauge_max("engine.max_message_bits", stats.max_message_bits as u64);
    let bit_rounds = stats
        .clockwise_link_bits
        .iter()
        .chain(stats.counter_clockwise_link_bits.iter())
        .copied()
        .max()
        .unwrap_or(0);
    metrics.gauge_max("engine.bit_rounds", bit_rounds as u64);
    if let Some(ring) = ring {
        metrics.counter_add("trace.ring_drops", ring.dropped());
    }
}

/// Applies a handler's buffered sends/decision, draining the context for
/// reuse. Returns the decision if the leader made one.
#[allow(clippy::too_many_arguments)]
fn apply_effects(
    ctx: &mut Context,
    position: usize,
    n: usize,
    topology: Topology,
    links: &mut Links,
    stats: &mut ExecStats,
    sink: &mut TraceSink,
    seq: &mut u64,
) -> Result<Option<bool>, SimError> {
    let decision = ctx.take_decision();
    if decision.is_some() && position != 0 {
        return Err(SimError::FollowerDecided { position });
    }
    for (direction, payload) in ctx.drain_outbox() {
        if !topology.allows(position, direction, n) {
            return Err(SimError::IllegalSend { position, direction });
        }
        stats.record_send(position, direction, payload.len());
        if sink.active() {
            sink.push(TraceEvent {
                seq: *seq,
                kind: EventKind::Send,
                position,
                direction,
                payload: payload.clone(),
            });
        }
        let link = match direction {
            Direction::Clockwise => position,
            // p_i sending counter-clockwise feeds the queue stored at n + (i-1 mod n).
            Direction::CounterClockwise => n + (position + n - 1) % n,
        };
        links.push(link, *seq, payload);
        *seq += 1;
    }
    Ok(decision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ProcessResult, Protocol};
    use ringleader_automata::{Alphabet, Symbol};
    use ringleader_bitio::BitString;

    /// Forwards any message onward; used as the default follower.
    struct Forwarder;
    impl Process for Forwarder {
        fn on_message(
            &mut self,
            dir: Direction,
            msg: &BitString,
            ctx: &mut Context,
        ) -> ProcessResult {
            ctx.send(dir, msg.clone());
            Ok(())
        }
    }

    /// Leader sends one 3-bit message clockwise; accepts when it returns.
    struct RoundTripLeader;
    impl Process for RoundTripLeader {
        fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
            ctx.send(Direction::Clockwise, BitString::parse("101").unwrap());
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

    struct RoundTrip;
    impl Protocol for RoundTrip {
        fn name(&self) -> &'static str {
            "round-trip"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(RoundTripLeader)
        }
        fn follower(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(Forwarder)
        }
    }

    fn word(n: usize) -> Word {
        let sigma = Alphabet::binary();
        Word::from_str(&"0".repeat(n), &sigma).unwrap()
    }

    #[test]
    fn round_trip_counts_bits_per_hop() {
        for n in [1usize, 2, 3, 10, 100] {
            let outcome = RingRunner::new().run(&RoundTrip, &word(n)).unwrap();
            assert_eq!(outcome.decision, Some(true), "n={n}");
            assert_eq!(outcome.stats.total_bits, 3 * n, "n={n}");
            assert_eq!(outcome.stats.message_count, n, "n={n}");
            assert_eq!(outcome.stats.max_message_bits, 3, "n={n}");
        }
    }

    #[test]
    fn empty_ring_rejected() {
        let w = Word::new();
        assert!(matches!(RingRunner::new().run(&RoundTrip, &w), Err(SimError::EmptyRing)));
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let mut runner = RingRunner::new();
        runner.record_trace(true);
        let outcome = runner.run(&RoundTrip, &word(3)).unwrap();
        let trace = outcome.trace.unwrap();
        // 3 sends + 3 deliveries.
        assert_eq!(trace.events().len(), 6);
        let sends = trace.events().iter().filter(|e| e.kind == EventKind::Send).count();
        assert_eq!(sends, 3);
        // Info states: every processor sent once and received once... except
        // the leader ordering (send first, then receive).
        let inputs = vec![Symbol(0); 3];
        let states = trace.info_states(&inputs);
        assert_eq!(states[0].entries.len(), 2);
        assert_eq!(states[1].entries.len(), 2);
    }

    #[test]
    fn trace_ring_holds_the_tail_of_the_full_trace() {
        let capacity = 4;
        let mut full = RingRunner::new();
        full.record_trace(true);
        let trace = full.run(&RoundTrip, &word(10)).unwrap().trace.unwrap();
        let mut ringed = RingRunner::new();
        ringed.trace_ring(capacity);
        let ring = ringed.run(&RoundTrip, &word(10)).unwrap().trace_ring.unwrap();
        let tail: Vec<_> = trace.events().iter().rev().take(capacity).rev().collect();
        assert_eq!(ring.tail(capacity), tail);
        assert_eq!(ring.dropped() as usize, trace.events().len() - capacity);
    }

    /// Protocol violating direction rules on a unidirectional ring.
    struct BadDirection;
    impl Protocol for BadDirection {
        fn name(&self) -> &'static str {
            "bad-direction"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            struct L;
            impl Process for L {
                fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                    ctx.send(Direction::CounterClockwise, BitString::parse("1").unwrap());
                    Ok(())
                }
                fn on_message(
                    &mut self,
                    _d: Direction,
                    _m: &BitString,
                    _c: &mut Context,
                ) -> ProcessResult {
                    Ok(())
                }
            }
            Box::new(L)
        }
        fn follower(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(Forwarder)
        }
    }

    #[test]
    fn illegal_direction_aborts() {
        let err = RingRunner::new().run(&BadDirection, &word(3)).unwrap_err();
        assert!(matches!(err, SimError::IllegalSend { position: 0, .. }));
    }

    /// A follower that (illegally) decides.
    struct RogueFollower;
    impl Protocol for RogueFollower {
        fn name(&self) -> &'static str {
            "rogue"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(RoundTripLeader)
        }
        fn follower(&self, _input: Symbol) -> Box<dyn Process> {
            struct F;
            impl Process for F {
                fn on_message(
                    &mut self,
                    _d: Direction,
                    _m: &BitString,
                    ctx: &mut Context,
                ) -> ProcessResult {
                    ctx.decide(false);
                    Ok(())
                }
            }
            Box::new(F)
        }
    }

    #[test]
    fn follower_decision_aborts() {
        let err = RingRunner::new().run(&RogueFollower, &word(3)).unwrap_err();
        assert!(matches!(err, SimError::FollowerDecided { position: 1 }));
    }

    /// A leader that never decides and sends nothing.
    struct Silent;
    impl Protocol for Silent {
        fn name(&self) -> &'static str {
            "silent"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            struct L;
            impl Process for L {
                fn on_message(
                    &mut self,
                    _d: Direction,
                    _m: &BitString,
                    _c: &mut Context,
                ) -> ProcessResult {
                    Ok(())
                }
            }
            Box::new(L)
        }
        fn follower(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(Forwarder)
        }
    }

    #[test]
    fn quiescence_without_decision_is_stalled() {
        let err = RingRunner::new().run(&Silent, &word(3)).unwrap_err();
        assert!(matches!(err, SimError::Stalled { deliveries: 0 }));
    }

    /// A two-processor ping-pong that never terminates.
    struct Livelock;
    impl Protocol for Livelock {
        fn name(&self) -> &'static str {
            "livelock"
        }
        fn topology(&self) -> Topology {
            Topology::Bidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            struct L;
            impl Process for L {
                fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                    ctx.send(Direction::Clockwise, BitString::parse("1").unwrap());
                    Ok(())
                }
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
            Box::new(L)
        }
        fn follower(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(Forwarder)
        }
    }

    #[test]
    fn event_limit_stops_runaways() {
        let mut runner = RingRunner::new();
        runner.max_events(100);
        let err = runner.run(&Livelock, &word(2)).unwrap_err();
        assert!(matches!(err, SimError::EventLimitExceeded { limit: 100 }));
    }

    #[test]
    fn known_ring_size_mode_is_visible() {
        struct NProtocol;
        impl Protocol for NProtocol {
            fn name(&self) -> &'static str {
                "known-n"
            }
            fn topology(&self) -> Topology {
                Topology::Unidirectional
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L;
                impl Process for L {
                    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                        // Decide immediately based on n: accept even sizes.
                        let n = ctx.known_ring_size().expect("runner set known_ring_size");
                        ctx.decide(n % 2 == 0);
                        Ok(())
                    }
                    fn on_message(
                        &mut self,
                        _d: Direction,
                        _m: &BitString,
                        _c: &mut Context,
                    ) -> ProcessResult {
                        Ok(())
                    }
                }
                Box::new(L)
            }
            fn follower(&self, _input: Symbol) -> Box<dyn Process> {
                Box::new(Forwarder)
            }
        }
        let mut runner = RingRunner::new();
        runner.known_ring_size(true);
        assert!(runner.run(&NProtocol, &word(4)).unwrap().accepted());
        assert!(!runner.run(&NProtocol, &word(5)).unwrap().accepted());
    }

    #[test]
    fn single_processor_ring_self_loop() {
        // n = 1: the leader's clockwise neighbour is itself.
        let outcome = RingRunner::new().run(&RoundTrip, &word(1)).unwrap();
        assert!(outcome.accepted());
        assert_eq!(outcome.stats.total_bits, 3);
    }

    #[test]
    fn bidirectional_messages_cross() {
        /// Leader probes both ways; accepts after both probes return.
        struct BothWays;
        impl Protocol for BothWays {
            fn name(&self) -> &'static str {
                "both-ways"
            }
            fn topology(&self) -> Topology {
                Topology::Bidirectional
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L {
                    seen: usize,
                }
                impl Process for L {
                    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                        ctx.send(Direction::Clockwise, BitString::parse("10").unwrap());
                        ctx.send(Direction::CounterClockwise, BitString::parse("01").unwrap());
                        Ok(())
                    }
                    fn on_message(
                        &mut self,
                        _d: Direction,
                        _m: &BitString,
                        ctx: &mut Context,
                    ) -> ProcessResult {
                        self.seen += 1;
                        if self.seen == 2 {
                            ctx.decide(true);
                        }
                        Ok(())
                    }
                }
                Box::new(L { seen: 0 })
            }
            fn follower(&self, _input: Symbol) -> Box<dyn Process> {
                Box::new(Forwarder)
            }
        }
        for scheduler in [Scheduler::Fifo, Scheduler::Random { seed: 3 }, Scheduler::LongestQueue] {
            let mut runner = RingRunner::new();
            runner.scheduler(scheduler);
            let outcome = runner.run(&BothWays, &word(5)).unwrap();
            assert!(outcome.accepted());
            // Two probes, each crossing all 5 links once: 2 bits * 5 hops * 2 directions.
            assert_eq!(outcome.stats.total_bits, 20);
        }
    }

    #[test]
    fn line_topology_blocks_wraparound() {
        struct LineWrap;
        impl Protocol for LineWrap {
            fn name(&self) -> &'static str {
                "line-wrap"
            }
            fn topology(&self) -> Topology {
                Topology::Line
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L;
                impl Process for L {
                    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                        // Illegal: leader's counter-clockwise link does not exist on a line.
                        ctx.send(Direction::CounterClockwise, BitString::parse("1").unwrap());
                        Ok(())
                    }
                    fn on_message(
                        &mut self,
                        _d: Direction,
                        _m: &BitString,
                        _c: &mut Context,
                    ) -> ProcessResult {
                        Ok(())
                    }
                }
                Box::new(L)
            }
            fn follower(&self, _input: Symbol) -> Box<dyn Process> {
                Box::new(Forwarder)
            }
        }
        let err = RingRunner::new().run(&LineWrap, &word(4)).unwrap_err();
        assert!(matches!(
            err,
            SimError::IllegalSend { position: 0, direction: Direction::CounterClockwise }
        ));
    }
}
