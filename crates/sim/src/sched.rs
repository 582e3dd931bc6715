//! Delivery scheduling — the asynchrony adversary.
//!
//! In the asynchronous model every message has an arbitrary finite delay.
//! The engine models this by keeping one FIFO queue per link and letting a
//! scheduling policy choose, at each step, *which non-empty link* delivers
//! its head message. FIFO-per-link is preserved in every policy (links are
//! channels); the adversary only controls interleaving across links.
//!
//! # The incremental active-link index
//!
//! Naively, each delivery would scan all `2n` link queues to collect the
//! non-empty ones and then apply the policy — O(n) engine overhead *per
//! event*, an extra factor of `n` on exactly the large rings where the
//! paper's Θ(n log n)-bit protocols get interesting. Instead, every policy
//! here is a stateful [`LinkIndex`] that [`Links`] keeps in sync with the
//! queues (`on_push` / `on_pop`) and asks `choose()` for the next link,
//! which each policy answers in O(1) or O(log n):
//!
//! * [`Scheduler::Fifo`] — a monotone **min-heap** keyed by the head
//!   message's global sequence number. A link owns exactly one heap entry
//!   while tracked; a pop replaces the entry with the link's next head
//!   (whose seq is strictly larger), so lazy deletion is never needed.
//! * [`Scheduler::LongestQueue`] — **backlog buckets**: `buckets[b]` holds
//!   the ids of links with backlog `b` (an ordered set, because ties break
//!   towards the lowest id). Pushes and pops move a link one bucket up or
//!   down; tracking the maximum is amortized O(1).
//! * [`Scheduler::Random`] — a **Fenwick (binary indexed) tree** over link
//!   ids storing 1 for each tracked link. `choose()` draws `k` and finds
//!   the `k`-th smallest tracked id by binary descent. The tree — rather
//!   than a dense swap-remove vector — is what keeps the policy
//!   *byte-identical* to the historical scan implementation: the scan
//!   indexed into the id-sorted list of non-empty links, so the `k`-th
//!   pick must be the `k`-th smallest id, an order a swap-remove vector
//!   does not maintain.
//!
//! # The index only runs under contention
//!
//! One-pass protocols keep exactly one message in flight, so most
//! deliveries have a single candidate. [`Links`] tracks that case itself
//! (an occupancy count and the xor of non-empty link ids) and notifies
//! the index only while two or more links are non-empty. When occupancy
//! falls 2→1 the survivor stays in the index, *parked*. When occupancy
//! goes 1→2 again, `Links` [`evict`](LinkIndex::evict)s the parked link
//! and [`admit`](LinkIndex::admit)s the lone one, with whatever backlog
//! it built up meanwhile; both are skipped when no queue changed since
//! the survivor was parked. Two tokens that take turns emptying one link
//! and opening the next (the bidirectional protocols) thus cost the index
//! one pop and one push per delivery, not an evict and an admit on top.
//! Picks with one candidate call
//! [`on_trivial_choose`](LinkIndex::on_trivial_choose) instead, so
//! `Random` consumes the same RNG stream either way and every pick is the
//! one a fully notified index would make.
//!
//! # Oracle testing
//!
//! The pre-index scan implementation is retained as a *reference oracle*
//! ([`testkit::NaiveChooser`], `#[doc(hidden)]`, compiled only for tests
//! and the scheduler-equivalence suite): given the full list of non-empty
//! links it picks exactly what the seed engine picked. Property tests
//! (`crates/sim/tests/sched_equiv.rs`) drive both a fully notified index
//! and the real [`Links`] (with its admit/evict bypass) through
//! randomized push/deliver schedules and assert the chosen link sequences
//! are identical for every policy, and the engine's own determinism suite
//! pins full-run equivalence. Each index also counts its elementary
//! operations ([`LinkIndex::index_ops`]) so tests can assert the
//! per-event cost stays O(log n) instead of O(n).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringleader_bitio::BitString;

/// Policy choosing the next link to deliver from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Scheduler {
    /// Deliver messages in global send order (the "synchronous-looking"
    /// baseline; still a legal asynchronous execution).
    #[default]
    Fifo,
    /// Uniformly random choice among non-empty links, seeded for
    /// reproducibility.
    Random {
        /// RNG seed; equal seeds give equal executions.
        seed: u64,
    },
    /// Always deliver from the non-empty link with the *largest* backlog,
    /// breaking ties by lowest link index. A simple adversarial policy
    /// that maximizes reordering across links.
    LongestQueue,
}

impl Scheduler {
    /// Builds the incremental index for a ring with `links` link queues.
    pub(crate) fn build_index(&self, links: usize) -> Box<dyn LinkIndex> {
        match self {
            Scheduler::Fifo => Box::new(FifoIndex::new()),
            Scheduler::Random { seed } => Box::new(RandomIndex::new(links, *seed)),
            Scheduler::LongestQueue => Box::new(LongestQueueIndex::new()),
        }
    }
}

/// An incrementally maintained index over a set of *tracked* links.
///
/// A link becomes tracked when [`on_push`](LinkIndex::on_push) reports
/// backlog 1 or when it is [`admit`](LinkIndex::admit)ted, and stops being
/// tracked when [`on_pop`](LinkIndex::on_pop) reports backlog 0 or when it
/// is [`evict`](LinkIndex::evict)ed. [`choose`](LinkIndex::choose) returns
/// the policy's pick among the tracked links without scanning them.
///
/// [`Links`] owns one `LinkIndex` per run and notifies it only while two
/// or more links are non-empty, so the tracked set is then exactly the
/// non-empty links; otherwise it holds at most one parked link, which
/// `Links` evicts before the index is next asked to choose. A caller that
/// notifies every queue operation and never admits or evicts (as the
/// scheduler-equivalence suite does) gets the same picks.
///
/// Contract (upheld by [`Links`], asserted in debug builds):
///
/// * notifications report the queue state *after* the operation;
/// * only the link most recently returned by `choose` is popped while
///   tracked;
/// * `admit` is called only while no link is tracked, and `evict` only on
///   the one link still tracked.
///
/// This trait is public only so the scheduler-equivalence tests can drive
/// implementations directly; it is not part of the supported API.
#[doc(hidden)]
pub trait LinkIndex {
    /// A message with global sequence number `seq` was enqueued on `link`;
    /// the link's backlog is now `backlog` (≥ 1).
    fn on_push(&mut self, link: usize, seq: u64, backlog: usize);

    /// The head message of `link` was dequeued; the link's new head (if
    /// any) has sequence number `next_head_seq` and the backlog is now
    /// `backlog`.
    fn on_pop(&mut self, link: usize, next_head_seq: Option<u64>, backlog: usize);

    /// The policy's pick among the tracked links. Must not be called
    /// while no link is tracked.
    fn choose(&mut self) -> usize;

    /// Starts tracking `link`, which already holds `backlog` (≥ 1)
    /// messages, the oldest with sequence number `head_seq`.
    fn admit(&mut self, link: usize, head_seq: u64, backlog: usize);

    /// Stops tracking `link`, which still holds `backlog` (≥ 1) messages.
    fn evict(&mut self, link: usize, backlog: usize);

    /// Invoked *instead of* [`choose`](LinkIndex::choose) when exactly one
    /// link is non-empty and [`Links`] short-circuits the pick. Policies
    /// whose choice has side effects (the random policy consumes RNG
    /// state) replicate them here so executions stay identical with and
    /// without the fast path.
    fn on_trivial_choose(&mut self) {}

    /// Cumulative count of elementary index operations (heap pushes/pops,
    /// bucket moves, Fenwick node visits). Test instrumentation: the
    /// equivalence suite asserts this stays O(log n) per event where the
    /// historical scan cost O(n).
    fn index_ops(&self) -> u64;
}

/// FIFO policy: a min-heap of `(head_seq, link)` with one entry per
/// non-empty link.
///
/// Sequence numbers within a link are strictly increasing, so the global
/// minimum over all queued messages always sits at some link's head and
/// the heap top is exactly the scan's `min_by_key(head_seq)` pick.
struct FifoIndex {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    ops: u64,
}

impl FifoIndex {
    fn new() -> Self {
        Self { heap: BinaryHeap::new(), ops: 0 }
    }
}

impl LinkIndex for FifoIndex {
    fn on_push(&mut self, link: usize, seq: u64, backlog: usize) {
        self.ops += 1;
        // Only a push that makes the link non-empty changes its head.
        if backlog == 1 {
            self.heap.push(Reverse((seq, link)));
        }
    }

    fn on_pop(&mut self, link: usize, next_head_seq: Option<u64>, _backlog: usize) {
        self.ops += 1;
        // The engine pops only the link this policy chose, which is the
        // heap top; replace its entry with the link's next head, if any.
        let top = self.heap.pop().expect("pop notification without queued links");
        debug_assert_eq!(top.0 .1, link, "popped link must be the FIFO minimum");
        if let Some(seq) = next_head_seq {
            self.heap.push(Reverse((seq, link)));
        }
    }

    fn choose(&mut self) -> usize {
        self.ops += 1;
        self.heap.peek().expect("choose() requires a tracked link").0 .1
    }

    fn admit(&mut self, link: usize, head_seq: u64, _backlog: usize) {
        self.ops += 1;
        self.heap.push(Reverse((head_seq, link)));
    }

    fn evict(&mut self, link: usize, _backlog: usize) {
        self.ops += 1;
        // The evicted link is the only one tracked, hence the heap's only
        // entry.
        let last = self.heap.pop().expect("evict() requires a tracked link");
        debug_assert_eq!(last.0 .1, link, "evicted link must be the last tracked one");
        debug_assert!(self.heap.is_empty(), "evict() with other links still tracked");
    }

    fn index_ops(&self) -> u64 {
        self.ops
    }
}

/// Longest-queue policy: links bucketed by backlog, ordered within each
/// bucket so ties break towards the lowest id.
struct LongestQueueIndex {
    /// `buckets[b]` = ids of links whose backlog is exactly `b` (`b ≥ 1`).
    buckets: Vec<BTreeSet<usize>>,
    /// Largest `b` with `buckets[b]` non-empty; 0 when all links are empty.
    max_backlog: usize,
    ops: u64,
}

impl LongestQueueIndex {
    fn new() -> Self {
        Self { buckets: vec![BTreeSet::new(); 2], max_backlog: 0, ops: 0 }
    }

    fn move_link(&mut self, link: usize, from: usize, to: usize) {
        if from > 0 {
            let removed = self.buckets[from].remove(&link);
            debug_assert!(removed, "link {link} missing from backlog bucket {from}");
        }
        if to > 0 {
            if self.buckets.len() <= to {
                self.buckets.resize(to + 1, BTreeSet::new());
            }
            self.buckets[to].insert(link);
        }
    }

    /// Lowers `max_backlog` to the largest non-empty bucket. Each step is
    /// paid for by an earlier push that raised some link's backlog (an
    /// admitted link's backlog counts the pushes it took while untracked).
    fn settle_max(&mut self) {
        while self.max_backlog > 0 && self.buckets[self.max_backlog].is_empty() {
            self.max_backlog -= 1;
            self.ops += 1;
        }
    }
}

impl LinkIndex for LongestQueueIndex {
    fn on_push(&mut self, link: usize, _seq: u64, backlog: usize) {
        self.ops += 1;
        self.move_link(link, backlog - 1, backlog);
        self.max_backlog = self.max_backlog.max(backlog);
    }

    fn on_pop(&mut self, link: usize, _next_head_seq: Option<u64>, backlog: usize) {
        self.ops += 1;
        self.move_link(link, backlog + 1, backlog);
        self.settle_max();
    }

    fn choose(&mut self) -> usize {
        self.ops += 1;
        *self.buckets[self.max_backlog].iter().next().expect("choose() requires a tracked link")
    }

    fn admit(&mut self, link: usize, _head_seq: u64, backlog: usize) {
        self.ops += 1;
        self.move_link(link, 0, backlog);
        self.max_backlog = self.max_backlog.max(backlog);
    }

    fn evict(&mut self, link: usize, backlog: usize) {
        self.ops += 1;
        self.move_link(link, backlog, 0);
        self.settle_max();
    }

    fn index_ops(&self) -> u64 {
        self.ops
    }
}

/// Random policy: a Fenwick tree of 0/1 occupancy over link ids.
///
/// `choose()` draws `k` uniformly over the non-empty count and selects the
/// `k`-th smallest non-empty link id by binary descent — the same link the
/// historical scan's `links[rng.gen_range(0..len)]` picked, because the
/// scan's list was id-sorted. Equal seeds therefore give executions
/// byte-identical to the seed implementation.
struct RandomIndex {
    rng: StdRng,
    /// 1-based Fenwick tree over link ids; `tree[i]` covers a power-of-two
    /// span of links ending at id `i - 1`.
    tree: Vec<u32>,
    /// Number of currently tracked links.
    occupied: usize,
    /// Largest power of two ≤ tree span, the descent's starting stride.
    top_stride: usize,
    ops: u64,
}

impl RandomIndex {
    fn new(links: usize, seed: u64) -> Self {
        let top_stride = if links == 0 { 0 } else { links.next_power_of_two() };
        Self {
            rng: StdRng::seed_from_u64(seed),
            tree: vec![0; links + 1],
            occupied: 0,
            top_stride,
            ops: 0,
        }
    }

    /// Adds `delta` (±1) to link `id`'s occupancy.
    fn update(&mut self, id: usize, delta: i32) {
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
            self.ops += 1;
        }
    }

    /// Index of the `(k+1)`-th non-empty link (0-based rank `k`).
    fn select(&mut self, k: usize) -> usize {
        debug_assert!(k < self.occupied);
        let mut rank = (k + 1) as u32;
        let mut pos = 0usize;
        let mut stride = self.top_stride;
        while stride > 0 {
            let next = pos + stride;
            if next < self.tree.len() && self.tree[next] < rank {
                rank -= self.tree[next];
                pos = next;
            }
            stride >>= 1;
            self.ops += 1;
        }
        pos // 1-based tree position `pos + 1` holds the answer; link id = pos.
    }
}

impl LinkIndex for RandomIndex {
    fn on_push(&mut self, link: usize, _seq: u64, backlog: usize) {
        if backlog == 1 {
            self.update(link, 1);
            self.occupied += 1;
        }
    }

    fn on_pop(&mut self, link: usize, _next_head_seq: Option<u64>, backlog: usize) {
        if backlog == 0 {
            self.update(link, -1);
            self.occupied -= 1;
        }
    }

    fn choose(&mut self) -> usize {
        let k = self.rng.gen_range(0..self.occupied);
        self.select(k)
    }

    fn admit(&mut self, link: usize, _head_seq: u64, _backlog: usize) {
        self.update(link, 1);
        self.occupied += 1;
    }

    fn evict(&mut self, link: usize, _backlog: usize) {
        self.update(link, -1);
        self.occupied -= 1;
    }

    fn on_trivial_choose(&mut self) {
        // The scan implementation drew `gen_range(0..1)` even with a single
        // candidate; consume the identical RNG state so executions with the
        // single-link fast path stay byte-identical to ones without it.
        let k = self.rng.gen_range(0..1usize);
        debug_assert_eq!(k, 0);
        self.ops += 1;
    }

    fn index_ops(&self) -> u64 {
        self.ops
    }
}

/// The link queues plus the scheduler's index over them.
///
/// Per-run storage follows the traffic in flight, not the ring size. Each
/// link keeps its backlog and a `u32` slot into `heads`, a slab of the
/// in-flight head messages whose freed entries are recycled through
/// `free`. Messages queued behind a head (rare outside burst workloads)
/// spill into `overflow`, keyed by link id. A one-token protocol therefore
/// costs 8 bytes per link plus a one-entry slab, and every delivery
/// reuses the same slab entry.
///
/// Every queue mutation flows through [`push`](Links::push) /
/// [`pop`](Links::pop). The occupancy count and the xor of non-empty link
/// ids make the lone non-empty link recoverable in O(1), so the
/// [`LinkIndex`] is notified only while two or more links are non-empty;
/// when occupancy falls to one, the survivor stays parked in the index
/// (see the module docs).
///
/// `P` is the payload type: the serial engine queues [`BitString`]s, and
/// the scheduler-equivalence suite drives `Links<u64>` to check that
/// payloads stay FIFO per link.
///
/// Link ids: 0..n are clockwise links (i → i+1 mod n); n..2n are
/// counter-clockwise links (i+1 → i, stored at n + i).
#[doc(hidden)]
pub struct Links<P = BitString> {
    /// Queued-message count per link.
    backlog: Vec<u32>,
    /// Each link's entry in `heads`; meaningful only while its backlog is
    /// non-zero.
    slot: Vec<u32>,
    /// `(seq, payload)` of the head message of every non-empty link, plus
    /// freed entries awaiting reuse.
    heads: Vec<(u64, P)>,
    /// Indices of freed `heads` entries.
    free: Vec<u32>,
    /// Tail entries (everything behind the head) for links with backlog
    /// ≥ 2, front first.
    overflow: BTreeMap<usize, VecDeque<(u64, P)>>,
    index: Box<dyn LinkIndex>,
    /// Number of non-empty links.
    occupied: usize,
    /// Xor of the ids of all non-empty links; equals the unique non-empty
    /// link's id whenever `occupied == 1`.
    id_xor: usize,
    /// The link the index still tracks while fewer than two links are
    /// non-empty, with the backlog the index knows for it; `None` when the
    /// index tracks nothing or two or more links are non-empty.
    parked: Option<(usize, usize)>,
    /// No queue has changed since the parked link was parked.
    parked_fresh: bool,
}

impl<P: Default> Links<P> {
    /// Empty queues for `links` links, picked by `scheduler`.
    #[must_use]
    pub fn new(links: usize, scheduler: &Scheduler) -> Self {
        Self {
            backlog: vec![0; links],
            slot: vec![0; links],
            heads: Vec::new(),
            free: Vec::new(),
            overflow: BTreeMap::new(),
            index: scheduler.build_index(links),
            occupied: 0,
            id_xor: 0,
            parked: None,
            parked_fresh: false,
        }
    }

    /// Number of non-empty links.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Number of messages queued on `link`.
    #[must_use]
    pub fn backlog(&self, link: usize) -> usize {
        self.backlog[link] as usize
    }

    /// Sequence number of `link`'s head message; `link` must be non-empty.
    #[must_use]
    pub fn head_seq(&self, link: usize) -> u64 {
        debug_assert!(self.backlog[link] > 0, "head_seq of empty link {link}");
        self.heads[self.slot[link] as usize].0
    }

    /// Enqueues `payload`, sent with global sequence number `seq`, on
    /// `link`.
    pub fn push(&mut self, link: usize, seq: u64, payload: P) {
        let backlog = self.backlog[link] + 1;
        self.backlog[link] = backlog;
        if backlog > 1 {
            self.overflow.entry(link).or_default().push_back((seq, payload));
            if self.occupied >= 2 {
                self.index.on_push(link, seq, backlog as usize);
            } else {
                self.parked_fresh = false;
            }
            return;
        }
        self.slot[link] = match self.free.pop() {
            Some(slot) => {
                self.heads[slot as usize] = (seq, payload);
                slot
            }
            None => {
                self.heads.push((seq, payload));
                u32::try_from(self.heads.len() - 1).expect("fewer than 2^32 links in flight")
            }
        };
        self.occupied += 1;
        match self.occupied {
            1 => self.parked_fresh = false,
            2 => {
                // A second link opened: bring the index up to date on the
                // lone one, unless it is parked there unchanged.
                let lone = self.id_xor;
                match self.parked.take() {
                    Some((parked, _)) if self.parked_fresh => debug_assert_eq!(parked, lone),
                    stale => {
                        if let Some((parked, backlog)) = stale {
                            self.index.evict(parked, backlog);
                        }
                        let (head_seq, backlog) = (self.head_seq(lone), self.backlog(lone));
                        self.index.admit(lone, head_seq, backlog);
                    }
                }
            }
            _ => {}
        }
        if self.occupied >= 2 {
            self.index.on_push(link, seq, 1);
        }
        self.id_xor ^= link;
    }

    /// The scheduling policy's pick, or `None` when the ring is quiescent.
    /// Skips the index when only one link is non-empty.
    pub fn choose(&mut self) -> Option<usize> {
        match self.occupied {
            0 => None,
            1 => {
                self.index.on_trivial_choose();
                Some(self.id_xor)
            }
            _ => Some(self.index.choose()),
        }
    }

    /// Dequeues the head message of `link`, the link last returned by
    /// [`choose`](Links::choose).
    pub fn pop(&mut self, link: usize) -> P {
        let backlog = self.backlog[link].checked_sub(1).expect("chosen link non-empty");
        self.backlog[link] = backlog;
        let tracked = self.occupied >= 2;
        let slot = self.slot[link];
        let head = &mut self.heads[slot as usize];
        if backlog > 0 {
            let tail = self.overflow.get_mut(&link).expect("backlog ≥ 2 spills to overflow");
            let (next_seq, next_payload) = tail.pop_front().expect("overflow entry non-empty");
            if tail.is_empty() {
                self.overflow.remove(&link);
            }
            head.0 = next_seq;
            let payload = std::mem::replace(&mut head.1, next_payload);
            if tracked {
                self.index.on_pop(link, Some(next_seq), backlog as usize);
            } else {
                self.parked_fresh = false;
            }
            return payload;
        }
        let payload = std::mem::take(&mut head.1);
        self.free.push(slot);
        self.occupied -= 1;
        self.id_xor ^= link;
        if tracked {
            self.index.on_pop(link, None, 0);
            if self.occupied == 1 {
                // Back to one non-empty link: park it in the index.
                let lone = self.id_xor;
                self.parked = Some((lone, self.backlog(lone)));
                self.parked_fresh = true;
            }
        } else {
            self.parked_fresh = false;
        }
        payload
    }

    /// Cumulative elementary operations of the scheduler index.
    #[must_use]
    pub fn index_ops(&self) -> u64 {
        self.index.index_ops()
    }
}

/// Test-support surface: the retained naive-scan oracle and direct access
/// to the incremental indexes and the link queues.
///
/// Everything here exists for the scheduler-equivalence property tests
/// (`crates/sim/tests/sched_equiv.rs`) and the soak benches; it is
/// `#[doc(hidden)]` because it is not part of the supported API and may
/// change shape in any release.
#[doc(hidden)]
pub mod testkit {
    pub use super::Links;
    use super::{LinkIndex, Scheduler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A link's visible state, as the scan-based seed engine presented it.
    #[derive(Debug, Clone, Copy)]
    pub struct LinkView {
        /// Dense link id.
        pub id: usize,
        /// Number of queued messages.
        pub backlog: usize,
        /// Global sequence number of the head message (send order).
        pub head_seq: u64,
    }

    /// The seed implementation's scan-based policies, verbatim: the oracle
    /// the incremental [`LinkIndex`] implementations are tested against.
    ///
    /// `links` must be sorted by id (the seed engine produced them that
    /// way by scanning queues in id order) and non-empty.
    pub enum NaiveChooser {
        /// Oldest head wins.
        Fifo,
        /// Uniform over the id-sorted non-empty list.
        Random(StdRng),
        /// Largest backlog wins, ties to the lowest id.
        LongestQueue,
    }

    impl NaiveChooser {
        /// Builds the oracle for `scheduler`.
        #[must_use]
        pub fn new(scheduler: &Scheduler) -> Self {
            match scheduler {
                Scheduler::Fifo => NaiveChooser::Fifo,
                Scheduler::Random { seed } => NaiveChooser::Random(StdRng::seed_from_u64(*seed)),
                Scheduler::LongestQueue => NaiveChooser::LongestQueue,
            }
        }

        /// The seed engine's pick among `links` (non-empty, id-sorted).
        pub fn choose(&mut self, links: &[LinkView]) -> usize {
            match self {
                NaiveChooser::Fifo => {
                    links
                        .iter()
                        .min_by_key(|l| l.head_seq)
                        .expect("choose() requires at least one link")
                        .id
                }
                NaiveChooser::Random(rng) => links[rng.gen_range(0..links.len())].id,
                NaiveChooser::LongestQueue => {
                    links
                        .iter()
                        .max_by(|a, b| a.backlog.cmp(&b.backlog).then(b.id.cmp(&a.id)))
                        .expect("choose() requires at least one link")
                        .id
                }
            }
        }
    }

    /// Builds the production incremental index for `scheduler` over
    /// `links` link queues, for driving directly in tests.
    #[must_use]
    pub fn build_index(scheduler: &Scheduler, links: usize) -> Box<dyn LinkIndex> {
        scheduler.build_index(links)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{build_index, LinkView, NaiveChooser};
    use super::*;

    /// Replays `pushes` (id-ordered seq assignment) into an index and
    /// returns it alongside the equivalent LinkView list.
    fn index_with(
        scheduler: &Scheduler,
        links: usize,
        heads: &[(usize, u64, usize)], // (id, head_seq, backlog)
    ) -> (Box<dyn LinkIndex>, Vec<LinkView>) {
        let mut idx = build_index(scheduler, links);
        // Enqueue each link's backlog: head first (head_seq), then
        // arbitrary later seqs, mirroring FIFO queue growth.
        for &(id, head_seq, backlog) in heads {
            for j in 0..backlog {
                idx.on_push(id, head_seq + j as u64 * 1000, j + 1);
            }
        }
        let views = heads
            .iter()
            .map(|&(id, head_seq, backlog)| LinkView { id, backlog, head_seq })
            .collect();
        (idx, views)
    }

    #[test]
    fn fifo_picks_oldest_head() {
        let (mut idx, _) = index_with(&Scheduler::Fifo, 3, &[(0, 9, 1), (1, 2, 3), (2, 5, 1)]);
        assert_eq!(idx.choose(), 1);
    }

    #[test]
    fn fifo_pop_promotes_next_head() {
        let mut idx = build_index(&Scheduler::Fifo, 4);
        idx.on_push(2, 0, 1);
        idx.on_push(2, 1, 2);
        idx.on_push(0, 2, 1);
        assert_eq!(idx.choose(), 2);
        idx.on_pop(2, Some(1), 1);
        assert_eq!(idx.choose(), 2, "seq 1 still beats seq 2");
        idx.on_pop(2, None, 0);
        assert_eq!(idx.choose(), 0);
    }

    #[test]
    fn longest_queue_picks_biggest_backlog_lowest_id() {
        let (mut idx, _) =
            index_with(&Scheduler::LongestQueue, 3, &[(0, 1, 2), (1, 9, 5), (2, 3, 5)]);
        assert_eq!(idx.choose(), 1);
    }

    #[test]
    fn longest_queue_max_tracks_pops() {
        let mut idx = build_index(&Scheduler::LongestQueue, 3);
        for j in 0..3 {
            idx.on_push(1, j, j as usize + 1);
        }
        idx.on_push(0, 10, 1);
        assert_eq!(idx.choose(), 1);
        idx.on_pop(1, Some(1), 2);
        idx.on_pop(1, Some(2), 1);
        // Backlogs now tie at 1; the lowest id wins.
        assert_eq!(idx.choose(), 0);
    }

    #[test]
    fn random_is_reproducible_across_builds() {
        let heads = [(0usize, 1u64, 1usize), (1, 2, 1), (2, 3, 1), (3, 4, 1)];
        let seq_for = |seed: u64| -> Vec<usize> {
            let (mut idx, _) = index_with(&Scheduler::Random { seed }, 4, &heads);
            (0..20).map(|_| idx.choose()).collect()
        };
        assert_eq!(seq_for(42), seq_for(42));
        // And a different seed differs somewhere (overwhelmingly likely).
        assert_ne!(seq_for(42), seq_for(43));
    }

    #[test]
    fn random_only_picks_listed_links() {
        let (mut idx, _) = index_with(&Scheduler::Random { seed: 7 }, 12, &[(4, 0, 1), (9, 1, 2)]);
        for _ in 0..50 {
            let id = idx.choose();
            assert!(id == 4 || id == 9);
        }
    }

    #[test]
    fn random_matches_naive_oracle_stream() {
        // Same seed, same candidate set ⇒ the Fenwick index and the scan
        // oracle draw identical RNG values and pick identical links.
        let heads = [(1usize, 0u64, 1usize), (3, 1, 2), (4, 2, 1), (10, 3, 4)];
        let scheduler = Scheduler::Random { seed: 1234 };
        let (mut idx, views) = index_with(&scheduler, 16, &heads);
        let mut oracle = NaiveChooser::new(&scheduler);
        for _ in 0..200 {
            assert_eq!(idx.choose(), oracle.choose(&views));
        }
    }

    #[test]
    fn trivial_choose_keeps_random_stream_aligned() {
        // Drawing via on_trivial_choose must leave the RNG exactly where a
        // full choose() over one candidate would have.
        let scheduler = Scheduler::Random { seed: 9 };
        let (mut fast, _) = index_with(&scheduler, 8, &[(5, 0, 1)]);
        let (mut slow, _) = index_with(&scheduler, 8, &[(5, 0, 1)]);
        fast.on_trivial_choose();
        assert_eq!(slow.choose(), 5);
        // Open a second link; both indexes must now agree on every pick.
        fast.on_push(2, 1, 1);
        slow.on_push(2, 1, 1);
        for _ in 0..50 {
            assert_eq!(fast.choose(), slow.choose());
        }
    }

    #[test]
    fn index_ops_counts_work() {
        let mut idx = build_index(&Scheduler::Fifo, 4);
        let before = idx.index_ops();
        idx.on_push(0, 0, 1);
        idx.choose();
        assert!(idx.index_ops() > before);
    }

    #[test]
    fn default_is_fifo() {
        assert_eq!(Scheduler::default(), Scheduler::Fifo);
    }
}
