//! Layer tracing from outside the program: wrappers around each layer's
//! public trait, recording spans and counts at the layer boundaries.
//!
//! * [`TracedLanguage`] times `positive_example`/`negative_example`
//!   (`langs` layer) and counts words and letters.
//! * [`TracedProtocol`] times every `leader`/`follower` factory call
//!   (`core` construction) and wraps each process in a [`TracedProcess`],
//!   which times every `on_start`/`on_message` (`core` handlers) and
//!   reads each delivered message's width (`bitio` counts).
//! * [`TimedExecutor`] wraps a [`SweepExecutor`]: one span per grid
//!   (`run_grid`/`run_indexed` call) and one per job, with the worker
//!   thread that ran it.
//!
//! Handler and factory spans are far too many to keep one by one (tens of
//! millions per pass), so they accumulate into per-thread [`Counts`]; a
//! job span records the delta of its thread's counts, which is exact
//! because a job runs start to end on one thread.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Instant;

use rand::RngCore;
use ringleader_analysis::{GridPoint, PointJob, RunStats, SweepExecutor, SweepGrid};
use ringleader_automata::{Alphabet, Symbol, Word};
use ringleader_bitio::BitString;
use ringleader_langs::{Language, LanguageClass};
use ringleader_sim::{Context, Direction, Process, ProcessResult, Protocol, SimError, Topology};

/// `BitString` stores payloads of at most this many bits inline; wider
/// ones spill to the heap.
pub const INLINE_BITS: usize = 184;

/// Work and busy time accumulated at the innermost layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Nanoseconds inside `positive_example`/`negative_example`.
    pub gen_ns: u64,
    /// Words generated.
    pub words: u64,
    /// Letters in the generated words.
    pub letters: u64,
    /// Nanoseconds inside `leader`/`follower` factory calls.
    pub construct_ns: u64,
    /// Processes constructed.
    pub processes: u64,
    /// Nanoseconds inside `on_start`/`on_message`.
    pub handler_ns: u64,
    /// `on_message` calls, i.e. deliveries.
    pub deliveries: u64,
    /// Bits of the delivered messages.
    pub payload_bits: u64,
    /// Delivered messages wider than [`INLINE_BITS`].
    pub spilled: u64,
}

impl Counts {
    /// Field-wise `self - earlier`.
    #[must_use]
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            gen_ns: self.gen_ns - earlier.gen_ns,
            words: self.words - earlier.words,
            letters: self.letters - earlier.letters,
            construct_ns: self.construct_ns - earlier.construct_ns,
            processes: self.processes - earlier.processes,
            handler_ns: self.handler_ns - earlier.handler_ns,
            deliveries: self.deliveries - earlier.deliveries,
            payload_bits: self.payload_bits - earlier.payload_bits,
            spilled: self.spilled - earlier.spilled,
        }
    }

    /// Field-wise `self += other`.
    pub fn add(&mut self, other: Counts) {
        self.gen_ns += other.gen_ns;
        self.words += other.words;
        self.letters += other.letters;
        self.construct_ns += other.construct_ns;
        self.processes += other.processes;
        self.handler_ns += other.handler_ns;
        self.deliveries += other.deliveries;
        self.payload_bits += other.payload_bits;
        self.spilled += other.spilled;
    }
}

thread_local! {
    static TALLY: Cell<Counts> = const { Cell::new(Counts {
        gen_ns: 0, words: 0, letters: 0, construct_ns: 0, processes: 0,
        handler_ns: 0, deliveries: 0, payload_bits: 0, spilled: 0,
    }) };
}

/// This thread's running counts.
#[must_use]
pub fn thread_counts() -> Counts {
    TALLY.with(Cell::get)
}

fn tally(update: impl FnOnce(&mut Counts)) {
    TALLY.with(|t| {
        let mut c = t.get();
        update(&mut c);
        t.set(c);
    });
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`Language`] whose example generators are timed.
pub struct TracedLanguage<'a>(pub &'a dyn Language);

impl TracedLanguage<'_> {
    fn timed(&self, make: impl FnOnce() -> Option<Word>) -> Option<Word> {
        let start = Instant::now();
        let word = make();
        let ns = nanos_since(start);
        let letters = word.as_ref().map_or(0, Word::len) as u64;
        tally(|c| {
            c.gen_ns += ns;
            c.words += u64::from(word.is_some());
            c.letters += letters;
        });
        word
    }
}

impl Language for TracedLanguage<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn alphabet(&self) -> &Alphabet {
        self.0.alphabet()
    }
    fn class(&self) -> LanguageClass {
        self.0.class()
    }
    fn contains(&self, word: &Word) -> bool {
        self.0.contains(word)
    }
    fn positive_example(&self, len: usize, rng: &mut dyn RngCore) -> Option<Word> {
        self.timed(|| self.0.positive_example(len, rng))
    }
    fn negative_example(&self, len: usize, rng: &mut dyn RngCore) -> Option<Word> {
        self.timed(|| self.0.negative_example(len, rng))
    }
}

/// A [`Protocol`] whose factories are timed and whose processes are
/// [`TracedProcess`]es.
pub struct TracedProtocol<'a>(pub &'a dyn Protocol);

impl TracedProtocol<'_> {
    fn timed(&self, make: impl FnOnce() -> Box<dyn Process>) -> Box<dyn Process> {
        let start = Instant::now();
        let inner = make();
        let ns = nanos_since(start);
        tally(|c| {
            c.construct_ns += ns;
            c.processes += 1;
        });
        Box::new(TracedProcess(inner))
    }
}

impl Protocol for TracedProtocol<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn topology(&self) -> Topology {
        self.0.topology()
    }
    fn leader(&self, input: Symbol) -> Box<dyn Process> {
        self.timed(|| self.0.leader(input))
    }
    fn follower(&self, input: Symbol) -> Box<dyn Process> {
        self.timed(|| self.0.follower(input))
    }
}

/// A [`Process`] whose handlers are timed and whose deliveries are
/// counted by width.
pub struct TracedProcess(Box<dyn Process>);

impl Process for TracedProcess {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        let start = Instant::now();
        let result = self.0.on_start(ctx);
        let ns = nanos_since(start);
        tally(|c| c.handler_ns += ns);
        result
    }

    fn on_message(
        &mut self,
        direction: Direction,
        message: &BitString,
        ctx: &mut Context,
    ) -> ProcessResult {
        let bits = message.len();
        let start = Instant::now();
        let result = self.0.on_message(direction, message, ctx);
        let ns = nanos_since(start);
        tally(|c| {
            c.handler_ns += ns;
            c.deliveries += 1;
            c.payload_bits += bits as u64;
            c.spilled += u64::from(bits > INLINE_BITS);
        });
        result
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.0.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> ProcessResult {
        self.0.load_state(bytes)
    }
}

/// One executor job: a grid point or an indexed job.
#[derive(Debug, Clone)]
pub struct JobSpan {
    /// What the job measured: the protocol (workloads 1–3) or the spec
    /// id (suite).
    pub label: Arc<str>,
    /// Grid coordinates, `None` for an indexed job.
    pub point: Option<GridPoint>,
    /// Whether a word existed and a run happened.
    pub ran: bool,
    /// Seconds from the grid's start to the job's start and end.
    pub start: f64,
    /// See `start`.
    pub end: f64,
    /// Index of the worker thread within its grid.
    pub worker: usize,
    /// Layer counts the job accumulated on its thread.
    pub counts: Counts,
}

impl JobSpan {
    /// The job's duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// One `run_grid`/`run_indexed` call with its jobs.
#[derive(Debug, Clone)]
pub struct GridSpan {
    /// Span start and end on the tracer's clock.
    pub start: f64,
    /// See `start`.
    pub end: f64,
    /// Workers the executor uses.
    pub workers: usize,
    /// Jobs, in completion order; times relative to `start`.
    pub jobs: Vec<JobSpan>,
}

/// Runs one job under a job span; the job reports whether a run happened.
type Record<'r> = dyn Fn(Option<GridPoint>, &mut dyn FnMut() -> bool) + Sync + 'r;

/// A [`SweepExecutor`] that records a span per grid and per job.
#[derive(Debug)]
pub struct TimedExecutor<'a> {
    inner: &'a dyn SweepExecutor,
    epoch: Instant,
    label: Mutex<Arc<str>>,
    grids: Mutex<Vec<GridSpan>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<'a> TimedExecutor<'a> {
    /// Wraps `inner`; spans are timed from `epoch`.
    #[must_use]
    pub fn new(inner: &'a dyn SweepExecutor, epoch: Instant) -> Self {
        TimedExecutor {
            inner,
            epoch,
            label: Mutex::new(Arc::from("")),
            grids: Mutex::new(Vec::new()),
        }
    }

    /// Names the jobs of the grids that follow.
    pub fn set_label(&self, label: &str) {
        *lock(&self.label) = Arc::from(label);
    }

    /// Takes the recorded grid spans.
    #[must_use]
    pub fn take_grids(&self) -> Vec<GridSpan> {
        std::mem::take(&mut lock(&self.grids))
    }

    /// Runs a grid of `count` jobs under `run`. Nothing here allocates
    /// on a worker thread, so the wrapper leaves the pool's memory use
    /// as it was.
    fn traced<T>(&self, count: usize, run: impl FnOnce(&Record<'_>) -> T) -> T {
        let label = lock(&self.label).clone();
        let grid_start = Instant::now();
        let threads: Mutex<Vec<ThreadId>> =
            Mutex::new(Vec::with_capacity(self.inner.workers() + 1));
        let jobs: Mutex<Vec<JobSpan>> = Mutex::new(Vec::with_capacity(count));
        let record = |point: Option<GridPoint>, job: &mut dyn FnMut() -> bool| {
            let before = thread_counts();
            let start = grid_start.elapsed().as_secs_f64();
            let ran = job();
            let end = grid_start.elapsed().as_secs_f64();
            let counts = thread_counts().since(before);
            let id = thread::current().id();
            let worker = {
                let mut t = lock(&threads);
                t.iter().position(|&x| x == id).unwrap_or_else(|| {
                    t.push(id);
                    t.len() - 1
                })
            };
            lock(&jobs).push(JobSpan {
                label: label.clone(),
                point,
                ran,
                start,
                end,
                worker,
                counts,
            });
        };
        let out = run(&record);
        let end = grid_start.elapsed().as_secs_f64();
        let offset = grid_start.duration_since(self.epoch).as_secs_f64();
        lock(&self.grids).push(GridSpan {
            start: offset,
            end: offset + end,
            workers: self.inner.workers(),
            jobs: jobs.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner),
        });
        out
    }
}

impl SweepExecutor for TimedExecutor<'_> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn run_grid(&self, grid: &SweepGrid, job: &PointJob<'_>) -> Vec<Result<RunStats, SimError>> {
        self.traced(grid.len(), |record| {
            self.inner.run_grid(grid, &|p: &GridPoint| {
                let mut result = None;
                record(Some(*p), &mut || {
                    let r = job(p);
                    let ran = matches!(&r, Ok(s) if s.ran);
                    result = Some(r);
                    ran
                });
                result.expect("job ran")
            })
        })
    }

    fn run_indexed(&self, count: usize, job: &(dyn Fn(usize) + Sync)) {
        self.traced(count, |record| {
            self.inner.run_indexed(count, &|i| {
                record(None, &mut || {
                    job(i);
                    false
                });
            });
        });
    }
}
