//! A core-clock probe: the clock the workload's threads run at, read from
//! the time a fixed dependent chain of instructions takes.
//!
//! The benchmark was tuned on a shared VM where identical passes ran up
//! to 1.9x slower in some phases than in others, phases that last from
//! under a minute to over an hour, with no steal time and with thread CPU
//! time equal to wall time. A chain of dependent multiplies takes a fixed
//! number of cycles, so its time gives the core clock, which a host loaded
//! by other tenants is expected to lower for everyone. `wall_s` and
//! `setup_s` are stated at a reference clock by way of this reading. The
//! probe owes nothing to the workspace's code: a change to the program
//! moves the pass time and never the probe.

use std::hint::black_box;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use crate::report::median;

/// Links in the chain one repetition times (about 20 ms at 2.3 GHz).
const LINKS: u64 = 10_000_000;

/// Core cycles per link: `or` (1), `imul` (3) and `xor` (1), each waiting
/// for the one before, on recent x86-64 cores. It only scales the
/// reading: on a core where it is wrong, every reading is off alike.
const CYCLES_PER_LINK: f64 = 5.0;

/// Timed repetitions per reading; the reading is their median.
const REPS: usize = 5;

/// A chain of `links` dependent multiplies: its time is its cycle count
/// over the core clock, whatever the caches and memory are doing.
fn chain(links: u64) -> u64 {
    let mut x = black_box(1u64);
    for i in 0..links {
        x = x.wrapping_mul(x | 1) ^ i;
    }
    x
}

/// The core clock in GHz with `workers` threads running the chain at once,
/// as the workload's executor runs its jobs: the median over [`REPS`]
/// repetitions of the mean over threads.
#[must_use]
pub fn clock_ghz(workers: usize) -> f64 {
    let workers = workers.max(1);
    let barrier = Barrier::new(workers);
    let ghz: Vec<Vec<f64>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    (0..REPS)
                        .map(|_| {
                            barrier.wait();
                            let start = Instant::now();
                            black_box(chain(black_box(LINKS)));
                            let secs = start.elapsed().as_secs_f64();
                            CYCLES_PER_LINK * LINKS as f64 / secs / 1e9
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
    });
    let per_rep: Vec<f64> =
        (0..REPS).map(|rep| ghz.iter().map(|t| t[rep]).sum::<f64>() / workers as f64).collect();
    median(&per_rep)
}
