//! 1-in-N sampling decisions for stage timers.
//!
//! Taking two `Instant::now()` readings per pipeline stage per batch is
//! cheap but not free; doing it for one batch in N keeps the histograms
//! statistically useful while the steady state pays a single branch on
//! a local counter. Two flavours: [`Sampler`] for a value owned by one
//! thread (a shard worker, the I/O loop), [`SharedSampler`] for
//! process-global statics shared across threads.

use std::cell::Cell;
use std::thread::LocalKey;

/// Single-owner countdown sampler: `sample()` returns `true` on the
/// first call and then once every `every` calls.
///
/// Not thread-safe by design — each worker owns its own, so the hot
/// path is a plain integer decrement with no atomics at all.
#[derive(Debug, Clone)]
pub struct Sampler {
    every: u32,
    tick: u32,
}

impl Sampler {
    /// A sampler that fires once every `every` calls (first call
    /// included). `every == 0` disables sampling entirely; `every == 1`
    /// samples every call.
    pub const fn new(every: u32) -> Self {
        Sampler { every, tick: 0 }
    }

    /// Should this iteration be timed?
    #[inline]
    pub fn sample(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        if self.tick == 0 {
            self.tick = self.every - 1;
            true
        } else {
            self.tick -= 1;
            false
        }
    }
}

/// Shared 1-in-N sampler for process-global instrumentation (e.g. the
/// predicate-kernel stage timer in `gesto-cep`, which has no per-worker
/// state to hang a [`Sampler`] on).
///
/// The period is fixed at construction; the decision is each thread's
/// own: like a [`Sampler`], a thread's first call fires and then one in
/// every `every` of its calls, counted in the thread-local `tick` the
/// sampler is built with. A decision writes only thread-local state, so
/// threads never contend on a cache line.
///
/// ```
/// use std::cell::Cell;
/// use gesto_telemetry::SharedSampler;
///
/// thread_local!(static TICK: Cell<u32> = const { Cell::new(0) });
/// static SAMPLER: SharedSampler = SharedSampler::new(4, &TICK);
/// assert_eq!((0..8).filter(|_| SAMPLER.sample()).count(), 2);
/// ```
#[derive(Debug)]
pub struct SharedSampler {
    every: u32,
    tick: &'static LocalKey<Cell<u32>>,
}

impl SharedSampler {
    /// A shared sampler firing once every `every` calls of each thread,
    /// counted in `tick`, which only this sampler may use; `every == 0`
    /// disables it.
    pub const fn new(every: u32, tick: &'static LocalKey<Cell<u32>>) -> Self {
        SharedSampler { every, tick }
    }

    /// Should this iteration be timed?
    #[inline]
    pub fn sample(&self) -> bool {
        let every = self.every;
        if every == 0 {
            return false;
        }
        self.tick.with(|tick| {
            let left = tick.get();
            tick.set(left.checked_sub(1).unwrap_or(every - 1));
            left == 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_fires_first_then_every_n() {
        let mut s = Sampler::new(4);
        let fired: Vec<bool> = (0..9).map(|_| s.sample()).collect();
        assert_eq!(
            fired,
            [true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn sampler_every_one_always_fires() {
        let mut s = Sampler::new(1);
        assert!((0..5).all(|_| s.sample()));
    }

    #[test]
    fn sampler_zero_disables() {
        let mut s = Sampler::new(0);
        assert!((0..5).all(|_| !s.sample()));
    }

    #[test]
    fn shared_sampler_fires_one_in_n_of_each_threads_calls() {
        thread_local!(static TICK: Cell<u32> = const { Cell::new(0) });
        static S: SharedSampler = SharedSampler::new(8, &TICK);
        // Four threads at once, each 2001 calls at 1-in-8: each fires on
        // its own calls 1, 9, …, 2001, whatever the interleaving.
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let fired: Vec<usize> = (0..2001).filter(|_| S.sample()).collect();
                        assert_eq!(fired, (0..2001).step_by(8).collect::<Vec<_>>());
                    })
                })
                .collect();
            threads.into_iter().for_each(|t| t.join().unwrap());
        });
    }
}
