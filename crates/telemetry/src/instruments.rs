//! Hot-path instruments: lock-free counters, gauges and the shared
//! power-of-two histogram.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// A monotonically increasing counter (one relaxed atomic add per
/// update).
///
/// `const`-constructible so hot-path crates can expose process-global
/// statics (`static FOO: Counter = Counter::new();`) and a registry can
/// export them by `'static` reference.
///
/// [`Counter`], [`Gauge`] and [`Histogram`] are 128-byte aligned, like
/// a [`ShardedCounter`]'s slots: two instruments never share a cache
/// line (or a spatial-prefetcher line pair), so threads updating their
/// own instruments, such as each shard worker its own shard's, never
/// contend on one.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (one relaxed atomic RMW per update).
/// 128-byte aligned (see [`Counter`]).
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of independent cache-line-padded slots in a [`ShardedCounter`]
/// or [`ShardedGauge`]. Each updating thread hashes to one slot, so up
/// to this many cores can update the same instrument without a single
/// cache line ping-ponging between them.
pub const SHARDED_SLOTS: usize = 16;

/// One cache-line-isolated counter slot. 128-byte alignment covers the
/// spatial-prefetcher pair-line granularity on common x86 parts.
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// One cache-line-isolated gauge slot (see [`PaddedU64`]).
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedI64(AtomicI64);

/// Slot indices are handed out once per thread from this sequence, so
/// long-lived workers (shard threads, I/O threads) land on distinct
/// slots and stay there for their lifetime.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDED_SLOTS;
}

#[inline]
fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// A [`Counter`] split across [`SHARDED_SLOTS`] cache-line-padded
/// atomics: updates hit a per-thread slot, reads sum all slots.
///
/// This is the multi-core variant of the process-global statics. With a
/// plain `Counter`, every shard worker bumping e.g.
/// `gesto_nfa_matches_total` contends on one cache line, and that false
/// sharing taxes the hot path exactly when the server scales past one
/// core. Updates here are still one relaxed RMW; only `get()` (scrape
/// time) pays for the fan-in.
#[derive(Debug, Default)]
pub struct ShardedCounter {
    slots: [PaddedU64; SHARDED_SLOTS],
}

impl ShardedCounter {
    /// A counter at zero.
    pub const fn new() -> Self {
        ShardedCounter {
            slots: [const { PaddedU64(AtomicU64::new(0)) }; SHARDED_SLOTS],
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.slots[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over all slots. Relaxed per-slot loads, so
    /// a concurrent reader sees a value that was true at *some* moment —
    /// fine for scrapes and steady-state assertions.
    pub fn get(&self) -> u64 {
        self.slots.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A [`Gauge`] split across [`SHARDED_SLOTS`] cache-line-padded atomics
/// (see [`ShardedCounter`] for why). Supports only relative updates —
/// `set()` would need cross-slot coordination, and the hot-path users
/// (NFA run accounting) are inc/dec shaped.
#[derive(Debug, Default)]
pub struct ShardedGauge {
    slots: [PaddedI64; SHARDED_SLOTS],
}

impl ShardedGauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        ShardedGauge {
            slots: [const { PaddedI64(AtomicI64::new(0)) }; SHARDED_SLOTS],
        }
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if n != 0 {
            self.slots[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value: the sum over all slots (relaxed; see
    /// [`ShardedCounter::get`]).
    pub fn get(&self) -> i64 {
        self.slots.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// Number of power-of-two buckets in [`Histogram`]: bucket `i` covers
/// `[2^i, 2^(i+1))` in the recorded unit (bucket 0 covers `[0, 2)`).
/// With microseconds that tops out above half an hour; with nanoseconds
/// above four seconds.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Lock-free histogram with power-of-two buckets, unit-agnostic
/// (callers pick µs or ns and say so in the metric name).
///
/// Cheap enough to sit on a detection hot path: one relaxed atomic
/// increment per bucket plus count/sum/max updates, no allocation ever.
/// This is the one histogram type of the runtime — the network edge's
/// e2e latency, the shards' push latency and the sampled pipeline stage
/// timers all record into it, and the registry exposes it as a
/// Prometheus cumulative-bucket histogram. 128-byte aligned (see
/// [`Counter`]).
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = (64 - v.max(1).leading_zeros() as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Upper-bound estimate (bucket ceiling) of the given quantile
    /// (`0.0..=1.0`), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        self.max()
    }

    /// Raw bucket counts (bucket `i` = samples in `[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// A point-in-time copy for exposition. Read bucket-by-bucket with
    /// relaxed loads, so concurrent recording may leave `count` and the
    /// bucket sum off by in-flight samples — fine for a scrape.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], the unit collectors hand to
/// the registry at scrape time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts (bucket `i` = samples in `[2^i, 2^(i+1))`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::new();
        h.record(0);
        h.record(1); // bucket 0: [0, 2)
        h.record(2);
        h.record(3); // bucket 1: [2, 4)
        h.record(1024); // bucket 10
        let b = h.buckets();
        assert_eq!(b[0], 2);
        assert_eq!(b[1], 2);
        assert_eq!(b[10], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.sum(), 1030);
    }

    #[test]
    fn quantiles_are_bucket_ceilings() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(3); // bucket 1, ceiling 4
        }
        h.record(1_000_000); // bucket 19, ceiling 2^20
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(0.99), 4);
        assert_eq!(h.quantile(1.0), 1 << 20);
        assert!(h.mean() > 3.0);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty.
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);

        // Single sample: every quantile is its bucket ceiling.
        h.record(5); // bucket 2: [4, 8)
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 8, "q={q}");
        }

        // Exact bucket boundaries: 2^k lands in bucket k.
        let h = Histogram::new();
        h.record(2);
        assert_eq!(h.buckets()[1], 1);
        h.record(4);
        assert_eq!(h.buckets()[2], 1);
        // Values beyond the last bucket saturate into it.
        h.record(u64::MAX);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.buckets().iter().sum::<u64>(), 40_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 40_000);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        static C: ShardedCounter = ShardedCounter::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10_000 {
                        C.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        C.add(5);
        assert_eq!(C.get(), 80_005);
    }

    #[test]
    fn sharded_gauge_balances_across_threads() {
        static G: ShardedGauge = ShardedGauge::new();
        let up: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1_000 {
                        G.inc();
                    }
                })
            })
            .collect();
        for t in up {
            t.join().unwrap();
        }
        // Decrements from a different thread than the increments must
        // still net out: slots are summed, not per-thread balances.
        std::thread::spawn(|| {
            for _ in 0..4_000 {
                G.dec();
            }
        })
        .join()
        .unwrap();
        assert_eq!(G.get(), 0);
        G.add(-7);
        assert_eq!(G.get(), -7);
    }

    #[test]
    fn instruments_never_share_a_cache_line() {
        assert!(std::mem::align_of::<Counter>() >= 128);
        assert!(std::mem::align_of::<Gauge>() >= 128);
        assert!(std::mem::align_of::<Histogram>() >= 128);
    }

    #[test]
    fn counter_and_gauge() {
        static C: Counter = Counter::new();
        C.inc();
        C.add(41);
        assert_eq!(C.get(), 42);

        static G: Gauge = Gauge::new();
        G.add(10);
        G.dec();
        assert_eq!(G.get(), 9);
        G.set(-3);
        assert_eq!(G.get(), -3);
    }
}
