//! # gesto-telemetry — the runtime's unified metrics layer
//!
//! Before this crate, the runtime had three disjoint metric islands —
//! per-shard push-latency rings in `gesto-serve`, network-edge counters
//! in its `net` module, and per-query NFA stats in `gesto-cep` — none
//! of which an operator could scrape. This crate is the shared
//! substrate they all feed now:
//!
//! * **Instruments** ([`Counter`], [`Gauge`], [`Histogram`] and the
//!   sharded [`ShardedCounter`] / [`ShardedGauge`]) — allocation-free,
//!   lock-free atomics, cheap enough for the hot path (one relaxed RMW
//!   per update). All are `const`-constructible, and each implements
//!   [`Instrument`], the one trait the registry reads them through.
//! * **[`Global`]** — a process-global instrument declared with its
//!   name, help and labels where it is counted, so hot-path crates need
//!   no registry handle; it derefs to the instrument.
//! * **[`Registry`]** — three ways in: [`Registry::instrument`]
//!   (get-or-create an owned instrument), [`Registry::export`] (publish
//!   a [`Global`]) and [collectors](Registry::register_collector). The
//!   only lock in the crate sits here and is taken at registration and
//!   scrape time, never per sample.
//! * **Text exposition** ([`Registry::render`] / [`encode_text`]) —
//!   the Prometheus text format 0.0.4 (`# HELP`/`# TYPE`, label
//!   escaping, cumulative `_bucket{le=…}`/`_sum`/`_count` histogram
//!   series), pinned by the `exposition_conformance` golden tests.
//! * **Sampling** ([`Sampler`], [`SharedSampler`]) — 1-in-N decisions
//!   for stage timers, so steady-state instrumentation stays
//!   allocation-free and cheap (the serve pipeline samples its
//!   wire-decode → transform → views → NFA → sink stage timings with
//!   these).
//!
//! ```
//! use gesto_telemetry::{Counter, Global, Registry, ShardedCounter};
//!
//! static MATCHES: Global<ShardedCounter> =
//!     Global::new("gesto_nfa_matches_total", "Completed pattern matches", &[], ShardedCounter::new());
//!
//! let registry = Registry::new();
//! let frames: std::sync::Arc<Counter> = registry.instrument(
//!     "gesto_net_frames_received_total",
//!     "Skeleton frames decoded off the wire",
//!     &[],
//! );
//! registry.export(&MATCHES);
//! frames.add(3);
//! MATCHES.inc();
//! let text = registry.render();
//! assert!(text.contains("gesto_net_frames_received_total 3"));
//! assert!(text.contains("gesto_nfa_matches_total 1"));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod encode;
mod instruments;
mod registry;
mod sampler;

pub use encode::encode_text;
pub use instruments::{
    Counter, Gauge, Histogram, HistogramSnapshot, ShardedCounter, ShardedGauge, HISTOGRAM_BUCKETS,
    SHARDED_SLOTS,
};
pub use registry::{Global, Instrument, Registry, Sample, SampleSet, SampleValue};
pub use sampler::{Sampler, SharedSampler};
