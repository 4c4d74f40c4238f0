//! The server's scrape surface: one [`Registry`] per [`crate::Server`]
//! wiring every metric island into the unified catalog that
//! `GET /metrics` renders (see `docs/OBSERVABILITY.md` for the full
//! list of names).
//!
//! One rule: **a counter is declared where it is counted; a collector
//! only computes, and never copies a counter.**
//!
//! * Whatever gesto-serve counts is an owned instrument, an
//!   `Arc<Counter | Gauge | Histogram>` got or created by
//!   [`Registry::instrument`] with its name, help and labels where it is
//!   created: the stage timers and control-plane counters here, each
//!   shard's in `ShardMetrics::new`, the edge's in `NetMetricsInner::new`
//!   (built by `NetServer::start`), one `gesto_detections_total{gesture}`
//!   per detected gesture. Hot paths update it; snapshots and `/metrics`
//!   read the same atomics.
//! * Code with no registry handle declares its counters as
//!   `gesto_telemetry::Global` statics, named beside the code that
//!   counts them: `gesto_cep::metrics` (NFA run accounting,
//!   predicate-kernel counters, the kernel stage timer),
//!   `gesto_stream::metrics` (block-build and tuple counters) and
//!   `NetClient`'s reconnects. Each server publishes them with
//!   [`Registry::export`].
//! * A collector is a closure the registry runs at scrape time, for
//!   values that exist only as computations: sums over shards, the
//!   overload state, a `QueueGate`'s depth and queued bytes, plan
//!   versions, journal stats.
//!
//! The statics are process-global, so with two servers in one process
//! each registry reports the *process* totals for those families
//! (`export` is idempotent per registry); the shard and net families
//! stay per-server.

use std::collections::BTreeMap;
use std::sync::Arc;

use gesto_cep::metrics::{STAGE_HELP, STAGE_NAME};
use gesto_telemetry::{Counter, Gauge, Histogram, Registry, Sampler};
use parking_lot::Mutex;

use crate::config::ServerConfig;
use crate::durable::DurableState;
use crate::metrics::ShardMetrics;
use crate::server::PlanRegistry;
use crate::shard::QueueGate;

/// Pipeline stage timers sample one batch in this many per shard (wire
/// decode → transform → views → NFA → sink durations exported as
/// `gesto_stage_duration_ns`), the rate of gesto-cep's kernel timer
/// too: a timed pipeline costs one integer decrement per stage per
/// batch at steady state.
const STAGE_SAMPLE_EVERY: u32 = 64;

/// Owned per-stage duration histograms, exported as
/// `gesto_stage_duration_ns{stage=…}`. The kernel pre-pass adds the
/// `stage="kernel"` series, `gesto_cep::metrics::KERNEL_STAGE_NS`.
pub(crate) struct Stages {
    /// Wire decode: GSW1 frame-batch payload → skeleton frames (on the
    /// I/O loop).
    pub decode: Arc<Histogram>,
    /// Frame→tuple (and frame→block) conversion (on the shard).
    pub transform: Arc<Histogram>,
    /// Shared view evaluation over the batch.
    pub views: Arc<Histogram>,
    /// NFA advance across all deployed plans.
    pub nfa: Arc<Histogram>,
    /// Detection write-back: per-gesture accounting + sink fan-out.
    pub sink: Arc<Histogram>,
}

/// Per-server telemetry: the registry plus the owned instruments the
/// pipeline updates.
pub(crate) struct ServerTelemetry {
    registry: Arc<Registry>,
    pub stages: Stages,
    /// `gesto_plans_compiled_total` (the compile-once invariant's
    /// observable face).
    pub plans_compiled: Arc<Counter>,
    /// `gesto_checkpoints_total`.
    pub checkpoints_total: Arc<Counter>,
    /// `gesto_checkpoint_last_seq` (journal seq the newest checkpoint
    /// covers; 0 before the first).
    pub checkpoint_last_seq: Arc<Gauge>,
    /// `gesto_recovery_replayed_ops_total` (journal-tail ops applied on
    /// the last recovery).
    pub recovery_replayed_ops: Arc<Counter>,
    /// `gesto_recovery_truncated_bytes_total` (torn/corrupt journal
    /// bytes discarded on the last recovery).
    pub recovery_truncated_bytes: Arc<Counter>,
    /// `gesto_recovery_corrupt_checkpoints_total` (corrupt checkpoint
    /// files skipped on the last recovery).
    pub recovery_corrupt_checkpoints: Arc<Counter>,
    /// `gesto_detections_total{gesture}` by gesture, shared by every
    /// shard. A worker takes the lock only on a gesture's first
    /// detection, and caches the counter.
    gesture_detections: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl ServerTelemetry {
    pub fn new(config: &ServerConfig) -> Self {
        let registry = Arc::new(Registry::new());

        // Tells two servers' versions and configs apart from a scrape.
        let config_hash = format!("{config:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        registry
            .instrument::<Gauge>(
                "gesto_build_info",
                "Constant 1: the gesto-serve version and an FNV-1a hash of the server's \
                 ServerConfig",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("config", &format!("{config_hash:016x}")),
                ],
            )
            .set(1);

        let stage = |s: &str| registry.instrument(STAGE_NAME, STAGE_HELP, &[("stage", s)]);
        let stages = Stages {
            decode: stage("decode"),
            transform: stage("transform"),
            views: stage("views"),
            nfa: stage("nfa"),
            sink: stage("sink"),
        };
        let plans_compiled = registry.instrument(
            "gesto_plans_compiled_total",
            "Query plans compiled by this server (compile-once: plans deployed \
             pre-compiled are not counted)",
            &[],
        );

        // The process-global statics of the NFA runtime, the kernels
        // and the block builders.
        gesto_cep::metrics::export(&registry);
        gesto_stream::metrics::export(&registry);

        // Durable control plane instruments (all stay 0 on a
        // non-durable server).
        let checkpoints_total = registry.instrument(
            "gesto_checkpoints_total",
            "Control-plane checkpoints written (each rotates + compacts the journal)",
            &[],
        );
        let checkpoint_last_seq = registry.instrument(
            "gesto_checkpoint_last_seq",
            "Journal sequence number the newest checkpoint covers (0 before the first)",
            &[],
        );
        let recovery_replayed_ops = registry.instrument(
            "gesto_recovery_replayed_ops_total",
            "Journal-tail control ops replayed during crash recovery",
            &[],
        );
        let recovery_truncated_bytes = registry.instrument(
            "gesto_recovery_truncated_bytes_total",
            "Torn or corrupt journal bytes discarded during crash recovery",
            &[],
        );
        let recovery_corrupt_checkpoints = registry.instrument(
            "gesto_recovery_corrupt_checkpoints_total",
            "Corrupt checkpoint files skipped during crash recovery",
            &[],
        );

        ServerTelemetry {
            registry,
            stages,
            plans_compiled,
            checkpoints_total,
            checkpoint_last_seq,
            recovery_replayed_ops,
            recovery_truncated_bytes,
            recovery_corrupt_checkpoints,
            gesture_detections: Mutex::new(BTreeMap::new()),
        }
    }

    /// The `gesto_detections_total{gesture}` counter of `gesture`.
    pub fn gesture_detections(&self, gesture: &str) -> Arc<Counter> {
        self.gesture_detections
            .lock()
            .entry(gesture.to_owned())
            .or_insert_with(|| {
                self.registry.instrument(
                    "gesto_detections_total",
                    "Detections per gesture, across all shards",
                    &[("gesture", gesture)],
                )
            })
            .clone()
    }

    /// Detections per gesture, of every gesture detected so far.
    pub fn per_gesture(&self) -> BTreeMap<String, u64> {
        self.gesture_detections
            .lock()
            .iter()
            .map(|(g, c)| (g.clone(), c.get()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Registers the `gesto_plan_version{gesture}` collector over the
    /// versioned plan registry. Captures only the registry `Arc` (never
    /// the server core), keeping shutdown cycle-free.
    pub fn register_plan_versions(&self, plans: PlanRegistry) {
        self.registry.register_collector(move |set| {
            let mut versions: Vec<(String, u32)> = plans
                .read()
                .iter()
                .map(|(n, d)| (n.clone(), d.version))
                .collect();
            versions.sort();
            for (gesture, version) in &versions {
                set.gauge(
                    "gesto_plan_version",
                    "Rollout version of the deployed plan (1 on first deploy, +1 per redeploy)",
                    &[("gesture", gesture.as_str())],
                    f64::from(*version),
                );
            }
        });
    }

    /// Registers the journal scrape collector over the durable state.
    /// Uses `try_lock` so a scrape never waits behind a control op in
    /// flight; a skipped scrape just reports the previous values next
    /// time.
    pub fn register_durable(&self, durable: Arc<Mutex<Option<DurableState>>>) {
        self.registry.register_collector(move |set| {
            let Some(guard) = durable.try_lock() else {
                return;
            };
            let Some(ds) = guard.as_ref() else {
                return;
            };
            let stats = ds.journal.stats();
            set.counter(
                "gesto_journal_appends_total",
                "Control ops appended to the write-ahead journal",
                &[],
                stats.appends,
            );
            set.counter(
                "gesto_journal_bytes_total",
                "Bytes appended to the journal (framing + payload)",
                &[],
                stats.bytes,
            );
            set.counter(
                "gesto_journal_fsyncs_total",
                "fdatasync calls issued by the journal",
                &[],
                stats.fsyncs,
            );
            set.counter(
                "gesto_journal_rotations_total",
                "Journal segment rotations",
                &[],
                stats.rotations,
            );
            set.counter(
                "gesto_journal_compacted_segments_total",
                "Journal segments deleted by checkpoint compaction",
                &[],
                stats.compacted_segments,
            );
            set.gauge(
                "gesto_journal_segments",
                "Journal segment files currently on disk",
                &[],
                ds.journal.segment_count() as f64,
            );
            set.gauge(
                "gesto_journal_last_seq",
                "Sequence number of the last journaled op",
                &[],
                ds.journal.last_seq() as f64,
            );
        });
    }

    /// The scrape surface (what `GET /metrics` renders).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// A fresh stage-timer sampler for one shard worker (single-owner,
    /// no atomics on the hot path).
    pub fn sampler(&self) -> Sampler {
        Sampler::new(STAGE_SAMPLE_EVERY)
    }

    /// Registers the collector of what the shards' gates and admission
    /// counters compute: the overload state machine gauge (mirrors
    /// `ServerHandle::overload_state`: worst shard wins), each shard's
    /// queue depth and queued bytes, and the admission rejections
    /// summed across shards, labelled by the mechanism that refused the
    /// batch.
    pub fn register_overload(
        &self,
        shards: Vec<(Arc<ShardMetrics>, Arc<QueueGate>)>,
        policy: crate::metrics::OverloadPolicy,
    ) {
        use std::sync::atomic::Ordering;

        self.registry.register_collector(move |set| {
            let mut worst: f64 = 0.0;
            let mut stale = 0u64;
            let mut memory = 0u64;
            for (i, (m, gate)) in shards.iter().enumerate() {
                worst = worst.max(policy.fill(m, gate));
                stale += m.stale_batches.get();
                memory += m.mem_rejected_batches.get();
                let shard = i.to_string();
                let labels = [("shard", shard.as_str())];
                set.gauge(
                    "gesto_shard_queue_depth",
                    "Batches currently queued on the shard",
                    &labels,
                    gate.depth.load(Ordering::Acquire) as f64,
                );
                set.gauge(
                    "gesto_shard_queued_bytes",
                    "Approximate bytes held by batches queued on the shard",
                    &labels,
                    gate.queued_bytes.load(Ordering::Acquire) as f64,
                );
            }
            set.gauge(
                "gesto_overload_state",
                "Overload state machine: 0 = healthy, 1 = shedding, 2 = rejecting \
                 (worst shard's queue/memory fill: shedding from 0.75, rejecting from 1.0)",
                &[],
                f64::from(policy.classify(worst).code()),
            );
            const REJ_NAME: &str = "gesto_admission_rejected_total";
            const REJ_HELP: &str = "Batches refused or dropped by admission control, by mechanism";
            set.counter(REJ_NAME, REJ_HELP, &[("reason", "stale")], stale);
            set.counter(REJ_NAME, REJ_HELP, &[("reason", "memory")], memory);
        });
    }
}
