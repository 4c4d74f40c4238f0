//! Shard worker: one thread owning the NFA/view state of its sessions.
//!
//! A shard receives all jobs over one FIFO channel, so data and control
//! interleave deterministically: frames pushed before a `Close` or
//! `Barrier` are fully processed before it takes effect, and a `Deploy`
//! applies exactly at its position in the stream. Session state never
//! leaves the worker thread — per-tuple matching takes no locks.
//!
//! Data path per batch: the skeleton frames go to the views as they
//! arrived ([`SharedViews::begin_batch_rows`]; `kinect_t` transforms
//! them without a tuple in between). Only while somebody reads the raw
//! stream itself — a deployed or retiring plan with a route on it, or a
//! view that declines frames (`SessionRuntime::raw_tuples`, settled at
//! the deploy-time sync) — is there also one fresh frame→tuple
//! conversion per frame ([`KinectSlots::tuple`]), plus (for batches of
//! at least `ServerConfig::columnar_min_batch` frames) one frame→block
//! conversion of the whole batch straight from the frames
//! ([`KinectSlots::write_block`]). The one shared view
//! evaluation for the whole batch runs in the worker's one set of
//! batch buffers, lent to the session for the batch
//! ([`SharedViews::lend`] / [`SharedViews::reclaim`]), then every deployed plan
//! instance steps its NFA batch-at-a-time over the shared view outputs
//! and their columnar blocks ([`PlanInstance::push_batch_shared`]) —
//! deploying more gestures does not re-run the coordinate
//! transformation, and a steady-state batch that seeds no run calls
//! the allocator once per tuple it builds and never otherwise
//! (`tests/front_path_alloc.rs`).
//!
//! **Ownership and threading.** A worker is one thread; everything a
//! batch touches is owned by it, at one of three levels, and taken
//! without a lock:
//!
//! * *Per session* ([`SessionRuntime`]): what must survive between the
//!   session's batches — view operator state, one [`PlanInstance`] (NFA
//!   run state) per deployed or retiring plan. Run state is what
//!   `gesto_shard_state_bytes` counts against the memory budget; of the
//!   event arena it counts the row handles, so a kept `kinect_t` row's
//!   frame and basis are heap the budget does not see.
//! * *Per worker* ([`ShardWorker`]): the batch's scratch, which every
//!   session's batch uses in turn — the one [`BatchBuffers`] (view rows,
//!   frame offsets, blocks), lent to the session's views for the batch
//!   and reclaimed before the next job; the raw-stream `tuples`; the
//!   `detections` vector. A fixed per-shard cost
//!   (`gesto_shard_batch_buffer_bytes`), not charged to the budget.
//! * *Per thread*: the NFA's match scratch, which every plan call on
//!   the thread takes and puts back (`gesto_cep`'s `plan` module docs).
//!   Fixed, and not counted.
//!
//! A batch that panics can tear only the poisoned session's state and
//! the worker's scratch; [`ShardWorker::quarantine`] repairs both before
//! the next job.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use gesto_cep::{Detection, PlanInstance, QueryPlan};
use gesto_kinect::{KinectSlots, SkeletonFrame};
use gesto_stream::{BatchBuffers, Catalog, RowBatch, SchemaRef, SharedViews, Tuple};
use parking_lot::RwLock;

use gesto_telemetry::{Counter, Sampler};

use crate::metrics::ShardMetrics;
use crate::server::DetectionSink;
use crate::session::SessionId;
use crate::telemetry::ServerTelemetry;

/// A unit of work on a shard's queue.
pub(crate) enum Job {
    /// Frames of one session.
    Batch(Batch),
    /// Control-plane message (bypasses the backpressure gate).
    Control(Control),
}

pub(crate) struct Batch {
    pub session: SessionId,
    pub frames: Vec<SkeletonFrame>,
    pub enqueued: Instant,
}

pub(crate) enum Control {
    /// Deploy or replace a shared plan. Replacing is a **versioned
    /// rollout**: the new instance cuts in at this message's position
    /// in the FIFO (a batch boundary), and the replaced instance keeps
    /// stepping in draining mode — advancing its in-flight partial
    /// matches without seeding new ones — until they complete or
    /// expire. No frame is dropped and no in-flight detection is lost
    /// at cutover.
    Deploy(Arc<QueryPlan>),
    /// Remove a plan (and its per-session instances).
    Undeploy(String),
    /// Ensure session state exists.
    Open(SessionId),
    /// Drop session state; ack after all previously queued frames of the
    /// session have been processed (FIFO guarantees that).
    Close(SessionId, Option<Sender<()>>),
    /// Ack once every previously queued job is done.
    Barrier(Sender<()>),
    /// Exit the worker loop.
    Shutdown,
}

/// Producer-side view of a shard's queue: depth gate for backpressure
/// plus the shed handshake of the drop-oldest policy.
///
/// **Who calls what.** Any number of producer threads
/// (`ServerHandle::push_batch` / `offer_batch`) read `depth`, add to it
/// before their `send`, and — `push_batch` under `Block` only — park in
/// [`Self::wait_for_room`]. Exactly one thread at a time, the shard's
/// worker, calls [`Self::dequeued`]; [`Self::close`] runs once, when
/// the worker is gone for good.
///
/// **Ordering.** A parked producer is woken when the worker has drained
/// the queue down to the *low-water mark* (`cap − max(1, cap / 4)`),
/// not on every dequeue: a producer that outruns the shard costs one
/// futex wake per `cap / 4` batches instead of one per batch, and a
/// worker nobody waits for takes no lock at all. No wake-up is lost
/// because park and wake meet in a store-then-load handshake over two
/// atomics, all four operations `SeqCst`:
///
/// * producer — takes `lock`, **raises `parked`**, then **re-reads
///   `depth`** and waits on `cv` (releasing `lock`) only if the queue
///   is still full; woken to a queue the others have refilled, it
///   raises the flag again before it waits again;
/// * worker — **decrements `depth`**, then **reads `parked`**, and, if
///   it is raised and depth is at or under the mark, lowers it, takes
///   `lock` and notifies everyone.
///
/// In the one total order of those operations either the worker's read
/// of `parked` follows the producer's store — the worker then blocks on
/// `lock` until the producer is inside `wait`, so the notify lands — or
/// the producer's re-read of `depth` follows the worker's decrement and
/// sees the room it made. The flag is lowered by the waker, not by the
/// woken, so the dequeues between a wake-up and the producers actually
/// running do not notify again; a producer that raised it and found
/// room after all leaves it raised, which costs one idle notify. The
/// 50 ms timed wait stays as a backstop for what this argument does not
/// cover (a second producer interface that never parks keeping depth
/// above the mark); every time it, not a wake-up, ends a wait with room
/// in the queue is counted in `gesto_shard_gate_backstop_total`, which
/// stays 0 otherwise.
///
/// **Bound.** Soft, as before: every producer that saw `depth < cap`
/// adds one batch, so depth can reach `cap + producers − 1`.
///
/// 128-byte aligned so two shards' gates never share a cache line:
/// `depth` is hit by producers and the worker on every batch, and with
/// core-pinned shards false sharing between neighbouring gates would
/// couple otherwise independent shards.
#[repr(align(128))]
pub(crate) struct QueueGate {
    /// Batches currently queued.
    pub depth: AtomicUsize,
    /// Oldest-batch drop requests not yet honoured by the worker.
    pub shed_requests: AtomicUsize,
    /// Approximate bytes held by queued batches ([`batch_cost`] per
    /// batch): producers add before `send`, the worker subtracts at
    /// dequeue. Together with `ShardMetrics::state_bytes` this is the
    /// shard's footprint charged against the memory budget
    /// (`ServerConfig::shard_memory_budget`).
    pub queued_bytes: AtomicU64,
    /// `ServerConfig::effective_queue_capacity` (≥ 1).
    cap: usize,
    /// Depth at or under which the worker wakes parked producers.
    low_water: usize,
    /// Raised by a producer about to park in [`Self::wait_for_room`],
    /// lowered by the worker when it wakes them.
    parked: AtomicBool,
    /// Cleared when the worker exits — by shutdown *or* by panic (a
    /// drop guard in [`ShardWorker::run`] guarantees it), so blocked
    /// producers can never be stranded by a dead worker.
    open: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl QueueGate {
    pub fn new(cap: usize) -> Self {
        debug_assert!(cap >= 1, "use ServerConfig::effective_queue_capacity");
        Self {
            depth: AtomicUsize::new(0),
            shed_requests: AtomicUsize::new(0),
            queued_bytes: AtomicU64::new(0),
            cap,
            low_water: cap - (cap / 4).max(1),
            parked: AtomicBool::new(false),
            open: AtomicBool::new(true),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Queue depth at which the backpressure policy kicks in.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn has_room(&self) -> bool {
        !self.open.load(Ordering::SeqCst) || self.depth.load(Ordering::SeqCst) < self.cap
    }

    /// Blocks until the queue depth is below the capacity or the worker
    /// is gone (the caller's subsequent `send` then reports the
    /// disconnection as an error). A caller that finds the queue full
    /// sleeps until the worker has drained it to the low-water mark.
    pub fn wait_for_room(&self, metrics: &ShardMetrics) {
        if self.has_room() {
            return;
        }
        let mut guard = self.lock.lock().expect("gate mutex");
        loop {
            self.parked.store(true, Ordering::SeqCst);
            if self.has_room() {
                return;
            }
            let (g, timeout) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(50))
                .expect("gate mutex");
            guard = g;
            if self.has_room() {
                if timeout.timed_out() {
                    metrics.gate_backstops.inc();
                }
                return;
            }
        }
    }

    /// Worker side: one batch has left the queue. Returns the depth
    /// after it, having woken the parked producers if there are any and
    /// that depth is at or under the low-water mark.
    pub fn dequeued(&self, metrics: &ShardMetrics) -> usize {
        let remaining = self.depth.fetch_sub(1, Ordering::SeqCst) - 1;
        if remaining <= self.low_water && self.parked.load(Ordering::SeqCst) {
            self.parked.store(false, Ordering::SeqCst);
            metrics.producer_wakeups.inc();
            self.notify();
        }
        remaining
    }

    fn notify(&self) {
        let _guard = self.lock.lock().expect("gate mutex");
        self.cv.notify_all();
    }

    fn close(&self) {
        self.open.store(false, Ordering::SeqCst);
        self.notify();
    }
}

/// Queue-byte cost charged to [`QueueGate::queued_bytes`] for a batch of
/// `frames` frames: the inline frame size plus the batch's fixed
/// overhead. Deterministic from the frame count so producer (add) and
/// worker (subtract) always agree without shipping the figure in the
/// job.
pub(crate) fn batch_cost(frames: usize) -> u64 {
    (frames * std::mem::size_of::<SkeletonFrame>() + std::mem::size_of::<Batch>()) as u64
}

/// Closes the gate however [`ShardWorker::run`] exits — `Shutdown`,
/// every sender gone, or a panic outside the caught batch — so blocked
/// producers wake and see the disconnection.
struct GateGuard(Arc<QueueGate>);

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// State owned by one session on this shard (module docs: ownership):
/// a shared view runtime (each view evaluated once per frame), one
/// runtime instance per deployed plan in deployment order, plus the
/// retiring instances of replaced plan versions, still draining their
/// in-flight partial matches.
pub(crate) struct SessionRuntime {
    views: SharedViews,
    instances: Vec<PlanInstance>,
    /// Replaced instances in draining mode: they step on every batch
    /// (completing or expiring their in-flight runs, never seeding new
    /// ones) and are dropped once [`PlanInstance::active_runs`] hits 0.
    retiring: Vec<PlanInstance>,
    /// Whether anyone reads the raw stream's tuples (what
    /// [`Self::sync_needed`] returned last); the worker builds them
    /// only then.
    raw_tuples: bool,
    /// Last reported [`PlanInstance::state_bytes`] sum, so the shard
    /// gauge is updated by delta per batch.
    last_state_bytes: usize,
}

impl SessionRuntime {
    fn new(catalog: &Catalog, plans: &[Arc<QueryPlan>], raw: (&str, &SchemaRef)) -> Self {
        let mut views = SharedViews::new(catalog);
        let raw_tuples = Self::sync_needed(&mut views, plans, &[], raw);
        Self {
            views,
            instances: plans.iter().map(|p| p.instantiate()).collect(),
            retiring: Vec::new(),
            raw_tuples,
            last_state_bytes: 0,
        }
    }

    /// [`Self::sync_needed`] after the plan set or `self.retiring` changed.
    fn resync(&mut self, plans: &[Arc<QueryPlan>], raw: (&str, &SchemaRef)) {
        self.raw_tuples = Self::sync_needed(&mut self.views, plans, &self.retiring, raw);
    }

    /// The deploy-time view sync ([`gesto_cep::sync_shared_views`]) over
    /// the deployed plans plus the retiring instances' plans: retiring
    /// instances keep their views alive until they finish draining — a
    /// replaced plan's in-flight runs still need them. Returns whether
    /// any of them reads the tuples of the raw stream `raw` (name and
    /// schema): a route on the stream itself, or a needed view over it
    /// that cannot read skeleton frames.
    fn sync_needed(
        views: &mut SharedViews,
        plans: &[Arc<QueryPlan>],
        retiring: &[PlanInstance],
        (stream, schema): (&str, &SchemaRef),
    ) -> bool {
        let mut all: Vec<Arc<QueryPlan>> = plans.to_vec();
        all.extend(retiring.iter().map(|inst| inst.plan().clone()));
        gesto_cep::sync_shared_views(views, &all);
        all.iter()
            .flat_map(|p| p.routes())
            .any(|r| r.views.is_empty() && r.base == stream)
            || views.tuples_wanted(stream, &RowBatch::of(&Vec::<SkeletonFrame>::new(), schema))
    }
}

pub(crate) struct ShardWorker {
    pub rx: Receiver<Job>,
    pub catalog: Arc<Catalog>,
    pub schema: SchemaRef,
    pub stream: String,
    pub metrics: Arc<ShardMetrics>,
    pub gate: Arc<QueueGate>,
    pub listeners: Arc<RwLock<Vec<DetectionSink>>>,
    pub plans: Vec<Arc<QueryPlan>>,
    pub sessions: HashMap<SessionId, SessionRuntime>,
    /// Minimum frames per batch for the columnar path; shorter batches
    /// step scalar (the per-push adaptive choice — see
    /// `ServerConfig::columnar_min_batch`).
    columnar_min_batch: usize,
    /// Kinect slot table resolved once against the ingest schema, shared
    /// by the frame→tuple and frame→block conversions.
    slots: KinectSlots,
    /// The batch's detections (module docs: ownership).
    detections: Vec<Detection>,
    /// This worker's `gesto_detections_total{gesture}` counters, cached
    /// on each gesture's first detection.
    gesture_detections: HashMap<String, Arc<Counter>>,
    /// The batch's raw-stream tuples (module docs: ownership); empty
    /// while no session's plans read the raw stream.
    tuples: Vec<Tuple>,
    /// The one set of batch buffers (module docs: ownership).
    bufs: BatchBuffers,
    /// Stage-duration histograms (`gesto_stage_duration_ns{stage=…}`).
    telemetry: Arc<ServerTelemetry>,
    /// 1-in-N decision for timing this batch's stages (single-owner:
    /// a plain integer countdown, no atomics).
    stage_sampler: Sampler,
    /// Core to pin this worker to at start-up (`None` = unpinned; see
    /// `crate::affinity::placement`).
    pin_core: Option<usize>,
    /// Staleness deadline for queued batches — `Some` only under
    /// `BackpressurePolicy::DropOldest` with a configured
    /// `max_batch_age_ms`; older batches are shed before NFA stepping.
    max_batch_age: Option<Duration>,
}

impl ShardWorker {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rx: Receiver<Job>,
        catalog: Arc<Catalog>,
        schema: SchemaRef,
        stream: String,
        metrics: Arc<ShardMetrics>,
        gate: Arc<QueueGate>,
        listeners: Arc<RwLock<Vec<DetectionSink>>>,
        columnar_min_batch: usize,
        telemetry: Arc<ServerTelemetry>,
        pin_core: Option<usize>,
        max_batch_age: Option<Duration>,
    ) -> Self {
        let slots = KinectSlots::resolve(&schema, "");
        let stage_sampler = telemetry.sampler();
        Self {
            rx,
            catalog,
            schema,
            stream,
            metrics,
            gate,
            listeners,
            plans: Vec::new(),
            sessions: HashMap::new(),
            columnar_min_batch,
            slots,
            detections: Vec::new(),
            gesture_detections: HashMap::new(),
            tuples: Vec::new(),
            bufs: BatchBuffers::default(),
            telemetry,
            stage_sampler,
            pin_core,
            max_batch_age,
        }
    }

    /// The worker loop. A batch that panics is quarantined
    /// ([`Self::quarantine`]) and the loop carries on, on this thread.
    /// Returns on a `Shutdown` control message or when every sender is
    /// gone, with the gate closed.
    pub fn run(mut self) {
        let _gate_guard = GateGuard(self.gate.clone());
        // Pin before touching any session state so the NFA slabs and
        // view scratch are first faulted in from the core that will use
        // them. Failure (non-Linux, restricted cpuset) degrades to an
        // unpinned worker; `gesto_shard_pinned_core` stays -1.
        if let Some(cpu) = self.pin_core {
            if crate::affinity::pin_current_thread(cpu) {
                self.metrics.pinned_core.set(cpu as i64);
            }
        }
        while let Ok(job) = self.rx.recv() {
            match job {
                Job::Batch(batch) => {
                    self.gate
                        .queued_bytes
                        .fetch_sub(batch_cost(batch.frames.len()), Ordering::AcqRel);
                    let remaining = self.gate.dequeued(&self.metrics);
                    // Drop-oldest handshake: a producer that found the
                    // queue full asked for one queued batch to be shed;
                    // the batch at the head of the FIFO is the oldest.
                    // Only honour the request while a newer batch is
                    // still queued — if the queue drained in the
                    // meantime, this batch IS the newest, and the
                    // congestion the request reacted to is gone.
                    if remaining > 0 && take_one(&self.gate.shed_requests) {
                        self.metrics.shed_frames.add(batch.frames.len() as u64);
                        self.metrics.shed_batches.inc();
                        continue;
                    }
                    if remaining == 0 {
                        // Queue drained: any unhonoured shed requests are
                        // stale; void them so they can't drop batches of
                        // a later, uncongested burst.
                        self.gate.shed_requests.store(0, Ordering::Release);
                    }
                    // Staleness shedding (DropOldest only): a batch that
                    // sat queued past the deadline is worthless to a
                    // live gesture UI — drop it before paying for NFA
                    // stepping. Measured from the enqueue instant, so a
                    // deep queue behind a slow shard sheds its backlog
                    // in O(queue) instead of grinding through it.
                    if let Some(max_age) = self.max_batch_age {
                        if batch.enqueued.elapsed() >= max_age {
                            self.metrics.stale_frames.add(batch.frames.len() as u64);
                            self.metrics.stale_batches.inc();
                            continue;
                        }
                    }
                    let session = batch.session;
                    let frames = batch.frames.len() as u64;
                    // AssertUnwindSafe: what a panic can tear, and how
                    // quarantine repairs it, is in the module docs.
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.process(batch)
                    }))
                    .is_err()
                    {
                        self.quarantine(session, frames);
                    }
                }
                Job::Control(c) => {
                    if self.control(c) {
                        break;
                    }
                }
            }
        }
    }

    /// Post-panic cleanup, run on the worker thread that caught the
    /// unwind: count the panic, write off the poison batch's frames,
    /// clear the worker's scratch (it may hold torn mid-batch output;
    /// the batch buffers went down with the session they were lent to,
    /// so the worker starts a fresh set, sized again by the next
    /// batches), and reset the poisoned session's runtime **in place**
    /// — views and every plan instance rebuilt fresh, in-flight partial
    /// matches of that session (only) discarded and counted via
    /// `gesto_sessions_reset_total`. The thread's NFA match scratch
    /// needs no clearing: the unwound plan call dropped the one it
    /// took. Every other session's state is untouched: `process` only
    /// writes through the one session's runtime, so their detections
    /// stay bit-identical to an un-panicked run (pinned by
    /// `tests/supervision_e2e.rs`).
    fn quarantine(&mut self, session: SessionId, frames: u64) {
        self.metrics.panics.inc();
        self.metrics.quarantined_frames.add(frames);
        self.detections.clear();
        self.tuples.clear();
        self.bufs = BatchBuffers::default();
        if let Some(rt) = self.sessions.get_mut(&session) {
            self.metrics.retiring.add(-(rt.retiring.len() as i64));
            self.metrics.state_bytes.add(-(rt.last_state_bytes as i64));
            *rt = SessionRuntime::new(&self.catalog, &self.plans, (&self.stream, &self.schema));
            self.metrics.sessions_reset.inc();
        }
    }

    fn process(&mut self, batch: Batch) {
        let Self {
            sessions,
            catalog,
            schema,
            stream,
            metrics,
            plans,
            columnar_min_batch,
            slots,
            detections,
            gesture_detections,
            tuples,
            bufs,
            telemetry,
            stage_sampler,
            ..
        } = self;
        let runtime = match sessions.entry(batch.session) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                metrics.sessions.inc();
                e.insert(SessionRuntime::new(catalog, plans, (stream, schema)))
            }
        };
        detections.clear();
        let mut errors = 0u64;
        let SessionRuntime {
            views,
            instances,
            retiring,
            raw_tuples,
            last_state_bytes,
            ..
        } = runtime;
        // 1-in-N stage timing: a sampled batch takes one Instant
        // reading per stage boundary; an unsampled batch (the steady
        // state) pays a single integer decrement and no clock reads.
        let stages = &telemetry.stages;
        let timed = stage_sampler.sample();
        // Transform-once, step-batched: for readers of the raw stream
        // one tuple conversion per frame (and, on the columnar path,
        // one frame→block conversion of the whole batch straight from
        // the skeleton frames), one shared view evaluation per batch
        // over the frames themselves, then every deployed plan steps
        // its NFA over the whole batch in one call.
        let mark = timed.then(Instant::now);
        views.lend(std::mem::take(bufs));
        tuples.clear();
        if *raw_tuples {
            tuples.extend(batch.frames.iter().map(|f| slots.tuple(f, schema)));
            gesto_stream::metrics::TUPLES_BUILT_TOTAL.add(tuples.len() as u64);
        }
        // Adaptive scalar-vs-columnar choice, made per pushed batch: the
        // block kernels' fixed setup cost loses on tiny batches (batch 1
        // runs 0.3–1.0× scalar, batch 16 4.5–8.8×, batch 30 6.8–12×:
        // `gesto-cep`'s `kernel_speed` test), so short batches step scalar.
        // Detections are bit-identical either way.
        let take_columnar = batch.frames.len() >= *columnar_min_batch;
        if take_columnar {
            metrics.columnar_batches.inc();
        } else {
            metrics.block_skips.inc();
        }
        views.set_columnar(take_columnar);
        if views.base_wanted() {
            // Some deployed query reads the raw stream: build its block
            // straight from the frames (cheaper than going through the
            // tuples), restricted to the lanes deployed predicates
            // declared, and let begin_batch keep it.
            views.fill_base_with(|cols, block| {
                slots.write_block(&batch.frames, schema, cols, block)
            });
        }
        if let Some(t0) = mark {
            stages.transform.record(t0.elapsed().as_nanos() as u64);
        }
        let mark = timed.then(Instant::now);
        views.begin_batch_rows(stream, &RowBatch::of(&batch.frames, schema), tuples);
        if let Some(t0) = mark {
            stages.views.record(t0.elapsed().as_nanos() as u64);
        }
        let mark = timed.then(Instant::now);
        for inst in instances.iter_mut() {
            if inst
                .push_batch_shared(stream, tuples, views, detections)
                .is_err()
            {
                errors += 1;
            }
        }
        // Retiring instances of replaced plan versions step the same
        // batch: their in-flight runs advance (and may still detect)
        // but never seed, so a well-separated performance is matched by
        // exactly one version. Fully-drained instances retire here.
        if !retiring.is_empty() {
            for inst in retiring.iter_mut() {
                if inst
                    .push_batch_shared(stream, tuples, views, detections)
                    .is_err()
                {
                    errors += 1;
                }
            }
            if retiring.iter().any(|i| i.active_runs() == 0) {
                let before = retiring.len();
                retiring.retain(|i| i.active_runs() > 0);
                metrics.retiring.add(-((before - retiring.len()) as i64));
                *raw_tuples = SessionRuntime::sync_needed(views, plans, retiring, (stream, schema));
            }
        }
        // Every consumer has read the batch: the buffers are the
        // worker's again, the session keeps none.
        *bufs = views.reclaim();
        if let Some(t0) = mark {
            stages.nfa.record(t0.elapsed().as_nanos() as u64);
        }
        metrics.batch_buffer_bytes.set(bufs.bytes() as i64);

        // Run-slab accounting for the memory budget: fold this session's
        // state-size change into the shard gauge. Capacity-based (see
        // `PlanInstance::state_bytes`), so the steady state — capacities
        // settled — is a few loads and a zero delta.
        let state_now: usize = instances
            .iter()
            .chain(retiring.iter())
            .map(PlanInstance::state_bytes)
            .sum();
        if state_now != *last_state_bytes {
            metrics
                .state_bytes
                .add(state_now as i64 - *last_state_bytes as i64);
            *last_state_bytes = state_now;
        }

        metrics.frames_in.add(batch.frames.len() as u64);
        metrics.batches_in.inc();
        if errors > 0 {
            metrics.push_errors.add(errors);
        }

        let mark = timed.then(Instant::now);
        if !detections.is_empty() {
            metrics.detections.add(detections.len() as u64);
            for d in detections.iter() {
                match gesture_detections.get(&d.gesture) {
                    Some(counter) => counter.inc(),
                    None => {
                        let counter = telemetry.gesture_detections(&d.gesture);
                        counter.inc();
                        gesture_detections.insert(d.gesture.clone(), counter);
                    }
                }
            }
            // Writers (subscribe/unsubscribe, deploy-time) are rare, so
            // this read lock is uncontended on the steady state; when it
            // is not, count the wait — `gesto_shard_contention_total`
            // staying 0 is the audited no-blocking claim of the hot
            // path.
            let listeners = match self.listeners.try_read() {
                Some(guard) => guard,
                None => {
                    metrics.contention.inc();
                    self.listeners.read()
                }
            };
            for d in detections.iter() {
                for l in listeners.iter() {
                    // A panicking user sink must not take the shard (and
                    // every session on it) down with it.
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        l(batch.session, d)
                    }))
                    .is_err()
                    {
                        metrics.sink_panics.inc();
                    }
                }
            }
        }
        if let Some(t0) = mark {
            stages.sink.record(t0.elapsed().as_nanos() as u64);
        }

        metrics
            .latency
            .record(batch.enqueued.elapsed().as_micros() as u64);
    }

    /// Deploys or replaces one shared plan across every session.
    fn apply_deploy(&mut self, plan: Arc<QueryPlan>) {
        match self.plans.iter_mut().find(|p| p.name() == plan.name()) {
            Some(p) => *p = plan.clone(),
            None => self.plans.push(plan.clone()),
        }
        for slot in self.sessions.values_mut() {
            let instances = &mut slot.instances;
            match instances.iter_mut().find(|i| i.name() == plan.name()) {
                Some(i) => {
                    // Versioned cutover: the new version takes
                    // the slot (and seeds from the next frame
                    // on); the old one drains its in-flight
                    // runs in the retiring set instead of
                    // dropping them mid-gesture.
                    let mut old = std::mem::replace(i, plan.instantiate());
                    if old.active_runs() > 0 {
                        old.set_draining(true);
                        self.metrics.retiring.inc();
                        slot.retiring.push(old);
                    }
                }
                None => instances.push(plan.instantiate()),
            }
            slot.resync(&self.plans, (&self.stream, &self.schema));
        }
    }

    /// Handles one control message; returns `true` to stop the worker.
    fn control(&mut self, c: Control) -> bool {
        match c {
            Control::Deploy(plan) => self.apply_deploy(plan),
            Control::Undeploy(name) => {
                self.plans.retain(|p| p.name() != name);
                for slot in self.sessions.values_mut() {
                    slot.instances.retain(|i| i.name() != name);
                    // Undeploy is not a rollout: in-flight runs of the
                    // removed plan (any version) are discarded.
                    let before = slot.retiring.len();
                    slot.retiring.retain(|i| i.name() != name);
                    self.metrics
                        .retiring
                        .add(-((before - slot.retiring.len()) as i64));
                    slot.resync(&self.plans, (&self.stream, &self.schema));
                }
            }
            Control::Open(session) => {
                if let std::collections::hash_map::Entry::Vacant(e) = self.sessions.entry(session) {
                    self.metrics.sessions.inc();
                    e.insert(SessionRuntime::new(
                        &self.catalog,
                        &self.plans,
                        (&self.stream, &self.schema),
                    ));
                }
            }
            Control::Close(session, ack) => {
                if let Some(rt) = self.sessions.remove(&session) {
                    self.metrics.sessions.dec();
                    self.metrics.retiring.add(-(rt.retiring.len() as i64));
                    self.metrics.state_bytes.add(-(rt.last_state_bytes as i64));
                }
                if let Some(ack) = ack {
                    let _ = ack.send(());
                }
            }
            Control::Barrier(ack) => {
                let _ = ack.send(());
            }
            Control::Shutdown => return true,
        }
        false
    }
}

/// Atomically takes one pending request if any; returns whether it did.
fn take_one(counter: &AtomicUsize) -> bool {
    let mut current = counter.load(Ordering::Acquire);
    while current > 0 {
        match counter.compare_exchange_weak(
            current,
            current - 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return true,
            Err(actual) => current = actual,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::thread;

    use gesto_telemetry::Registry;

    use super::*;

    const CAP: usize = 64;
    const LOW_WATER: usize = 48;

    /// A full gate with one producer parked in `wait_for_room`; the
    /// receiver yields when the producer returns.
    fn gate_with_parked_producer() -> (Arc<QueueGate>, Arc<ShardMetrics>, mpsc::Receiver<()>) {
        let gate = Arc::new(QueueGate::new(CAP));
        let metrics = Arc::new(ShardMetrics::new(&Registry::new(), 0));
        gate.depth.store(CAP, Ordering::SeqCst);
        let (tx, returned) = mpsc::channel();
        let (g, m) = (gate.clone(), metrics.clone());
        thread::spawn(move || {
            g.wait_for_room(&m);
            let _ = tx.send(());
        });
        while !gate.parked.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        (gate, metrics, returned)
    }

    #[test]
    fn parked_producer_is_woken_at_the_low_water_mark_and_not_before() {
        let (gate, metrics, returned) = gate_with_parked_producer();
        assert_eq!(gate.low_water, LOW_WATER);
        for depth in (LOW_WATER + 1..CAP).rev() {
            assert_eq!(gate.dequeued(&metrics), depth);
            assert_eq!(metrics.producer_wakeups.get(), 0);
        }
        // Room since the first dequeue, yet nothing but the counted
        // backstop (this thread stalled for 50 ms) may have let it go.
        if returned.try_recv().is_ok() {
            assert!(metrics.gate_backstops.get() > 0);
            return;
        }
        assert!(gate.parked.load(Ordering::SeqCst));

        assert_eq!(gate.dequeued(&metrics), LOW_WATER);
        assert_eq!(metrics.producer_wakeups.get(), 1);
        returned
            .recv_timeout(Duration::from_secs(10))
            .expect("woken at the low-water mark");
        // Lowered by the waker: draining on does not notify again.
        assert!(!gate.parked.load(Ordering::SeqCst));
        gate.dequeued(&metrics);
        assert_eq!(metrics.producer_wakeups.get(), 1);
    }

    #[test]
    fn close_releases_a_parked_producer() {
        let (gate, metrics, returned) = gate_with_parked_producer();
        gate.close();
        returned
            .recv_timeout(Duration::from_secs(10))
            .expect("released by close");
        assert_eq!(gate.depth.load(Ordering::SeqCst), CAP, "still full");
        assert_eq!(metrics.producer_wakeups.get(), 0);
    }

    #[test]
    fn worker_takes_no_lock_while_nobody_is_parked() {
        let gate = Arc::new(QueueGate::new(CAP));
        let metrics = Arc::new(ShardMetrics::new(&Registry::new(), 0));
        gate.depth.store(CAP, Ordering::SeqCst);
        // The mutex is held for the whole drain: a worker that locked
        // it would never finish.
        let held = gate.lock.lock().unwrap();
        let (tx, drained) = mpsc::channel();
        let (g, m) = (gate.clone(), metrics.clone());
        thread::spawn(move || {
            for _ in 0..CAP {
                g.dequeued(&m);
            }
            let _ = tx.send(());
        });
        drained
            .recv_timeout(Duration::from_secs(10))
            .expect("drained without the gate mutex");
        drop(held);
        assert_eq!(gate.depth.load(Ordering::SeqCst), 0);
        assert_eq!(metrics.producer_wakeups.get(), 0);
    }

    /// Detections a test worker's listener saw, by session.
    type Seen = Arc<Mutex<Vec<(u64, Detection)>>>;

    /// `SELECT "<name>" MATCHING <pattern> …`, compiled for `catalog`.
    fn plan(catalog: &Arc<Catalog>, name: &str, pattern: &str) -> Arc<QueryPlan> {
        let text = format!(
            r#"SELECT "{name}" MATCHING {pattern} within 2 seconds select first consume all;"#
        );
        gesto_cep::Engine::new(catalog.clone())
            .compile(gesto_cep::parse_query(&text).unwrap())
            .unwrap()
    }

    /// A worker over the standard catalog with one query deployed, the
    /// way `Server::start` + a deploy leave it, and what it detects.
    fn worker_with_swipe_query() -> (ShardWorker, Seen) {
        let catalog = gesto_transform::standard_catalog();
        let plan = plan(
            &catalog,
            "swipe",
            "kinect_t(rHand_x < 100 and abs(rHand_y - 150) < 120) -> kinect_t(rHand_x > 700)",
        );
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let listener: DetectionSink = Arc::new(move |sid: SessionId, d: &Detection| {
            sink.lock().unwrap().push((sid.0, d.clone()))
        });
        let config = crate::ServerConfig::new();
        let (_tx, rx) = crossbeam::channel::unbounded();
        let mut worker = ShardWorker::new(
            rx,
            catalog,
            gesto_kinect::kinect_schema(),
            gesto_kinect::KINECT_STREAM.to_owned(),
            Arc::new(ShardMetrics::new(&Registry::new(), 0)),
            Arc::new(QueueGate::new(CAP)),
            Arc::new(RwLock::new(vec![listener])),
            config.columnar_min_batch,
            Arc::new(ServerTelemetry::new(&config)),
            None,
            None,
        );
        worker.apply_deploy(plan);
        (worker, seen)
    }

    fn batch(session: u64, frames: &[SkeletonFrame]) -> Batch {
        Batch {
            session: SessionId(session),
            frames: frames.to_vec(),
            enqueued: Instant::now(),
        }
    }

    fn swipe(seed: u64) -> Vec<SkeletonFrame> {
        use gesto_kinect::{gestures, Performer, Persona};
        Performer::new(Persona::reference().with_seed(seed), 0).render(&gestures::swipe_right())
    }

    /// A detection's comparison key: session, gesture, `ts`,
    /// `started_at`, event values.
    type Key = (u64, String, i64, i64, Vec<Vec<gesto_stream::Value>>);

    fn keys(seen: &Mutex<Vec<(u64, Detection)>>) -> Vec<Key> {
        seen.lock()
            .unwrap()
            .iter()
            .map(|(sid, d)| {
                let events = d.events.iter().map(|t| t.values().to_vec()).collect();
                (*sid, d.gesture.clone(), d.ts, d.started_at, events)
            })
            .collect()
    }

    #[test]
    fn batch_buffers_stay_with_the_worker_not_the_sessions() {
        let (mut worker, seen) = worker_with_swipe_query();
        let traces = [swipe(1), swipe(2)];
        // Interleaved, uneven batches (15 frames step columnar, 3 scalar).
        for (a, b) in traces[0].chunks(15).zip(traces[1].chunks(3)) {
            for (sid, frames) in [(1, a), (2, b)] {
                worker.process(batch(sid, frames));
                for rt in worker.sessions.values() {
                    assert_eq!(
                        rt.views.buffer_bytes(),
                        0,
                        "a session retains no batch buffer"
                    );
                }
                assert!(worker.bufs.bytes() > 0);
                assert_eq!(
                    worker.metrics.snapshot(0, 0).batch_buffer_bytes as usize,
                    worker.bufs.bytes()
                );
            }
        }
        for rest in traces[1].chunks(3).skip(traces[0].chunks(15).len()) {
            worker.process(batch(2, rest));
        }
        let shared = keys(&seen);
        assert_eq!(shared.iter().filter(|k| k.0 == 1).count(), 1);
        assert_eq!(shared.iter().filter(|k| k.0 == 2).count(), 1);

        // The same traces, each on a worker of its own: nothing of one
        // session's frames reached the other's detection.
        for (sid, trace, chunk) in [(1, &traces[0], 15), (2, &traces[1], 3)] {
            let (mut alone, seen) = worker_with_swipe_query();
            for frames in trace.chunks(chunk) {
                alone.process(batch(sid, frames));
            }
            let own: Vec<_> = shared.iter().filter(|k| k.0 == sid).cloned().collect();
            assert_eq!(keys(&seen), own, "session {sid}");
        }
    }

    #[test]
    fn raw_tuples_are_built_only_while_a_plan_reads_the_raw_stream() {
        use gesto_kinect::{gestures, Performer, Persona};
        const RAW: &str = "kinect(rHand_x - torso_x < 100) -> kinect(rHand_x - torso_x > 700)";
        const VIEW: &str = "kinect_t(rHand_x < 100) -> kinect_t(rHand_x > 700)";

        // Three swipes per session, in 15-frame (columnar) and 4-frame
        // (scalar) batches, taking turns on one worker.
        let traces: Vec<Vec<SkeletonFrame>> = (7..9)
            .map(|seed| {
                let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
                (0..3)
                    .flat_map(|_| p.render(&gestures::swipe_right()))
                    .collect()
            })
            .collect();
        let turns: Vec<(u64, &[SkeletonFrame])> = traces[0]
            .chunks(15)
            .zip(traces[1].chunks(4))
            .flat_map(|(a, b)| [(1, a), (2, b)])
            .collect();
        let (deploy, replace, undeploy) =
            (turns.len() / 5, 2 * turns.len() / 5, 4 * turns.len() / 5);

        // The same jobs at the same FIFO positions; `only` keeps one
        // session's batches.
        let run = |only: Option<u64>, check: bool| {
            let (mut worker, seen) = worker_with_swipe_query();
            let catalog = worker.catalog.clone();
            let mut kept_on_by_retiring = false;
            for (i, &(sid, frames)) in turns.iter().enumerate() {
                if i == deploy {
                    worker.control(Control::Deploy(plan(&catalog, "raw", RAW)));
                } else if i == replace {
                    // Version 2 reads the view: version 1's in-flight
                    // runs are all that still reads the raw stream.
                    worker.control(Control::Deploy(plan(&catalog, "raw", VIEW)));
                } else if i == undeploy {
                    worker.control(Control::Undeploy("raw".into()));
                }
                if only.is_some_and(|s| s != sid) {
                    continue;
                }
                let before = worker.sessions.get(&SessionId(sid)).map(|rt| rt.raw_tuples);
                worker.process(batch(sid, frames));
                if !check {
                    continue;
                }
                // Settled by the syncs before the batch; the sync after
                // the last retiring instance drained shows from the next.
                let rt = &worker.sessions[&SessionId(sid)];
                let deployed = (deploy..replace).contains(&i);
                assert_eq!(rt.raw_tuples, deployed || !rt.retiring.is_empty());
                let built = before.unwrap_or(rt.raw_tuples);
                assert!(built || !deployed, "turn {i}");
                kept_on_by_retiring |= built && !deployed;
                assert_eq!(worker.tuples.len(), if built { frames.len() } else { 0 });
                for (t, f) in worker.tuples.iter().zip(frames) {
                    let fresh = worker.slots.tuple(f, &worker.schema);
                    assert_eq!(t.values(), fresh.values(), "turn {i}");
                }
            }
            assert!(!check || kept_on_by_retiring);
            assert!(worker.sessions.values().all(|rt| rt.retiring.is_empty()));
            keys(&seen)
        };
        let shared = run(None, true);
        for g in ["swipe", "raw"] {
            assert!(shared.iter().any(|k| k.1 == g), "{g} detected");
        }
        for sid in [1, 2] {
            let own: Vec<_> = shared.iter().filter(|k| k.0 == sid).cloned().collect();
            assert_eq!(run(Some(sid), false), own, "session {sid} alone");
        }
    }

    #[test]
    fn quarantine_rebuilds_buffers_torn_while_lent() {
        let (mut worker, seen) = worker_with_swipe_query();
        let (victim, bystander) = (swipe(3), swipe(4));
        let mid = bystander.len() / 2;
        worker.process(batch(2, &bystander[..mid]));
        worker.process(batch(1, &victim[..10]));
        // A panic mid-`process`: the buffers are with the victim, its
        // half-written outputs in them, and never came back. A row it
        // built is counted all the same: a tuple counts when it is built.
        let rt = worker.sessions.get_mut(&SessionId(1)).unwrap();
        rt.views.lend(std::mem::take(&mut worker.bufs));
        let torn = victim[..10].to_vec();
        let rows = RowBatch::of(&torn, &worker.schema);
        rt.views.begin_batch_rows(&worker.stream, &rows, &[]);
        assert!(rt.views.buffer_bytes() > 0);
        let built = || gesto_stream::metrics::TUPLES_BUILT_TOTAL.get();
        let counted = built();
        let slot = rt.views.slot_of(gesto_transform::KINECT_T).unwrap();
        assert!(rt.views.rows(slot).get(3).f64("rHand_x").is_some());
        worker.quarantine(SessionId(1), 10);
        assert!(built() > counted, "the torn batch's tuple is counted");
        assert_eq!(worker.bufs.bytes(), 0, "a fresh set, not the torn one");
        assert!(worker.tuples.is_empty());
        assert_eq!(worker.sessions[&SessionId(1)].views.buffer_bytes(), 0);

        // The bystander's straddling gesture and the reset victim's next
        // one detect exactly what an un-panicked worker detects.
        worker.process(batch(2, &bystander[mid..]));
        worker.process(batch(1, &victim));
        assert!(worker.bufs.bytes() > 0, "sized again by the next batches");

        let (mut clean, expect) = worker_with_swipe_query();
        clean.process(batch(2, &bystander[..mid]));
        clean.process(batch(2, &bystander[mid..]));
        clean.process(batch(1, &victim));
        assert_eq!(keys(&seen), keys(&expect));
        assert_eq!(keys(&seen).len(), 2);
    }

    #[test]
    fn run_recovers_a_panicked_batch_and_returns_once_on_shutdown() {
        use gesto_cep::expr::{Arity, FunctionRegistry};
        use gesto_stream::Value;
        const POISON_TS: i64 = 777_777_777;

        let (mut worker, seen) = worker_with_swipe_query();
        // A plan whose predicate panics on one frame timestamp.
        let funcs = FunctionRegistry::with_builtins();
        funcs.register(
            "boom",
            Arity::Exact(1),
            Arc::new(|args: &[Value]| {
                assert_ne!(args[0].as_i64(), Some(POISON_TS), "poisoned frame");
                Ok(Value::Float(0.0))
            }),
        );
        let text = r#"SELECT "boom" MATCHING kinect_t(boom(ts) > 1.0);"#;
        let query = gesto_cep::parse_query(text).unwrap();
        worker.apply_deploy(QueryPlan::compile(query, worker.catalog.as_ref(), &funcs).unwrap());

        let (tx, rx) = crossbeam::channel::unbounded();
        worker.rx = rx;
        let (metrics, gate) = (worker.metrics.clone(), worker.gate.clone());
        let clean = swipe(5);
        let mid = clean.len() / 2;
        let mut poison = swipe(6)[..4].to_vec();
        poison[0].ts = POISON_TS;
        for b in [
            batch(1, &clean[..mid]),
            batch(2, &poison),
            batch(1, &clean[mid..]),
        ] {
            gate.depth.fetch_add(1, Ordering::SeqCst);
            gate.queued_bytes
                .fetch_add(batch_cost(b.frames.len()), Ordering::SeqCst);
            assert!(tx.send(Job::Batch(b)).is_ok());
        }
        assert!(tx.send(Job::Control(Control::Shutdown)).is_ok());

        let (returned, returns) = mpsc::channel();
        let thread = thread::spawn(move || {
            worker.run();
            returned.send(()).unwrap();
        });
        returns
            .recv_timeout(Duration::from_secs(10))
            .expect("run returns on Shutdown");
        thread.join().unwrap();
        assert!(returns.try_recv().is_err(), "run returned exactly once");

        let m = metrics.snapshot(0, gate.depth.load(Ordering::SeqCst));
        assert_eq!((m.panics, m.sessions_reset), (1, 1));
        assert_eq!(m.quarantined_frames, poison.len() as u64);
        assert_eq!((m.batches_in, m.frames_in), (2, clean.len() as u64));
        assert_eq!(
            (m.queue_depth, gate.queued_bytes.load(Ordering::SeqCst)),
            (0, 0)
        );
        assert!(!gate.open.load(Ordering::SeqCst), "gate closed on exit");
        // The swipe straddling the panic still detects.
        assert_eq!(keys(&seen).iter().filter(|k| k.0 == 1).count(), 1);
    }

    #[test]
    fn small_capacities_wake_on_every_dequeue() {
        for cap in 1..8 {
            assert_eq!(QueueGate::new(cap).low_water, cap - 1, "cap {cap}");
        }
        assert_eq!(QueueGate::new(8).low_water, 6);
        assert_eq!(QueueGate::new(256).low_water, 192);
    }
}
