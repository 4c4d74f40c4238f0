//! The multi-session detection server and its clonable handle.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use gesto_cep::{parse_query, Detection, FunctionRegistry, Query, QueryPlan};
use gesto_db::GestureStore;
use gesto_durability::{load_newest_checkpoint, save_checkpoint, Journal};
use gesto_kinect::{kinect_schema, SkeletonFrame, KINECT_STREAM};
use gesto_learn::{GestureDefinition, LearnerConfig};
use gesto_stream::{Catalog, SchemaRef};
use gesto_transform::{register_rpy, standard_catalog};
use parking_lot::{Mutex, RwLock};

use crate::config::{BackpressurePolicy, ServerConfig};
use crate::durable::{self, ControlOp, DurableState};
use crate::error::ServeError;
use crate::metrics::{OverloadPolicy, OverloadState, ServerMetrics, ShardMetrics};
use crate::session::SessionId;
use crate::shard::{batch_cost, Batch, Control, Job, QueueGate, ShardWorker};
use crate::telemetry::ServerTelemetry;

/// Checkpoint files kept after each checkpoint: the newest plus one
/// fallback, so recovery can skip a corrupt newest checkpoint.
const KEEP_CHECKPOINTS: usize = 2;

/// Journaled ops between automatic checkpoints (each checkpoint also
/// rotates and compacts the journal, so recovery replays at most this
/// many ops past the newest checkpoint).
const CHECKPOINT_EVERY: u64 = 16;

/// Callback invoked for every detection of every session.
pub type DetectionSink = Arc<dyn Fn(SessionId, &Detection) + Send + Sync>;

/// Outcome of a non-blocking [`ServerHandle::offer_batch`].
#[derive(Debug)]
pub enum OfferOutcome {
    /// The batch was queued on the session's shard.
    Queued,
    /// The session's shard queue is at capacity under the
    /// [`BackpressurePolicy::Block`] policy. The frames are handed back
    /// unchanged so the caller can retry later without cloning — the
    /// network edge parks them and stops granting the connection
    /// credit, turning shard-side backpressure into protocol-level
    /// backpressure.
    Full(Vec<SkeletonFrame>),
}

/// Producer-side link to one shard.
struct ShardLink {
    tx: Sender<Job>,
    gate: Arc<QueueGate>,
    metrics: Arc<ShardMetrics>,
}

/// One deployed plan with its rollout version. Redeploying a name
/// installs version `n + 1`; shards cut the new instance in at a batch
/// boundary and drain the old one's in-flight runs before retiring it
/// (see `Control::Deploy` handling in [`crate::shard`]).
pub(crate) struct DeployedPlan {
    pub plan: Arc<QueryPlan>,
    pub version: u32,
}

/// The versioned plan registry, shared with the telemetry collector
/// (`gesto_plan_version{gesture}`) — the collector captures only this
/// `Arc`, never the server core, so shutdown has no cycle to break.
pub(crate) type PlanRegistry = Arc<RwLock<HashMap<String, DeployedPlan>>>;

/// State shared between the [`Server`] and every [`ServerHandle`].
struct ServerCore {
    config: ServerConfig,
    catalog: Arc<Catalog>,
    funcs: Arc<FunctionRegistry>,
    store: Arc<GestureStore>,
    schema: SchemaRef,
    shards: Vec<ShardLink>,
    /// Authoritative deployed set with rollout versions (the shards
    /// mirror it).
    plans: PlanRegistry,
    /// Durable control plane: the open journal + checkpoint pacing.
    /// `None` when durability is off. Shared with the telemetry
    /// collector (journal/checkpoint counters) via the `Arc`.
    durable: Arc<Mutex<Option<DurableState>>>,
    listeners: Arc<RwLock<Vec<DetectionSink>>>,
    /// The scrape surface: registry + owned instruments (stage timers,
    /// plans-compiled counter).
    telemetry: Arc<ServerTelemetry>,
    closed: AtomicBool,
    /// Start-up (including durable recovery + plan rebroadcast) done.
    ready: AtomicBool,
}

/// A sharded, multi-threaded detection runtime serving many concurrent
/// skeleton streams over shared, compile-once query plans.
///
/// Owns the worker threads; all operations are also available on the
/// clonable, `Send` [`ServerHandle`] (via [`Server::handle`] or deref).
///
/// ```
/// use gesto_kinect::{gestures, Performer, Persona};
/// use gesto_serve::{Server, ServerConfig, SessionId};
///
/// let server = Server::start(ServerConfig::new().with_shards(2));
/// let samples: Vec<_> = (0..3)
///     .map(|seed| {
///         Performer::new(Persona::reference().with_seed(seed), 0)
///             .render(&gestures::swipe_right())
///     })
///     .collect();
/// server.teach("swipe_right", &samples).unwrap();
///
/// let frames = Performer::new(Persona::reference(), 0).render(&gestures::swipe_right());
/// server.push_batch(SessionId(7), frames).unwrap();
/// server.drain().unwrap();
/// assert!(server.metrics().detections() > 0);
/// server.shutdown();
/// ```
pub struct Server {
    handle: ServerHandle,
    workers: Vec<JoinHandle<()>>,
}

/// Clonable, thread-safe handle to a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    core: Arc<ServerCore>,
}

impl Server {
    /// Starts a server with the standard Kinect catalog (`kinect` stream +
    /// `kinect_t` view), the RPY functions and a fresh gesture store.
    ///
    /// Panics if the durable control plane is configured and recovery
    /// fails (unreadable journal directory, un-restorable state); use
    /// [`Self::try_start`] to handle that error.
    pub fn start(config: ServerConfig) -> Self {
        Self::try_start(config).expect("durable control plane recovery failed")
    }

    /// [`Self::start`], returning recovery errors instead of panicking.
    pub fn try_start(config: ServerConfig) -> Result<Self, ServeError> {
        let catalog = standard_catalog();
        let funcs = Arc::new(FunctionRegistry::with_builtins());
        register_rpy(&funcs);
        Self::try_with_parts(config, catalog, funcs, Arc::new(GestureStore::new()))
    }

    /// Starts a server over existing parts — the upgrade path from a
    /// single-user `GestureSystem` (catalog, functions and store carry
    /// over; use [`ServerHandle::deploy_plan`] to move live queries in
    /// without recompiling). When [`crate::ServerConfig::durability`] is
    /// set, this is where crash recovery happens: load the newest valid
    /// checkpoint, replay the journal tail, recompile each surviving
    /// plan **once**, broadcast to the shards — then open the journal
    /// for new ops.
    pub fn try_with_parts(
        config: ServerConfig,
        catalog: Arc<Catalog>,
        funcs: Arc<FunctionRegistry>,
        store: Arc<GestureStore>,
    ) -> Result<Self, ServeError> {
        let shard_count = config.effective_shards();
        let listeners: Arc<RwLock<Vec<DetectionSink>>> = Arc::new(RwLock::new(Vec::new()));
        let schema = kinect_schema();
        let telemetry = Arc::new(ServerTelemetry::new(&config));

        // Shard→core placement: only when pinning is on and the host has
        // cores to spread over (no shard is pinned to core 0).
        let host_cores = crate::affinity::host_cores();

        let plans: PlanRegistry = Arc::new(RwLock::new(HashMap::new()));
        // Staleness shedding only exists under DropOldest: dropping a
        // Block producer's accepted batch would break its no-loss
        // contract.
        let max_batch_age = (matches!(config.backpressure, BackpressurePolicy::DropOldest)
            && config.max_batch_age_ms > 0)
            .then(|| Duration::from_millis(config.max_batch_age_ms));

        let mut shards = Vec::with_capacity(shard_count);
        let mut workers = Vec::with_capacity(shard_count);
        for shard_id in 0..shard_count {
            let (tx, rx) = unbounded::<Job>();
            let gate = Arc::new(QueueGate::new(config.effective_queue_capacity()));
            let metrics = Arc::new(ShardMetrics::new(&telemetry.registry(), shard_id));
            let pin_core = config
                .pin_shards
                .then(|| crate::affinity::placement(shard_id, host_cores))
                .flatten();
            let worker = ShardWorker::new(
                rx,
                catalog.clone(),
                schema.clone(),
                KINECT_STREAM.to_owned(),
                metrics.clone(),
                gate.clone(),
                listeners.clone(),
                config.columnar_min_batch,
                telemetry.clone(),
                pin_core,
                max_batch_age,
            );
            let handle = std::thread::Builder::new()
                .name(format!("gesto-shard-{shard_id}"))
                .spawn(move || worker.run())
                .expect("spawn shard worker");
            workers.push(handle);
            shards.push(ShardLink { tx, gate, metrics });
        }
        telemetry.register_overload(
            shards
                .iter()
                .map(|l| (l.metrics.clone(), l.gate.clone()))
                .collect(),
            OverloadPolicy::from_config(&config),
        );

        let durable: Arc<Mutex<Option<DurableState>>> = Arc::new(Mutex::new(None));
        telemetry.register_plan_versions(plans.clone());
        telemetry.register_durable(durable.clone());

        let core = Arc::new(ServerCore {
            config,
            catalog,
            funcs,
            store,
            schema,
            shards,
            plans,
            durable,
            listeners,
            telemetry,
            closed: AtomicBool::new(false),
            ready: AtomicBool::new(false),
        });
        let server = Server {
            handle: ServerHandle { core },
            workers,
        };
        if server.handle.core.config.durability.is_some() {
            server.handle.recover()?;
        }
        server.handle.core.ready.store(true, Ordering::Release);
        Ok(server)
    }

    /// A clonable handle for producers and control planes on other
    /// threads.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Drains all shards, stops the worker threads and joins them.
    /// Queued frames are fully processed first.
    pub fn shutdown(mut self) {
        let _ = self.handle.drain();
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.handle.core.closed.store(true, Ordering::Release);
        self.handle.core.ready.store(false, Ordering::Release);
        for link in &self.handle.core.shards {
            let _ = link.tx.send(Job::Control(Control::Shutdown));
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_workers();
        }
    }
}

impl std::ops::Deref for Server {
    type Target = ServerHandle;

    fn deref(&self) -> &ServerHandle {
        &self.handle
    }
}

impl ServerHandle {
    // ----- ingestion -------------------------------------------------

    /// Enqueues a batch of raw camera frames for `session`, applying the
    /// configured backpressure policy if the session's shard is behind.
    ///
    /// **Threads.** Callable from any number of threads at once, on any
    /// clone of the handle; under [`BackpressurePolicy::Block`] it may
    /// park the *calling* thread, so event loops use
    /// [`Self::offer_batch`] instead. Never call it from a
    /// [`DetectionSink`]: sinks run on the shard worker, and a worker
    /// parked behind its own queue never drains it.
    ///
    /// **Ordering.** Batches of one session pushed from one thread are
    /// processed in push order, on a single shard; the call returns once
    /// the batch is queued (detections are delivered through
    /// [`Self::on_detection`] sinks and metrics). Two threads pushing
    /// the same session are ordered only by who enqueues first. A
    /// control call (`deploy`, `close_session`, `drain`) takes effect at
    /// its position in the same per-shard FIFO, after every batch
    /// queued before it.
    ///
    /// **Bound.** `queue_capacity` is soft: each producer that saw room
    /// adds one batch, so a shard's queue can reach `capacity +
    /// concurrent producers − 1` batches. A producer that found the
    /// queue full under `Block` sleeps until the worker has drained it
    /// to the low-water mark, `capacity − max(1, capacity / 4)`, and
    /// then refills it in a burst (one wake-up per `capacity / 4`
    /// batches, not one per batch).
    pub fn push_batch(
        &self,
        session: SessionId,
        frames: Vec<SkeletonFrame>,
    ) -> Result<(), ServeError> {
        self.enqueue(session, frames, |link| {
            link.gate.wait_for_room(&link.metrics);
            true
        })
        .map(|_| ())
    }

    /// The enqueue path of [`Self::push_batch`] and [`Self::offer_batch`].
    /// `on_full` is what [`BackpressurePolicy::Block`] does with a full
    /// queue: park until there is room and return `true`, or return
    /// `false` to hand the frames back as [`OfferOutcome::Full`].
    fn enqueue(
        &self,
        session: SessionId,
        frames: Vec<SkeletonFrame>,
        on_full: impl FnOnce(&ShardLink) -> bool,
    ) -> Result<OfferOutcome, ServeError> {
        if self.core.closed.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let shard = session.shard(self.core.shards.len());
        let link = &self.core.shards[shard];
        self.check_memory_budget(shard, link, frames.len())?;
        let full = link.gate.depth.load(Ordering::Acquire) >= link.gate.capacity();
        match self.core.config.backpressure {
            BackpressurePolicy::Block if full && !on_full(link) => {
                return Ok(OfferOutcome::Full(frames));
            }
            BackpressurePolicy::DropOldest if full => {
                link.gate.shed_requests.fetch_add(1, Ordering::AcqRel);
            }
            _ => {}
        }
        let cost = batch_cost(frames.len());
        link.gate.depth.fetch_add(1, Ordering::AcqRel);
        link.gate.queued_bytes.fetch_add(cost, Ordering::AcqRel);
        link.tx
            .send(Job::Batch(Batch {
                session,
                frames,
                enqueued: Instant::now(),
            }))
            .map(|()| OfferOutcome::Queued)
            .map_err(|_| {
                link.gate.depth.fetch_sub(1, Ordering::AcqRel);
                link.gate.queued_bytes.fetch_sub(cost, Ordering::AcqRel);
                ServeError::Shutdown
            })
    }

    /// Per-shard memory-budget admission check (no-op when
    /// `shard_memory_budget` is 0): refuses the batch with
    /// [`ServeError::QueueFull`] — **whatever the backpressure policy**
    /// — when queued bytes plus resident NFA state would exceed the
    /// budget. Refusing before allocating is the graceful-degradation
    /// contract: an explicit, counted admission decision instead of an
    /// OOM kill.
    fn check_memory_budget(
        &self,
        shard: usize,
        link: &ShardLink,
        frames: usize,
    ) -> Result<(), ServeError> {
        let budget = self.core.config.shard_memory_budget;
        if budget == 0 {
            return Ok(());
        }
        let used = link.gate.queued_bytes.load(Ordering::Acquire)
            + link.metrics.state_bytes.get().max(0) as u64;
        if used + batch_cost(frames) > budget as u64 {
            link.metrics.mem_rejected_batches.inc();
            return Err(ServeError::QueueFull { shard });
        }
        Ok(())
    }

    /// Non-blocking [`Self::push_batch`]: never parks the calling
    /// thread, whatever the backpressure policy.
    ///
    /// Under [`BackpressurePolicy::Block`] a full shard queue returns
    /// [`OfferOutcome::Full`] with the frames handed back instead of
    /// blocking; drop-oldest behaves exactly as in `push_batch` (it
    /// sheds). This is the entry point event-loop callers (the TCP edge
    /// in [`crate::net`]) use, since they must not stall every other
    /// connection while one shard is behind.
    ///
    /// Threads, ordering and the soft bound are those of `push_batch`;
    /// the caller keeps a handed-back batch ahead of the session's
    /// later ones itself. It takes no lock and is never woken: `Full`
    /// is re-tried on the caller's own schedule, any depth below
    /// `queue_capacity` admits it, and a shard fed only through here
    /// never touches its gate's mutex.
    pub fn offer_batch(
        &self,
        session: SessionId,
        frames: Vec<SkeletonFrame>,
    ) -> Result<OfferOutcome, ServeError> {
        self.enqueue(session, frames, |_| false)
    }

    /// Creates session state eagerly (otherwise it is created on the
    /// session's first batch).
    pub fn open_session(&self, session: SessionId) -> Result<(), ServeError> {
        self.control(
            session.shard(self.core.shards.len()),
            Control::Open(session),
        )
    }

    /// Closes a session, discarding its NFA/view state. Blocks until all
    /// of the session's previously queued frames have been processed —
    /// under the blocking policy a close loses nothing.
    pub fn close_session(&self, session: SessionId) -> Result<(), ServeError> {
        self.close_session_begin(session)?
            .recv()
            .map_err(|_| ServeError::Shutdown)
    }

    /// Starts closing a session without waiting: the returned receiver
    /// yields once the shard has processed all of the session's queued
    /// frames and dropped its state. Event-loop callers (the TCP edge)
    /// poll it instead of blocking.
    pub(crate) fn close_session_begin(
        &self,
        session: SessionId,
    ) -> Result<Receiver<()>, ServeError> {
        let shard = session.shard(self.core.shards.len());
        let (ack_tx, ack_rx) = bounded(1);
        self.control(shard, Control::Close(session, Some(ack_tx)))?;
        Ok(ack_rx)
    }

    /// Blocks until every job queued on every shard so far has been
    /// processed.
    pub fn drain(&self) -> Result<(), ServeError> {
        let mut acks = Vec::with_capacity(self.core.shards.len());
        for shard in 0..self.core.shards.len() {
            let (ack_tx, ack_rx) = bounded(1);
            self.control(shard, Control::Barrier(ack_tx))?;
            acks.push(ack_rx);
        }
        for ack in acks {
            ack.recv().map_err(|_| ServeError::Shutdown)?;
        }
        Ok(())
    }

    // ----- control plane ---------------------------------------------

    /// Learns a gesture from raw camera-frame samples (the same pipeline
    /// as `GestureSystem::teach`), stores the artefacts, compiles the
    /// query **once** and deploys the shared plan to every shard — all
    /// while sessions keep streaming.
    pub fn teach(
        &self,
        name: &str,
        samples: &[Vec<SkeletonFrame>],
    ) -> Result<GestureDefinition, ServeError> {
        self.teach_with(name, samples, LearnerConfig::default())
    }

    /// [`Self::teach`] with a custom learner configuration.
    pub fn teach_with(
        &self,
        name: &str,
        samples: &[Vec<SkeletonFrame>],
        config: LearnerConfig,
    ) -> Result<GestureDefinition, ServeError> {
        let (def, query) =
            gesto_control::learn_into_store(&self.core.store, name, samples, config)?;
        // Journal the stored record before the deploy op, so replay
        // restores the store verbatim (no re-learning on recovery).
        {
            let plans = self.core.plans.read();
            self.journal_op(&plans, || ControlOp::PutRecord {
                name: name.to_owned(),
                record: self.core.store.get(name).unwrap_or_default(),
            })?;
        }
        self.deploy(query)?;
        Ok(def)
    }

    /// Compiles `query` once and deploys (or replaces) it on every shard
    /// and every live session.
    pub fn deploy(&self, query: Query) -> Result<(), ServeError> {
        let plan = QueryPlan::compile(query, self.core.catalog.as_ref(), &self.core.funcs)?;
        self.core.telemetry.plans_compiled.inc();
        self.deploy_plan(plan)
    }

    /// Parses, compiles and deploys query text.
    pub fn deploy_text(&self, text: &str) -> Result<(), ServeError> {
        self.deploy(parse_query(text)?)
    }

    /// Broadcasts an already-compiled plan to every shard — the zero-
    /// compile path for plans shared with another runtime (e.g. moved in
    /// from a `GestureSystem`'s engine).
    ///
    /// Deploying a name that is already deployed installs the next
    /// **version**: each shard cuts sessions over at a batch boundary
    /// and keeps the old version's in-flight partial matches stepping
    /// (without seeding new ones) until they complete or expire — a
    /// redeploy under load drops no frames and loses no in-flight
    /// detection.
    ///
    /// A durable server journals the query as text and parses it again
    /// at recovery, so it refuses, with [`ServeError::Durability`] and
    /// before deploying or journaling anything, a query whose text does
    /// not read back as the same query: a `±inf` or `NaN` literal (it
    /// prints as a column name) or an `Int` literal (it reads back as a
    /// `Float`). No caller but a test builds either (the learner and
    /// the parser make finite `Float`s; the lexer refuses a literal
    /// past `f64` range, such as `1e400`).
    pub fn deploy_plan(&self, plan: Arc<QueryPlan>) -> Result<(), ServeError> {
        // Hold the registry lock across the journal append and the
        // broadcast so concurrent deploy/undeploy calls serialise:
        // every shard sees control messages in the same order as the
        // registry (and the journal) records them.
        let mut plans = self.core.plans.write();
        let durable = self.core.durable.lock().is_some();
        if durable && parse_query(&plan.query().to_query_text()).ok().as_ref() != Some(plan.query())
        {
            return Err(ServeError::Durability(format!(
                "gesture '{}' not deployed: its query text does not read back as the same query",
                plan.name()
            )));
        }
        let version = plans.get(plan.name()).map(|d| d.version + 1).unwrap_or(1);
        plans.insert(
            plan.name().to_owned(),
            DeployedPlan {
                plan: plan.clone(),
                version,
            },
        );
        self.journal_op(&plans, || ControlOp::Deploy {
            name: plan.name().to_owned(),
            text: plan.query().to_query_text(),
            version,
        })?;
        for shard in 0..self.core.shards.len() {
            self.control(shard, Control::Deploy(plan.clone()))?;
        }
        Ok(())
    }

    /// Removes a deployed gesture from every shard and session.
    pub fn undeploy(&self, name: &str) -> Result<(), ServeError> {
        let mut plans = self.core.plans.write();
        if plans.remove(name).is_none() {
            return Err(ServeError::Cep(gesto_cep::CepError::UnknownQuery(
                name.to_owned(),
            )));
        }
        self.journal_op(&plans, || ControlOp::Undeploy {
            name: name.to_owned(),
        })?;
        for shard in 0..self.core.shards.len() {
            self.control(shard, Control::Undeploy(name.to_owned()))?;
        }
        Ok(())
    }

    /// Names of deployed gestures (sorted).
    pub fn deployed(&self) -> Vec<String> {
        let mut names: Vec<String> = self.core.plans.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Deployed gestures with their rollout versions, sorted by name.
    /// A freshly deployed name is version 1; every redeploy increments
    /// it (also exported as `gesto_plan_version{gesture}`).
    pub fn deployed_versions(&self) -> Vec<(String, u32)> {
        let mut v: Vec<(String, u32)> = self
            .core
            .plans
            .read()
            .iter()
            .map(|(n, d)| (n.clone(), d.version))
            .collect();
        v.sort();
        v
    }

    /// Rollout version of one deployed gesture.
    pub fn plan_version(&self, name: &str) -> Option<u32> {
        self.core.plans.read().get(name).map(|d| d.version)
    }

    // ----- persistence -----------------------------------------------

    /// Writes a checkpoint of the full control-plane state (store,
    /// deployed plans + versions), then rotates and compacts
    /// the journal behind it. Returns the journal sequence number the
    /// checkpoint covers, or `None` when durability is off.
    ///
    /// Checkpoints also happen automatically every 16 journaled ops.
    pub fn checkpoint(&self) -> Result<Option<u64>, ServeError> {
        let plans = self.core.plans.read();
        let mut guard = self.core.durable.lock();
        match guard.as_mut() {
            Some(ds) => self.checkpoint_locked(&plans, ds).map(Some),
            None => Ok(None),
        }
    }

    /// Appends one control op to the journal (no-op when durability is
    /// off), auto-checkpointing when the op budget is reached. `op` is
    /// built lazily so non-durable servers never pay for the encoding.
    ///
    /// Lock order everywhere: `plans` (read or write) → `durable`.
    fn journal_op(
        &self,
        plans: &HashMap<String, DeployedPlan>,
        op: impl FnOnce() -> ControlOp,
    ) -> Result<(), ServeError> {
        let mut guard = self.core.durable.lock();
        let Some(ds) = guard.as_mut() else {
            return Ok(());
        };
        let json = durable::encode_op(&op())?;
        ds.journal
            .append(json.as_bytes())
            .map_err(|e| durable::io_err("journal append", e))?;
        ds.ops_since_ckpt += 1;
        if ds.ops_since_ckpt >= CHECKPOINT_EVERY {
            self.checkpoint_locked(plans, ds)?;
        }
        Ok(())
    }

    /// Writes a checkpoint and compacts the journal behind it. Caller
    /// holds the plan registry (read or write) and the durable mutex.
    fn checkpoint_locked(
        &self,
        plans: &HashMap<String, DeployedPlan>,
        ds: &mut DurableState,
    ) -> Result<u64, ServeError> {
        let payload = durable::encode_checkpoint(self.core.store.snapshot(), plans)?;
        let seq = ds.journal.last_seq();
        save_checkpoint(&ds.dir, seq, payload.as_bytes())
            .map_err(|e| durable::io_err("checkpoint write", e))?;
        // The checkpoint covers everything up to `seq`: start a fresh
        // segment and delete the segments the checkpoint made redundant
        // (crash-safe — a half-finished compaction just leaves extra
        // segments whose records replay idempotently below `seq`).
        ds.journal
            .rotate()
            .map_err(|e| durable::io_err("journal rotate", e))?;
        ds.journal
            .compact(seq)
            .map_err(|e| durable::io_err("journal compact", e))?;
        gesto_durability::prune_checkpoints(&ds.dir, KEEP_CHECKPOINTS)
            .map_err(|e| durable::io_err("checkpoint prune", e))?;
        ds.ops_since_ckpt = 0;
        self.core.telemetry.checkpoints_total.inc();
        self.core.telemetry.checkpoint_last_seq.set(seq as i64);
        Ok(seq)
    }

    /// Crash recovery: checkpoint → journal tail → compile once →
    /// broadcast. Called exactly once from [`Server::try_with_parts`]
    /// when durability is configured, before the server is handed to
    /// the caller.
    fn recover(&self) -> Result<(), ServeError> {
        let dir = self
            .core
            .config
            .durability
            .clone()
            .expect("recover() requires a durability dir");
        let t = &self.core.telemetry;

        // 1. Newest valid checkpoint (corrupt ones are skipped).
        let mut ckpt_seq = 0u64;
        let mut metas: BTreeMap<String, (String, u32)> = BTreeMap::new();
        if let Some(ckpt) =
            load_newest_checkpoint(&dir).map_err(|e| durable::io_err("checkpoint load", e))?
        {
            t.recovery_corrupt_checkpoints
                .add(ckpt.corrupt_skipped as u64);
            let payload = durable::decode_checkpoint(&ckpt.payload)?;
            self.core
                .store
                .restore(payload.store)
                .map_err(|e| ServeError::Durability(format!("restoring store snapshot: {e}")))?;
            for m in payload.plans {
                metas.insert(m.name, (m.text, m.version));
            }
            ckpt_seq = ckpt.seq;
            t.checkpoint_last_seq.set(ckpt_seq as i64);
        }

        // 2. Open the journal (torn tails are repaired here) and replay
        // the tail beyond the checkpoint. Records at or below
        // `ckpt_seq` can linger when a crash hit between checkpoint and
        // compaction; they are already folded into the snapshot.
        let (journal, replay) =
            Journal::open(&dir).map_err(|e| durable::io_err("journal open", e))?;
        t.recovery_truncated_bytes.add(replay.truncated_bytes);
        let mut replayed = 0u64;
        for (seq, payload) in &replay.records {
            if *seq <= ckpt_seq {
                continue;
            }
            match durable::decode_op(payload)? {
                ControlOp::PutRecord { name, record } => {
                    self.core.store.put_record(&name, record).map_err(|e| {
                        ServeError::Durability(format!("replaying record '{name}': {e}"))
                    })?;
                }
                ControlOp::Deploy {
                    name,
                    text,
                    version,
                } => {
                    metas.insert(name, (text, version));
                }
                ControlOp::Undeploy { name } => {
                    metas.remove(&name);
                }
            }
            replayed += 1;
        }
        t.recovery_replayed_ops.add(replayed);

        // 3. Compile each surviving plan exactly once (whatever number
        // of deploys the journal held for it) and broadcast, restoring
        // the recorded version.
        {
            let mut plans = self.core.plans.write();
            for (name, (text, version)) in metas {
                let query = parse_query(&text)?;
                let plan = QueryPlan::compile(query, self.core.catalog.as_ref(), &self.core.funcs)?;
                self.core.telemetry.plans_compiled.inc();
                for shard in 0..self.core.shards.len() {
                    self.control(shard, Control::Deploy(plan.clone()))?;
                }
                plans.insert(name, DeployedPlan { plan, version });
            }
        }

        // 4. Open for business: later control ops append here.
        *self.core.durable.lock() = Some(DurableState {
            journal,
            dir,
            ops_since_ckpt: 0,
        });
        Ok(())
    }

    /// Registers a detection sink invoked (on shard threads) for every
    /// detection of every session.
    pub fn on_detection(&self, sink: DetectionSink) {
        self.core.listeners.write().push(sink);
    }

    // ----- observability ---------------------------------------------

    /// Aggregated metrics across all shards.
    pub fn metrics(&self) -> ServerMetrics {
        let shards = self
            .core
            .shards
            .iter()
            .enumerate()
            .map(|(i, link)| {
                link.metrics
                    .snapshot(i, link.gate.depth.load(Ordering::Acquire))
            })
            .collect();
        ServerMetrics {
            shards,
            per_gesture: self.core.telemetry.per_gesture(),
            plans_compiled: self.core.telemetry.plans_compiled.get(),
        }
    }

    /// The server's metric registry — the scrape surface behind
    /// `GET /metrics` on the network edge, also renderable directly via
    /// [`gesto_telemetry::Registry::render`]. Covers shard, NFA, kernel
    /// and block-build metrics; the [`crate::net::NetServer`] adds its
    /// connection/wire families when started on this handle.
    pub fn registry(&self) -> Arc<gesto_telemetry::Registry> {
        self.core.telemetry.registry()
    }

    pub(crate) fn telemetry(&self) -> &Arc<ServerTelemetry> {
        &self.core.telemetry
    }

    /// Readiness: `true` once start-up (durable recovery + plan
    /// rebroadcast) completed and the server is not shutting down. The
    /// network edge surfaces this as `GET /readyz` (200/503).
    pub fn is_ready(&self) -> bool {
        self.core.ready.load(Ordering::Acquire) && !self.core.closed.load(Ordering::Acquire)
    }

    /// The overload state machine, computed on demand from the worst
    /// shard's queue/memory fill:
    /// [`OverloadState::Healthy`] → [`OverloadState::Shedding`] (some
    /// shard at least 3/4 full — degradation mechanisms are active)
    /// → [`OverloadState::Rejecting`] (full — the net edge refuses
    /// **new** sessions, `GET /healthz` turns 503).
    /// Exported as the `gesto_overload_state` gauge (0/1/2).
    pub fn overload_state(&self) -> OverloadState {
        let policy = OverloadPolicy::from_config(&self.core.config);
        let worst = self
            .core
            .shards
            .iter()
            .map(|l| policy.fill(&l.metrics, &l.gate))
            .fold(0.0, f64::max);
        policy.classify(worst)
    }

    /// Live sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|l| l.metrics.sessions.get() as usize)
            .sum()
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// The server's gesture store (definitions, samples, query texts).
    pub fn store(&self) -> &Arc<GestureStore> {
        &self.core.store
    }

    /// The server's stream/view catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.core.catalog
    }

    /// The kinect input schema frames are converted with.
    pub fn schema(&self) -> &SchemaRef {
        &self.core.schema
    }

    fn control(&self, shard: usize, c: Control) -> Result<(), ServeError> {
        self.core.shards[shard]
            .tx
            .send(Job::Control(c))
            .map_err(|_| ServeError::Shutdown)
    }

    /// Test hook: parks shard 0 on a rendezvous ack so tests can fill its
    /// queue deterministically (the worker blocks in `ack.send` until the
    /// test receives).
    #[cfg(test)]
    pub(crate) fn barrier_for_test(&self, ack: Sender<()>) {
        self.control(0, Control::Barrier(ack)).unwrap();
    }
}
