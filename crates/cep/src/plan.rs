//! Shared compiled query plans.
//!
//! The paper's engine compiles a query when it is deployed; in a
//! multi-tenant runtime thousands of sessions run the *same* gestures, so
//! compiling per session would dominate. A [`QueryPlan`] is the
//! compile-once artefact — the parsed [`Query`], its [`NfaProgram`] and
//! the resolved routes — shared via `Arc` across any number of engines
//! or server shards. [`QueryPlan::instantiate`] stamps out the cheap
//! per-session state (an empty run set); view operators belong to the
//! session's [`SharedViews`], not to the plan instance.
//!
//! **Match scratch belongs to the stepping thread.** A [`PlanInstance`]
//! is only its run state. Every plan call steps in its thread's one
//! [`MatchScratch`], so a shard worker, an [`crate::Engine`] caller or
//! any other loop over many instances runs each call on warm buffers.
//! A call takes the scratch out of the thread-local for its duration
//! and puts it back drained and cleared. A call that unwinds (a
//! panicking UDF) drops the scratch it took, so the next call starts
//! from an empty one and a torn match never reaches another plan. A
//! nested call — a UDF that steps another instance — finds the slot
//! empty and steps in a fresh scratch.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gesto_stream::{
    Catalog, ColumnBlock, RowSource, SharedViews, StreamError, Tuple, ViewFactory, ViewRows,
};

use crate::detection::Detection;
use crate::engine::QueryStats;
use crate::error::CepError;
use crate::expr::FunctionRegistry;
use crate::nfa::{MatchScratch, NfaProgram, NfaRuntime};
use crate::pattern::Query;

/// Plans compiled process-wide (monotone). Lets scale experiments assert
/// the compile-once invariant: deploying one gesture to N sessions must
/// bump this by 1, not N.
static COMPILED_PLANS: AtomicU64 = AtomicU64::new(0);

/// Total [`QueryPlan`]s compiled by this process so far.
pub fn compiled_plan_count() -> u64 {
    COMPILED_PLANS.load(Ordering::Relaxed)
}

/// One source of a query and how to reach it from its base stream:
/// directly, or through the view the source names.
pub struct RouteSpec {
    /// Source name as written in the query (stream or view).
    pub source: String,
    /// Base stream the source resolves to.
    pub base: String,
    /// Operator factory of the source view, if the source is one. The
    /// data path never calls it (views run once per session in
    /// [`SharedViews`]); the per-route test reference in
    /// [`crate::fixtures`] does.
    pub factory: Option<ViewFactory>,
    /// The source view's name, if the source is one (at most one name):
    /// it resolves to the [`SharedViews`] slot the route reads.
    pub views: Vec<String>,
}

/// A compiled, immutable, shareable query plan.
pub struct QueryPlan {
    query: Query,
    program: Arc<NfaProgram>,
    routes: Vec<RouteSpec>,
}

impl QueryPlan {
    /// Compiles `query` against `catalog`/`funcs`. This is the expensive
    /// step (schema resolution, predicate compilation, route resolution);
    /// share the returned `Arc` instead of calling this per session.
    pub fn compile(
        query: Query,
        catalog: &Catalog,
        funcs: &FunctionRegistry,
    ) -> Result<Arc<Self>, CepError> {
        let program = Arc::new(NfaProgram::compile(&query.pattern, catalog, funcs)?);
        let mut routes = Vec::new();
        for source in query.pattern.sources() {
            let (base, view) = catalog.resolve(source)?;
            routes.push(RouteSpec {
                source: source.to_owned(),
                base: base.to_owned(),
                factory: view.map(|v| v.factory.clone()),
                views: view.map(|v| v.name.clone()).into_iter().collect(),
            });
        }
        COMPILED_PLANS.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(Self {
            query,
            program,
            routes,
        }))
    }

    /// Query (gesture) name.
    pub fn name(&self) -> &str {
        &self.query.name
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The compiled NFA program.
    pub fn program(&self) -> &Arc<NfaProgram> {
        &self.program
    }

    /// The resolved routes.
    pub fn routes(&self) -> &[RouteSpec] {
        &self.routes
    }

    /// Stamps out fresh per-session runtime state over this shared plan:
    /// an empty NFA run set. Cheap — no parsing, compilation or catalog
    /// lookups.
    pub fn instantiate(self: &Arc<Self>) -> PlanInstance {
        PlanInstance {
            plan: Arc::clone(self),
            bindings: None,
            nfa: NfaRuntime::instantiate(Arc::clone(&self.program)),
            detections: 0,
        }
    }
}

/// How one route of a [`PlanInstance`] reads its tuples from the
/// session's [`SharedViews`].
enum RouteBinding {
    /// The route's source is the base stream itself.
    Direct,
    /// The route reads the output of a [`SharedViews`] slot.
    Shared(usize),
}

/// Per-session runtime state of one deployed [`QueryPlan`]: NFA run
/// state and a detection counter — no per-call buffer (the match
/// scratch is the stepping thread's; see the module docs).
pub struct PlanInstance {
    plan: Arc<QueryPlan>,
    /// Route → shared-view binding, resolved by [`Self::bind`] at deploy
    /// or on the first push (a session's [`SharedViews`] slots are fixed
    /// for its life).
    bindings: Option<Vec<RouteBinding>>,
    nfa: NfaRuntime,
    detections: u64,
}

impl PlanInstance {
    /// The shared plan this instance runs.
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }

    /// Query (gesture) name.
    pub fn name(&self) -> &str {
        self.plan.name()
    }

    /// Detections produced by this instance so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Drops all partial matches.
    pub fn reset(&mut self) {
        self.nfa.reset();
    }

    /// Switches the instance into (or out of) draining mode: while
    /// draining, pushed tuples still advance and complete existing
    /// partial matches but never seed new ones. A versioned rollout
    /// keeps the retiring instance draining until [`Self::active_runs`]
    /// hits zero, so no in-flight match is dropped at cutover.
    pub fn set_draining(&mut self, draining: bool) {
        self.nfa.set_seeding(!draining);
    }

    /// Live partial matches (cheap accessor for drain polling).
    pub fn active_runs(&self) -> usize {
        self.nfa.active_runs()
    }

    /// Approximate heap footprint of this instance's run state (see
    /// [`crate::NfaRuntime::state_bytes`]). Serving admission control
    /// charges this against the per-shard memory budget.
    pub fn state_bytes(&self) -> usize {
        self.nfa.state_bytes()
    }

    /// Runtime statistics in the engine's [`QueryStats`] shape.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            name: self.plan.name().to_owned(),
            detections: self.detections,
            active_runs: self.nfa.active_runs(),
            shed_runs: self.nfa.shed_runs(),
            steps: self.nfa.program().step_count(),
        }
    }

    /// Resolves every route's source against the session's `views`: the
    /// base stream itself, or the slot of the route's view.
    /// Fails with [`StreamError::UnknownStream`] when `views` does not
    /// know that view — the plan was compiled against another catalog.
    pub(crate) fn bind(&mut self, views: &SharedViews) -> Result<(), CepError> {
        let bindings = self
            .plan
            .routes
            .iter()
            .map(|r| match r.views.first() {
                None => Ok(RouteBinding::Direct),
                Some(view) => views
                    .slot_of(view)
                    .map(RouteBinding::Shared)
                    .ok_or_else(|| StreamError::UnknownStream(view.clone()).into()),
            })
            .collect::<Result<_, CepError>>()?;
        self.bindings = Some(bindings);
        Ok(())
    }

    /// Pushes a whole batch of base-stream tuples, stepping the NFA
    /// **batch-at-a-time** over the session's shared view outputs:
    /// `views` must have been prepared with [`SharedViews::begin_batch`]
    /// over the same `tuples` — which only a route on the base stream
    /// itself reads, so a caller that began the batch from native rows
    /// ([`SharedViews::begin_batch_rows`]) passes none when the plan has
    /// no such route — and must be the same instance (per-session
    /// state) on every call — route bindings are resolved on the first.
    /// A plan whose source view `views` does not know is rejected with
    /// [`StreamError::UnknownStream`].
    ///
    /// Single-source plans (every learned gesture) advance their run set
    /// over the entire batch in one call — the run-set scan, source
    /// routing and time-constraint checks are hoisted out of the
    /// per-tuple loop, and a batch with no completed match allocates
    /// nothing. Multi-source plans fall back to frame-at-a-time stepping
    /// to preserve the cross-source interleaving of events.
    pub fn push_batch_shared(
        &mut self,
        stream: &str,
        tuples: &[Tuple],
        views: &SharedViews,
        out: &mut Vec<Detection>,
    ) -> Result<(), CepError> {
        if self.plan.routes.len() == 1 {
            // Whole-batch fast path: one route means every step reads
            // the same source, so batch order == interleaved order.
            return self.push_frame_shared(stream, tuples, views, None, out);
        }
        for f in 0..views.frames() {
            self.push_frame_shared(stream, tuples, views, Some(f), out)?;
        }
        Ok(())
    }

    /// Shared-path stepping core. With `frame: None` every route
    /// consumes the whole batch (callers guarantee this is
    /// order-equivalent, i.e. a single route); with `frame: Some(f)`
    /// only frame `f`'s slice of the batch is consumed.
    fn push_frame_shared(
        &mut self,
        stream: &str,
        tuples: &[Tuple],
        views: &SharedViews,
        frame: Option<usize>,
        out: &mut Vec<Detection>,
    ) -> Result<(), CepError> {
        if self.bindings.is_none() {
            self.bind(views)?;
        }
        let Self {
            plan,
            bindings,
            nfa,
            detections,
        } = self;
        let bindings = bindings.as_deref().expect("bound above");
        for (route, binding) in plan.routes.iter().zip(bindings) {
            if route.base != stream {
                continue;
            }
            // Whole-batch stepping reads the columnar view built by
            // `begin_batch` (the NFA's predicate pre-pass runs over its
            // float lanes); per-frame stepping stays scalar.
            let (batch, block) = match (binding, frame) {
                (RouteBinding::Direct, None) => (ViewRows::tuples(tuples), views.base_block()),
                (RouteBinding::Direct, Some(f)) => (ViewRows::tuples(&tuples[f..f + 1]), None),
                (RouteBinding::Shared(slot), None) => (views.rows(*slot), views.view_block(*slot)),
                (RouteBinding::Shared(slot), Some(f)) => (views.rows(*slot).frame(f), None),
            };
            advance_batch(
                nfa,
                detections,
                &plan.query.name,
                &route.source,
                &batch,
                block,
                out,
            )?;
        }
        Ok(())
    }
}

/// Declares, per deployed plan, which float columns the NFA block
/// kernels read from each shared view's block (and from the base-stream
/// block), so [`SharedViews`] materialises exactly those lanes per
/// batch instead of the full joint block. The second half of
/// [`sync_shared_views`]; purely an optimisation — a lane
/// outside the declared set reads back as absent and the kernels fall
/// back to the scalar path, so a stale declaration can cost speed but
/// never correctness.
pub fn sync_block_columns<'a>(
    views: &mut SharedViews,
    plans: impl IntoIterator<Item = &'a Arc<QueryPlan>>,
) {
    views.clear_block_columns();
    for plan in plans {
        for route in plan.routes() {
            let cols = plan.program().columns_read(&route.source);
            match route.views.first() {
                None => views.add_base_block_columns(&cols),
                Some(view) => views.add_view_block_columns(view, &cols),
            }
        }
    }
}

/// The deploy-time sync of a session's [`SharedViews`] with its deployed
/// `plans` (retiring versions included): marks exactly the views some
/// route references as needed, so views nobody reads stop being
/// evaluated after an undeploy, then declares the block columns the
/// plans' predicates read ([`sync_block_columns`]).
pub fn sync_shared_views(views: &mut SharedViews, plans: &[Arc<QueryPlan>]) {
    views.set_needed(
        plans
            .iter()
            .flat_map(|p| p.routes())
            .flat_map(|r| r.views.iter().map(String::as_str)),
    );
    sync_block_columns(views, plans);
}

thread_local! {
    /// The stepping thread's match scratch (module docs). Boxed, so a
    /// call moves a pointer in and out, not the whole scratch.
    static SCRATCH: Cell<Option<Box<MatchScratch>>> = const { Cell::new(None) };
}

/// Steps the NFA over a batch and converts any completed matches into
/// [`Detection`]s. All plan-level paths funnel through this one call, so
/// there is exactly one stepping implementation; the no-match steady
/// state touches the thread's warm scratch only (no allocation).
/// `block`, when present, is the columnar view of `rows` enabling the
/// NFA's vectorized predicate pre-pass.
fn advance_batch(
    nfa: &mut NfaRuntime,
    detections: &mut u64,
    gesture: &str,
    source: &str,
    rows: &ViewRows<'_>,
    block: Option<&ColumnBlock>,
    out: &mut Vec<Detection>,
) -> Result<(), CepError> {
    // A batch that cannot move the plan is answered without stepping.
    let block = block.filter(|b| b.rows() == rows.len());
    if rows.is_empty() || nfa.skip_idle(source, block) {
        return Ok(());
    }
    let mut scratch = SCRATCH.take().unwrap_or_default();
    // Drain the scratch even when stepping errors mid-batch: matches
    // completed by earlier tuples of the batch are still delivered
    // (exactly as if they had been pushed one by one), and a stale
    // scratch can never leak duplicates into a later call.
    let result = nfa.advance_block_into(source, rows, block, &mut scratch);
    if !scratch.is_empty() {
        for m in scratch.matches() {
            *detections += 1;
            out.push(Detection {
                gesture: gesture.to_owned(),
                ts: m.ts,
                started_at: m.started_at,
                events: m.events.into(),
            });
        }
        scratch.clear();
    }
    SCRATCH.set(Some(scratch));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use gesto_stream::{SchemaBuilder, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register_stream(
            SchemaBuilder::new("kinect")
                .timestamp("ts")
                .float("x")
                .build()
                .unwrap(),
        )
        .unwrap();
        cat
    }

    /// Pushes one tuple through `inst` as a one-tuple batch.
    fn push(inst: &mut PlanInstance, views: &mut SharedViews, t: Tuple, out: &mut Vec<Detection>) {
        views.begin_batch("kinect", std::slice::from_ref(&t));
        inst.push_batch_shared("kinect", std::slice::from_ref(&t), views, out)
            .unwrap();
    }

    fn tup(ts: i64, x: f64) -> Tuple {
        Tuple::new(
            SchemaBuilder::new("kinect")
                .timestamp("ts")
                .float("x")
                .build()
                .unwrap(),
            vec![Value::Timestamp(ts), Value::Float(x)],
        )
        .unwrap()
    }

    #[test]
    fn one_plan_many_independent_instances() {
        let cat = catalog();
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query(r#"SELECT "g" MATCHING kinect(x < 1) -> kinect(x > 9);"#).unwrap();
        let plan = QueryPlan::compile(q, &cat, &funcs).unwrap();
        let mut a = plan.instantiate();
        let mut b = plan.instantiate();
        // Instantiation shares, never recompiles: both instances point at
        // the very same plan and program allocations. (The process-global
        // compiled_plan_count() is asserted by the facade's durable_restart
        // test, alone in its process, where no parallel test can perturb it.)
        assert!(Arc::ptr_eq(a.plan(), &plan), "instance a shares the plan");
        assert!(Arc::ptr_eq(b.plan(), &plan), "instance b shares the plan");
        assert!(
            Arc::ptr_eq(a.plan().program(), plan.program()),
            "NFA program is shared, not recompiled"
        );

        // Session a is half-way through the pattern; session b saw nothing.
        let mut views = SharedViews::new(&cat);
        let mut out = Vec::new();
        push(&mut a, &mut views, tup(0, 0.5), &mut out);
        assert_eq!(a.stats().active_runs, 1);
        assert_eq!(b.stats().active_runs, 0, "run state is per instance");

        // Completing in a does not fire in b.
        push(&mut a, &mut views, tup(10, 10.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gesture, "g");
        assert_eq!(a.detections(), 1);
        push(&mut b, &mut views, tup(10, 10.0), &mut out);
        assert_eq!(b.detections(), 0, "b never saw the first step");
    }

    #[test]
    fn instance_reset_drops_runs() {
        let cat = catalog();
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query(r#"SELECT "g" MATCHING kinect(x < 1) -> kinect(x > 9);"#).unwrap();
        let plan = QueryPlan::compile(q, &cat, &funcs).unwrap();
        let mut i = plan.instantiate();
        let mut views = SharedViews::new(&cat);
        let mut out = Vec::new();
        push(&mut i, &mut views, tup(0, 0.5), &mut out);
        assert_eq!(i.stats().active_runs, 1);
        i.reset();
        assert_eq!(i.stats().active_runs, 0);
    }

    #[test]
    fn draining_completes_but_never_seeds() {
        let cat = catalog();
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query(r#"SELECT "g" MATCHING kinect(x < 1) -> kinect(x > 9);"#).unwrap();
        let plan = QueryPlan::compile(q, &cat, &funcs).unwrap();
        let mut i = plan.instantiate();
        let mut views = SharedViews::new(&cat);
        let mut out = Vec::new();

        // One in-flight run, then switch to draining.
        push(&mut i, &mut views, tup(0, 0.5), &mut out);
        assert_eq!(i.active_runs(), 1);
        i.set_draining(true);

        // A seed-step tuple no longer starts a run…
        push(&mut i, &mut views, tup(5, 0.5), &mut out);
        assert_eq!(i.active_runs(), 1, "draining must not seed new runs");

        // …but the in-flight run still completes.
        push(&mut i, &mut views, tup(10, 10.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(i.active_runs(), 0, "drained");

        // Fully inert now.
        push(&mut i, &mut views, tup(20, 0.5), &mut out);
        push(&mut i, &mut views, tup(30, 10.0), &mut out);
        assert_eq!(out.len(), 1);

        // Re-enabling seeding restores normal behaviour.
        i.set_draining(false);
        push(&mut i, &mut views, tup(40, 0.5), &mut out);
        assert_eq!(i.active_runs(), 1);
    }
}
