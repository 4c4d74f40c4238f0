//! The CEP engine: runtime deployment and execution of gesture queries.
//!
//! The engine owns a [`Catalog`] of streams/views and a set of deployed
//! queries. Tuples are pushed per base stream; the engine evaluates each
//! needed view (e.g. `kinect` → `kinect_t`) once per batch and advances
//! every deployed query's NFA over the shared outputs, returning the
//! detections to the caller (a multi-session server fans them out to
//! its own sinks). Queries can be deployed, undeployed and replaced
//! while the stream is live — the paper's "exchanging the applications'
//! pre-defined navigation operations during runtime" (§4).

use std::sync::Arc;

use gesto_stream::{Catalog, SharedViews, Tuple};
use parking_lot::Mutex;

use crate::detection::Detection;
use crate::error::CepError;
use crate::expr::FunctionRegistry;
use crate::parser::parse_query;
use crate::pattern::Query;
use crate::plan::{PlanInstance, QueryPlan};

/// Runtime statistics of a deployed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// Query (gesture) name.
    pub name: String,
    /// Total detections so far.
    pub detections: u64,
    /// Currently tracked partial matches.
    pub active_runs: usize,
    /// Partial matches shed due to the run cap.
    pub shed_runs: u64,
    /// Number of primitive steps in the pattern.
    pub steps: usize,
}

/// The CEP engine.
///
/// The engine is one logical session: it owns a [`SharedViews`] runtime,
/// so every registered view is evaluated **once per pushed tuple** and
/// its output is shared by reference across all deployed query routes
/// (the transform-once data path).
pub struct Engine {
    catalog: Arc<Catalog>,
    funcs: Arc<FunctionRegistry>,
    state: Mutex<Deployed>,
}

/// The view runtime and the deployed queries, in deployment order,
/// behind the engine's one lock.
struct Deployed {
    views: SharedViews,
    queries: Vec<PlanInstance>,
}

impl Deployed {
    fn position(&self, name: &str) -> Option<usize> {
        self.queries.iter().position(|q| q.plan().name() == name)
    }

    /// Re-syncs the shared view runtime with the set of deployed queries
    /// ([`crate::plan::sync_shared_views`]).
    fn sync_views(&mut self) {
        let plans: Vec<_> = self.queries.iter().map(|q| q.plan().clone()).collect();
        crate::plan::sync_shared_views(&mut self.views, &plans);
    }
}

impl Engine {
    /// Creates an engine over `catalog` with the built-in functions.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let views = SharedViews::new(&catalog);
        Self {
            catalog,
            funcs: Arc::new(FunctionRegistry::with_builtins()),
            state: Mutex::new(Deployed {
                views,
                queries: Vec::new(),
            }),
        }
    }

    /// Instantiates `plan` over the engine's views and installs it under
    /// its name: in its predecessor's slot on a replace, last otherwise.
    /// Rejects a plan whose source view this engine's catalog does not
    /// have (a plan compiled against another catalog), leaving the
    /// deployed set untouched.
    fn install(&self, state: &mut Deployed, plan: Arc<QueryPlan>) -> Result<(), CepError> {
        let mut instance = plan.instantiate();
        instance.bind(&state.views)?;
        match state.position(plan.name()) {
            Some(slot) => state.queries[slot] = instance,
            None => state.queries.push(instance),
        }
        state.sync_views();
        Ok(())
    }

    /// The engine's catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The engine's function registry (for registering UDFs).
    pub fn functions(&self) -> &Arc<FunctionRegistry> {
        &self.funcs
    }

    /// Compiles `query` into a shareable plan against this engine's
    /// catalog and functions (without deploying it).
    pub fn compile(&self, query: Query) -> Result<Arc<QueryPlan>, CepError> {
        QueryPlan::compile(query, self.catalog.as_ref(), &self.funcs)
    }

    /// Deploys a parsed query. Fails if a query with the same name is
    /// already deployed.
    pub fn deploy(&self, query: Query) -> Result<(), CepError> {
        self.deploy_plan(self.compile(query)?)
    }

    /// Deploys an already-compiled plan (no recompilation — the cheap
    /// path when the same plan is shared across many engines). Fails if a
    /// query with the same name is already deployed, or if the plan reads
    /// a view this engine's catalog does not have.
    pub fn deploy_plan(&self, plan: Arc<QueryPlan>) -> Result<(), CepError> {
        let mut state = self.state.lock();
        if state.position(plan.name()).is_some() {
            return Err(CepError::DuplicateQuery(plan.name().to_owned()));
        }
        self.install(&mut state, plan)
    }

    /// Parses and deploys query text.
    pub fn deploy_text(&self, text: &str) -> Result<(), CepError> {
        self.deploy(parse_query(text)?)
    }

    /// Removes a deployed query.
    pub fn undeploy(&self, name: &str) -> Result<Query, CepError> {
        let mut state = self.state.lock();
        let slot = state
            .position(name)
            .ok_or_else(|| CepError::UnknownQuery(name.to_owned()))?;
        let removed = state.queries.remove(slot).plan().query().clone();
        state.sync_views();
        Ok(removed)
    }

    /// Atomically replaces a deployed query of the same name (deploys if
    /// absent). Partial matches of the old query are discarded.
    pub fn replace(&self, query: Query) -> Result<(), CepError> {
        self.replace_plan(self.compile(query)?)
    }

    /// [`Self::replace`] for an already-compiled plan. Fails — keeping the
    /// deployed query — if the plan reads a view this engine's catalog
    /// does not have.
    pub fn replace_plan(&self, plan: Arc<QueryPlan>) -> Result<(), CepError> {
        self.install(&mut self.state.lock(), plan)
    }

    /// Names of deployed queries (sorted).
    pub fn deployed(&self) -> Vec<String> {
        let state = self.state.lock();
        let mut v: Vec<String> = state
            .queries
            .iter()
            .map(|q| q.plan().name().to_owned())
            .collect();
        v.sort();
        v
    }

    /// Number of deployed queries.
    pub fn len(&self) -> usize {
        self.state.lock().queries.len()
    }

    /// True when no queries are deployed.
    pub fn is_empty(&self) -> bool {
        self.state.lock().queries.is_empty()
    }

    /// Statistics of one deployed query.
    pub fn stats(&self, name: &str) -> Result<QueryStats, CepError> {
        let state = self.state.lock();
        let slot = state
            .position(name)
            .ok_or_else(|| CepError::UnknownQuery(name.to_owned()))?;
        Ok(state.queries[slot].stats())
    }

    /// Statistics of every deployed query, sorted by name.
    pub fn stats_all(&self) -> Vec<QueryStats> {
        let mut out: Vec<QueryStats> = self
            .state
            .lock()
            .queries
            .iter()
            .map(|q| q.stats())
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// The shared plans of every deployed query, sorted by name — the
    /// hand-off point for moving deployments into another runtime (e.g. a
    /// multi-session server) without recompiling.
    pub fn deployed_plans(&self) -> Vec<Arc<QueryPlan>> {
        let state = self.state.lock();
        let mut out: Vec<Arc<QueryPlan>> = state.queries.iter().map(|q| q.plan().clone()).collect();
        out.sort_by(|a, b| a.name().cmp(b.name()));
        out
    }

    /// Pushes one tuple of base stream `stream` through all deployed
    /// queries; returns all detections.
    ///
    /// Views are evaluated once for the tuple and shared across every
    /// deployed query (transform-once).
    pub fn push(&self, stream: &str, tuple: &Tuple) -> Result<Vec<Detection>, CepError> {
        self.push_batch(stream, std::slice::from_ref(tuple))
    }

    /// Pushes a batch of tuples of one stream; returns all detections.
    ///
    /// Amortises route dispatch across the batch: the engine's lock is
    /// taken once for the whole batch, not once per tuple. Within one
    /// batch, detections are grouped per query in deployment order (each
    /// query's NFA steps the whole batch in one call) and stream-ordered
    /// within a query.
    pub fn push_batch(&self, stream: &str, tuples: &[Tuple]) -> Result<Vec<Detection>, CepError> {
        let mut out = Vec::new();
        let mut state = self.state.lock();
        let Deployed { views, queries } = &mut *state;
        // Transform-once, step-batched: every needed view runs once over
        // the whole batch, then each deployed plan advances its NFA
        // batch-at-a-time over the shared outputs.
        views.begin_batch(stream, tuples);
        for q in queries.iter_mut() {
            q.push_batch_shared(stream, tuples, views, &mut out)?;
        }
        Ok(out)
    }

    /// Resets all partial matches of all queries (e.g. between test
    /// passes).
    pub fn reset_runs(&self) {
        for q in &mut self.state.lock().queries {
            q.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_stream::{ops::MapOp, SchemaBuilder, SchemaRef, Value, ViewDef};

    fn schema() -> SchemaRef {
        SchemaBuilder::new("kinect")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap()
    }

    fn tup(ts: i64, x: f64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
    }

    fn engine_with_view() -> Engine {
        let mut cat = Catalog::new();
        cat.register_stream(schema()).unwrap();
        // kinect_t doubles x.
        let out = SchemaBuilder::new("kinect_t")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        let factory_schema = out.clone();
        cat.register_view(ViewDef {
            name: "kinect_t".into(),
            input: "kinect".into(),
            schema: out,
            factory: Arc::new(move || {
                let s = factory_schema.clone();
                Box::new(MapOp::new("double", s.clone(), move |t: &Tuple| {
                    Some(Tuple::new_unchecked(
                        s.clone(),
                        vec![
                            t.get_by_name("ts").unwrap().clone(),
                            Value::Float(t.f64("x").unwrap() * 2.0),
                        ],
                    ))
                }))
            }),
        })
        .unwrap();
        Engine::new(Arc::new(cat))
    }

    #[test]
    fn deploy_push_detect() {
        let e = engine_with_view();
        e.deploy_text(r#"SELECT "g" MATCHING kinect(x > 9) -> kinect(x < 1) within 1 seconds;"#)
            .unwrap();
        assert_eq!(e.deployed(), vec!["g"]);
        assert!(e.push("kinect", &tup(0, 10.0)).unwrap().is_empty());
        let ds = e.push("kinect", &tup(100, 0.5)).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].gesture, "g");
        assert_eq!(e.stats("g").unwrap().detections, 1);
    }

    #[test]
    fn view_chain_applied() {
        let e = engine_with_view();
        // Query over the doubled view: x>18 only true via the view (raw 10).
        e.deploy_text(r#"SELECT "v" MATCHING kinect_t(x > 18);"#)
            .unwrap();
        let ds = e.push("kinect", &tup(0, 10.0)).unwrap();
        assert_eq!(ds.len(), 1, "view transformed 10 -> 20 > 18");
        let ds = e.push("kinect", &tup(10, 8.0)).unwrap();
        assert!(ds.is_empty(), "8 -> 16 < 18");
    }

    #[test]
    fn duplicate_deploy_rejected_replace_allowed() {
        let e = engine_with_view();
        e.deploy_text(r#"SELECT "g" MATCHING kinect(x > 9);"#)
            .unwrap();
        assert!(matches!(
            e.deploy_text(r#"SELECT "g" MATCHING kinect(x > 5);"#),
            Err(CepError::DuplicateQuery(_))
        ));
        e.replace(parse_query(r#"SELECT "g" MATCHING kinect(x > 100);"#).unwrap())
            .unwrap();
        assert!(
            e.push("kinect", &tup(0, 10.0)).unwrap().is_empty(),
            "replaced threshold"
        );
    }

    #[test]
    fn undeploy_stops_detection() {
        let e = engine_with_view();
        e.deploy_text(r#"SELECT "g" MATCHING kinect(x > 9);"#)
            .unwrap();
        assert_eq!(e.push("kinect", &tup(0, 10.0)).unwrap().len(), 1);
        let q = e.undeploy("g").unwrap();
        assert_eq!(q.name, "g");
        assert!(e.push("kinect", &tup(1, 10.0)).unwrap().is_empty());
        assert!(matches!(e.undeploy("g"), Err(CepError::UnknownQuery(_))));
    }

    #[test]
    fn multiple_queries_detect_independently() {
        let e = engine_with_view();
        e.deploy_text(r#"SELECT "hi" MATCHING kinect(x > 9);"#)
            .unwrap();
        e.deploy_text(r#"SELECT "lo" MATCHING kinect(x < 1);"#)
            .unwrap();
        let ds = e
            .push_batch("kinect", &[tup(0, 10.0), tup(10, 0.0)])
            .unwrap();
        let names: Vec<_> = ds.iter().map(|d| d.gesture.as_str()).collect();
        assert_eq!(names, vec!["hi", "lo"]);
    }

    #[test]
    fn detections_come_out_in_deployment_order() {
        let e = engine_with_view();
        let order = ["m", "c", "x", "a", "q", "h", "z", "e"];
        for name in order {
            e.deploy_text(&format!(r#"SELECT "{name}" MATCHING kinect(x > 9);"#))
                .unwrap();
        }
        let ds = e.push("kinect", &tup(0, 10.0)).unwrap();
        let names: Vec<_> = ds.iter().map(|d| d.gesture.as_str()).collect();
        assert_eq!(names, order);
        // A replace keeps its slot.
        e.replace(parse_query(r#"SELECT "x" MATCHING kinect(x > 9);"#).unwrap())
            .unwrap();
        let ds = e.push("kinect", &tup(10, 10.0)).unwrap();
        let names: Vec<_> = ds.iter().map(|d| d.gesture.as_str()).collect();
        assert_eq!(names, order);
    }

    #[test]
    fn view_evaluated_once_per_tuple_across_queries() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut cat = Catalog::new();
        cat.register_stream(schema()).unwrap();
        let out = SchemaBuilder::new("kinect_t")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        let factory_schema = out.clone();
        let factory_calls = calls.clone();
        cat.register_view(ViewDef {
            name: "kinect_t".into(),
            input: "kinect".into(),
            schema: out,
            factory: Arc::new(move || {
                let s = factory_schema.clone();
                let calls = factory_calls.clone();
                Box::new(MapOp::new("double", s.clone(), move |t: &Tuple| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    Some(Tuple::new_unchecked(
                        s.clone(),
                        vec![
                            t.get_by_name("ts").unwrap().clone(),
                            Value::Float(t.f64("x").unwrap() * 2.0),
                        ],
                    ))
                }))
            }),
        })
        .unwrap();
        let e = Engine::new(Arc::new(cat));
        // Three queries over the same view: the transform must still run
        // exactly once per pushed tuple.
        e.deploy_text(r#"SELECT "a" MATCHING kinect_t(x > 18);"#)
            .unwrap();
        e.deploy_text(r#"SELECT "b" MATCHING kinect_t(x > 10);"#)
            .unwrap();
        e.deploy_text(r#"SELECT "c" MATCHING kinect_t(x < 0);"#)
            .unwrap();
        let ds = e.push("kinect", &tup(0, 10.0)).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "transform-once");
        let names: Vec<_> = ds.iter().map(|d| d.gesture.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        e.push("kinect", &tup(10, -1.0)).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn push_batch_matches_per_tuple_push() {
        let a = engine_with_view();
        let b = engine_with_view();
        for e in [&a, &b] {
            e.deploy_text(r#"SELECT "g" MATCHING kinect(x > 9) -> kinect(x < 1);"#)
                .unwrap();
            e.deploy_text(r#"SELECT "v" MATCHING kinect_t(x > 18);"#)
                .unwrap();
        }
        let tuples: Vec<Tuple> = [(0, 10.0), (50, 0.5), (100, 9.5), (150, 0.2)]
            .iter()
            .map(|&(ts, x)| tup(ts, x))
            .collect();
        let batched = a.push_batch("kinect", &tuples).unwrap();
        let mut single = Vec::new();
        for t in &tuples {
            single.extend(b.push("kinect", t).unwrap());
        }
        let key = |d: &Detection| (d.gesture.clone(), d.ts, d.started_at);
        let mut bk: Vec<_> = batched.iter().map(key).collect();
        let mut sk: Vec<_> = single.iter().map(key).collect();
        bk.sort();
        sk.sort();
        assert_eq!(bk, sk);
        assert!(!bk.is_empty());
    }

    #[test]
    fn unknown_source_fails_deploy() {
        let e = engine_with_view();
        let err = e
            .deploy_text(r#"SELECT "g" MATCHING nosuch(x > 1);"#)
            .unwrap_err();
        assert!(matches!(err, CepError::Stream(_)), "{err}");
    }

    #[test]
    fn plan_over_a_view_this_catalog_lacks_is_rejected_at_deploy() {
        // Compiled against a catalog with `kinect_t`, deployed to an
        // engine whose catalog only has the base stream.
        let plan = engine_with_view()
            .compile(parse_query(r#"SELECT "v" MATCHING kinect_t(x > 18);"#).unwrap())
            .unwrap();
        let mut cat = Catalog::new();
        cat.register_stream(schema()).unwrap();
        let e = Engine::new(Arc::new(cat));
        let unknown_view = |r: Result<(), CepError>| {
            matches!(
                r,
                Err(CepError::Stream(gesto_stream::StreamError::UnknownStream(v))) if v == "kinect_t"
            )
        };
        assert!(unknown_view(e.deploy_plan(plan.clone())));
        assert!(unknown_view(e.replace_plan(plan.clone())));
        assert!(e.is_empty(), "a rejected plan is not deployed");

        // The same check guards a session that pushes without deploying
        // through an engine (the shard worker's position).
        let mut views = SharedViews::new(e.catalog());
        let t = tup(0, 10.0);
        views.begin_batch("kinect", std::slice::from_ref(&t));
        let r = plan.instantiate().push_batch_shared(
            "kinect",
            std::slice::from_ref(&t),
            &views,
            &mut Vec::new(),
        );
        assert!(unknown_view(r));
    }

    #[test]
    fn reset_runs_clears_state() {
        let e = engine_with_view();
        e.deploy_text(r#"SELECT "g" MATCHING kinect(x > 9) -> kinect(x < 1);"#)
            .unwrap();
        e.push("kinect", &tup(0, 10.0)).unwrap();
        assert_eq!(e.stats("g").unwrap().active_runs, 1);
        e.reset_runs();
        assert_eq!(e.stats("g").unwrap().active_runs, 0);
    }
}
