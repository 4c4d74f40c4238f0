//! Catalog of named base streams and derived views.
//!
//! The paper declares the transformed sensor stream as a view
//! (`kinect_t`, §3.2) so detection queries can reference it by name. The
//! catalog maps stream names to schemas and view names to operator
//! factories; each session's [`crate::SharedViews`] instantiates one
//! operator per view and shares its output across every deployed query.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use crate::error::StreamError;
use crate::operator::BoxedOperator;
use crate::schema::SchemaRef;

/// Factory producing a fresh (stateful) view operator instance.
pub type ViewFactory = Arc<dyn Fn() -> BoxedOperator + Send + Sync>;

/// A derived view: input stream + operator factory + output schema.
#[derive(Clone)]
pub struct ViewDef {
    /// View name (e.g. `kinect_t`).
    pub name: String,
    /// Name of the input stream or view.
    pub input: String,
    /// Output schema of the view operator.
    pub schema: SchemaRef,
    /// Factory for the view's operator.
    pub factory: ViewFactory,
}

impl std::fmt::Debug for ViewDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewDef")
            .field("name", &self.name)
            .field("input", &self.input)
            .field("schema", &self.schema.name)
            .finish()
    }
}

/// One immutable published state of the catalog: the stream/view maps
/// plus the *fully precomputed* resolve table (every registered name
/// maps to its `(base_stream, views_outermost_last)` chain).
///
/// Built under the registration lock, then published wholesale; readers
/// never see a partially updated state and never compute a resolution
/// themselves.
#[derive(Default)]
struct CatalogSnapshot {
    streams: HashMap<String, SchemaRef>,
    views: HashMap<String, ViewDef>,
    resolved: HashMap<String, (String, Vec<ViewDef>)>,
}

impl CatalogSnapshot {
    fn clone_topology(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            streams: self.streams.clone(),
            views: self.views.clone(),
            resolved: HashMap::new(),
        }
    }

    /// Recomputes the full resolve table. The topology is a DAG by
    /// construction (`register_view` demands the input already exist,
    /// and names are unique), so every walk terminates; the length
    /// guard is purely defensive.
    fn rebuild_resolved(&mut self) -> Result<(), StreamError> {
        self.resolved = HashMap::with_capacity(self.streams.len() + self.views.len());
        for name in self.streams.keys() {
            self.resolved
                .insert(name.clone(), (name.clone(), Vec::new()));
        }
        for name in self.views.keys() {
            let mut chain = Vec::new();
            let mut current = name.clone();
            loop {
                if self.streams.contains_key(&current) {
                    chain.reverse();
                    self.resolved.insert(name.clone(), (current, chain));
                    break;
                }
                match self.views.get(&current) {
                    Some(v) => {
                        if chain.len() > self.views.len() {
                            return Err(StreamError::Pipeline(format!(
                                "view cycle detected while resolving '{name}'"
                            )));
                        }
                        chain.push(v.clone());
                        current = v.input.clone();
                    }
                    None => return Err(StreamError::UnknownStream(current)),
                }
            }
        }
        Ok(())
    }
}

/// Thread-safe registry of base streams and views.
///
/// Readers (`resolve`, `schema_of`, `view`, …) clone the current
/// snapshot's `Arc` under a brief read lock; every reader is on the
/// deploy or session-creation path, none runs per batch. Registrations
/// build the next snapshot (including the complete resolve table) under
/// the write lock and swap it in, so a superseded snapshot is freed
/// with its last reader.
#[derive(Default)]
pub struct Catalog {
    current: RwLock<Arc<CatalogSnapshot>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current snapshot. A poisoned lock still holds a whole
    /// snapshot: writers only ever swap in a finished one.
    fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publishes the snapshot `next` builds from the current one.
    fn publish(
        &self,
        next: impl FnOnce(&CatalogSnapshot) -> Result<CatalogSnapshot, StreamError>,
    ) -> Result<(), StreamError> {
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let mut snap = next(&current)?;
        snap.rebuild_resolved()?;
        *current = Arc::new(snap);
        Ok(())
    }

    /// Registers a base stream schema.
    pub fn register_stream(&self, schema: SchemaRef) -> Result<(), StreamError> {
        self.publish(|cur| {
            let name = schema.name.clone();
            if cur.streams.contains_key(&name) || cur.views.contains_key(&name) {
                return Err(StreamError::DuplicateStream(name));
            }
            let mut next = cur.clone_topology();
            next.streams.insert(name, schema);
            Ok(next)
        })
    }

    /// Registers a derived view. The input must already exist.
    pub fn register_view(&self, view: ViewDef) -> Result<(), StreamError> {
        self.publish(|cur| {
            if cur.streams.contains_key(&view.name) || cur.views.contains_key(&view.name) {
                return Err(StreamError::DuplicateStream(view.name));
            }
            if !cur.streams.contains_key(&view.input) && !cur.views.contains_key(&view.input) {
                return Err(StreamError::UnknownStream(view.input));
            }
            let mut next = cur.clone_topology();
            next.views.insert(view.name.clone(), view);
            Ok(next)
        })
    }

    /// Schema of a stream or view by name.
    pub fn schema_of(&self, name: &str) -> Result<SchemaRef, StreamError> {
        let snap = self.snapshot();
        if let Some(s) = snap.streams.get(name) {
            return Ok(s.clone());
        }
        if let Some(v) = snap.views.get(name) {
            return Ok(v.schema.clone());
        }
        Err(StreamError::UnknownStream(name.to_owned()))
    }

    /// True when `name` is a registered base stream.
    pub fn is_stream(&self, name: &str) -> bool {
        self.snapshot().streams.contains_key(name)
    }

    /// Looks up a view definition.
    pub fn view(&self, name: &str) -> Option<ViewDef> {
        self.snapshot().views.get(name).cloned()
    }

    /// Resolves the chain of view definitions from `name` down to its base
    /// stream: returns `(base_stream, views_outermost_last)`.
    ///
    /// E.g. for `kinect_t` over `kinect` this returns
    /// `("kinect", [kinect_t])`; instantiating the factories in order turns
    /// base tuples into view tuples.
    ///
    /// The resolve table is precomputed at registration time, so every
    /// `deploy` and every session instantiation is a hash lookup in the
    /// current snapshot.
    pub fn resolve(&self, name: &str) -> Result<(String, Vec<ViewDef>), StreamError> {
        self.snapshot()
            .resolved
            .get(name)
            .cloned()
            .ok_or_else(|| StreamError::UnknownStream(name.to_owned()))
    }

    /// All registered view definitions, sorted by name (the deterministic
    /// enumeration [`crate::SharedViews`] derives its slot numbering
    /// from).
    pub fn view_defs(&self) -> Vec<ViewDef> {
        let mut out: Vec<ViewDef> = self.snapshot().views.values().cloned().collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// All registered stream and view names (streams first, then views).
    pub fn names(&self) -> Vec<String> {
        let snap = self.snapshot();
        let mut out: Vec<String> = snap.streams.keys().cloned().collect();
        out.sort();
        let mut views: Vec<String> = snap.views.keys().cloned().collect();
        views.sort();
        out.extend(views);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MapOp;
    use crate::schema::SchemaBuilder;

    fn base() -> SchemaRef {
        SchemaBuilder::new("kinect")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap()
    }

    fn view_over(name: &str, input: &str, schema: SchemaRef) -> ViewDef {
        let out = schema.clone();
        ViewDef {
            name: name.into(),
            input: input.into(),
            schema: schema.clone(),
            factory: Arc::new(move || {
                let out = out.clone();
                Box::new(MapOp::new("id", out, move |t| Some(t.clone())))
            }),
        }
    }

    #[test]
    fn register_and_lookup() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        assert!(cat.is_stream("kinect"));
        assert_eq!(cat.schema_of("kinect").unwrap().name, "kinect");
        assert!(cat.schema_of("nope").is_err());
    }

    #[test]
    fn duplicate_rejected() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        assert!(matches!(
            cat.register_stream(base()),
            Err(StreamError::DuplicateStream(_))
        ));
    }

    #[test]
    fn view_requires_existing_input() {
        let cat = Catalog::new();
        let v = view_over("v", "missing", base());
        assert!(matches!(
            cat.register_view(v),
            Err(StreamError::UnknownStream(_))
        ));
    }

    #[test]
    fn resolve_walks_view_chain() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let s = SchemaBuilder::new("kinect_t")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        cat.register_view(view_over("kinect_t", "kinect", s.clone()))
            .unwrap();
        let s2 = SchemaBuilder::new("k2")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        cat.register_view(view_over("k2", "kinect_t", s2)).unwrap();

        let (root, chain) = cat.resolve("k2").unwrap();
        assert_eq!(root, "kinect");
        let names: Vec<_> = chain.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["kinect_t", "k2"]);

        let (root, chain) = cat.resolve("kinect").unwrap();
        assert_eq!(root, "kinect");
        assert!(chain.is_empty());
    }

    #[test]
    fn resolve_cache_survives_registration() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let s = SchemaBuilder::new("kinect_t")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        cat.register_view(view_over("kinect_t", "kinect", s.clone()))
            .unwrap();

        // Warm the cache, then register more topology on top.
        let (root, chain) = cat.resolve("kinect_t").unwrap();
        assert_eq!((root.as_str(), chain.len()), ("kinect", 1));
        let s2 = SchemaBuilder::new("k2")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        cat.register_view(view_over("k2", "kinect_t", s2)).unwrap();

        // Both the pre-existing and the new name resolve correctly.
        let (root, chain) = cat.resolve("kinect_t").unwrap();
        assert_eq!((root.as_str(), chain.len()), ("kinect", 1));
        let (root, chain) = cat.resolve("k2").unwrap();
        assert_eq!((root.as_str(), chain.len()), ("kinect", 2));
        // Cached entries are stable across repeated lookups.
        let (root2, chain2) = cat.resolve("k2").unwrap();
        assert_eq!(root, root2);
        assert_eq!(chain.len(), chain2.len());
        // Unknown names still fail (and are not cached as successes).
        assert!(cat.resolve("nope").is_err());
    }

    #[test]
    fn names_sorted_streams_then_views() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let s = SchemaBuilder::new("kinect_t")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        cat.register_view(view_over("kinect_t", "kinect", s))
            .unwrap();
        assert_eq!(
            cat.names(),
            vec!["kinect".to_string(), "kinect_t".to_string()]
        );
    }

    #[test]
    fn superseded_snapshot_is_freed_by_the_next_registration() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let old = Arc::downgrade(&cat.snapshot());
        assert!(old.upgrade().is_some());
        cat.register_view(view_over("kinect_t", "kinect", base()))
            .unwrap();
        assert!(old.upgrade().is_none(), "superseded snapshot leaked");
        // A failed registration publishes nothing.
        let current = Arc::downgrade(&cat.snapshot());
        assert!(cat.register_stream(base()).is_err());
        assert!(current.upgrade().is_some());
    }

    #[test]
    fn readers_never_see_a_registered_name_go_missing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const VIEWS: usize = 200;
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        // Views `v0 .. v{registered - 1}` are published.
        let registered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut names = 0;
                    loop {
                        let n = registered.load(Ordering::Acquire);
                        if n > 0 {
                            let (base, chain) = cat.resolve(&format!("v{}", n - 1)).unwrap();
                            assert_eq!((base.as_str(), chain.len()), ("kinect", n));
                            cat.schema_of(&format!("v{}", n / 2)).unwrap();
                            assert!(cat.view_defs().len() >= n);
                        }
                        let now = cat.names().len();
                        assert!(now >= names, "names() shrank from {names} to {now}");
                        names = now;
                        if n == VIEWS {
                            break;
                        }
                    }
                });
            }
            for i in 0..VIEWS {
                let input = if i == 0 {
                    "kinect".into()
                } else {
                    format!("v{}", i - 1)
                };
                cat.register_view(view_over(&format!("v{i}"), &input, base()))
                    .unwrap();
                registered.store(i + 1, Ordering::Release);
            }
        });
        assert_eq!(cat.names().len(), VIEWS + 1);
    }
}
