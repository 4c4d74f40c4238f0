//! Catalog of named base streams and derived views.
//!
//! The paper declares the transformed sensor stream as a view
//! (`kinect_t`, §3.2) so detection queries can reference it by name. The
//! catalog maps stream names to schemas and view names to operator
//! factories. Every view reads a base stream, as `kinect_t` reads
//! `kinect`. The catalog is built before it is shared and only read
//! after; each session's [`crate::SharedViews`] instantiates one operator
//! per view and shares its output across every deployed query.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    /// Name of the base stream the view reads.
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

/// Registry of base streams and the views over them.
///
/// Plain data: it is built (`&mut self`) before an engine or server
/// shares it behind an `Arc`, and read-only from then on. Every view
/// reads a registered base stream, so a name resolves in one lookup.
#[derive(Default)]
pub struct Catalog {
    streams: HashMap<String, SchemaRef>,
    views: BTreeMap<String, ViewDef>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn contains(&self, name: &str) -> bool {
        self.streams.contains_key(name) || self.views.contains_key(name)
    }

    /// Registers a base stream schema.
    pub fn register_stream(&mut self, schema: SchemaRef) -> Result<(), StreamError> {
        if self.contains(&schema.name) {
            return Err(StreamError::DuplicateStream(schema.name.clone()));
        }
        self.streams.insert(schema.name.clone(), schema);
        Ok(())
    }

    /// Registers a derived view. Its input must be a registered base
    /// stream ([`StreamError::UnknownStream`] names it otherwise).
    pub fn register_view(&mut self, view: ViewDef) -> Result<(), StreamError> {
        if self.contains(&view.name) {
            return Err(StreamError::DuplicateStream(view.name));
        }
        if !self.streams.contains_key(&view.input) {
            return Err(StreamError::UnknownStream(view.input));
        }
        self.views.insert(view.name.clone(), view);
        Ok(())
    }

    /// Schema of a stream or view by name.
    pub fn schema_of(&self, name: &str) -> Result<SchemaRef, StreamError> {
        self.streams
            .get(name)
            .or_else(|| self.view(name).map(|v| &v.schema))
            .cloned()
            .ok_or_else(|| StreamError::UnknownStream(name.to_owned()))
    }

    /// Looks up a view definition.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(name)
    }

    /// The base stream `name` reads, and the view it names if it is
    /// one: `("kinect", None)` for `kinect`, `("kinect", Some(kinect_t))`
    /// for `kinect_t`.
    pub fn resolve(&self, name: &str) -> Result<(&str, Option<&ViewDef>), StreamError> {
        if let Some((base, _)) = self.streams.get_key_value(name) {
            return Ok((base, None));
        }
        match self.views.get(name) {
            Some(view) => Ok((&view.input, Some(view))),
            None => Err(StreamError::UnknownStream(name.to_owned())),
        }
    }

    /// Every registered view definition, in name order (the slot
    /// numbering of [`crate::SharedViews`]).
    pub fn view_defs(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.values()
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
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        assert_eq!(cat.schema_of("kinect").unwrap().name, "kinect");
        assert!(cat.schema_of("nope").is_err());
    }

    #[test]
    fn duplicate_rejected() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        assert!(matches!(
            cat.register_stream(base()),
            Err(StreamError::DuplicateStream(_))
        ));
    }

    #[test]
    fn view_requires_existing_input() {
        let mut cat = Catalog::new();
        let v = view_over("v", "missing", base());
        assert!(matches!(
            cat.register_view(v),
            Err(StreamError::UnknownStream(_))
        ));
    }

    #[test]
    fn a_view_reads_a_base_stream() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        cat.register_view(view_over("kinect_t", "kinect", base()))
            .unwrap();
        assert_eq!(
            cat.register_view(view_over("k2", "kinect_t", base())),
            Err(StreamError::UnknownStream("kinect_t".into())),
            "a view over a view is refused, naming its input"
        );
        assert!(cat.view("k2").is_none());

        let (root, view) = cat.resolve("kinect").unwrap();
        assert_eq!((root, view.is_none()), ("kinect", true));
        let (root, view) = cat.resolve("kinect_t").unwrap();
        assert_eq!(
            (root, view.map(|v| v.name.as_str())),
            ("kinect", Some("kinect_t"))
        );
        assert_eq!(
            cat.resolve("nope").err(),
            Some(StreamError::UnknownStream("nope".into()))
        );
    }

    #[test]
    fn view_defs_in_name_order() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        for name in ["kinect_t", "kinect_d", "kinect_r"] {
            cat.register_view(view_over(name, "kinect", base()))
                .unwrap();
        }
        let names: Vec<_> = cat.view_defs().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["kinect_d", "kinect_r", "kinect_t"]);
    }
}
