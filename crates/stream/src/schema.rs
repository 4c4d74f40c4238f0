//! Stream schemas: ordered, named, typed field lists.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::StreamError;
use crate::value::ValueType;

/// A single field declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Field name, unique within the schema.
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
}

impl Field {
    /// Creates a field declaration.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of fields with O(1) lookup by name.
///
/// Schemas are immutable and shared via [`SchemaRef`]; every [`crate::Tuple`]
/// carries one so operators never need out-of-band type information.
///
/// The name index is an invariant of the type: every constructor —
/// including deserialisation — builds it, so [`Schema::index_of`] is
/// always a single hash lookup. The timestamp slot is resolved with it,
/// so the per-tuple [`crate::Tuple::timestamp`] hashes nothing.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Stream/view name this schema belongs to (informational).
    pub name: String,
    fields: Vec<Field>,
    index: HashMap<String, usize>,
    ts_slot: Option<usize>,
}

/// The timestamp rule, in its one place: the field named `ts`, else the
/// first `Timestamp`-typed field.
fn resolve_ts_slot(fields: &[Field], index: &HashMap<String, usize>) -> Option<usize> {
    index
        .get("ts")
        .copied()
        .or_else(|| fields.iter().position(|f| f.ty == ValueType::Timestamp))
}

/// Serialised shape of a [`Schema`]: the index is derived state and
/// stays off the wire; deserialisation rebuilds it via [`Schema::new`].
#[derive(Serialize, Deserialize)]
struct SchemaWire {
    name: String,
    fields: Vec<Field>,
}

impl Serialize for Schema {
    fn to_content(&self) -> serde::Content {
        SchemaWire {
            name: self.name.clone(),
            fields: self.fields.clone(),
        }
        .to_content()
    }
}

impl Deserialize for Schema {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let wire = SchemaWire::from_content(content)?;
        Schema::new(wire.name, wire.fields).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

/// Shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.fields == other.fields
    }
}
impl Eq for Schema {}

impl Schema {
    /// Builds a schema; field names must be unique and non-empty.
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> Result<Self, StreamError> {
        let name = name.into();
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if f.name.is_empty() {
                return Err(StreamError::Schema(format!(
                    "schema '{name}': field {i} has an empty name"
                )));
            }
            if index.insert(f.name.clone(), i).is_some() {
                return Err(StreamError::Schema(format!(
                    "schema '{name}': duplicate field '{}'",
                    f.name
                )));
            }
        }
        let ts_slot = resolve_ts_slot(&fields, &index);
        Ok(Self {
            name,
            fields,
            index,
            ts_slot,
        })
    }

    /// Convenience constructor returning a shared handle.
    pub fn shared(name: impl Into<String>, fields: Vec<Field>) -> Result<SchemaRef, StreamError> {
        Ok(Arc::new(Self::new(name, fields)?))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field by position.
    pub fn field(&self, i: usize) -> Option<&Field> {
        self.fields.get(i)
    }

    /// Position of a field by name — always a single hash lookup.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Position of the field holding a tuple's timestamp: the field named
    /// `ts`, else the first `Timestamp`-typed field. Resolved when the
    /// schema is built.
    pub fn timestamp_slot(&self) -> Option<usize> {
        self.ts_slot
    }

    /// Position of a field by name, as a hard error.
    pub fn require(&self, name: &str) -> Result<usize, StreamError> {
        self.index_of(name)
            .ok_or_else(|| StreamError::UnknownField {
                schema: self.name.clone(),
                field: name.to_owned(),
            })
    }

    /// Declared type of a named field.
    pub fn type_of(&self, name: &str) -> Option<ValueType> {
        self.index_of(name).map(|i| self.fields[i].ty)
    }

    /// Derives a new schema containing `names` (projection), in the given
    /// order, under a new stream name.
    pub fn project(
        &self,
        new_name: impl Into<String>,
        names: &[&str],
    ) -> Result<Schema, StreamError> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            let i = self.require(n)?;
            fields.push(self.fields[i].clone());
        }
        Schema::new(new_name, fields)
    }

    /// Derives a schema with the same field layout under a different name,
    /// optionally applying a suffix to every field (used by the `kinect_t`
    /// transformed view, which keeps the layout but renames fields).
    pub fn renamed(&self, new_name: impl Into<String>, field_suffix: &str) -> Schema {
        let fields = self
            .fields
            .iter()
            .map(|f| Field::new(format!("{}{}", f.name, field_suffix), f.ty))
            .collect();
        Schema::new(new_name, fields).expect("renaming preserves uniqueness")
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, fd) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {}", fd.name, fd.ty)?;
        }
        f.write_str(")")
    }
}

/// Builder for schemas with a fluent interface.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    name: String,
    fields: Vec<Field>,
}

impl SchemaBuilder {
    /// Starts a schema with the given stream name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a field.
    pub fn field(mut self, name: impl Into<String>, ty: ValueType) -> Self {
        self.fields.push(Field::new(name, ty));
        self
    }

    /// Appends an `Int` field.
    pub fn int(self, name: impl Into<String>) -> Self {
        self.field(name, ValueType::Int)
    }

    /// Appends a `Float` field.
    pub fn float(self, name: impl Into<String>) -> Self {
        self.field(name, ValueType::Float)
    }

    /// Appends a `Str` field.
    pub fn str(self, name: impl Into<String>) -> Self {
        self.field(name, ValueType::Str)
    }

    /// Appends a `Bool` field.
    pub fn bool(self, name: impl Into<String>) -> Self {
        self.field(name, ValueType::Bool)
    }

    /// Appends a `Timestamp` field.
    pub fn timestamp(self, name: impl Into<String>) -> Self {
        self.field(name, ValueType::Timestamp)
    }

    /// Finishes the schema.
    pub fn build(self) -> Result<SchemaRef, StreamError> {
        Schema::shared(self.name, self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SchemaRef {
        SchemaBuilder::new("s")
            .timestamp("ts")
            .float("x")
            .float("y")
            .str("tag")
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_by_name_and_index() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert_eq!(s.index_of("x"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.type_of("tag"), Some(ValueType::Str));
        assert_eq!(s.field(0).unwrap().name, "ts");
        assert_eq!(s.timestamp_slot(), Some(0));
    }

    #[test]
    fn timestamp_slot_prefers_the_field_named_ts() {
        let s = SchemaBuilder::new("s")
            .timestamp("stamp")
            .int("ts")
            .build()
            .unwrap();
        assert_eq!(s.timestamp_slot(), Some(1), "named `ts` wins");
        let s = SchemaBuilder::new("s")
            .float("a")
            .timestamp("stamp")
            .build()
            .unwrap();
        assert_eq!(s.timestamp_slot(), Some(1), "first Timestamp-typed");
        let s = SchemaBuilder::new("s").float("a").build().unwrap();
        assert_eq!(s.timestamp_slot(), None);
    }

    #[test]
    fn duplicate_field_rejected() {
        let err = Schema::new(
            "d",
            vec![
                Field::new("a", ValueType::Int),
                Field::new("a", ValueType::Int),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate field 'a'"));
    }

    #[test]
    fn empty_field_name_rejected() {
        let err = Schema::new("d", vec![Field::new("", ValueType::Int)]).unwrap_err();
        assert!(err.to_string().contains("empty name"));
    }

    #[test]
    fn require_unknown_field_errors() {
        let s = sample();
        let err = s.require("missing").unwrap_err();
        assert!(matches!(err, StreamError::UnknownField { .. }));
    }

    #[test]
    fn projection_preserves_order_and_types() {
        let s = sample();
        let p = s.project("p", &["y", "ts"]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.field(0).unwrap().name, "y");
        assert_eq!(p.field(1).unwrap().ty, ValueType::Timestamp);
    }

    #[test]
    fn projection_of_unknown_field_fails() {
        let s = sample();
        assert!(s.project("p", &["zz"]).is_err());
    }

    #[test]
    fn renamed_applies_suffix() {
        let s = sample();
        let r = s.renamed("s_t", "_t");
        assert_eq!(r.name, "s_t");
        assert_eq!(r.index_of("x_t"), Some(1));
    }

    #[test]
    fn display_is_readable() {
        let s = sample();
        assert_eq!(
            s.to_string(),
            "s(ts: timestamp, x: float, y: float, tag: str)"
        );
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let s = sample();
        let json = serde_json::to_string(&*s).unwrap();
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(back, *s);
        // The index is rebuilt by deserialisation itself.
        assert_eq!(back.index_of("y"), Some(2));
        assert_eq!(back.index_of("nope"), None);
        assert_eq!(back.timestamp_slot(), Some(0));
    }

    #[test]
    fn serde_rejects_corrupt_duplicate_fields() {
        let json = r#"{"name":"d","fields":[
            {"name":"a","ty":"Int"},{"name":"a","ty":"Int"}]}"#;
        assert!(serde_json::from_str::<Schema>(json).is_err());
    }
}
