//! Tuples: schema-tagged rows flowing through operators.

use std::fmt;
use std::sync::Arc;

use crate::error::StreamError;
use crate::schema::SchemaRef;
use crate::value::Value;

/// A single stream element: a boxed slice of [`Value`]s plus a shared
/// schema handle.
///
/// Tuples are cheap to clone relative to their payload (one `Arc` bump plus
/// the value vector); the hot path in the CEP engine passes tuples by
/// reference and only clones when a partial match must retain one.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    schema: SchemaRef,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple, validating arity and per-field type conformance.
    pub fn new(schema: SchemaRef, values: Vec<Value>) -> Result<Self, StreamError> {
        if values.len() != schema.len() {
            return Err(StreamError::Arity {
                schema: schema.name.clone(),
                expected: schema.len(),
                got: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            let field = &schema.fields()[i];
            if !v.conforms_to(field.ty) {
                return Err(StreamError::TypeMismatch {
                    schema: schema.name.clone(),
                    field: field.name.clone(),
                    value: v.to_string(),
                });
            }
        }
        Ok(Self {
            schema,
            values: values.into(),
        })
    }

    /// Creates a tuple without validation.
    ///
    /// Used by trusted operators that construct outputs conforming to a
    /// schema they derived themselves (e.g. projections); validation in
    /// those inner loops would be redundant work.
    pub fn new_unchecked(schema: SchemaRef, values: Vec<Value>) -> Self {
        debug_assert_eq!(values.len(), schema.len());
        Self {
            schema,
            values: values.into(),
        }
    }

    /// Creates a tuple without validation straight from an iterator of
    /// its values, in field order.
    ///
    /// An iterator whose length the standard library trusts (ranges,
    /// slices, `repeat_n`, and `map`s of those) is collected into the
    /// shared buffer with **one** allocation and no copy; going through
    /// a `Vec` ([`Self::new_unchecked`]) costs a second allocation and
    /// a copy of every value.
    pub fn from_iter_unchecked(schema: SchemaRef, values: impl IntoIterator<Item = Value>) -> Self {
        let values: Arc<[Value]> = values.into_iter().collect();
        debug_assert_eq!(values.len(), schema.len());
        Self { schema, values }
    }

    /// The tuple's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// All values in field order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The values of a tuple this handle **solely owns**, used to fill a
    /// freshly built tuple.
    ///
    /// Every clone of a tuple (a partial match that interned it, a
    /// [`Tuple`] inside a retained detection, a caller's copy) shares
    /// the buffer, and while any clone is alive this returns `None`, so
    /// a kept tuple is never written. The gate is [`Arc::get_mut`];
    /// there is no other way to write a tuple's values. As with
    /// [`Self::new_unchecked`], the caller keeps the values conforming
    /// to the schema.
    pub fn values_mut(&mut self) -> Option<&mut [Value]> {
        Arc::get_mut(&mut self.values)
    }

    /// Value by position.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Value by field name.
    pub fn get_by_name(&self, name: &str) -> Option<&Value> {
        self.schema.index_of(name).and_then(|i| self.values.get(i))
    }

    /// Numeric field by name (Int/Float/Timestamp as `f64`).
    pub fn f64(&self, name: &str) -> Option<f64> {
        self.get_by_name(name).and_then(Value::as_f64)
    }

    /// Integer field by name.
    pub fn i64(&self, name: &str) -> Option<i64> {
        self.get_by_name(name).and_then(Value::as_i64)
    }

    /// String field by name.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.get_by_name(name).and_then(Value::as_str)
    }

    /// The tuple timestamp in stream milliseconds: the value at the
    /// schema's [`crate::Schema::timestamp_slot`] — a slice index, no
    /// name lookup.
    #[inline]
    pub fn timestamp(&self) -> Option<i64> {
        self.schema
            .timestamp_slot()
            .and_then(|i| self.values[i].as_i64())
    }

    /// Projects the tuple onto a derived schema (by field name lookup).
    pub fn project(&self, target: &SchemaRef) -> Result<Self, StreamError> {
        let mut values = Vec::with_capacity(target.len());
        for f in target.fields() {
            let i = self.schema.require(&f.name)?;
            values.push(self.values[i].clone());
        }
        Ok(Self {
            schema: target.clone(),
            values: values.into(),
        })
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.schema.name)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

/// Builds a tuple from `(name, value)` pairs against a schema, filling
/// unspecified fields with `Null`.
pub fn tuple_from_pairs(schema: &SchemaRef, pairs: &[(&str, Value)]) -> Result<Tuple, StreamError> {
    let mut values = vec![Value::Null; schema.len()];
    for (name, v) in pairs {
        let i = schema.require(name)?;
        values[i] = v.clone();
    }
    Tuple::new(schema.clone(), values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn schema() -> SchemaRef {
        SchemaBuilder::new("k")
            .timestamp("ts")
            .float("x")
            .float("y")
            .str("name")
            .build()
            .unwrap()
    }

    #[test]
    fn construct_and_access() {
        let s = schema();
        let t = Tuple::new(
            s.clone(),
            vec![
                Value::Timestamp(10),
                Value::Float(1.5),
                Value::Int(2),
                Value::Str("g".into()),
            ],
        )
        .unwrap();
        assert_eq!(t.f64("x"), Some(1.5));
        assert_eq!(t.f64("y"), Some(2.0), "int widens in float slot");
        assert_eq!(t.str("name"), Some("g"));
        assert_eq!(t.timestamp(), Some(10));
        assert_eq!(t.get(1), Some(&Value::Float(1.5)));
        assert_eq!(t.get_by_name("zzz"), None);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        let err = Tuple::new(s, vec![Value::Timestamp(1)]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Arity {
                expected: 4,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        let err = Tuple::new(
            s,
            vec![
                Value::Timestamp(1),
                Value::Str("no".into()),
                Value::Null,
                Value::Null,
            ],
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::TypeMismatch { .. }));
    }

    #[test]
    fn null_fills_any_slot() {
        let s = schema();
        let t = Tuple::new(s, vec![Value::Null; 4]).unwrap();
        assert!(t.values().iter().all(Value::is_null));
        assert_eq!(t.timestamp(), None);
    }

    #[test]
    fn values_mut_only_while_unique() {
        let s = schema();
        let mut t = Tuple::from_iter_unchecked(s.clone(), std::iter::repeat_n(Value::Null, 4));
        assert_eq!(t, Tuple::new(s, vec![Value::Null; 4]).unwrap());
        t.values_mut().expect("sole owner")[1] = Value::Float(2.5);
        assert_eq!(t.f64("x"), Some(2.5));

        let held = t.clone();
        assert!(t.values_mut().is_none(), "a shared tuple is never written");
        drop(held);
        assert!(t.values_mut().is_some(), "unique again once the clone died");
    }

    #[test]
    fn project_reorders() {
        let s = schema();
        let t =
            tuple_from_pairs(&s, &[("x", Value::Float(1.0)), ("y", Value::Float(2.0))]).unwrap();
        let target = Arc::new(s.project("p", &["y", "x"]).unwrap());
        let p = t.project(&target).unwrap();
        assert_eq!(p.values(), &[Value::Float(2.0), Value::Float(1.0)]);
    }

    #[test]
    fn from_pairs_fills_null() {
        let s = schema();
        let t = tuple_from_pairs(&s, &[("ts", Value::Timestamp(5))]).unwrap();
        assert_eq!(t.timestamp(), Some(5));
        assert!(t.get_by_name("x").unwrap().is_null());
        assert!(tuple_from_pairs(&s, &[("nope", Value::Null)]).is_err());
    }

    #[test]
    fn display_format() {
        let s = schema();
        let t = tuple_from_pairs(
            &s,
            &[("ts", Value::Timestamp(5)), ("name", Value::from("g"))],
        )
        .unwrap();
        assert_eq!(t.to_string(), "k[@5; null; null; \"g\"]");
    }

    #[test]
    fn timestamp_falls_back_to_first_timestamp_field() {
        let s = SchemaBuilder::new("s2")
            .float("a")
            .timestamp("stamp")
            .build()
            .unwrap();
        let t = Tuple::new(s, vec![Value::Float(0.0), Value::Timestamp(42)]).unwrap();
        assert_eq!(t.timestamp(), Some(42));
    }
}
