//! Per-tuple mapping operator.

use crate::operator::{Emit, Operator};
use crate::schema::SchemaRef;
use crate::tuple::Tuple;

/// The mapping function type.
pub type MapFn = Box<dyn FnMut(&Tuple) -> Option<Tuple> + Send>;

/// Applies a fallible per-tuple function; `None` drops the tuple.
///
/// A single pass over the incoming stream that rewrites every tuple
/// on-the-fly, for user-declared views. The paper's `kinect_t`
/// transformation view (§3.2) has its own batch operator, `KinectTOp`
/// in `gesto-transform`.
pub struct MapOp {
    name: String,
    schema: SchemaRef,
    f: MapFn,
}

impl MapOp {
    /// Creates a map operator producing tuples of `schema`.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        f: impl FnMut(&Tuple) -> Option<Tuple> + Send + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            schema,
            f: Box::new(f),
        }
    }
}

impl Operator for MapOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn process(&mut self, tuple: &Tuple, emit: &mut Emit<'_>) {
        if let Some(out) = (self.f)(tuple) {
            debug_assert_eq!(out.schema().len(), self.schema.len());
            emit.push(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::run_operator;
    use crate::schema::SchemaBuilder;
    use crate::value::Value;

    #[test]
    fn maps_and_drops() {
        let schema = SchemaBuilder::new("s").float("x").build().unwrap();
        let out_schema = schema.clone();
        let mut op = MapOp::new("x2", out_schema.clone(), move |t| {
            let x = t.f64("x")?;
            if x < 0.0 {
                return None;
            }
            Some(Tuple::new_unchecked(
                out_schema.clone(),
                vec![Value::Float(x * 2.0)],
            ))
        });
        let mk = |x: f64| Tuple::new(schema.clone(), vec![Value::Float(x)]).unwrap();
        let out = run_operator(&mut op, &[mk(1.0), mk(-1.0), mk(3.0)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].f64("x"), Some(2.0));
        assert_eq!(out[1].f64("x"), Some(6.0));
    }
}
