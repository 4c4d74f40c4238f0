//! The push-based operator abstraction.

use crate::block::ColumnBlock;
use crate::schema::SchemaRef;
use crate::tuple::Tuple;

/// Downstream continuation: operators emit output tuples by calling this.
pub type Emit<'a> = dyn FnMut(Tuple) + 'a;

/// A push-based stream operator.
///
/// Operators receive one input tuple at a time and may emit zero or more
/// output tuples via the `emit` continuation, which keeps per-tuple
/// processing allocation-free for pass-through operators.
pub trait Operator: Send {
    /// Human-readable operator name (for stats and debugging).
    fn name(&self) -> &str;

    /// Output schema produced by this operator.
    fn output_schema(&self) -> SchemaRef;

    /// Processes one tuple.
    fn process(&mut self, tuple: &Tuple, emit: &mut Emit<'_>);

    /// Flushes any buffered state at end-of-stream (windows, aggregates).
    ///
    /// The default implementation emits nothing.
    fn finish(&mut self, _emit: &mut Emit<'_>) {}

    /// Hands back the tuples this operator emitted for the previous
    /// batch, once the caller is done reading them (called by
    /// [`crate::SharedViews`] before each batch). An operator may keep
    /// them and overwrite their buffers instead of allocating new ones;
    /// the default drops them. Must leave `spent` empty.
    ///
    /// Ownership rule: a spent tuple may still be shared — a partial
    /// match interned it, a detection carries it — so the only way to
    /// write one is [`Tuple::values_mut`], which refuses while any clone
    /// is alive; the operator then emits a fresh tuple instead.
    fn recycle(&mut self, spent: &mut Vec<Tuple>) {
        spent.clear();
    }

    /// Batch-boundary hint from block-building callers (see
    /// [`Self::fill_block`]): when `on`, the operator may record
    /// per-emission state during the following `process` calls so the
    /// batch's float lanes can be written straight from source data.
    /// Called once before each batch. The default ignores it.
    fn begin_block_capture(&mut self, _on: bool) {}

    /// Writes the float lanes of `block` for exactly the tuples in
    /// `out` — this operator's emissions since the last
    /// `begin_block_capture(true)` — restricted to the `cols` column
    /// filter (same contract as
    /// [`ColumnBlock::fill_from_tuples_filtered`]).
    ///
    /// Returning `true` asserts the written block is **bit-identical**
    /// to rebuilding the lanes from `out`; operators that cannot write
    /// lanes directly return `false` (the default) and the caller
    /// performs that rebuild itself.
    fn fill_block(
        &mut self,
        _out: &[Tuple],
        _cols: Option<&[usize]>,
        _block: &mut ColumnBlock,
    ) -> bool {
        false
    }
}

/// A boxed operator: what a catalog view factory returns.
pub type BoxedOperator = Box<dyn Operator>;

/// Collects emitted tuples into a vector; convenient in tests and for
/// one-shot batch runs.
pub fn run_operator(op: &mut dyn Operator, input: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::new();
    {
        let mut emit = |t: Tuple| out.push(t);
        for t in input {
            op.process(t, &mut emit);
        }
        op.finish(&mut emit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::Value;

    struct Doubler {
        schema: SchemaRef,
    }

    impl Operator for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn output_schema(&self) -> SchemaRef {
            self.schema.clone()
        }
        fn process(&mut self, tuple: &Tuple, emit: &mut Emit<'_>) {
            emit(tuple.clone());
            emit(tuple.clone());
        }
    }

    #[test]
    fn run_operator_collects_all_emissions() {
        let schema = SchemaBuilder::new("s").int("a").build().unwrap();
        let t = Tuple::new(schema.clone(), vec![Value::Int(1)]).unwrap();
        let mut op = Doubler { schema };
        let out = run_operator(&mut op, &[t.clone(), t]);
        assert_eq!(out.len(), 4);
    }
}
