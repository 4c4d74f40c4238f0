//! The push-based operator abstraction.

use std::any::Any;
use std::cell::OnceCell;

use crate::rows::{Deferred, RowPayload};
use crate::schema::SchemaRef;
use crate::time::StreamTime;
use crate::tuple::Tuple;

/// Downstream sink of one batch: operators emit output rows into it.
///
/// The buffers behind it belong to the caller, not to the operator, and
/// outlive the batch, so an operator keeps no batch-sized buffer of its
/// own — only state that must survive between batches. There are two
/// kinds of sink:
///
/// * **Without a block** (a scalar batch, [`Self::collect`]) every row
///   is a fresh tuple, built at emission ([`Self::push`]).
/// * **With a block** an operator may defer its rows ([`Self::defer`]):
///   their tuples are built only for the rows a consumer reads
///   ([`crate::ViewRows`]), and once the batch is over the caller begins
///   the block at its final row count and has the operator's payload
///   write the lanes ([`RowPayload::write_lanes`]). An operator that
///   does not defer pushes tuples here too, and the caller builds the
///   block from them.
pub struct Emit<'a> {
    out: &'a mut Vec<Tuple>,
    /// Frame boundaries ([`Self::end_frame`]); none on a plain sink.
    ends: Option<&'a mut Vec<u32>>,
    /// A sink with a block: where deferred rows go.
    deferred: Option<&'a mut Deferred>,
}

impl<'a> Emit<'a> {
    /// A sink appending to the empty `out`, recording frame ends after
    /// the first (`0`) in `ends`, with deferred rows if it has a block.
    pub(crate) fn new(
        out: &'a mut Vec<Tuple>,
        ends: Option<&'a mut Vec<u32>>,
        deferred: Option<&'a mut Deferred>,
    ) -> Self {
        Self {
            out,
            ends,
            deferred,
        }
    }

    /// Deferred rows emitted so far.
    fn deferred_rows(&self) -> usize {
        self.deferred.as_ref().map_or(0, |d| d.rows.len())
    }

    /// A plain sink appending to `out`, with no block. For driving an
    /// operator outside [`crate::SharedViews`] ([`run_operator`],
    /// reference implementations).
    pub fn collect(out: &'a mut Vec<Tuple>) -> Self {
        Self::new(out, None, None)
    }

    /// Ends the current input frame: the rows emitted since the last
    /// end are its outputs ([`crate::ViewRows::frame`]). The caller ends
    /// each frame it feeds [`Operator::process`]; an operator ends each
    /// frame of its [`Operator::process_batch`].
    pub fn end_frame(&mut self) {
        let rows = (self.out.len() + self.deferred_rows()) as u32;
        if let Some(ends) = self.ends.as_deref_mut() {
            ends.push(rows);
        }
    }

    /// Emits `tuple`.
    pub fn push(&mut self, tuple: Tuple) {
        debug_assert!(
            self.deferred_rows() == 0,
            "an operator that defers defers every row"
        );
        self.out.push(tuple);
    }

    /// Emits a row with timestamp `ts` whose tuple is built only if a
    /// consumer asks for it: returns the operator's payload `P` (as this
    /// batch's earlier rows left it) and the row's index. The operator
    /// records in `P` how to build the row ([`RowPayload::tuple`]) and
    /// write its lanes ([`RowPayload::write_lanes`]); `ts` is what its
    /// [`Tuple::timestamp`] would read (`0` if none).
    ///
    /// `None` — the operator then pushes a tuple — on a sink without a
    /// block, or once this batch has a tuple: an operator that defers a
    /// row defers every row of the batch.
    pub fn defer<P: RowPayload + Default>(&mut self, ts: StreamTime) -> Option<(&mut P, usize)> {
        let deferred = self
            .deferred
            .as_deref_mut()
            .filter(|_| self.out.is_empty())?;
        let row = deferred.rows.len();
        deferred.rows.push((ts, OnceCell::new()));
        Some((deferred.payload(), row))
    }
}

/// A base-stream batch in the form its producer holds it, before any
/// tuple is built from it ([`crate::SharedViews::begin_batch_rows`]).
#[derive(Clone, Copy)]
pub struct RowBatch<'a> {
    /// The producer's rows, e.g. a `Vec<SkeletonFrame>` ([`Self::rows`]).
    pub(crate) rows: &'a dyn Any,
    /// Number of rows (frames) in `rows`: all of them, or none in a
    /// probe ([`crate::SharedViews::tuples_wanted`]).
    pub(crate) len: usize,
    /// Schema of the tuples the producer builds from these rows.
    pub schema: &'a SchemaRef,
}

impl<'a> RowBatch<'a> {
    /// The batch `rows` (possibly empty), whose tuples have `schema`.
    pub fn of<T: 'static>(rows: &'a Vec<T>, schema: &'a SchemaRef) -> Self {
        let len = rows.len();
        Self { rows, len, schema }
    }

    /// The rows, if they are `T`s: an operator that knows the type
    /// reads them.
    pub fn rows<T: 'static>(&self) -> Option<&'a [T]> {
        let rows: &'a Vec<T> = self.rows.downcast_ref()?;
        Some(&rows[..self.len])
    }
}

/// A push-based stream operator.
///
/// Operators receive one input tuple at a time and may emit zero or more
/// output rows into the [`Emit`] sink.
pub trait Operator: Send {
    /// Human-readable operator name (for stats and debugging).
    fn name(&self) -> &str;

    /// Output schema produced by this operator.
    fn output_schema(&self) -> SchemaRef;

    /// Processes one tuple. `emit` is valid for this call only; nothing
    /// it hands out may be kept.
    fn process(&mut self, tuple: &Tuple, emit: &mut Emit<'_>);

    /// [`Self::process`] over a whole batch, without its tuples: an
    /// operator that can read `batch` natively emits, frame by frame and
    /// ending each ([`Emit::end_frame`]), exactly what `process` emits
    /// for the tuples the producer builds from those rows, and returns
    /// `true`. `false` (the default) means it cannot and has done
    /// nothing — the caller feeds it tuples.
    ///
    /// The answer depends on the type of the rows and on `batch.schema`
    /// only, never on the rows: a caller settles once, with an empty
    /// batch, whether it has to build tuples at all.
    fn process_batch(&mut self, _batch: &RowBatch<'_>, _emit: &mut Emit<'_>) -> bool {
        false
    }

    /// Flushes any buffered state at end-of-stream (windows, aggregates).
    ///
    /// The default implementation emits nothing.
    fn finish(&mut self, _emit: &mut Emit<'_>) {}
}

/// A boxed operator: what a catalog view factory returns.
pub type BoxedOperator = Box<dyn Operator>;

/// Collects emitted tuples into a vector; convenient in tests and for
/// one-shot batch runs.
pub fn run_operator(op: &mut dyn Operator, input: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut emit = Emit::collect(&mut out);
    for t in input {
        op.process(t, &mut emit);
    }
    op.finish(&mut emit);
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
            emit.push(tuple.clone());
            emit.push(tuple.clone());
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
