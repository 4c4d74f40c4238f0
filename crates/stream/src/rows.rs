//! A batch's rows as consumers read them — and rows that become tuples
//! only when somebody reads them.
//!
//! On a block batch a view operator may *defer* a row
//! ([`crate::Emit::defer`]): it writes the row's block lanes and keeps, in
//! its [`RowPayload`], what building the row's tuple takes. The tuple is
//! built the first time a consumer asks for it ([`RowSource::tuple`]: a
//! run seeding or advancing on the row, the scalar evaluator deciding a
//! row the kernels left unknown, a view over this one), at most once per
//! batch, and every later consumer of the batch shares it. The next
//! batch, or the next [`crate::SharedViews::lend`], drops the built
//! tuples; a consumer that kept a clone keeps it unchanged.

use std::any::Any;
use std::cell::OnceCell;

use crate::time::StreamTime;
use crate::tuple::Tuple;

/// A batch's rows as the NFA steps them: timestamps always, tuples only
/// for the rows it keeps or must evaluate on the scalar path.
pub trait RowSource {
    /// Number of rows.
    fn len(&self) -> usize;
    /// True when there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Timestamp of row `row` (`0` for a tuple without one).
    fn ts(&self, row: usize) -> StreamTime;
    /// Tuple of row `row`.
    fn tuple(&self, row: usize) -> &Tuple;
}

impl RowSource for [Tuple] {
    fn len(&self) -> usize {
        <[Tuple]>::len(self)
    }
    fn ts(&self, row: usize) -> StreamTime {
        self[row].timestamp().unwrap_or(0)
    }
    fn tuple(&self, row: usize) -> &Tuple {
        &self[row]
    }
}

/// What a view operator keeps for the rows it deferred: enough to build
/// any of them as a tuple. Held by the caller's batch buffers and reused
/// from batch to batch; row `r` is the batch's `r`-th deferred row.
pub trait RowPayload: Any + Send {
    /// Builds row `row`'s tuple.
    fn tuple(&self, row: usize) -> Tuple;
    /// Heap bytes held, by capacity.
    fn bytes(&self) -> usize;
}

/// One deferred row: its timestamp, and its tuple once somebody asked.
type DeferredRow = (StreamTime, OnceCell<Tuple>);

/// One view's deferred rows of the current batch.
#[derive(Default)]
pub(crate) struct Deferred {
    pub(crate) rows: Vec<DeferredRow>,
    payload: Option<Box<dyn RowPayload>>,
}

impl Deferred {
    /// Drops the rows, counting the tuples consumers built from them.
    pub(crate) fn spend(&mut self) {
        let built = self.rows.iter().filter(|(_, t)| t.get().is_some()).count();
        if built > 0 {
            crate::metrics::TUPLES_BUILT_TOTAL.add(built as u64);
        }
        self.rows.clear();
    }

    /// The payload as type `P`, replacing one of another type.
    pub(crate) fn payload<P: RowPayload + Default>(&mut self) -> &mut P {
        let p = self.payload.get_or_insert_with(|| Box::new(P::default()));
        if !(&**p as &dyn Any).is::<P>() {
            *p = Box::new(P::default());
        }
        (&mut **p as &mut dyn Any).downcast_mut().expect("a P")
    }

    pub(crate) fn bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<DeferredRow>()
            + self.payload.as_ref().map_or(0, |p| p.bytes())
    }
}

/// A view's rows of the current batch, or of one frame of it
/// ([`crate::SharedViews::rows`]); or plain tuples ([`Self::tuples`]).
#[derive(Clone, Copy, Default)]
pub struct ViewRows<'a> {
    /// Rows emitted as tuples; empty when the view deferred them.
    tuples: &'a [Tuple],
    /// Deferred rows, and what builds them; empty when it did not.
    deferred: &'a [DeferredRow],
    payload: Option<&'a dyn RowPayload>,
    /// Batch row of `deferred[0]`.
    first: usize,
    /// Frame boundaries of a whole batch; empty for a frame's rows.
    offsets: &'a [u32],
}

impl<'a> ViewRows<'a> {
    /// `tuples`, as rows; a view's `deferred` rows and frame `offsets`.
    pub(crate) fn of(tuples: &'a [Tuple], deferred: &'a Deferred, offsets: &'a [u32]) -> Self {
        let payload = deferred.payload.as_deref();
        let deferred = &deferred.rows;
        Self {
            deferred,
            payload,
            offsets,
            ..Self::tuples(tuples)
        }
    }

    /// Plain tuples as rows.
    pub fn tuples(tuples: &'a [Tuple]) -> Self {
        Self {
            tuples,
            ..Self::default()
        }
    }

    /// Frame `frame`'s rows, of a whole batch's.
    pub fn frame(&self, frame: usize) -> Self {
        let (a, b) = match self.offsets.get(frame..frame + 2) {
            Some(&[a, b]) => (a as usize, b as usize),
            _ => (0, 0),
        };
        Self {
            tuples: self.tuples.get(a..b).unwrap_or_default(),
            deferred: self.deferred.get(a..b).unwrap_or_default(),
            first: self.first + a,
            offsets: &[],
            ..*self
        }
    }

    /// Row `row`'s tuple, built now if nobody asked for it before.
    pub fn get(&self, row: usize) -> &'a Tuple {
        let Some((_, cell)) = self.deferred.get(row) else {
            return &self.tuples[row];
        };
        let payload = self.payload.expect("deferred rows have a payload");
        cell.get_or_init(|| payload.tuple(self.first + row))
    }

    /// Every row's tuple, in order.
    pub fn iter(self) -> impl Iterator<Item = &'a Tuple> {
        (0..self.len()).map(move |r| self.get(r))
    }
}

impl RowSource for ViewRows<'_> {
    fn len(&self) -> usize {
        self.tuples.len() + self.deferred.len()
    }
    fn ts(&self, row: usize) -> StreamTime {
        match self.deferred.get(row) {
            Some((ts, _)) => *ts,
            None => self.tuples.ts(row),
        }
    }
    fn tuple(&self, row: usize) -> &Tuple {
        self.get(row)
    }
}
