//! A batch's rows as consumers read them — and rows that become tuples
//! only when somebody reads them.
//!
//! # Ownership and threading
//!
//! On a block batch a view operator may *defer* a row
//! ([`crate::Emit::defer`]): it keeps, in its [`RowPayload`], what
//! building the row's tuple and writing its lanes takes; once the batch
//! is over the block is begun at its row count and the payload writes
//! every lane ([`RowPayload::write_lanes`]). The
//! deferred rows and the payload live in the lent
//! [`crate::BatchBuffers`]: *lend* ([`crate::SharedViews::lend`]) drops
//! the previous borrower's, and everything a [`ViewRows`] borrows is
//! valid until *reclaim* ([`crate::SharedViews::reclaim`]). A consumer
//! takes a row in one of two ways:
//!
//! * It *reads* it ([`RowSource::tuple`], [`ViewRows::get`]: the scalar
//!   evaluator deciding a row the kernels left unknown, a view over this
//!   one). The tuple is built into the row's cell, at most once per
//!   batch, and every later consumer of the batch shares it.
//! * It *keeps* it ([`RowSource::keep`]: a run seeding or advancing on
//!   the row). A [`KeptRow`] owns what it needs and outlives the batch
//!   and its buffers. A row that was a tuple already (tuple-fed rows,
//!   scalar-batch rows, raw rows, a row somebody read) is kept by a
//!   clone. A deferred row is kept as one shared handle per batch row,
//!   one allocation owning the payload's inputs for it (for `kinect_t`:
//!   the input frame and its basis), and its tuple is built on the first
//!   read of any clone, once.
//!
//! A tuple is counted in `gesto_tuples_built_total` when it is built.
//! A batch's rows, cells and payloads belong to the thread stepping the
//! batch; a [`KeptRow`] is `Send + Sync` and may be built on any thread.

use std::any::Any;
use std::cell::OnceCell;
use std::sync::{Arc, OnceLock};

use crate::block::ColumnBlock;
use crate::time::StreamTime;
use crate::tuple::Tuple;

/// A batch's rows as the NFA steps them: timestamps always; a row is
/// kept when a run interns it, and read when the scalar evaluator must
/// decide it.
pub trait RowSource {
    /// Number of rows.
    fn len(&self) -> usize;
    /// True when there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Timestamp of row `row` (`0` for a tuple without one).
    fn ts(&self, row: usize) -> StreamTime;
    /// Tuple of row `row`, read (module docs).
    fn tuple(&self, row: usize) -> &Tuple;
    /// Row `row`, kept (module docs).
    fn keep(&self, row: usize) -> KeptRow {
        KeptRow::from(self.tuple(row).clone())
    }
}

/// A row kept past its batch: a tuple, or a shared handle that builds
/// its tuple once, on first read (module docs).
#[derive(Clone)]
pub struct KeptRow(Kept);

#[derive(Clone)]
enum Kept {
    Tuple(Tuple),
    Deferred(Arc<Lazy<dyn Fn() -> Tuple + Send + Sync>>),
}

/// A deferred row's tuple, once built, and what builds it.
struct Lazy<F: ?Sized> {
    tuple: OnceLock<Tuple>,
    build: F,
}

impl KeptRow {
    /// A row whose tuple `build` makes on the first read.
    pub fn defer(build: impl Fn() -> Tuple + Send + Sync + 'static) -> Self {
        let tuple = OnceLock::new();
        Self(Kept::Deferred(Arc::new(Lazy { tuple, build })))
    }

    /// The row's tuple, built now if nobody read it before.
    pub fn tuple(&self) -> &Tuple {
        match &self.0 {
            Kept::Tuple(t) => t,
            Kept::Deferred(lazy) => lazy.tuple.get_or_init(|| {
                crate::metrics::TUPLES_BUILT_TOTAL.inc();
                (lazy.build)()
            }),
        }
    }
}

/// Prints the tuple if it is built; printing builds nothing.
impl std::fmt::Debug for KeptRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Kept::Tuple(t) => f.debug_tuple("KeptRow").field(t).finish(),
            Kept::Deferred(lazy) => match lazy.tuple.get() {
                Some(t) => f.debug_tuple("KeptRow").field(t).finish(),
                None => f.write_str("KeptRow(<not built>)"),
            },
        }
    }
}

impl From<Tuple> for KeptRow {
    fn from(tuple: Tuple) -> Self {
        Self(Kept::Tuple(tuple))
    }
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
    /// Row `row` as a [`KeptRow::defer`] handle that owns what building
    /// it takes.
    fn keep(&self, row: usize) -> KeptRow;
    /// Writes every deferred row's lanes into `block`, begun for them
    /// (every built lane cell `Null`), bit-identical to
    /// [`ColumnBlock::fill_from_tuples_filtered`] over their tuples.
    fn write_lanes(&mut self, block: &mut ColumnBlock);
    /// Heap bytes held, by capacity.
    fn bytes(&self) -> usize;
}

/// One deferred row: its timestamp, and the row once somebody read or
/// kept it.
type DeferredRow = (StreamTime, OnceCell<KeptRow>);

/// One view's deferred rows of the current batch.
#[derive(Default)]
pub(crate) struct Deferred {
    pub(crate) rows: Vec<DeferredRow>,
    pub(crate) payload: Option<Box<dyn RowPayload>>,
}

impl Deferred {
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

    /// Row `row`'s tuple, read (module docs).
    pub fn get(&self, row: usize) -> &'a Tuple {
        let Some((_, cell)) = self.deferred.get(row) else {
            return &self.tuples[row];
        };
        let row = self.first + row;
        cell.get_or_init(|| {
            crate::metrics::TUPLES_BUILT_TOTAL.inc();
            KeptRow::from(self.payload().tuple(row))
        })
        .tuple()
    }

    fn payload(&self) -> &'a dyn RowPayload {
        self.payload.expect("deferred rows have a payload")
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
    fn keep(&self, row: usize) -> KeptRow {
        let Some((_, cell)) = self.deferred.get(row) else {
            return KeptRow::from(self.tuples[row].clone());
        };
        let row = self.first + row;
        cell.get_or_init(|| self.payload().keep(row)).clone()
    }
}
