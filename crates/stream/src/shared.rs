//! Transform-once shared view evaluation.
//!
//! One view-operator chain per deployed query route would run the
//! `kinect_t` coordinate transformation N times per frame for N queries.
//! [`SharedViews`] is the per-session runtime that avoids it: it
//! instantiates every registered view exactly once, evaluates each
//! *needed* view over the base stream it reads exactly once per frame,
//! and hands the output tuples out by reference so any number of query
//! routes share them.
//!
//! A `SharedViews` is per-session state (view operators may be stateful,
//! e.g. the transformer's smoothed scale estimate). A view's slot is its
//! position in [`Catalog::view_defs`], fixed for the session's life: the
//! catalog does not change once it is shared.
//!
//! View state is **stream-scoped**: an operator lives as long as the
//! session, persisting across query deploy/undeploy (a query deployed
//! mid-stream reads the already-warmed view). This deliberately differs
//! from a per-route model, where every deployed route would start its
//! own operator copy cold. A view nobody needs is not fed at all; if a
//! later deploy needs it again, it resumes from its last evaluated
//! frame's state.
//!
//! # Ownership and threading
//!
//! What must survive between a session's batches — the operators and
//! their state, the needed marks, the column filters — lives in the
//! `SharedViews`. What is dead once the batch's consumers have read it
//! — each view's output tuples, deferred rows and payload, frame
//! offsets and block, and the base block — lives in a [`BatchBuffers`].
//! A caller running many sessions on one thread *lends* one set to
//! whichever session's batch runs next ([`SharedViews::lend`] drops
//! what the previous borrower left; only capacity carries over) and
//! *reclaims* it after ([`SharedViews::reclaim`]), so all of them work
//! in one cache-resident set; a `SharedViews` nobody lends to keeps its
//! own. The batch accessors ([`SharedViews::rows`], `view_block`,
//! `base_block`, `frames`) read the batch from `begin_batch*` until
//! `reclaim`, and show nothing of a previous borrower. A deferred row
//! is built when a consumer reads it and *kept* as a [`crate::KeptRow`]
//! (`rows` module docs): a tuple a consumer read and a row it kept are
//! its own and outlive the buffers; nothing else of a batch does. One
//! thread, one borrower at a time: lend, fill the base block if
//! wanted, `begin_batch*`, let the consumers read, reclaim.

use crate::block::ColumnBlock;
use crate::catalog::Catalog;
use crate::operator::{BoxedOperator, Emit, RowBatch};
use crate::rows::{Deferred, ViewRows};
use crate::tuple::Tuple;

/// One instantiated view: what survives between batches.
struct ViewState {
    name: String,
    /// The base stream the view reads.
    input: String,
    op: BoxedOperator,
    /// True when some consumer references this view; others are skipped
    /// entirely.
    needed: bool,
    /// Column filter for the view's block: `None` builds every float
    /// lane, `Some(cols)` (sorted, deduplicated; possibly empty) builds
    /// only the lanes some consumer declared it reads.
    block_cols: Option<Vec<usize>>,
}

/// One view's share of a [`BatchBuffers`].
#[derive(Default)]
struct ViewBuffers {
    /// Output rows of the current batch, all frames concatenated in
    /// order: tuples, or (on a block batch, from an operator that
    /// defers) deferred rows — never both.
    out: Vec<Tuple>,
    deferred: Deferred,
    /// Frame boundaries into the rows: frame `f`'s outputs are rows
    /// `offsets[f] .. offsets[f+1]`.
    offsets: Vec<u32>,
    /// True when the view ran this batch (it reads the pushed stream),
    /// even if it emitted nothing; the rows, `offsets` and `block` are
    /// this batch's only then.
    live: bool,
    /// Columnar view of the rows, built per batch when the columnar data
    /// path is enabled (the NFA's batch kernels read float lanes from
    /// here instead of matching on `Value` slices per tuple).
    block: ColumnBlock,
}

impl ViewBuffers {
    fn rows(&self) -> ViewRows<'_> {
        ViewRows::of(&self.out, &self.deferred, &self.offsets)
    }
}

/// The batch-scoped half of a [`SharedViews`]: the base-stream block
/// and, per view slot, output rows, frame offsets and block. Lent and
/// reclaimed as the module docs say; it carries only warm capacity from
/// one batch to the next. Starts empty (`default()`); the first
/// batches size it.
#[derive(Default)]
pub struct BatchBuffers {
    /// Columnar view of the base-stream batch itself (for query routes
    /// that read the raw stream directly).
    base: ColumnBlock,
    /// The caller filled `base` for the batch about to begin (set by
    /// [`SharedViews::fill_base_with`], consumed by every
    /// `begin_batch*`).
    base_prefilled: bool,
    /// Frames in the batch begun last ([`SharedViews::frames`]).
    frames: usize,
    /// By view slot; grown to the borrower's slot count on demand.
    views: Vec<ViewBuffers>,
}

impl BatchBuffers {
    /// Heap bytes held by the vectors, blocks and payloads, by capacity.
    /// Tuples are not counted: a built tuple belongs to whoever holds it.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let views: usize = self
            .views
            .iter()
            .map(|v| {
                v.out.capacity() * size_of::<Tuple>()
                    + v.deferred.bytes()
                    + v.offsets.capacity() * size_of::<u32>()
                    + v.block.bytes()
            })
            .sum();
        self.base.bytes() + self.views.capacity() * size_of::<ViewBuffers>() + views
    }
}

/// Per-session, evaluate-once runtime over a catalog's views.
pub struct SharedViews {
    /// By slot: [`Catalog::view_defs`] order.
    states: Vec<ViewState>,
    /// Column filter for the base block (same contract as the per-view
    /// filters).
    base_cols: Option<Vec<usize>>,
    /// When false, no blocks are built and the block accessors return
    /// `None` — consumers then run the scalar path.
    columnar: bool,
    /// This batch's buffers: lent, or its own.
    bufs: BatchBuffers,
}

impl SharedViews {
    /// Instantiates one operator per view registered in `catalog`.
    /// All views start out *not needed*; see [`Self::set_needed`].
    pub fn new(catalog: &Catalog) -> Self {
        let states = catalog
            .view_defs()
            .map(|def| ViewState {
                name: def.name.clone(),
                input: def.input.clone(),
                op: (def.factory)(),
                needed: false,
                block_cols: None,
            })
            .collect();
        Self {
            states,
            base_cols: None,
            columnar: true,
            bufs: BatchBuffers::default(),
        }
    }

    /// Number of instantiated views.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no views are instantiated.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Slot of a view by name.
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.states.iter().position(|s| s.name == name)
    }

    /// Marks exactly the given views as needed; every other view is
    /// skipped by [`Self::begin_batch`].
    /// Unknown names are ignored here; a plan that reads such a view is
    /// rejected when it is deployed or first pushed.
    pub fn set_needed<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) {
        for s in &mut self.states {
            s.needed = false;
        }
        for n in names {
            if let Some(i) = self.slot_of(n) {
                self.states[i].needed = true;
            }
        }
    }

    /// Lends `bufs` to this session for its next batches, in place of
    /// the set it held (module docs).
    pub fn lend(&mut self, mut bufs: BatchBuffers) {
        bufs.base.clear();
        bufs.base_prefilled = false;
        bufs.frames = 0;
        for v in &mut bufs.views {
            v.live = false;
            v.out.clear();
            v.deferred.rows.clear();
        }
        self.bufs = bufs;
    }

    /// Takes the batch buffers back (module docs), leaving the session
    /// holding no batch-sized storage ([`Self::buffer_bytes`] is 0).
    pub fn reclaim(&mut self) -> BatchBuffers {
        std::mem::take(&mut self.bufs)
    }

    /// [`BatchBuffers::bytes`] of the set this session holds right now.
    pub fn buffer_bytes(&self) -> usize {
        self.bufs.bytes()
    }

    /// Evaluates every needed view that reads `stream` over a whole
    /// batch of frames, exactly once per view. A view's concatenated
    /// batch output is read with [`Self::rows`], and one frame's share
    /// with [`ViewRows::frame`] (module docs: until when).
    ///
    /// Each view operator still sees the tuples in frame order, so the
    /// outputs are identical to `tuples.len()` successive one-tuple
    /// batches — but downstream consumers (the NFA hot loop) get one
    /// contiguous slice per batch instead of one call per frame.
    ///
    /// When the columnar path is enabled (the default, see
    /// [`Self::set_columnar`]), this also builds a [`ColumnBlock`] per
    /// batch: one for the base-stream tuples and one per live view's
    /// outputs, read back via [`Self::base_block`] / [`Self::view_block`].
    pub fn begin_batch(&mut self, stream: &str, tuples: &[Tuple]) {
        self.bufs.base_prefilled = false;
        self.begin_batch_prefilled(stream, tuples);
    }

    /// [`Self::begin_batch`] for callers that already built the
    /// base-stream block by a cheaper route (e.g.
    /// `gesto_kinect::KinectSlots::write_block` straight from skeleton
    /// frames, skipping the per-frame `Vec<Value>` round-trip): fill it
    /// through [`Self::fill_base_with`] for exactly these `tuples`
    /// first, then call this. A base block not filled since the
    /// previous `begin_batch*` — or whose row count does not match — is
    /// rebuilt from the tuples.
    pub fn begin_batch_prefilled(&mut self, stream: &str, tuples: &[Tuple]) {
        self.begin(stream, tuples, None);
    }

    /// [`Self::begin_batch_prefilled`] from the producer's own rows: a
    /// view that reads `stream` reads `rows` natively, the whole batch in
    /// one call ([`crate::Operator::process_batch`]), and is fed
    /// `tuples` only when it declines. `tuples` are the tuples built
    /// from `rows` — or empty, when [`Self::tuples_wanted`] said no view
    /// needs them and no consumer reads the base stream (tuples or
    /// block) itself.
    pub fn begin_batch_rows(&mut self, stream: &str, rows: &RowBatch<'_>, tuples: &[Tuple]) {
        debug_assert!(tuples.is_empty() || tuples.len() == rows.len);
        self.begin(stream, tuples, Some(rows));
    }

    /// True when some needed view that reads `stream` declines batches
    /// of `rows`' type and schema (`rows` may be empty), so
    /// [`Self::begin_batch_rows`] must be given the tuples too. Holds
    /// until the needed set changes.
    pub fn tuples_wanted(&mut self, stream: &str, rows: &RowBatch<'_>) -> bool {
        let mut nothing = Vec::new();
        let mut emit = Emit::collect(&mut nothing);
        let probe = RowBatch { len: 0, ..*rows };
        self.states
            .iter_mut()
            .any(|st| st.needed && st.input == stream && !st.op.process_batch(&probe, &mut emit))
    }

    /// Frames in the current batch, whichever way it began (module
    /// docs).
    pub fn frames(&self) -> usize {
        self.bufs.frames
    }

    fn begin(&mut self, stream: &str, tuples: &[Tuple], rows: Option<&RowBatch<'_>>) {
        let frames = rows.map_or(tuples.len(), |r| r.len);
        let prefilled = std::mem::take(&mut self.bufs.base_prefilled);
        if self.base_wanted() && !(prefilled && self.bufs.base.rows() == frames) {
            self.bufs
                .base
                .fill_from_tuples_filtered(tuples, self.base_cols.as_deref());
        }
        self.bufs.frames = frames;
        self.run_views(stream, tuples, rows);
    }

    /// True when some consumer reads the base-stream block at all —
    /// callers with a cheaper base-block source (the kinect frame path)
    /// can skip building it entirely when nothing reads it.
    pub fn base_wanted(&self) -> bool {
        self.columnar && self.base_cols.as_ref().is_none_or(|c| !c.is_empty())
    }

    /// Evaluates every needed view over the batch (see
    /// [`Self::begin_batch`]) and rebuilds each live view's block.
    fn run_views(&mut self, stream: &str, tuples: &[Tuple], rows: Option<&RowBatch<'_>>) {
        let frames = self.bufs.frames;
        if self.bufs.views.len() < self.states.len() {
            self.bufs
                .views
                .resize_with(self.states.len(), ViewBuffers::default);
        }
        for (st, buf) in self.states.iter_mut().zip(&mut self.bufs.views) {
            buf.live = false;
            buf.out.clear();
            buf.deferred.rows.clear();
            if !st.needed || st.input != stream {
                continue;
            }
            buf.block.clear();
            let cols = st.block_cols.as_deref();
            let build_block = self.columnar && cols.is_none_or(|c| !c.is_empty());
            buf.offsets.clear();
            buf.offsets.push(0);
            let deferred = build_block.then_some(&mut buf.deferred);
            let mut emit = Emit::new(&mut buf.out, Some(&mut buf.offsets), deferred);
            // The view reads the whole batch in one call if it can, and
            // is fed the tuples frame by frame if not.
            let native = rows.is_some_and(|r| st.op.process_batch(r, &mut emit));
            for f in (0..frames).filter(|_| !native) {
                let tuple = tuples.get(f).expect("tuples, for a view that wants them");
                st.op.process(tuple, &mut emit);
                emit.end_frame();
            }
            debug_assert_eq!(buf.offsets.len(), frames + 1, "one end per frame");
            buf.live = true;
            if !buf.out.is_empty() {
                crate::metrics::TUPLES_BUILT_TOTAL.add(buf.out.len() as u64);
            }
            // Deferred rows: the block begun at their count, lanes from
            // the payload; tuples: the generic rebuild.
            let deferred = buf.deferred.rows.len();
            match &mut buf.deferred.payload {
                _ if !build_block => {}
                Some(payload) if deferred > 0 => {
                    buf.block
                        .begin_filtered(&st.op.output_schema(), deferred, cols);
                    payload.write_lanes(&mut buf.block);
                }
                _ => buf.block.fill_from_tuples_filtered(&buf.out, cols),
            }
        }
    }

    /// Resets every block-column filter to "build nothing" — the first
    /// step of a deploy-time sync, which then re-declares the columns
    /// each deployed consumer actually reads via
    /// [`Self::add_view_block_columns`] / [`Self::add_base_block_columns`].
    /// (A fresh `SharedViews` has no filters at all: every float lane is
    /// built, the safe default for direct users.)
    pub fn clear_block_columns(&mut self) {
        self.base_cols = Some(Vec::new());
        for st in &mut self.states {
            st.block_cols = Some(Vec::new());
        }
    }

    /// Declares that some consumer reads the given float columns of the
    /// view `name`'s block (union with previous declarations; unknown
    /// names are ignored — a plan reading such a view never deploys).
    pub fn add_view_block_columns(&mut self, name: &str, cols: &[usize]) {
        if let Some(slot) = self.slot_of(name) {
            union_cols(&mut self.states[slot].block_cols, cols);
        }
    }

    /// Declares that some consumer reads the given float columns of the
    /// base-stream block (union with previous declarations).
    pub fn add_base_block_columns(&mut self, cols: &[usize]) {
        union_cols(&mut self.base_cols, cols);
    }

    /// Enables or disables the columnar batch path (enabled by default).
    /// With it off, [`Self::begin_batch`] builds no blocks and the block
    /// accessors return `None`, so consumers take the scalar path — the
    /// shard worker flips this per batch on the measured small-batch
    /// crossover.
    pub fn set_columnar(&mut self, on: bool) {
        self.columnar = on;
    }

    /// Whether the columnar batch path is enabled.
    pub fn columnar(&self) -> bool {
        self.columnar
    }

    /// Columnar view of the current batch's base-stream tuples (`None`
    /// when the columnar path is disabled).
    pub fn base_block(&self) -> Option<&ColumnBlock> {
        self.columnar.then_some(&self.bufs.base)
    }

    /// Hands a caller-provided filler the base block *and* the declared
    /// base column filter together: the filler must materialise exactly
    /// the filtered lanes — e.g. `KinectSlots::write_block` — before
    /// [`Self::begin_batch_prefilled`].
    pub fn fill_base_with(&mut self, fill: impl FnOnce(Option<&[usize]>, &mut ColumnBlock)) {
        self.bufs.base_prefilled = true;
        fill(self.base_cols.as_deref(), &mut self.bufs.base);
    }

    /// This batch's buffers of the view in `slot`, if it ran.
    fn live(&self, slot: usize) -> Option<&ViewBuffers> {
        self.bufs.views.get(slot).filter(|b| b.live)
    }

    /// Columnar view of the current batch outputs of the view in `slot`
    /// (`None` when the columnar path is disabled or the view did not
    /// run this batch).
    pub fn view_block(&self, slot: usize) -> Option<&ColumnBlock> {
        self.live(slot).filter(|_| self.columnar).map(|b| &b.block)
    }

    /// Output rows of the view in `slot` for the current batch (module
    /// docs), all frames concatenated (none when the view did not run or
    /// emitted nothing); [`ViewRows::frame`] narrows them to one frame's.
    pub fn rows(&self, slot: usize) -> ViewRows<'_> {
        self.live(slot).map(ViewBuffers::rows).unwrap_or_default()
    }

    /// Names of the instantiated views, in slot order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.states.iter().map(|s| s.name.as_str())
    }
}

/// Unions `cols` into a sorted, deduplicated column filter. A `None`
/// filter means "all columns" and absorbs any addition.
fn union_cols(filter: &mut Option<Vec<usize>>, cols: &[usize]) {
    if let Some(f) = filter {
        f.extend_from_slice(cols);
        f.sort_unstable();
        f.dedup();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::catalog::ViewDef;
    use crate::ops::MapOp;
    use crate::rows::RowSource;
    use crate::schema::{SchemaBuilder, SchemaRef};
    use crate::value::Value;

    fn base() -> SchemaRef {
        SchemaBuilder::new("kinect")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap()
    }

    /// A view that multiplies `x` and counts its invocations.
    fn counted_view(name: &str, input: &str, factor: f64, counter: Arc<AtomicU64>) -> ViewDef {
        let schema = SchemaBuilder::new(name)
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        let out = schema.clone();
        ViewDef {
            name: name.into(),
            input: input.into(),
            schema: schema.clone(),
            factory: Arc::new(move || {
                let out = out.clone();
                let counter = counter.clone();
                Box::new(MapOp::new("mul", out.clone(), move |t: &Tuple| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    Some(Tuple::new_unchecked(
                        out.clone(),
                        vec![
                            t.get(0).unwrap().clone(),
                            Value::Float(t.f64("x").unwrap() * factor),
                        ],
                    ))
                }))
            }),
        }
    }

    fn tup(ts: i64, x: f64) -> Tuple {
        Tuple::new(base(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
    }

    #[test]
    fn evaluates_each_needed_view_once_per_frame() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, calls.clone()))
            .unwrap();

        let mut sv = SharedViews::new(&cat);
        let slot = sv.slot_of("v2").unwrap();
        sv.set_needed(["v2"]);
        sv.begin_batch("kinect", std::slice::from_ref(&tup(0, 3.0)));
        assert_eq!(sv.rows(slot).get(0).f64("x"), Some(6.0));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "one eval per frame");

        // Reading twice costs nothing; next frame re-evaluates once.
        assert_eq!(sv.rows(slot).len(), 1);
        sv.begin_batch("kinect", std::slice::from_ref(&tup(1, 5.0)));
        assert_eq!(sv.rows(slot).get(0).f64("x"), Some(10.0));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn unneeded_views_are_skipped() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, calls.clone()))
            .unwrap();
        let mut sv = SharedViews::new(&cat);
        sv.begin_batch("kinect", std::slice::from_ref(&tup(0, 1.0)));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "not needed, not run");
        assert!(sv.rows(sv.slot_of("v2").unwrap()).is_empty());
    }

    #[test]
    fn other_stream_does_not_feed_views() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        cat.register_stream(
            SchemaBuilder::new("other")
                .timestamp("ts")
                .float("x")
                .build()
                .unwrap(),
        )
        .unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, calls.clone()))
            .unwrap();
        let mut sv = SharedViews::new(&cat);
        sv.set_needed(["v2"]);
        sv.begin_batch("other", std::slice::from_ref(&tup(0, 1.0)));
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert!(sv.rows(sv.slot_of("v2").unwrap()).is_empty());
    }

    #[test]
    fn blocks_built_for_base_and_live_views() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let c = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, c))
            .unwrap();
        let mut sv = SharedViews::new(&cat);
        let slot = sv.slot_of("v2").unwrap();
        sv.set_needed(["v2"]);
        let s = base();
        let tup = |ts: i64, x: f64| {
            Tuple::new(s.clone(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
        };
        sv.begin_batch("kinect", &[tup(0, 3.0), tup(1, 5.0)]);

        let base_block = sv.base_block().expect("columnar on by default");
        assert_eq!(base_block.rows(), 2);
        assert_eq!(base_block.lane(1).unwrap().values(), &[3.0, 5.0]);
        let vb = sv.view_block(slot).expect("view ran");
        assert_eq!(vb.lane(1).unwrap().values(), &[6.0, 10.0]);

        // Toggle off: scalar path only.
        sv.set_columnar(false);
        sv.begin_batch("kinect", &[tup(2, 1.0)]);
        assert!(sv.base_block().is_none());
        assert!(sv.view_block(slot).is_none());
        assert_eq!(sv.rows(slot).len(), 1, "scalar outputs unaffected");
    }

    #[test]
    fn prefilled_base_is_kept_and_mismatch_rebuilds() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let mut sv = SharedViews::new(&cat);
        let s = base();
        let tup = |ts: i64, x: f64| {
            Tuple::new(s.clone(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
        };
        let tuples = [tup(0, 7.0)];
        // Simulate a caller writing the base block directly.
        sv.fill_base_with(|cols, b| b.fill_from_tuples_filtered(&tuples, cols));
        sv.begin_batch_prefilled("kinect", &tuples);
        assert_eq!(sv.base_block().unwrap().lane(1).unwrap().values(), &[7.0]);

        // A stale prepared block (wrong row count) is rebuilt.
        let more = [tup(1, 1.0), tup(2, 2.0)];
        sv.begin_batch_prefilled("kinect", &more);
        assert_eq!(sv.base_block().unwrap().rows(), 2);
        assert_eq!(
            sv.base_block().unwrap().lane(1).unwrap().values(),
            &[1.0, 2.0]
        );

        // Same row count, not refilled: the block left by the previous
        // batch (with lent buffers: by the previous *session*) is not
        // mistaken for this batch's.
        let other = [tup(3, 8.0), tup(4, 9.0)];
        sv.begin_batch_prefilled("kinect", &other);
        assert_eq!(
            sv.base_block().unwrap().lane(1).unwrap().values(),
            &[8.0, 9.0]
        );
        // A plain `begin_batch` consumes the mark too.
        sv.fill_base_with(|cols, b| b.fill_from_tuples_filtered(&more, cols));
        sv.begin_batch("kinect", &other);
        sv.begin_batch_prefilled("kinect", &other);
        assert_eq!(
            sv.base_block().unwrap().lane(1).unwrap().values(),
            &[8.0, 9.0]
        );
    }

    #[test]
    fn deferred_rows_are_built_once_and_only_kept_rows_outlive_their_batch() {
        use std::cell::Cell;

        use crate::metrics::TUPLES_BUILT_TOTAL;
        use crate::operator::{Emit, Operator};
        use crate::rows::{KeptRow, RowPayload};

        thread_local! {
            /// Tuples built from deferred rows on this thread.
            static BUILT: Cell<u64> = const { Cell::new(0) };
        }
        fn build(schema: &SchemaRef, (ts, x): (i64, f64)) -> Tuple {
            BUILT.with(|b| b.set(b.get() + 1));
            let values = vec![Value::Timestamp(ts), Value::Float(x)];
            Tuple::new_unchecked(schema.clone(), values)
        }
        /// Deferred rows of `2x`.
        #[derive(Default)]
        struct Doubled {
            schema: Option<SchemaRef>,
            rows: Vec<(i64, f64)>,
        }
        impl RowPayload for Doubled {
            fn tuple(&self, row: usize) -> Tuple {
                build(self.schema.as_ref().unwrap(), self.rows[row])
            }
            fn keep(&self, row: usize) -> KeptRow {
                let (schema, row) = (self.schema.clone().unwrap(), self.rows[row]);
                KeptRow::defer(move || build(&schema, row))
            }
            fn write_lanes(&mut self, block: &mut ColumnBlock) {
                block.write_lane(1, 0..self.rows.len(), |r| Some(self.rows[r].1));
            }
            fn bytes(&self) -> usize {
                self.rows.capacity() * 16
            }
        }
        /// Doubles `x`, deferring every row of a block batch.
        struct DeferOp(SchemaRef);
        impl Operator for DeferOp {
            fn name(&self) -> &str {
                "defer"
            }
            fn output_schema(&self) -> SchemaRef {
                self.0.clone()
            }
            fn process(&mut self, t: &Tuple, emit: &mut Emit<'_>) {
                let (ts, x) = (t.timestamp().unwrap(), 2.0 * t.f64("x").unwrap());
                let Some((rows, row)) = emit.defer::<Doubled>(ts) else {
                    let values = vec![Value::Timestamp(ts), Value::Float(x)];
                    return emit.push(Tuple::new_unchecked(self.0.clone(), values));
                };
                if row == 0 {
                    rows.schema = Some(self.0.clone());
                    rows.rows.clear();
                }
                rows.rows.push((ts, x));
            }
        }

        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let schema = base();
        cat.register_view(ViewDef {
            name: "d".into(),
            input: "kinect".into(),
            schema: schema.clone(),
            factory: Arc::new(move || Box::new(DeferOp(schema.clone()))),
        })
        .unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("d4", "kinect", 4.0, calls))
            .unwrap();
        let built = || BUILT.with(Cell::get);
        let batch = |x: f64| -> Vec<Tuple> { (0..4).map(|ts| tup(ts, x + ts as f64)).collect() };

        // Three sessions take turns in one lent set; session 0 reads `d`,
        // sessions 1 and 2 both it and `d4`, a view over the raw tuples.
        let mut sessions = [
            SharedViews::new(&cat),
            SharedViews::new(&cat),
            SharedViews::new(&cat),
        ];
        let (d, d4) = (
            sessions[0].slot_of("d").unwrap(),
            sessions[0].slot_of("d4").unwrap(),
        );
        sessions[0].set_needed(["d"]);
        sessions[1].set_needed(["d", "d4"]);
        sessions[2].set_needed(["d", "d4"]);
        let mut bufs = BatchBuffers::default();
        let mut kept: Vec<(Tuple, Vec<Value>)> = Vec::new();
        let mut unread: Vec<(KeptRow, f64)> = Vec::new();
        for round in 0..3 {
            for (s, sv) in sessions.iter_mut().enumerate() {
                let x = (100 * round + 10 * s) as f64;
                sv.lend(std::mem::take(&mut bufs));
                assert!(
                    sv.rows(d).is_empty() && sv.rows(d4).is_empty(),
                    "nothing of the last borrower"
                );
                assert!(sv.view_block(d).is_none());
                let counted = TUPLES_BUILT_TOTAL.get();
                let before = built();
                sv.begin_batch("kinect", &batch(x));
                let rows = sv.rows(d);
                assert_eq!(rows.len(), 4);
                let lane = sv.view_block(d).unwrap().lane(1).unwrap().values().to_vec();
                assert_eq!(lane, [0.0, 1.0, 2.0, 3.0].map(|i| 2.0 * (x + i)));
                if s == 0 {
                    // Timestamps and lanes cost no tuple; rows 1 and 3,
                    // read by three consumers, cost one each.
                    assert_eq!(RowSource::ts(&rows, 3), 3);
                    assert_eq!(built(), before);
                    for _ in 0..3 {
                        assert_eq!(rows.get(1).f64("x"), Some(2.0 * (x + 1.0)));
                        assert_eq!(rows.frame(3).get(0).f64("x"), Some(2.0 * (x + 3.0)));
                    }
                    assert!(std::ptr::eq(
                        rows.get(1).values(),
                        sv.rows(d).get(1).values()
                    ));
                    assert_eq!(built(), before + 2);
                    // Keeping row 2 twice builds nothing: both keeps
                    // share one handle, and reading it through either
                    // or through the batch builds it once.
                    let (k2, again) = (rows.keep(2), rows.keep(2));
                    assert_eq!(built(), before + 2);
                    assert!(std::ptr::eq(k2.tuple().values(), rows.get(2).values()));
                    assert!(std::ptr::eq(again.tuple().values(), k2.tuple().values()));
                    assert_eq!(built(), before + 3);
                    // A row read already is kept as its tuple.
                    assert!(std::ptr::eq(
                        rows.keep(1).tuple().values(),
                        rows.get(1).values()
                    ));
                    unread.push((rows.keep(0), 2.0 * x));
                    assert_eq!(built(), before + 3);
                    kept.push((rows.get(1).clone(), rows.get(1).values().to_vec()));
                } else {
                    // `d4` reads the tuples; reading every row of `d`
                    // builds each once.
                    let fours: Vec<f64> = sv.rows(d4).iter().map(|t| t.f64("x").unwrap()).collect();
                    assert_eq!(fours, [0.0, 1.0, 2.0, 3.0].map(|i| 4.0 * (x + i)));
                    assert_eq!(sv.rows(d).iter().count(), 4);
                    assert_eq!(built(), before + 4);
                }
                assert!(
                    TUPLES_BUILT_TOTAL.get() - counted >= built() - before,
                    "counted when built, before the batch is spent"
                );
                bufs = sv.reclaim();
                assert!(bufs.bytes() > 0);
            }
        }
        for (tuple, values) in &kept {
            assert_eq!(
                tuple.values(),
                &values[..],
                "a kept row outlives its batch unchanged"
            );
        }
        // Kept unread, row 0 of each round outlived its batch and the
        // other borrowers of the buffers: it is built on its first read,
        // once, from what the handle owns.
        let before = built();
        for (row, x) in &unread {
            assert_eq!(row.tuple().f64("x"), Some(*x));
            assert_eq!(row.clone().tuple().f64("x"), Some(*x));
        }
        assert_eq!(built(), before + unread.len() as u64);

        // A scalar batch takes tuples at emission: nothing deferred.
        let sv = &mut sessions[0];
        sv.set_columnar(false);
        let before = built();
        sv.begin_batch("kinect", &batch(7.0));
        assert_eq!(sv.rows(d).get(2).f64("x"), Some(18.0));
        assert_eq!(built(), before);
    }

    #[test]
    fn lent_buffers_serve_two_sessions_and_stay_with_neither() {
        let mut cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, calls.clone()))
            .unwrap();
        cat.register_view(counted_view("v4", "kinect", 4.0, calls))
            .unwrap();
        let mut sessions = [SharedViews::new(&cat), SharedViews::new(&cat)];
        let (v2, v4) = (
            sessions[0].slot_of("v2").unwrap(),
            sessions[0].slot_of("v4").unwrap(),
        );
        sessions[0].set_needed(["v2", "v4"]);
        sessions[1].set_needed(["v2"]);

        let mut bufs = BatchBuffers::default();
        for round in 0..3 {
            for (s, sv) in sessions.iter_mut().enumerate() {
                sv.lend(std::mem::take(&mut bufs));
                // Nothing of the previous borrower shows before the
                // batch begins.
                assert!(sv.rows(v2).is_empty() && sv.rows(v4).is_empty());
                assert!(sv.view_block(v2).is_none());
                assert_eq!(sv.base_block().unwrap().rows(), 0);
                let x = (10 * round + s) as f64;
                let batch: Vec<Tuple> = (0..=s as i64 + 1).map(|ts| tup(ts, x)).collect();
                sv.begin_batch("kinect", &batch);
                assert_eq!(sv.rows(v2).len(), batch.len());
                assert_eq!(sv.rows(v2).get(0).f64("x"), Some(2.0 * x));
                assert_eq!(sv.base_block().unwrap().rows(), batch.len());
                if s == 0 {
                    assert_eq!(sv.rows(v4).frame(1).get(0).f64("x"), Some(4.0 * x));
                } else {
                    // Session 1 does not need v4: session 0's outputs
                    // in that slot are not its own.
                    assert!(sv.rows(v4).is_empty() && sv.view_block(v4).is_none());
                }
                bufs = sv.reclaim();
                assert_eq!(sv.buffer_bytes(), 0, "a session retains no batch buffer");
                assert!(sv.rows(v2).is_empty() && sv.base_block().unwrap().is_empty());
                assert!(bufs.bytes() > 0);
            }
        }
    }

    #[test]
    fn native_rows_feed_who_reads_them_and_tuples_everyone_else() {
        use crate::operator::{Emit, Operator};

        /// Emits `scale * (x + 100)` from a `Vec<f64>` row batch,
        /// `scale * (x + 1)` from a tuple — so the test can tell which
        /// entry ran — and counts its emissions.
        struct AddOp(SchemaRef, f64, Arc<AtomicU64>);
        impl AddOp {
            fn emit(&self, x: f64, emit: &mut Emit<'_>) {
                self.2.fetch_add(1, Ordering::Relaxed);
                let values = vec![Value::Timestamp(0), Value::Float(self.1 * x)];
                emit.push(Tuple::new_unchecked(self.0.clone(), values));
            }
        }
        impl Operator for AddOp {
            fn name(&self) -> &str {
                "add"
            }
            fn output_schema(&self) -> SchemaRef {
                self.0.clone()
            }
            fn process(&mut self, tuple: &Tuple, emit: &mut Emit<'_>) {
                self.emit(tuple.f64("x").unwrap() + 1.0, emit);
            }
            fn process_batch(&mut self, batch: &RowBatch<'_>, emit: &mut Emit<'_>) -> bool {
                let Some(xs) = batch.rows::<f64>() else {
                    return false;
                };
                for x in xs {
                    self.emit(x + 100.0, emit);
                    emit.end_frame();
                }
                true
            }
        }

        let mut cat = Catalog::new();
        let schema = base();
        cat.register_stream(schema.clone()).unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        for (name, scale, calls) in [
            ("add", 1.0, Arc::new(AtomicU64::new(0))),
            ("add2", 2.0, calls.clone()),
        ] {
            let op_schema = schema.clone();
            cat.register_view(ViewDef {
                name: name.into(),
                input: "kinect".into(),
                schema: schema.clone(),
                factory: Arc::new(move || Box::new(AddOp(op_schema.clone(), scale, calls.clone()))),
            })
            .unwrap();
        }
        cat.register_view(counted_view("v2", "kinect", 2.0, calls.clone()))
            .unwrap();
        let mut sv = SharedViews::new(&cat);
        let slot = |n: &str| sv.slot_of(n).unwrap();
        let (add, v2, add2) = (slot("add"), slot("v2"), slot("add2"));

        let xs = vec![1.0, 2.0, 3.0];
        let rows = RowBatch::of(&xs, &schema);
        let tuples: Vec<Tuple> = xs.iter().map(|x| tup(0, *x)).collect();
        let xs_of = |sv: &SharedViews, slot| -> Vec<f64> {
            sv.rows(slot).iter().map(|t| t.f64("x").unwrap()).collect()
        };

        // Only views that read the rows are needed: no tuple is wanted,
        // none is given, and each still sees every frame.
        sv.set_needed(["add", "add2"]);
        assert!(!sv.tuples_wanted("kinect", &rows));
        assert!(sv.rows(add).is_empty(), "the probe emitted nothing");
        sv.begin_batch_rows("kinect", &rows, &[]);
        assert_eq!(sv.frames(), 3);
        assert_eq!(xs_of(&sv, add), [101.0, 102.0, 103.0]);
        assert_eq!(xs_of(&sv, add2), [202.0, 204.0, 206.0]);
        assert_eq!(sv.rows(add2).frame(1).get(0).f64("x"), Some(204.0));
        assert_eq!(calls.load(Ordering::Relaxed), 3);

        // A needed view without a native entry: the caller is told, and
        // that view — only that view — is fed the tuples.
        sv.set_needed(["add", "v2"]);
        assert!(sv.tuples_wanted("kinect", &rows));
        assert!(!sv.tuples_wanted("other", &rows), "rooted elsewhere");
        sv.begin_batch_rows("kinect", &rows, &tuples);
        assert_eq!(xs_of(&sv, add), [101.0, 102.0, 103.0]);
        assert_eq!(xs_of(&sv, v2), [2.0, 4.0, 6.0]);

        // Rows of a type the view does not know: tuples again.
        let bytes = vec![0u8; 3];
        let bytes = RowBatch::of(&bytes, &schema);
        sv.set_needed(["add"]);
        assert!(sv.tuples_wanted("kinect", &bytes));
        sv.begin_batch_rows("kinect", &bytes, &tuples);
        assert_eq!(xs_of(&sv, add), [2.0, 3.0, 4.0]);

        // The tuple entry is unchanged, and counts its own frames.
        sv.begin_batch("kinect", &tuples[..2]);
        assert_eq!(sv.frames(), 2);
        assert_eq!(xs_of(&sv, add), [2.0, 3.0]);
        let taken = sv.reclaim();
        assert_eq!(sv.frames(), 0);
        sv.lend(taken);
        assert_eq!(sv.frames(), 0, "the previous batch's count is spent");
    }
}
