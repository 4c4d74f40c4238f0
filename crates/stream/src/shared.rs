//! Transform-once shared view evaluation.
//!
//! One view-operator chain per deployed query route would run the
//! `kinect_t` coordinate transformation N times per frame for N queries.
//! [`SharedViews`] is the per-session runtime that avoids it: it
//! instantiates every registered view exactly once, evaluates each
//! *needed* view exactly once per frame in dependency order, and hands
//! the output tuples out by reference so any number of query routes
//! share them.
//!
//! A `SharedViews` is per-session state (view operators may be stateful,
//! e.g. the transformer's smoothed scale estimate); the slot numbering is
//! deterministic for a given catalog, and append-only under
//! [`SharedViews::refresh`], so slot indices cached by consumers stay
//! valid across catalog growth.
//!
//! View state is **stream-scoped**: an operator lives as long as the
//! session, persisting across query deploy/undeploy (a query deployed
//! mid-stream reads the already-warmed view). This deliberately differs
//! from a per-route model, where every deployed route would start its
//! own operator copy cold. A view nobody needs is not fed at all; if a
//! later deploy needs it again, it resumes from its last evaluated
//! frame's state.

use std::collections::HashMap;

use crate::block::ColumnBlock;
use crate::catalog::Catalog;
use crate::operator::BoxedOperator;
use crate::tuple::Tuple;

/// Where a view reads its input tuples from.
enum Input {
    /// A base stream, matched against the pushed stream name.
    Stream(String),
    /// Another view, by slot (always a lower slot: dependency order).
    View(usize),
}

/// One instantiated view and its per-batch output buffer.
struct ViewState {
    name: String,
    input: Input,
    op: BoxedOperator,
    /// Output tuples of the current batch, all frames concatenated in
    /// order (buffer reused across batches).
    out: Vec<Tuple>,
    /// Frame boundaries into `out`: frame `f`'s outputs are
    /// `out[offsets[f] .. offsets[f+1]]`. Empty when the view did not
    /// run this batch.
    offsets: Vec<u32>,
    /// True when the view ran this batch (its input chain was rooted at
    /// the pushed stream), even if it emitted nothing.
    live: bool,
    /// True when some consumer references this view (directly or as the
    /// input of a needed view); others are skipped entirely.
    needed: bool,
    /// Columnar view of `out`, rebuilt per batch when the columnar data
    /// path is enabled (the NFA's batch kernels read float lanes from
    /// here instead of matching on `Value` slices per tuple).
    block: ColumnBlock,
    /// Column filter for `block`: `None` builds every float lane,
    /// `Some(cols)` (sorted, deduplicated; possibly empty) builds only
    /// the lanes some consumer declared it reads.
    block_cols: Option<Vec<usize>>,
}

/// Per-session, evaluate-once runtime over a catalog's views.
pub struct SharedViews {
    /// Views in dependency order: a view's input slot is always lower
    /// than its own.
    states: Vec<ViewState>,
    slots: HashMap<String, usize>,
    /// Columnar view of the base-stream batch itself (for query routes
    /// that read the raw stream directly).
    base: ColumnBlock,
    /// Column filter for the base block (same contract as the per-view
    /// filters).
    base_cols: Option<Vec<usize>>,
    /// When false, no blocks are built and the block accessors return
    /// `None` — consumers then run the scalar path.
    columnar: bool,
}

impl SharedViews {
    /// Instantiates one operator per view registered in `catalog`.
    /// All views start out *not needed*; see [`Self::set_needed`].
    pub fn new(catalog: &Catalog) -> Self {
        let mut sv = Self {
            states: Vec::new(),
            slots: HashMap::new(),
            base: ColumnBlock::new(),
            base_cols: None,
            columnar: true,
        };
        sv.refresh(catalog);
        sv
    }

    /// Instantiates views registered in `catalog` since construction (the
    /// catalog is add-only, so this only ever appends slots — existing
    /// operators keep their state and existing slot indices stay valid).
    pub fn refresh(&mut self, catalog: &Catalog) {
        let mut pending: Vec<_> = catalog
            .view_defs()
            .into_iter()
            .filter(|v| !self.slots.contains_key(&v.name))
            .collect();
        // Deterministic slot numbering: sorted by name, then placed in
        // dependency order (an input must be a stream or an already
        // placed view; Catalog::register_view guarantees convergence).
        pending.sort_by(|a, b| a.name.cmp(&b.name));
        loop {
            let before = pending.len();
            pending.retain(|def| {
                let input = if let Some(&j) = self.slots.get(&def.input) {
                    Input::View(j)
                } else if catalog.is_stream(&def.input) {
                    Input::Stream(def.input.clone())
                } else {
                    return true; // input view not placed yet
                };
                self.slots.insert(def.name.clone(), self.states.len());
                self.states.push(ViewState {
                    name: def.name.clone(),
                    input,
                    op: (def.factory)(),
                    out: Vec::new(),
                    offsets: Vec::new(),
                    live: false,
                    needed: false,
                    block: ColumnBlock::new(),
                    block_cols: None,
                });
                false
            });
            if pending.is_empty() || pending.len() == before {
                break;
            }
        }
        debug_assert!(pending.is_empty(), "catalog views must be acyclic");
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
        self.slots.get(name).copied()
    }

    /// Marks exactly the given views — plus their transitive view inputs
    /// — as needed; every other view is skipped by [`Self::begin_batch`].
    /// Unknown names are ignored here; a plan that reads such a view is
    /// rejected when it is deployed or first pushed.
    pub fn set_needed<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) {
        for s in &mut self.states {
            s.needed = false;
        }
        for n in names {
            if let Some(i) = self.slot_of(n) {
                self.mark_needed(i);
            }
        }
    }

    fn mark_needed(&mut self, i: usize) {
        if self.states[i].needed {
            return;
        }
        self.states[i].needed = true;
        if let Input::View(j) = self.states[i].input {
            self.mark_needed(j);
        }
    }

    /// True when the view in `slot` is currently marked needed.
    pub fn is_needed(&self, slot: usize) -> bool {
        self.states[slot].needed
    }

    /// Evaluates every needed view whose chain is rooted at `stream`
    /// over a whole batch of frames, exactly once per view, in
    /// dependency order. Until the next `begin_batch`, a view's
    /// concatenated batch output is read with [`Self::outputs`] and one
    /// frame's slice of it with [`Self::frame_outputs`].
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
        if self.columnar && self.base_wanted() {
            self.base
                .fill_from_tuples_filtered(tuples, self.base_cols.as_deref());
        }
        self.run_views(stream, tuples);
    }

    /// [`Self::begin_batch`] for callers that already built the
    /// base-stream block by a cheaper route (e.g.
    /// `gesto_kinect::KinectSlots::write_block` straight from skeleton
    /// frames, skipping the per-frame `Vec<Value>` round-trip): fill
    /// [`Self::base_block_mut`] for exactly these `tuples` first, then
    /// call this. Falls back to rebuilding the base from the tuples if
    /// the prepared block's row count does not match.
    pub fn begin_batch_prefilled(&mut self, stream: &str, tuples: &[Tuple]) {
        if self.columnar && self.base_wanted() && self.base.rows() != tuples.len() {
            self.base
                .fill_from_tuples_filtered(tuples, self.base_cols.as_deref());
        }
        self.run_views(stream, tuples);
    }

    /// True when some consumer reads the base-stream block at all —
    /// callers with a cheaper base-block source (the kinect frame path)
    /// can skip building it entirely when nothing reads it.
    pub fn base_wanted(&self) -> bool {
        self.columnar && self.base_cols.as_ref().is_none_or(|c| !c.is_empty())
    }

    /// Evaluates every needed view over the batch (see
    /// [`Self::begin_batch`]) and rebuilds each live view's block.
    fn run_views(&mut self, stream: &str, tuples: &[Tuple]) {
        for i in 0..self.states.len() {
            let (done, rest) = self.states.split_at_mut(i);
            let st = &mut rest[0];
            st.op.recycle(&mut st.out);
            debug_assert!(st.out.is_empty(), "Operator::recycle leaves `spent` empty");
            st.offsets.clear();
            st.live = false;
            if !st.needed {
                continue;
            }
            let build_block = self.columnar && st.block_cols.as_ref().is_none_or(|c| !c.is_empty());
            st.op.begin_block_capture(build_block);
            let out = &mut st.out;
            let offsets = &mut st.offsets;
            let op = &mut st.op;
            match &st.input {
                Input::Stream(s) => {
                    if s.as_str() != stream {
                        continue;
                    }
                    offsets.push(0);
                    for tuple in tuples {
                        op.process(tuple, &mut |t| out.push(t));
                        offsets.push(out.len() as u32);
                    }
                }
                Input::View(j) => {
                    let up = &done[*j];
                    if !up.live {
                        continue;
                    }
                    offsets.push(0);
                    for f in 0..tuples.len() {
                        let (a, b) = (up.offsets[f] as usize, up.offsets[f + 1] as usize);
                        for t in &up.out[a..b] {
                            op.process(t, &mut |t| out.push(t));
                        }
                        offsets.push(out.len() as u32);
                    }
                }
            }
            st.live = true;
            if build_block {
                // Operators that can write their lanes straight from
                // source data (e.g. `KinectTOp` from transformed
                // skeleton frames) skip the tuple round-trip; everyone
                // else gets the generic rebuild.
                if !st
                    .op
                    .fill_block(&st.out, st.block_cols.as_deref(), &mut st.block)
                {
                    st.block
                        .fill_from_tuples_filtered(&st.out, st.block_cols.as_deref());
                }
            } else {
                st.block.clear();
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
        if let Some(&slot) = self.slots.get(name) {
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
        self.columnar.then_some(&self.base)
    }

    /// Mutable base block, for callers that can fill it straight from
    /// sensor frames before [`Self::begin_batch_prefilled`].
    pub fn base_block_mut(&mut self) -> &mut ColumnBlock {
        &mut self.base
    }

    /// Hands a caller-provided filler the base block *and* the declared
    /// base column filter together (the borrow-friendly form of
    /// [`Self::base_block_mut`]): the filler must materialise exactly
    /// the filtered lanes — e.g. `KinectSlots::write_block` — before
    /// [`Self::begin_batch_prefilled`].
    pub fn fill_base_with(&mut self, fill: impl FnOnce(Option<&[usize]>, &mut ColumnBlock)) {
        fill(self.base_cols.as_deref(), &mut self.base);
    }

    /// Columnar view of the current batch outputs of the view in `slot`
    /// (`None` when the columnar path is disabled or the view did not
    /// run this batch).
    pub fn view_block(&self, slot: usize) -> Option<&ColumnBlock> {
        let st = &self.states[slot];
        (self.columnar && st.live).then_some(&st.block)
    }

    /// Output tuples of the view in `slot` for the current batch, all
    /// frames concatenated (empty when the view did not run or emitted
    /// nothing).
    pub fn outputs(&self, slot: usize) -> &[Tuple] {
        &self.states[slot].out
    }

    /// Output tuples of the view in `slot` for frame `frame` of the
    /// current batch (empty when the view did not run).
    pub fn frame_outputs(&self, slot: usize, frame: usize) -> &[Tuple] {
        let st = &self.states[slot];
        if !st.live {
            return &[];
        }
        &st.out[st.offsets[frame] as usize..st.offsets[frame + 1] as usize]
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
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, calls.clone()))
            .unwrap();

        let mut sv = SharedViews::new(&cat);
        let slot = sv.slot_of("v2").unwrap();
        sv.set_needed(["v2"]);
        sv.begin_batch("kinect", std::slice::from_ref(&tup(0, 3.0)));
        assert_eq!(sv.outputs(slot)[0].f64("x"), Some(6.0));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "one eval per frame");

        // Reading twice costs nothing; next frame re-evaluates once.
        assert_eq!(sv.outputs(slot).len(), 1);
        sv.begin_batch("kinect", std::slice::from_ref(&tup(1, 5.0)));
        assert_eq!(sv.outputs(slot)[0].f64("x"), Some(10.0));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn chained_views_evaluate_in_dependency_order() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let c1 = Arc::new(AtomicU64::new(0));
        let c2 = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, c1.clone()))
            .unwrap();
        cat.register_view(counted_view("v4", "v2", 2.0, c2.clone()))
            .unwrap();

        let mut sv = SharedViews::new(&cat);
        // Needing only the outer view pulls in its input transitively.
        sv.set_needed(["v4"]);
        assert!(sv.is_needed(sv.slot_of("v2").unwrap()));
        sv.begin_batch("kinect", std::slice::from_ref(&tup(0, 1.0)));
        assert_eq!(sv.outputs(sv.slot_of("v4").unwrap())[0].f64("x"), Some(4.0));
        assert_eq!(c1.load(Ordering::Relaxed), 1);
        assert_eq!(c2.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unneeded_views_are_skipped() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, calls.clone()))
            .unwrap();
        let mut sv = SharedViews::new(&cat);
        sv.begin_batch("kinect", std::slice::from_ref(&tup(0, 1.0)));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "not needed, not run");
        assert!(sv.outputs(sv.slot_of("v2").unwrap()).is_empty());
    }

    #[test]
    fn other_stream_does_not_feed_views() {
        let cat = Catalog::new();
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
        assert!(sv.outputs(sv.slot_of("v2").unwrap()).is_empty());
    }

    #[test]
    fn blocks_built_for_base_and_live_views() {
        let cat = Catalog::new();
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
        assert_eq!(sv.outputs(slot).len(), 1, "scalar outputs unaffected");
    }

    #[test]
    fn prefilled_base_is_kept_and_mismatch_rebuilds() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let mut sv = SharedViews::new(&cat);
        let s = base();
        let tup = |ts: i64, x: f64| {
            Tuple::new(s.clone(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
        };
        let tuples = [tup(0, 7.0)];
        // Simulate a caller writing the base block directly.
        sv.base_block_mut().fill_from_tuples(&tuples);
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
    }

    #[test]
    fn operator_fill_block_overrides_tuple_rebuild() {
        use crate::operator::{Emit, Operator};

        /// Pass-through operator whose `fill_block` writes a sentinel
        /// value into every lane cell — so the test can tell whether
        /// the direct path or the tuple rebuild produced the block.
        struct SentinelOp {
            schema: SchemaRef,
            capturing: bool,
        }
        impl Operator for SentinelOp {
            fn name(&self) -> &str {
                "sentinel"
            }
            fn output_schema(&self) -> SchemaRef {
                self.schema.clone()
            }
            fn process(&mut self, tuple: &Tuple, emit: &mut Emit<'_>) {
                emit(tuple.clone());
            }
            fn begin_block_capture(&mut self, on: bool) {
                self.capturing = on;
            }
            fn fill_block(
                &mut self,
                out: &[Tuple],
                cols: Option<&[usize]>,
                block: &mut ColumnBlock,
            ) -> bool {
                if !self.capturing {
                    return false;
                }
                block.begin_filtered(&self.schema, out.len(), cols);
                for r in 0..out.len() {
                    block.write_float(1, r, 99.0);
                }
                true
            }
        }

        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let schema = base();
        let op_schema = SchemaBuilder::new("v")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap();
        cat.register_view(ViewDef {
            name: "v".into(),
            input: "kinect".into(),
            schema: op_schema.clone(),
            factory: Arc::new(move || {
                Box::new(SentinelOp {
                    schema: op_schema.clone(),
                    capturing: false,
                })
            }),
        })
        .unwrap();

        let mut sv = SharedViews::new(&cat);
        let slot = sv.slot_of("v").unwrap();
        sv.set_needed(["v"]);
        let t = Tuple::new(schema, vec![Value::Timestamp(0), Value::Float(3.0)]).unwrap();
        sv.begin_batch("kinect", std::slice::from_ref(&t));
        // The sentinel — not the tuple's 3.0 — proves fill_block won.
        assert_eq!(
            sv.view_block(slot).unwrap().lane(1).unwrap().values(),
            &[99.0]
        );
        // Scalar outputs are untouched by the block path.
        assert_eq!(sv.outputs(slot)[0].f64("x"), Some(3.0));

        // Columnar off: no capture hint, no blocks.
        sv.set_columnar(false);
        sv.begin_batch("kinect", std::slice::from_ref(&t));
        assert!(sv.view_block(slot).is_none());
    }

    #[test]
    fn refresh_appends_and_keeps_slots_stable() {
        let cat = Catalog::new();
        cat.register_stream(base()).unwrap();
        let c = Arc::new(AtomicU64::new(0));
        cat.register_view(counted_view("v2", "kinect", 2.0, c.clone()))
            .unwrap();
        let mut sv = SharedViews::new(&cat);
        let v2 = sv.slot_of("v2").unwrap();

        cat.register_view(counted_view("v4", "v2", 2.0, c.clone()))
            .unwrap();
        sv.refresh(&cat);
        assert_eq!(sv.slot_of("v2"), Some(v2), "existing slot unchanged");
        assert_eq!(sv.len(), 2);
        sv.set_needed(["v4"]);
        sv.begin_batch("kinect", std::slice::from_ref(&tup(0, 1.0)));
        assert_eq!(sv.outputs(sv.slot_of("v4").unwrap())[0].f64("x"), Some(4.0));
    }
}
