//! Registering the `kinect_t` view in a stream catalog.
//!
//! "We defined a `kinect_t` view letting AnduIN calculate all coordinates
//! on-the-fly" (§3.2). The view is a [`KinectTOp`]: a slot-compiled
//! operator holding a stateful [`Transformer`]. Field positions are
//! resolved once (via [`KinectSlots`]), so the per-frame work is pure
//! slice indexing — no name lookups, and no input tuple when the caller
//! still holds the sensor's frames: then the view takes the whole batch
//! in one call ([`Operator::process_batch`]).
//!
//! A row costs what its readers read. On a block batch the operator
//! defers every row ([`Emit::defer`]): it prepares each frame's
//! [`Basis`], in order, and keeps it with the input frame. Once the
//! batch is over, the block is begun at its row count and the operator's
//! payload writes it one lane at a time, applying each basis only to the
//! joints with a built lane ([`RowPayload::write_lanes`]); the row
//! becomes a tuple only if somebody reads it. A row a run
//! keeps is one shared copy of its frame and basis, built on the first
//! read (`gesto_stream`'s `rows` module docs). Without a block it
//! transforms the whole frame and pushes a fresh tuple ([`Emit::push`]).
//! The operator holds no batch-sized buffer: both go into the caller's
//! [`gesto_stream::BatchBuffers`].

use std::sync::Arc;

use gesto_kinect::{schema_named, KinectSlots, SkeletonFrame, KINECT_STREAM};
use gesto_stream::{
    Catalog, ColumnBlock, Emit, KeptRow, Operator, RowBatch, RowPayload, SchemaRef, StreamError,
    Tuple, ViewDef,
};

use crate::transform::{Basis, TransformConfig, Transformer};

/// Name of the transformed view.
pub const KINECT_T: &str = "kinect_t";

/// Schema of the transformed view (kinect layout under the view name).
pub fn kinect_t_schema() -> SchemaRef {
    schema_named(KINECT_T, "")
}

/// The `kinect_t` view operator: reads joints out of the input tuple by
/// slot, applies the user-invariant [`Transformer`], and writes the
/// transformed joints into an output tuple by slot.
pub struct KinectTOp {
    /// Output slot table and schema, shared with every row kept.
    out: Arc<(KinectSlots, SchemaRef)>,
    /// Input slot table, re-resolved only when the input schema instance
    /// changes (same `Arc` ⇒ same layout).
    in_slots: Option<(SchemaRef, KinectSlots)>,
    transformer: Transformer,
    /// Reusable frame scratch (read target + transform output live on the
    /// stack; this avoids re-zeroing the read target every frame).
    scratch: SkeletonFrame,
}

impl KinectTOp {
    /// Creates the operator emitting tuples of `out_schema` (which must
    /// have the kinect layout, e.g. [`kinect_t_schema`]).
    pub fn new(config: TransformConfig, out_schema: SchemaRef) -> Self {
        let out_slots = KinectSlots::resolve(&out_schema, "");
        Self {
            out: Arc::new((out_slots, out_schema)),
            in_slots: None,
            transformer: Transformer::new(config),
            scratch: SkeletonFrame::empty(0, 0),
        }
    }
}

/// The slot table of input schema `schema`, re-resolved only when the
/// schema instance changes (same `Arc` ⇒ same layout).
fn input_slots<'a>(
    cache: &'a mut Option<(SchemaRef, KinectSlots)>,
    schema: &SchemaRef,
) -> &'a KinectSlots {
    if !matches!(&*cache, Some((cached, _)) if Arc::ptr_eq(cached, schema)) {
        *cache = Some((schema.clone(), KinectSlots::resolve(schema, "")));
    }
    &cache.as_ref().expect("resolved").1
}

/// The deferred rows of one block batch: each row's input frame and
/// basis, plus the joints with a built lane (reused, like the rows).
#[derive(Default)]
struct KinectTRows {
    out: Option<Arc<(KinectSlots, SchemaRef)>>,
    rows: Vec<(SkeletonFrame, Basis)>,
    lanes: Vec<(usize, [usize; 3])>,
}

impl RowPayload for KinectTRows {
    fn tuple(&self, row: usize) -> Tuple {
        let (slots, schema) = &**self.out.as_ref().expect("rows were deferred");
        let (frame, basis) = &self.rows[row];
        slots.tuple(&basis.apply_frame(frame), schema)
    }

    fn keep(&self, row: usize) -> KeptRow {
        let out = self.out.clone().expect("rows were deferred");
        let (frame, basis) = self.rows[row].clone();
        KeptRow::defer(move || out.0.tuple(&basis.apply_frame(&frame), &out.1))
    }

    /// One lane at a time, applying each row's basis to the lane's
    /// coordinate of the joint only.
    fn write_lanes(&mut self, block: &mut ColumnBlock) {
        let slots = &self.out.as_ref().expect("rows were deferred").0;
        self.lanes.clear();
        self.lanes.extend(slots.built_joints(block));
        for &(j, cols) in &self.lanes {
            for (axis, col) in cols.into_iter().enumerate() {
                block.write_lane(col, 0..self.rows.len(), |r| {
                    let (frame, basis) = &self.rows[r];
                    frame.joints[j].map(|p| basis.apply_axis(p, axis))
                });
            }
        }
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.capacity() * size_of::<(SkeletonFrame, Basis)>()
            + self.lanes.capacity() * size_of::<(usize, [usize; 3])>()
    }
}

/// Transforms `frame` and, if it has a torso, emits the result.
fn emit_transformed(
    transformer: &mut Transformer,
    out: &Arc<(KinectSlots, SchemaRef)>,
    frame: &SkeletonFrame,
    emit: &mut Emit<'_>,
) {
    let Some(basis) = transformer.prepare(frame) else {
        return;
    };
    let (out_slots, out_schema) = &**out;
    let ts = out_schema.timestamp_slot().map_or(0, |_| frame.ts);
    if let Some((rows, row)) = emit.defer::<KinectTRows>(ts) {
        if row == 0 {
            // A new batch, of this view's layout.
            rows.out = Some(out.clone());
            rows.rows.clear();
        }
        rows.rows.push((frame.clone(), basis));
        return;
    }
    emit.push(out_slots.tuple(&basis.apply_frame(frame), out_schema));
}

impl Operator for KinectTOp {
    fn name(&self) -> &str {
        KINECT_T
    }

    fn output_schema(&self) -> SchemaRef {
        self.out.1.clone()
    }

    fn process(&mut self, tuple: &Tuple, emit: &mut Emit<'_>) {
        input_slots(&mut self.in_slots, tuple.schema()).read_frame(tuple, &mut self.scratch);
        emit_transformed(&mut self.transformer, &self.out, &self.scratch, emit);
    }

    /// Reads a `Vec<SkeletonFrame>` whose tuples would carry the whole
    /// frame ([`KinectSlots::covers_frame`]): building the tuples and
    /// reading them back would hand [`Self::process`] these very frames.
    fn process_batch(&mut self, batch: &RowBatch<'_>, emit: &mut Emit<'_>) -> bool {
        let Some(frames) = batch.rows::<SkeletonFrame>() else {
            return false;
        };
        if !input_slots(&mut self.in_slots, batch.schema).covers_frame() {
            return false;
        }
        for frame in frames {
            emit_transformed(&mut self.transformer, &self.out, frame, emit);
            emit.end_frame();
        }
        true
    }
}

/// Registers the `kinect_t` view over the raw `kinect` stream.
pub fn register_kinect_t(
    catalog: &mut Catalog,
    config: TransformConfig,
) -> Result<(), StreamError> {
    let schema = kinect_t_schema();
    let factory_schema = schema.clone();
    catalog.register_view(ViewDef {
        name: KINECT_T.into(),
        input: KINECT_STREAM.into(),
        schema,
        factory: Arc::new(move || Box::new(KinectTOp::new(config, factory_schema.clone()))),
    })
}

/// Builds a catalog with the `kinect` stream and default `kinect_t` view
/// registered — the standard setup for examples, tests and benches.
pub fn standard_catalog() -> Arc<Catalog> {
    let mut catalog = Catalog::new();
    catalog
        .register_stream(gesto_kinect::kinect_schema())
        .expect("fresh catalog");
    register_kinect_t(&mut catalog, TransformConfig::default()).expect("fresh catalog");
    Arc::new(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesto_cep::Engine;
    use gesto_kinect::{frames_to_tuples, gestures, kinect_schema, Performer, Persona};
    use gesto_stream::{ColumnBlock, RowSource};

    /// Held by every test that builds blocks, so one can count them.
    fn blocks() -> std::sync::MutexGuard<'static, ()> {
        static BLOCKS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        BLOCKS.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lane presence, validity bitmaps and every valid cell's bits.
    fn assert_blocks_identical(a: &ColumnBlock, b: &ColumnBlock, cols: usize) {
        assert_eq!(a.rows(), b.rows());
        for c in 0..cols {
            match (a.lane(c), b.lane(c)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.null(), y.null(), "col {c} null mask");
                    assert_eq!(x.other(), y.other(), "col {c} other mask");
                    for r in 0..a.rows() {
                        if !x.null().get(r) {
                            assert!(
                                x.values()[r].to_bits() == y.values()[r].to_bits(),
                                "col {c} row {r}: {} != {}",
                                x.values()[r],
                                y.values()[r]
                            );
                        }
                    }
                }
                (x, y) => panic!("col {c}: lane presence diverged ({x:?} vs {y:?})"),
            }
        }
    }

    #[test]
    fn catalog_resolves_kinect_t_to_its_base_stream() {
        let cat = standard_catalog();
        let (base, view) = cat.resolve(KINECT_T).unwrap();
        assert_eq!(base, KINECT_STREAM);
        assert_eq!(view.unwrap().name, KINECT_T);
    }

    #[test]
    fn engine_detects_on_transformed_view_across_users() {
        let _blocks = blocks();
        let engine = Engine::new(standard_catalog());
        // A crude swipe detector over transformed coordinates.
        engine
            .deploy_text(
                r#"SELECT "swipe"
                   MATCHING kinect_t(rHand_x < 100 and abs(rHand_y - 150) < 120)
                         -> kinect_t(rHand_x > 700)
                   within 2 seconds select first consume all;"#,
            )
            .unwrap();
        let schema = kinect_schema();
        for (i, persona) in [
            Persona::reference(),
            Persona::reference().with_height(1200.0).at(700.0, 2800.0),
            Persona::reference().rotated(0.8),
        ]
        .into_iter()
        .enumerate()
        {
            let mut perf = Performer::new(persona, 0);
            let tuples = frames_to_tuples(&perf.render(&gestures::swipe_right()), &schema);
            let ds = engine.push_batch(KINECT_STREAM, &tuples).unwrap();
            assert_eq!(ds.len(), 1, "persona #{i} must be detected once");
            engine.reset_runs();
        }
    }

    #[test]
    fn view_drops_frames_without_torso() {
        let cat = standard_catalog();
        let view = cat.view(KINECT_T).unwrap();
        let mut op = (view.factory)();
        let schema = kinect_schema();
        let empty = gesto_kinect::SkeletonFrame::empty(0, 1);
        let t = gesto_kinect::frame_to_tuple(&empty, &schema);
        let out = gesto_stream::run_operator(op.as_mut(), &[t]);
        assert!(out.is_empty());
    }

    #[test]
    fn view_block_written_directly_matches_tuple_rebuild() {
        let _blocks = blocks();
        // On a block batch KinectTOp defers its rows (`Emit::defer`) and
        // writes the lanes from a partial transform — the joints some
        // lane is built for; the result must be bit-identical to
        // rebuilding the lanes from the materialised rows — including
        // dropout Nulls — unfiltered, under a one-joint column filter
        // (the same pattern that pins `KinectSlots::write_block` in
        // gesto-kinect), and under an empty filter (no block: tuples).
        use gesto_kinect::{kinect_schema, Joint, NoiseModel};
        use gesto_stream::SharedViews;

        let schema = kinect_schema();
        let out_schema = kinect_t_schema();
        let mut perf = Performer::new(
            Persona::reference()
                .with_noise(NoiseModel::realistic())
                .with_seed(11),
            0,
        );
        let mut frames = perf.render(&gestures::swipe_right());
        frames[2].joints[Joint::RightHand.index()] = None; // dropout
        let tuples = frames_to_tuples(&frames, &schema);

        let rhand: Vec<usize> = ["rHand_x", "rHand_y", "rHand_z"]
            .iter()
            .map(|n| out_schema.index_of(n).unwrap())
            .collect();
        for cols in [None, Some(rhand.as_slice()), Some(&[][..])] {
            let cat = standard_catalog();
            let mut sv = SharedViews::new(&cat);
            sv.set_needed([KINECT_T]);
            if let Some(cols) = cols {
                sv.clear_block_columns();
                sv.add_view_block_columns(KINECT_T, cols);
            }
            sv.begin_batch(KINECT_STREAM, &tuples);
            let slot = sv.slot_of(KINECT_T).unwrap();
            let direct = sv.view_block(slot).expect("view ran");
            let materialised: Vec<Tuple> = sv.rows(slot).iter().cloned().collect();
            let mut rebuilt = ColumnBlock::new();
            rebuilt.fill_from_tuples_filtered(&materialised, cols);

            assert!(!materialised.is_empty(), "transform emitted nothing");
            if cols.is_some_and(<[usize]>::is_empty) {
                assert!((0..out_schema.len()).all(|c| direct.lane(c).is_none()));
            } else {
                assert_blocks_identical(direct, &rebuilt, out_schema.len());
            }
        }
    }

    #[test]
    fn lent_views_fed_frames_match_the_tuple_fed_operator() {
        let _blocks = blocks();
        // Three sessions take turns in ONE lent set of batch buffers:
        // each `SharedViews` is fed skeleton FRAMES — on scalar batches
        // it builds a tuple per row, on block batches it defers its rows
        // and a row becomes a tuple when read — while `run_operator`
        // over a per-session oracle operator is fed the TUPLES built
        // from those frames and defers nothing. Same frames in, same
        // tuples and blocks out, per session — with different personas,
        // a one-joint block filter for one of them, torso dropouts (no
        // emission, so batches come out shorter than they went in),
        // joint dropouts (no stale joint, least of all another
        // session's, may show), uneven batch lengths, both sinks in
        // turn, and every third output cloned and held to the end: what
        // a reader kept never changes.
        use gesto_kinect::{Joint, NoiseModel};
        use gesto_stream::{BatchBuffers, RowBatch, SharedViews};

        let schema = kinect_schema();
        let out_schema = kinect_t_schema();
        let personas = [
            Persona::reference(),
            Persona::reference().with_height(1200.0).at(700.0, 2800.0),
            Persona::reference().rotated(0.8),
        ];
        let cat = standard_catalog();
        let rhand: Vec<usize> = ["rHand_x", "rHand_y", "rHand_z"]
            .map(|n| out_schema.index_of(n).unwrap())
            .to_vec();
        struct Session {
            views: SharedViews,
            oracle: KinectTOp,
            frames: Vec<SkeletonFrame>,
            chunk: usize,
            fed: usize,
        }
        let mut sessions: Vec<Session> = personas
            .into_iter()
            .enumerate()
            .map(|(s, persona)| {
                let mut perf = Performer::new(
                    persona
                        .with_noise(NoiseModel::realistic())
                        .with_seed(5 + s as u64),
                    0,
                );
                let mut frames = perf.render(&gestures::swipe_right());
                frames.extend(perf.render(&gestures::swipe_right()));
                for (i, f) in frames.iter_mut().enumerate() {
                    if i % 7 == 3 + s {
                        f.drop_joint(Joint::Torso);
                    }
                    if i % 5 == (1 + s) % 5 {
                        f.drop_joint(Joint::RightHand);
                    }
                    if i % 11 == 4 + s {
                        f.drop_joint(Joint::LeftFoot);
                    }
                }
                let mut views = SharedViews::new(&cat);
                views.set_needed([KINECT_T]);
                if s == 1 {
                    views.clear_block_columns();
                    views.add_view_block_columns(KINECT_T, &rhand);
                }
                Session {
                    views,
                    oracle: KinectTOp::new(TransformConfig::default(), out_schema.clone()),
                    frames,
                    chunk: [9, 4, 13][s],
                    fed: 0,
                }
            })
            .collect();
        let slot = sessions[0].views.slot_of(KINECT_T).unwrap();

        let mut bufs = BatchBuffers::default();
        let mut held: Vec<(Tuple, Vec<gesto_stream::Value>)> = Vec::new();
        let (mut emitted, mut dropped, mut turns) = (0usize, 0usize, 0usize);
        while sessions.iter().any(|s| s.fed < s.frames.len()) {
            for s in &mut sessions {
                // Uneven batches: a short batch after a long one, and
                // a long one after a short one.
                turns += 1;
                let len = if turns % 2 == 0 { s.chunk / 3 } else { s.chunk };
                let frames = s.frames[s.fed..(s.fed + len).min(s.frames.len())].to_vec();
                let batch = frames_to_tuples(&frames, &schema);
                s.fed += batch.len();
                let columnar = turns % 3 != 0;
                s.views.set_columnar(columnar);
                s.views.lend(std::mem::take(&mut bufs));
                let rows = RowBatch::of(&frames, &schema);
                assert!(!s.views.tuples_wanted(KINECT_STREAM, &rows));
                s.views.begin_batch_rows(KINECT_STREAM, &rows, &[]);
                assert_eq!(s.views.frames(), frames.len());
                let expect = gesto_stream::run_operator(&mut s.oracle, &batch);
                let got = s.views.rows(slot);
                assert_eq!(got.len(), expect.len());
                dropped += batch.len() - got.len();
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.values(), e.values(), "bit-identical values");
                    if emitted % 3 == 0 {
                        held.push((g.clone(), e.values().to_vec()));
                    }
                    emitted += 1;
                }
                if !expect.is_empty() && columnar {
                    let mut rebuilt = ColumnBlock::new();
                    let filter = (s.chunk == 4).then_some(rhand.as_slice());
                    rebuilt.fill_from_tuples_filtered(&expect, filter);
                    let direct = s.views.view_block(slot).expect("view ran");
                    assert_blocks_identical(direct, &rebuilt, out_schema.len());
                }
                bufs = s.views.reclaim();
                assert_eq!(
                    s.views.buffer_bytes(),
                    0,
                    "a session retains no batch buffer"
                );
            }
        }
        assert!(dropped > 0 && emitted > 90, "trace exercised both cases");
        for (kept, expect) in &held {
            assert_eq!(
                kept.values(),
                &expect[..],
                "a tuple a reader kept keeps its values"
            );
        }
    }

    #[test]
    fn a_whole_batch_defers_what_the_per_tuple_path_defers() {
        // The same frames, with torso-less frames mid-batch, fed as
        // frames (one `process_batch` call) and as tuples (one `process`
        // call each): the same lanes bit for bit, the same frame
        // offsets, and rows that build — read or kept — equal tuples;
        // with no block, the same pushed tuples. Either way a block
        // counts once, and each of its rows once.
        use gesto_kinect::{Joint, NoiseModel};
        use gesto_stream::metrics::{BLOCKS_BUILT_TOTAL, BLOCK_ROWS_BUILT_TOTAL};
        use gesto_stream::SharedViews;

        let _blocks = blocks();
        let (schema, out_schema) = (kinect_schema(), kinect_t_schema());
        let persona = Persona::reference()
            .with_noise(NoiseModel::realistic())
            .with_seed(17);
        let mut frames = Performer::new(persona, 0).render(&gestures::swipe_right());
        for f in [4, 5, 11] {
            frames[f].drop_joint(Joint::Torso);
        }
        frames[7].drop_joint(Joint::RightHand);
        let tuples = frames_to_tuples(&frames, &schema);
        let rhand = ["rHand_x", "rHand_y", "rHand_z"].map(|n| out_schema.index_of(n).unwrap());
        let cat = standard_catalog();
        for (columnar, cols) in [(true, None), (true, Some(&rhand[..])), (false, None)] {
            let [mut batch, mut per_tuple] = [0, 1].map(|_| {
                let mut views = SharedViews::new(&cat);
                views.set_needed([KINECT_T]);
                if let Some(cols) = cols {
                    views.clear_block_columns();
                    views.add_view_block_columns(KINECT_T, cols);
                }
                views.set_columnar(columnar);
                views
            });
            let counts = || (BLOCKS_BUILT_TOTAL.get(), BLOCK_ROWS_BUILT_TOTAL.get());
            let before = counts();
            batch.begin_batch_rows(KINECT_STREAM, &RowBatch::of(&frames, &schema), &[]);
            let by_batch = (counts().0 - before.0, counts().1 - before.1);
            let before = counts();
            per_tuple.begin_batch(KINECT_STREAM, &tuples);
            let by_tuple = (counts().0 - before.0, counts().1 - before.1);
            let slot = batch.slot_of(KINECT_T).unwrap();
            let (got, expect) = (batch.rows(slot), per_tuple.rows(slot));
            let emitted = frames.len() - 3;
            assert_eq!((got.len(), expect.len()), (emitted, emitted));
            let built = u64::from(columnar);
            assert_eq!(by_batch, (built, built * emitted as u64));
            assert_eq!(by_tuple, by_batch, "blocks and rows counted once");
            for f in 0..frames.len() {
                let (g, e) = (got.frame(f), expect.frame(f));
                assert_eq!(g.len(), usize::from(![4, 5, 11].contains(&f)), "frame {f}");
                assert_eq!(e.len(), g.len(), "frame {f}");
                if !g.is_empty() {
                    assert_eq!(g.ts(0), e.ts(0));
                    // Kept first (the handle builds), then read.
                    assert_eq!(g.keep(0).tuple().values(), e.keep(0).tuple().values());
                    assert_eq!(g.get(0).values(), e.get(0).values());
                }
            }
            match (batch.view_block(slot), per_tuple.view_block(slot)) {
                (Some(g), Some(e)) => assert_blocks_identical(g, e, out_schema.len()),
                (g, e) => assert!(g.is_none() && e.is_none() && !columnar),
            }
        }
    }

    #[test]
    fn frames_are_read_only_when_a_tuple_would_carry_all_of_them() {
        let _blocks = blocks();
        // Over an ingest schema without the feet, frame → tuple → frame
        // drops joints the transformer would otherwise see (and copy to
        // its output): the operator must decline the frames and be fed
        // the tuples, like it must for rows of a type it does not know.
        use gesto_stream::{Catalog, RowBatch, SharedViews};

        let full = kinect_schema();
        let fields = full.fields().iter().filter(|f| !f.name.contains("Foot"));
        let partial: SchemaRef =
            Arc::new(gesto_stream::Schema::new(KINECT_STREAM, fields.cloned().collect()).unwrap());
        let slots = KinectSlots::resolve(&partial, "");
        assert!(!slots.covers_frame() && KinectSlots::resolve(&full, "").covers_frame());

        let mut cat = Catalog::new();
        cat.register_stream(partial.clone()).unwrap();
        register_kinect_t(&mut cat, TransformConfig::default()).unwrap();
        let mut views = SharedViews::new(&cat);
        views.set_needed([KINECT_T]);

        let frames = Performer::new(Persona::reference(), 0).render(&gestures::swipe_right());
        let rows = |schema| RowBatch::of(&frames, schema);
        assert!(views.tuples_wanted(KINECT_STREAM, &rows(&partial)));
        assert!(!views.tuples_wanted(KINECT_STREAM, &rows(&full)));
        let bytes = vec![0u8; frames.len()];
        assert!(views.tuples_wanted(KINECT_STREAM, &RowBatch::of(&bytes, &full)));

        let tuples: Vec<Tuple> = frames.iter().map(|f| slots.tuple(f, &partial)).collect();
        views.begin_batch_rows(KINECT_STREAM, &rows(&partial), &tuples);
        let mut oracle = KinectTOp::new(TransformConfig::default(), kinect_t_schema());
        let expect = gesto_stream::run_operator(&mut oracle, &tuples);
        let got = views.rows(views.slot_of(KINECT_T).unwrap());
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.values(), e.values());
            assert!(g.get_by_name("lFoot_x").unwrap().is_null());
        }
    }

    #[test]
    fn operator_holds_no_batch_sized_buffer() {
        // Output tuples and block rows live in the caller's
        // `BatchBuffers` (`Emit`). Exhaustive on purpose: a
        // new field has to be justified here as state that must survive
        // between batches.
        let KinectTOp {
            out: _,
            in_slots: _,
            transformer: _,
            scratch: _,
        } = KinectTOp::new(TransformConfig::default(), kinect_t_schema());
    }

    #[test]
    fn slot_compiled_view_matches_frame_roundtrip_path() {
        // The slot-compiled operator must be bit-identical to the seed's
        // tuple→frame→transform→frame→tuple path.
        use gesto_kinect::{frame_to_tuple, tuple_to_frame, NoiseModel};
        let schema = kinect_schema();
        let out_schema = kinect_t_schema();
        let mut op = KinectTOp::new(TransformConfig::default(), out_schema.clone());
        let mut reference = crate::Transformer::new(TransformConfig::default());
        let mut perf = Performer::new(
            Persona::reference()
                .with_noise(NoiseModel::realistic())
                .with_seed(3),
            0,
        );
        for frame in perf.render(&gestures::swipe_right()) {
            let t = frame_to_tuple(&frame, &schema);
            let got = gesto_stream::run_operator(&mut op, std::slice::from_ref(&t));
            let expect = reference
                .transform_frame(&tuple_to_frame(&t, ""))
                .map(|f| frame_to_tuple(&f, &out_schema));
            match expect {
                None => assert!(got.is_empty()),
                Some(e) => {
                    assert_eq!(got.len(), 1);
                    assert_eq!(got[0].values(), e.values(), "bit-identical values");
                }
            }
        }
    }
}
