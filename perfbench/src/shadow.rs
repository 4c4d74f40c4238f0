//! The per-layer layers, measured from outside the program.
//!
//! A traced run feeds the *same generated inputs* the server got through
//! a shadow pipeline assembled from the gesto crates' public calls, in
//! the order `gesto_serve`'s shard worker makes them, with one span
//! around each call. Spans stay in memory and are written out when the
//! run ends. The shadow's detections must equal the reference, so the
//! layers is known to describe the computation the server performs.
//!
//! Calls the shard makes *inside* those public calls (`kinect_t` inside
//! the shared views, the block fill after it, the predicate pre-pass
//! inside NFA stepping) cannot be wrapped from here. They are timed as
//! **replicas**: the same public function, run separately on the same
//! data, and subtracted from the enclosing span to give its self time.
//! Replica spans are flagged in the span file and are not children of
//! anything.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use gesto_cep::expr::{compile as compile_expr, BlockMasks, CompiledExpr, EvalScratch};
use gesto_cep::{
    metrics as cep_metrics, sync_block_columns, Detection, FunctionRegistry, Pattern, PlanInstance,
    Query, QueryPlan,
};
use gesto_kinect::{kinect_schema, KinectSlots, SkeletonFrame, KINECT_STREAM};
use gesto_serve::net::wire;
use gesto_stream::{Catalog, ColumnBlock, SchemaRef, SharedViews, Tuple};
use gesto_transform::{
    kinect_t_schema, register_rpy, standard_catalog, TransformConfig, Transformer, KINECT_T,
};

use crate::gen::Trace;
use crate::oracle::Key;
use crate::workloads::{server_config, stream_frame, Spec, MEASURE_START, WARMUP_START};

/// Span names, indexed by [`Span::name`].
pub const NAMES: [&str; 10] = [
    "cep.engine.push_batch",
    "net.wire.encode",
    "net.wire.decode",
    "kinect.to_tuples",
    "kinect.write_block",
    "stream.views",
    "cep.nfa.step",
    "transform.kinect_t",
    "kinect.write_block.view",
    "cep.expr.prepass",
];
const PUSH_BATCH: u8 = 0;
const ENCODE: u8 = 1;
const DECODE: u8 = 2;
const TO_TUPLES: u8 = 3;
const WRITE_BLOCK: u8 = 4;
const VIEWS: u8 = 5;
const NFA: u8 = 6;
const R_KINECT_T: u8 = 7;
const R_VIEW_BLOCK: u8 = 8;
const R_PREPASS: u8 = 9;
/// Names at or past this index are replicas.
const FIRST_REPLICA: u8 = R_KINECT_T;

/// Spans written to the file at most (all are kept and summed).
const SPAN_FILE_CAP: usize = 200_000;
/// Batches the replica pass times.
const REPLICA_BATCHES: usize = 4_096;

/// One timed call.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: u8,
    /// Index of the causing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Shared by the spans of one batch.
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-session state of the shadow pipeline: what the shard worker's
/// `SessionRuntime::new` builds.
struct Session {
    views: SharedViews,
    instances: Vec<PlanInstance>,
}

impl Session {
    fn new(catalog: &Catalog, plans: &[Arc<QueryPlan>]) -> Self {
        let mut views = SharedViews::new(catalog);
        let mut needed: Vec<&str> = Vec::new();
        for route in plans.iter().flat_map(|p| p.routes()) {
            for v in &route.views {
                if !needed.contains(&v.as_str()) {
                    needed.push(v);
                }
            }
        }
        views.set_needed(needed);
        sync_block_columns(&mut views, plans);
        Session {
            views,
            instances: plans.iter().map(|p| p.instantiate()).collect(),
        }
    }
}

/// The shadow pipeline: the shard worker's per-batch data path, plus
/// the wire codec in front of it on the wire workloads.
struct Pipeline<'a> {
    spec: &'a Spec,
    schema: SchemaRef,
    slots: KinectSlots,
    columnar_min_batch: usize,
    sessions: Vec<Session>,
    tuples: Vec<Tuple>,
    detections: Vec<Detection>,
    wire_buf: Vec<u8>,
    wire_bytes: u64,
    epoch: Instant,
    spans: Option<Vec<Span>>,
    batches: u32,
}

impl<'a> Pipeline<'a> {
    fn new(spec: &'a Spec, catalog: &Catalog, plans: &[Arc<QueryPlan>]) -> Self {
        let schema = kinect_schema();
        Pipeline {
            spec,
            slots: KinectSlots::resolve(&schema, ""),
            schema,
            columnar_min_batch: server_config().columnar_min_batch,
            sessions: (0..spec.sessions)
                .map(|_| Session::new(catalog, plans))
                .collect(),
            tuples: Vec::new(),
            detections: Vec::new(),
            wire_buf: Vec::new(),
            wire_bytes: 0,
            epoch: Instant::now(),
            spans: None,
            batches: 0,
        }
    }

    /// One batch through the pipeline. Spans are contiguous: each call's
    /// end stamp is the next one's start, so the children of a batch sum
    /// to its parent exactly and a batch costs seven clock reads.
    fn push(&mut self, s: usize, mut frames: Vec<SkeletonFrame>) {
        let traced = self.spans.is_some();
        let mut marks = [0u64; 7];
        let epoch = self.epoch;
        let mut mark = |i: usize| {
            if traced {
                marks[i] = epoch.elapsed().as_nanos() as u64;
            }
        };
        mark(0);
        if self.spec.wire {
            self.wire_buf.clear();
            wire::encode_frame_batch(s as u64, &frames, &mut self.wire_buf);
            self.wire_bytes += self.wire_buf.len() as u64;
            mark(1);
            frames = match wire::decode(&self.wire_buf) {
                Ok(Some((wire::Message::FrameBatch { frames, .. }, _))) => frames,
                other => panic!("encoded batch did not decode: {other:?}"),
            };
        } else {
            mark(1);
        }
        mark(2);
        let session = &mut self.sessions[s];
        let views = &mut session.views;
        self.tuples.clear();
        self.tuples
            .extend(frames.iter().map(|f| self.slots.tuple(f, &self.schema)));
        mark(3);
        views.set_columnar(frames.len() >= self.columnar_min_batch);
        let prefill = views.columnar() && views.base_wanted();
        if prefill {
            let (slots, schema) = (&self.slots, &self.schema);
            views.fill_base_with(|cols, block| slots.write_block(&frames, schema, cols, block));
        }
        mark(4);
        if prefill {
            views.begin_batch_prefilled(KINECT_STREAM, &self.tuples);
        } else {
            views.begin_batch(KINECT_STREAM, &self.tuples);
        }
        mark(5);
        self.detections.clear();
        for inst in &mut session.instances {
            inst.push_batch_shared(KINECT_STREAM, &self.tuples, views, &mut self.detections)
                .expect("shadow step");
        }
        mark(6);
        if let Some(spans) = &mut self.spans {
            let parent = spans.len() as u32;
            let batch = self.batches;
            spans.push(Span {
                name: PUSH_BATCH,
                parent: u32::MAX,
                batch,
                start_ns: marks[2],
                end_ns: marks[6],
            });
            let mut child = |name: u8, parent: u32, a: usize, b: usize| {
                spans.push(Span {
                    name,
                    parent,
                    batch,
                    start_ns: marks[a],
                    end_ns: marks[b],
                })
            };
            if self.spec.wire {
                child(ENCODE, u32::MAX, 0, 1);
                child(DECODE, u32::MAX, 1, 2);
            }
            child(TO_TUPLES, parent, 2, 3);
            child(WRITE_BLOCK, parent, 3, 4);
            child(VIEWS, parent, 4, 5);
            child(NFA, parent, 5, 6);
        }
        self.batches += 1;
    }
}

/// Sums of one traced pass and its replicas, and the counts taken
/// around it.
#[derive(Default)]
pub struct Layers {
    pub frames: u64,
    /// Total ns per span name over the traced pass.
    pub ns: [u64; NAMES.len()],
    /// Frames (rows) the replica spans of each name covered.
    pub replica_rows: [u64; NAMES.len()],
    pub baseline_fps: f64,
    pub traced_fps: f64,
    pub wire_bytes: u64,
    pub runs_seeded: u64,
    pub matches: u64,
    pub runs_shed: u64,
    pub block_rows: u64,
    pub fallback_rows: u64,
    pub distinct_step_predicates: usize,
    pub total_step_predicates: usize,
    pub spans_total: usize,
    pub spans_written: usize,
    pub span_file: String,
    /// Largest relative gap between a parent span and its children.
    pub worst_child_gap: f64,
}

impl Layers {
    /// Mean ns per frame of a pipeline span.
    fn per_frame(&self, name: u8) -> f64 {
        self.ns[name as usize] as f64 / self.frames.max(1) as f64
    }

    /// Mean ns per covered row of a replica span.
    fn replica_rate(&self, name: u8) -> f64 {
        self.ns[name as usize] as f64 / self.replica_rows[name as usize].max(1) as f64
    }

    pub fn encode_ns(&self) -> f64 {
        self.per_frame(ENCODE)
    }
    pub fn decode_ns(&self) -> f64 {
        self.per_frame(DECODE)
    }
    pub fn to_tuples_ns(&self) -> f64 {
        self.per_frame(TO_TUPLES)
    }
    /// Base-stream block fill (a span) plus the view's block fill (a
    /// replica): both are `KinectSlots::write_block`.
    pub fn write_block_ns(&self) -> f64 {
        self.per_frame(WRITE_BLOCK) + self.replica_rate(R_VIEW_BLOCK)
    }
    pub fn kinect_t_ns(&self) -> f64 {
        self.replica_rate(R_KINECT_T)
    }
    /// Self time of `SharedViews::begin_batch`: its span minus the
    /// transform and the block fill it contains.
    pub fn views_self_ns(&self) -> f64 {
        (self.per_frame(VIEWS) - self.kinect_t_ns() - self.replica_rate(R_VIEW_BLOCK)).max(0.0)
    }
    /// Pre-pass time: the replica's cost per predicate row, times the
    /// rows the program's own counter says the kernels evaluated.
    pub fn prepass_ns(&self) -> f64 {
        self.replica_rate(R_PREPASS) * self.block_rows as f64 / self.frames.max(1) as f64
    }
    /// Self time of NFA stepping: its span minus the pre-pass.
    pub fn nfa_self_ns(&self) -> f64 {
        (self.per_frame(NFA) - self.prepass_ns()).max(0.0)
    }
    pub fn push_batch_ns(&self) -> f64 {
        self.per_frame(PUSH_BATCH)
    }
    pub fn fallback_share(&self) -> f64 {
        self.fallback_rows as f64 / self.block_rows.max(1) as f64
    }
    /// Share of the engine's time spent turning frames into view tuples
    /// and blocks (`kinect` + `transform` + `stream`).
    pub fn front_share(&self) -> f64 {
        (self.per_frame(TO_TUPLES) + self.per_frame(WRITE_BLOCK) + self.per_frame(VIEWS))
            / self.push_batch_ns()
    }
    /// Share spent in predicates and NFA stepping (`cep::expr` +
    /// `cep::nfa`).
    pub fn match_share(&self) -> f64 {
        self.per_frame(NFA) / self.push_batch_ns()
    }
}

/// The program's own process-wide NFA and kernel counters. Nothing else
/// steps an NFA while the shadow runs, so a difference of two readings
/// belongs to the pass between them.
#[derive(Clone, Copy)]
struct Counts {
    runs_seeded: u64,
    matches: u64,
    runs_shed: u64,
    block_rows: u64,
    fallback_rows: u64,
}

impl Counts {
    fn read() -> Self {
        Counts {
            runs_seeded: cep_metrics::NFA_RUNS_SEEDED_TOTAL.get(),
            matches: cep_metrics::NFA_MATCHES_TOTAL.get(),
            runs_shed: cep_metrics::NFA_RUNS_SHED_TOTAL.get(),
            block_rows: cep_metrics::KERNEL_BLOCK_ROWS_TOTAL.get(),
            fallback_rows: cep_metrics::KERNEL_SCALAR_FALLBACK_TOTAL.get(),
        }
    }
}

/// Leaf predicates of a pattern, in step order.
fn leaves<'p>(pattern: &'p Pattern, out: &mut Vec<&'p gesto_cep::EventPattern>) {
    match pattern {
        Pattern::Event(e) => out.push(e),
        Pattern::Sequence(seq) => seq.steps.iter().for_each(|p| leaves(p, out)),
    }
}

/// Drives one pass of the shadow pipeline over the workload's inputs in
/// the generator's order; returns what each session detected over the
/// measured positions, the wall time of those, the counters as they
/// stood when measurement began, and the pipeline.
fn pass<'a>(
    spec: &'a Spec,
    traces: &[Trace],
    catalog: &Catalog,
    plans: &[Arc<QueryPlan>],
    ids: &std::collections::HashMap<String, u16>,
    end: usize,
    traced: bool,
) -> (Vec<Vec<Key>>, f64, Counts, Pipeline<'a>) {
    let mut pipe = Pipeline::new(spec, catalog, plans);
    let mut observed = vec![Vec::new(); spec.sessions];
    let batch = spec.batch();
    let mut started = Instant::now();
    let mut before = Counts::read();
    for p in (WARMUP_START..end).step_by(batch) {
        if p == MEASURE_START {
            // Warm-up ran untraced and untimed, like the server's.
            pipe.spans = traced.then(Vec::new);
            pipe.epoch = Instant::now();
            pipe.wire_bytes = 0;
            before = Counts::read();
            started = Instant::now();
        }
        for s in 0..spec.sessions {
            let trace = &traces[s % traces.len()];
            let frames = (p..p + batch).map(|q| stream_frame(trace, q)).collect();
            pipe.push(s, frames);
            if p >= MEASURE_START {
                for d in &pipe.detections {
                    observed[s].push((ids[&d.gesture], d.ts));
                }
            }
        }
    }
    (observed, started.elapsed().as_secs_f64(), before, pipe)
}

/// The replica pass: the calls nested inside the pipeline's public
/// entry points, each timed on its own over the first batches of the
/// workload.
fn replicas(
    spec: &Spec,
    traces: &[Trace],
    queries: &[Query],
    plans: &[Arc<QueryPlan>],
    spans: &mut Vec<Span>,
    layers: &mut Layers,
) {
    let schema_t = kinect_t_schema();
    let slots_t = KinectSlots::resolve(&schema_t, "");
    let funcs = FunctionRegistry::with_builtins();
    register_rpy(&funcs);
    let mut cols: Vec<usize> = plans
        .iter()
        .flat_map(|p| {
            p.routes()
                .iter()
                .map(move |r| p.program().columns_read(&r.source))
        })
        .flatten()
        .collect();
    cols.sort_unstable();
    cols.dedup();
    let mut predicates: Vec<CompiledExpr> = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    for q in queries {
        let mut steps = Vec::new();
        leaves(&q.pattern, &mut steps);
        for step in steps.into_iter().filter(|e| e.source == KINECT_T) {
            predicates.push(
                compile_expr(&step.predicate, &schema_t, &funcs)
                    .expect("learned predicate compiles"),
            );
            texts.push(format!("{:?}", step.predicate));
        }
    }
    layers.total_step_predicates = texts.len();
    texts.sort_unstable();
    texts.dedup();
    layers.distinct_step_predicates = texts.len();

    let batch = spec.batch();
    let columnar = batch >= server_config().columnar_min_batch;
    let mut transformers: Vec<Transformer> = (0..spec.sessions)
        .map(|_| Transformer::new(TransformConfig::default()))
        .collect();
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut block = ColumnBlock::new();
    let mut masks = BlockMasks::default();
    let mut scratch = EvalScratch::new();
    let mut transformed: Vec<SkeletonFrame> = Vec::new();
    let mut done = 0usize;
    'outer: for p in (MEASURE_START..).step_by(batch) {
        for s in 0..spec.sessions {
            if done == REPLICA_BATCHES {
                break 'outer;
            }
            let trace = &traces[s % traces.len()];
            let frames: Vec<SkeletonFrame> =
                (p..p + batch).map(|q| stream_frame(trace, q)).collect();
            let t0 = now();
            transformed.clear();
            transformed.extend(
                frames
                    .iter()
                    .filter_map(|f| transformers[s].transform_frame(f)),
            );
            let t1 = now();
            // Below the columnar threshold the shard builds no block and
            // runs no pre-pass, so neither has a replica.
            if columnar {
                slots_t.write_block(&transformed, &schema_t, Some(&cols), &mut block);
            }
            let t2 = now();
            if columnar {
                for pred in &predicates {
                    pred.eval_block(&block, &mut masks, &mut scratch);
                    std::hint::black_box(&masks);
                }
            }
            let t3 = now();
            let rows = frames.len() as u64;
            let timed = [
                (R_KINECT_T, t0, t1, rows),
                (R_VIEW_BLOCK, t1, t2, rows),
                (R_PREPASS, t2, t3, rows * predicates.len() as u64),
            ];
            for (name, a, b, n) in timed.into_iter().take(if columnar { 3 } else { 1 }) {
                spans.push(Span {
                    name,
                    parent: u32::MAX,
                    batch: done as u32,
                    start_ns: a,
                    end_ns: b,
                });
                layers.ns[name as usize] += b - a;
                layers.replica_rows[name as usize] += n;
            }
            done += 1;
        }
    }
}

/// Compiles `queries` as a server would: standard catalog, built-in and
/// RPY functions.
pub fn compile(queries: &[Query]) -> Vec<Arc<QueryPlan>> {
    let catalog = standard_catalog();
    let funcs = FunctionRegistry::with_builtins();
    register_rpy(&funcs);
    queries
        .iter()
        .map(|q| {
            QueryPlan::compile(q.clone(), catalog.as_ref(), &funcs).expect("learned query compiles")
        })
        .collect()
}

/// Runs the shadow pipeline traced, untraced (the single-threaded
/// baseline) and the replicas; checks the shadow's detections with
/// `check`; writes the span file; returns the layers.
pub fn measure(
    spec: &Spec,
    traces: &[Trace],
    queries: &[Query],
    ids: &std::collections::HashMap<String, u16>,
    end: usize,
    mut check: impl FnMut(&mut [Vec<Key>]) -> bool,
) -> Result<Layers, String> {
    let catalog = standard_catalog();
    let plans = compile(queries);
    let frames = ((end - MEASURE_START) * spec.sessions) as u64;
    let mut layers = Layers {
        frames,
        ..Layers::default()
    };

    // The first pass pays for faulting in the heap the later ones reuse,
    // so it is only checked, not timed.
    let (mut observed, ..) = pass(spec, traces, &catalog, &plans, ids, end, false);
    if !check(&mut observed) {
        return Err("untraced shadow pipeline differs from the reference".into());
    }

    let (mut observed, wall, before, pipe) = pass(spec, traces, &catalog, &plans, ids, end, true);
    let after = Counts::read();
    layers.runs_seeded = after.runs_seeded - before.runs_seeded;
    layers.matches = after.matches - before.matches;
    layers.runs_shed = after.runs_shed - before.runs_shed;
    layers.block_rows = after.block_rows - before.block_rows;
    layers.fallback_rows = after.fallback_rows - before.fallback_rows;
    layers.traced_fps = frames as f64 / wall;
    layers.wire_bytes = pipe.wire_bytes;
    if !check(&mut observed) {
        return Err("traced shadow pipeline differs from the reference".into());
    }
    let (_, wall, ..) = pass(spec, traces, &catalog, &plans, ids, end, false);
    layers.baseline_fps = frames as f64 / wall;

    let mut spans = pipe.spans.expect("traced pass keeps spans");
    let mut child_ns = vec![0u64; spans.len()];
    for span in &spans {
        layers.ns[span.name as usize] += span.end_ns - span.start_ns;
        if span.parent != u32::MAX {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    for (span, children) in spans.iter().zip(&child_ns) {
        if span.name == PUSH_BATCH {
            let own = (span.end_ns - span.start_ns).max(1) as f64;
            layers.worst_child_gap = layers
                .worst_child_gap
                .max((own - *children as f64).abs() / own);
        }
    }
    replicas(spec, traces, queries, &plans, &mut spans, &mut layers);
    layers.spans_total = spans.len();
    write_spans(spec, &spans, &mut layers).map_err(|e| format!("writing the span file: {e}"))?;
    Ok(layers)
}

/// Writes the spans as JSON under `target/benchmark/` of the working
/// directory: at most three quarters of [`SPAN_FILE_CAP`] pipeline spans
/// (a prefix, so every parent index written points into the file) and
/// one quarter replicas. The layers sums all spans either way.
fn write_spans(spec: &Spec, spans: &[Span], layers: &mut Layers) -> std::io::Result<()> {
    let dir = std::path::Path::new("target").join("benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", spec.name));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let names: Vec<String> = NAMES.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(
        w,
        "{{\"workload\": \"{}\", \"unit\": \"ns\", \"names\": [{}], \"first_replica_name\": {FIRST_REPLICA}, \
         \"spans_total\": {}, \"columns\": [\"name\", \"parent\", \"batch\", \"start\", \"end\"], \"spans\": [",
        spec.name,
        names.join(", "),
        spans.len()
    )?;
    // [pipeline, replica] spans still allowed into the file.
    let mut room = [SPAN_FILE_CAP * 3 / 4, SPAN_FILE_CAP / 4];
    let mut written = 0usize;
    for s in spans {
        let kind = usize::from(s.name >= FIRST_REPLICA);
        if room[kind] == 0 {
            continue;
        }
        room[kind] -= 1;
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{}[{}, {parent}, {}, {}, {}]",
            if written == 0 { "" } else { "," },
            s.name,
            s.batch,
            s.start_ns,
            s.end_ns
        )?;
        written += 1;
    }
    writeln!(w, "]}}")?;
    w.flush()?;
    layers.spans_written = written;
    layers.span_file = path.display().to_string();
    Ok(())
}
