//! NFA-based pattern matching runtime (the core of the `MATCHING` clause).
//!
//! A [`crate::Pattern`] compiles into a linear list of *leaf steps* (the
//! primitive events, in sequence order) plus a set of *time constraints*
//! derived from the `within` clauses of (possibly nested) sequences. The
//! runtime keeps a set of partial matches ("runs"); each input tuple may
//! seed a new run at step 0 and/or advance existing runs by one step
//! (skip-till-next-match semantics: non-matching tuples are ignored, they
//! do not kill runs).
//!
//! Policies follow §2/§3.3.4 of the paper: `select first` reports one
//! match per completion wave, `consume all` flushes all partial state on
//! detection so one physical movement produces one detection.
//!
//! # Hot-loop layout
//!
//! The stepping core is [`NfaRuntime::advance_block_into`], engineered
//! for zero heap allocations on the no-match steady state:
//!
//! * **Event arena** — a tuple that matches any step is interned once
//!   into an append-only arena (`arena` + `arena_ts`), shared by every
//!   run it seeds or advances. Seeding N runs from one tuple no longer
//!   clones it N times; runs refer to events by `u32` arena index. The
//!   arena is cleared whenever the run set empties (every `consume all`
//!   detection does this) and mark-compacted if churn ever makes it
//!   outgrow the live run set.
//! * **Run slab** — run metadata lives in a dense `Vec<Run>`; the arena
//!   indices of run *i*'s matched events live at
//!   `run_events[i*stride ..]` with `stride = step_count`. Removing a
//!   run swap-removes both, so steady-state stepping never allocates.
//! * **Hoisted checks** — source routing is resolved once per batch
//!   (`step_live`), each step predicate is evaluated at most once per
//!   tuple (the per-tuple memo in [`MatchScratch`]), and time-constraint
//!   expiry is a single `ts > min_deadline` comparison per tuple (each
//!   run caches its earliest pending deadline; the full prune scan only
//!   runs when the cheap check fires).
//! * **Vectorized predicate pre-pass** — when the caller supplies a
//!   [`ColumnBlock`] covering the batch
//!   ([`NfaRuntime::advance_block_into`]), each *hot* step predicate
//!   (the seed step, plus every step some run currently waits at) is
//!   evaluated once over the whole block by the branch-free batch
//!   kernels into per-(step, tuple) bitmasks; the stepping loop then
//!   tests bits instead of walking `Value` slices. Rows the kernels
//!   cannot decide exactly (non-float cells, `NaN` comparisons, unfused
//!   shapes) fall back to the lazy scalar memo, so semantics — including
//!   error behaviour — are bit-identical to the scalar path.
//! * **Caller-owned matches** — completed matches are written into a
//!   reusable [`MatchScratch`] instead of a fresh vector per call; the
//!   scratch also owns the memo table and pre-pass masks, cleared
//!   capacity-preservingly per batch rather than reallocated.
//!
//! [`NfaRuntime::advance_block_into`] is the only stepping entry point:
//! a single tuple is a one-tuple batch, the scalar path is `block = None`.

use std::sync::Arc;

use gesto_stream::{ColumnBlock, SchemaRef, StreamTime, Tuple};

use crate::error::CepError;
use crate::expr::{compile, BlockMasks, CompiledExpr, EvalScratch, FunctionRegistry};
use crate::pattern::{ConsumePolicy, Pattern, SelectPolicy};

/// Default cap on simultaneously tracked partial matches.
pub const DEFAULT_MAX_RUNS: usize = 4096;

/// A compiled leaf step.
struct CompiledStep {
    source: String,
    predicate: CompiledExpr,
}

/// `completion(to_leaf) - completion(from_leaf) <= within_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeConstraint {
    /// Leaf index whose completion starts the clock.
    pub from_leaf: usize,
    /// Leaf index that must complete in time.
    pub to_leaf: usize,
    /// Budget in stream milliseconds.
    pub within_ms: StreamTime,
}

/// No pending time constraint: the run can never expire.
const NO_DEADLINE: StreamTime = StreamTime::MAX;

/// A partial match. Event tuples live in the runtime's shared arena; the
/// arena indices of this run's matched events live in the parallel
/// `run_events` slab (fixed stride, same position as the run itself).
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Index of the next leaf to match == number of completed leaves.
    next: u32,
    /// Serial of the tuple that last advanced this run (a tuple may
    /// advance a run by at most one step).
    touched: u64,
    /// Earliest `completion(from) + within` over the constraints still
    /// pending for this run ([`NO_DEADLINE`] when none apply).
    deadline: StreamTime,
    /// Monotone run id (seeding order).
    id: u64,
}

/// A completed run parked between the advance scan and the selection
/// wave. Its events are a `stride`-long block in `completed_events`.
#[derive(Clone, Copy)]
struct CompletedRun {
    id: u64,
    /// Offset of the event block in the per-tuple `completed_events`.
    ev_start: u32,
}

/// A completed match viewed inside a [`MatchScratch`] (events borrowed
/// from the scratch, nothing owned).
#[derive(Debug, Clone, Copy)]
pub struct MatchView<'a> {
    /// Stream time of the final event.
    pub ts: StreamTime,
    /// Stream time of the first event.
    pub started_at: StreamTime,
    /// One tuple per leaf step, in order.
    pub events: &'a [Tuple],
}

/// Flat span of one match inside a [`MatchScratch`].
#[derive(Debug, Clone, Copy)]
struct MatchSpan {
    ts: StreamTime,
    started_at: StreamTime,
    start: u32,
    len: u32,
}

/// Caller-owned storage for completed matches, plus the reusable
/// predicate-evaluation scratch of the batched hot loop.
///
/// [`NfaRuntime::advance_block_into`] appends matches here instead of
/// allocating a fresh vector per call; reusing one scratch across
/// batches makes the steady-state hot loop allocation-free. Matched
/// event tuples are stored in one flat vector, spanned per match.
///
/// The scratch also owns the per-tuple predicate memo and the pre-pass
/// bitmasks of the block path. They are sized per
/// batch with capacity-preserving clears (never reallocated once warm),
/// and one scratch may serve any number of runtimes — the buffers grow
/// to the largest pattern seen and stay there.
#[derive(Debug, Default)]
pub struct MatchScratch {
    events: Vec<Tuple>,
    spans: Vec<MatchSpan>,
    /// Per-tuple predicate memo: 0 unevaluated, 1 false, 2 true
    /// (step-indexed; refilled per tuple).
    memo: Vec<u8>,
    /// Pre-pass masks per step (only the first `step_count` entries are
    /// used by a given runtime; entries only ever grow).
    pre: Vec<BlockMasks>,
    /// Whether `pre[s]` is valid for the current batch.
    pre_hot: Vec<bool>,
    /// Pooled buffers for the batch kernels.
    eval: EvalScratch,
}

impl MatchScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all matches (keeps capacity).
    pub fn clear(&mut self) {
        self.events.clear();
        self.spans.clear();
    }

    /// Number of matches currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no matches are held.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates the held matches in completion order.
    pub fn matches(&self) -> impl Iterator<Item = MatchView<'_>> {
        self.spans.iter().map(|s| MatchView {
            ts: s.ts,
            started_at: s.started_at,
            events: &self.events[s.start as usize..(s.start + s.len) as usize],
        })
    }

    /// Opens a new span; events are then appended via `push_event`.
    fn begin_match(&mut self, ts: StreamTime, started_at: StreamTime) {
        self.spans.push(MatchSpan {
            ts,
            started_at,
            start: self.events.len() as u32,
            len: 0,
        });
    }

    fn push_event(&mut self, t: &Tuple) {
        self.events.push(t.clone());
        self.spans.last_mut().expect("open span").len += 1;
    }
}

/// The immutable, compiled half of a pattern: leaf steps, time
/// constraints and policies.
///
/// Compiling a pattern is the expensive part (schema resolution,
/// expression compilation); a program carries no run state, so one
/// `Arc<NfaProgram>` can back any number of concurrently matching
/// [`NfaRuntime`] instances — one per user session in a multi-tenant
/// runtime.
pub struct NfaProgram {
    steps: Vec<CompiledStep>,
    constraints: Vec<TimeConstraint>,
    select: SelectPolicy,
    consume: ConsumePolicy,
}

impl NfaProgram {
    /// Compiles `pattern` against the schemas provided by `resolver`,
    /// resolving scalar functions in `funcs`.
    pub fn compile(
        pattern: &Pattern,
        resolver: &dyn SchemaResolver,
        funcs: &FunctionRegistry,
    ) -> Result<Self, CepError> {
        let mut steps = Vec::new();
        let mut constraints = Vec::new();
        collect(pattern, resolver, funcs, &mut steps, &mut constraints)?;
        if steps.is_empty() {
            return Err(CepError::Compile("pattern has no event steps".into()));
        }
        let (select, consume) = match pattern {
            Pattern::Sequence(s) => (s.select, s.consume),
            Pattern::Event(_) => (SelectPolicy::default(), ConsumePolicy::default()),
        };
        Ok(Self {
            steps,
            constraints,
            select,
            consume,
        })
    }

    /// Number of leaf steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The compiled time constraints.
    pub fn constraints(&self) -> &[TimeConstraint] {
        &self.constraints
    }

    /// The column indices the block kernels read for steps listening to
    /// `source` (sorted, deduplicated) — exactly the float lanes a
    /// [`ColumnBlock`] must materialise for the predicate pre-pass to
    /// fire; anything else would fall back to the scalar path anyway.
    pub fn columns_read(&self, source: &str) -> Vec<usize> {
        let mut cols = Vec::new();
        for step in self.steps.iter().filter(|s| s.source == source) {
            step.predicate.collect_block_columns(&mut cols);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// Compiled pattern + run state (the historical name of [`NfaRuntime`],
/// kept for the seed API).
pub type Nfa = NfaRuntime;

/// Compiled pattern + run state.
pub struct NfaRuntime {
    program: Arc<NfaProgram>,
    /// Dense run metadata; run *i*'s event indices are the block
    /// `run_events[i*stride .. i*stride + stride]` (first `next` valid).
    runs: Vec<Run>,
    run_events: Vec<u32>,
    /// Shared append-only event storage: every tuple that matched a step
    /// this "generation", interned once, plus its timestamp.
    arena: Vec<Tuple>,
    arena_ts: Vec<StreamTime>,
    /// Earliest deadline over all runs (conservative: may be stale-low
    /// after a run is removed, which only costs an extra prune scan).
    min_deadline: StreamTime,
    next_run_id: u64,
    /// Serial of the tuple currently being processed.
    tuple_serial: u64,
    max_runs: usize,
    /// Total runs discarded due to the `max_runs` cap.
    shed: u64,
    /// Per-batch: does `steps[i].source` match the batch's source?
    step_live: Vec<bool>,
    /// Per-tuple completed-run drain (reused across tuples).
    completed: Vec<CompletedRun>,
    completed_events: Vec<u32>,
    /// Arena mark/remap scratch for compaction.
    remap: Vec<u32>,
    /// When false, tuples stop seeding new runs; existing runs still
    /// advance to completion (the draining half of a versioned plan
    /// rollout).
    seeding: bool,
}

/// Per-leaf schema resolution used at compile time: maps a source name to
/// the schema its predicates are evaluated against.
pub trait SchemaResolver {
    /// Schema of the named stream or view.
    fn schema_of(&self, source: &str) -> Result<SchemaRef, CepError>;
}

impl SchemaResolver for gesto_stream::Catalog {
    fn schema_of(&self, source: &str) -> Result<SchemaRef, CepError> {
        Ok(gesto_stream::Catalog::schema_of(self, source)?)
    }
}

/// Resolver for the common single-stream case: every source name maps to
/// one schema.
pub struct SingleSchema(pub SchemaRef);

impl SchemaResolver for SingleSchema {
    fn schema_of(&self, _source: &str) -> Result<SchemaRef, CepError> {
        Ok(self.0.clone())
    }
}

impl NfaRuntime {
    /// Compiles `pattern` and wraps the program in a fresh runtime; the
    /// one-shot path used when the program is not shared.
    pub fn compile(
        pattern: &Pattern,
        resolver: &dyn SchemaResolver,
        funcs: &FunctionRegistry,
    ) -> Result<Self, CepError> {
        Ok(Self::instantiate(Arc::new(NfaProgram::compile(
            pattern, resolver, funcs,
        )?)))
    }

    /// Creates a fresh runtime (no partial matches) over a shared,
    /// already-compiled program.
    pub fn instantiate(program: Arc<NfaProgram>) -> Self {
        let steps = program.steps.len();
        Self {
            program,
            runs: Vec::new(),
            run_events: Vec::new(),
            arena: Vec::new(),
            arena_ts: Vec::new(),
            min_deadline: NO_DEADLINE,
            next_run_id: 0,
            tuple_serial: 0,
            max_runs: DEFAULT_MAX_RUNS,
            shed: 0,
            step_live: vec![false; steps],
            completed: Vec::new(),
            completed_events: Vec::new(),
            remap: Vec::new(),
            seeding: true,
        }
    }

    /// The shared compiled program.
    pub fn program(&self) -> &Arc<NfaProgram> {
        &self.program
    }

    /// Overrides the partial-match cap.
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs.max(1);
        self
    }

    /// Number of leaf steps.
    pub fn step_count(&self) -> usize {
        self.program.steps.len()
    }

    /// The compiled time constraints (for inspection/tests).
    pub fn constraints(&self) -> &[TimeConstraint] {
        &self.program.constraints
    }

    /// Live partial matches.
    pub fn active_runs(&self) -> usize {
        self.runs.len()
    }

    /// Enables or disables seeding of new runs. With seeding off the
    /// runtime drains: tuples still advance (and complete) existing
    /// partial matches, but never start new ones — once
    /// [`Self::active_runs`] reaches zero the runtime is inert.
    pub fn set_seeding(&mut self, seeding: bool) {
        self.seeding = seeding;
    }

    /// Whether tuples may seed new runs (see [`Self::set_seeding`]).
    pub fn is_seeding(&self) -> bool {
        self.seeding
    }

    /// Runs discarded because of the `max_runs` cap.
    pub fn shed_runs(&self) -> u64 {
        self.shed
    }

    /// Tuples currently interned in the shared event arena (inspection:
    /// the arena must track the live run set, not the stream length).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Approximate heap footprint of the run state, in bytes: the
    /// *capacities* (not lengths) of the run slab, event index blocks,
    /// and shared event arena. Capacity-based because that is what the
    /// allocator actually holds — a runtime that burst to 10k runs and
    /// drained back to 3 still pins the 10k-run slab. Tuple payloads
    /// are estimated by the arena's inline element size; spilled
    /// per-tuple heap (strings, vectors) is not chased, so this is a
    /// lower bound suitable for admission budgeting, not an exact
    /// accounting.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.capacity() * size_of::<Run>()
            + self.run_events.capacity() * size_of::<u32>()
            + self.arena.capacity() * size_of::<Tuple>()
            + self.arena_ts.capacity() * size_of::<StreamTime>()
            + self.completed.capacity() * size_of::<CompletedRun>()
            + self.completed_events.capacity() * size_of::<u32>()
            + self.remap.capacity() * size_of::<u32>()
    }

    /// Drops all partial matches.
    pub fn reset(&mut self) {
        crate::metrics::NFA_RUNS_ACTIVE.add(-(self.runs.len() as i64));
        self.runs.clear();
        self.run_events.clear();
        self.arena.clear();
        self.arena_ts.clear();
        self.min_deadline = NO_DEADLINE;
    }

    /// Feeds a batch of tuples from one `source`, appending completed
    /// matches to `out` in stream order; `block`, when given, must be
    /// the columnar view of exactly `tuples` (same rows, same order —
    /// a row-count mismatch disables it).
    ///
    /// This is the hot loop: source routing is resolved once per batch,
    /// hot step predicates are pre-evaluated over the whole block by the
    /// vectorized batch kernels (per-(step, tuple) bitmasks, bit-tested
    /// in the stepping loop), every other predicate evaluation is
    /// memoised per tuple, and the time-constraint expiry check is one
    /// comparison per tuple in the common case. A batch in which nothing
    /// matches performs **zero** heap allocations (after the runtime's
    /// and scratch's buffers have warmed up).
    ///
    /// Semantics are identical to stepping one-tuple batches — bit-
    /// identical matches, stats and shed counts, with or without the
    /// block (`None` is the scalar path): rows the kernels cannot decide
    /// exactly fall back to the scalar evaluator, which also preserves
    /// the exact error behaviour (a predicate that would error
    /// scalar-side is never short-circuited by the pre-pass).
    pub fn advance_block_into(
        &mut self,
        source: &str,
        tuples: &[Tuple],
        block: Option<&ColumnBlock>,
        out: &mut MatchScratch,
    ) -> Result<(), CepError> {
        // Telemetry rides on deltas of state the stepping loop already
        // maintains, so the loop itself stays untouched: net run-count
        // change feeds the active gauge, and the monotonic id/shed/match
        // counters feed their totals. All relaxed atomics, no allocation.
        let runs_before = self.runs.len();
        let seeded_before = self.next_run_id;
        let shed_before = self.shed;
        let matches_before = out.len();
        let result = self.advance_block_core(source, tuples, block, out);
        crate::metrics::NFA_RUNS_ACTIVE.add(self.runs.len() as i64 - runs_before as i64);
        crate::metrics::NFA_RUNS_SEEDED_TOTAL.add(self.next_run_id - seeded_before);
        crate::metrics::NFA_RUNS_SHED_TOTAL.add(self.shed - shed_before);
        crate::metrics::NFA_MATCHES_TOTAL.add((out.len() - matches_before) as u64);
        result
    }

    fn advance_block_core(
        &mut self,
        source: &str,
        tuples: &[Tuple],
        block: Option<&ColumnBlock>,
        out: &mut MatchScratch,
    ) -> Result<(), CepError> {
        self.maybe_compact();
        let Self {
            program,
            runs,
            run_events,
            arena,
            arena_ts,
            min_deadline,
            next_run_id,
            tuple_serial,
            max_runs,
            shed,
            step_live,
            completed,
            completed_events,
            seeding,
            ..
        } = self;
        let seeding = *seeding;
        let program: &NfaProgram = program;
        let stride = program.steps.len();

        // Hoisted across the batch: which steps listen to this source.
        for (live, step) in step_live.iter_mut().zip(&program.steps) {
            *live = step.source == source;
        }
        let any_live = step_live.iter().any(|&b| b);

        // Size the scratch's memo/mask tables for this pattern
        // (capacity-preserving: no allocation once warm).
        out.memo.clear();
        out.memo.resize(stride, 0);
        if out.pre.len() < stride {
            out.pre.resize_with(stride, BlockMasks::default);
        }
        if out.pre_hot.len() < stride {
            out.pre_hot.resize(stride, false);
        }
        out.pre_hot[..stride].fill(false);

        // Predicate pre-pass: evaluate each *hot* step's predicate once
        // over the whole block. Hot steps are the seed step plus every
        // step some run currently waits at — a step first reached in
        // the middle of this batch falls back to the lazy per-tuple
        // memo below (still at most one evaluation per tuple).
        if let Some(b) = block.filter(|b| b.rows() == tuples.len() && !tuples.is_empty()) {
            if any_live {
                out.pre_hot[0] = step_live[0] && seeding;
                for run in runs.iter() {
                    let s = run.next as usize;
                    out.pre_hot[s] = step_live[s];
                }
                let kernel_t0 = crate::metrics::KERNEL_SAMPLER
                    .sample()
                    .then(std::time::Instant::now);
                let rows = tuples.len() as u64;
                for s in 0..stride {
                    if out.pre_hot[s] {
                        program.steps[s]
                            .predicate
                            .eval_block(b, &mut out.pre[s], &mut out.eval);
                        crate::metrics::KERNEL_BLOCK_EVALS_TOTAL.inc();
                        crate::metrics::KERNEL_BLOCK_ROWS_TOTAL.add(rows);
                        // Rows the kernels left undecided take the
                        // scalar path in `step_hit`.
                        crate::metrics::KERNEL_SCALAR_FALLBACK_TOTAL
                            .add(rows.saturating_sub(out.pre[s].known.count() as u64));
                    }
                }
                if let Some(t0) = kernel_t0 {
                    crate::metrics::KERNEL_STAGE_NS.record(t0.elapsed().as_nanos() as u64);
                }
            }
        }

        for (row, tuple) in tuples.iter().enumerate() {
            let ts = tuple.timestamp().unwrap_or(0);

            // Expiry: one comparison unless some run can actually be
            // dead at `ts` (then a full scan prunes and recomputes).
            if ts > *min_deadline {
                prune_expired(runs, run_events, stride, ts, min_deadline);
            }
            if !any_live {
                continue;
            }

            *tuple_serial += 1;
            let serial = *tuple_serial;
            out.memo.fill(0);
            // Interned lazily, once per tuple, however many runs it
            // seeds or advances.
            let mut arena_idx = u32::MAX;
            completed.clear();
            completed_events.clear();

            // Advance existing runs in place (each run by at most one
            // step per tuple, guarded by `touched`).
            let mut i = 0;
            while i < runs.len() {
                let run = runs[i];
                if run.touched == serial {
                    i += 1;
                    continue;
                }
                let step = run.next as usize;
                if !step_live[step]
                    || !step_hit(
                        &out.pre,
                        &out.pre_hot,
                        &program.steps[step].predicate,
                        tuple,
                        &mut out.memo,
                        step,
                        row,
                    )?
                {
                    i += 1;
                    continue;
                }
                if arena_idx == u32::MAX {
                    arena_idx = intern(arena, arena_ts, tuple, ts);
                }
                let block = i * stride;
                run_events[block + step] = arena_idx;
                let run = &mut runs[i];
                run.next += 1;
                run.touched = serial;
                if violates_constraints(program, arena_ts, &run_events[block..block + stride], run)
                {
                    // Too slow: the run dies. swap_remove moves an
                    // unprocessed (or already-touched) run into slot i,
                    // so don't increment.
                    remove_run(runs, run_events, stride, i);
                    crate::metrics::NFA_RUNS_EXPIRED_TOTAL.inc();
                    continue;
                }
                if run.next as usize == stride {
                    completed.push(CompletedRun {
                        id: run.id,
                        ev_start: completed_events.len() as u32,
                    });
                    completed_events.extend_from_slice(&run_events[block..block + stride]);
                    remove_run(runs, run_events, stride, i);
                    continue;
                }
                let dl = deadline_of(program, arena_ts, &run_events[block..block + stride], run);
                runs[i].deadline = dl;
                *min_deadline = (*min_deadline).min(dl);
                i += 1;
            }

            // Seed a new run: this tuple as leaf 0.
            if seeding
                && step_live[0]
                && step_hit(
                    &out.pre,
                    &out.pre_hot,
                    &program.steps[0].predicate,
                    tuple,
                    &mut out.memo,
                    0,
                    row,
                )?
            {
                if arena_idx == u32::MAX {
                    arena_idx = intern(arena, arena_ts, tuple, ts);
                }
                let id = *next_run_id;
                *next_run_id += 1;
                if stride == 1 {
                    completed.push(CompletedRun {
                        id,
                        ev_start: completed_events.len() as u32,
                    });
                    completed_events.push(arena_idx);
                } else {
                    if runs.len() >= *max_runs {
                        // Shed the oldest run to bound memory.
                        if let Some(pos) = oldest_run_pos(runs) {
                            remove_run(runs, run_events, stride, pos);
                            *shed += 1;
                        }
                    }
                    let run = Run {
                        next: 1,
                        touched: serial,
                        deadline: NO_DEADLINE,
                        id,
                    };
                    let block = run_events.len();
                    run_events.resize(block + stride, 0);
                    run_events[block] = arena_idx;
                    let dl =
                        deadline_of(program, arena_ts, &run_events[block..block + stride], &run);
                    runs.push(Run {
                        deadline: dl,
                        ..run
                    });
                    *min_deadline = (*min_deadline).min(dl);
                }
            }

            if completed.is_empty() {
                continue;
            }

            // Selection policy (per completion wave). `sort_unstable` is
            // in-place: no allocation on the match path either.
            completed.sort_unstable_by_key(|r| r.id);
            let selected: &[CompletedRun] = match program.select {
                SelectPolicy::First => &completed[..1],
                SelectPolicy::Last => &completed[completed.len() - 1..],
                SelectPolicy::All => completed.as_slice(),
            };
            for c in selected {
                let ev = &completed_events[c.ev_start as usize..c.ev_start as usize + stride];
                let started_at = arena_ts[ev[0] as usize];
                let ts = arena_ts[ev[stride - 1] as usize];
                out.begin_match(ts, started_at);
                for &e in ev {
                    out.push_event(&arena[e as usize]);
                }
            }

            // Consumption policy.
            if program.consume == ConsumePolicy::All {
                runs.clear();
                run_events.clear();
                *min_deadline = NO_DEADLINE;
            }
            if runs.is_empty() {
                // No run references the arena any more: recycle it.
                arena.clear();
                arena_ts.clear();
            }
        }
        Ok(())
    }

    /// Reclaims the event arena when churn (long-lived runs next to
    /// expired ones) lets it outgrow the live run set. Rare and
    /// amortised; the common recycle point is the run set emptying.
    fn maybe_compact(&mut self) {
        if self.runs.is_empty() {
            if !self.arena.is_empty() {
                self.arena.clear();
                self.arena_ts.clear();
            }
            return;
        }
        let stride = self.program.steps.len();
        let live: usize = self.runs.iter().map(|r| r.next as usize).sum();
        if self.arena.len() < 1024 || self.arena.len() < live.saturating_mul(4) {
            return;
        }
        crate::metrics::NFA_ARENA_COMPACTIONS_TOTAL.inc();
        // Mark…
        self.remap.clear();
        self.remap.resize(self.arena.len(), u32::MAX);
        for (i, run) in self.runs.iter().enumerate() {
            for k in 0..run.next as usize {
                self.remap[self.run_events[i * stride + k] as usize] = 0;
            }
        }
        // …compact in place (stable, so new index <= old index)…
        let mut w = 0usize;
        for r in 0..self.arena.len() {
            if self.remap[r] != u32::MAX {
                self.arena.swap(w, r);
                self.arena_ts.swap(w, r);
                self.remap[r] = w as u32;
                w += 1;
            }
        }
        self.arena.truncate(w);
        self.arena_ts.truncate(w);
        // …and rewrite the run slab through the remap table.
        for (i, run) in self.runs.iter().enumerate() {
            for k in 0..run.next as usize {
                let e = &mut self.run_events[i * stride + k];
                *e = self.remap[*e as usize];
            }
        }
    }
}

impl Drop for NfaRuntime {
    fn drop(&mut self) {
        // Keep the process-global active-runs gauge honest when a
        // session (and its runtimes) is torn down mid-pattern.
        crate::metrics::NFA_RUNS_ACTIVE.add(-(self.runs.len() as i64));
    }
}

/// Answers "does step `step`'s predicate match tuple `row`?" — from the
/// pre-pass bitmask when the batch kernels decided that (step, row), and
/// from the lazily memoised scalar evaluation otherwise (preserving the
/// exact scalar semantics, including errors, for undecided rows).
#[inline]
fn step_hit(
    pre: &[BlockMasks],
    pre_hot: &[bool],
    predicate: &CompiledExpr,
    tuple: &Tuple,
    memo: &mut [u8],
    step: usize,
    row: usize,
) -> Result<bool, CepError> {
    if pre_hot[step] && pre[step].known.get(row) {
        return Ok(pre[step].truth.get(row));
    }
    eval_memo(predicate, tuple, memo, step)
}

/// Evaluates step `i`'s predicate against `tuple` at most once per tuple
/// (`memo` is reset by the caller when the tuple changes).
#[inline]
fn eval_memo(
    predicate: &CompiledExpr,
    tuple: &Tuple,
    memo: &mut [u8],
    i: usize,
) -> Result<bool, CepError> {
    match memo[i] {
        1 => Ok(false),
        2 => Ok(true),
        _ => {
            let r = predicate.eval_bool(tuple)?;
            memo[i] = if r { 2 } else { 1 };
            Ok(r)
        }
    }
}

/// Interns a matched tuple into the shared arena, returning its index.
#[inline]
fn intern(
    arena: &mut Vec<Tuple>,
    arena_ts: &mut Vec<StreamTime>,
    t: &Tuple,
    ts: StreamTime,
) -> u32 {
    let idx = arena.len() as u32;
    arena.push(t.clone());
    arena_ts.push(ts);
    idx
}

/// Removes run `i`, keeping metadata and event slab dense.
#[inline]
fn remove_run(runs: &mut Vec<Run>, run_events: &mut Vec<u32>, stride: usize, i: usize) {
    runs.swap_remove(i);
    let last = runs.len(); // index of the block that moved into slot i
    run_events.copy_within(last * stride..(last + 1) * stride, i * stride);
    run_events.truncate(last * stride);
}

/// Kills runs whose pending time constraints can no longer be met at
/// stream time `now`, and recomputes the exact earliest deadline.
fn prune_expired(
    runs: &mut Vec<Run>,
    run_events: &mut Vec<u32>,
    stride: usize,
    now: StreamTime,
    min_deadline: &mut StreamTime,
) {
    let mut min = NO_DEADLINE;
    let mut expired = 0u64;
    let mut i = 0;
    while i < runs.len() {
        let dl = runs[i].deadline;
        if now > dl {
            remove_run(runs, run_events, stride, i);
            expired += 1;
            continue;
        }
        min = min.min(dl);
        i += 1;
    }
    if expired > 0 {
        crate::metrics::NFA_RUNS_EXPIRED_TOTAL.add(expired);
    }
    *min_deadline = min;
}

/// Earliest `completion(from) + within` over the constraints whose
/// `to_leaf` this run has not completed yet.
fn deadline_of(
    program: &NfaProgram,
    arena_ts: &[StreamTime],
    events: &[u32],
    run: &Run,
) -> StreamTime {
    let next = run.next as usize;
    let mut dl = NO_DEADLINE;
    for c in &program.constraints {
        if next <= c.to_leaf && c.from_leaf < next {
            dl = dl.min(arena_ts[events[c.from_leaf] as usize] + c.within_ms);
        }
    }
    dl
}

/// Position of the oldest (lowest-id) run.
fn oldest_run_pos(runs: &[Run]) -> Option<usize> {
    runs.iter()
        .enumerate()
        .min_by_key(|(_, r)| r.id)
        .map(|(i, _)| i)
}

/// Checks constraints that end at the run's most recently completed
/// leaf.
fn violates_constraints(
    program: &NfaProgram,
    arena_ts: &[StreamTime],
    events: &[u32],
    run: &Run,
) -> bool {
    let completed = run.next as usize;
    let last = completed - 1;
    for c in &program.constraints {
        if c.to_leaf == last
            && c.from_leaf < completed
            && arena_ts[events[last] as usize] - arena_ts[events[c.from_leaf] as usize]
                > c.within_ms
        {
            return true;
        }
    }
    false
}

/// Recursively collects leaf steps and time constraints.
fn collect(
    pattern: &Pattern,
    resolver: &dyn SchemaResolver,
    funcs: &FunctionRegistry,
    steps: &mut Vec<CompiledStep>,
    constraints: &mut Vec<TimeConstraint>,
) -> Result<(), CepError> {
    match pattern {
        Pattern::Event(e) => {
            let schema = resolver.schema_of(&e.source)?;
            let predicate = compile(&e.predicate, &schema, funcs)?;
            steps.push(CompiledStep {
                source: e.source.clone(),
                predicate,
            });
            Ok(())
        }
        Pattern::Sequence(s) => {
            if s.steps.is_empty() {
                return Err(CepError::Compile("empty sequence".into()));
            }
            let mut first_child_last_leaf = None;
            for (i, child) in s.steps.iter().enumerate() {
                collect(child, resolver, funcs, steps, constraints)?;
                if i == 0 {
                    first_child_last_leaf = Some(steps.len() - 1);
                }
            }
            if let (Some(within), Some(from)) = (s.within_ms, first_child_last_leaf) {
                let to = steps.len() - 1;
                if to > from {
                    constraints.push(TimeConstraint {
                        from_leaf: from,
                        to_leaf: to,
                        within_ms: within,
                    });
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_pattern, parse_query};
    use gesto_stream::{SchemaBuilder, Value};

    fn schema() -> SchemaRef {
        SchemaBuilder::new("k")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap()
    }

    fn tup(ts: i64, x: f64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
    }

    fn nfa(src: &str) -> Nfa {
        let p = parse_pattern(src).unwrap();
        Nfa::compile(
            &p,
            &SingleSchema(schema()),
            &FunctionRegistry::with_builtins(),
        )
        .unwrap()
    }

    /// One completed match, copied out of the scratch.
    struct Hit {
        ts: StreamTime,
        started_at: StreamTime,
        events: usize,
    }

    /// Steps a one-tuple batch on the scalar path (`block = None`) and
    /// returns the matches it completed.
    fn step(n: &mut Nfa, source: &str, tuple: &Tuple) -> Result<Vec<Hit>, CepError> {
        let mut scratch = MatchScratch::new();
        n.advance_block_into(source, std::slice::from_ref(tuple), None, &mut scratch)?;
        Ok(scratch
            .matches()
            .map(|m| Hit {
                ts: m.ts,
                started_at: m.started_at,
                events: m.events.len(),
            })
            .collect())
    }

    #[test]
    fn simple_sequence_matches_in_order() {
        let mut n = nfa("k(x < 1) -> k(x > 9)");
        assert!(step(&mut n, "k", &tup(0, 0.5)).unwrap().is_empty());
        let m = step(&mut n, "k", &tup(100, 10.0)).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].started_at, 0);
        assert_eq!(m[0].ts, 100);
        assert_eq!(m[0].ts - m[0].started_at, 100);
        assert_eq!(m[0].events, 2);
    }

    #[test]
    fn out_of_order_does_not_match() {
        let mut n = nfa("k(x < 1) -> k(x > 9)");
        assert!(step(&mut n, "k", &tup(0, 10.0)).unwrap().is_empty());
        assert!(step(&mut n, "k", &tup(50, 0.5)).unwrap().is_empty());
        // now completes with a later high value
        assert_eq!(step(&mut n, "k", &tup(90, 12.0)).unwrap().len(), 1);
    }

    #[test]
    fn skip_till_next_match_ignores_noise() {
        let mut n = nfa("k(x < 1) -> k(x > 9)");
        step(&mut n, "k", &tup(0, 0.5)).unwrap();
        for i in 1..10 {
            assert!(step(&mut n, "k", &tup(i * 10, 5.0)).unwrap().is_empty());
        }
        assert_eq!(step(&mut n, "k", &tup(200, 10.0)).unwrap().len(), 1);
    }

    #[test]
    fn within_constraint_expires_runs() {
        let mut n = nfa("k(x < 1) -> k(x > 9) within 1 seconds");
        step(&mut n, "k", &tup(0, 0.5)).unwrap();
        // 1500 ms later: run must be dead.
        assert!(step(&mut n, "k", &tup(1500, 10.0)).unwrap().is_empty());
        assert_eq!(n.active_runs(), 0);
        // A fresh attempt inside the budget works.
        step(&mut n, "k", &tup(2000, 0.5)).unwrap();
        assert_eq!(step(&mut n, "k", &tup(2900, 10.0)).unwrap().len(), 1);
    }

    #[test]
    fn within_boundary_inclusive() {
        let mut n = nfa("k(x < 1) -> k(x > 9) within 1 seconds");
        step(&mut n, "k", &tup(0, 0.5)).unwrap();
        assert_eq!(
            step(&mut n, "k", &tup(1000, 10.0)).unwrap().len(),
            1,
            "exactly at deadline"
        );
    }

    #[test]
    fn nested_within_gives_per_segment_budgets() {
        // (A -> B within 1s) -> C within 1s : B-A <= 1s and C-B <= 1s.
        let mut n = nfa("(k(x < 1) -> k(x > 9) within 1 seconds) -> k(x < 1) within 1 seconds");
        assert_eq!(n.constraints().len(), 2);
        step(&mut n, "k", &tup(0, 0.0)).unwrap();
        step(&mut n, "k", &tup(900, 10.0)).unwrap();
        // C arrives 1.9 s after A but only 1.0 s after B: must match.
        let m = step(&mut n, "k", &tup(1900, 0.0)).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].ts - m[0].started_at, 1900);
    }

    #[test]
    fn nested_within_kills_slow_tail() {
        let mut n = nfa("(k(x < 1) -> k(x > 9) within 1 seconds) -> k(x = 5) within 1 seconds");
        step(&mut n, "k", &tup(0, 0.0)).unwrap();
        step(&mut n, "k", &tup(500, 10.0)).unwrap();
        // Tail 1.2 s after B: outer constraint violated.
        assert!(step(&mut n, "k", &tup(1700, 5.0)).unwrap().is_empty());
        assert_eq!(n.active_runs(), 0);
    }

    #[test]
    fn consume_all_clears_partial_state() {
        let mut n = nfa("k(x < 1) -> k(x > 9)");
        step(&mut n, "k", &tup(0, 0.5)).unwrap();
        step(&mut n, "k", &tup(10, 0.6)).unwrap(); // second seed
        assert_eq!(n.active_runs(), 2);
        let m = step(&mut n, "k", &tup(20, 10.0)).unwrap();
        assert_eq!(m.len(), 1, "select first");
        assert_eq!(n.active_runs(), 0, "consume all cleared runs");
    }

    #[test]
    fn consume_none_keeps_other_runs() {
        let mut n = nfa("k(x < 1) -> k(x > 9) select all consume none");
        step(&mut n, "k", &tup(0, 0.5)).unwrap();
        step(&mut n, "k", &tup(10, 0.6)).unwrap();
        let m = step(&mut n, "k", &tup(20, 10.0)).unwrap();
        assert_eq!(m.len(), 2, "select all reports both");
    }

    #[test]
    fn select_last_reports_most_recent_seed() {
        let mut n = nfa("k(x < 1) -> k(x > 9) select last consume all");
        step(&mut n, "k", &tup(0, 0.5)).unwrap();
        step(&mut n, "k", &tup(10, 0.6)).unwrap();
        let m = step(&mut n, "k", &tup(20, 10.0)).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].started_at, 10);
    }

    #[test]
    fn single_event_pattern_fires_immediately() {
        let mut n = nfa("k(x > 9)");
        assert!(step(&mut n, "k", &tup(0, 1.0)).unwrap().is_empty());
        let m = step(&mut n, "k", &tup(10, 10.0)).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].ts, m[0].started_at);
    }

    #[test]
    fn one_tuple_advances_a_run_by_at_most_one_step() {
        // Predicate true for both steps: one tuple must not complete both.
        let mut n = nfa("k(x > 0) -> k(x > 0)");
        assert!(step(&mut n, "k", &tup(0, 1.0)).unwrap().is_empty());
        assert_eq!(step(&mut n, "k", &tup(1, 1.0)).unwrap().len(), 1);
    }

    #[test]
    fn source_mismatch_is_ignored() {
        let mut n = nfa("a(x < 1) -> b(x > 9)");
        assert!(
            step(&mut n, "b", &tup(0, 0.5)).unwrap().is_empty(),
            "b tuple can't seed a-step"
        );
        step(&mut n, "a", &tup(10, 0.5)).unwrap();
        assert!(
            step(&mut n, "a", &tup(20, 10.0)).unwrap().is_empty(),
            "a tuple can't fill b-step"
        );
        assert_eq!(step(&mut n, "b", &tup(30, 10.0)).unwrap().len(), 1);
    }

    #[test]
    fn max_runs_sheds_oldest() {
        let mut n = nfa("k(x < 1) -> k(x > 9)").with_max_runs(2);
        step(&mut n, "k", &tup(0, 0.0)).unwrap();
        step(&mut n, "k", &tup(1, 0.0)).unwrap();
        step(&mut n, "k", &tup(2, 0.0)).unwrap();
        assert_eq!(n.active_runs(), 2);
        assert_eq!(n.shed_runs(), 1);
    }

    #[test]
    fn compile_fig1_pattern() {
        let q = parse_query(crate::fixtures::FIG1_QUERY).unwrap();
        let schema = SchemaBuilder::new("kinect")
            .timestamp("ts")
            .float("rHand_x")
            .float("rHand_y")
            .float("rHand_z")
            .float("torso_x")
            .float("torso_y")
            .float("torso_z")
            .build()
            .unwrap();
        let n = Nfa::compile(
            &q.pattern,
            &SingleSchema(schema),
            &FunctionRegistry::with_builtins(),
        )
        .unwrap();
        assert_eq!(n.step_count(), 3);
        assert_eq!(
            n.constraints(),
            &[
                TimeConstraint {
                    from_leaf: 0,
                    to_leaf: 1,
                    within_ms: 1000
                },
                TimeConstraint {
                    from_leaf: 1,
                    to_leaf: 2,
                    within_ms: 1000
                },
            ]
        );
    }

    #[test]
    fn reset_clears_runs() {
        let mut n = nfa("k(x < 1) -> k(x > 9)");
        step(&mut n, "k", &tup(0, 0.0)).unwrap();
        assert_eq!(n.active_runs(), 1);
        n.reset();
        assert_eq!(n.active_runs(), 0);
    }

    #[test]
    fn batched_advance_equals_per_tuple_advance() {
        let src = "(k(x < 1) -> k(x > 9) within 1 seconds) -> k(x < 1) within 1 seconds";
        let stream: Vec<Tuple> = (0..200)
            .map(|i| tup(i * 37, ((i * 7919) % 23) as f64 - 5.0))
            .collect();

        let mut single = nfa(src).with_max_runs(3);
        let mut per_tuple = Vec::new();
        for t in &stream {
            per_tuple.extend(step(&mut single, "k", t).unwrap());
        }

        let mut batched = nfa(src).with_max_runs(3);
        let mut scratch = MatchScratch::new();
        for chunk in stream.chunks(17) {
            batched
                .advance_block_into("k", chunk, None, &mut scratch)
                .unwrap();
        }

        let a: Vec<_> = per_tuple
            .iter()
            .map(|m| (m.ts, m.started_at, m.events))
            .collect();
        let b: Vec<_> = scratch
            .matches()
            .map(|m| (m.ts, m.started_at, m.events.len()))
            .collect();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "workload must produce matches");
        assert_eq!(single.active_runs(), batched.active_runs());
        assert_eq!(single.shed_runs(), batched.shed_runs());
    }

    #[test]
    fn block_advance_with_pre_pass_equals_scalar_advance() {
        let src = "(k(x < 1) -> k(x > 9) within 1 seconds) -> k(x < 1) within 1 seconds";
        // One shared schema Arc so the block's float lanes are used (a
        // per-tuple Arc would force the fallback path everywhere).
        let s = schema();
        let stream: Vec<Tuple> = (0..200)
            .map(|i| {
                Tuple::new(
                    s.clone(),
                    vec![
                        Value::Timestamp(i * 37),
                        Value::Float(((i * 7919) % 23) as f64 - 5.0),
                    ],
                )
                .unwrap()
            })
            .collect();

        let mut scalar = nfa(src).with_max_runs(3);
        let mut scalar_out = MatchScratch::new();
        let mut blocked = nfa(src).with_max_runs(3);
        let mut blocked_out = MatchScratch::new();
        let mut block = ColumnBlock::new();
        for chunk in stream.chunks(17) {
            scalar
                .advance_block_into("k", chunk, None, &mut scalar_out)
                .unwrap();
            block.fill_from_tuples(chunk);
            blocked
                .advance_block_into("k", chunk, Some(&block), &mut blocked_out)
                .unwrap();
        }
        let key = |m: &MatchView<'_>| (m.ts, m.started_at, m.events.len());
        let a: Vec<_> = scalar_out.matches().map(|m| key(&m)).collect();
        let b: Vec<_> = blocked_out.matches().map(|m| key(&m)).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "workload must produce matches");
        assert_eq!(scalar.active_runs(), blocked.active_runs());
        assert_eq!(scalar.shed_runs(), blocked.shed_runs());
    }

    #[test]
    fn mismatched_block_rows_are_ignored() {
        // A block that does not cover the batch must be disabled, not
        // misread.
        let s = schema();
        let t = |ts: i64, x: f64| {
            Tuple::new(s.clone(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
        };
        let mut n = nfa("k(x < 1) -> k(x > 9)");
        let mut out = MatchScratch::new();
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(&[t(0, 0.5)]); // 1 row
        let batch = [t(0, 0.5), t(10, 10.0)]; // 2 tuples
        n.advance_block_into("k", &batch, Some(&block), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1, "scalar fallback still matches");
    }

    #[test]
    fn arena_recycles_when_runs_drain() {
        // consume all: every detection empties the run set, which must
        // recycle the shared arena instead of growing it forever.
        let mut n = nfa("k(x < 1) -> k(x > 9)");
        for round in 0..50 {
            let base = round * 100;
            step(&mut n, "k", &tup(base, 0.5)).unwrap();
            assert_eq!(step(&mut n, "k", &tup(base + 10, 10.0)).unwrap().len(), 1);
            assert_eq!(n.arena_len(), 0, "arena recycled after the wave");
        }
    }

    #[test]
    fn arena_compacts_under_churn() {
        // select all / consume none with a long-lived run pinned at step
        // 1 while thousands of seeds expire: compaction must keep the
        // arena near the live set, not the stream length.
        let mut n = nfa("k(x < 1) -> k(x > 9) within 1 seconds select all consume none");
        let mut scratch = MatchScratch::new();
        for i in 0..20_000i64 {
            let t = tup(i * 10, 0.5); // seeds every tuple; expires after 1 s
            n.advance_block_into("k", std::slice::from_ref(&t), None, &mut scratch)
                .unwrap();
        }
        assert!(
            n.arena_len() <= 4 * (n.active_runs() + 1).max(256),
            "arena {} vs {} runs",
            n.arena_len(),
            n.active_runs()
        );
    }
}
