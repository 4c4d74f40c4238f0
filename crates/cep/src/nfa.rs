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
//! * **Event arena** — a row a run keeps is interned once into an
//!   append-only arena (`arena` + `arena_ts`) as the row source's
//!   [`KeptRow`], shared by every run it seeds or advances; runs refer to
//!   events by `u32` arena index. A deferred view row stays its frame
//!   until somebody reads a match carrying it: a match's [`Events`] are
//!   the arena's handles, and each becomes a tuple on its first read, so
//!   only rows a reader reads are ever built. The arena is cleared
//!   whenever the run set and the seed queue empty (every `consume all`
//!   detection does this) and mark-compacted if churn ever makes it
//!   outgrow them.
//! * **Seed queue** — a run waiting at step 1 is a [`Seed`] in a queue in
//!   id order (its timestamp, deadline and row), not a run: its deadline
//!   is its timestamp plus the smallest `within` starting at leaf 0, and
//!   a row that hits step 1 moves the whole queue at once — into one run
//!   at step 2 when runs moving there share one future (below), into one
//!   run per seed otherwise, and into completions for a two-step pattern.
//!   A seed refers to its batch row until it outlives the batch or a
//!   step-1 hit carries it; only then is its row kept (interned), so a
//!   seed that expires, is shed, merged or consumed inside its batch
//!   costs one queue entry. A seed on a row that also advanced a run
//!   reuses that row's arena entry at once.
//! * **Run slab** — the metadata of runs at step 2 and beyond lives in a
//!   dense `Vec<Run>`; the arena indices of run *i*'s matched events live
//!   at `run_events[i*stride ..]` with `stride = step_count`. Removing a
//!   run swap-removes both, so steady-state stepping never allocates.
//! * **Hoisted checks** — source routing is resolved once per call (one
//!   name lookup among the program's distinct sources, then an integer
//!   compare per step), each step predicate is evaluated at most once
//!   per tuple, and time-constraint expiry is a single
//!   `ts > min_deadline` comparison per tuple (each run caches its
//!   earliest pending deadline; the full prune scan only runs when the
//!   cheap check fires).
//! * **Candidate-row stepping** — the stepping loop walks a *candidate-
//!   row mask* kept in [`MatchScratch`] and never visits a row outside
//!   it. Without a [`ColumnBlock`] (`block = None`, the scalar path)
//!   every row is a candidate. With one, each *hot* step predicate (the
//!   seed step, plus every step some run waits at) is evaluated once
//!   over the whole block by the branch-free batch kernels, and a row is
//!   a candidate when some hot step's mask says `truth | !known` there:
//!   the predicate holds, or the kernels could not decide the row
//!   (non-float cells, `NaN` comparisons, unfused shapes) and the lazy
//!   scalar memo must — which also preserves the exact error behaviour.
//!   A step a run first reaches mid-batch gets its mask on demand and
//!   ORs its bits in ahead of the loop's position. A plan whose masks
//!   come back empty costs the seed pre-pass and a word-wise OR.
//! * **Rows no run can use** — every step a run waits at is hot, so a
//!   visited row where no hot step ≥ 1 says `truth | !known` advances
//!   nobody: it skips the run loop and only expires and seeds.
//! * **Runs with one future** — when every `within` pending at step *s*
//!   starts at leaf *s − 1* (every step of a learned, left-deep query),
//!   runs one row moves into *s* share that row's timestamp, hence their
//!   deadline and every later check: they advance, expire and complete
//!   together. `select first` can only ever report the lowest id among
//!   them (`last` the highest), so the rest are dropped in order
//!   (`gesto_nfa_runs_merged_total`); `select all` keeps them all. From
//!   step 2 on this is a merge in the slab; into step 2 it is the seed
//!   queue's collapse, which builds the one run kept.
//! * **Skipped-span expiry** — the only effect a non-candidate row has
//!   in one-tuple stepping is expiring runs and seeds whose deadline it
//!   passed. Nothing else changes inside a skipped span, so pruning once
//!   with the span's *maximum* timestamp (read only while some deadline
//!   is finite), before the next visited row and at batch end, removes
//!   exactly what row-by-row pruning would — for non-monotone
//!   timestamps too. The prune is order-preserving, so the run slab and
//!   the queue are in the same order either way and even a mid-row
//!   predicate error leaves identical state behind.
//! * **Caller-owned scratch** — completed matches are written into a
//!   reusable [`MatchScratch`] instead of a fresh vector per call; the
//!   scratch also owns every other per-call buffer (memo table, masks,
//!   the per-row completion drain, the merge and compaction tables),
//!   cleared capacity-preservingly rather than reallocated. A runtime
//!   holds only what survives between batches — seeds, runs, their
//!   event slab, the arena — so one warm scratch can serve every runtime
//!   a thread steps.
//!
//! [`NfaRuntime::advance_block_into`] is the only stepping entry point:
//! a single tuple is a one-tuple batch, the scalar path is `block = None`
//! — the same loop over a full mask.

use std::collections::VecDeque;
use std::sync::Arc;

use gesto_stream::{BitMask, ColumnBlock, KeptRow, RowSource, SchemaRef, StreamTime};
use gesto_telemetry::ShardedCounter;

use crate::detection::Events;
use crate::error::CepError;
use crate::expr::{compile, BlockMasks, CompiledExpr, EvalScratch, FunctionRegistry};
use crate::pattern::{ConsumePolicy, Pattern, SelectPolicy};

/// Default cap on simultaneously tracked partial matches.
pub const DEFAULT_MAX_RUNS: usize = 4096;

/// A compiled leaf step.
struct CompiledStep {
    /// Index into [`NfaProgram::sources`] of the stream or view the step
    /// listens to.
    source: u32,
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

/// Arena length below which churn never compacts: compacting at 4× the
/// live rows is amortised at any size, and the floor keeps tiny arenas
/// from compacting every few rows. An arena gains only rows a run or a
/// seed outliving its batch keeps, so it reaches the floor — and its
/// buffers their final capacity — within a few batches.
const COMPACT_FLOOR: usize = 256;

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

/// A run waiting at step 1, queued in id order (module docs: seed queue).
#[derive(Debug, Clone, Copy)]
struct Seed {
    id: u64,
    ts: StreamTime,
    /// `ts` plus the smallest `within` starting at leaf 0.
    deadline: StreamTime,
    row: SeedRow,
}

/// Where a seed's row is: still the current batch's, or kept.
#[derive(Debug, Clone, Copy)]
enum SeedRow {
    /// Row of the batch being stepped, not kept yet.
    Batch(u32),
    /// Arena index.
    Kept(u32),
}

/// A completed run parked between the advance scan and the selection
/// wave. Its events are a `stride`-long block in `completed_events`.
#[derive(Debug, Clone, Copy)]
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
    /// One event per leaf step, in order, built when read.
    pub events: Events<&'a [KeptRow]>,
}

/// Flat span of one match inside a [`MatchScratch`].
#[derive(Debug, Clone, Copy)]
struct MatchSpan {
    ts: StreamTime,
    started_at: StreamTime,
    start: u32,
    len: u32,
}

/// Caller-owned storage for completed matches, plus every other
/// per-call buffer of the batched hot loop.
///
/// [`NfaRuntime::advance_block_into`] appends matches here instead of
/// allocating a fresh vector per call; reusing one scratch across
/// batches makes the steady-state hot loop allocation-free. Matched
/// events are stored in one flat vector of kept rows, spanned per match.
///
/// The scratch also owns the per-tuple predicate memo, the per-step
/// block masks, the candidate-row mask, the per-row completion drain and
/// the merge and compaction tables. They are sized per use with
/// capacity-preserving clears (never reallocated once warm), and one
/// scratch may serve any number of runtimes — the buffers grow to the
/// largest pattern seen and stay there.
#[derive(Debug, Default)]
pub struct MatchScratch {
    events: Vec<KeptRow>,
    spans: Vec<MatchSpan>,
    masks: StepMasks,
    /// Per-row completed-run drain.
    completed: Vec<CompletedRun>,
    completed_events: Vec<u32>,
    /// Per-step id of the run a merge keeps.
    keep: Vec<u64>,
    /// Arena mark/remap table of a compaction.
    remap: Vec<u32>,
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
            events: Events(&self.events[s.start as usize..(s.start + s.len) as usize]),
        })
    }
}

/// What one batch knows about its step predicates: which rows the
/// stepping loop must visit, and the answer for every (step, row) the
/// kernels or the scalar evaluator have already decided.
#[derive(Debug, Default)]
struct StepMasks {
    /// Scalar memo per step: `serial << 1 | result` of the last tuple the
    /// step's predicate was evaluated on, so one tuple evaluates it at
    /// most once however many runs wait there. Zeroed per batch (serials
    /// start at 1), because one scratch may serve several runtimes.
    memo: Vec<u64>,
    /// Block masks per step (only the first `step_count` entries are
    /// used by a given runtime; entries only ever grow).
    pre: Vec<BlockMasks>,
    /// Whether `pre[s]` is valid for the current batch.
    hot: Vec<bool>,
    /// Rows the stepping loop visits: every row on the scalar path, the
    /// OR of `truth | !known` over the hot steps on the block path.
    cand: BitMask,
    /// The batch kernels' word buffer.
    eval: EvalScratch,
}

impl StepMasks {
    /// Sizes the tables for a `stride`-step pattern over `rows` rows:
    /// nothing hot, no candidates.
    fn begin(&mut self, stride: usize, rows: usize) {
        self.memo.clear();
        self.memo.resize(stride, 0);
        if self.pre.len() < stride {
            self.pre.resize_with(stride, BlockMasks::default);
            self.hot.resize(stride, false);
        }
        self.hot[..stride].fill(false);
        self.cand.reset(rows);
    }

    /// Makes `step` hot: evaluates its predicate over the whole block
    /// (once per batch) and adds the rows it may hit on to the
    /// candidates. Bits landing behind the loop's position are inert.
    fn heat(
        &mut self,
        step: usize,
        predicate: &CompiledExpr,
        block: &ColumnBlock,
        deltas: &mut CallDeltas,
    ) {
        if self.hot[step] {
            return;
        }
        self.hot[step] = true;
        let t0 = deltas.kernel_ns.is_some().then(std::time::Instant::now);
        let m = &mut self.pre[step];
        let rows = block.rows() as u64;
        deltas.block_evals += 1;
        deltas.block_rows += rows;
        deltas.bounds_decided += u64::from(predicate.eval_block(block, m, &mut self.eval));
        // Rows the kernels left undecided take the scalar path in `hit`.
        deltas.fallback_rows += rows.saturating_sub(m.known.count() as u64);
        let decided = m.truth.words().iter().zip(m.known.words());
        for (c, (t, k)) in self.cand.words_mut().iter_mut().zip(decided) {
            *c |= t | !k;
        }
        self.cand.mask_tail_words();
        if let (Some(ns), Some(t0)) = (&mut deltas.kernel_ns, t0) {
            *ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Whether some hot step ≥ 1 may hit `row` (`truth | !known`).
    fn may_advance(&self, row: usize, stride: usize) -> bool {
        let hits = |m: &BlockMasks| m.truth.get(row) || !m.known.get(row);
        (1..stride).any(|s| self.hot[s] && hits(&self.pre[s]))
    }

    /// Answers "does `step`'s predicate match row `row`?" — from the
    /// block mask when the kernels decided that (step, row), and from
    /// the memoised scalar evaluation of the row's tuple otherwise
    /// (preserving the exact scalar semantics, including errors, for
    /// undecided rows).
    #[inline]
    fn hit<R: RowSource + ?Sized>(
        &mut self,
        step: usize,
        predicate: &CompiledExpr,
        rows: &R,
        row: usize,
        serial: u64,
    ) -> Result<bool, CepError> {
        if self.hot[step] && self.pre[step].known.get(row) {
            return Ok(self.pre[step].truth.get(row));
        }
        let memo = &mut self.memo[step];
        if *memo >> 1 != serial {
            *memo = serial << 1 | u64::from(predicate.eval_bool(rows.tuple(row))?);
        }
        Ok(*memo & 1 == 1)
    }
}

/// Telemetry deltas of one [`NfaRuntime::advance_block_into`] call,
/// accumulated locally and added to the process-wide counters once.
#[derive(Default)]
struct CallDeltas {
    expired: u64,
    rows_stepped: u64,
    block_evals: u64,
    block_rows: u64,
    fallback_rows: u64,
    bounds_decided: u64,
    merged: u64,
    /// Summed time of every heat, when the call is sampled for the
    /// `stage="kernel"` timer.
    kernel_ns: Option<u64>,
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
    /// Distinct source names of the steps, in first-appearance order.
    sources: Vec<String>,
    constraints: Vec<TimeConstraint>,
    /// Per step *s*: runs that one row moves into *s* together are kept
    /// once — the select policy is `first` or `last`, and every `within`
    /// pending at *s* starts at leaf *s − 1* (module docs).
    merge_at: Vec<bool>,
    /// The smallest `within` starting at leaf 0: a seed's budget.
    seed_within: Option<StreamTime>,
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
        let mut sources = Vec::new();
        let mut constraints = Vec::new();
        collect(
            pattern,
            resolver,
            funcs,
            &mut steps,
            &mut sources,
            &mut constraints,
        )?;
        if steps.is_empty() {
            return Err(CepError::Compile("pattern has no event steps".into()));
        }
        let (select, consume) = match pattern {
            Pattern::Sequence(s) => (s.select, s.consume),
            Pattern::Event(_) => (SelectPolicy::default(), ConsumePolicy::default()),
        };
        // A `within` is pending at `s` when `from_leaf < s <= to_leaf`.
        let one_clock = |s: usize, c: &TimeConstraint| c.from_leaf + 1 >= s || c.to_leaf < s;
        let merge_at = (0..steps.len())
            .map(|s| select != SelectPolicy::All && constraints.iter().all(|c| one_clock(s, c)))
            .collect();
        let seed_within = constraints
            .iter()
            .filter(|c| c.from_leaf == 0)
            .map(|c| c.within_ms)
            .min();
        Ok(Self {
            steps,
            sources,
            constraints,
            merge_at,
            seed_within,
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
        let src = self.source_index(source);
        let mut cols = Vec::new();
        for step in self.steps.iter().filter(|s| Some(s.source) == src) {
            step.predicate.collect_block_columns(&mut cols);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Position of `source` among the steps' distinct sources; `None`
    /// when no step listens to it.
    fn source_index(&self, source: &str) -> Option<u32> {
        self.sources
            .iter()
            .position(|s| s == source)
            .map(|i| i as u32)
    }
}

/// Compiled pattern + run state: only what survives between batches
/// (per-call buffers are the caller's [`MatchScratch`]).
pub struct NfaRuntime {
    program: Arc<NfaProgram>,
    /// Runs waiting at step 1, in id order.
    seeds: VecDeque<Seed>,
    /// Dense metadata of the runs past step 1; run *i*'s event indices
    /// are the block `run_events[i*stride .. i*stride + stride]` (first
    /// `next` valid).
    runs: Vec<Run>,
    run_events: Vec<u32>,
    /// Shared append-only event storage: every row a run or seed kept
    /// this "generation", kept once, plus its timestamp.
    arena: Vec<KeptRow>,
    arena_ts: Vec<StreamTime>,
    /// Earliest deadline over all runs and seeds (conservative: may be
    /// stale-low after a run is removed, which only costs an extra prune
    /// scan).
    min_deadline: StreamTime,
    next_run_id: u64,
    /// Serial of the tuple currently being processed.
    tuple_serial: u64,
    max_runs: usize,
    /// Total runs discarded due to the `max_runs` cap.
    shed: u64,
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
        Self {
            program,
            seeds: VecDeque::new(),
            runs: Vec::new(),
            run_events: Vec::new(),
            arena: Vec::new(),
            arena_ts: Vec::new(),
            min_deadline: NO_DEADLINE,
            next_run_id: 0,
            tuple_serial: 0,
            max_runs: DEFAULT_MAX_RUNS,
            shed: 0,
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

    /// Live partial matches, queued seeds included.
    pub fn active_runs(&self) -> usize {
        self.seeds.len() + self.runs.len()
    }

    /// Enables or disables seeding of new runs. With seeding off the
    /// runtime drains: tuples still advance (and complete) existing
    /// partial matches, but never start new ones — once
    /// [`Self::active_runs`] reaches zero the runtime is inert.
    pub fn set_seeding(&mut self, seeding: bool) {
        self.seeding = seeding;
    }

    /// Runs discarded because of the `max_runs` cap.
    pub fn shed_runs(&self) -> u64 {
        self.shed
    }

    /// Rows currently interned in the shared event arena (inspection:
    /// the arena must track the live runs and seeds, not the stream
    /// length).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Approximate heap footprint of the run state, in bytes: the
    /// *capacities* (not lengths) of the seed queue, run slab, event
    /// index blocks, and shared event arena. Per-call buffers are the
    /// caller's [`MatchScratch`] and are not counted. Capacity-based because that
    /// is what the allocator actually holds — a runtime that burst to
    /// 10k runs and drained back to 3 still pins the 10k-run slab.
    /// The arena counts row handles: what a kept row owns — a tuple's
    /// values, or a deferred `kinect_t` row's frame and basis until it
    /// is built — is heap this lower bound does not see, so it suits
    /// admission budgeting, not exact accounting.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.seeds.capacity() * size_of::<Seed>()
            + self.runs.capacity() * size_of::<Run>()
            + self.run_events.capacity() * size_of::<u32>()
            + self.arena.capacity() * size_of::<KeptRow>()
            + self.arena_ts.capacity() * size_of::<StreamTime>()
    }

    /// Drops all partial matches.
    pub fn reset(&mut self) {
        crate::metrics::NFA_RUNS_ACTIVE.add(-(self.active_runs() as i64));
        self.seeds.clear();
        self.runs.clear();
        self.run_events.clear();
        self.arena.clear();
        self.arena_ts.clear();
        self.min_deadline = NO_DEADLINE;
    }

    /// Answers a non-empty batch from `source` without stepping it, when
    /// it cannot move this runtime: there is no run or seed, the call has
    /// the batch's `block`, and the seed step is deaf to `source`, not
    /// seeding, or ruled out on every row by the lane bounds
    /// ([`CompiledExpr::bounds_exclude`]). Then it leaves exactly the
    /// state and counts [`Self::advance_block_into`] would (an emptied
    /// arena; the bounds' one block evaluation, if the seed step
    /// listens) and returns `true`; otherwise `false`, having done
    /// nothing.
    pub(crate) fn skip_idle(&mut self, source: &str, block: Option<&ColumnBlock>) -> bool {
        use crate::metrics as m;
        let Some(block) = block else {
            return false;
        };
        let seed = &self.program.steps[0];
        let hears = self.seeding && self.program.source_index(source) == Some(seed.source);
        if self.active_runs() != 0 || hears && !seed.predicate.bounds_exclude(block) {
            return false;
        }
        if hears {
            m::KERNEL_BLOCK_EVALS_TOTAL.add(1);
            m::KERNEL_BLOCK_ROWS_TOTAL.add(block.rows() as u64);
            m::KERNEL_BOUNDS_DECIDED_TOTAL.add(1);
        }
        self.arena.clear();
        self.arena_ts.clear();
        self.min_deadline = NO_DEADLINE;
        true
    }

    /// Feeds a batch of rows from one `source`, appending completed
    /// matches to `out` in stream order; `block`, when given, must be
    /// the columnar view of exactly `rows` (same rows, same order —
    /// a row-count mismatch disables it). Every timestamp is read from
    /// `rows`; a row is kept to intern it and read to evaluate it on the
    /// scalar path, and an interned row's tuple is read only when
    /// somebody reads a match's [`Events`].
    ///
    /// This is the hot loop (layout and candidate-row stepping: see the
    /// module docs). A batch in which nothing matches performs **zero**
    /// heap allocations once the runtime's and scratch's buffers have
    /// warmed up.
    ///
    /// Semantics are identical to stepping one-tuple batches — bit-
    /// identical matches, stats, expiry and shed counts, with or without
    /// the block (`None` is the scalar path) — including the exact error
    /// behaviour: a row whose predicate would error scalar-side is one
    /// the kernels leave undecided, hence a candidate, hence evaluated
    /// by the scalar evaluator exactly when one-tuple stepping would.
    pub fn advance_block_into<R: RowSource + ?Sized>(
        &mut self,
        source: &str,
        rows: &R,
        block: Option<&ColumnBlock>,
        out: &mut MatchScratch,
    ) -> Result<(), CepError> {
        use crate::metrics as m;
        // Telemetry rides on deltas: of state the stepping loop already
        // maintains (run count, id/shed/match totals) and of the counts
        // it keeps locally for this call. One add per family that moved,
        // all relaxed atomics, no allocation.
        let runs_before = self.active_runs();
        let seeded_before = self.next_run_id;
        let shed_before = self.shed;
        let matches_before = out.len();
        let mut deltas = CallDeltas::default();
        let result = self.advance_block_core(source, rows, block, out, &mut deltas);
        // Seeds outliving the batch keep their rows, also after an error.
        self.keep_batch_seeds(rows, seeded_before);
        let runs_delta = self.active_runs() as i64 - runs_before as i64;
        if runs_delta != 0 {
            m::NFA_RUNS_ACTIVE.add(runs_delta);
        }
        let bump = |counter: &ShardedCounter, n: u64| {
            if n != 0 {
                counter.add(n);
            }
        };
        bump(&m::NFA_RUNS_SEEDED_TOTAL, self.next_run_id - seeded_before);
        bump(&m::NFA_RUNS_SHED_TOTAL, self.shed - shed_before);
        bump(&m::NFA_MATCHES_TOTAL, (out.len() - matches_before) as u64);
        bump(&m::NFA_RUNS_EXPIRED_TOTAL, deltas.expired);
        bump(&m::NFA_ROWS_STEPPED_TOTAL, deltas.rows_stepped);
        bump(&m::KERNEL_BLOCK_EVALS_TOTAL, deltas.block_evals);
        bump(&m::KERNEL_BLOCK_ROWS_TOTAL, deltas.block_rows);
        bump(&m::KERNEL_SCALAR_FALLBACK_TOTAL, deltas.fallback_rows);
        bump(&m::KERNEL_BOUNDS_DECIDED_TOTAL, deltas.bounds_decided);
        bump(&m::NFA_RUNS_MERGED_TOTAL, deltas.merged);
        if let Some(ns) = deltas.kernel_ns {
            m::KERNEL_STAGE_NS.record(ns);
        }
        result
    }

    fn advance_block_core<R: RowSource + ?Sized>(
        &mut self,
        source: &str,
        rows: &R,
        block: Option<&ColumnBlock>,
        out: &mut MatchScratch,
        deltas: &mut CallDeltas,
    ) -> Result<(), CepError> {
        let MatchScratch {
            events,
            spans,
            masks,
            completed,
            completed_events,
            keep,
            remap,
        } = out;
        self.maybe_compact(remap);
        let Self {
            program,
            seeds,
            runs,
            run_events,
            arena,
            arena_ts,
            min_deadline,
            next_run_id,
            tuple_serial,
            max_runs,
            shed,
            seeding,
        } = self;
        let seeding = *seeding;
        let program: &NfaProgram = program;
        let steps = program.steps.as_slice();
        let stride = steps.len();
        // Seeds one step-1 hit moves keep one of them: the lowest id under
        // `select first`, the highest under `last` — as completions of a
        // two-step pattern (only one is reported), or as runs sharing one
        // future at step 2 (module docs).
        let collapse = program.select != SelectPolicy::All
            && (stride == 2 || program.merge_at.get(2) == Some(&true));

        // Hoisted across the batch: which steps listen to this source.
        let src = program.source_index(source);
        let live = |step: usize| Some(steps[step].source) == src;

        // Candidate rows. Scalar path: all of them. Block path: the rows
        // a hot step — the seed step, plus every step some run or seed
        // waits at now or comes to wait at during the batch — may hit.
        masks.begin(stride, rows.len());
        let block = block.filter(|b| b.rows() == rows.len() && !rows.is_empty());
        // Heats `step` if this call has a block and the step listens.
        let heat = |masks: &mut StepMasks, deltas: &mut CallDeltas, step: usize| {
            if let Some(b) = block.filter(|_| live(step)) {
                masks.heat(step, &steps[step].predicate, b, deltas);
            }
        };
        if src.is_some() {
            if block.is_none() {
                masks.cand.set_all();
            } else {
                deltas.kernel_ns = crate::metrics::KERNEL_SAMPLER.sample().then_some(0);
                if seeding {
                    heat(masks, deltas, 0);
                }
                if !seeds.is_empty() {
                    heat(masks, deltas, 1);
                }
                for run in runs.iter() {
                    heat(masks, deltas, run.next as usize);
                }
            }
        }

        // First row the loop has neither visited nor skipped yet.
        let mut pending = 0;
        loop {
            let row = masks.cand.next_set(pending).unwrap_or(rows.len());
            let visited = (row < rows.len()).then(|| rows.ts(row));

            // Expiry: one comparison unless some run or seed can actually
            // be dead (then a full scan prunes and recomputes). The
            // skipped rows `pending..row` expire what their latest
            // timestamp expires (module docs: skipped-span expiry).
            let mut now = visited;
            if *min_deadline != NO_DEADLINE {
                now = now.max((pending..row).map(|r| rows.ts(r)).max());
            }
            if let Some(now) = now.filter(|now| now > min_deadline) {
                deltas.expired += prune_expired(seeds, runs, run_events, stride, now, min_deadline);
            }
            let Some(ts) = visited else {
                break;
            };
            pending = row + 1;
            deltas.rows_stepped += 1;

            *tuple_serial += 1;
            let serial = *tuple_serial;
            // Interned lazily, once per tuple, however many runs it
            // seeds or advances.
            let mut arena_idx = u32::MAX;
            completed.clear();
            completed_events.clear();

            // Unless no hot step may hit this row (every step a run or
            // seed waits at is hot), advance the seed queue, then every
            // run in place (each by at most one step per tuple, guarded
            // by `touched`). No advance can break a `within`: one ending
            // at the step a run or seed waits at is pending there, so its
            // deadline is at most the budget's end, and the prune above
            // left none that `ts` passed.
            let advances = block.is_none() || masks.may_advance(row, stride);
            if advances
                && !seeds.is_empty()
                && live(1)
                && masks.hit(1, &steps[1].predicate, rows, row, serial)?
            {
                arena_idx = intern(arena, arena_ts, rows.keep(row), ts);
                let n = seeds.len();
                let (lo, hi) = match program.select {
                    SelectPolicy::First if collapse => (0, 1),
                    SelectPolicy::Last if collapse => (n - 1, n),
                    _ => (0, n),
                };
                for seed in seeds.range(lo..hi) {
                    let first = match seed.row {
                        SeedRow::Kept(e) => e,
                        SeedRow::Batch(r) => {
                            intern(arena, arena_ts, rows.keep(r as usize), seed.ts)
                        }
                    };
                    if stride == 2 {
                        completed.push(CompletedRun {
                            id: seed.id,
                            ev_start: completed_events.len() as u32,
                        });
                        completed_events.extend([first, arena_idx]);
                        continue;
                    }
                    let slab = run_events.len();
                    run_events.resize(slab + stride, 0);
                    run_events[slab..slab + 2].copy_from_slice(&[first, arena_idx]);
                    let run = Run {
                        next: 2,
                        touched: serial,
                        deadline: NO_DEADLINE,
                        id: seed.id,
                    };
                    let deadline = deadline_of(program, arena_ts, &run_events[slab..], &run);
                    runs.push(Run { deadline, ..run });
                    *min_deadline = (*min_deadline).min(deadline);
                }
                if stride > 2 {
                    deltas.merged += (n - (hi - lo)) as u64;
                    heat(masks, deltas, 2);
                }
                seeds.clear();
            }
            let mut i = if advances { 0 } else { runs.len() };
            let mut merging = 0;
            while i < runs.len() {
                let run = runs[i];
                if run.touched == serial {
                    i += 1;
                    continue;
                }
                let step = run.next as usize;
                if !live(step) || !masks.hit(step, &steps[step].predicate, rows, row, serial)? {
                    i += 1;
                    continue;
                }
                if arena_idx == u32::MAX {
                    arena_idx = intern(arena, arena_ts, rows.keep(row), ts);
                }
                let slab = i * stride;
                run_events[slab + step] = arena_idx;
                let run = &mut runs[i];
                run.next += 1;
                run.touched = serial;
                let waits_at = run.next as usize;
                if waits_at == stride {
                    // swap_remove moves an unprocessed (or already-
                    // touched) run into slot i, so don't increment.
                    completed.push(CompletedRun {
                        id: run.id,
                        ev_start: completed_events.len() as u32,
                    });
                    completed_events.extend_from_slice(&run_events[slab..slab + stride]);
                    remove_run(runs, run_events, stride, i);
                    continue;
                }
                heat(masks, deltas, waits_at);
                merging += usize::from(program.merge_at[waits_at]);
                let dl = deadline_of(program, arena_ts, &run_events[slab..slab + stride], run);
                runs[i].deadline = dl;
                *min_deadline = (*min_deadline).min(dl);
                i += 1;
            }
            if merging > 1 {
                deltas.merged += merge_moved(program, runs, run_events, keep, serial);
            }

            // Seed a new run: this tuple as leaf 0.
            if seeding && live(0) && masks.hit(0, &steps[0].predicate, rows, row, serial)? {
                let id = *next_run_id;
                *next_run_id += 1;
                if stride == 1 {
                    if arena_idx == u32::MAX {
                        arena_idx = intern(arena, arena_ts, rows.keep(row), ts);
                    }
                    completed.push(CompletedRun {
                        id,
                        ev_start: completed_events.len() as u32,
                    });
                    completed_events.push(arena_idx);
                } else {
                    if seeds.len() + runs.len() >= *max_runs {
                        // Shed the oldest run to bound memory. Every run
                        // in the slab is older than every queued seed (a
                        // step-1 hit moves the whole queue).
                        match oldest_run_pos(runs) {
                            Some(pos) => remove_run(runs, run_events, stride, pos),
                            None => {
                                seeds.pop_front();
                            }
                        }
                        *shed += 1;
                    }
                    // A row some run keeps is kept for the seed too; any
                    // other is kept only if the seed outlives the batch.
                    let row = match arena_idx {
                        u32::MAX => SeedRow::Batch(row as u32),
                        e => SeedRow::Kept(e),
                    };
                    let deadline = program.seed_within.map_or(NO_DEADLINE, |w| ts + w);
                    seeds.push_back(Seed {
                        id,
                        ts,
                        deadline,
                        row,
                    });
                    *min_deadline = (*min_deadline).min(deadline);
                    heat(masks, deltas, 1);
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
                spans.push(MatchSpan {
                    ts: arena_ts[ev[stride - 1] as usize],
                    started_at: arena_ts[ev[0] as usize],
                    start: events.len() as u32,
                    len: stride as u32,
                });
                events.extend(ev.iter().map(|&e| arena[e as usize].clone()));
            }

            // Consumption policy.
            if program.consume == ConsumePolicy::All {
                seeds.clear();
                runs.clear();
                run_events.clear();
                *min_deadline = NO_DEADLINE;
            }
            if seeds.is_empty() && runs.is_empty() {
                // Nothing references the arena any more: recycle it.
                arena.clear();
                arena_ts.clear();
            }
        }
        Ok(())
    }

    /// Keeps the row of every seed of the batch just stepped that is
    /// still queued (seeds from run id `first_id` on; a seed whose row
    /// some run kept refers to it already, so they are interleaved).
    fn keep_batch_seeds<R: RowSource + ?Sized>(&mut self, rows: &R, first_id: u64) {
        let start = self.seeds.partition_point(|s| s.id < first_id);
        for seed in self.seeds.range_mut(start..) {
            if let SeedRow::Batch(r) = seed.row {
                let e = intern(
                    &mut self.arena,
                    &mut self.arena_ts,
                    rows.keep(r as usize),
                    seed.ts,
                );
                seed.row = SeedRow::Kept(e);
            }
        }
    }

    /// Reclaims the event arena when churn (long-lived runs or seeds next
    /// to expired ones) lets it outgrow what they hold. Rare and
    /// amortised; the common recycle point is the run set and the queue
    /// emptying. `remap` is the caller's scratch table.
    fn maybe_compact(&mut self, remap: &mut Vec<u32>) {
        if self.active_runs() == 0 {
            if !self.arena.is_empty() {
                self.arena.clear();
                self.arena_ts.clear();
            }
            return;
        }
        let stride = self.program.steps.len();
        let live: usize =
            self.seeds.len() + self.runs.iter().map(|r| r.next as usize).sum::<usize>();
        if self.arena.len() < COMPACT_FLOOR || self.arena.len() < live.saturating_mul(4) {
            return;
        }
        crate::metrics::NFA_ARENA_COMPACTIONS_TOTAL.inc();
        // Mark (between calls every seed's row is kept)…
        remap.clear();
        remap.resize(self.arena.len(), u32::MAX);
        for seed in &self.seeds {
            if let SeedRow::Kept(e) = seed.row {
                remap[e as usize] = 0;
            }
        }
        for (i, run) in self.runs.iter().enumerate() {
            for k in 0..run.next as usize {
                remap[self.run_events[i * stride + k] as usize] = 0;
            }
        }
        // …compact in place (stable, so new index <= old index)…
        let mut w = 0usize;
        for (r, slot) in remap.iter_mut().enumerate() {
            if *slot != u32::MAX {
                self.arena.swap(w, r);
                self.arena_ts.swap(w, r);
                *slot = w as u32;
                w += 1;
            }
        }
        self.arena.truncate(w);
        self.arena_ts.truncate(w);
        // …and rewrite the queue and the run slab through the remap table.
        for seed in self.seeds.iter_mut() {
            if let SeedRow::Kept(e) = &mut seed.row {
                *e = remap[*e as usize];
            }
        }
        for (i, run) in self.runs.iter().enumerate() {
            for k in 0..run.next as usize {
                let e = &mut self.run_events[i * stride + k];
                *e = remap[*e as usize];
            }
        }
    }
}

impl Drop for NfaRuntime {
    fn drop(&mut self) {
        // Keep the process-global active-runs gauge honest when a
        // session (and its runtimes) is torn down mid-pattern.
        crate::metrics::NFA_RUNS_ACTIVE.add(-(self.active_runs() as i64));
    }
}

/// Interns a matched row into the shared arena, returning its index.
#[inline]
fn intern(
    arena: &mut Vec<KeptRow>,
    arena_ts: &mut Vec<StreamTime>,
    row: KeptRow,
    ts: StreamTime,
) -> u32 {
    let idx = arena.len() as u32;
    arena.push(row);
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

/// Kills runs and seeds whose pending time constraints can no longer be
/// met at stream time `now`, recomputes the exact earliest deadline and
/// returns how many died. Order-preserving: pruning a skipped span once
/// at its latest timestamp must leave the slab and the queue exactly as
/// pruning it row by row would.
fn prune_expired(
    seeds: &mut VecDeque<Seed>,
    runs: &mut Vec<Run>,
    run_events: &mut Vec<u32>,
    stride: usize,
    now: StreamTime,
    min_deadline: &mut StreamTime,
) -> u64 {
    let mut min = NO_DEADLINE;
    let mut live = |deadline: StreamTime| {
        let live = now <= deadline;
        min = min.min(if live { deadline } else { NO_DEADLINE });
        live
    };
    let queued = seeds.len();
    seeds.retain(|s| live(s.deadline));
    let expired =
        (queued - seeds.len()) as u64 + retain_runs(runs, run_events, stride, |r| live(r.deadline));
    *min_deadline = min;
    expired
}

/// Keeps one run of each group that tuple `serial` moved into the same
/// `merge_at` step — the lowest id under `select first`, the highest
/// under `select last` — and drops the rest in order. Returns how many
/// it dropped.
fn merge_moved(
    program: &NfaProgram,
    runs: &mut Vec<Run>,
    run_events: &mut Vec<u32>,
    keep: &mut Vec<u64>,
    serial: u64,
) -> u64 {
    let last = program.select == SelectPolicy::Last;
    keep.clear();
    keep.resize(program.steps.len(), if last { 0 } else { u64::MAX });
    let grouped = |r: &Run| r.touched == serial && program.merge_at[r.next as usize];
    for r in runs.iter().filter(|r| grouped(r)) {
        let k = &mut keep[r.next as usize];
        *k = if last { r.id.max(*k) } else { r.id.min(*k) };
    }
    retain_runs(runs, run_events, program.steps.len(), |r| {
        !grouped(r) || r.id == keep[r.next as usize]
    })
}

/// Drops the runs `keep` rejects, order-preserving, and returns how
/// many it dropped (`keep` sees every run once, in slab order).
fn retain_runs(
    runs: &mut Vec<Run>,
    run_events: &mut Vec<u32>,
    stride: usize,
    mut keep: impl FnMut(&Run) -> bool,
) -> u64 {
    let mut kept = 0;
    for i in 0..runs.len() {
        if !keep(&runs[i]) {
            continue;
        }
        if kept != i {
            runs[kept] = runs[i];
            run_events.copy_within(i * stride..(i + 1) * stride, kept * stride);
        }
        kept += 1;
    }
    let dropped = runs.len() - kept;
    runs.truncate(kept);
    run_events.truncate(kept * stride);
    dropped as u64
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

/// Recursively collects leaf steps (interning their source names into
/// `sources`) and time constraints.
fn collect(
    pattern: &Pattern,
    resolver: &dyn SchemaResolver,
    funcs: &FunctionRegistry,
    steps: &mut Vec<CompiledStep>,
    sources: &mut Vec<String>,
    constraints: &mut Vec<TimeConstraint>,
) -> Result<(), CepError> {
    match pattern {
        Pattern::Event(e) => {
            let schema = resolver.schema_of(&e.source)?;
            let predicate = compile(&e.predicate, &schema, funcs)?;
            let source = sources
                .iter()
                .position(|s| *s == e.source)
                .unwrap_or_else(|| {
                    sources.push(e.source.clone());
                    sources.len() - 1
                }) as u32;
            steps.push(CompiledStep { source, predicate });
            Ok(())
        }
        Pattern::Sequence(s) => {
            if s.steps.is_empty() {
                return Err(CepError::Compile("empty sequence".into()));
            }
            let mut first_child_last_leaf = None;
            for (i, child) in s.steps.iter().enumerate() {
                collect(child, resolver, funcs, steps, sources, constraints)?;
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
    use gesto_stream::{SchemaBuilder, Tuple, Value};

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

    fn nfa(src: &str) -> NfaRuntime {
        let p = parse_pattern(src).unwrap();
        NfaRuntime::compile(
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
    fn step(n: &mut NfaRuntime, source: &str, tuple: &Tuple) -> Result<Vec<Hit>, CepError> {
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
        assert_eq!(n.program().constraints().len(), 2);
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

    /// Steps `rows` as one scalar batch and returns each match's
    /// `(ts, started_at, x of every event)`.
    fn batch(n: &mut NfaRuntime, rows: &[(i64, f64)]) -> Vec<(i64, i64, Vec<f64>)> {
        let tuples: Vec<Tuple> = rows.iter().map(|&(ts, x)| tup(ts, x)).collect();
        let mut scratch = MatchScratch::new();
        n.advance_block_into("k", &tuples[..], None, &mut scratch)
            .unwrap();
        let x = |t: &Tuple| match t.values()[1] {
            Value::Float(x) => x,
            _ => unreachable!(),
        };
        scratch
            .matches()
            .map(|m| (m.ts, m.started_at, m.events.iter().map(x).collect()))
            .collect()
    }

    const LEFT_DEEP: &str = "(k(x < 1) -> k(x > 9) within 1 seconds) -> k(x = 5) within 1 seconds";

    #[test]
    fn select_last_keeps_the_newest_seed() {
        let mut n = nfa(&format!("{LEFT_DEEP} select last consume all"));
        batch(&mut n, &[(0, 0.5), (10, 0.6), (20, 0.7)]);
        assert_eq!(n.active_runs(), 3, "three queued seeds");
        batch(&mut n, &[(30, 10.0)]);
        assert_eq!(n.active_runs(), 1, "collapsed into one run");
        let m = batch(&mut n, &[(40, 5.0)]);
        assert_eq!(m, [(40, 20, vec![0.7, 10.0, 5.0])]);
    }

    #[test]
    fn a_seed_past_its_within_is_expired_not_moved() {
        let mut n = nfa(&format!("{LEFT_DEEP} select first consume all"));
        batch(&mut n, &[(0, 0.5), (600, 0.6)]);
        // Seed 0's deadline is 1000: the step-1 row at 1300 expires it
        // first, so only seed 600 moves.
        batch(&mut n, &[(1300, 10.0)]);
        assert_eq!(n.active_runs(), 1);
        let m = batch(&mut n, &[(1400, 5.0)]);
        assert_eq!(m, [(1400, 600, vec![0.6, 10.0, 5.0])]);
    }

    #[test]
    fn a_flat_within_moves_every_seed_into_its_own_run() {
        // One `within` from leaf 0 to 2: runs at step 2 keep their seed's
        // deadline, so nothing merges even under `select first`.
        let mut n = nfa("k(x < 1) -> k(x > 9) -> k(x = 5) within 1 seconds select first");
        batch(&mut n, &[(0, 0.5), (10, 0.6), (20, 10.0)]);
        assert_eq!(n.active_runs(), 2, "two runs at step 2");
        // 1005 expires seed 0's run (deadline 1000), not seed 10's.
        assert!(batch(&mut n, &[(1005, 3.0)]).is_empty());
        assert_eq!(n.active_runs(), 1);
        let m = batch(&mut n, &[(1008, 5.0)]);
        assert_eq!(m, [(1008, 10, vec![0.6, 10.0, 5.0])]);
    }

    #[test]
    fn a_two_step_select_all_completes_every_live_seed() {
        let mut n = nfa("k(x < 1) -> k(x > 9) within 1 seconds select all consume none");
        let m = batch(&mut n, &[(0, 0.1), (500, 0.2), (900, 0.3), (1200, 10.0)]);
        let want = [(1200, 500, vec![0.2, 10.0]), (1200, 900, vec![0.3, 10.0])];
        assert_eq!(m, want, "seed 0 expired at 1200");
        assert_eq!(n.active_runs(), 0);
    }

    #[test]
    fn shedding_takes_the_oldest_run_across_queue_and_slab() {
        let mut n = nfa(&format!("{LEFT_DEEP} select first consume all")).with_max_runs(2);
        // Seed 0 moves to step 2 (the slab); seed 20 is queued; seed 30
        // meets the cap and sheds seed 0's run, the oldest.
        batch(&mut n, &[(0, 0.5), (10, 10.0), (20, 0.6), (30, 0.7)]);
        assert_eq!((n.active_runs(), n.shed_runs()), (2, 1));
        assert!(
            batch(&mut n, &[(40, 5.0)]).is_empty(),
            "seed 0's run is gone"
        );
        // Seed 40 sheds seed 20, the oldest queued.
        batch(&mut n, &[(45, 0.8)]);
        assert_eq!((n.active_runs(), n.shed_runs()), (2, 2));
        batch(&mut n, &[(50, 10.0)]);
        let m = batch(&mut n, &[(60, 5.0)]);
        assert_eq!(m, [(60, 30, vec![0.7, 10.0, 5.0])]);
    }

    #[test]
    fn a_seed_collapsed_inside_its_batch_keeps_no_row() {
        let mut n = nfa(&format!("{LEFT_DEEP} select first consume all"));
        batch(&mut n, &[(0, 0.5), (10, 0.6), (20, 10.0)]);
        // Kept: seed 0's row and the step-1 row; seed 10 merged away.
        assert_eq!((n.active_runs(), n.arena_len()), (1, 2));
        // A seed expiring inside its batch keeps no row either.
        let mut n = nfa("k(x < 1) -> k(x > 9) within 1 seconds");
        batch(&mut n, &[(0, 0.5), (1500, 3.0)]);
        assert_eq!((n.active_runs(), n.arena_len()), (0, 0));
        // One outliving its batch keeps its row.
        batch(&mut n, &[(2000, 0.5)]);
        assert_eq!((n.active_runs(), n.arena_len()), (1, 1));
    }

    #[test]
    fn a_seed_on_a_row_some_run_keeps_is_kept_at_once() {
        // Row 10 moves seed 0 and seeds; row 20 seeds; row 30 completes
        // seed 0's run and seeds. The queue is then kept, pending, kept:
        // the batch end keeps the middle one's row, not a suffix.
        let mut n = nfa("k(x < 5) -> k(x < 1) -> k(x > 3) select all consume none");
        let m = batch(&mut n, &[(0, 3.0), (10, 0.5), (20, 2.0), (30, 4.0)]);
        assert_eq!(m, [(30, 0, vec![3.0, 0.5, 4.0])]);
        assert_eq!((n.active_runs(), n.arena_len()), (3, 4));
        batch(&mut n, &[(40, 0.5)]);
        let m = batch(&mut n, &[(50, 4.0)]);
        let want = [
            (50, 10, vec![0.5, 0.5, 4.0]),
            (50, 20, vec![2.0, 0.5, 4.0]),
            (50, 30, vec![4.0, 0.5, 4.0]),
        ];
        assert_eq!(m, want);
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
        let n = NfaRuntime::compile(
            &q.pattern,
            &SingleSchema(schema),
            &FunctionRegistry::with_builtins(),
        )
        .unwrap();
        assert_eq!(n.program().step_count(), 3);
        assert_eq!(
            n.program().constraints(),
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
        n.advance_block_into("k", &batch[..], Some(&block), &mut out)
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
    fn an_idle_skip_clears_the_arena_its_last_run_expired_from() {
        // A run expires mid-batch: the arena keeps its row until the next
        // call, which a skip then is — it must empty the arena as the
        // full step would.
        let mut n = nfa("k(abs(x - 10) < 5) -> k(abs(x - 80) < 5) within 1 seconds");
        step(&mut n, "k", &tup(0, 10.0)).unwrap();
        let schema = schema();
        let quiet: Vec<Tuple> = (0..30)
            .map(|r| {
                Tuple::new(
                    schema.clone(),
                    vec![Value::Timestamp(2000 + r * 33), Value::Float(50.0)],
                )
            })
            .collect::<Result<_, _>>()
            .unwrap();
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(&quiet);
        assert!(!n.skip_idle("k", Some(&block)), "a run is live");
        n.advance_block_into("k", &quiet[..], Some(&block), &mut MatchScratch::new())
            .unwrap();
        assert_eq!(
            (n.active_runs(), n.arena_len()),
            (0, 1),
            "expired, row kept"
        );
        assert!(!n.skip_idle("k", None), "no block: stepped");
        assert!(n.skip_idle("k", Some(&block)));
        assert_eq!(n.arena_len(), 0, "the skip emptied the arena");
        assert_eq!(n.min_deadline, NO_DEADLINE);
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
