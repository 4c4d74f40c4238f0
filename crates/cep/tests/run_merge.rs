//! Merging runs that share one future is invisible: `NfaRuntime` against
//! a one-tuple reference that keeps every run it ever seeds.
//!
//! The reference below is written from the matching semantics, not from
//! the runtime: a run is the list of tuples it has matched, a tuple
//! first expires runs whose pending `within` it passed, then advances
//! each older run whose next step it satisfies by one step
//! (skip-till-next-match), then may seed a run. Completions of one tuple
//! form a wave; `select first`/`last` report its lowest/highest seed,
//! `all` every one, and `consume all` then drops every partial run. It
//! has no arena, no masks and no merging, so on every case the runtime
//! must report the same detections — timestamps and every event's
//! values — while holding at most as many runs, and fewer somewhere;
//! also when timestamps step back. Given a run cap, the reference sheds
//! its lowest-id run before a seed would exceed it; under `select all`
//! nothing merges, so a capped runtime must hold exactly its runs and
//! shed exactly its sheds.

use gesto_cep::{parse_pattern, FunctionRegistry, MatchScratch, NfaRuntime, SingleSchema};
use gesto_stream::{ColumnBlock, SchemaBuilder, SchemaRef, Tuple, Value};

/// `abs(col + off) < width` on column 1 (`x`) or 2 (`y`).
#[derive(Clone, Copy)]
struct Band {
    col: usize,
    off: f64,
    width: f64,
}

impl Band {
    fn holds(&self, t: &Tuple) -> bool {
        let Value::Float(v) = t.values()[self.col] else {
            unreachable!("plain float streams only")
        };
        (v + self.off).abs() < self.width
    }

    fn text(&self) -> String {
        let col = ["", "x", "y"][self.col];
        let (sign, c) = if self.off < 0.0 {
            ('-', -self.off)
        } else {
            ('+', self.off)
        };
        format!("abs({col} {sign} {c}) < {}", self.width)
    }
}

/// One step: a conjunction of bands.
type Step = Vec<Band>;

/// `(ts, started_at, event values)` of one detection.
type Hit = (i64, i64, Vec<Vec<Value>>);

fn ts(t: &Tuple) -> i64 {
    match t.values()[0] {
        Value::Timestamp(ts) => ts,
        _ => unreachable!(),
    }
}

/// The one-tuple reference.
struct Model {
    steps: Vec<Step>,
    /// `(from_leaf, to_leaf, within_ms)`.
    within: Vec<(usize, usize, i64)>,
    /// 0 = first, 1 = last, 2 = all.
    select: usize,
    consume_all: bool,
    /// `(seed id, matched tuples)`.
    runs: Vec<(u64, Vec<Tuple>)>,
    seeded: u64,
    /// Most runs held at once.
    cap: usize,
    shed: u64,
}

impl Model {
    fn push(&mut self, t: &Tuple, out: &mut Vec<Hit>) {
        let now = ts(t);
        let holds = |s: &Step| s.iter().all(|b| b.holds(t));
        let within = &self.within;
        let pending = |ev: &[Tuple], &(from, to, w): &(usize, usize, i64)| {
            from < ev.len() && ev.len() <= to && now > ts(&ev[from]) + w
        };
        self.runs
            .retain(|(_, ev)| !within.iter().any(|c| pending(ev, c)));
        let mut wave = Vec::new();
        for (id, mut ev) in std::mem::take(&mut self.runs) {
            if !holds(&self.steps[ev.len()]) {
                self.runs.push((id, ev));
                continue;
            }
            ev.push(t.clone());
            let last = ev.len() - 1;
            let late = |&(from, to, w): &(usize, usize, i64)| to == last && now - ts(&ev[from]) > w;
            if within.iter().any(late) {
                continue;
            }
            if ev.len() == self.steps.len() {
                wave.push((id, ev));
            } else {
                self.runs.push((id, ev));
            }
        }
        if holds(&self.steps[0]) {
            if self.steps.len() > 1 && self.runs.len() >= self.cap {
                let oldest = (0..self.runs.len()).min_by_key(|&i| self.runs[i].0);
                self.runs.remove(oldest.expect("a full run set"));
                self.shed += 1;
            }
            self.seeded += 1;
            let run = (self.seeded, vec![t.clone()]);
            if self.steps.len() == 1 {
                wave.push(run);
            } else {
                self.runs.push(run);
            }
        }
        if wave.is_empty() {
            return;
        }
        wave.sort_by_key(|r| r.0);
        let n = wave.len();
        let chosen = match self.select {
            0 => &wave[..1],
            1 => &wave[n - 1..],
            _ => &wave[..],
        };
        for (_, ev) in chosen {
            let values = ev.iter().map(|e| e.values().to_vec()).collect();
            out.push((ts(&ev[ev.len() - 1]), ts(&ev[0]), values));
        }
        if self.consume_all {
            self.runs.clear();
        }
    }
}

/// splitmix64: a seeded stream for the cases, no dependency needed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn schema() -> SchemaRef {
    SchemaBuilder::new("k")
        .timestamp("ts")
        .float("x")
        .float("y")
        .build()
        .unwrap()
}

/// Random walks on a half-unit grid in `[0, 4]`, so a batch often sits
/// on one side of a band (the lane bounds decide) and poses repeat
/// (several runs wait at one step when the next pose arrives). With
/// `step_back`, one tuple in 8 moves the clock back by up to 150 ms.
fn stream(rng: &mut Rng, schema: &SchemaRef, len: usize, step_back: bool) -> Vec<Tuple> {
    let (mut now, mut x, mut y) = (0i64, 2.0f64, 2.0f64);
    (0..len)
        .map(|_| {
            now += rng.below(40) as i64;
            if step_back && rng.below(8) == 0 {
                now = (now - rng.below(151) as i64).max(0);
            }
            x = (x + (rng.below(5) as f64 - 2.0) * 0.5).clamp(0.0, 4.0);
            y = (y + (rng.below(3) as f64 - 1.0) * 0.5).clamp(0.0, 4.0);
            let values = vec![Value::Timestamp(now), Value::Float(x), Value::Float(y)];
            Tuple::new(schema.clone(), values).unwrap()
        })
        .collect()
}

fn band(rng: &mut Rng) -> Band {
    Band {
        col: 1 + rng.below(2) as usize,
        off: -(rng.below(9) as f64) * 0.5,
        width: [0.3, 0.8, 1.3, 2.0][rng.below(4) as usize],
    }
}

/// Builds one case's pattern text and reference: `left_deep` chains one
/// `within` per transition (the learner's shape), otherwise one flat
/// `within` spans the whole sequence.
fn case(rng: &mut Rng, left_deep: bool, select: usize, consume_all: bool) -> (String, Model) {
    let n = 1 + rng.below(4) as usize;
    let steps: Vec<Step> = (0..n)
        .map(|_| (0..1 + rng.below(2)).map(|_| band(rng)).collect())
        .collect();
    let step_text = |s: &Step| {
        let terms: Vec<String> = s.iter().map(Band::text).collect();
        format!("k({})", terms.join(" and "))
    };
    let mut within = Vec::new();
    let mut text = step_text(&steps[0]);
    let mut budget = || 40 + 40 * rng.below(5) as i64;
    if left_deep {
        for (i, s) in steps.iter().enumerate().skip(1) {
            let w = budget();
            within.push((i - 1, i, w));
            let prev = if i > 1 { format!("({text})") } else { text };
            text = format!("{prev} -> {} within {w} ms", step_text(s));
        }
    } else if n > 1 {
        let w = 3 * budget();
        within.push((0, n - 1, w));
        let rest: Vec<String> = steps[1..].iter().map(step_text).collect();
        text = format!("{text} -> {} within {w} ms", rest.join(" -> "));
    }
    let policy = ["first", "last", "all"][select];
    let consume = if consume_all { "all" } else { "none" };
    text = format!("{text} select {policy} consume {consume}");
    let model = Model {
        steps,
        within,
        select,
        consume_all,
        runs: Vec::new(),
        seeded: 0,
        cap: usize::MAX,
        shed: 0,
    };
    (text, model)
}

/// What one case saw.
struct Outcome {
    detections: usize,
    shed: u64,
    /// The runtime held fewer runs than the reference after some batch.
    fewer: bool,
}

/// Draws case `case_no` and checks the runtime against the reference on
/// it: equal detections and sheds, and after every batch no more runs
/// than the reference — exactly as many with a `cap`.
fn check_case(
    rng: &mut Rng,
    case_no: usize,
    (left_deep, select, consume_all): (bool, usize, bool),
    cap: Option<usize>,
    step_back: bool,
) -> Outcome {
    let schema = schema();
    let funcs = FunctionRegistry::with_builtins();
    let (text, mut model) = case(rng, left_deep, select, consume_all);
    let pattern = parse_pattern(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let mut nfa = NfaRuntime::compile(&pattern, &SingleSchema(schema.clone()), &funcs).unwrap();
    if let Some(cap) = cap {
        nfa = nfa.with_max_runs(cap);
        model.cap = cap;
    }
    let columnar = rng.below(2) == 0;
    let batch = 1 + rng.below(40) as usize;
    let tuples = stream(rng, &schema, 240, step_back);

    let (mut want, mut got) = (Vec::new(), Vec::new());
    let mut out = MatchScratch::new();
    let mut block = ColumnBlock::new();
    let mut fewer = false;
    for chunk in tuples.chunks(batch) {
        for t in chunk {
            model.push(t, &mut want);
        }
        block.fill_from_tuples(chunk);
        out.clear();
        nfa.advance_block_into("k", chunk, columnar.then_some(&block), &mut out)
            .unwrap();
        got.extend(out.matches().map(|m| {
            let values = m.events.iter().map(|e| e.values().to_vec()).collect();
            (m.ts, m.started_at, values)
        }));
        let (runs, reference) = (nfa.active_runs(), model.runs.len());
        if cap.is_some() {
            assert_eq!(runs, reference, "case {case_no} `{text}` (cap {cap:?})");
        }
        assert!(
            runs <= reference,
            "case {case_no} `{text}`: {runs} > {reference} runs"
        );
        fewer |= runs < reference;
    }
    assert_eq!(
        got, want,
        "case {case_no} `{text}` (batch {batch}, block {columnar}, cap {cap:?})"
    );
    assert_eq!(
        nfa.shed_runs(),
        model.shed,
        "case {case_no}: sheds (the uncapped reference never sheds)"
    );
    Outcome {
        detections: want.len(),
        shed: model.shed,
        fewer,
    }
}

#[test]
fn merged_runtime_detects_what_the_unmerged_reference_does() {
    let mut rng = Rng(0x5EED_0024);
    // Cases where the runtime held fewer runs than the reference, by
    // select policy (first, last), on left-deep patterns.
    let mut fewer = [0u32; 2];
    let mut detections = 0;
    for case_no in 0..480 {
        let left_deep = case_no % 2 == 0;
        let (select, consume_all) = (case_no / 2 % 3, case_no / 6 % 2 == 0);
        let seen = check_case(
            &mut rng,
            case_no,
            (left_deep, select, consume_all),
            None,
            false,
        );
        if left_deep && select < 2 && seen.fewer {
            fewer[select] += 1;
        }
        detections += seen.detections;
    }
    assert!(detections > 1000, "the cases must detect: {detections}");
    assert!(fewer[0] > 0, "select first never merged a run");
    assert!(fewer[1] > 0, "select last never merged a run");
}

#[test]
fn merged_runtime_detects_what_the_reference_does_when_timestamps_step_back() {
    let mut rng = Rng(0x5EED_0024);
    let mut detections = 0;
    for case_no in 0..480 {
        let left_deep = case_no % 2 == 0;
        let (select, consume_all) = (case_no / 2 % 3, case_no / 6 % 2 == 0);
        let seen = check_case(
            &mut rng,
            case_no,
            (left_deep, select, consume_all),
            None,
            true,
        );
        detections += seen.detections;
    }
    eprintln!("step back: {detections} detections");
    assert!(detections > 1000, "the cases must detect: {detections}");
}

#[test]
fn capped_select_all_sheds_what_the_reference_does() {
    let mut rng = Rng(0xCA9_5EED);
    let (mut detections, mut shed) = (0, 0);
    for case_no in 0..240 {
        let cap = 1 + case_no % 4;
        let (left_deep, consume_all) = (case_no / 4 % 2 == 0, case_no / 8 % 2 == 0);
        let seen = check_case(
            &mut rng,
            case_no,
            (left_deep, 2, consume_all),
            Some(cap),
            false,
        );
        detections += seen.detections;
        shed += seen.shed;
    }
    eprintln!("capped: {detections} detections, {shed} sheds");
    assert!(detections > 1000, "the cases must detect: {detections}");
    assert!(shed > 1000, "the cap must shed: {shed}");
}
