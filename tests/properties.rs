//! Property-based tests over cross-crate invariants.

use gesto::cep::{
    parse_expr, parse_pattern, parse_query, BinOp, ConsumePolicy, Expr, Pattern, Query,
    SelectPolicy, SequencePattern, UnaryOp,
};
use gesto::kinect::{Joint, NoiseModel, Performer, Persona, SkeletonFrame, Vec3, JOINT_COUNT};
use gesto::learn::merging::resample_to;
use gesto::learn::sampling::{sample_path, CentroidMode, Strategy as SamplingStrategy};
use gesto::learn::{Metric, PathPoint, PoseWindow, Threshold};
use gesto::serve::net::wire::{self, ErrorCode, Message, WireDetection};
use gesto::stream::Value;
use gesto::transform::{TransformConfig, Transformer};
use proptest::prelude::*;

// ---------- generators ----------

/// Keywords of the query language, in any case: never a column, source
/// or function name (the parser would read them as keywords).
const RESERVED: &[&str] = &[
    "and", "or", "not", "true", "false", "within", "select", "consume", "matching",
];

fn not_reserved(s: &str) -> bool {
    !RESERVED.iter().any(|k| k.eq_ignore_ascii_case(s))
}

fn ident() -> impl proptest::strategy::Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_]{0,8}".prop_filter("reserved word", |s| not_reserved(s))
}

/// Characters the lexer treats specially, drawn more often than chance
/// would: quote, escape, comment/minus, non-ASCII, layout, punctuation.
const SPECIAL: &[char] = &[
    '"', '\\', '-', 'é', '€', '😀', '\n', '\t', ' ', '(', ')', ';',
];

/// Any `char`.
fn any_char() -> impl proptest::strategy::Strategy<Value = char> {
    prop_oneof![
        (0u32..0x11_0000).prop_map(|u| char::from_u32(u).unwrap_or('\u{fffd}')),
        (0u8..0x80).prop_map(char::from),
        (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
    ]
}

fn any_string(max_len: usize) -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..max_len).prop_map(|cs| cs.into_iter().collect())
}

/// Finite floats below 1e15 in magnitude, integral and fractional: they
/// print in at most about twenty digits, so no cut of query text joins
/// two of them into a literal that overflows.
fn finite_f64() -> impl proptest::strategy::Strategy<Value = f64> {
    prop_oneof![
        (-1000.0..1000.0f64).prop_map(|v| (v * 100.0).round() / 100.0),
        -1.0e15..1.0e15f64,
        -1.0..1.0f64,
    ]
}

/// Every expression the parser can produce: all of `BinOp`, `not`,
/// unary minus, calls, columns, finite numbers, any string, booleans.
/// Outside that domain (so never drawn): a unary minus over a number,
/// possibly through more unary minuses (the parser folds it into the
/// literal); `Int`, `Null`, `Timestamp` and non-finite literals; a
/// keyword as a column or function; an upper-case function name.
fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        finite_f64().prop_map(|v| Expr::Literal(Value::Float(v))),
        any_string(8).prop_map(|s| Expr::Literal(Value::Str(s))),
        (0u8..2).prop_map(|b| Expr::lit(b == 1)),
        // Columns twice, binary operators twice below: drawn twice as often.
        ident().prop_map(Expr::Column),
        ident().prop_map(Expr::Column),
    ];
    leaf.prop_recursive(depth, 64, 4, |inner| {
        let call = "[a-z_][a-z0-9_]{0,6}".prop_filter("reserved word", |s| not_reserved(s));
        prop_oneof![
            (0..BIN_OPS.len(), inner.clone(), inner.clone())
                .prop_map(|(i, a, b)| Expr::bin(BIN_OPS[i], a, b)),
            (0..BIN_OPS.len(), inner.clone(), inner.clone())
                .prop_map(|(i, a, b)| Expr::bin(BIN_OPS[i], a, b)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            }),
            inner
                .clone()
                .prop_filter("minus over a number", |e| !folds_into_a_number(e))
                .prop_map(|e| Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(e),
                }),
            (call, proptest::collection::vec(inner, 0..4))
                .prop_map(|(func, args)| Expr::Call { func, args }),
        ]
    })
    .boxed()
}

const BIN_OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::And,
    BinOp::Or,
];

/// A number under zero or more unary minuses, which a unary minus in
/// front would fold into.
fn folds_into_a_number(e: &Expr) -> bool {
    match e {
        Expr::Literal(Value::Float(_)) => true,
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => folds_into_a_number(expr),
        _ => false,
    }
}

/// Nested sequences with `within` in seconds and in ms, every `select`
/// and `consume` policy, over events with any predicate of [`arb_expr`].
fn arb_pattern() -> BoxedStrategy<Pattern> {
    let event = (ident(), arb_expr(3)).prop_map(|(src, pred)| Pattern::event(src, pred));
    let select = [SelectPolicy::First, SelectPolicy::All, SelectPolicy::Last];
    let consume = [ConsumePolicy::All, ConsumePolicy::None];
    event
        .prop_recursive(3, 16, 3, move |inner| {
            let within = prop_oneof![1i64..100_000, (1i64..100_000).prop_map(|s| s * 1000)];
            (
                proptest::collection::vec(inner, 1..4),
                proptest::option::of(within),
                0..select.len(),
                0..consume.len(),
            )
                .prop_map(move |(steps, within_ms, s, c)| {
                    Pattern::Sequence(SequencePattern {
                        steps,
                        within_ms,
                        select: select[s],
                        consume: consume[c],
                    })
                })
        })
        .boxed()
}

fn arb_query() -> BoxedStrategy<Query> {
    (any_string(12), arb_pattern())
        .prop_map(|(name, pattern)| Query::new(name, pattern))
        .boxed()
}

/// Words and punctuation of the dialect, well- and ill-formed, for
/// token soups that reach deeper into the parser than random characters.
const TOKENS: &[&str] = &[
    "SELECT",
    "select",
    "MATCHING",
    "kinect",
    "kinect_t",
    "(",
    ")",
    "->",
    ",",
    ";",
    "within",
    "WITHIN",
    "1",
    "0.5",
    ".5",
    "1e3",
    "1e",
    "seconds",
    "ms",
    "parsec",
    "select",
    "first",
    "last",
    "all",
    "consume",
    "none",
    "and",
    "OR",
    "not",
    "true",
    "x",
    "abs",
    "-",
    "--",
    "+",
    "*",
    "/",
    "<",
    "<=",
    ">",
    ">=",
    "=",
    "==",
    "!=",
    "<>",
    "!",
    "\"g\"",
    "\"a\\\"b\"",
    "\"wavé\"",
    "\"",
    "é",
    "$",
    "\\",
    "\n",
];

fn token_soup() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..24)
        .prop_map(|ix| ix.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join(" "))
}

/// `text` without the part between two points at fractions `a` and `b`
/// of its length (a fraction past 1 is the end): a prefix, a text with a
/// hole, or the whole text.
fn cut(text: &str, a: f64, b: f64) -> String {
    let at = |f: f64| {
        let mut i = ((f.min(1.0)) * text.len() as f64) as usize;
        while !text.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    let (from, to) = (at(a.min(b)), at(a.max(b)));
    format!("{}{}", &text[..from], &text[to..])
}

fn arb_path(max_len: usize) -> BoxedStrategy<Vec<PathPoint>> {
    proptest::collection::vec(
        (proptest::array::uniform3(-900.0..900.0f64)).prop_map(|c| c.to_vec()),
        1..max_len,
    )
    .prop_map(|feats| {
        feats
            .into_iter()
            .enumerate()
            .map(|(i, feat)| PathPoint::new(i as i64 * 33, feat))
            .collect()
    })
    .boxed()
}

// ---------- parser round trips ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expr_display_parse_roundtrip(e in arb_expr(3)) {
        let text = e.to_string();
        let parsed = parse_expr(&text)
            .unwrap_or_else(|err| panic!("'{text}' must parse: {err}"));
        prop_assert_eq!(parsed, e);
    }

    /// Print → parse is the identity on every query the parser can
    /// produce (the domain of [`arb_query`]): a durable server journals
    /// query text and parses it again at recovery.
    #[test]
    fn query_text_round_trips(q in arb_query()) {
        let text = q.to_query_text();
        let parsed = parse_query(&text)
            .unwrap_or_else(|err| panic!("generated query must parse: {err}\n{text}"));
        prop_assert_eq!(parsed, q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary strings, token soups and random cuts of valid query
    /// text go through all three entry points: each returns `Ok` or
    /// `Err` without a panic, and what it accepts prints to text that
    /// parses back to the same tree.
    #[test]
    fn query_parser_never_panics(
        chars in any_string(64),
        soup in token_soup(),
        q in arb_query(),
        hole in (0.0..1.2f64, 0.0..1.2f64),
    ) {
        let cut_text = cut(&q.to_query_text(), hole.0, hole.1);
        for src in [&chars, &soup, &cut_text] {
            if let Ok(e) = parse_expr(src) {
                prop_assert_eq!(parse_expr(&e.to_string()).ok(), Some(e), "{:?}", src);
            }
            if let Ok(p) = parse_pattern(src) {
                prop_assert_eq!(parse_pattern(&p.to_string()).ok(), Some(p), "{:?}", src);
            }
            if let Ok(q) = parse_query(src) {
                prop_assert_eq!(parse_query(&q.to_query_text()).ok(), Some(q), "{:?}", src);
            }
        }
    }
}

// ---------- GSW1 byte stream ----------

/// Any `u64`, its extremes drawn more often than chance would.
fn any_u64() -> impl proptest::strategy::Strategy<Value = u64> {
    prop_oneof![
        0u64..u64::MAX,
        (0usize..3).prop_map(|i| [0, 1, u64::MAX][i])
    ]
}

fn any_i64() -> impl proptest::strategy::Strategy<Value = i64> {
    any_u64().prop_map(|v| v as i64)
}

fn any_u16() -> impl proptest::strategy::Strategy<Value = u16> {
    (0u32..0x1_0000).prop_map(|v| v as u16)
}

fn any_u32() -> impl proptest::strategy::Strategy<Value = u32> {
    any_u64().prop_map(|v| v as u32)
}

/// Any `f64` bit pattern: NaN payloads, infinities, signed zeros and
/// subnormals included.
fn any_f64_bits() -> impl proptest::strategy::Strategy<Value = f64> {
    any_u64().prop_map(f64::from_bits)
}

/// Strings of at most 64 bytes (16 chars of up to 4 bytes each).
fn wire_string() -> impl proptest::strategy::Strategy<Value = String> {
    any_string(17)
}

fn any_value() -> impl proptest::strategy::Strategy<Value = Value> {
    prop_oneof![
        (0u8..1).prop_map(|_| Value::Null),
        any_i64().prop_map(Value::Int),
        any_f64_bits().prop_map(Value::Float),
        wire_string().prop_map(Value::Str),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        any_i64().prop_map(Value::Timestamp),
    ]
}

fn any_frame() -> impl proptest::strategy::Strategy<Value = SkeletonFrame> {
    let joint = proptest::option::of(proptest::array::uniform3(any_f64_bits()));
    (
        any_i64(),
        any_i64(),
        proptest::collection::vec(joint, JOINT_COUNT..JOINT_COUNT + 1),
    )
        .prop_map(|(ts, player, joints)| {
            let mut f = SkeletonFrame::empty(ts, player);
            for (slot, j) in f.joints.iter_mut().zip(joints) {
                *slot = j.map(|[x, y, z]| Vec3::new(x, y, z));
            }
            f
        })
}

fn any_detection() -> impl proptest::strategy::Strategy<Value = WireDetection> {
    (
        (any_u64(), any_i64(), any_i64()),
        wire_string(),
        proptest::collection::vec(proptest::collection::vec(any_value(), 0..8), 0..6),
    )
        .prop_map(
            |((session, ts, started_at), gesture, events)| WireDetection {
                session,
                ts,
                started_at,
                gesture,
                events,
            },
        )
}

/// Every message type, each field over its whole domain.
fn any_message() -> BoxedStrategy<Message> {
    prop_oneof![
        (any_u16(), any_u16()).prop_map(|(version, flags)| Message::Hello { version, flags }),
        any_u64().prop_map(|session| Message::OpenSession { session }),
        (any_u64(), proptest::collection::vec(any_frame(), 0..65))
            .prop_map(|(session, frames)| Message::FrameBatch { session, frames }),
        any_u64().prop_map(|session| Message::CloseSession { session }),
        any_u64().prop_map(|token| Message::Ping { token }),
        (0u8..1).prop_map(|_| Message::Bye),
        wire_string().prop_map(|text| Message::Deploy { text }),
        wire_string().prop_map(|name| Message::Undeploy { name }),
        (any_u16(), any_u16(), any_u32()).prop_map(|(version, flags, credits)| {
            Message::HelloAck {
                version,
                flags,
                credits,
            }
        }),
        any_u32().prop_map(|frames| Message::Credit { frames }),
        any_detection().prop_map(Message::Detection),
        (any_u16(), wire_string()).prop_map(|(code, detail)| Message::Error {
            code: ErrorCode::from_code(code),
            detail,
        }),
        any_u64().prop_map(|token| Message::Pong { token }),
        any_u64().prop_map(|session| Message::SessionClosed { session }),
        proptest::option::of(wire_string()).prop_map(|error| Message::ControlAck { error }),
    ]
    .boxed()
}

/// A message's bytes. Every float travels as its IEEE-754 bits, so two
/// messages with equal bytes are equal bit for bit, NaN payloads and
/// signed zeros included.
fn gsw1_bytes(msg: &Message) -> Vec<u8> {
    let mut bytes = Vec::new();
    wire::encode(msg, &mut bytes);
    bytes
}

/// Decodes `bytes` from the front until a message is incomplete or
/// malformed. Each decoded message must re-encode to bytes that decode
/// back to it.
fn consume_gsw1(mut bytes: &[u8]) {
    while let Ok(Some((msg, used))) = wire::decode(bytes) {
        assert!(
            (5..=bytes.len()).contains(&used),
            "consumed {used} of {}",
            bytes.len()
        );
        let again = gsw1_bytes(&msg);
        let (back, n) = wire::decode(&again).unwrap().unwrap();
        assert_eq!(n, again.len());
        assert_eq!(gsw1_bytes(&back), again);
        bytes = &bytes[used..];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 1–8 messages of every type, concatenated, read over every split:
    /// at each cut, what has arrived decodes to the next messages in
    /// order, or to `Ok(None)` while one is incomplete, never to an
    /// error; consuming from the front returns the original sequence.
    #[test]
    fn gsw1_stream_round_trips(msgs in proptest::collection::vec(any_message(), 1..9)) {
        let encoded: Vec<Vec<u8>> = msgs.iter().map(gsw1_bytes).collect();
        let stream = encoded.concat();
        let (mut at, mut next) = (0, 0);
        for end in 0..=stream.len() {
            while let Some((msg, used)) = wire::decode(&stream[at..end])
                .unwrap_or_else(|e| panic!("prefix of {end} bytes: {e}"))
            {
                prop_assert_eq!(gsw1_bytes(&msg), encoded[next].clone());
                prop_assert_eq!(used, encoded[next].len());
                at += used;
                next += 1;
            }
        }
        prop_assert_eq!(next, msgs.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, arbitrary bodies under a valid envelope header
    /// of any type, valid streams with one byte changed, and valid
    /// streams with a hole cut out: the decoder returns on each without
    /// a panic.
    #[test]
    fn gsw1_decoder_never_panics(
        noise in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
        ty in (0u16..256).prop_map(|b| b as u8),
        msgs in proptest::collection::vec(any_message(), 1..4),
        edit in (0.0..1.0f64, 0.0..1.2f64, 0.0..1.2f64, (0u16..256).prop_map(|b| b as u8)),
    ) {
        let (at, from, to, byte) = edit;
        let mut typed = (1 + noise.len() as u32).to_le_bytes().to_vec();
        typed.push(ty);
        typed.extend_from_slice(&noise);
        let stream: Vec<u8> = msgs.iter().flat_map(gsw1_bytes).collect();
        let mut changed = stream.clone();
        changed[(at * stream.len() as f64) as usize] = byte;
        let cut_at = |f: f64| ((f.min(1.0)) * stream.len() as f64) as usize;
        let (lo, hi) = (cut_at(from.min(to)), cut_at(from.max(to)));
        let holed = [&stream[..lo], &stream[hi..]].concat();
        for bytes in [&noise, &typed, &changed, &holed] {
            consume_gsw1(bytes);
        }
    }
}

// ---------- window algebra ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn union_commutes_and_contains(
        ca in proptest::array::uniform3(-500.0..500.0f64),
        wa in proptest::array::uniform3(0.0..200.0f64),
        cb in proptest::array::uniform3(-500.0..500.0f64),
        wb in proptest::array::uniform3(0.0..200.0f64),
    ) {
        let a = PoseWindow::new(ca.to_vec(), wa.to_vec());
        let b = PoseWindow::new(cb.to_vec(), wb.to_vec());
        let u1 = a.union(&b);
        let u2 = b.union(&a);
        for d in 0..3 {
            prop_assert!((u1.center[d] - u2.center[d]).abs() < 1e-9);
            prop_assert!((u1.width[d] - u2.width[d]).abs() < 1e-9);
            prop_assert!(u1.min(d) <= a.min(d) + 1e-9);
            prop_assert!(u1.max(d) >= b.max(d) - 1e-9);
        }
        prop_assert!(u1.volume() >= a.volume().max(b.volume()) - 1e-6);
        // Union intersects both inputs.
        prop_assert!(u1.intersects(&a) && u1.intersects(&b));
    }

    #[test]
    fn intersection_symmetric_and_contained(
        ca in proptest::array::uniform3(-300.0..300.0f64),
        wa in proptest::array::uniform3(1.0..300.0f64),
        cb in proptest::array::uniform3(-300.0..300.0f64),
        wb in proptest::array::uniform3(1.0..300.0f64),
    ) {
        let a = PoseWindow::new(ca.to_vec(), wa.to_vec());
        let b = PoseWindow::new(cb.to_vec(), wb.to_vec());
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(i.volume() <= a.volume() + 1e-6);
            prop_assert!(i.volume() <= b.volume() + 1e-6);
            // Intersection centre lies in both.
            prop_assert!(a.contains(&i.center) && b.contains(&i.center));
        }
    }

    #[test]
    fn extend_to_makes_containing(
        c in proptest::array::uniform3(-500.0..500.0f64),
        w in proptest::array::uniform3(0.0..100.0f64),
        p in proptest::array::uniform3(-800.0..800.0f64),
    ) {
        let mut win = PoseWindow::new(c.to_vec(), w.to_vec());
        let before = win.clone();
        win.extend_to(&p);
        prop_assert!(win.contains(&p));
        // Extension is monotone: old bounds still inside.
        for d in 0..3 {
            prop_assert!(win.min(d) <= before.min(d) + 1e-9);
            prop_assert!(win.max(d) >= before.max(d) - 1e-9);
        }
    }
}

// ---------- sampling invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sampling_preserves_order_and_start(path in arb_path(80)) {
        let out = sample_path(&path, SamplingStrategy::default());
        prop_assert!(!out.is_empty());
        prop_assert_eq!(&out[0], &path[0]);
        for w in out.windows(2) {
            prop_assert!(w[0].ts <= w[1].ts);
        }
        prop_assert!(out.len() <= path.len() + 1);
    }

    #[test]
    fn sampling_monotone_in_threshold(path in arb_path(60)) {
        let count = |f: f64| sample_path(&path, SamplingStrategy::DistanceBased {
            metric: Metric::Euclidean,
            threshold: Threshold::RelativePathFraction(f),
            centroid: CentroidMode::Reference,
        }).len();
        // Cluster count is monotone in the threshold; the optional end
        // anchor adds at most one point, so allow +1 slack.
        let mut prev = usize::MAX;
        for f in [0.05, 0.15, 0.3, 0.6] {
            let n = count(f);
            prop_assert!(n <= prev.saturating_add(1), "fraction {} gave {} > {}+1", f, n, prev);
            prev = n;
        }
    }

    #[test]
    fn resample_endpoints_fixed(path in arb_path(40), n in 2usize..12) {
        let out = resample_to(&path, n, Metric::Euclidean);
        if path.len() >= 2 {
            prop_assert_eq!(out.len(), n);
            let eps = 1e-6;
            for d in 0..3 {
                prop_assert!((out[0].feat[d] - path[0].feat[d]).abs() < eps);
                prop_assert!(
                    (out[n - 1].feat[d] - path[path.len() - 1].feat[d]).abs() < eps
                );
            }
        }
    }
}

// ---------- transform invariance ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn transform_cancels_user_placement(
        height in 1000.0..2200.0f64,
        x in -1500.0..1500.0f64,
        z in 1500.0..3500.0f64,
        yaw in -1.2..1.2f64,
    ) {
        let render = |persona: Persona| -> Vec<SkeletonFrame> {
            let mut perf = Performer::new(persona, 0);
            let frames = perf.render(&gesto::kinect::gestures::swipe_right());
            let mut tr = Transformer::new(TransformConfig::default());
            frames.iter().filter_map(|f| tr.transform_frame(f)).collect()
        };
        let reference = render(Persona::reference());
        let varied = render(
            Persona::reference()
                .with_height(height)
                .at(x, z)
                .rotated(yaw)
                .with_noise(NoiseModel::NONE),
        );
        prop_assert_eq!(reference.len(), varied.len());
        for (a, b) in reference.iter().zip(&varied) {
            let pa = a.joint(Joint::RightHand).unwrap();
            let pb = b.joint(Joint::RightHand).unwrap();
            prop_assert!(pa.dist(&pb) < 1e-6, "invariance violated: {:?} vs {:?}", pa, pb);
        }
    }
}

// ---------- candidate-row stepping vs the per-route oracle ----------

/// Detections as comparable `(gesture, ts, started_at, events)` keys,
/// sorted. The matched events are rendered value by value (`{:?}` of an
/// `f64` round-trips, so equal strings mean bit-equal values): a
/// detection whose event tuples changed after it fired no longer equals
/// the oracle's.
fn detection_keys(ds: &[gesto::cep::Detection]) -> Vec<(String, i64, i64, Vec<String>)> {
    let mut keys: Vec<_> = ds
        .iter()
        .map(|d| {
            let events = d.events.iter().map(|t| format!("{:?}", t.values()));
            (d.gesture.clone(), d.ts, d.started_at, events.collect())
        })
        .collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random traces × random batch splits × the scalar/columnar dial:
    /// a server session detects exactly what the per-route oracle
    /// (private view operators, one-tuple scalar stepping) detects. The
    /// right hand mostly rests between the patterns' bands, so most rows
    /// are ones the block path skips, and timestamps jump far enough —
    /// backwards too — to blow `within` budgets inside those skipped
    /// spans only.
    #[test]
    fn server_detects_what_the_per_route_oracle_does(
        trace in proptest::collection::vec(
            (-300i64..400, -1.0..1.0f64, -1.0..1.0f64),
            30..150,
        ),
        splits in proptest::collection::vec(1usize..48, 1..12),
    ) {
        use gesto::cep::fixtures::PerRouteReference;
        use gesto::serve::{BackpressurePolicy, Server, ServerConfig, SessionId};
        use std::sync::{Arc, Mutex};

        const QUERIES: [&str; 3] = [
            r#"SELECT "sweep" MATCHING kinect(rHand_x - torso_x < -250)
               -> kinect(abs(rHand_x - torso_x) < 40) -> kinect(rHand_x - torso_x > 250)
               within 2 seconds select first consume all;"#,
            r#"SELECT "lift_t" MATCHING kinect_t(rHand_y > 150) -> kinect_t(rHand_y < -150)
               within 1 seconds select all consume none;"#,
            r#"SELECT "reach_t" MATCHING kinect_t(rHand_x > 200) -> kinect_t(rHand_x < -200)
               within 1 seconds select last consume all;"#,
        ];

        // An idle skeleton with the right hand moved about the torso:
        // `u^5` keeps it near rest most of the time.
        let rest = Performer::new(Persona::reference(), 0).render_idle(40).remove(0);
        let torso = rest.joint(Joint::Torso).unwrap();
        let mut ts = 0;
        let frames: Vec<SkeletonFrame> = trace
            .iter()
            .map(|&(dt, ux, uy)| {
                ts += dt;
                let mut f = rest.clone();
                f.ts = ts;
                let offset = gesto::kinect::Vec3::new(600.0 * ux.powi(5), 600.0 * uy.powi(5), -150.0);
                f.set_joint(Joint::RightHand, torso + offset);
                f
            })
            .collect();

        let expect = {
            let engine = gesto::cep::Engine::new(gesto::transform::standard_catalog());
            let mut oracles: Vec<_> = QUERIES
                .iter()
                .map(|q| PerRouteReference::new(&engine.compile(parse_query(q).unwrap()).unwrap()))
                .collect();
            let mut out = Vec::new();
            for t in gesto::kinect::frames_to_tuples(&frames, &gesto::kinect::kinect_schema()) {
                for oracle in &mut oracles {
                    oracle.push(gesto::kinect::KINECT_STREAM, &t, &mut out).unwrap();
                }
            }
            detection_keys(&out)
        };

        for threshold in [0, ServerConfig::new().columnar_min_batch, usize::MAX] {
            let mut config = ServerConfig::new()
                .with_shards(1)
                .with_backpressure(BackpressurePolicy::Block);
            config.columnar_min_batch = threshold;
            let server = Server::start(config);
            for q in QUERIES {
                server.deploy_text(q).unwrap();
            }
            // The sink keeps every detection — and with it the matched
            // event tuples — until the run is over; the keys are taken
            // only then.
            let hits = Arc::new(Mutex::new(Vec::new()));
            let sink = hits.clone();
            server.on_detection(Arc::new(move |_, d: &gesto::cep::Detection| {
                sink.lock().unwrap().push(d.clone());
            }));
            let mut rest = frames.as_slice();
            for n in splits.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at((*n).min(rest.len()));
                server.push_batch(SessionId(7), chunk.to_vec()).unwrap();
                rest = tail;
            }
            server.drain().unwrap();
            let got = detection_keys(&hits.lock().unwrap());
            server.shutdown();
            prop_assert_eq!(&got, &expect, "columnar_min_batch = {}", threshold);
        }
    }
}

/// A catalog of the standard `kinect` and `kinect_t` plus two views over
/// the raw stream: `kinect_d` (the right hand relative to the torso,
/// mirrored or scaled by 1.5) and `kinect_r` (the right hand relative to
/// the torso).
fn view_catalog(mirror: bool) -> std::sync::Arc<gesto::stream::Catalog> {
    use gesto::stream::{ops::MapOp, Catalog, Tuple, Value, ViewDef};
    use gesto::transform::{register_kinect_t, TransformConfig};
    use std::sync::Arc;

    let mut catalog = Catalog::new();
    catalog
        .register_stream(gesto::kinect::kinect_schema())
        .unwrap();
    register_kinect_t(&mut catalog, TransformConfig::default()).unwrap();
    let mut map_view = |name: &str, input: &str, f: fn(&mut [Value], &[Value]) -> Option<()>| {
        let schema = gesto::kinect::schema_named(name, "");
        let out = schema.clone();
        let factory: gesto::stream::ViewFactory = Arc::new(move || {
            let out = out.clone();
            Box::new(MapOp::new("map", out.clone(), move |t: &Tuple| {
                let mut values = t.values().to_vec();
                f(&mut values, t.values())?;
                Some(Tuple::new_unchecked(out.clone(), values))
            }))
        });
        let def = ViewDef {
            name: name.into(),
            input: input.into(),
            schema,
            factory,
        };
        catalog.register_view(def).unwrap();
    };
    let s = gesto::kinect::kinect_schema();
    let col = |n: &str| s.index_of(n).unwrap();
    let (x, y, tx, ty) = (
        col("rHand_x"),
        col("rHand_y"),
        col("torso_x"),
        col("torso_y"),
    );
    assert_eq!(
        (x, y, tx, ty),
        (26, 27, 8, 9),
        "the offsets the views below hard-code"
    );
    if mirror {
        map_view("kinect_d", gesto::kinect::KINECT_STREAM, |v, t| {
            v[26] = Value::Float(t[8].as_f64()? - t[26].as_f64()?);
            v[27] = Value::Float(t[27].as_f64()? - t[9].as_f64()?);
            Some(())
        });
    } else {
        map_view("kinect_d", gesto::kinect::KINECT_STREAM, |v, t| {
            v[26] = Value::Float(1.5 * (t[26].as_f64()? - t[8].as_f64()?));
            v[27] = Value::Float(1.5 * (t[27].as_f64()? - t[9].as_f64()?));
            Some(())
        });
    }
    map_view("kinect_r", gesto::kinect::KINECT_STREAM, |v, t| {
        v[26] = Value::Float(t[26].as_f64()? - t[8].as_f64()?);
        v[27] = Value::Float(t[27].as_f64()? - t[9].as_f64()?);
        Some(())
    });
    Arc::new(catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random view catalogs × random plan subsets — single- and
    /// multi-route, with and without a route on the raw stream — ×
    /// sessions in 1-, 7- and 30-frame batches (scalar and block path):
    /// a server detects exactly what the per-route oracle detects, event
    /// values included. Covers plans mixing `kinect_t`'s deferred rows
    /// with tuple views over the raw stream, and multi-route plans
    /// stepping frame by frame.
    #[test]
    fn server_detects_what_the_per_route_oracle_does_over_random_view_catalogs(
        trace in proptest::collection::vec(
            (0i64..120, -1.0..1.0f64, -1.0..1.0f64),
            60..140,
        ),
        mirror in 0u8..2,
        subset in 1u32..64,
    ) {
        use gesto::cep::fixtures::PerRouteReference;
        use gesto::cep::{Engine, QueryPlan};
        use gesto::serve::{BackpressurePolicy, Server, ServerConfig, SessionId};
        use std::sync::{Arc, Mutex};

        const QUERIES: [&str; 6] = [
            r#"SELECT "t" MATCHING kinect_t(rHand_x > 200) -> kinect_t(rHand_x < -200)
               within 1 seconds select last consume all;"#,
            r#"SELECT "d" MATCHING kinect_d(rHand_y > 150) -> kinect_d(rHand_y < -150)
               within 1 seconds select all consume none;"#,
            r#"SELECT "r" MATCHING kinect_r(rHand_x < -250) -> kinect_r(rHand_x > 250)
               within 2 seconds select first consume all;"#,
            r#"SELECT "td" MATCHING kinect_t(rHand_x < 100) -> kinect_d(rHand_x < -200)
               within 2 seconds select first consume all;"#,
            r#"SELECT "raw_t" MATCHING kinect(rHand_x - torso_x < -250) -> kinect_t(rHand_x > 200)
               within 2 seconds select first consume all;"#,
            r#"SELECT "rd" MATCHING kinect_r(rHand_y > 150) -> kinect_d(rHand_y < -150)
               -> kinect_t(rHand_y > 150) within 2 seconds select all consume all;"#,
        ];

        let rest = Performer::new(Persona::reference(), 0).render_idle(40).remove(0);
        let torso = rest.joint(Joint::Torso).unwrap();
        let mut ts = 0;
        let frames: Vec<SkeletonFrame> = trace
            .iter()
            .map(|&(dt, ux, uy)| {
                ts += dt;
                let mut f = rest.clone();
                f.ts = ts;
                let offset = gesto::kinect::Vec3::new(600.0 * ux.powi(3), 600.0 * uy.powi(3), -150.0);
                f.set_joint(Joint::RightHand, torso + offset);
                f
            })
            .collect();

        let catalog = view_catalog(mirror == 1);
        let engine = Engine::new(catalog.clone());
        let plans: Vec<Arc<QueryPlan>> = QUERIES
            .iter()
            .enumerate()
            .filter(|(i, _)| subset & (1 << i) != 0)
            .map(|(_, q)| engine.compile(parse_query(q).unwrap()).unwrap())
            .collect();
        let expect = {
            let mut oracles: Vec<_> = plans.iter().map(PerRouteReference::new).collect();
            let mut out = Vec::new();
            for t in gesto::kinect::frames_to_tuples(&frames, &gesto::kinect::kinect_schema()) {
                for oracle in &mut oracles {
                    oracle.push(gesto::kinect::KINECT_STREAM, &t, &mut out).unwrap();
                }
            }
            detection_keys(&out)
        };

        let server = Server::try_with_parts(
            ServerConfig::new().with_shards(1).with_backpressure(BackpressurePolicy::Block),
            catalog,
            engine.functions().clone(),
            Arc::new(gesto::db::GestureStore::new()),
        )
        .unwrap();
        for p in &plans {
            server.deploy_plan(p.clone()).unwrap();
        }
        let hits = Arc::new(Mutex::new(Vec::new()));
        let sink = hits.clone();
        server.on_detection(Arc::new(move |s: SessionId, d: &gesto::cep::Detection| {
            sink.lock().unwrap().push((s, d.clone()));
        }));
        let sizes = [1, 7, 30];
        for (s, size) in sizes.iter().enumerate() {
            for chunk in frames.chunks(*size) {
                server.push_batch(SessionId(s as u64), chunk.to_vec()).unwrap();
            }
        }
        server.drain().unwrap();
        let hits = hits.lock().unwrap().clone();
        server.shutdown();
        for (s, size) in sizes.iter().enumerate() {
            let own: Vec<_> = hits.iter().filter(|h| h.0 == SessionId(s as u64)).map(|h| h.1.clone()).collect();
            prop_assert_eq!(&detection_keys(&own), &expect, "{}-frame batches", size);
        }
    }
}
