//! Recursive-descent parser for the gesture query dialect.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query     := SELECT string MATCHING sequence ';'?
//! sequence  := step ( '->' step )* modifiers
//! modifiers := [ WITHIN number unit ] [ SELECT (first|all|last) ]
//!              [ CONSUME (all|none) ]
//! unit      := seconds|second|sec|s|ms|millisecond(s)
//! step      := ident '(' expr ')' | '(' sequence ')'
//! expr      := unary ( binop unary )*
//! unary     := ( '-' | NOT ) unary | primary
//! primary   := number | string | TRUE | FALSE | '(' expr ')'
//!            | ident [ '(' [ expr ( ',' expr )* ] ')' ]
//! ```
//!
//! `binop` is ranked by [`BinOp::precedence`], the table the printer
//! parenthesises by: `or` < `and` < comparisons < `+ -` < `* /`. Every
//! operator is left-associative, and a comparison does not chain: its
//! left operand holds no `or`, `and` or comparison outside parentheses,
//! so `a < b < c` is an error and `a and b < c` is `a and (b < c)`.
//!
//! Nesting is bounded by [`MAX_NESTING`]: compiling, evaluating,
//! printing and dropping a query all recurse over its tree, so text
//! nested deeper is refused with a [`CepError::Parse`] at the token that
//! crosses the bound instead of overflowing the stack.

use gesto_stream::Value;

use crate::error::CepError;
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::lexer::{lex, Token, TokenKind};
use crate::pattern::{ConsumePolicy, Pattern, Query, SelectPolicy, SequencePattern};

/// The deepest nesting the parser accepts. Each parenthesis, unary
/// operator, event predicate, function call and nested `( sequence )`
/// step is one level, and so is each link of an operator chain: the
/// tree of `a + b + c` is left-deep, two levels. Learned queries stay
/// far below: the texts learned for the standard gesture library nest at
/// most 10 levels (five poses over one hand's three coordinates), and
/// each further pose or coordinate adds one. A 30 000-term chain
/// overflows a 2 MiB stack in the recursions over its tree.
const MAX_NESTING: usize = 128;

/// Parses a complete `SELECT ... MATCHING ...;` query.
pub fn parse_query(src: &str) -> Result<Query, CepError> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses a bare pattern (the part after `MATCHING`, without trailing
/// semicolon).
pub fn parse_pattern(src: &str) -> Result<Pattern, CepError> {
    let mut p = Parser::new(src)?;
    let pat = p.sequence()?;
    p.expect_eof()?;
    Ok(pat)
}

/// Parses a bare expression (useful for manually adding separating
/// constraints to generated queries, §3.3.2).
pub fn parse_expr(src: &str) -> Result<Expr, CepError> {
    let mut p = Parser::new(src)?;
    let (e, _) = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of nesting open around the token at `pos`.
    open: usize,
}

/// An expression with its height: the levels of nesting inside it.
type Nested = (Expr, usize);

impl Parser {
    fn new(src: &str) -> Result<Self, CepError> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            open: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> CepError {
        CepError::Parse {
            offset: self.peek().offset,
            message: message.into(),
        }
    }

    /// Fails with a parse error at `offset` when `height` more levels
    /// under the open ones pass [`MAX_NESTING`].
    fn bound(&self, height: usize, offset: usize) -> Result<(), CepError> {
        if self.open + height > MAX_NESTING {
            return Err(CepError::Parse {
                offset,
                message: format!("query nests deeper than {MAX_NESTING} levels"),
            });
        }
        Ok(())
    }

    /// Runs `f` one level of nesting deeper, inside the token `opener`
    /// just consumed; refuses `opener` if that level passes
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        opener: Token,
        f: impl FnOnce(&mut Self) -> Result<T, CepError>,
    ) -> Result<T, CepError> {
        self.bound(1, opener.offset)?;
        self.open += 1;
        let out = f(self)?;
        self.open -= 1;
        Ok(out)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, CepError> {
        if &self.peek().kind == kind {
            Ok(self.next())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_eof(&self) -> Result<(), CepError> {
        match &self.peek().kind {
            TokenKind::Eof => Ok(()),
            other => Err(self.error(format!("trailing input: {}", other.describe()))),
        }
    }

    /// Consumes an identifier equal (case-insensitively) to `kw`.
    fn keyword(&mut self, kw: &str) -> Result<(), CepError> {
        match &self.peek().kind {
            TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw) => {
                self.next();
                Ok(())
            }
            other => Err(self.error(format!(
                "expected keyword '{kw}', found {}",
                other.describe()
            ))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consumes the next token if it is the keyword `kw`.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        let found = self.peek_keyword(kw);
        if found {
            self.next();
        }
        found
    }

    /// Consumes the next token, which must be a word, and returns it
    /// lower-cased; `expected` names what belongs there.
    fn word(&mut self, expected: &str) -> Result<String, CepError> {
        match self.next().kind {
            TokenKind::Ident(w) => Ok(w.to_ascii_lowercase()),
            other => Err(self.error(format!("expected {expected}, found {}", other.describe()))),
        }
    }

    fn query(&mut self) -> Result<Query, CepError> {
        self.keyword("select")?;
        let name = match self.next().kind {
            TokenKind::Str(s) => s,
            other => {
                return Err(self.error(format!(
                    "expected quoted gesture name after SELECT, found {}",
                    other.describe()
                )))
            }
        };
        self.keyword("matching")?;
        let pattern = self.sequence()?;
        if self.peek().kind == TokenKind::Semicolon {
            self.next();
        }
        Ok(Query { name, pattern })
    }

    fn sequence(&mut self) -> Result<Pattern, CepError> {
        let mut steps = vec![self.step()?];
        while self.peek().kind == TokenKind::Arrow {
            self.next();
            steps.push(self.step()?);
        }
        let mut within_ms = None;
        let mut select = None;
        let mut consume = None;
        if self.eat_keyword("within") {
            let n = match self.next().kind {
                TokenKind::Number(n) => n,
                other => {
                    return Err(self.error(format!(
                        "expected duration after 'within', found {}",
                        other.describe()
                    )))
                }
            };
            let unit = self.word("time unit after duration")?;
            let ms = match unit.as_str() {
                "seconds" | "second" | "sec" | "s" => n * 1000.0,
                "ms" | "millisecond" | "milliseconds" => n,
                _ => return Err(self.error(format!("unknown time unit '{unit}'"))),
            };
            // Stored in whole milliseconds, so it must round to one.
            if ms.round() < 1.0 {
                return Err(self.error("'within' duration must be at least 1 ms"));
            }
            within_ms = Some(ms.round() as i64);
        }
        if self.eat_keyword("select") {
            let all = [SelectPolicy::First, SelectPolicy::All, SelectPolicy::Last];
            select = Some(self.policy("select", &all, SelectPolicy::keyword)?);
        }
        if self.eat_keyword("consume") {
            let all = [ConsumePolicy::All, ConsumePolicy::None];
            consume = Some(self.policy("consume", &all, ConsumePolicy::keyword)?);
        }

        // A single step with no modifiers collapses to the step itself.
        if steps.len() == 1 && within_ms.is_none() && select.is_none() && consume.is_none() {
            return Ok(steps.pop().expect("one step"));
        }
        Ok(Pattern::Sequence(SequencePattern {
            steps,
            within_ms,
            select: select.unwrap_or_default(),
            consume: consume.unwrap_or_default(),
        }))
    }

    /// Reads the policy word after `modifier`, spelled as `keyword` spells
    /// one of `all`.
    fn policy<P: Copy>(
        &mut self,
        modifier: &str,
        all: &[P],
        keyword: fn(&P) -> &'static str,
    ) -> Result<P, CepError> {
        let words: Vec<_> = all.iter().map(keyword).collect();
        let word = self.word(&format!("{} after '{modifier}'", words.join("|")))?;
        all.iter()
            .copied()
            .find(|p| keyword(p) == word)
            .ok_or_else(|| self.error(format!("unknown {modifier} policy '{word}'")))
    }

    fn step(&mut self) -> Result<Pattern, CepError> {
        match self.peek().kind.clone() {
            TokenKind::LParen => {
                let opener = self.next();
                let inner = self.nested(opener, Self::sequence)?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(source) => {
                // Reserved words cannot start a step.
                for kw in ["within", "select", "consume"] {
                    if source.eq_ignore_ascii_case(kw) {
                        return Err(self.error(format!(
                            "unexpected keyword '{source}' where an event pattern was expected"
                        )));
                    }
                }
                self.next();
                let opener = self.expect(&TokenKind::LParen)?;
                let (predicate, _) = self.nested(opener, Self::expr)?;
                self.expect(&TokenKind::RParen)?;
                Ok(Pattern::event(source, predicate))
            }
            other => Err(self.error(format!(
                "expected event pattern or '(', found {}",
                other.describe()
            ))),
        }
    }

    // ----- expressions -----

    fn expr(&mut self) -> Result<Nested, CepError> {
        self.binary(0)
    }

    /// The binary operator the next token spells, if any.
    fn peek_op(&self) -> Option<BinOp> {
        match &self.peek().kind {
            TokenKind::Op(op) => Some(*op),
            TokenKind::Ident(w) => [BinOp::And, BinOp::Or]
                .into_iter()
                .find(|op| w.eq_ignore_ascii_case(op.symbol())),
            _ => None,
        }
    }

    /// Precedence climbing over operators of rank `min_prec` and up,
    /// left-associative. A comparison's left operand is arithmetic, so
    /// none follows an operator of comparison rank or lower at this level.
    /// Each link nests the chain so far one level deeper.
    fn binary(&mut self, min_prec: u8) -> Result<Nested, CepError> {
        let (mut lhs, mut height) = self.unary()?;
        let mut arithmetic = true;
        while let Some(op) = self.peek_op() {
            let prec = op.precedence();
            if prec < min_prec || (op.is_comparison() && !arithmetic) {
                break;
            }
            let offset = self.next().offset;
            let (rhs, rhs_height) = self.binary(prec + 1)?;
            height = height.max(rhs_height) + 1;
            self.bound(height, offset)?;
            lhs = Expr::bin(op, lhs, rhs);
            arithmetic &= prec > BinOp::Eq.precedence();
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<Nested, CepError> {
        let op = if self.peek().kind == TokenKind::Op(BinOp::Sub) {
            UnaryOp::Neg
        } else if self.peek_keyword("not") {
            UnaryOp::Not
        } else {
            return self.primary();
        };
        let opener = self.next();
        let (e, height) = self.nested(opener, Self::unary)?;
        let e = match (op, e) {
            // Fold negation into numeric literals for cleaner ASTs.
            (UnaryOp::Neg, Expr::Literal(Value::Float(f))) => Expr::Literal(Value::Float(-f)),
            (op, e) => Expr::Unary {
                op,
                expr: Box::new(e),
            },
        };
        Ok((e, height + 1))
    }

    fn primary(&mut self) -> Result<Nested, CepError> {
        match self.peek().kind.clone() {
            TokenKind::Number(n) => {
                self.next();
                Ok((Expr::Literal(Value::Float(n)), 0))
            }
            TokenKind::Str(s) => {
                self.next();
                Ok((Expr::Literal(Value::Str(s)), 0))
            }
            TokenKind::LParen => {
                let opener = self.next();
                let (e, height) = self.nested(opener, Self::expr)?;
                self.expect(&TokenKind::RParen)?;
                Ok((e, height + 1))
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("true") {
                    self.next();
                    return Ok((Expr::Literal(Value::Bool(true)), 0));
                }
                if name.eq_ignore_ascii_case("false") {
                    self.next();
                    return Ok((Expr::Literal(Value::Bool(false)), 0));
                }
                self.next();
                if self.peek().kind != TokenKind::LParen {
                    return Ok((Expr::Column(name), 0));
                }
                let opener = self.next();
                let (args, height) = self.nested(opener, |p| {
                    let (mut args, mut height) = (Vec::new(), 0);
                    if p.peek().kind != TokenKind::RParen {
                        loop {
                            let (arg, h) = p.expr()?;
                            args.push(arg);
                            height = height.max(h);
                            if p.peek().kind != TokenKind::Comma {
                                break;
                            }
                            p.next();
                        }
                    }
                    Ok((args, height))
                })?;
                self.expect(&TokenKind::RParen)?;
                let func = name.to_ascii_lowercase();
                Ok((Expr::Call { func, args }, height + 1))
            }
            other => Err(self.error(format!("expected expression, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fixtures::FIG1_QUERY;

    #[test]
    fn parses_fig1_query() {
        let q = parse_query(FIG1_QUERY).unwrap();
        assert_eq!(q.name, "swipe_right");
        assert_eq!(q.pattern.event_count(), 3);
        assert_eq!(q.pattern.depth(), 2);
        match &q.pattern {
            Pattern::Sequence(s) => {
                assert_eq!(s.steps.len(), 2);
                assert_eq!(s.within_ms, Some(1000));
                assert_eq!(s.select, SelectPolicy::First);
                assert_eq!(s.consume, ConsumePolicy::All);
                match &s.steps[0] {
                    Pattern::Sequence(inner) => {
                        assert_eq!(inner.steps.len(), 2);
                        assert_eq!(inner.within_ms, Some(1000));
                    }
                    other => panic!("expected inner sequence, got {other:?}"),
                }
            }
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_fig1() {
        let q = parse_query(FIG1_QUERY).unwrap();
        let printed = q.to_query_text();
        let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(q, q2);
    }

    #[test]
    fn single_event_query() {
        let q = parse_query(r#"SELECT "pose" MATCHING kinect(x < 1);"#).unwrap();
        assert!(matches!(q.pattern, Pattern::Event(_)));
    }

    #[test]
    fn parenthesised_single_event_collapses() {
        let q = parse_query(r#"SELECT "pose" MATCHING (kinect(x < 1));"#).unwrap();
        assert!(matches!(q.pattern, Pattern::Event(_)));
    }

    #[test]
    fn modifiers_defaults() {
        let p = parse_pattern("a(x < 1) -> b(y < 2)").unwrap();
        match p {
            Pattern::Sequence(s) => {
                assert_eq!(s.within_ms, None);
                assert_eq!(s.select, SelectPolicy::First);
                assert_eq!(s.consume, ConsumePolicy::All);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn within_units() {
        let p = parse_pattern("a(true) -> b(true) within 500 ms").unwrap();
        match p {
            Pattern::Sequence(s) => assert_eq!(s.within_ms, Some(500)),
            _ => panic!(),
        }
        let p = parse_pattern("a(true) -> b(true) within 2 seconds").unwrap();
        match p {
            Pattern::Sequence(s) => assert_eq!(s.within_ms, Some(2000)),
            _ => panic!(),
        }
        assert!(parse_pattern("a(true) -> b(true) within 0 seconds").is_err());
        assert!(parse_pattern("a(true) -> b(true) within 0.4 ms").is_err());
        assert!(parse_pattern("a(true) -> b(true) within 1 parsec").is_err());
    }

    #[test]
    fn select_last_consume_none() {
        let p = parse_pattern("a(true) -> b(true) select last consume none").unwrap();
        match p {
            Pattern::Sequence(s) => {
                assert_eq!(s.select, SelectPolicy::Last);
                assert_eq!(s.consume, ConsumePolicy::None);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 < 10 and x > 0 or y = 1").unwrap();
        // ((1 + (2*3)) < 10 and x > 0) or (y = 1)
        assert_eq!(e.to_string(), "1 + 2 * 3 < 10 and x > 0 or y = 1");
        match &e {
            Expr::Binary { op: BinOp::Or, .. } => {}
            other => panic!("expected or at top, got {other:?}"),
        }
    }

    #[test]
    fn negative_literals_folded() {
        let e = parse_expr("x < -50").unwrap();
        match e {
            Expr::Binary { rhs, .. } => {
                assert_eq!(*rhs, Expr::Literal(Value::Float(-50.0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_calls_and_args() {
        let e = parse_expr("dist(a, b, c, d, e, f) < 10").unwrap();
        assert!(e.to_string().starts_with("dist(a, b, c, d, e, f)"));
        let e = parse_expr("now()").unwrap();
        assert_eq!(
            e,
            Expr::Call {
                func: "now".into(),
                args: vec![]
            }
        );
    }

    #[test]
    fn error_positions_and_messages() {
        let err = parse_query("SELECT swipe MATCHING kinect(true);").unwrap_err();
        assert!(err.to_string().contains("quoted gesture name"), "{err}");

        let err = parse_pattern("kinect(x <)").unwrap_err();
        assert!(matches!(err, CepError::Parse { .. }));

        let err = parse_pattern("kinect(x < 1) -> within").unwrap_err();
        assert!(err.to_string().contains("keyword 'within'"), "{err}");

        let err = parse_query(r#"SELECT "g" MATCHING kinect(true); garbage"#).unwrap_err();
        assert!(err.to_string().contains("trailing input"), "{err}");
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query(
            r#"select "g" matching kinect(TRUE) -> kinect(x < 1) WITHIN 1 SECONDS SELECT FIRST CONSUME ALL;"#,
        );
        assert!(q.is_ok(), "{q:?}");
    }

    #[test]
    fn deep_nesting() {
        let p = parse_pattern(
            "((a(true) -> b(true) within 1 seconds) -> c(true) within 1 seconds) -> d(true) within 1 seconds",
        )
        .unwrap();
        assert_eq!(p.event_count(), 4);
        assert_eq!(p.depth(), 3);
    }

    /// The offset of the parse error `r` holds.
    fn error_offset<T: std::fmt::Debug>(r: Result<T, CepError>) -> usize {
        match r {
            Err(CepError::Parse { offset, message }) => {
                assert!(message.contains("nests deeper"), "{message}");
                offset
            }
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }

    #[test]
    fn nesting_is_bounded_at_the_crossing_token() {
        // `x+x+…`: the n-th `+` sits at offset 2n - 1 and nests n levels.
        let chain = |links: usize| format!("x{}", "+x".repeat(links));
        assert!(parse_expr(&chain(MAX_NESTING)).is_ok());
        assert_eq!(
            error_offset(parse_expr(&chain(MAX_NESTING + 1))),
            2 * MAX_NESTING + 1
        );
        let parens = |n: usize| format!("{}x{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_expr(&parens(MAX_NESTING)).is_ok());
        assert_eq!(
            error_offset(parse_expr(&parens(MAX_NESTING + 1))),
            MAX_NESTING
        );
        let negations = |n: usize| format!("{}x", "- ".repeat(n));
        assert!(parse_expr(&negations(MAX_NESTING)).is_ok());
        assert_eq!(
            error_offset(parse_expr(&negations(MAX_NESTING + 1))),
            2 * MAX_NESTING
        );
        let calls = |n: usize| format!("{}x{}", "f(".repeat(n), ")".repeat(n));
        assert!(parse_expr(&calls(MAX_NESTING)).is_ok());
        assert!(error_offset(parse_expr(&calls(MAX_NESTING + 1))) > 0);
        // The event predicate is one more level.
        let query = |pred: &str| parse_query(&format!(r#"SELECT "g" MATCHING kinect({pred});"#));
        assert!(query(&chain(MAX_NESTING - 1)).is_ok());
        assert!(error_offset(query(&chain(MAX_NESTING))) > 0);
        let steps = |n: usize| format!("{}a(true){}", "(".repeat(n), ")".repeat(n));
        assert!(parse_pattern(&steps(MAX_NESTING - 1)).is_ok());
        assert!(error_offset(parse_pattern(&steps(MAX_NESTING))) > 0);
    }

    #[test]
    fn deep_text_is_refused_on_a_2_mib_stack() {
        // Unbounded, both shapes overflow the stack of a 2 MiB thread
        // (the network I/O thread's), in the parser or in what walks the
        // tree it builds.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let chain = format!("x{}", " + x".repeat(29_999));
                let parens = format!("{}x{}", "(".repeat(30_000), ")".repeat(30_000));
                for pred in [chain, parens] {
                    assert!(parse_expr(&pred).is_err());
                    let text = format!(r#"SELECT "deep" MATCHING kinect({pred} > 0);"#);
                    assert!(parse_query(&text).is_err());
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn not_operator() {
        let e = parse_expr("not (x < 1)").unwrap();
        assert_eq!(e.to_string(), "not (x < 1)");
        let e2 = parse_expr(&e.to_string()).unwrap();
        assert_eq!(e, e2);
    }
}
