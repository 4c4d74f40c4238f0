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

use gesto_stream::Value;

use crate::error::CepError;
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::lexer::{lex, Token, TokenKind};
use crate::pattern::{ConsumePolicy, Pattern, Query, SelectPolicy, SequencePattern};

/// Parses a complete `SELECT ... MATCHING ...;` query.
pub fn parse_query(src: &str) -> Result<Query, CepError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses a bare pattern (the part after `MATCHING`, without trailing
/// semicolon).
pub fn parse_pattern(src: &str) -> Result<Pattern, CepError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let pat = p.sequence()?;
    p.expect_eof()?;
    Ok(pat)
}

/// Parses a bare expression (useful for manually adding separating
/// constraints to generated queries, §3.3.2).
pub fn parse_expr(src: &str) -> Result<Expr, CepError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
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
            if ms <= 0.0 {
                return Err(self.error("'within' duration must be positive"));
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
                self.next();
                let inner = self.sequence()?;
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
                self.expect(&TokenKind::LParen)?;
                let predicate = self.expr()?;
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

    fn expr(&mut self) -> Result<Expr, CepError> {
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
    fn binary(&mut self, min_prec: u8) -> Result<Expr, CepError> {
        let mut lhs = self.unary()?;
        let mut arithmetic = true;
        while let Some(op) = self.peek_op() {
            let prec = op.precedence();
            if prec < min_prec || (op.is_comparison() && !arithmetic) {
                break;
            }
            self.next();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
            arithmetic &= prec > BinOp::Eq.precedence();
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CepError> {
        let op = if self.peek().kind == TokenKind::Op(BinOp::Sub) {
            UnaryOp::Neg
        } else if self.peek_keyword("not") {
            UnaryOp::Not
        } else {
            return self.primary();
        };
        self.next();
        Ok(match (op, self.unary()?) {
            // Fold negation into numeric literals for cleaner ASTs.
            (UnaryOp::Neg, Expr::Literal(Value::Float(f))) => Expr::Literal(Value::Float(-f)),
            (op, e) => Expr::Unary {
                op,
                expr: Box::new(e),
            },
        })
    }

    fn primary(&mut self) -> Result<Expr, CepError> {
        match self.peek().kind.clone() {
            TokenKind::Number(n) => {
                self.next();
                Ok(Expr::Literal(Value::Float(n)))
            }
            TokenKind::Str(s) => {
                self.next();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::LParen => {
                self.next();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("true") {
                    self.next();
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    self.next();
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                self.next();
                if self.peek().kind == TokenKind::LParen {
                    self.next();
                    let mut args = Vec::new();
                    if self.peek().kind != TokenKind::RParen {
                        args.push(self.expr()?);
                        while self.peek().kind == TokenKind::Comma {
                            self.next();
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Call {
                        func: name.to_ascii_lowercase(),
                        args,
                    })
                } else {
                    Ok(Expr::Column(name))
                }
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

    #[test]
    fn not_operator() {
        let e = parse_expr("not (x < 1)").unwrap();
        assert_eq!(e.to_string(), "not (x < 1)");
        let e2 = parse_expr(&e.to_string()).unwrap();
        assert_eq!(e, e2);
    }
}
