//! Pattern AST: events, sequences, policies, and the query type.
//!
//! A gesture query (Fig. 1 of the paper) is a named pattern:
//!
//! ```text
//! SELECT "swipe_right"
//! MATCHING (
//!     kinect( <pose predicate 1> ) ->
//!     kinect( <pose predicate 2> )
//!     within 1 seconds select first consume all
//! ) ->
//! kinect( <pose predicate 3> )
//! within 1 seconds select first consume all;
//! ```
//!
//! ## `within` semantics
//!
//! `within` on a sequence bounds the time from the *completion of the
//! sequence's first step* to the completion of its last step. For the
//! left-deep nesting emitted by the learner, `(P1 -> P2 within T) -> P3
//! within T` therefore means: P2 at most `T` after P1, and P3 at most `T`
//! after the group completes (i.e. after P2) — each pose transition gets
//! its own budget, matching the paper's per-step `within 1 seconds`.

use std::fmt;

use gesto_stream::StreamTime;
use serde::{Deserialize, Serialize};

use crate::expr::{write_quoted, Expr};

/// Which completed matches to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SelectPolicy {
    /// Report the first completed match (paper default).
    #[default]
    First,
    /// Report every completed match.
    All,
    /// Report the most recently started completed match.
    Last,
}

impl SelectPolicy {
    /// Query-text spelling.
    pub fn keyword(&self) -> &'static str {
        match self {
            SelectPolicy::First => "first",
            SelectPolicy::All => "all",
            SelectPolicy::Last => "last",
        }
    }
}

/// What happens to partial matches after a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ConsumePolicy {
    /// Discard all partial matches (paper default): events are consumed
    /// and cannot contribute to further detections.
    #[default]
    All,
    /// Keep partial matches; overlapping detections are possible.
    None,
}

impl ConsumePolicy {
    /// Query-text spelling.
    pub fn keyword(&self) -> &'static str {
        match self {
            ConsumePolicy::All => "all",
            ConsumePolicy::None => "none",
        }
    }
}

/// A primitive event: one tuple of `source` satisfying `predicate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventPattern {
    /// Stream or view name the event reads from (e.g. `kinect_t`).
    pub source: String,
    /// Predicate over the tuple.
    pub predicate: Expr,
}

/// A sequence of sub-patterns with optional time constraint and policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequencePattern {
    /// Ordered steps (length ≥ 1).
    pub steps: Vec<Pattern>,
    /// Optional time bound in stream milliseconds (see module docs).
    pub within_ms: Option<StreamTime>,
    /// Match selection strategy.
    pub select: SelectPolicy,
    /// Consumption policy.
    pub consume: ConsumePolicy,
}

/// A pattern tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// Primitive event.
    Event(EventPattern),
    /// Sequence of sub-patterns.
    Sequence(SequencePattern),
}

impl Pattern {
    /// Primitive event pattern.
    pub fn event(source: impl Into<String>, predicate: Expr) -> Pattern {
        Pattern::Event(EventPattern {
            source: source.into(),
            predicate,
        })
    }

    /// Sequence with the paper's default policies
    /// (`select first consume all`).
    pub fn sequence(steps: Vec<Pattern>, within_ms: Option<StreamTime>) -> Pattern {
        Pattern::Sequence(SequencePattern {
            steps,
            within_ms,
            select: SelectPolicy::First,
            consume: ConsumePolicy::All,
        })
    }

    /// Number of primitive events in the pattern.
    pub fn event_count(&self) -> usize {
        match self {
            Pattern::Event(_) => 1,
            Pattern::Sequence(s) => s.steps.iter().map(Pattern::event_count).sum(),
        }
    }

    /// All distinct source names referenced, in first-appearance order.
    pub fn sources(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_sources(&mut out);
        out
    }

    fn collect_sources<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Pattern::Event(e) => {
                if !out.contains(&e.source.as_str()) {
                    out.push(&e.source);
                }
            }
            Pattern::Sequence(s) => {
                for p in &s.steps {
                    p.collect_sources(out);
                }
            }
        }
    }

    /// Maximum sequence nesting depth (an event has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            Pattern::Event(_) => 0,
            Pattern::Sequence(s) => 1 + s.steps.iter().map(Pattern::depth).max().unwrap_or(0),
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize, parens: bool) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Pattern::Event(e) => {
                writeln!(f, "{pad}{}(", e.source)?;
                writeln!(f, "{pad}  {}", e.predicate)?;
                write!(f, "{pad})")
            }
            Pattern::Sequence(s) => {
                let (inner_indent, inner_pad) = if parens {
                    writeln!(f, "{pad}(")?;
                    (indent + 1, format!("{pad}  "))
                } else {
                    (indent, pad.clone())
                };
                for (i, step) in s.steps.iter().enumerate() {
                    if i > 0 {
                        writeln!(f, " ->")?;
                    }
                    step.fmt_indented(f, inner_indent, true)?;
                }
                writeln!(f)?;
                write!(f, "{inner_pad}")?;
                if let Some(w) = s.within_ms {
                    if w % 1000 == 0 {
                        write!(f, "within {} seconds ", w / 1000)?;
                    } else {
                        write!(f, "within {w} ms ")?;
                    }
                }
                write!(
                    f,
                    "select {} consume {}",
                    s.select.keyword(),
                    s.consume.keyword()
                )?;
                if parens {
                    writeln!(f)?;
                    write!(f, "{pad})")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0, matches!(self, Pattern::Sequence(_)))
    }
}

/// A named detection query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Detection name emitted on match (`SELECT "swipe_right"`).
    pub name: String,
    /// The pattern to match.
    pub pattern: Pattern,
}

impl Query {
    /// Creates a query.
    pub fn new(name: impl Into<String>, pattern: Pattern) -> Self {
        Self {
            name: name.into(),
            pattern,
        }
    }

    /// Canonical query text (parsable by [`crate::parse_query`]).
    pub fn to_query_text(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        write_quoted(f, &self.name)?;
        writeln!(f)?;
        f.write_str("MATCHING ")?;
        self.pattern
            .fmt_indented(f, 0, matches!(self.pattern, Pattern::Sequence(_)))?;
        f.write_str(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};

    fn pose(center: f64) -> Expr {
        Expr::lt(
            Expr::abs(Expr::bin(
                BinOp::Sub,
                Expr::col("rHand_x"),
                Expr::lit(center),
            )),
            Expr::lit(50.0),
        )
    }

    #[test]
    fn event_count_and_sources() {
        let p = Pattern::sequence(
            vec![
                Pattern::sequence(
                    vec![
                        Pattern::event("kinect_t", pose(0.0)),
                        Pattern::event("kinect_t", pose(400.0)),
                    ],
                    Some(1000),
                ),
                Pattern::event("kinect_t", pose(800.0)),
            ],
            Some(1000),
        );
        assert_eq!(p.event_count(), 3);
        assert_eq!(p.sources(), vec!["kinect_t"]);
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn display_contains_paper_keywords() {
        let q = Query::new(
            "swipe_right",
            Pattern::sequence(
                vec![
                    Pattern::event("kinect", pose(0.0)),
                    Pattern::event("kinect", pose(800.0)),
                ],
                Some(1000),
            ),
        );
        let text = q.to_query_text();
        assert!(text.starts_with("SELECT \"swipe_right\""), "{text}");
        assert!(text.contains("MATCHING"), "{text}");
        assert!(text.contains("within 1 seconds"), "{text}");
        assert!(text.contains("select first consume all"), "{text}");
        assert!(text.trim_end().ends_with(";"), "{text}");
    }

    #[test]
    fn display_ms_granularity() {
        let q = Query::new(
            "g",
            Pattern::sequence(vec![Pattern::event("k", pose(0.0))], Some(1500)),
        );
        assert!(q.to_query_text().contains("within 1500 ms"));
    }

    #[test]
    fn policies_keywords() {
        assert_eq!(SelectPolicy::First.keyword(), "first");
        assert_eq!(SelectPolicy::All.keyword(), "all");
        assert_eq!(SelectPolicy::Last.keyword(), "last");
        assert_eq!(ConsumePolicy::All.keyword(), "all");
        assert_eq!(ConsumePolicy::None.keyword(), "none");
    }
}
