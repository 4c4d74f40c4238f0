//! CEP engine errors.

use std::fmt;

use gesto_stream::StreamError;

/// Errors raised while parsing, compiling or executing CEP queries.
#[derive(Debug, Clone, PartialEq)]
pub enum CepError {
    /// Lexical or syntactic error with byte offset into the query text.
    Parse {
        /// Byte offset of the offending token.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// Semantic error while compiling an expression or pattern.
    Compile(String),
    /// Unknown scalar function.
    UnknownFunction(String),
    /// A function was called with the wrong number of arguments.
    FunctionArity {
        /// Function name.
        name: String,
        /// Expected argument count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
    /// Runtime evaluation error.
    Eval(String),
    /// A query with this name is already deployed.
    DuplicateQuery(String),
    /// No query with this name is deployed.
    UnknownQuery(String),
    /// Error from the underlying stream substrate.
    Stream(StreamError),
}

impl fmt::Display for CepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CepError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            CepError::Compile(m) => write!(f, "compile error: {m}"),
            CepError::UnknownFunction(n) => write!(f, "unknown function '{n}'"),
            CepError::FunctionArity {
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "function '{name}' expects {expected} arguments, got {got}"
                )
            }
            CepError::Eval(m) => write!(f, "evaluation error: {m}"),
            CepError::DuplicateQuery(n) => write!(f, "query '{n}' is already deployed"),
            CepError::UnknownQuery(n) => write!(f, "no deployed query named '{n}'"),
            CepError::Stream(e) => write!(f, "stream error: {e}"),
        }
    }
}

impl std::error::Error for CepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CepError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for CepError {
    fn from(e: StreamError) -> Self {
        CepError::Stream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CepError::Parse {
            offset: 12,
            message: "expected ')'".into(),
        };
        assert_eq!(e.to_string(), "parse error at byte 12: expected ')'");
        assert!(CepError::UnknownFunction("rpy".into())
            .to_string()
            .contains("rpy"));
        let e: CepError = StreamError::UnknownStream("k".into()).into();
        assert!(matches!(e, CepError::Stream(_)));
    }
}
