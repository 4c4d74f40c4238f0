//! Error type shared by the stream substrate.

use std::fmt;

/// Errors raised by schema validation, tuple construction and view
/// resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Invalid schema definition.
    Schema(String),
    /// A field name was not present in a schema.
    UnknownField {
        /// Schema (stream) name.
        schema: String,
        /// Requested field.
        field: String,
    },
    /// A value did not conform to the declared field type.
    TypeMismatch {
        /// Schema (stream) name.
        schema: String,
        /// Field name.
        field: String,
        /// Human-readable description of the offending value.
        value: String,
    },
    /// Tuple arity differed from the schema arity.
    Arity {
        /// Schema (stream) name.
        schema: String,
        /// Expected number of fields.
        expected: usize,
        /// Provided number of values.
        got: usize,
    },
    /// A named stream or view was not found in the catalog.
    UnknownStream(String),
    /// A stream or view name was registered twice.
    DuplicateStream(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Schema(msg) => write!(f, "schema error: {msg}"),
            StreamError::UnknownField { schema, field } => {
                write!(f, "unknown field '{field}' in schema '{schema}'")
            }
            StreamError::TypeMismatch {
                schema,
                field,
                value,
            } => write!(
                f,
                "type mismatch in '{schema}.{field}': value {value} does not conform"
            ),
            StreamError::Arity {
                schema,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for schema '{schema}': expected {expected} values, got {got}"
            ),
            StreamError::UnknownStream(name) => write!(f, "unknown stream or view '{name}'"),
            StreamError::DuplicateStream(name) => {
                write!(f, "stream or view '{name}' is already registered")
            }
        }
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StreamError::UnknownStream("k".into()).to_string(),
            "unknown stream or view 'k'"
        );
        assert!(StreamError::Arity {
            schema: "s".into(),
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("expected 2"));
    }
}
