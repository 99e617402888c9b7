//! Error type for CDR encoding and decoding.

use std::fmt;

/// An error produced while marshalling or unmarshalling CDR data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdrError {
    /// The input ended before the value was complete.
    BufferUnderflow {
        /// Bytes needed to finish the read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A boolean octet held a value other than 0 or 1.
    InvalidBool(u8),
    /// A string's bytes were not valid UTF-8.
    InvalidUtf8,
    /// A string was not NUL-terminated, or had an embedded NUL.
    BadStringTerminator,
    /// A declared length was implausibly large for the remaining input.
    LengthOverrun {
        /// The declared length.
        declared: u32,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// Input nested `any`s, type codes or values deeper than
    /// [`crate::MAX_NESTING_DEPTH`].
    NestingTooDeep {
        /// The deepest nesting the decoder follows.
        limit: usize,
    },
    /// An unknown [`crate::TypeCode`] kind tag was read.
    UnknownTypeCodeKind(u32),
    /// An enum discriminant was out of range for its type.
    InvalidEnumDiscriminant {
        /// The discriminant read.
        got: u32,
        /// Number of enumerators in the type.
        count: u32,
    },
    /// A value did not match the expected type code.
    TypeMismatch {
        /// What the type code called for.
        expected: &'static str,
        /// What was found.
        found: &'static str,
    },
}

impl fmt::Display for CdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdrError::BufferUnderflow { needed, remaining } => write!(
                f,
                "buffer underflow: needed {needed} bytes, {remaining} remaining"
            ),
            CdrError::InvalidBool(b) => write!(f, "invalid boolean octet {b:#04x}"),
            CdrError::InvalidUtf8 => write!(f, "string is not valid UTF-8"),
            CdrError::BadStringTerminator => write!(f, "string missing NUL terminator"),
            CdrError::LengthOverrun {
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} exceeds remaining input {remaining}"
            ),
            CdrError::NestingTooDeep { limit } => {
                write!(f, "input nests deeper than {limit} levels")
            }
            CdrError::UnknownTypeCodeKind(k) => write!(f, "unknown TypeCode kind {k}"),
            CdrError::InvalidEnumDiscriminant { got, count } => {
                write!(f, "enum discriminant {got} out of range (count {count})")
            }
            CdrError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for CdrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CdrError::BufferUnderflow {
            needed: 4,
            remaining: 2,
        };
        assert_eq!(
            e.to_string(),
            "buffer underflow: needed 4 bytes, 2 remaining"
        );
        assert_eq!(
            CdrError::InvalidBool(7).to_string(),
            "invalid boolean octet 0x07"
        );
        assert!(CdrError::TypeMismatch {
            expected: "string",
            found: "ulong"
        }
        .to_string()
        .contains("expected string"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CdrError::InvalidUtf8);
    }
}
