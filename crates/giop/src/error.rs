//! Error type for GIOP message parsing and construction.

use eternal_cdr::CdrError;
use std::fmt;

/// An error produced while parsing or building a GIOP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopError {
    /// The first four bytes were not `"GIOP"`.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    UnsupportedVersion {
        /// Major version read.
        major: u8,
        /// Minor version read.
        minor: u8,
    },
    /// Unknown message-type octet in the header.
    UnknownMessageType(u8),
    /// The header's declared body size disagrees with the bytes supplied.
    SizeMismatch {
        /// Size declared in the header.
        declared: u32,
        /// Bytes actually available.
        actual: usize,
    },
    /// The body failed to unmarshal.
    Cdr(CdrError),
    /// A fragment arrived for a message that was never started, or a
    /// primary fragment arrived twice.
    FragmentProtocol(&'static str),
    /// An IOR string was malformed.
    BadIor(&'static str),
    /// A service context with this id is already present on the list
    /// (`ServiceContextList::add` refuses duplicates).
    DuplicateServiceContext(u32),
}

impl fmt::Display for GiopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GiopError::BadMagic(m) => write!(f, "bad GIOP magic {m:?}"),
            GiopError::UnsupportedVersion { major, minor } => {
                write!(f, "unsupported GIOP version {major}.{minor}")
            }
            GiopError::UnknownMessageType(t) => write!(f, "unknown GIOP message type {t}"),
            GiopError::SizeMismatch { declared, actual } => {
                write!(
                    f,
                    "body size mismatch: header says {declared}, got {actual}"
                )
            }
            GiopError::Cdr(e) => write!(f, "CDR error in GIOP body: {e}"),
            GiopError::FragmentProtocol(msg) => write!(f, "fragment protocol violation: {msg}"),
            GiopError::BadIor(msg) => write!(f, "malformed IOR: {msg}"),
            GiopError::DuplicateServiceContext(id) => {
                write!(f, "duplicate service context id {id:#x}")
            }
        }
    }
}

impl std::error::Error for GiopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GiopError::Cdr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdrError> for GiopError {
    fn from(e: CdrError) -> Self {
        GiopError::Cdr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = GiopError::Cdr(CdrError::InvalidUtf8);
        assert!(e.to_string().contains("CDR error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&GiopError::BadIor("x")).is_none());
    }

    #[test]
    fn from_cdr_error() {
        let g: GiopError = CdrError::InvalidUtf8.into();
        assert_eq!(g, GiopError::Cdr(CdrError::InvalidUtf8));
    }
}
