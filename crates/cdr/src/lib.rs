//! CORBA **Common Data Representation (CDR)** marshalling, as used by
//! GIOP/IIOP, for the Eternal-RS reproduction of *"State Synchronization
//! and Recovery for Strongly Consistent Replicated CORBA Objects"*
//! (DSN 2001).
//!
//! CDR is the on-the-wire encoding of every GIOP message body: primitive
//! types are aligned to their natural boundaries *relative to the start
//! of the message body*, multi-byte values use the byte order declared in
//! the enclosing GIOP header (or encapsulation flag byte), and strings
//! carry an explicit length that includes a terminating NUL.
//!
//! The crate also implements the CORBA `any` type ([`Any`]): a
//! self-describing value consisting of a [`TypeCode`] plus a [`Value`].
//! The Fault-Tolerant CORBA standard (and the paper's Figure 3) defines
//! application-level state as `typedef any State`, so `Any` is the
//! vehicle for every checkpoint this system takes.
//!
//! # Example
//!
//! ```
//! use eternal_cdr::{Any, CdrDecoder, CdrEncoder, Endian, Value};
//!
//! let state = Any::from(Value::Struct(vec![
//!     Value::ULong(42),
//!     Value::String("balance".to_owned()),
//! ]));
//!
//! let mut enc = CdrEncoder::new(Endian::Big);
//! state.encode(&mut enc).unwrap();
//! let bytes = enc.into_bytes();
//!
//! let mut dec = CdrDecoder::new(&bytes, Endian::Big);
//! let back = Any::decode(&mut dec).unwrap();
//! assert_eq!(back, state);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any;
mod decode;
mod encode;
mod error;
pub mod layout;
pub mod pool;
mod typecode;

pub use any::{Any, Value, MAX_NESTING_DEPTH};
pub use decode::CdrDecoder;
pub use encode::CdrEncoder;
pub use error::CdrError;
pub use typecode::TypeCode;

/// Byte order of a CDR stream.
///
/// GIOP carries the producer's byte order in its header flags so that a
/// reader on a machine with the same order can decode without swapping —
/// "receiver makes it right".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endian {
    /// Big-endian (network order); flag bit 0.
    Big,
    /// Little-endian; flag bit 1.
    Little,
}

impl Endian {
    /// The GIOP flag bit for this byte order.
    pub fn flag(self) -> u8 {
        match self {
            Endian::Big => 0,
            Endian::Little => 1,
        }
    }

    /// Decodes a GIOP flag bit.
    pub fn from_flag(bit: u8) -> Endian {
        if bit & 1 == 0 {
            Endian::Big
        } else {
            Endian::Little
        }
    }
}

/// Whether `bytes` holds a NUL, which a CDR string's body may not.
/// Every byte is looked at and none branched on, so the loop
/// vectorises: several times the speed of `contains(&0)`'s word-wise
/// search on the kilobyte strings it is run over, which hold no NUL to
/// stop early at.
#[inline]
fn has_nul(bytes: &[u8]) -> bool {
    bytes.iter().fold(false, |nul, &b| nul | (b == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endian_flag_round_trip() {
        assert_eq!(Endian::from_flag(Endian::Big.flag()), Endian::Big);
        assert_eq!(Endian::from_flag(Endian::Little.flag()), Endian::Little);
        assert_eq!(Endian::from_flag(0xFF), Endian::Little);
        assert_eq!(Endian::from_flag(0xFE), Endian::Big);
    }
}
