//! Object keys and reference helpers.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;

/// Marker prefix identifying a *short object key*: the compressed alias
/// negotiated by the vendor handshake (paper §4.2.2). Real object keys
/// produced by [`ObjectKey::new`] never start with this prefix.
pub const SHORT_KEY_PREFIX: &[u8; 3] = b"\xffSK";

/// An opaque key identifying an object within its ORB/POA.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey(Vec<u8>);

impl ObjectKey {
    /// Wraps raw key bytes.
    ///
    /// # Panics
    ///
    /// Panics if the bytes begin with the reserved short-key prefix.
    pub fn new(bytes: Vec<u8>) -> Self {
        assert!(
            !bytes.starts_with(SHORT_KEY_PREFIX),
            "object key collides with the reserved short-key prefix"
        );
        ObjectKey(bytes)
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Encodes a short-key alias as wire-format object-key bytes.
    pub fn short_form(alias: u32) -> [u8; 7] {
        let mut wire = [0; 7];
        wire[..3].copy_from_slice(SHORT_KEY_PREFIX);
        wire[3..].copy_from_slice(&alias.to_be_bytes());
        wire
    }

    /// Decodes wire-format object-key bytes: either a full key or a
    /// short-key alias.
    pub fn parse_wire(bytes: &[u8]) -> WireKey<'_> {
        if bytes.len() == 7 && bytes.starts_with(SHORT_KEY_PREFIX) {
            let alias = u32::from_be_bytes(bytes[3..7].try_into().expect("len checked"));
            WireKey::Short(alias)
        } else {
            WireKey::Full(bytes)
        }
    }
}

/// A key is its bytes: it derefs to them, and a map keyed by
/// [`ObjectKey`] is searched with the key bytes of a request as they
/// lie in the message.
impl Deref for ObjectKey {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for ObjectKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", String::from_utf8_lossy(&self.0))
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> Self {
        ObjectKey::new(s.as_bytes().to_vec())
    }
}

/// The two wire forms an object key can take on a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKey<'a> {
    /// The complete key, as it lies in the message.
    Full(&'a [u8]),
    /// The negotiated alias; only resolvable by a server connection that
    /// saw the handshake.
    Short(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_key_round_trips_through_wire() {
        let k = ObjectKey::from("bank/account-7");
        assert_eq!(
            ObjectKey::parse_wire(k.as_bytes()),
            WireKey::Full(k.as_bytes())
        );
        assert_eq!(k.to_string(), "bank/account-7");
    }

    #[test]
    fn short_form_round_trips() {
        let wire = ObjectKey::short_form(0xDEAD);
        assert_eq!(ObjectKey::parse_wire(&wire), WireKey::Short(0xDEAD));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_prefix_rejected() {
        ObjectKey::new(b"\xffSKx".to_vec());
    }

    #[test]
    fn prefix_like_but_wrong_length_is_full_key() {
        // 8 bytes starting with the prefix cannot be produced by
        // ObjectKey::new, but parse must not misread them as short.
        let bytes = b"\xffSK12345".to_vec();
        assert!(matches!(ObjectKey::parse_wire(&bytes), WireKey::Full(_)));
    }
}
