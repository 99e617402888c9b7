//! The 12-byte GIOP message header.

use crate::GiopError;
use eternal_cdr::Endian;

/// The GIOP magic bytes.
pub const GIOP_MAGIC: [u8; 4] = *b"GIOP";

/// Length of the fixed GIOP header.
pub const GIOP_HEADER_LEN: usize = 12;

/// GIOP message types (the `message_type` octet of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageType {
    /// Client → server invocation.
    Request = 0,
    /// Server → client result.
    Reply = 1,
    /// Client → server: abandon an outstanding request.
    CancelRequest = 2,
    /// Client → server: where does this object live?
    LocateRequest = 3,
    /// Server → client: answer to a `LocateRequest`.
    LocateReply = 4,
    /// Either direction: orderly connection shutdown.
    CloseConnection = 5,
    /// Either direction: the peer sent an unparseable message.
    MessageError = 6,
    /// Continuation of a fragmented message (GIOP 1.1+).
    Fragment = 7,
}

impl MessageType {
    /// Decodes the header octet.
    pub fn from_u8(v: u8) -> Result<MessageType, GiopError> {
        Ok(match v {
            0 => MessageType::Request,
            1 => MessageType::Reply,
            2 => MessageType::CancelRequest,
            3 => MessageType::LocateRequest,
            4 => MessageType::LocateReply,
            5 => MessageType::CloseConnection,
            6 => MessageType::MessageError,
            7 => MessageType::Fragment,
            other => return Err(GiopError::UnknownMessageType(other)),
        })
    }
}

/// The fixed GIOP header preceding every message body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiopHeader {
    /// Protocol version; this implementation speaks 1.0 and 1.1
    /// (1.1 adds fragmentation).
    pub version: (u8, u8),
    /// Byte order of the body.
    pub endian: Endian,
    /// Set when more fragments follow this message (GIOP 1.1).
    pub more_fragments: bool,
    /// The message type.
    pub message_type: MessageType,
    /// Length of the body following the header.
    pub body_len: u32,
}

impl GiopHeader {
    /// Builds a version-1.1 header with the given type and body length.
    pub fn new(message_type: MessageType, endian: Endian, body_len: u32) -> Self {
        GiopHeader {
            version: (1, 1),
            endian,
            more_fragments: false,
            message_type,
            body_len,
        }
    }

    /// Serializes the 12 header bytes.
    #[inline]
    pub fn to_bytes(&self) -> [u8; GIOP_HEADER_LEN] {
        let mut out = [0u8; GIOP_HEADER_LEN];
        out[0..4].copy_from_slice(&GIOP_MAGIC);
        out[4] = self.version.0;
        out[5] = self.version.1;
        out[6] = self.endian.flag() | (u8::from(self.more_fragments) << 1);
        out[7] = self.message_type as u8;
        // The size field uses the byte order declared by the flags.
        let size = match self.endian {
            Endian::Big => self.body_len.to_be_bytes(),
            Endian::Little => self.body_len.to_le_bytes(),
        };
        out[8..12].copy_from_slice(&size);
        out
    }

    /// Parses the 12 header bytes.
    #[inline]
    pub fn from_bytes(bytes: &[u8]) -> Result<GiopHeader, GiopError> {
        if bytes.len() < GIOP_HEADER_LEN {
            return Err(GiopError::SizeMismatch {
                declared: GIOP_HEADER_LEN as u32,
                actual: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("len checked");
        if magic != GIOP_MAGIC {
            return Err(GiopError::BadMagic(magic));
        }
        let (major, minor) = (bytes[4], bytes[5]);
        if major != 1 || minor > 2 {
            return Err(GiopError::UnsupportedVersion { major, minor });
        }
        let endian = Endian::from_flag(bytes[6]);
        let more_fragments = bytes[6] & 0b10 != 0;
        let message_type = MessageType::from_u8(bytes[7])?;
        let size: [u8; 4] = bytes[8..12].try_into().expect("len checked");
        let body_len = match endian {
            Endian::Big => u32::from_be_bytes(size),
            Endian::Little => u32::from_le_bytes(size),
        };
        Ok(GiopHeader {
            version: (major, minor),
            endian,
            more_fragments,
            message_type,
            body_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_big_endian() {
        let h = GiopHeader::new(MessageType::Request, Endian::Big, 42);
        let bytes = h.to_bytes();
        assert_eq!(&bytes[0..4], b"GIOP");
        assert_eq!(GiopHeader::from_bytes(&bytes).unwrap(), h);
    }

    #[test]
    fn round_trip_little_endian_with_fragments() {
        let mut h = GiopHeader::new(MessageType::Fragment, Endian::Little, 0x01020304);
        h.more_fragments = true;
        let bytes = h.to_bytes();
        assert_eq!(bytes[6], 0b11);
        assert_eq!(&bytes[8..12], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(GiopHeader::from_bytes(&bytes).unwrap(), h);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = GiopHeader::new(MessageType::Reply, Endian::Big, 0).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            GiopHeader::from_bytes(&bytes),
            Err(GiopError::BadMagic(_))
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = GiopHeader::new(MessageType::Reply, Endian::Big, 0).to_bytes();
        bytes[4] = 2;
        assert!(matches!(
            GiopHeader::from_bytes(&bytes),
            Err(GiopError::UnsupportedVersion { major: 2, .. })
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            GiopHeader::from_bytes(&[1, 2, 3]),
            Err(GiopError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn all_message_types_round_trip() {
        for t in 0..=7u8 {
            let mt = MessageType::from_u8(t).unwrap();
            assert_eq!(mt as u8, t);
        }
        assert!(matches!(
            MessageType::from_u8(8),
            Err(GiopError::UnknownMessageType(8))
        ));
    }
}
