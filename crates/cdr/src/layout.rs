//! Layout arithmetic: where a value written at or after position `at`
//! of a CDR stream ends.
//!
//! Every CDR value is either fixed-size or carries its length, so a
//! caller that holds its fields can compute an encoding's exact length
//! with these — and reserve the buffer once
//! ([`crate::CdrEncoder::with_capacity`]) — before writing a byte.
//! Positions are relative to the stream's alignment base, as in
//! [`crate::CdrEncoder`].

/// End of a 4-byte integer.
pub fn end_u32(at: usize) -> usize {
    at.next_multiple_of(4) + 4
}

/// End of a `sequence<octet>` of `len` bytes.
pub fn end_octet_seq(at: usize, len: usize) -> usize {
    end_u32(at) + len
}

/// End of the string `s` (its NUL included).
pub fn end_string(at: usize, s: &str) -> usize {
    end_u32(at) + s.len() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdrEncoder, Endian};

    #[test]
    fn every_end_is_where_the_encoder_stops_at_every_misalignment() {
        for at in 0..=8 {
            let started = || {
                let mut enc = CdrEncoder::new(Endian::Big);
                enc.write_raw(&[0; 8][..at]);
                enc
            };
            let mut enc = started();
            enc.write_u32(1);
            assert_eq!(end_u32(at), enc.len());
            for len in [0, 1, 5] {
                let mut enc = started();
                enc.write_octet_seq(&[7; 5][..len]);
                assert_eq!(end_octet_seq(at, len), enc.len());
                let mut enc = started();
                enc.write_string(&"abcde"[..len]).unwrap();
                assert_eq!(end_string(at, &"abcde"[..len]), enc.len());
            }
        }
    }
}
