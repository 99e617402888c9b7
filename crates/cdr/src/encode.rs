//! The CDR encoder: an append-only buffer with CDR alignment rules.

use crate::{pool, CdrError, Endian};

/// Encodes values into a CDR stream.
///
/// Alignment is computed relative to the encoder's *base*: position 0 for
/// an encoder made with [`CdrEncoder::new`], or the existing length of
/// the buffer handed to [`CdrEncoder::append_to`]. In GIOP the base
/// corresponds to the start of the message *body* (the 12-byte GIOP
/// header is constructed so that the body begins 8-aligned).
///
/// Fresh encoders draw their buffer from the thread-local [`pool`], so a
/// caller that recycles encoded bytes after use pays no allocation on
/// the steady-state path.
#[derive(Debug, Clone)]
pub struct CdrEncoder {
    buf: Vec<u8>,
    base: usize,
    endian: Endian,
}

impl CdrEncoder {
    /// Creates an empty encoder with the given byte order. The backing
    /// buffer comes from the thread-local [`pool`].
    pub fn new(endian: Endian) -> Self {
        CdrEncoder {
            buf: pool::take(),
            base: 0,
            endian,
        }
    }

    /// As [`CdrEncoder::new`], with room for `capacity` bytes reserved
    /// in one step: a caller that knows the encoded length beforehand
    /// never regrows the buffer.
    pub fn with_capacity(endian: Endian, capacity: usize) -> Self {
        let mut buf = pool::take();
        buf.reserve_exact(capacity);
        CdrEncoder {
            buf,
            base: 0,
            endian,
        }
    }

    /// Creates an encoder that appends to `buf`, treating the current
    /// end of `buf` as CDR position 0 for alignment. [`into_bytes`]
    /// returns the whole buffer, prefix included.
    ///
    /// [`into_bytes`]: CdrEncoder::into_bytes
    pub fn append_to(buf: Vec<u8>, endian: Endian) -> Self {
        let base = buf.len();
        CdrEncoder { buf, base, endian }
    }

    /// The byte order in use.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Length of the encoded stream (excluding any pre-existing prefix
    /// handed to [`CdrEncoder::append_to`]).
    pub fn len(&self) -> usize {
        self.buf.len() - self.base
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the encoder and returns the buffer — the encoded bytes,
    /// preceded by any prefix handed to [`CdrEncoder::append_to`].
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the bytes written by this encoder (excluding any
    /// prefix handed to [`CdrEncoder::append_to`]).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.base..]
    }

    /// Inserts padding bytes so the next write is `align`-aligned
    /// relative to the encoder's base. CDR pads with zero bytes.
    pub fn align(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two());
        let misalign = (self.buf.len() - self.base) % align;
        if misalign != 0 {
            self.buf.resize(self.buf.len() + (align - misalign), 0);
        }
    }

    /// Writes a single octet (no alignment).
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a boolean as an octet (1 = true, 0 = false).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Writes a 2-byte unsigned integer, 2-aligned.
    pub fn write_u16(&mut self, v: u16) {
        self.align(2);
        match self.endian {
            Endian::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
            Endian::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Writes a 4-byte unsigned integer, 4-aligned.
    pub fn write_u32(&mut self, v: u32) {
        self.align(4);
        match self.endian {
            Endian::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
            Endian::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Writes an 8-byte unsigned integer, 8-aligned.
    pub fn write_u64(&mut self, v: u64) {
        self.align(8);
        match self.endian {
            Endian::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
            Endian::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Writes a 2-byte signed integer, 2-aligned.
    pub fn write_i16(&mut self, v: i16) {
        self.write_u16(v as u16);
    }

    /// Writes a 4-byte signed integer, 4-aligned.
    pub fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }

    /// Writes an 8-byte signed integer, 8-aligned.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Writes an IEEE-754 single, 4-aligned.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Writes an IEEE-754 double, 8-aligned.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a CDR string: u32 length (including the NUL), the UTF-8
    /// bytes, then a NUL terminator.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError::BadStringTerminator`] if `s` contains an
    /// embedded NUL, which CDR cannot represent.
    pub fn write_string(&mut self, s: &str) -> Result<(), CdrError> {
        if crate::has_nul(s.as_bytes()) {
            return Err(CdrError::BadStringTerminator);
        }
        self.write_u32((s.len() + 1) as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
        Ok(())
    }

    /// Writes a `sequence<octet>`: u32 length then raw bytes.
    pub fn write_octet_seq(&mut self, bytes: &[u8]) {
        self.write_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes raw bytes with no length prefix and no alignment.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a CDR *encapsulation*: a `sequence<octet>` whose contents
    /// are an independently aligned CDR stream beginning with its own
    /// endianness flag byte.
    pub fn write_encapsulation(&mut self, build: impl FnOnce(&mut CdrEncoder)) {
        let mut inner = CdrEncoder::new(self.endian);
        inner.write_u8(self.endian.flag());
        build(&mut inner);
        self.write_octet_seq(inner.as_bytes());
        pool::recycle(inner.into_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_pads_with_zeros() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_u8(1);
        e.write_u32(2);
        assert_eq!(e.as_bytes(), &[1, 0, 0, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn no_padding_when_aligned() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_u32(1);
        e.write_u32(2);
        assert_eq!(e.len(), 8);
    }

    #[test]
    fn eight_byte_alignment() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_u32(0);
        e.write_u64(0x0102030405060708);
        assert_eq!(e.len(), 16);
        assert_eq!(&e.as_bytes()[8..], &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn little_endian_byte_order() {
        let mut e = CdrEncoder::new(Endian::Little);
        e.write_u16(0x0102);
        assert_eq!(e.as_bytes(), &[0x02, 0x01]);
    }

    #[test]
    fn string_encoding_includes_nul() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_string("hi").unwrap();
        assert_eq!(e.as_bytes(), &[0, 0, 0, 3, b'h', b'i', 0]);
    }

    #[test]
    fn empty_string_is_length_one() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_string("").unwrap();
        assert_eq!(e.as_bytes(), &[0, 0, 0, 1, 0]);
    }

    #[test]
    fn embedded_nul_rejected() {
        let mut e = CdrEncoder::new(Endian::Big);
        assert_eq!(e.write_string("a\0b"), Err(CdrError::BadStringTerminator));
    }

    #[test]
    fn octet_seq_has_length_prefix() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_octet_seq(&[9, 8]);
        assert_eq!(e.as_bytes(), &[0, 0, 0, 2, 9, 8]);
    }

    #[test]
    fn encapsulation_carries_flag_byte() {
        let mut e = CdrEncoder::new(Endian::Little);
        e.write_encapsulation(|inner| inner.write_u32(1));
        // len=8 (flag + 3 pad + 4 data), then flag=1 (little).
        assert_eq!(e.as_bytes(), &[8, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn floats_round_trip_via_bits() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_f32(1.5);
        e.write_f64(-2.25);
        assert_eq!(e.len(), 16); // 4 + pad 4 + 8
    }

    #[test]
    fn bool_encoding() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_bool(true);
        e.write_bool(false);
        assert_eq!(e.as_bytes(), &[1, 0]);
    }

    #[test]
    fn append_to_aligns_relative_to_the_prefix_end() {
        // A 3-byte prefix must not perturb CDR alignment: position 0 is
        // the end of the prefix, so a u32 goes down with no padding.
        let mut e = CdrEncoder::append_to(vec![0xAA, 0xBB, 0xCC], Endian::Big);
        assert!(e.is_empty());
        e.write_u32(0x01020304);
        assert_eq!(e.len(), 4);
        assert_eq!(e.as_bytes(), &[1, 2, 3, 4]);
        assert_eq!(e.into_bytes(), vec![0xAA, 0xBB, 0xCC, 1, 2, 3, 4]);
    }

    #[test]
    fn append_to_matches_fresh_encoder_byte_for_byte() {
        let mut fresh = CdrEncoder::new(Endian::Little);
        fresh.write_u8(7);
        fresh.write_u64(0x1122334455667788);
        fresh.write_string("pad").unwrap();

        let mut appended = CdrEncoder::append_to(vec![0xFF; 5], Endian::Little);
        appended.write_u8(7);
        appended.write_u64(0x1122334455667788);
        appended.write_string("pad").unwrap();

        assert_eq!(fresh.as_bytes(), appended.as_bytes());
    }
}
