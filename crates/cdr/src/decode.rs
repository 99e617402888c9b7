//! The CDR decoder: a cursor over a byte slice applying CDR alignment
//! rules.

use crate::{CdrError, Endian};

/// Decodes values from a CDR stream.
///
/// As with [`crate::CdrEncoder`], alignment is relative to position 0 of
/// the given buffer.
#[derive(Debug, Clone)]
pub struct CdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    endian: Endian,
}

impl<'a> CdrDecoder<'a> {
    /// Creates a decoder over `buf` with the given byte order.
    pub fn new(buf: &'a [u8], endian: Endian) -> Self {
        CdrDecoder {
            buf,
            pos: 0,
            endian,
        }
    }

    /// The byte order in use.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is exhausted.
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// Skips padding so the next read is `align`-aligned.
    #[inline]
    pub fn align(&mut self, align: usize) -> Result<(), CdrError> {
        debug_assert!(align.is_power_of_two());
        let misalign = self.pos % align;
        if misalign != 0 {
            self.take(align - misalign)?;
        }
        Ok(())
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        if self.remaining() < n {
            return Err(CdrError::BufferUnderflow {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single octet.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, CdrError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean octet, rejecting values other than 0 and 1.
    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, CdrError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CdrError::InvalidBool(b)),
        }
    }

    /// Reads a 2-byte unsigned integer, 2-aligned.
    pub fn read_u16(&mut self) -> Result<u16, CdrError> {
        self.align(2)?;
        let b: [u8; 2] = self.take(2)?.try_into().expect("len checked");
        Ok(match self.endian {
            Endian::Big => u16::from_be_bytes(b),
            Endian::Little => u16::from_le_bytes(b),
        })
    }

    /// Reads a 4-byte unsigned integer, 4-aligned.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, CdrError> {
        self.align(4)?;
        let b: [u8; 4] = self.take(4)?.try_into().expect("len checked");
        Ok(match self.endian {
            Endian::Big => u32::from_be_bytes(b),
            Endian::Little => u32::from_le_bytes(b),
        })
    }

    /// Reads an 8-byte unsigned integer, 8-aligned.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, CdrError> {
        self.align(8)?;
        let b: [u8; 8] = self.take(8)?.try_into().expect("len checked");
        Ok(match self.endian {
            Endian::Big => u64::from_be_bytes(b),
            Endian::Little => u64::from_le_bytes(b),
        })
    }

    /// Reads a 2-byte signed integer, 2-aligned.
    pub fn read_i16(&mut self) -> Result<i16, CdrError> {
        Ok(self.read_u16()? as i16)
    }

    /// Reads a 4-byte signed integer, 4-aligned.
    pub fn read_i32(&mut self) -> Result<i32, CdrError> {
        Ok(self.read_u32()? as i32)
    }

    /// Reads an 8-byte signed integer, 8-aligned.
    pub fn read_i64(&mut self) -> Result<i64, CdrError> {
        Ok(self.read_u64()? as i64)
    }

    /// Reads an IEEE-754 single, 4-aligned.
    pub fn read_f32(&mut self) -> Result<f32, CdrError> {
        Ok(f32::from_bits(self.read_u32()?))
    }

    /// Reads an IEEE-754 double, 8-aligned.
    pub fn read_f64(&mut self) -> Result<f64, CdrError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a CDR string (length includes the NUL terminator) as a
    /// view into the input: checked, not copied.
    #[inline]
    pub fn read_str(&mut self) -> Result<&'a str, CdrError> {
        let len = self.read_u32()?;
        if len == 0 {
            return Err(CdrError::BadStringTerminator);
        }
        if len as usize > self.remaining() {
            return Err(CdrError::LengthOverrun {
                declared: len,
                remaining: self.remaining(),
            });
        }
        let bytes = self.take(len as usize)?;
        let (last, body) = bytes.split_last().expect("len >= 1");
        if *last != 0 || crate::has_nul(body) {
            return Err(CdrError::BadStringTerminator);
        }
        std::str::from_utf8(body).map_err(|_| CdrError::InvalidUtf8)
    }

    /// Reads a CDR string into an owned `String`.
    pub fn read_string(&mut self) -> Result<String, CdrError> {
        self.read_str().map(str::to_owned)
    }

    /// Reads a `sequence<octet>` as a view into the input.
    #[inline]
    pub fn read_octets(&mut self) -> Result<&'a [u8], CdrError> {
        let len = self.read_u32()?;
        if len as usize > self.remaining() {
            return Err(CdrError::LengthOverrun {
                declared: len,
                remaining: self.remaining(),
            });
        }
        self.take(len as usize)
    }

    /// Reads a `sequence<octet>` into an owned buffer.
    pub fn read_octet_seq(&mut self) -> Result<Vec<u8>, CdrError> {
        self.read_octets().map(<[u8]>::to_vec)
    }

    /// Reads `n` raw bytes with no alignment.
    pub fn read_raw(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        self.take(n)
    }

    /// Reads a CDR encapsulation and hands a fresh decoder (positioned
    /// after the flag byte, with the encapsulated byte order) to `parse`.
    pub fn read_encapsulation<T>(
        &mut self,
        parse: impl FnOnce(&mut CdrDecoder<'_>) -> Result<T, CdrError>,
    ) -> Result<T, CdrError> {
        let bytes = self.read_octets()?;
        if bytes.is_empty() {
            return Err(CdrError::BufferUnderflow {
                needed: 1,
                remaining: 0,
            });
        }
        let endian = Endian::from_flag(bytes[0]);
        let mut inner = CdrDecoder::new(bytes, endian);
        inner.read_u8()?; // consume flag byte; alignment stays relative to buffer start
        parse(&mut inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CdrEncoder;

    fn round_trip(build: impl FnOnce(&mut CdrEncoder)) -> Vec<u8> {
        let mut e = CdrEncoder::new(Endian::Big);
        build(&mut e);
        e.into_bytes()
    }

    #[test]
    fn primitives_round_trip_big_endian() {
        let bytes = round_trip(|e| {
            e.write_u8(7);
            e.write_u16(300);
            e.write_u32(70_000);
            e.write_u64(1 << 40);
            e.write_i32(-5);
            e.write_f64(3.25);
            e.write_bool(true);
        });
        let mut d = CdrDecoder::new(&bytes, Endian::Big);
        assert_eq!(d.read_u8().unwrap(), 7);
        assert_eq!(d.read_u16().unwrap(), 300);
        assert_eq!(d.read_u32().unwrap(), 70_000);
        assert_eq!(d.read_u64().unwrap(), 1 << 40);
        assert_eq!(d.read_i32().unwrap(), -5);
        assert_eq!(d.read_f64().unwrap(), 3.25);
        assert!(d.read_bool().unwrap());
        assert!(d.is_at_end());
    }

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut e = CdrEncoder::new(Endian::Little);
        e.write_u32(0xDEADBEEF);
        e.write_i16(-2);
        let bytes = e.into_bytes();
        let mut d = CdrDecoder::new(&bytes, Endian::Little);
        assert_eq!(d.read_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.read_i16().unwrap(), -2);
    }

    #[test]
    fn string_round_trip() {
        let bytes = round_trip(|e| e.write_string("hello CORBA").unwrap());
        let mut d = CdrDecoder::new(&bytes, Endian::Big);
        assert_eq!(d.read_string().unwrap(), "hello CORBA");
    }

    #[test]
    fn underflow_reports_sizes() {
        let mut d = CdrDecoder::new(&[0, 0], Endian::Big);
        assert_eq!(
            d.read_u32(),
            Err(CdrError::BufferUnderflow {
                needed: 4,
                remaining: 2
            })
        );
    }

    #[test]
    fn bad_bool_rejected() {
        let mut d = CdrDecoder::new(&[2], Endian::Big);
        assert_eq!(d.read_bool(), Err(CdrError::InvalidBool(2)));
    }

    #[test]
    fn string_without_nul_rejected() {
        // length 2, bytes "ab" (no NUL)
        let mut d = CdrDecoder::new(&[0, 0, 0, 2, b'a', b'b'], Endian::Big);
        assert_eq!(d.read_string(), Err(CdrError::BadStringTerminator));
    }

    #[test]
    fn string_with_embedded_nul_rejected_before_its_utf8_is_looked_at() {
        let mut d = CdrDecoder::new(&[0, 0, 0, 4, b'a', 0, b'b', 0], Endian::Big);
        assert_eq!(d.read_string(), Err(CdrError::BadStringTerminator));
        let mut d = CdrDecoder::new(&[0, 0, 0, 4, 0xFF, 0, b'b', 0], Endian::Big);
        assert_eq!(d.read_str(), Err(CdrError::BadStringTerminator));
    }

    #[test]
    fn string_length_overrun_rejected() {
        let mut d = CdrDecoder::new(&[0, 0, 0, 200, b'a'], Endian::Big);
        assert!(matches!(
            d.read_string(),
            Err(CdrError::LengthOverrun { declared: 200, .. })
        ));
    }

    #[test]
    fn zero_length_string_rejected() {
        let mut d = CdrDecoder::new(&[0, 0, 0, 0], Endian::Big);
        assert_eq!(d.read_string(), Err(CdrError::BadStringTerminator));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut d = CdrDecoder::new(&[0, 0, 0, 3, 0xFF, 0xFE, 0], Endian::Big);
        assert_eq!(d.read_string(), Err(CdrError::InvalidUtf8));
    }

    #[test]
    fn octet_seq_round_trip() {
        let bytes = round_trip(|e| e.write_octet_seq(&[1, 2, 3]));
        let mut d = CdrDecoder::new(&bytes, Endian::Big);
        assert_eq!(d.read_octet_seq().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn alignment_matches_encoder() {
        let bytes = round_trip(|e| {
            e.write_u8(1);
            e.write_u64(2);
        });
        let mut d = CdrDecoder::new(&bytes, Endian::Big);
        assert_eq!(d.read_u8().unwrap(), 1);
        assert_eq!(d.read_u64().unwrap(), 2);
    }

    #[test]
    fn encapsulation_round_trip_preserves_inner_endian() {
        let mut e = CdrEncoder::new(Endian::Little);
        e.write_encapsulation(|inner| inner.write_u32(77));
        let bytes = e.into_bytes();
        // Outer reader may use either endian for the length; inner flag governs contents.
        let mut d = CdrDecoder::new(&bytes, Endian::Little);
        let v = d
            .read_encapsulation(|inner| {
                assert_eq!(inner.endian(), Endian::Little);
                inner.read_u32()
            })
            .unwrap();
        assert_eq!(v, 77);
    }

    #[test]
    fn empty_encapsulation_rejected() {
        let mut d = CdrDecoder::new(&[0, 0, 0, 0], Endian::Big);
        assert!(d.read_encapsulation(|_| Ok(())).is_err());
    }

    #[test]
    fn read_raw_and_position() {
        let mut d = CdrDecoder::new(&[1, 2, 3, 4], Endian::Big);
        assert_eq!(d.read_raw(2).unwrap(), &[1, 2]);
        assert_eq!(d.position(), 2);
        assert_eq!(d.remaining(), 2);
    }
}
