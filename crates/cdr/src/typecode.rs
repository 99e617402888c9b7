//! CORBA `TypeCode`s: runtime descriptions of IDL types, marshalled
//! ahead of the value inside every `any`.
//!
//! The subset implemented here covers what the Eternal reproduction
//! needs: all fixed-size primitives, strings, octets, sequences, structs,
//! and enums. Kind numbers follow the CORBA `TCKind` enumeration.

use crate::any::DecodeLimits;
use crate::{CdrDecoder, CdrEncoder, CdrError};

/// A runtime description of an IDL type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeCode {
    /// `tk_null` — no value.
    Null,
    /// `tk_boolean`.
    Boolean,
    /// `tk_octet`.
    Octet,
    /// `tk_short` (i16).
    Short,
    /// `tk_ushort` (u16).
    UShort,
    /// `tk_long` (i32).
    Long,
    /// `tk_ulong` (u32).
    ULong,
    /// `tk_longlong` (i64).
    LongLong,
    /// `tk_ulonglong` (u64).
    ULongLong,
    /// `tk_float` (f32).
    Float,
    /// `tk_double` (f64).
    Double,
    /// `tk_string` (unbounded).
    String,
    /// `tk_sequence` (unbounded) of a single element type.
    Sequence(Box<TypeCode>),
    /// `tk_struct`: a repository name and ordered member types.
    Struct {
        /// The struct's IDL name.
        name: std::string::String,
        /// Ordered `(member name, member type)` pairs.
        members: Vec<(std::string::String, TypeCode)>,
    },
    /// `tk_enum`: a repository name and its enumerators.
    Enum {
        /// The enum's IDL name.
        name: std::string::String,
        /// Enumerator names, in declaration (discriminant) order.
        enumerators: Vec<std::string::String>,
    },
    /// `tk_any`: a nested self-describing value.
    Any,
}

// CORBA TCKind values for the supported subset.
const TK_NULL: u32 = 0;
const TK_SHORT: u32 = 2;
const TK_LONG: u32 = 3;
const TK_USHORT: u32 = 4;
const TK_ULONG: u32 = 5;
const TK_FLOAT: u32 = 6;
const TK_DOUBLE: u32 = 7;
const TK_BOOLEAN: u32 = 8;
const TK_ANY: u32 = 11;
const TK_OCTET: u32 = 10;
const TK_STRUCT: u32 = 15;
const TK_ENUM: u32 = 17;
const TK_STRING: u32 = 18;
const TK_SEQUENCE: u32 = 19;
const TK_LONGLONG: u32 = 23;
const TK_ULONGLONG: u32 = 24;

impl TypeCode {
    /// A short human-readable name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TypeCode::Null => "null",
            TypeCode::Boolean => "boolean",
            TypeCode::Octet => "octet",
            TypeCode::Short => "short",
            TypeCode::UShort => "ushort",
            TypeCode::Long => "long",
            TypeCode::ULong => "ulong",
            TypeCode::LongLong => "longlong",
            TypeCode::ULongLong => "ulonglong",
            TypeCode::Float => "float",
            TypeCode::Double => "double",
            TypeCode::String => "string",
            TypeCode::Sequence(_) => "sequence",
            TypeCode::Struct { .. } => "struct",
            TypeCode::Enum { .. } => "enum",
            TypeCode::Any => "any",
        }
    }

    /// The minimum number of bytes a value of this type occupies on the
    /// wire (ignoring alignment padding). Used to reject sequences whose
    /// declared length cannot possibly fit the remaining input.
    pub fn min_encoded_size(&self) -> usize {
        match self {
            TypeCode::Null => 0,
            TypeCode::Boolean | TypeCode::Octet => 1,
            TypeCode::Short | TypeCode::UShort => 2,
            TypeCode::Long | TypeCode::ULong | TypeCode::Float | TypeCode::Enum { .. } => 4,
            TypeCode::LongLong | TypeCode::ULongLong | TypeCode::Double => 8,
            TypeCode::String => 5,      // length word + NUL
            TypeCode::Sequence(_) => 4, // length word
            TypeCode::Struct { members, .. } => {
                members.iter().map(|(_, tc)| tc.min_encoded_size()).sum()
            }
            TypeCode::Any => 4, // nested TCKind word
        }
    }

    /// Marshals this type code.
    pub fn encode(&self, enc: &mut CdrEncoder) -> Result<(), CdrError> {
        match self {
            TypeCode::Null => enc.write_u32(TK_NULL),
            TypeCode::Boolean => enc.write_u32(TK_BOOLEAN),
            TypeCode::Octet => enc.write_u32(TK_OCTET),
            TypeCode::Short => enc.write_u32(TK_SHORT),
            TypeCode::UShort => enc.write_u32(TK_USHORT),
            TypeCode::Long => enc.write_u32(TK_LONG),
            TypeCode::ULong => enc.write_u32(TK_ULONG),
            TypeCode::LongLong => enc.write_u32(TK_LONGLONG),
            TypeCode::ULongLong => enc.write_u32(TK_ULONGLONG),
            TypeCode::Float => enc.write_u32(TK_FLOAT),
            TypeCode::Double => enc.write_u32(TK_DOUBLE),
            TypeCode::String => {
                enc.write_u32(TK_STRING);
                enc.write_u32(0); // unbounded
            }
            TypeCode::Sequence(elem) => {
                enc.write_u32(TK_SEQUENCE);
                let elem = elem.clone();
                let mut err = Ok(());
                enc.write_encapsulation(|inner| {
                    err = elem.encode(inner);
                    if err.is_ok() {
                        inner.write_u32(0); // unbounded
                    }
                });
                err?;
            }
            TypeCode::Struct { name, members } => {
                enc.write_u32(TK_STRUCT);
                let mut err = Ok(());
                enc.write_encapsulation(|inner| {
                    err = (|| {
                        inner.write_string(name)?;
                        inner.write_u32(members.len() as u32);
                        for (mname, mtc) in members {
                            inner.write_string(mname)?;
                            mtc.encode(inner)?;
                        }
                        Ok(())
                    })();
                });
                err?;
            }
            TypeCode::Enum { name, enumerators } => {
                enc.write_u32(TK_ENUM);
                let mut err = Ok(());
                enc.write_encapsulation(|inner| {
                    err = (|| {
                        inner.write_string(name)?;
                        inner.write_u32(enumerators.len() as u32);
                        for e in enumerators {
                            inner.write_string(e)?;
                        }
                        Ok(())
                    })();
                });
                err?;
            }
            TypeCode::Any => enc.write_u32(TK_ANY),
        }
        Ok(())
    }

    /// Unmarshals a type code.
    ///
    /// # Errors
    ///
    /// Besides malformed input: [`CdrError::NestingTooDeep`] past
    /// [`crate::MAX_NESTING_DEPTH`] levels of element or member types.
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<TypeCode, CdrError> {
        TypeCode::decode_within(dec, &mut DecodeLimits::for_input(dec))
    }

    pub(crate) fn decode_within(
        dec: &mut CdrDecoder<'_>,
        limits: &mut DecodeLimits,
    ) -> Result<TypeCode, CdrError> {
        let kind = dec.read_u32()?;
        Ok(match kind {
            TK_NULL => TypeCode::Null,
            TK_BOOLEAN => TypeCode::Boolean,
            TK_OCTET => TypeCode::Octet,
            TK_SHORT => TypeCode::Short,
            TK_USHORT => TypeCode::UShort,
            TK_LONG => TypeCode::Long,
            TK_ULONG => TypeCode::ULong,
            TK_LONGLONG => TypeCode::LongLong,
            TK_ULONGLONG => TypeCode::ULongLong,
            TK_FLOAT => TypeCode::Float,
            TK_DOUBLE => TypeCode::Double,
            TK_ANY => TypeCode::Any,
            TK_STRING => {
                dec.read_u32()?; // bound (ignored; we only produce 0)
                TypeCode::String
            }
            TK_SEQUENCE => dec.read_encapsulation(|inner| {
                let elem = limits.nested(|l| TypeCode::decode_within(inner, l))?;
                inner.read_u32()?; // bound
                Ok(TypeCode::Sequence(Box::new(elem)))
            })?,
            TK_STRUCT => dec.read_encapsulation(|inner| {
                let name = inner.read_string()?;
                let count = inner.read_u32()?;
                let mut members = Vec::with_capacity(count.min(1024) as usize);
                for _ in 0..count {
                    let mname = inner.read_string()?;
                    let mtc = limits.nested(|l| TypeCode::decode_within(inner, l))?;
                    members.push((mname, mtc));
                }
                Ok(TypeCode::Struct { name, members })
            })?,
            TK_ENUM => dec.read_encapsulation(|inner| {
                let name = inner.read_string()?;
                let count = inner.read_u32()?;
                let mut enumerators = Vec::with_capacity(count.min(1024) as usize);
                for _ in 0..count {
                    enumerators.push(inner.read_string()?);
                }
                Ok(TypeCode::Enum { name, enumerators })
            })?,
            other => return Err(CdrError::UnknownTypeCodeKind(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endian;

    fn round_trip(tc: &TypeCode) -> TypeCode {
        let mut e = CdrEncoder::new(Endian::Big);
        tc.encode(&mut e).unwrap();
        let bytes = e.into_bytes();
        let mut d = CdrDecoder::new(&bytes, Endian::Big);
        let back = TypeCode::decode(&mut d).unwrap();
        assert!(d.is_at_end(), "trailing bytes after typecode");
        back
    }

    #[test]
    fn primitive_round_trips() {
        for tc in [
            TypeCode::Null,
            TypeCode::Boolean,
            TypeCode::Octet,
            TypeCode::Short,
            TypeCode::UShort,
            TypeCode::Long,
            TypeCode::ULong,
            TypeCode::LongLong,
            TypeCode::ULongLong,
            TypeCode::Float,
            TypeCode::Double,
            TypeCode::String,
            TypeCode::Any,
        ] {
            assert_eq!(round_trip(&tc), tc);
        }
    }

    #[test]
    fn sequence_round_trip() {
        let tc = TypeCode::Sequence(Box::new(TypeCode::Sequence(Box::new(TypeCode::ULong))));
        assert_eq!(round_trip(&tc), tc);
    }

    #[test]
    fn struct_round_trip() {
        let tc = TypeCode::Struct {
            name: "Account".into(),
            members: vec![
                ("id".into(), TypeCode::ULong),
                ("owner".into(), TypeCode::String),
                (
                    "history".into(),
                    TypeCode::Sequence(Box::new(TypeCode::Double)),
                ),
            ],
        };
        assert_eq!(round_trip(&tc), tc);
    }

    #[test]
    fn enum_round_trip() {
        let tc = TypeCode::Enum {
            name: "Color".into(),
            enumerators: vec!["RED".into(), "GREEN".into(), "BLUE".into()],
        };
        assert_eq!(round_trip(&tc), tc);
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut e = CdrEncoder::new(Endian::Big);
        e.write_u32(9999);
        let bytes = e.into_bytes();
        let mut d = CdrDecoder::new(&bytes, Endian::Big);
        assert_eq!(
            TypeCode::decode(&mut d),
            Err(CdrError::UnknownTypeCodeKind(9999))
        );
    }

    #[test]
    fn kind_names() {
        assert_eq!(TypeCode::ULong.kind_name(), "ulong");
        assert_eq!(
            TypeCode::Sequence(Box::new(TypeCode::Octet)).kind_name(),
            "sequence"
        );
    }
}
