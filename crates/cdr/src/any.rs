//! The CORBA `any` type: a self-describing `(TypeCode, value)` pair.
//!
//! The Fault-Tolerant CORBA standard defines application-level state as
//! `typedef any State`, so checkpoints produced by `get_state()` and
//! consumed by `set_state()` travel as [`Any`] values (paper §4.1,
//! Figure 3).

use crate::{CdrDecoder, CdrEncoder, CdrError, TypeCode};

/// A dynamically typed CORBA value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No value (`tk_null`).
    Null,
    /// `boolean`.
    Boolean(bool),
    /// `octet`.
    Octet(u8),
    /// `short`.
    Short(i16),
    /// `unsigned short`.
    UShort(u16),
    /// `long`.
    Long(i32),
    /// `unsigned long`.
    ULong(u32),
    /// `long long`.
    LongLong(i64),
    /// `unsigned long long`.
    ULongLong(u64),
    /// `float`.
    Float(f32),
    /// `double`.
    Double(f64),
    /// `string`.
    String(String),
    /// A homogeneous `sequence`. Element type is taken from the first
    /// element when inferring a type code; empty sequences infer
    /// `sequence<octet>`.
    Sequence(Vec<Value>),
    /// A `sequence<octet>` held as one buffer — the shape of an opaque
    /// application checkpoint, and the only shape [`Value::decode`]
    /// yields for that type. On the wire it is identical to an
    /// element-wise `Sequence` of `Octet`s, which `encode` still accepts.
    Octets(Vec<u8>),
    /// A `struct` with anonymous members (member names live in the
    /// [`TypeCode`]).
    Struct(Vec<Value>),
    /// An `enum` discriminant.
    Enum(u32),
    /// A nested `any`.
    Any(Box<Any>),
}

impl Value {
    /// A short human-readable name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Boolean(_) => "boolean",
            Value::Octet(_) => "octet",
            Value::Short(_) => "short",
            Value::UShort(_) => "ushort",
            Value::Long(_) => "long",
            Value::ULong(_) => "ulong",
            Value::LongLong(_) => "longlong",
            Value::ULongLong(_) => "ulonglong",
            Value::Float(_) => "float",
            Value::Double(_) => "double",
            Value::String(_) => "string",
            Value::Sequence(_) => "sequence",
            Value::Octets(_) => "sequence<octet>",
            Value::Struct(_) => "struct",
            Value::Enum(_) => "enum",
            Value::Any(_) => "any",
        }
    }

    /// Infers a [`TypeCode`] describing this value.
    ///
    /// Struct and enum names are inferred as `"anonymous"`; callers that
    /// care about repository names should construct the [`Any`] with an
    /// explicit type code instead.
    pub fn infer_typecode(&self) -> TypeCode {
        match self {
            Value::Null => TypeCode::Null,
            Value::Boolean(_) => TypeCode::Boolean,
            Value::Octet(_) => TypeCode::Octet,
            Value::Short(_) => TypeCode::Short,
            Value::UShort(_) => TypeCode::UShort,
            Value::Long(_) => TypeCode::Long,
            Value::ULong(_) => TypeCode::ULong,
            Value::LongLong(_) => TypeCode::LongLong,
            Value::ULongLong(_) => TypeCode::ULongLong,
            Value::Float(_) => TypeCode::Float,
            Value::Double(_) => TypeCode::Double,
            Value::String(_) => TypeCode::String,
            Value::Sequence(items) => TypeCode::Sequence(Box::new(
                items
                    .first()
                    .map(Value::infer_typecode)
                    .unwrap_or(TypeCode::Octet),
            )),
            Value::Octets(_) => TypeCode::Sequence(Box::new(TypeCode::Octet)),
            Value::Struct(members) => TypeCode::Struct {
                name: "anonymous".into(),
                members: members
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (format!("m{i}"), m.infer_typecode()))
                    .collect(),
            },
            Value::Enum(_) => TypeCode::Enum {
                name: "anonymous".into(),
                enumerators: Vec::new(),
            },
            Value::Any(_) => TypeCode::Any,
        }
    }

    /// Marshals this value according to `tc`.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError::TypeMismatch`] when the value's shape does not
    /// match `tc`.
    pub fn encode(&self, tc: &TypeCode, enc: &mut CdrEncoder) -> Result<(), CdrError> {
        let mismatch = || CdrError::TypeMismatch {
            expected: tc.kind_name(),
            found: self.kind_name(),
        };
        match (tc, self) {
            (TypeCode::Null, Value::Null) => {}
            (TypeCode::Boolean, Value::Boolean(b)) => enc.write_bool(*b),
            (TypeCode::Octet, Value::Octet(o)) => enc.write_u8(*o),
            (TypeCode::Short, Value::Short(v)) => enc.write_i16(*v),
            (TypeCode::UShort, Value::UShort(v)) => enc.write_u16(*v),
            (TypeCode::Long, Value::Long(v)) => enc.write_i32(*v),
            (TypeCode::ULong, Value::ULong(v)) => enc.write_u32(*v),
            (TypeCode::LongLong, Value::LongLong(v)) => enc.write_i64(*v),
            (TypeCode::ULongLong, Value::ULongLong(v)) => enc.write_u64(*v),
            (TypeCode::Float, Value::Float(v)) => enc.write_f32(*v),
            (TypeCode::Double, Value::Double(v)) => enc.write_f64(*v),
            (TypeCode::String, Value::String(s)) => enc.write_string(s)?,
            (TypeCode::Sequence(elem), Value::Octets(bytes)) if **elem == TypeCode::Octet => {
                enc.write_octet_seq(bytes)
            }
            (TypeCode::Sequence(elem), Value::Sequence(items)) => {
                enc.write_u32(items.len() as u32);
                for item in items {
                    item.encode(elem, enc)?;
                }
            }
            (TypeCode::Struct { members, .. }, Value::Struct(values)) => {
                if members.len() != values.len() {
                    return Err(mismatch());
                }
                for ((_, mtc), v) in members.iter().zip(values) {
                    v.encode(mtc, enc)?;
                }
            }
            (TypeCode::Enum { enumerators, .. }, Value::Enum(d)) => {
                if !enumerators.is_empty() && *d as usize >= enumerators.len() {
                    return Err(CdrError::InvalidEnumDiscriminant {
                        got: *d,
                        count: enumerators.len() as u32,
                    });
                }
                enc.write_u32(*d);
            }
            (TypeCode::Any, Value::Any(inner)) => inner.encode(enc)?,
            _ => return Err(mismatch()),
        }
        Ok(())
    }

    /// Unmarshals a value of type `tc`.
    ///
    /// # Errors
    ///
    /// Besides malformed input: [`CdrError::LengthOverrun`] for a
    /// sequence the remaining input cannot back, and
    /// [`CdrError::NestingTooDeep`] past [`MAX_NESTING_DEPTH`].
    pub fn decode(tc: &TypeCode, dec: &mut CdrDecoder<'_>) -> Result<Value, CdrError> {
        Value::decode_within(tc, dec, &mut DecodeLimits::for_input(dec))
    }

    fn decode_within(
        tc: &TypeCode,
        dec: &mut CdrDecoder<'_>,
        limits: &mut DecodeLimits,
    ) -> Result<Value, CdrError> {
        let start = dec.position();
        let value = match tc {
            TypeCode::Null => Value::Null,
            TypeCode::Boolean => Value::Boolean(dec.read_bool()?),
            TypeCode::Octet => Value::Octet(dec.read_u8()?),
            TypeCode::Short => Value::Short(dec.read_i16()?),
            TypeCode::UShort => Value::UShort(dec.read_u16()?),
            TypeCode::Long => Value::Long(dec.read_i32()?),
            TypeCode::ULong => Value::ULong(dec.read_u32()?),
            TypeCode::LongLong => Value::LongLong(dec.read_i64()?),
            TypeCode::ULongLong => Value::ULongLong(dec.read_u64()?),
            TypeCode::Float => Value::Float(dec.read_f32()?),
            TypeCode::Double => Value::Double(dec.read_f64()?),
            TypeCode::String => Value::String(dec.read_string()?),
            TypeCode::Sequence(elem) => {
                let len = dec.read_u32()?;
                let overrun = |dec: &CdrDecoder<'_>| CdrError::LengthOverrun {
                    declared: len,
                    remaining: dec.remaining(),
                };
                // Reject a declared length the input cannot back: bytes
                // for sized elements, the decode's allowance of empty
                // values for elements that occupy none.
                let backed = match elem.min_encoded_size() {
                    0 => limits.empty_values.unwrap_or(0),
                    min => dec.remaining() / min,
                };
                if len as usize > backed {
                    return Err(overrun(dec));
                }
                if **elem == TypeCode::Octet {
                    // One copy into a plain `Vec`: state buffers are
                    // long-lived and must not draw from `crate::pool`.
                    Value::Octets(dec.read_raw(len as usize)?.to_vec())
                } else {
                    let mut items = Vec::with_capacity(len.min(65_536) as usize);
                    for _ in 0..len {
                        items.push(limits.nested(|l| Value::decode_within(elem, dec, l))?);
                        // Sized elements can still carry empty members.
                        if limits.empty_values.is_none() {
                            return Err(overrun(dec));
                        }
                    }
                    Value::Sequence(items)
                }
            }
            TypeCode::Struct { members, .. } => {
                let mut values = Vec::with_capacity(members.len());
                for (_, mtc) in members {
                    values.push(limits.nested(|l| Value::decode_within(mtc, dec, l))?);
                }
                Value::Struct(values)
            }
            TypeCode::Enum { enumerators, .. } => {
                let d = dec.read_u32()?;
                if !enumerators.is_empty() && d as usize >= enumerators.len() {
                    return Err(CdrError::InvalidEnumDiscriminant {
                        got: d,
                        count: enumerators.len() as u32,
                    });
                }
                Value::Enum(d)
            }
            TypeCode::Any => Value::Any(Box::new(limits.nested(|l| Any::decode_within(dec, l))?)),
        };
        if dec.position() == start {
            limits.empty_values = limits.empty_values.and_then(|left| left.checked_sub(1));
        }
        Ok(value)
    }
}

/// Deepest nesting — `any` in `any`, type code in type code, value in
/// sequence or struct — that decoding follows. Each level costs an
/// attacker only 4–12 input bytes but costs the decoder a stack frame.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Empty values (ones occupying no input bytes: `null`, member-less
/// structs) a decode accepts regardless of input size, so that short
/// legitimate `sequence<null>`s still round-trip.
const EMPTY_VALUES_FLOOR: usize = 1024;

/// What one top-level decode may still spend on input-declared work
/// that input bytes do not pay for.
pub(crate) struct DecodeLimits {
    depth: usize,
    /// Empty values still allowed: one per input byte, at least
    /// [`EMPTY_VALUES_FLOOR`]; `None` once overdrawn. Only a sequence
    /// can repeat a type's empty members, so sequences check it: before
    /// allocating, and after each element.
    empty_values: Option<usize>,
}

impl DecodeLimits {
    pub(crate) fn for_input(dec: &CdrDecoder<'_>) -> Self {
        DecodeLimits {
            depth: MAX_NESTING_DEPTH,
            empty_values: Some(dec.remaining().max(EMPTY_VALUES_FLOOR)),
        }
    }

    /// Runs `f` one nesting level down.
    pub(crate) fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CdrError>,
    ) -> Result<T, CdrError> {
        if self.depth == 0 {
            return Err(CdrError::NestingTooDeep {
                limit: MAX_NESTING_DEPTH,
            });
        }
        self.depth -= 1;
        let out = f(self);
        self.depth += 1;
        out
    }
}

/// A self-describing CORBA value: a [`TypeCode`] plus a matching
/// [`Value`]. This is the paper's `State` type.
#[derive(Debug, Clone, PartialEq)]
pub struct Any {
    /// Describes the shape of `value`.
    pub typecode: TypeCode,
    /// The payload.
    pub value: Value,
}

impl Any {
    /// Creates an `Any` with an explicit type code.
    ///
    /// # Errors
    ///
    /// Returns the error [`Any::encode`] would — a
    /// [`CdrError::TypeMismatch`], an out-of-range enum discriminant, a
    /// string with an embedded NUL — found eagerly by a full trial
    /// encode, which costs one pass over `value`.
    pub fn new(typecode: TypeCode, value: Value) -> Result<Self, CdrError> {
        let mut scratch = CdrEncoder::new(crate::Endian::Big);
        value.encode(&typecode, &mut scratch)?;
        Ok(Any { typecode, value })
    }

    /// Marshals the type code followed by the value.
    pub fn encode(&self, enc: &mut CdrEncoder) -> Result<(), CdrError> {
        self.typecode.encode(enc)?;
        self.value.encode(&self.typecode, enc)
    }

    /// Unmarshals a type code and then a value of that type.
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<Any, CdrError> {
        Any::decode_within(dec, &mut DecodeLimits::for_input(dec))
    }

    fn decode_within(dec: &mut CdrDecoder<'_>, limits: &mut DecodeLimits) -> Result<Any, CdrError> {
        let typecode = TypeCode::decode_within(dec, limits)?;
        let value = Value::decode_within(&typecode, dec, limits)?;
        Ok(Any { typecode, value })
    }

    /// Serializes to a standalone CDR encapsulation (with flag byte).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CdrError> {
        let mut enc = CdrEncoder::new(crate::Endian::Big);
        enc.write_u8(crate::Endian::Big.flag());
        self.encode(&mut enc)?;
        Ok(enc.into_bytes())
    }

    /// Deserializes from [`Any::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Any, CdrError> {
        if bytes.is_empty() {
            return Err(CdrError::BufferUnderflow {
                needed: 1,
                remaining: 0,
            });
        }
        let endian = crate::Endian::from_flag(bytes[0]);
        let mut dec = CdrDecoder::new(bytes, endian);
        dec.read_u8()?;
        Any::decode(&mut dec)
    }

    /// Approximate marshalled size in bytes (exact for the common case
    /// of already-encoded state blobs).
    pub fn encoded_len(&self) -> usize {
        self.to_bytes().map(|b| b.len()).unwrap_or(0)
    }
}

impl From<Value> for Any {
    /// Wraps a value, inferring its type code.
    fn from(value: Value) -> Self {
        Any {
            typecode: value.infer_typecode(),
            value,
        }
    }
}

impl From<u32> for Any {
    fn from(v: u32) -> Self {
        Any::from(Value::ULong(v))
    }
}

impl From<&str> for Any {
    fn from(s: &str) -> Self {
        Any::from(Value::String(s.to_owned()))
    }
}

impl From<Vec<u8>> for Any {
    /// Wraps raw bytes as `sequence<octet>` — the typical shape of an
    /// opaque application checkpoint.
    fn from(bytes: Vec<u8>) -> Self {
        Any::from(Value::Octets(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endian;

    fn round_trip(any: &Any) -> Any {
        let bytes = any.to_bytes().unwrap();
        Any::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn scalar_any_round_trips() {
        for v in [
            Value::Null,
            Value::Boolean(true),
            Value::Octet(255),
            Value::Short(-3),
            Value::UShort(9),
            Value::Long(-70_000),
            Value::ULong(70_000),
            Value::LongLong(-(1 << 40)),
            Value::ULongLong(1 << 50),
            Value::Float(1.5),
            Value::Double(-0.125),
            Value::String("state".into()),
        ] {
            let any = Any::from(v);
            assert_eq!(round_trip(&any), any);
        }
    }

    #[test]
    fn octet_blob_round_trips() {
        let any = Any::from(vec![0u8, 1, 2, 253, 254, 255]);
        assert_eq!(any.value.kind_name(), "sequence<octet>");
        assert_eq!(round_trip(&any), any);
    }

    #[test]
    fn nested_struct_round_trips() {
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
        let v = Value::Struct(vec![
            Value::ULong(12),
            Value::String("alice".into()),
            Value::Sequence(vec![Value::Double(1.0), Value::Double(2.5)]),
        ]);
        let any = Any::new(tc, v).unwrap();
        assert_eq!(round_trip(&any), any);
    }

    #[test]
    fn nested_any_round_trips() {
        let inner = Any::from(Value::ULong(5));
        let any = Any::from(Value::Any(Box::new(inner)));
        assert_eq!(round_trip(&any), any);
    }

    #[test]
    fn enum_round_trip_and_range_check() {
        let tc = TypeCode::Enum {
            name: "Color".into(),
            enumerators: vec!["R".into(), "G".into()],
        };
        let ok = Any::new(tc.clone(), Value::Enum(1)).unwrap();
        assert_eq!(round_trip(&ok), ok);
        assert!(matches!(
            Any::new(tc, Value::Enum(2)),
            Err(CdrError::InvalidEnumDiscriminant { got: 2, count: 2 })
        ));
    }

    #[test]
    fn type_mismatch_detected_at_construction() {
        assert!(matches!(
            Any::new(TypeCode::ULong, Value::String("no".into())),
            Err(CdrError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn struct_arity_mismatch_detected() {
        let tc = TypeCode::Struct {
            name: "P".into(),
            members: vec![("x".into(), TypeCode::ULong)],
        };
        assert!(Any::new(tc, Value::Struct(vec![])).is_err());
    }

    #[test]
    fn sequence_length_overrun_rejected_on_decode() {
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_u8(0); // endian flag
        TypeCode::Sequence(Box::new(TypeCode::Octet))
            .encode(&mut enc)
            .unwrap();
        enc.write_u32(1_000_000); // declared length with no data
        let bytes = enc.into_bytes();
        assert!(matches!(
            Any::from_bytes(&bytes),
            Err(CdrError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn infer_typecode_for_empty_sequence() {
        let v = Value::Sequence(vec![]);
        assert_eq!(
            v.infer_typecode(),
            TypeCode::Sequence(Box::new(TypeCode::Octet))
        );
        // … so on the far side it is an empty octet sequence.
        assert_eq!(round_trip(&Any::from(v)), Any::from(Vec::<u8>::new()));
    }

    #[test]
    fn conversions() {
        assert_eq!(Any::from(7u32).value, Value::ULong(7));
        assert_eq!(Any::from("x").value, Value::String("x".into()));
    }

    #[test]
    fn encoded_len_scales_with_payload() {
        let small = Any::from(vec![0u8; 10]);
        let large = Any::from(vec![0u8; 10_000]);
        assert!(large.encoded_len() > small.encoded_len() + 9_000);
    }

    #[test]
    fn from_bytes_empty_input() {
        assert!(Any::from_bytes(&[]).is_err());
    }
}
