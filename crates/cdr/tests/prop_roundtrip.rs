//! Property tests for the CDR codec, driven by the deterministic
//! `eternal-sim` RNG (fixed seeds) so the suite builds offline and
//! replays identically.
//!
//! The central invariant: a randomly generated `TypeCode` + matching
//! `Value` (primitives, strings, sequences, structs, enums, nested
//! `Any`) survives encode → decode **byte-exactly** — at every alignment
//! offset a surrounding stream could impose (exercised through
//! `CdrEncoder::append_to`), in both byte orders. Re-encoding the
//! decoded value must reproduce the original bytes, so the encoding is
//! canonical, not merely invertible. Beside it: the decoder never
//! panics and never allocates more than its input could back, and the
//! compact `Octets` shape is wire-identical to the element-wise one.

use eternal_cdr::{
    Any, CdrDecoder, CdrEncoder, CdrError, Endian, TypeCode, Value, MAX_NESTING_DEPTH,
};
use eternal_sim::rng::SimRng;

/// Generates a random type code. `depth` bounds recursion so a case is
/// always finitely sized; at depth 0 only scalars and strings appear.
fn gen_typecode(rng: &mut SimRng, depth: usize) -> TypeCode {
    let scalar_kinds = 13;
    let kinds = if depth == 0 {
        scalar_kinds
    } else {
        scalar_kinds + 4
    };
    match rng.gen_range(kinds) {
        0 => TypeCode::Null,
        1 => TypeCode::Boolean,
        2 => TypeCode::Octet,
        3 => TypeCode::Short,
        4 => TypeCode::UShort,
        5 => TypeCode::Long,
        6 => TypeCode::ULong,
        7 => TypeCode::LongLong,
        8 => TypeCode::ULongLong,
        9 => TypeCode::Float,
        10 => TypeCode::Double,
        11 => TypeCode::String,
        12 => TypeCode::Enum {
            name: gen_name(rng),
            enumerators: (0..1 + rng.gen_range(4)).map(|_| gen_name(rng)).collect(),
        },
        13 => TypeCode::Sequence(Box::new(gen_typecode(rng, depth - 1))),
        14 => TypeCode::Struct {
            name: gen_name(rng),
            members: (0..rng.gen_range(4))
                .map(|_| (gen_name(rng), gen_typecode(rng, depth - 1)))
                .collect(),
        },
        15 => TypeCode::Any,
        _ => TypeCode::Struct {
            name: gen_name(rng),
            members: vec![
                (gen_name(rng), TypeCode::Octet),
                (gen_name(rng), gen_typecode(rng, depth - 1)),
            ],
        },
    }
}

/// A short random identifier (ASCII, no NUL, possibly empty).
fn gen_name(rng: &mut SimRng) -> String {
    let len = rng.gen_range(9) as usize;
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(26) as u8))
        .collect()
}

/// A random string payload: printable ASCII so `write_string` accepts it
/// (CDR cannot carry embedded NULs).
fn gen_string(rng: &mut SimRng) -> String {
    let len = rng.gen_range(13) as usize;
    (0..len)
        .map(|_| char::from(b' ' + rng.gen_range(95) as u8))
        .collect()
}

/// A random finite float: quarter-integers, so encode → decode → encode
/// is bit-stable and `PartialEq` on the decoded value is meaningful
/// (NaN would defeat the equality half of the property).
fn gen_f64(rng: &mut SimRng) -> f64 {
    (rng.gen_range(16_001) as f64 - 8_000.0) / 4.0
}

fn gen_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Generates a value matching `tc`, in the shape `decode` yields for it
/// (`sequence<octet>` is always `Octets`).
fn gen_value(rng: &mut SimRng, tc: &TypeCode, depth: usize) -> Value {
    match tc {
        TypeCode::Null => Value::Null,
        TypeCode::Boolean => Value::Boolean(rng.chance(0.5)),
        TypeCode::Octet => Value::Octet(rng.next_u64() as u8),
        TypeCode::Short => Value::Short(rng.next_u64() as i16),
        TypeCode::UShort => Value::UShort(rng.next_u64() as u16),
        TypeCode::Long => Value::Long(rng.next_u64() as i32),
        TypeCode::ULong => Value::ULong(rng.next_u64() as u32),
        TypeCode::LongLong => Value::LongLong(rng.next_u64() as i64),
        TypeCode::ULongLong => Value::ULongLong(rng.next_u64()),
        TypeCode::Float => Value::Float(gen_f64(rng) as f32),
        TypeCode::Double => Value::Double(gen_f64(rng)),
        TypeCode::String => Value::String(gen_string(rng)),
        TypeCode::Sequence(elem) if **elem == TypeCode::Octet => {
            let len = rng.gen_range(6) as usize;
            Value::Octets(gen_bytes(rng, len))
        }
        TypeCode::Sequence(elem) => Value::Sequence(
            (0..rng.gen_range(6))
                .map(|_| gen_value(rng, elem, depth.saturating_sub(1)))
                .collect(),
        ),
        TypeCode::Struct { members, .. } => Value::Struct(
            members
                .iter()
                .map(|(_, mtc)| gen_value(rng, mtc, depth.saturating_sub(1)))
                .collect(),
        ),
        TypeCode::Enum { enumerators, .. } => {
            Value::Enum(rng.gen_range(enumerators.len().max(1) as u64) as u32)
        }
        TypeCode::Any => {
            let inner_tc = gen_typecode(rng, depth.saturating_sub(1));
            let inner_val = gen_value(rng, &inner_tc, depth.saturating_sub(1));
            Value::Any(Box::new(Any {
                typecode: inner_tc,
                value: inner_val,
            }))
        }
    }
}

fn gen_any(rng: &mut SimRng) -> Any {
    let tc = gen_typecode(rng, 3);
    let value = gen_value(rng, &tc, 3);
    // `Any::new` must accept every value that matches its type code.
    Any::new(tc, value).expect("generated value matches its tc")
}

/// Encodes `any` behind an `offset`-byte prefix and returns only the
/// encoded suffix. The prefix is non-zero filler so padding bytes (which
/// CDR zeroes) cannot be confused with it.
fn encode_at_offset(any: &Any, offset: usize, endian: Endian) -> Vec<u8> {
    let mut enc = CdrEncoder::append_to(vec![0xA5; offset], endian);
    any.encode(&mut enc)
        .expect("generated value matches its tc");
    enc.into_bytes()[offset..].to_vec()
}

#[test]
fn random_values_round_trip_byte_exactly_at_every_offset() {
    let mut rng = SimRng::seed_from_u64(0xCD41);
    for case in 0..60 {
        let any = gen_any(&mut rng);
        for endian in [Endian::Big, Endian::Little] {
            let reference = encode_at_offset(&any, 0, endian);
            for offset in [0, 1, 2, 3, 4, 5, 6, 7, 13, 31] {
                // Alignment is relative to the encoder's base, so the
                // suffix must be identical at every prefix length …
                let bytes = encode_at_offset(&any, offset, endian);
                assert_eq!(
                    bytes, reference,
                    "case {case}: encoding depends on the physical offset ({endian:?}, offset {offset})"
                );
                // … decode back to an equal value, consuming every byte …
                let mut dec = CdrDecoder::new(&bytes, endian);
                let back = Any::decode(&mut dec).expect("decode of own encoding");
                assert_eq!(back, any, "case {case}: value changed in transit");
                assert_eq!(dec.remaining(), 0, "case {case}: trailing bytes left");
                // … and re-encode to the same bytes (canonical form).
                let again = encode_at_offset(&back, offset, endian);
                assert_eq!(again, bytes, "case {case}: re-encode not byte-identical");
            }
        }
    }
}

#[test]
fn typecode_and_value_round_trip_on_their_own() {
    // The two halves of an `any` are public entry points too: each must
    // consume exactly its own bytes.
    let mut rng = SimRng::seed_from_u64(0xCD_0002);
    for _case in 0..256 {
        let any = gen_any(&mut rng);
        let mut enc = CdrEncoder::new(Endian::Little);
        any.typecode.encode(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, Endian::Little);
        assert_eq!(TypeCode::decode(&mut dec).unwrap(), any.typecode);
        assert!(dec.is_at_end());

        let mut enc = CdrEncoder::new(Endian::Little);
        any.value.encode(&any.typecode, &mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, Endian::Little);
        assert_eq!(Value::decode(&any.typecode, &mut dec).unwrap(), any.value);
        assert!(dec.is_at_end());
    }
}

#[test]
fn any_encapsulation_round_trips() {
    let mut rng = SimRng::seed_from_u64(0xCD43);
    for _ in 0..256 {
        let any = gen_any(&mut rng);
        let bytes = any.to_bytes().expect("encode");
        let back = Any::from_bytes(&bytes).expect("decode");
        assert_eq!(back, any);
        assert_eq!(back.to_bytes().unwrap(), bytes);
    }
}

#[test]
fn generation_and_encoding_are_seed_deterministic() {
    let stream = |seed: u64| -> Vec<u8> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for _ in 0..20 {
            out.extend_from_slice(&gen_any(&mut rng).to_bytes().unwrap());
        }
        out
    };
    assert_eq!(stream(7), stream(7), "same seed must replay byte-for-byte");
    assert_ne!(stream(7), stream(8), "different seeds should diverge");
}

#[test]
fn endianness_actually_changes_multi_byte_wire_form() {
    let any = Any {
        typecode: TypeCode::ULong,
        value: Value::ULong(0x0102_0304),
    };
    let big = encode_at_offset(&any, 0, Endian::Big);
    let little = encode_at_offset(&any, 0, Endian::Little);
    assert_ne!(big, little, "byte order must be visible on the wire");
    // Each decodes correctly only under its own byte order.
    for (bytes, endian) in [(&big, Endian::Big), (&little, Endian::Little)] {
        let mut dec = CdrDecoder::new(bytes, endian);
        assert_eq!(Any::decode(&mut dec).unwrap(), any);
    }
}

#[test]
fn octet_blob_identity() {
    let mut rng = SimRng::seed_from_u64(0xCD_0005);
    for _case in 0..64 {
        let n = rng.gen_range(2048) as usize;
        let data = gen_bytes(&mut rng, n);
        let any = Any::from(data.clone());
        let back = Any::from_bytes(&any.to_bytes().unwrap()).unwrap();
        assert_eq!(back.value, Value::Octets(data));
    }
}

#[test]
fn strings_round_trip() {
    let mut rng = SimRng::seed_from_u64(0xCD_0006);
    for _case in 0..256 {
        // Arbitrary printable unicode (NUL excluded), not just ASCII.
        let n = rng.gen_range(101) as usize;
        let s: String = (0..n)
            .map(|_| loop {
                let c = rng.gen_range(0x1_0000) as u32;
                match char::from_u32(c) {
                    Some(c) if c != '\0' => break c,
                    _ => continue,
                }
            })
            .collect();
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_string(&s).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, Endian::Big);
        assert_eq!(dec.read_string().unwrap(), s);
    }
}

// ---- wire compatibility of the compact octet-sequence shape ----

#[test]
fn octets_and_elementwise_sequences_share_one_wire_form() {
    let tc = TypeCode::Sequence(Box::new(TypeCode::Octet));
    for len in [0usize, 1, 3, 4, 5, 350_000] {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let compact = Any::new(tc.clone(), Value::Octets(data.clone())).unwrap();
        let elementwise = Any::new(
            tc.clone(),
            Value::Sequence(data.iter().map(|&b| Value::Octet(b)).collect()),
        )
        .unwrap();
        for endian in [Endian::Big, Endian::Little] {
            let reference = encode_at_offset(&compact, 0, endian);
            // Type code, then a `u32` length, then the raw octets.
            let (head, octets) = reference.split_at(reference.len() - len);
            assert_eq!(octets, data);
            let declared: [u8; 4] = head[head.len() - 4..].try_into().unwrap();
            let declared = match endian {
                Endian::Big => u32::from_be_bytes(declared),
                Endian::Little => u32::from_le_bytes(declared),
            };
            assert_eq!(declared as usize, len);
            for offset in 0..8 {
                let bytes = encode_at_offset(&compact, offset, endian);
                assert_eq!(bytes, reference, "len {len}, {endian:?}, offset {offset}");
                assert_eq!(
                    encode_at_offset(&elementwise, offset, endian),
                    bytes,
                    "len {len}: the two shapes differ on the wire ({endian:?}, offset {offset})"
                );
            }
            // Whichever shape was sent, the receiver sees `Octets`.
            let mut dec = CdrDecoder::new(&reference, endian);
            assert_eq!(Any::decode(&mut dec).unwrap(), compact);
            assert!(dec.is_at_end());
        }
    }
}

#[test]
fn octets_only_encode_as_sequence_of_octet() {
    for tc in [
        TypeCode::Sequence(Box::new(TypeCode::Boolean)),
        TypeCode::Octet,
        TypeCode::String,
    ] {
        assert!(matches!(
            Any::new(tc, Value::Octets(vec![1, 0, 1])),
            Err(CdrError::TypeMismatch {
                found: "sequence<octet>",
                ..
            })
        ));
    }
}

// ---- hostile input: never panic, never over-allocate ----

/// Bytes and values `value` holds: what decoding it had to allocate,
/// up to the constant size of a `Value`.
fn weight(value: &Value) -> (usize, usize) {
    match value {
        Value::Octets(b) => (b.len(), 1),
        Value::String(s) => (s.len(), 1),
        Value::Sequence(items) | Value::Struct(items) => items
            .iter()
            .map(weight)
            .fold((0, 1), |(b, n), (ib, inn)| (b + ib, n + inn)),
        Value::Any(inner) => {
            let (b, n) = weight(&inner.value);
            (b, n + 1)
        }
        _ => (0, 1),
    }
}

/// Decodes hostile `input`; a success must be backed by the input.
/// Every value either occupied input bytes or was charged to the
/// decoder's allowance of empty values (one per input byte, at least
/// 1024), and these inputs nest structs at most a few levels deep, so
/// twice that allowance bounds the value count.
fn decode_hostile(input: &[u8]) -> Result<Any, CdrError> {
    let result = Any::from_bytes(input);
    if let Ok(any) = &result {
        let (bytes, values) = weight(&any.value);
        assert!(
            bytes <= input.len(),
            "{bytes} payload bytes from {}",
            input.len()
        );
        let allowance = 2 * input.len().max(1024);
        assert!(
            values <= allowance,
            "{values} values from {} bytes",
            input.len()
        );
    }
    result
}

/// `[flag] tc(sequence<elem>) declared_len body`: a hand-built `any`
/// whose declared length need not match its body.
fn sequence_any_bytes(elem: &TypeCode, declared_len: u32, body: &[u8]) -> Vec<u8> {
    let mut enc = CdrEncoder::new(Endian::Big);
    enc.write_u8(Endian::Big.flag());
    TypeCode::Sequence(Box::new(elem.clone()))
        .encode(&mut enc)
        .unwrap();
    enc.write_u32(declared_len);
    enc.write_raw(body);
    enc.into_bytes()
}

fn empty_struct() -> TypeCode {
    TypeCode::Struct {
        name: String::new(),
        members: Vec::new(),
    }
}

#[test]
fn oversized_declared_lengths_are_rejected_before_allocating() {
    // The 28-byte input that used to decode into 96 MB of `Value`s.
    let input = sequence_any_bytes(&TypeCode::Null, 3_000_000, &[]);
    assert_eq!(input.len(), 28);
    assert!(matches!(
        decode_hostile(&input),
        Err(CdrError::LengthOverrun {
            declared: 3_000_000,
            ..
        })
    ));
    for elem in [
        TypeCode::Null,
        empty_struct(),
        TypeCode::Octet,
        TypeCode::Double,
    ] {
        for declared in [1_025, 65_537, 3_000_000, u32::MAX] {
            let input = sequence_any_bytes(&elem, declared, &[0; 8]);
            assert!(
                matches!(decode_hostile(&input), Err(CdrError::LengthOverrun { .. })),
                "sequence<{}> declaring {declared}",
                elem.kind_name()
            );
        }
    }
    // Short sequences of empty values stay legal …
    let input = sequence_any_bytes(&TypeCode::Null, 1_000, &[]);
    assert!(decode_hostile(&input).is_ok());
    // … but their total is bounded across the whole value, not per
    // sequence: 64 inner sequences of 1 000 nulls each would hold 64 000.
    let mut body = Vec::new();
    for _ in 0..64 {
        body.extend_from_slice(&1_000u32.to_be_bytes());
    }
    let nested = TypeCode::Sequence(Box::new(TypeCode::Null));
    assert!(matches!(
        decode_hostile(&sequence_any_bytes(&nested, 64, &body)),
        Err(CdrError::LengthOverrun { .. })
    ));
}

#[test]
fn empty_struct_members_cannot_multiply_a_sized_sequence() {
    // Each element is one octet on the wire but 1 + 1 + 400 values.
    let mut members = vec![("o".to_string(), TypeCode::Octet)];
    members.extend((0..400).map(|i| (format!("n{i}"), TypeCode::Null)));
    let elem = TypeCode::Struct {
        name: "Wide".into(),
        members,
    };
    let input = sequence_any_bytes(&elem, 5_000, &[7; 5_000]);
    assert!(matches!(
        decode_hostile(&input),
        Err(CdrError::LengthOverrun {
            declared: 5_000,
            ..
        })
    ));
    // A handful of such elements is fine.
    assert!(decode_hostile(&sequence_any_bytes(&elem, 3, &[7; 3])).is_ok());
}

/// `depth` nested `any`s around a `ulong`: 4 input bytes per level.
fn nested_any_bytes(depth: usize) -> Vec<u8> {
    let mut enc = CdrEncoder::new(Endian::Big);
    enc.write_u8(Endian::Big.flag());
    for _ in 0..depth {
        TypeCode::Any.encode(&mut enc).unwrap();
    }
    TypeCode::ULong.encode(&mut enc).unwrap();
    enc.write_u32(9);
    enc.into_bytes()
}

/// The type code of `depth` nested sequences around `octet`, then an
/// all-zero value (every level declares an empty sequence).
fn nested_sequence_bytes(depth: usize) -> Vec<u8> {
    let tc = (0..depth).fold(TypeCode::Octet, |tc, _| TypeCode::Sequence(Box::new(tc)));
    let mut enc = CdrEncoder::new(Endian::Big);
    enc.write_u8(Endian::Big.flag());
    tc.encode(&mut enc).unwrap();
    enc.write_u32(0);
    enc.into_bytes()
}

#[test]
fn nesting_is_bounded_with_a_typed_error() {
    let too_deep = CdrError::NestingTooDeep {
        limit: MAX_NESTING_DEPTH,
    };
    assert!(decode_hostile(&nested_any_bytes(MAX_NESTING_DEPTH)).is_ok());
    assert!(decode_hostile(&nested_sequence_bytes(MAX_NESTING_DEPTH)).is_ok());
    assert_eq!(
        decode_hostile(&nested_any_bytes(MAX_NESTING_DEPTH + 1)),
        Err(too_deep.clone())
    );
    assert_eq!(
        decode_hostile(&nested_sequence_bytes(MAX_NESTING_DEPTH + 1)),
        Err(too_deep.clone())
    );
    // A 1 MB state message of nothing but `tk_any` words: 250 000
    // levels, enough to overflow the stack if followed.
    let mut flood = vec![0u8; 4];
    for _ in 0..250_000 {
        flood.extend_from_slice(&11u32.to_be_bytes());
    }
    assert_eq!(decode_hostile(&flood), Err(too_deep));
}

#[test]
fn arbitrary_truncated_and_bit_flipped_inputs_never_panic_or_overallocate() {
    let mut rng = SimRng::seed_from_u64(0xCD44);
    // Pure noise.
    for _ in 0..256 {
        let n = rng.gen_range(256) as usize;
        let _ = decode_hostile(&gen_bytes(&mut rng, n));
    }
    // Valid encodings, damaged: structure survives, so the decoder gets
    // deep into a type code or value before the damage shows.
    let mut seeds: Vec<Vec<u8>> = (0..64)
        .map(|_| gen_any(&mut rng).to_bytes().unwrap())
        .collect();
    seeds.push(Any::from(gen_bytes(&mut rng, 4_096)).to_bytes().unwrap());
    seeds.push(sequence_any_bytes(&TypeCode::Null, 900, &[]));
    seeds.push(sequence_any_bytes(&empty_struct(), 900, &[]));
    seeds.push(nested_any_bytes(MAX_NESTING_DEPTH));
    seeds.push(nested_sequence_bytes(MAX_NESTING_DEPTH));
    for seed in &seeds {
        for _ in 0..24 {
            let cut = rng.gen_range(seed.len() as u64) as usize;
            let truncated = decode_hostile(&seed[..cut]);
            // The first type-code word ends at byte 8.
            assert!(truncated.is_err() || cut >= 8, "{cut}-byte input decoded");
            let mut flipped = seed.clone();
            for _ in 0..1 + rng.gen_range(3) {
                let bit = rng.gen_range(8 * flipped.len() as u64) as usize;
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = decode_hostile(&flipped);
            // Length words are where over-allocation starts: overwrite
            // an aligned word with a huge count.
            let mut inflated = seed.clone();
            if inflated.len() >= 8 {
                let at = 4 * rng.gen_range(inflated.len() as u64 / 4) as usize;
                let huge = [u32::MAX, 0x7FFF_FFFF, 3_000_000][rng.gen_range(3) as usize];
                inflated[at..at + 4].copy_from_slice(&huge.to_be_bytes());
            }
            let _ = decode_hostile(&inflated);
        }
    }
}

/// The borrowed and the owning read of a string or an octet sequence at
/// `at` in `input`: the same verdict with the same error, equal contents,
/// the same cursor afterwards — and the borrowed one is a slice of the
/// input, not a copy. Returns whether they accepted.
fn borrowed_and_owned_reads_agree(input: &[u8], at: usize, endian: Endian) -> bool {
    let started = || {
        let mut dec = CdrDecoder::new(input, endian);
        dec.read_raw(at).unwrap();
        dec
    };
    let inside = |slice: &[u8]| input.as_ptr_range().contains(&slice.as_ptr()) || slice.is_empty();

    let (mut borrowing, mut owning) = (started(), started());
    let (view, owned) = (borrowing.read_str(), owning.read_string());
    assert_eq!(
        view.clone().map(str::to_owned),
        owned,
        "string at {at} of {input:02x?}"
    );
    assert_eq!(borrowing.position(), owning.position());
    assert!(view.iter().all(|s| inside(s.as_bytes())));

    let (mut borrowing, mut owning) = (started(), started());
    let (octets, seq) = (borrowing.read_octets(), owning.read_octet_seq());
    assert_eq!(
        octets.clone().map(<[u8]>::to_vec),
        seq,
        "octets at {at} of {input:02x?}"
    );
    assert_eq!(borrowing.position(), owning.position());
    assert!(octets.iter().all(|s| inside(s)));
    view.is_ok() || octets.is_ok()
}

#[test]
fn borrowed_reads_accept_reject_and_yield_what_the_owning_reads_do() {
    let mut rng = SimRng::seed_from_u64(0xCD45);
    let (mut accepted, mut rejected) = (0, 0);
    let mut tally = |ok: bool| *(if ok { &mut accepted } else { &mut rejected }) += 1;
    for _ in 0..256 {
        let endian = [Endian::Big, Endian::Little][rng.gen_range(2) as usize];
        // Some bytes in front (every alignment), then a string — or an
        // octet sequence, which reads as a string only by accident.
        let at = rng.gen_range(9) as usize;
        let mut enc = CdrEncoder::new(endian);
        enc.write_raw(&[0xEE; 8][..at]);
        if rng.chance(0.5) {
            enc.write_string(&gen_string(&mut rng)).unwrap();
        } else {
            let len = rng.gen_range(24) as usize;
            enc.write_octet_seq(&gen_bytes(&mut rng, len));
        }
        let well_formed = enc.into_bytes();
        assert!(borrowed_and_owned_reads_agree(&well_formed, at, endian));
        // Truncated at every length.
        for cut in at..well_formed.len() {
            tally(borrowed_and_owned_reads_agree(
                &well_formed[..cut],
                at,
                endian,
            ));
        }
        // The length word inflated.
        let word = at.next_multiple_of(4);
        for huge in [u32::MAX, 0x7FFF_FFFF, well_formed.len() as u32] {
            let mut inflated = well_formed.clone();
            let huge = match endian {
                Endian::Big => huge.to_be_bytes(),
                Endian::Little => huge.to_le_bytes(),
            };
            inflated[word..word + 4].copy_from_slice(&huge);
            assert!(!borrowed_and_owned_reads_agree(&inflated, at, endian));
        }
        // Every single bit flipped: a NUL moved or lost, a byte made
        // invalid UTF-8, the length a little off.
        for bit in 8 * word..8 * well_formed.len() {
            let mut flipped = well_formed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            tally(borrowed_and_owned_reads_agree(&flipped, at, endian));
        }
    }
    assert!(
        accepted > 1000 && rejected > 1000,
        "{accepted} / {rejected}"
    );
}
