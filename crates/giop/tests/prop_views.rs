//! Property tests for the borrowed codec: [`MessageView::parse`] and
//! [`GiopMessage::from_bytes`] are one parser, [`MessageView::to_bytes`]
//! and [`GiopMessage::to_bytes`] one encoder. On well-formed, truncated,
//! length-inflated and single-bit-flipped inputs the two accept and
//! reject the same bytes with the same error and yield equal fields,
//! neither panics, and serialization is deterministic: an accepted
//! canonical message re-encodes to the bytes it came from. Random cases
//! come from the deterministic `eternal-sim` RNG (fixed seeds), in the
//! style of `crates/cdr/tests/prop_roundtrip.rs`.

use eternal_giop::{
    GiopError, GiopMessage, LocateReplyMessage, LocateRequestMessage, LocateStatus, MessageView,
    ReplyMessage, ReplyStatus, RequestMessage, ServiceContextList, ServiceContextsView,
    GIOP_HEADER_LEN,
};
use eternal_sim::rng::SimRng;

fn rand_bytes(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
    let n = rng.gen_range(max_len + 1) as usize;
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn rand_service_contexts(rng: &mut SimRng) -> ServiceContextList {
    let mut list = ServiceContextList::new();
    for _ in 0..rng.gen_range(4) {
        // A few ids, so some cases look an id up twice.
        list.set(rng.gen_range(6) as u32, rand_bytes(rng, 19));
    }
    list
}

fn rand_operation(rng: &mut SimRng) -> String {
    (0..1 + rng.gen_range(12))
        .map(|_| char::from(b'a' + rng.gen_range(26) as u8))
        .collect()
}

/// Any of the eight message kinds, bodies short enough that a case can
/// afford to try every prefix and a spread of bit flips.
fn rand_message(rng: &mut SimRng) -> GiopMessage {
    match rng.gen_range(8) {
        0 => GiopMessage::Request(RequestMessage {
            service_context: rand_service_contexts(rng),
            request_id: rng.next_u64() as u32,
            response_expected: rng.chance(0.5),
            object_key: rand_bytes(rng, 15),
            operation: rand_operation(rng),
            body: rand_bytes(rng, 40),
        }),
        1 => GiopMessage::Reply(ReplyMessage {
            service_context: rand_service_contexts(rng),
            request_id: rng.next_u64() as u32,
            reply_status: *rng
                .choose(&[
                    ReplyStatus::NoException,
                    ReplyStatus::UserException,
                    ReplyStatus::SystemException,
                    ReplyStatus::LocationForward,
                ])
                .unwrap(),
            body: rand_bytes(rng, 40),
        }),
        2 => GiopMessage::CancelRequest {
            request_id: rng.next_u64() as u32,
        },
        3 => GiopMessage::LocateRequest(LocateRequestMessage {
            request_id: rng.next_u64() as u32,
            object_key: rand_bytes(rng, 15),
        }),
        4 => GiopMessage::LocateReply(LocateReplyMessage {
            request_id: rng.next_u64() as u32,
            locate_status: *rng
                .choose(&[
                    LocateStatus::UnknownObject,
                    LocateStatus::ObjectHere,
                    LocateStatus::ObjectForward,
                ])
                .unwrap(),
        }),
        5 => GiopMessage::CloseConnection,
        6 => GiopMessage::MessageError,
        _ => GiopMessage::Fragment {
            more: rng.chance(0.5),
            data: rand_bytes(rng, 40),
        },
    }
}

/// The contexts of a view as owned pairs, and that lookup by id agrees
/// with a scan for every id the generator uses and one it does not.
fn contexts_of(view: &ServiceContextsView<'_>) -> Vec<(u32, Vec<u8>)> {
    let pairs: Vec<(u32, Vec<u8>)> = view.iter().map(|(id, d)| (id, d.to_vec())).collect();
    assert_eq!(view.iter().len(), pairs.len());
    for id in 0..7 {
        let first = pairs.iter().find(|(i, _)| *i == id).map(|(_, d)| &d[..]);
        assert_eq!(view.find(id), first);
    }
    pairs
}

/// Every field of `view` equals the owned message's, compared field by
/// field rather than through `to_message`.
fn assert_same_fields(view: &MessageView<'_>, owned: &GiopMessage) {
    let listed = |list: &ServiceContextList| {
        list.contexts
            .iter()
            .map(|c| (c.id, c.data.clone()))
            .collect::<Vec<_>>()
    };
    match (view, owned) {
        (MessageView::Request(v), GiopMessage::Request(o)) => {
            assert_eq!(contexts_of(&v.service_context), listed(&o.service_context));
            assert_eq!(v.request_id, o.request_id);
            assert_eq!(v.response_expected, o.response_expected);
            assert_eq!(v.object_key, &o.object_key[..]);
            assert_eq!(v.operation, o.operation);
            assert_eq!(v.body, &o.body[..]);
        }
        (MessageView::Reply(v), GiopMessage::Reply(o)) => {
            assert_eq!(contexts_of(&v.service_context), listed(&o.service_context));
            assert_eq!(v.request_id, o.request_id);
            assert_eq!(v.reply_status, o.reply_status);
            assert_eq!(v.body, &o.body[..]);
        }
        (
            MessageView::CancelRequest { request_id: v },
            GiopMessage::CancelRequest { request_id: o },
        ) => assert_eq!(v, o),
        (
            MessageView::LocateRequest {
                request_id,
                object_key,
            },
            GiopMessage::LocateRequest(o),
        ) => {
            assert_eq!(*request_id, o.request_id);
            assert_eq!(*object_key, &o.object_key[..]);
        }
        (MessageView::LocateReply(v), GiopMessage::LocateReply(o)) => assert_eq!(v, o),
        (MessageView::CloseConnection, GiopMessage::CloseConnection)
        | (MessageView::MessageError, GiopMessage::MessageError) => {}
        (MessageView::Fragment { more, data }, GiopMessage::Fragment { more: m, data: d }) => {
            assert_eq!(more, m);
            assert_eq!(*data, &d[..]);
        }
        (v, o) => panic!("view {v:?} is not the same kind of message as {o:?}"),
    }
}

/// The whole contract on one input: both parsers give the same verdict;
/// when they accept, the fields are equal and re-encoding is
/// deterministic and idempotent. Returns the verdict.
fn check(input: &[u8]) -> Result<GiopMessage, GiopError> {
    let owned = GiopMessage::from_bytes(input);
    let viewed = MessageView::parse(input);
    assert_eq!(
        viewed
            .as_ref()
            .map(MessageView::to_message)
            .map_err(Clone::clone),
        owned,
        "the two parsers disagree on {input:02x?}"
    );
    if let (Ok(view), Ok(message)) = (&viewed, &owned) {
        assert_same_fields(view, message);
        // The view of the owned message (contexts from a list) and the
        // view of the bytes (contexts on the wire) are the same message
        // and the same encoding.
        assert_same_fields(&message.view(), message);
        let reencoded = message.to_bytes().unwrap();
        assert_eq!(view.to_bytes().unwrap(), reencoded);
        // Equal values, equal bytes: the encoding of what was parsed
        // parses to the same message and encodes to itself.
        assert_eq!(GiopMessage::from_bytes(&reencoded).as_ref(), Ok(message));
        assert_eq!(
            MessageView::parse(&reencoded).unwrap().to_bytes().unwrap(),
            reencoded
        );
    }
    owned
}

#[test]
fn canonical_messages_are_accepted_by_both_and_reencode_to_themselves() {
    let mut rng = SimRng::seed_from_u64(0x610_0101);
    for _case in 0..512 {
        let message = rand_message(&mut rng);
        let bytes = message.to_bytes().unwrap();
        assert_eq!(check(&bytes), Ok(message.clone()));
        // Deterministic serialization: to_bytes(from_bytes(x)) == x.
        let back = GiopMessage::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes().unwrap(), bytes);
        assert_eq!(
            MessageView::parse(&bytes).unwrap().to_bytes().unwrap(),
            bytes
        );
    }
}

#[test]
fn a_message_is_encoded_into_a_buffer_reserved_once_at_its_exact_length() {
    let mut rng = SimRng::seed_from_u64(0x610_0102);
    for _case in 0..256 {
        let message = rand_message(&mut rng);
        // An empty pool, so the buffer is the encoder's own allocation.
        eternal_cdr::pool::reset();
        let bytes = message.to_bytes().unwrap();
        assert_eq!(bytes.capacity(), bytes.len(), "{message:?}");
    }
}

#[test]
fn every_truncation_gets_the_same_verdict_from_both() {
    let mut rng = SimRng::seed_from_u64(0x610_0103);
    for _case in 0..96 {
        let bytes = rand_message(&mut rng).to_bytes().unwrap();
        for cut in 0..bytes.len() {
            // Cut short with the header's size left as it was …
            assert!(check(&bytes[..cut]).is_err(), "prefix of {cut} accepted");
            // … and with the header's size made to agree, so the body
            // decoder is what runs dry. (An empty body is a message of
            // its own for the kinds that have none.)
            if cut >= GIOP_HEADER_LEN {
                let mut short = bytes[..cut].to_vec();
                let body_len = (cut - GIOP_HEADER_LEN) as u32;
                short[8..12].copy_from_slice(&body_len.to_be_bytes());
                let _ = check(&short);
            }
        }
    }
}

#[test]
fn inflated_lengths_get_the_same_verdict_from_both() {
    let mut rng = SimRng::seed_from_u64(0x610_0104);
    let mut rejected = 0;
    for _case in 0..512 {
        let mut bytes = rand_message(&mut rng).to_bytes().unwrap();
        // Every length in a message — the header's body size, a context
        // count, a sequence or string length — is a 4-aligned word (the
        // header is 12 bytes and bodies align from their start).
        let words = bytes.len() / 4;
        let at = 4 * (2 + rng.gen_range(words as u64 - 2) as usize);
        let word: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
        let grown = match rng.gen_range(3) {
            0 => u32::from_be_bytes(word).wrapping_add(1 + rng.gen_range(16) as u32),
            1 => u32::from_be_bytes(word) | 0x8000_0000,
            _ => u32::MAX,
        };
        bytes[at..at + 4].copy_from_slice(&grown.to_be_bytes());
        rejected += usize::from(check(&bytes).is_err());
    }
    assert!(rejected > 256, "only {rejected} of 512 inflations rejected");
}

#[test]
fn every_single_bit_flip_gets_the_same_verdict_from_both() {
    let mut rng = SimRng::seed_from_u64(0x610_0105);
    let (mut accepted, mut rejected) = (0, 0);
    for _case in 0..48 {
        let bytes = rand_message(&mut rng).to_bytes().unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match check(&flipped) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    // Flips in ids and bodies are other valid messages; flips in the
    // magic, the sizes and the discriminants are not messages at all.
    assert!(
        accepted > 1000 && rejected > 1000,
        "{accepted} / {rejected}"
    );
}

#[test]
fn neither_parser_panics_on_garbage() {
    let mut rng = SimRng::seed_from_u64(0x610_0106);
    for _case in 0..512 {
        let mut bytes = rand_bytes(&mut rng, 127);
        // Half the cases get past the header checks.
        if rng.chance(0.5) && bytes.len() >= GIOP_HEADER_LEN {
            bytes[..4].copy_from_slice(b"GIOP");
            bytes[4..8].copy_from_slice(&[1, 1, rng.gen_range(4) as u8, rng.gen_range(8) as u8]);
            let body_len = (bytes.len() - GIOP_HEADER_LEN) as u32;
            let size = if bytes[6] & 1 == 0 {
                body_len.to_be_bytes()
            } else {
                body_len.to_le_bytes()
            };
            bytes[8..12].copy_from_slice(&size);
        }
        let _ = check(&bytes);
    }
}
