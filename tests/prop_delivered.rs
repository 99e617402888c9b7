//! Property tests for the Eternal delivery codec: [`Delivered::view`]
//! (the body borrowed from the input), [`Delivered::from_buffer`] (the
//! body kept in the input's own buffer) and [`EternalMessage::from_bytes`]
//! (the body copied) are one decoder. On well-formed, truncated,
//! length-inflated, single-bit-flipped and arbitrary inputs — the
//! generators of `crates/giop/tests/prop_views.rs` — the three accept
//! and reject the same bytes with the same error and yield the same
//! fields, none panics, and [`EternalReassembler::push_view`] and
//! [`EternalReassembler::push`] agree on the same fragments. Random
//! cases come from the deterministic `eternal-sim` RNG (fixed seeds).

use eternal::gid::{ConnectionName, Direction, GroupId, TransferId};
use eternal::message::{
    fragment_eternal, Delivered, EternalMessage, EternalReassembler, OrderedInput,
    RetrievalPurpose, FRAGMENT_OVERHEAD,
};
use eternal::recovery::{
    InfraStateTransfer, OrbPoaStateTransfer, OutstandingCall, ThreeKindsOfState,
};
use eternal_cdr::CdrError;
use eternal_obs::health::HealthSnapshot;
use eternal_sim::net::NodeId;
use eternal_sim::rng::SimRng;

fn rand_bytes(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
    let n = rng.gen_range(max_len + 1) as usize;
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn rand_conn(rng: &mut SimRng) -> ConnectionName {
    ConnectionName {
        client: GroupId(rng.gen_range(5) as u32),
        server: GroupId(rng.gen_range(5) as u32),
    }
}

fn rand_direction(rng: &mut SimRng) -> Direction {
    match rng.chance(0.5) {
        true => Direction::Request,
        false => Direction::Reply,
    }
}

fn rand_purpose(rng: &mut SimRng) -> RetrievalPurpose {
    match rng.chance(0.5) {
        true => RetrievalPurpose::Checkpoint,
        false => RetrievalPurpose::Recovery {
            new_host: NodeId(rng.gen_range(4) as u32),
        },
    }
}

fn rand_state(rng: &mut SimRng) -> ThreeKindsOfState {
    ThreeKindsOfState {
        group: GroupId(rng.gen_range(5) as u32),
        application: rand_bytes(rng, 30),
        orb_poa: OrbPoaStateTransfer {
            next_request_ids: (0..rng.gen_range(3))
                .map(|_| (rand_conn(rng), rng.next_u64() as u32))
                .collect(),
            handshakes: (0..rng.gen_range(3))
                .map(|_| (rand_conn(rng), rand_bytes(rng, 9)))
                .collect(),
        },
        infrastructure: InfraStateTransfer {
            outstanding: (0..rng.gen_range(3))
                .map(|_| OutstandingCall {
                    conn: rand_conn(rng),
                    op_seq: rng.next_u64() as u32,
                    request_id: rng.next_u64() as u32,
                    operation: "increment"[..1 + rng.gen_range(9) as usize].to_owned(),
                })
                .collect(),
            dedup_horizons: (0..rng.gen_range(3))
                .map(|_| (rand_conn(rng), rand_direction(rng), rng.next_u64() as u32))
                .collect(),
            op_counters: (0..rng.gen_range(3))
                .map(|_| (rand_conn(rng), rng.next_u64() as u32))
                .collect(),
        },
    }
}

/// Any of the nine message kinds, small enough that a case can afford
/// every prefix and every bit flip.
fn rand_message(rng: &mut SimRng) -> EternalMessage {
    let group = GroupId(rng.gen_range(5) as u32);
    let host = NodeId(rng.gen_range(4) as u32);
    let transfer = TransferId(rng.next_u64());
    match rng.gen_range(9) {
        0 => EternalMessage::Iiop {
            conn: rand_conn(rng),
            direction: rand_direction(rng),
            op_seq: rng.next_u64() as u32,
            bytes: rand_bytes(rng, 60),
        },
        1 => EternalMessage::ReplicaJoining { group, host },
        2 => EternalMessage::ReplicaFault { group, host },
        3 => EternalMessage::StateRetrieval {
            group,
            transfer,
            purpose: rand_purpose(rng),
        },
        4 => EternalMessage::StateAssignment {
            transfer,
            purpose: rand_purpose(rng),
            state: Box::new(rand_state(rng)),
        },
        5 => EternalMessage::LoadTick { group },
        6 => EternalMessage::Health {
            snap: Box::new(HealthSnapshot {
                node: rng.gen_range(4),
                seq: rng.next_u64(),
                token_age_ns: rng.next_u64(),
                digest_epoch: rng.next_u64(),
                digests: (0..rng.gen_range(3))
                    .map(|_| (rng.gen_range(5), rng.next_u64()))
                    .collect(),
                ..HealthSnapshot::default()
            }),
        },
        7 => EternalMessage::StateChunk {
            group,
            transfer,
            new_host: host,
            index: rng.gen_range(7) as u32,
            total: 7,
            bytes: rand_bytes(rng, 60),
        },
        _ => EternalMessage::StateSuffix {
            group,
            transfer,
            new_host: host,
            entries: (0..rng.gen_range(4))
                .map(|_| match rng.chance(0.3) {
                    true => OrderedInput::LoadTick,
                    false => OrderedInput::Iiop {
                        conn: rand_conn(rng),
                        direction: rand_direction(rng),
                        op_seq: rng.next_u64() as u32,
                        bytes: rand_bytes(rng, 20),
                    },
                })
                .collect(),
        },
    }
}

/// The bulk body of the two variants that have one.
fn body_of(message: &EternalMessage) -> &[u8] {
    match message {
        EternalMessage::Iiop { bytes, .. } | EternalMessage::StateChunk { bytes, .. } => bytes,
        _ => &[],
    }
}

/// The whole contract on one input: the three decodes give the same
/// verdict; when they accept, head and body are the owned message's,
/// and an owned message viewed as delivered is that delivery again.
/// Returns the verdict.
fn check(input: &[u8]) -> Result<EternalMessage, CdrError> {
    let owned = EternalMessage::from_bytes(input);
    let viewed = Delivered::view(input);
    // With a reassembly buffer's spare capacity.
    let mut buffer = Vec::with_capacity(input.len() + 64);
    buffer.extend_from_slice(input);
    let kept = Delivered::from_buffer(buffer);
    match (&owned, viewed, kept) {
        (Ok(message), Ok(viewed), Ok(kept)) => {
            for delivered in [viewed, kept, Delivered::from(message.clone())] {
                assert!(body_of(&delivered.head).is_empty(), "{input:02x?}");
                assert_eq!(&delivered.body[..], body_of(message), "{input:02x?}");
                assert_eq!(delivered.head.kind(), message.kind());
                assert_eq!(&delivered.into_message(), message, "{input:02x?}");
            }
            // Equal values, equal bytes.
            let reencoded = message.to_bytes();
            assert_eq!(EternalMessage::from_bytes(&reencoded).as_ref(), Ok(message));
        }
        (Err(error), Err(viewed), Err(kept)) => {
            assert_eq!((error, error), (&viewed, &kept), "{input:02x?}");
        }
        (owned, viewed, kept) => panic!(
            "the decodes disagree on {input:02x?}: {owned:?} / {:?} / {:?}",
            viewed.map(Delivered::into_message),
            kept.map(Delivered::into_message),
        ),
    }
    owned
}

#[test]
fn canonical_messages_are_accepted_by_all_and_reencode_to_themselves() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0101);
    for _case in 0..512 {
        let message = rand_message(&mut rng);
        let bytes = message.to_bytes();
        assert_eq!(check(&bytes), Ok(message.clone()));
        // One frame holding envelope and message is what fragmenting
        // the encoding yields when it fits.
        let whole = message.single_fragment(NodeId(1), 9, FRAGMENT_OVERHEAD + bytes.len());
        let frags = fragment_eternal(NodeId(1), 9, &bytes, FRAGMENT_OVERHEAD + bytes.len());
        assert_eq!(frags.len(), 1);
        assert_eq!(whole.as_deref(), Some(&frags[0][..]));
        if !bytes.is_empty() {
            let short = FRAGMENT_OVERHEAD + bytes.len() - 1;
            assert_eq!(message.single_fragment(NodeId(1), 9, short), None);
        }
    }
}

#[test]
fn every_truncation_gets_the_same_verdict_from_all() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0102);
    for _case in 0..128 {
        let bytes = rand_message(&mut rng).to_bytes();
        for cut in 0..bytes.len() {
            // No message is a proper prefix of another of its kind.
            assert!(check(&bytes[..cut]).is_err(), "prefix of {cut} accepted");
        }
    }
}

#[test]
fn inflated_lengths_get_the_same_verdict_from_all() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0103);
    let mut rejected = 0;
    for _case in 0..512 {
        let mut bytes = rand_message(&mut rng).to_bytes();
        // Every count and length is a 4-aligned word of the stream.
        let words = bytes.len() / 4;
        if words == 0 {
            continue;
        }
        let at = 4 * rng.gen_range(words as u64) as usize;
        let word: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
        let grown = match rng.gen_range(3) {
            0 => u32::from_be_bytes(word).wrapping_add(1 + rng.gen_range(16) as u32),
            1 => u32::from_be_bytes(word) | 0x8000_0000,
            _ => u32::MAX,
        };
        bytes[at..at + 4].copy_from_slice(&grown.to_be_bytes());
        rejected += usize::from(check(&bytes).is_err());
    }
    // Most words of these small messages are ids, where any value is legal.
    assert!(rejected > 50, "only {rejected} of 512 inflations rejected");
}

#[test]
fn every_single_bit_flip_gets_the_same_verdict_from_all() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0104);
    let (mut accepted, mut rejected) = (0, 0);
    for _case in 0..64 {
        let bytes = rand_message(&mut rng).to_bytes();
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
    // tag, the lengths and the discriminants are not messages at all.
    assert!(
        accepted > 1000 && rejected > 1000,
        "{accepted} / {rejected}"
    );
}

#[test]
fn no_decode_panics_on_garbage() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0105);
    for _case in 0..2048 {
        let mut bytes = rand_bytes(&mut rng, 127);
        // Most cases get past the tag.
        if let Some(tag) = bytes.first_mut() {
            *tag %= 10;
        }
        let _ = check(&bytes);
    }
}

/// The reassembler's two entry points on the same fragments, in one
/// frame and in several, intact and damaged: the same verdict at every
/// push, and equal messages when one completes.
#[test]
fn push_and_push_view_agree_fragment_by_fragment() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0106);
    let (mut owned, mut viewed) = (EternalReassembler::new(), EternalReassembler::new());
    let (mut completed, mut refused) = (0, 0);
    for case in 0..512u64 {
        let message = rand_message(&mut rng);
        let bytes = message.to_bytes();
        let max_payload = FRAGMENT_OVERHEAD + 1 + rng.gen_range(bytes.len() as u64 + 8) as usize;
        let frags = fragment_eternal(NodeId(2), case, &bytes, max_payload);
        let damage = rng
            .chance(0.3)
            .then(|| rng.gen_range(frags.len() as u64) as usize);
        for (i, frag) in frags.iter().enumerate() {
            let mut frag = frag.to_vec();
            if damage == Some(i) {
                let bit = rng.gen_range(frag.len() as u64 * 8) as usize;
                frag[bit / 8] ^= 1 << (bit % 8);
            }
            let by_view = viewed
                .push_view(&frag)
                .map(|d| d.map(Delivered::into_message));
            assert_eq!(owned.push(&frag), by_view, "case {case} fragment {i}");
            assert_eq!(owned.pending(), viewed.pending());
            assert_eq!(owned.pending_bytes(), viewed.pending_bytes());
            match by_view {
                Ok(Some(done)) if damage.is_none() => {
                    assert_eq!(done, message);
                    completed += 1;
                }
                Err(_) => refused += 1,
                _ => {}
            }
        }
        // A damaged message may leave a partial behind, under any
        // origin and presized on the word of a damaged total.
        if damage.is_some() {
            (owned, viewed) = (EternalReassembler::new(), EternalReassembler::new());
        }
    }
    assert!(completed > 200 && refused > 20, "{completed} / {refused}");
}
