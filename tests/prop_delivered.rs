//! Property tests for the Eternal delivery codec: [`Delivered::view`]
//! (the body borrowed from the input), reassembly from several
//! fragments (the body held as its slices of the frames, gathered when
//! read) and [`EternalMessage::from_bytes`] (the body copied) are one
//! decoder. On well-formed, truncated, length-inflated and -deflated,
//! single-bit-flipped and arbitrary inputs — the generators of
//! `crates/giop/tests/prop_views.rs` — all accept and reject the same
//! bytes with the same error and yield the same fields, none panics,
//! a partial message holds exactly the bytes received, by reference to
//! the frames they came in, and a reassembled body gathered is the body
//! decoding the whole yields. [`EternalReassembler::push_view`] and
//! [`EternalReassembler::push`] agree on the same fragments, damaged or
//! announcing a zero total too. [`EternalMessage::fragments`] writes the
//! bytes [`fragment_eternal`] cuts from [`EternalMessage::to_bytes`].
//! Random cases come from the deterministic `eternal-sim` RNG (fixed
//! seeds).

use eternal::gid::{ConnectionName, Direction, GroupId, TransferId};
use eternal::message::{
    fragment_eternal, Body, Delivered, EternalMessage, EternalReassembler, OrderedInput,
    RetrievalPurpose, WireFragment, FRAGMENT_OVERHEAD,
};
use eternal::recovery::{
    InfraStateTransfer, OrbPoaStateTransfer, OutstandingCall, ThreeKindsOfState,
};
use eternal_cdr::CdrError;
use eternal_obs::health::HealthSnapshot;
use eternal_sim::net::NodeId;
use eternal_sim::rng::SimRng;
use eternal_sim::Bytes;

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

fn body_of(message: &EternalMessage) -> &[u8] {
    match message {
        EternalMessage::Iiop { bytes, .. } | EternalMessage::StateChunk { bytes, .. } => bytes,
        EternalMessage::StateAssignment { state, .. } => &state.application,
        _ => &[],
    }
}

/// `frags` pushed through a fresh reassembler: the message the last one
/// completes. Before it, the partial holds exactly the chunk bytes
/// received, whether it has decoded a head or not; a body in pieces is
/// slices of the frames, no byte of it copied.
fn reassemble(frags: &[Bytes]) -> Result<Delivered<'_>, CdrError> {
    let mut reassembler = EternalReassembler::new();
    let (last, rest) = frags.split_last().expect("one fragment at least");
    let mut received = 0;
    for frag in rest {
        assert!(matches!(reassembler.push_view(frag), Ok(None)));
        received += frag.len() - FRAGMENT_OVERHEAD;
        assert_eq!(reassembler.pending_bytes(), received, "mid-message");
        assert_eq!(reassembler.pending(), 1);
    }
    let done = reassembler
        .push_view(last)
        .map(|done| done.expect("the last fragment completes the message"));
    if let Ok(Delivered {
        body: Body::Pieces(pieces),
        ..
    }) = &done
    {
        assert!(pieces.iter().all(|p| Bytes::ptr_eq(p, &frags[0])));
    }
    assert_eq!((reassembler.pending(), reassembler.pending_bytes()), (0, 0));
    done
}

/// The whole contract on one input: viewing it, reassembling it from
/// fragments and copying it give the same verdict; when they accept,
/// head and body are the owned message's, and an owned message viewed
/// as delivered is that delivery again. Returns the verdict.
fn check(input: &[u8]) -> Result<EternalMessage, CdrError> {
    let owned = EternalMessage::from_bytes(input);
    // Chunks of 8 bytes cut every head across fragments; of 33, they
    // leave the head of an `Iiop` or a `StateChunk` whole in the first.
    let [across, first] =
        [8, 33].map(|chunk| fragment_eternal(NodeId(3), 1, input, FRAGMENT_OVERHEAD + chunk));
    let decodes = [
        Delivered::view(input),
        reassemble(&across),
        reassemble(&first),
    ];
    for decoded in decodes {
        match (&owned, decoded) {
            (Ok(message), Ok(delivered)) => {
                assert!(body_of(&delivered.head).is_empty(), "{input:02x?}");
                assert_eq!(delivered.body.to_vec(), body_of(message), "{input:02x?}");
                assert_eq!(delivered.head.kind(), message.kind());
                assert_eq!(&delivered.into_message(), message, "{input:02x?}");
            }
            (Err(error), Err(decoded)) => assert_eq!(error, &decoded, "{input:02x?}"),
            (owned, decoded) => panic!(
                "the decodes disagree on {input:02x?}: {owned:?} / {:?}",
                decoded.map(Delivered::into_message),
            ),
        }
    }
    if let Ok(message) = &owned {
        let delivered = Delivered::from(message.clone());
        assert!(body_of(&delivered.head).is_empty());
        assert_eq!(delivered.body.to_vec(), body_of(message));
        assert_eq!(&delivered.into_message(), message);
        // Equal values, equal bytes.
        let reencoded = message.to_bytes();
        assert_eq!(EternalMessage::from_bytes(&reencoded).as_ref(), Ok(message));
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

/// Cutting a message's head and body straight into frames writes the
/// bytes that cutting its encoding does, for every kind and payload.
#[test]
fn fragments_are_the_cut_encoding() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0107);
    for case in 0..512u64 {
        let message = rand_message(&mut rng);
        let bytes = message.to_bytes();
        let max_payload = FRAGMENT_OVERHEAD + 1 + rng.gen_range(bytes.len() as u64 + 8) as usize;
        let frags: Vec<_> = message.fragments(NodeId(2), case, max_payload).collect();
        let cut = fragment_eternal(NodeId(2), case, &bytes, max_payload);
        assert_eq!(frags, cut, "{} at {max_payload}", message.kind());
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

/// A length or count word made smaller: a bulk body then ends early, and
/// the bytes after it are not read.
#[test]
fn deflated_lengths_get_the_same_verdict_from_all() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0108);
    let (mut accepted, mut rejected) = (0, 0);
    for _case in 0..512 {
        let mut bytes = rand_message(&mut rng).to_bytes();
        let words = bytes.len() / 4;
        if words == 0 {
            continue;
        }
        let at = 4 * rng.gen_range(words as u64) as usize;
        let word = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
        let shrunk = word.saturating_sub(1 + rng.gen_range(16) as u32);
        bytes[at..at + 4].copy_from_slice(&shrunk.to_be_bytes());
        match check(&bytes) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(accepted > 100 && rejected > 10, "{accepted} / {rejected}");
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
/// frame and in several, intact, damaged or announcing a zero total:
/// the same verdict at every push, and equal messages when one
/// completes.
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
        let zero_total = rng.chance(0.2);
        for (i, frag) in frags.iter().enumerate() {
            let mut frag = frag.to_vec();
            if damage == Some(i) && zero_total {
                let mut zeroed = WireFragment::from_bytes(&frag).expect("an envelope");
                zeroed.total = 0;
                frag = zeroed.to_bytes();
            } else if damage == Some(i) {
                let bit = rng.gen_range(frag.len() as u64 * 8) as usize;
                frag[bit / 8] ^= 1 << (bit % 8);
            }
            let frag = Bytes::from(frag);
            let by_view = viewed
                .push_view(&frag)
                .map(|d| d.map(Delivered::into_message));
            assert_eq!(owned.push(&frag), by_view, "case {case} fragment {i}");
            assert_eq!(owned.pending(), viewed.pending());
            assert_eq!(owned.pending_bytes(), viewed.pending_bytes());
            assert_eq!(
                owned.partial_head(NodeId(2), case),
                viewed.partial_head(NodeId(2), case)
            );
            if damage == Some(i) && zero_total {
                assert!(by_view.is_err(), "a zero total accepted");
            }
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
        // origin and on the word of a damaged total.
        if damage.is_some() {
            (owned, viewed) = (EternalReassembler::new(), EternalReassembler::new());
        }
    }
    assert!(completed > 200 && refused > 20, "{completed} / {refused}");
}
