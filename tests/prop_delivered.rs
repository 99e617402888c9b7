//! Property tests for the Eternal delivery codec: [`Delivered::view`]
//! (the body borrowed from the input), reassembly from several
//! fragments (the body written into the reassembler's own buffer) and
//! [`EternalMessage::from_bytes`] (the body copied) are one decoder. On
//! well-formed, truncated, length-inflated and -deflated,
//! single-bit-flipped and arbitrary inputs — the generators of
//! `crates/giop/tests/prop_views.rs` — all accept and reject the same
//! bytes with the same error and yield the same fields, none panics,
//! a partial message holds exactly the bytes received, and
//! [`EternalReassembler::push_view`] and [`EternalReassembler::push`]
//! agree on the same fragments. A reassembler at a processor reaches
//! every verdict and gauge of one that keeps every body, though it keeps
//! none of a state chunk bound elsewhere or of a checkpoint it does not
//! log, and one that lands the body of a state chunk bound for it
//! ([`EternalReassembler::push_with`]) lands exactly that body.
//! [`EternalMessage::fragments`] writes the bytes [`fragment_eternal`]
//! cuts from [`EternalMessage::to_bytes`].
//! Random cases come from the deterministic `eternal-sim` RNG (fixed
//! seeds).

use eternal::gid::{ConnectionName, Direction, GroupId, TransferId};
use eternal::message::{
    fragment_eternal, Delivered, EternalMessage, EternalReassembler, Keep, KeepRule, OrderedInput,
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

/// The bulk body of the three variants that have one.
fn body_mut(message: &mut EternalMessage) -> Option<&mut Vec<u8>> {
    match message {
        EternalMessage::Iiop { bytes, .. } | EternalMessage::StateChunk { bytes, .. } => {
            Some(bytes)
        }
        EternalMessage::StateAssignment { state, .. } => Some(&mut state.application),
        _ => None,
    }
}

fn body_of(message: &EternalMessage) -> &[u8] {
    match message {
        EternalMessage::Iiop { bytes, .. } | EternalMessage::StateChunk { bytes, .. } => bytes,
        EternalMessage::StateAssignment { state, .. } => &state.application,
        _ => &[],
    }
}

/// The processor whose keep rule [`keeps_at`] is: one in four generated
/// state chunks is bound for it, and it logs one in two checkpoints.
const AT: NodeId = NodeId(1);

/// Whether [`AT`] keeps the body of a message with this head.
fn keeps_at(head: &EternalMessage) -> bool {
    match head {
        EternalMessage::StateChunk { new_host, .. } => *new_host == AT,
        EternalMessage::StateAssignment { transfer, .. } => transfer.0 % 2 == 0,
        _ => true,
    }
}

/// `frag` pushed into a reassembler at [`AT`]; `kept` notes what the
/// keep rule said, when it was asked.
fn push_at<'a>(
    at: &mut EternalReassembler,
    frag: &'a [u8],
    kept: &mut Option<bool>,
) -> Result<Option<Delivered<'a>>, CdrError> {
    at.push_view(frag, &mut |head: &EternalMessage| {
        *kept.insert(keeps_at(head))
    })
}

/// What a reassembler at [`AT`] delivers of `message` when the keep rule
/// said `kept` of it: a body not kept comes empty.
fn as_delivered_at(mut message: EternalMessage, kept: Option<bool>) -> EternalMessage {
    if let (Some(body), Some(false)) = (body_mut(&mut message), kept) {
        body.clear();
    }
    message
}

/// The keep rule at [`AT`] of its new host's mechanisms: the body of a
/// state chunk bound for it lands in `landed`, and every other body is
/// kept as [`keeps_at`] says.
#[derive(Default)]
struct LandsAt {
    landed: Option<Vec<u8>>,
}

impl KeepRule for LandsAt {
    fn keep(&mut self, head: &EternalMessage, _: usize) -> Keep {
        match head {
            EternalMessage::StateChunk { new_host, .. } if *new_host == AT => {
                self.landed = Some(Vec::new());
                Keep::Landed
            }
            head if keeps_at(head) => Keep::Kept,
            _ => Keep::Counted,
        }
    }

    fn land(&mut self, _: &EternalMessage, bytes: &[u8]) -> bool {
        let landed = self.landed.as_mut().expect("asked to keep first");
        landed.extend_from_slice(bytes);
        true
    }
}

/// `frags` pushed through a fresh reassembler: the message the last one
/// completes. Before it, the partial holds exactly the chunk bytes
/// received, whether it has decoded a head or not. A reassembler at
/// [`AT`] counts as many bytes at every push and reaches the same
/// verdict, though it keeps no body it does not want; it is asked
/// whether it does once, and only of a message in several fragments.
/// So does one at [`AT`] that lands the body of a state chunk bound
/// for it, and what it lands is that body.
fn reassemble(frags: &[Bytes]) -> Result<Delivered<'_>, CdrError> {
    let mut reassembler = EternalReassembler::new();
    let mut at = EternalReassembler::new();
    let (mut lander, mut lands) = (EternalReassembler::new(), LandsAt::default());
    let mut kept = None;
    let (last, rest) = frags.split_last().expect("one fragment at least");
    let mut received = 0;
    for frag in rest {
        assert!(matches!(
            reassembler.push_view(frag, &mut |_: &EternalMessage| true),
            Ok(None)
        ));
        let asked = kept.is_some();
        assert!(matches!(push_at(&mut at, frag, &mut kept), Ok(None)));
        assert!(!asked || kept.is_some(), "asked twice");
        received += frag.len() - FRAGMENT_OVERHEAD;
        assert_eq!(reassembler.pending_bytes(), received, "mid-message");
        assert_eq!(at.pending_bytes(), received, "mid-message, at {AT}");
        assert!(matches!(lander.push_view(frag, &mut lands), Ok(None)));
        assert_eq!(lander.pending_bytes(), received, "mid-message, landing");
        assert_eq!(lander.pending(), 1);
    }
    let first = WireFragment::from_bytes(&frags[0]).expect("an envelope");
    let partial_head = reassembler
        .partial_head(first.origin, first.msg_id)
        .cloned();
    assert_eq!(
        at.partial_head(first.origin, first.msg_id),
        partial_head.as_ref()
    );
    let done = reassembler
        .push_view(last, &mut |_: &EternalMessage| true)
        .map(|done| done.expect("the last fragment completes the message"));
    let mut at_kept = kept;
    let at_done = push_at(&mut at, last, &mut at_kept).map(|done| {
        let done = done.expect("the last fragment completes the message");
        assert!(body_of(&done.head).is_empty());
        as_delivered_at(done.into_message(), kept)
    });
    assert_eq!(at_kept, kept, "asked at the last fragment");
    if rest.is_empty() {
        assert_eq!(kept, None, "asked of a message in one fragment");
    } else if partial_head.is_some() {
        assert!(
            kept.is_some(),
            "not asked of a head the first fragment held"
        );
    }
    match (&done, at_done) {
        (Ok(done), Ok(at_done)) => {
            let (head, body) = (done.head.clone(), done.body.clone());
            let whole = Delivered { head, body }.into_message();
            assert_eq!(as_delivered_at(whole, kept), at_done);
        }
        (Err(error), Err(at_error)) => assert_eq!(error, &at_error),
        (done, at_done) => panic!("at {AT} the verdict differs: {done:?} / {at_done:?}"),
    }
    assert_eq!((at.pending(), at.pending_bytes()), (0, 0));
    let lander_done = lander.push_view(last, &mut lands).map(|done| {
        let done = done.expect("the last fragment completes the message");
        assert!(body_of(&done.head).is_empty());
        let mut message = done.into_message();
        if let Some(landed) = lands.landed.take() {
            assert!(body_of(&message).is_empty(), "a landed body was kept");
            *body_mut(&mut message).expect("a state chunk") = landed;
        }
        message
    });
    match (&done, lander_done) {
        (Ok(done), Ok(lander_done)) => {
            let (head, body) = (done.head.clone(), done.body.clone());
            let whole = Delivered { head, body }.into_message();
            assert_eq!(as_delivered_at(whole, kept), lander_done);
        }
        (Err(error), Err(lander_error)) => assert_eq!(error, &lander_error),
        (done, lander_done) => panic!("landing, the verdict differs: {done:?} / {lander_done:?}"),
    }
    assert_eq!((lander.pending(), lander.pending_bytes()), (0, 0));
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
                assert_eq!(&delivered.body[..], body_of(message), "{input:02x?}");
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
        assert_eq!(&delivered.body[..], body_of(message));
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
        let frags = message.fragments(NodeId(2), case, max_payload);
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
/// frame and in several, intact and damaged: the same verdict at every
/// push, and equal messages when one completes. A reassembler at [`AT`]
/// gives that verdict and those gauges too.
#[test]
fn push_and_push_view_agree_fragment_by_fragment() {
    let mut rng = SimRng::seed_from_u64(0xE7E2_0106);
    let (mut owned, mut viewed) = (EternalReassembler::new(), EternalReassembler::new());
    let mut at = EternalReassembler::new();
    let (mut completed, mut refused) = (0, 0);
    for case in 0..512u64 {
        let message = rand_message(&mut rng);
        let bytes = message.to_bytes();
        let max_payload = FRAGMENT_OVERHEAD + 1 + rng.gen_range(bytes.len() as u64 + 8) as usize;
        let frags = fragment_eternal(NodeId(2), case, &bytes, max_payload);
        let damage = rng
            .chance(0.3)
            .then(|| rng.gen_range(frags.len() as u64) as usize);
        let mut kept = None;
        for (i, frag) in frags.iter().enumerate() {
            let mut frag = frag.to_vec();
            if damage == Some(i) {
                let bit = rng.gen_range(frag.len() as u64 * 8) as usize;
                frag[bit / 8] ^= 1 << (bit % 8);
            }
            let head = owned.partial_head(NodeId(2), case).cloned();
            assert_eq!(at.partial_head(NodeId(2), case), head.as_ref());
            let by_view = viewed
                .push_view(&frag, &mut |_: &EternalMessage| true)
                .map(|d| d.map(Delivered::into_message));
            assert_eq!(owned.push(&frag), by_view, "case {case} fragment {i}");
            assert_eq!(owned.pending(), viewed.pending());
            assert_eq!(owned.pending_bytes(), viewed.pending_bytes());
            let by_at = push_at(&mut at, &frag, &mut kept).map(|d| d.map(Delivered::into_message));
            let at_verdict = by_view
                .clone()
                .map(|done| done.map(|done| as_delivered_at(done, kept)));
            assert_eq!(by_at, at_verdict, "case {case} fragment {i} at {AT}");
            assert_eq!(at.pending(), owned.pending());
            assert_eq!(at.pending_bytes(), owned.pending_bytes());
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
            at = EternalReassembler::new();
        }
    }
    assert!(completed > 200 && refused > 20, "{completed} / {refused}");
}
