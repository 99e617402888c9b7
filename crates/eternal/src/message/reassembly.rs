//! Reassembly of [`WireFragment`] streams: a message in several
//! fragments is held by reference, its body delivered as the fragments'
//! slices of the frames Totem delivered ([`Body::Pieces`]). No byte is
//! copied here; a reader of the body gathers it.

use super::{body_within, Body, Delivered, EternalMessage, WireFragment, FRAGMENT_OVERHEAD};
use eternal_cdr::CdrError;
use eternal_sim::net::NodeId;
use eternal_sim::Bytes;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Range;

/// A partially reassembled message: the fragment index expected next,
/// the total announced by the first fragment (every later fragment must
/// agree), and the chunks received so far, each a slice of its frame —
/// after the head of a message with a bulk body, decoded from the first
/// fragment when it holds it.
#[derive(Debug)]
pub(super) struct Partial {
    next: u32,
    total: u32,
    /// That head, and where its body lies in the whole message.
    pub(super) head: Option<(EternalMessage, Range<usize>)>,
    /// The chunks after it, in order, empty ones left out.
    pub(super) pieces: Vec<Bytes>,
}

/// Refusals of a fragment that does not continue its message.
const TOTAL_MISMATCH: CdrError = CdrError::TypeMismatch {
    expected: "consistent fragment total",
    found: "total mismatch within one message",
};
const OUT_OF_ORDER: CdrError = CdrError::TypeMismatch {
    expected: "next fragment index",
    found: "out-of-order fragment",
};

impl Partial {
    /// A message of `total` fragments begun by its first's chunk,
    /// `first`, collected in `pieces` (an empty list, lent).
    fn new(total: u32, first: Bytes, pieces: Vec<Bytes>) -> Self {
        let head = EternalMessage::decode_bulk_head(&first).ok().flatten();
        let skip = head.as_ref().map_or(0, |(_, body)| body.start);
        let mut partial = Partial {
            next: 1,
            total,
            head,
            pieces,
        };
        partial.receive(first.slice(skip..first.len()));
        partial
    }

    /// Takes in the next `chunk` of the message.
    fn receive(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.pieces.push(chunk);
        }
    }

    /// Bytes received after the head.
    fn received(&self) -> usize {
        self.pieces.iter().map(|piece| piece.len()).sum()
    }

    /// The message, its last fragment in. Without a decoded head it is
    /// gathered and decoded whole; with one, the pieces are cut at the
    /// body's end and what follows (an assignment's other two kinds of
    /// state) is decoded from the rest. Either way the verdict is
    /// [`EternalMessage::from_bytes`]' on the whole.
    fn finish(self) -> Result<Delivered<'static>, CdrError> {
        let (received, mut pieces) = (self.received(), self.pieces);
        let Some((mut head, body)) = self.head else {
            let whole = Body::Pieces(pieces).to_vec();
            return EternalMessage::from_bytes(&whole).map(Delivered::from);
        };
        body_within(body.clone(), body.start + received)?;
        // The piece the body ends in, and where in it.
        let (mut cut, mut at) = (0, body.len());
        while pieces.get(cut).is_some_and(|piece| at >= piece.len()) {
            at -= pieces[cut].len();
            cut += 1;
        }
        let first = pieces.get(cut).map_or(&[][..], |piece| &piece[at..]);
        let rest = pieces.get(cut + 1..).unwrap_or(&[]);
        head.decode_tail(first, rest, body.end)?;
        if let Some(end) = pieces.get(cut).map(|piece| piece.slice(0..at)) {
            pieces.truncate(cut);
            pieces.extend((!end.is_empty()).then_some(end));
        }
        let body = Body::Pieces(pieces);
        Ok(Delivered { head, body })
    }
}

/// Reassembles [`WireFragment`] streams back into [`EternalMessage`]s.
///
/// Totem delivers fragments of one origin in order, but fragments of
/// different origins interleave; partial messages are keyed by
/// `(origin, msg_id)`. When a processor leaves the membership its
/// partials must be evicted via [`EternalReassembler::forget_origin`]:
/// a crashed sender will never complete them, and if it restarts with
/// its `msg_id` counter rewound, stale bytes would otherwise collide
/// with the reused key and corrupt or swallow the new message.
#[derive(Debug, Default)]
pub struct EternalReassembler {
    pub(super) partial: BTreeMap<(NodeId, u64), Partial>,
    /// Emptied lists of pieces handed back, lent to the next partials.
    spare: Vec<Vec<Bytes>>,
}

impl EternalReassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages currently partially assembled.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Number of messages partially assembled from `origin`.
    pub fn pending_from(&self, origin: NodeId) -> usize {
        self.partial.keys().filter(|&&(o, _)| o == origin).count()
    }

    /// Bytes received across all partially assembled messages, held by
    /// reference to their frames (a backpressure gauge: what waits for
    /// trailing fragments).
    pub fn pending_bytes(&self) -> usize {
        let head = |p: &Partial| p.head.as_ref().map_or(0, |(_, body)| body.start);
        self.partial.values().map(|p| head(p) + p.received()).sum()
    }

    /// The head of the message `origin`'s `msg_id` is reassembling,
    /// when its first fragment held it and it is an `Iiop` or a
    /// `StateChunk` (body left empty). A checkpoint's head is not lent:
    /// its assignment is traced once whole.
    pub fn partial_head(&self, origin: NodeId, msg_id: u64) -> Option<&EternalMessage> {
        let partial = self.partial.get(&(origin, msg_id))?;
        match &partial.head {
            Some((EternalMessage::StateAssignment { .. }, _)) | None => None,
            Some((head, _)) => Some(head),
        }
    }

    /// Drops every partial from `origin`. Called on a Totem membership
    /// change that excludes `origin` (mirroring `giop::Reassembler`'s
    /// per-connection `reset`): the departed processor will never send
    /// the remaining fragments, and may reuse `msg_id`s after restart.
    pub fn forget_origin(&mut self, origin: NodeId) {
        self.partial.retain(|&(o, _), _| o != origin);
    }

    /// Consumes one Totem payload; returns the completed message, owned,
    /// when this was its last fragment.
    ///
    /// # Errors
    ///
    /// As [`EternalReassembler::push_view`].
    pub fn push(&mut self, payload: &Bytes) -> Result<Option<EternalMessage>, CdrError> {
        let Some(Delivered { mut head, body }) = self.push_view(payload)? else {
            return Ok(None);
        };
        if let Some(bulk) = head.bulk_mut() {
            *bulk = body.to_vec();
        }
        self.recycle(body);
        Ok(Some(head))
    }

    /// Consumes one Totem payload; returns the completed message when
    /// this was its last fragment. Its body is a view into `payload` if
    /// that was also its first, and otherwise its slices of the frames
    /// it came in ([`Body::Pieces`]), whose list [`Self::recycle`]
    /// takes back.
    ///
    /// # Errors
    ///
    /// Propagates envelope/message decode failures; out-of-order
    /// fragments (impossible under Totem's guarantees), a fragment
    /// whose `total` disagrees with the first fragment's, or a zero
    /// `total` are reported as [`CdrError::TypeMismatch`] and the
    /// partial entry is dropped.
    pub fn push_view<'a>(&mut self, payload: &'a Bytes) -> Result<Option<Delivered<'a>>, CdrError> {
        let WireFragment {
            origin,
            msg_id,
            index,
            total,
            chunk,
        } = WireFragment::from_bytes(payload)?;
        if total == 0 {
            return Err(CdrError::TypeMismatch {
                expected: "fragment total > 0",
                found: "zero-fragment message",
            });
        }
        let key = (origin, msg_id);
        let begun = !self.partial.is_empty() && self.partial.contains_key(&key);
        if total == 1 && index == 0 && !begun {
            // The common case — a message that fits one frame — is
            // decoded straight from the delivered bytes.
            return Delivered::view(chunk).map(Some);
        }
        // The chunk ends the envelope: a slice of the same frame.
        debug_assert_eq!(chunk.as_ptr(), payload[FRAGMENT_OVERHEAD..].as_ptr());
        let chunk = payload.slice(FRAGMENT_OVERHEAD..FRAGMENT_OVERHEAD + chunk.len());
        let mut entry = match self.partial.entry(key) {
            Entry::Vacant(_) if index != 0 => return Err(OUT_OF_ORDER),
            Entry::Vacant(slot) => {
                let mut pieces = self.spare.pop().unwrap_or_default();
                pieces.reserve_exact((total as usize).min(64));
                slot.insert(Partial::new(total, chunk, pieces));
                return Ok(None);
            }
            Entry::Occupied(entry) => entry,
        };
        let partial = entry.get_mut();
        if partial.total != total || partial.next != index {
            let refusal = match partial.total != total {
                true => TOTAL_MISMATCH,
                false => OUT_OF_ORDER,
            };
            entry.remove();
            return Err(refusal);
        }
        partial.next += 1;
        partial.receive(chunk);
        if partial.next < partial.total {
            return Ok(None);
        }
        entry.remove().finish().map(Some)
    }

    /// Takes back the list of a delivered body's pieces, emptied, for a
    /// later message: a reassembler whose driver hands every body back
    /// makes no allocator call for a list once it has as many as it
    /// holds partials at once. Other bodies are dropped.
    pub fn recycle(&mut self, body: Body<'_>) {
        if let Body::Pieces(mut pieces) = body {
            pieces.clear();
            self.spare.reserve_exact(1); // a few, kept run long
            self.spare.push(pieces);
        }
    }
}
