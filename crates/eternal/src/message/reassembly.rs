//! Reassembly of [`WireFragment`] streams: a body in several fragments
//! is kept, counted or landed where it stays, as a [`KeepRule`] says.

use super::{body_within, Delivered, EternalMessage, WireFragment};
use eternal_cdr::CdrError;
use eternal_sim::net::NodeId;
use std::borrow::Cow;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Range;

/// What becomes of the body of a message in several fragments. Only a
/// kept body is delivered; the others arrive empty, with the verdicts
/// and gauges of keeping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// In the partial's own buffer, which the message keeps.
    Kept,
    /// Nowhere: its bytes are counted.
    Counted,
    /// Each fragment's bytes are handed to [`KeepRule::land`].
    Landed,
}

/// A processor's keep rule, asked of a head at its first fragment. A
/// closure over the head keeps (`true`) or counts a body.
pub trait KeepRule {
    /// What becomes of `head`'s body, declared `len` bytes long.
    fn keep(&mut self, head: &EternalMessage, len: usize) -> Keep;

    /// Writes the next `bytes` of `head`'s landed body where it stays;
    /// `false` once they no longer land there, and the rest is counted.
    fn land(&mut self, _head: &EternalMessage, _bytes: &[u8]) -> bool {
        false
    }
}

impl<F: FnMut(&EternalMessage) -> bool> KeepRule for F {
    fn keep(&mut self, head: &EternalMessage, _: usize) -> Keep {
        match self(head) {
            true => Keep::Kept,
            false => Keep::Counted,
        }
    }
}

/// A partially reassembled message: the fragment index expected next,
/// the total announced by the first fragment (every later fragment must
/// agree), and the bytes received so far — after the head of a message
/// with a bulk body, decoded from the first fragment when it holds it:
/// then each body byte is written at its final offset in the buffer
/// the delivered message keeps, or where it lands.
#[derive(Debug)]
pub(super) struct Partial {
    next: u32,
    total: u32,
    /// That head, and where its body lies in the whole message. Its own
    /// empty body collects the bytes after the body: an assignment's
    /// other two kinds of state, which every processor decodes.
    pub(super) head: Option<(EternalMessage, Range<usize>)>,
    pub(super) bytes: Received,
}

/// What a partial keeps of the bytes it receives: all of them, or only
/// their number for a body the processor does not keep or lands.
#[derive(Debug)]
pub(super) enum Received {
    Kept(Vec<u8>),
    Counted(usize),
    Landed(usize),
}

impl Received {
    fn len(&self) -> usize {
        match self {
            Received::Kept(bytes) => bytes.len(),
            Received::Counted(len) | Received::Landed(len) => *len,
        }
    }
}

/// Most bytes reserved up front for one message: by a partial, or by a
/// recovering replica for its state (a larger one still arrives; its
/// buffer then grows).
pub(crate) const MAX_PRESIZE: usize = 1 << 24;

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
    /// A message of `total` fragments begun by its first, `first`, whose
    /// body is kept if there is no head, and otherwise as `rule` says.
    fn new(total: u32, first: &[u8], rule: &mut impl KeepRule) -> Self {
        let head = EternalMessage::decode_bulk_head(first).ok().flatten();
        let (skip, body) = head
            .as_ref()
            .map_or((0, usize::MAX), |(_, body)| (body.start, body.len()));
        // Every fragment but the last is as long as the first, so this
        // holds the whole message, or its body, and never grows; no one
        // corrupt word reserves the address space. Not a pooled buffer:
        // the message keeps it.
        let presize = (total as usize)
            .saturating_mul(first.len())
            .min(body)
            .min(MAX_PRESIZE);
        let bytes = match head
            .as_ref()
            .map_or(Keep::Kept, |(h, _)| rule.keep(h, body))
        {
            Keep::Kept => Received::Kept(Vec::with_capacity(presize)),
            Keep::Counted => Received::Counted(0),
            Keep::Landed => Received::Landed(0),
        };
        let mut partial = Partial {
            next: 1,
            total,
            head,
            bytes,
        };
        partial.receive(&first[skip..], rule);
        partial
    }

    /// Takes in the next `chunk` of the message: the bytes up to the
    /// body's end are kept, counted or landed, those after it collected
    /// in the head's body buffer. Bytes `rule` refuses to land are
    /// counted, and so is the rest of the body.
    fn receive(&mut self, mut chunk: &[u8], rule: &mut impl KeepRule) {
        if let Some((head, body)) = &mut self.head {
            let upto = body.len().saturating_sub(self.bytes.len());
            if upto < chunk.len() {
                let after = head.bulk_mut().expect("a head has a bulk body");
                after.extend_from_slice(&chunk[upto..]);
                chunk = &chunk[..upto];
            }
        }
        let len = match &mut self.bytes {
            Received::Kept(bytes) => return bytes.extend_from_slice(chunk),
            Received::Counted(len) | Received::Landed(len) => {
                *len += chunk.len();
                *len
            }
        };
        if let (Received::Landed(_), Some((head, _))) = (&self.bytes, &self.head) {
            if !rule.land(head, chunk) {
                self.bytes = Received::Counted(len);
            }
        }
    }

    /// Bytes received after the head, kept or not.
    fn received(&self) -> usize {
        let after = self.head.as_ref().map_or(0, |(head, _)| head.bulk().len());
        self.bytes.len() + after
    }

    /// The message, its last fragment in: the kept bytes become its
    /// body, or, without a decoded head, are decoded whole. Either way
    /// the verdict is [`EternalMessage::from_bytes`]' on the whole.
    fn finish(self) -> Result<Delivered<'static>, CdrError> {
        let received = self.received();
        let bytes = match self.bytes {
            Received::Kept(bytes) => bytes,
            Received::Counted(_) | Received::Landed(_) => Vec::new(),
        };
        let Some((mut head, body)) = self.head else {
            return EternalMessage::from_bytes(&bytes).map(Delivered::from);
        };
        body_within(body.clone(), body.start + received)?;
        let after = std::mem::take(head.bulk_mut().expect("a head has a bulk body"));
        head.decode_tail(&after, body.end)?;
        Ok(Delivered {
            head,
            body: Cow::Owned(bytes),
        })
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

    /// Bytes received across all partially assembled messages, kept or
    /// not (a backpressure gauge: what waits for trailing fragments).
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

    /// Consumes one Totem payload, keeping every body; returns the
    /// completed message when this was its last fragment.
    ///
    /// # Errors
    ///
    /// As [`EternalReassembler::push_view`].
    pub fn push(&mut self, payload: &[u8]) -> Result<Option<EternalMessage>, CdrError> {
        Ok(self
            .push_view(payload, &mut |_: &EternalMessage| true)?
            .map(Delivered::into_message))
    }

    /// Consumes one Totem payload; returns the completed message when
    /// this was its last fragment, its body a view into `payload` if it
    /// was also its first. Of a message in several fragments whose
    /// first holds its head, `rule` is asked once, at that fragment,
    /// what becomes of the body ([`Keep`]), and handed each fragment's
    /// bytes of a body it lands.
    ///
    /// # Errors
    ///
    /// Propagates envelope/message decode failures; out-of-order
    /// fragments (impossible under Totem's guarantees), a fragment
    /// whose `total` disagrees with the first fragment's, or a zero
    /// `total` are reported as [`CdrError::TypeMismatch`] and the
    /// partial entry is dropped.
    pub fn push_view<'a>(
        &mut self,
        payload: &'a [u8],
        rule: &mut impl KeepRule,
    ) -> Result<Option<Delivered<'a>>, CdrError> {
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
        let mut entry = match self.partial.entry(key) {
            Entry::Vacant(_) if index != 0 => return Err(OUT_OF_ORDER),
            Entry::Vacant(slot) => {
                slot.insert(Partial::new(total, chunk, rule));
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
        partial.receive(chunk, rule);
        match partial.next == partial.total {
            // The buffer is this reassembler's own: the message keeps it.
            true => entry.remove().finish().map(Some),
            false => Ok(None),
        }
    }
}
