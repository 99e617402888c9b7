//! GIOP service contexts: out-of-band key/value data carried by Request
//! and Reply messages.
//!
//! Service contexts are the vehicle for the paper's §4.2.2 ORB/POA-level
//! state: the initial client-server handshake rides here, both for
//! standard **code-set negotiation** (context id 1) and for
//! **vendor-specific shortcuts** (our stand-in for VisiBroker 4.0's
//! short-object-key negotiation).

use crate::GiopError;
use eternal_cdr::layout::{end_octet_seq, end_u32};
use eternal_cdr::{CdrDecoder, CdrEncoder, Endian};

/// Standard CORBA service-context id for code-set negotiation.
pub const CONTEXT_CODE_SETS: u32 = 1;

/// Our "vendor-specific" service-context id (ASCII `"ETER"`), standing in
/// for VisiBroker-style proprietary negotiation. Foreign ORBs ignore it.
pub const CONTEXT_ETERNAL_VENDOR: u32 = 0x4554_4552;

/// OSF registry id for ISO 8859-1 (Latin-1).
pub const CODESET_ISO_8859_1: u32 = 0x0001_0001;
/// OSF registry id for UTF-16.
pub const CODESET_UTF_16: u32 = 0x0001_0109;
/// OSF registry id for UTF-8.
pub const CODESET_UTF_8: u32 = 0x0501_0001;

/// One service context: an id and an encapsulated payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceContext {
    /// Context id (who understands the payload).
    pub id: u32,
    /// Raw encapsulation bytes.
    pub data: Vec<u8>,
}

/// The ordered list of service contexts on a message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceContextList {
    /// The contexts, in transmission order.
    pub contexts: Vec<ServiceContext>,
}

impl ServiceContextList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds the first context with the given id.
    pub fn find(&self, id: u32) -> Option<&ServiceContext> {
        self.contexts.iter().find(|c| c.id == id)
    }

    /// Adds a context with the given id, **rejecting duplicates**: if a
    /// context with this id is already present the list is unchanged and
    /// [`GiopError::DuplicateServiceContext`] is returned. Use
    /// [`ServiceContextList::set`] for replace-on-collision semantics.
    pub fn add(&mut self, id: u32, data: Vec<u8>) -> Result<(), GiopError> {
        if self.find(id).is_some() {
            return Err(GiopError::DuplicateServiceContext(id));
        }
        self.contexts.push(ServiceContext { id, data });
        Ok(())
    }

    /// Adds or replaces the context with the given id.
    pub fn set(&mut self, id: u32, data: Vec<u8>) {
        if let Some(c) = self.contexts.iter_mut().find(|c| c.id == id) {
            c.data = data;
        } else {
            self.contexts.push(ServiceContext { id, data });
        }
    }

    /// Removes the context with the given id, returning it if present.
    pub fn remove(&mut self, id: u32) -> Option<ServiceContext> {
        let idx = self.contexts.iter().position(|c| c.id == id)?;
        Some(self.contexts.remove(idx))
    }

    /// The list as a borrowed view.
    pub fn view(&self) -> ServiceContextsView<'_> {
        ServiceContextsView(Repr::List(&self.contexts))
    }

    /// Marshals the list.
    pub fn encode(&self, enc: &mut CdrEncoder) {
        self.view().encode(enc);
    }

    /// Unmarshals the list.
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
        Ok(ServiceContextsView::parse(dec)?.to_list())
    }
}

/// The service contexts of a message, borrowed: `(id, payload)` pairs
/// still lying in the wire bytes they were parsed from, or in the owned
/// [`ServiceContextList`] they are about to be encoded from.
#[derive(Debug, Clone)]
pub struct ServiceContextsView<'a>(Repr<'a>);

#[derive(Debug, Clone)]
enum Repr<'a> {
    /// `count` contexts in wire form, every one already checked by
    /// [`ServiceContextsView::parse`]; `dec` stands at the first.
    Wire { dec: CdrDecoder<'a>, count: u32 },
    /// The contexts of an owned list.
    List(&'a [ServiceContext]),
}

impl<'a> ServiceContextsView<'a> {
    /// Checks the list `dec` stands at and steps over it.
    #[inline]
    pub(crate) fn parse(dec: &mut CdrDecoder<'a>) -> Result<Self, GiopError> {
        let count = dec.read_u32()?;
        let first = dec.clone();
        for _ in 0..count {
            dec.read_u32()?;
            dec.read_octets()?;
        }
        Ok(ServiceContextsView(Repr::Wire { dec: first, count }))
    }

    /// The contexts in transmission order.
    pub fn iter(&self) -> ServiceContextIter<'a> {
        ServiceContextIter(self.0.clone())
    }

    /// The payload of the first context with the given id.
    #[inline]
    pub fn find(&self, id: u32) -> Option<&'a [u8]> {
        self.iter().find(|&(i, _)| i == id).map(|(_, data)| data)
    }

    /// The contexts as an owned list.
    pub fn to_list(&self) -> ServiceContextList {
        let contexts = self
            .iter()
            .map(|(id, data)| ServiceContext {
                id,
                data: data.to_vec(),
            })
            .collect();
        ServiceContextList { contexts }
    }

    #[inline]
    pub(crate) fn encode(&self, enc: &mut CdrEncoder) {
        let contexts = self.iter();
        enc.write_u32(contexts.len() as u32);
        for (id, data) in contexts {
            enc.write_u32(id);
            enc.write_octet_seq(data);
        }
    }

    /// Where the encoded list ends in a CDR stream it starts (aligned).
    #[inline]
    pub(crate) fn encoded_len(&self) -> usize {
        // The count, then per context an id and a payload.
        self.iter()
            .fold(4, |at, (_, data)| end_octet_seq(end_u32(at), data.len()))
    }
}

/// Iterator over the `(id, payload)` pairs of a [`ServiceContextsView`].
#[derive(Debug, Clone)]
pub struct ServiceContextIter<'a>(Repr<'a>);

impl<'a> Iterator for ServiceContextIter<'a> {
    type Item = (u32, &'a [u8]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Repr::Wire { count: 0, .. } => None,
            Repr::Wire { dec, count } => {
                *count -= 1;
                let id = dec.read_u32().expect("checked by parse");
                Some((id, dec.read_octets().expect("checked by parse")))
            }
            Repr::List(contexts) => {
                let (first, rest) = contexts.split_first()?;
                *contexts = rest;
                Some((first.id, &first.data))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            Repr::Wire { count, .. } => *count as usize,
            Repr::List(contexts) => contexts.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for ServiceContextIter<'_> {}

/// The payload of a [`CONTEXT_CODE_SETS`] context: the transmission code
/// sets the client proposes (request) or the server confirms (reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeSetContext {
    /// Code set for `char` data.
    pub char_data: u32,
    /// Code set for `wchar` data.
    pub wchar_data: u32,
}

impl CodeSetContext {
    /// The conventional default pairing.
    pub fn default_sets() -> Self {
        CodeSetContext {
            char_data: CODESET_ISO_8859_1,
            wchar_data: CODESET_UTF_16,
        }
    }

    /// Serializes into a service-context payload (an encapsulation).
    pub fn to_context_data(self) -> Vec<u8> {
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_u8(Endian::Big.flag());
        enc.write_u32(self.char_data);
        enc.write_u32(self.wchar_data);
        enc.into_bytes()
    }

    /// Parses a service-context payload.
    pub fn from_context_data(data: &[u8]) -> Result<Self, GiopError> {
        if data.is_empty() {
            return Err(GiopError::Cdr(eternal_cdr::CdrError::BufferUnderflow {
                needed: 1,
                remaining: 0,
            }));
        }
        let endian = Endian::from_flag(data[0]);
        let mut dec = CdrDecoder::new(data, endian);
        dec.read_u8()?;
        Ok(CodeSetContext {
            char_data: dec.read_u32()?,
            wchar_data: dec.read_u32()?,
        })
    }
}

/// The payload of a [`CONTEXT_ETERNAL_VENDOR`] context: the
/// "vendor-specific shortcut" negotiation of the paper's §4.2.2.
///
/// On the first request over a connection, the client proposes a
/// *short object key* (a small integer alias for the full object key).
/// A same-vendor server records the alias and confirms it in its reply;
/// subsequent requests may then carry the alias instead of the full key.
/// A server that never saw the handshake cannot resolve the alias — the
/// exact failure mode Eternal's handshake replay exists to prevent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VendorHandshake {
    /// The full object key being aliased.
    pub full_key: Vec<u8>,
    /// The proposed (request) or confirmed (reply) alias.
    pub short_key: u32,
}

impl VendorHandshake {
    /// Serializes into a service-context payload.
    pub fn to_context_data(&self) -> Vec<u8> {
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_u8(Endian::Big.flag());
        enc.write_octet_seq(&self.full_key);
        enc.write_u32(self.short_key);
        enc.into_bytes()
    }

    /// Parses a service-context payload.
    pub fn from_context_data(data: &[u8]) -> Result<Self, GiopError> {
        if data.is_empty() {
            return Err(GiopError::Cdr(eternal_cdr::CdrError::BufferUnderflow {
                needed: 1,
                remaining: 0,
            }));
        }
        let endian = Endian::from_flag(data[0]);
        let mut dec = CdrDecoder::new(data, endian);
        dec.read_u8()?;
        Ok(VendorHandshake {
            full_key: dec.read_octet_seq()?,
            short_key: dec.read_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_round_trip() {
        let mut list = ServiceContextList::new();
        list.set(CONTEXT_CODE_SETS, vec![1, 2, 3]);
        list.set(CONTEXT_ETERNAL_VENDOR, vec![9]);
        let mut enc = CdrEncoder::new(Endian::Big);
        list.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, Endian::Big);
        assert_eq!(ServiceContextList::decode(&mut dec).unwrap(), list);
    }

    #[test]
    fn set_replaces_existing() {
        let mut list = ServiceContextList::new();
        list.set(1, vec![1]);
        list.set(1, vec![2]);
        assert_eq!(list.contexts.len(), 1);
        assert_eq!(list.find(1).unwrap().data, vec![2]);
    }

    #[test]
    fn remove_returns_context() {
        let mut list = ServiceContextList::new();
        list.set(1, vec![1]);
        assert_eq!(list.remove(1).unwrap().data, vec![1]);
        assert!(list.remove(1).is_none());
        assert!(list.find(1).is_none());
    }

    #[test]
    fn code_set_context_round_trip() {
        let cs = CodeSetContext::default_sets();
        let back = CodeSetContext::from_context_data(&cs.to_context_data()).unwrap();
        assert_eq!(back, cs);
        assert_eq!(back.char_data, CODESET_ISO_8859_1);
    }

    #[test]
    fn vendor_handshake_round_trip() {
        let hs = VendorHandshake {
            full_key: b"bank/account-7".to_vec(),
            short_key: 3,
        };
        let back = VendorHandshake::from_context_data(&hs.to_context_data()).unwrap();
        assert_eq!(back, hs);
    }

    #[test]
    fn empty_payloads_rejected() {
        assert!(CodeSetContext::from_context_data(&[]).is_err());
        assert!(VendorHandshake::from_context_data(&[]).is_err());
    }

    #[test]
    fn add_rejects_duplicate_ids() {
        let mut list = ServiceContextList::new();
        list.add(CONTEXT_ETERNAL_VENDOR, vec![1]).unwrap();
        assert_eq!(
            list.add(CONTEXT_ETERNAL_VENDOR, vec![2]),
            Err(GiopError::DuplicateServiceContext(CONTEXT_ETERNAL_VENDOR))
        );
        // The rejected add left the list unchanged.
        assert_eq!(list.contexts.len(), 1);
        assert_eq!(list.find(CONTEXT_ETERNAL_VENDOR).unwrap().data, vec![1]);
        // `remove` then `add` is the sanctioned replacement path.
        assert!(list.remove(CONTEXT_ETERNAL_VENDOR).is_some());
        list.add(CONTEXT_ETERNAL_VENDOR, vec![2]).unwrap();
        assert_eq!(list.find(CONTEXT_ETERNAL_VENDOR).unwrap().data, vec![2]);
    }
}
