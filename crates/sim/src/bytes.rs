//! A cheaply cloneable, immutable byte buffer.
//!
//! A message that crosses the simulated medium is held in many places
//! at once: the sender's retransmission store, one scheduled frame per
//! destination, every receiver's store, the recovery store across a
//! ring reformation, and finally the application delivery. [`Bytes`]
//! lets all of them share one allocation — a clone is a reference-count
//! bump, never a copy — which is what a real stack gets from handing the
//! same packet buffer to the NIC and to its own log.

use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// An immutable, reference-counted view of a byte buffer.
///
/// Equality is by content. The buffer is freed when the last view of it
/// is dropped. The count is a plain [`Rc`]: the simulator runs on one
/// thread, and `eternal_totem::ring::Ring`, which carries every
/// `Bytes`, already holds an `Rc` choice source, so nothing that owned
/// one could cross a thread when the count was atomic either.
#[derive(Clone)]
pub struct Bytes {
    buf: Rc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// A view of `range` within this view, sharing the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `range` is decreasing or reaches past `self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of {} bytes",
            self.len()
        );
        Bytes {
            buf: Rc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Whether `a` and `b` are views into the same allocation (a clone
    /// or slice of one another, however many hands they passed through).
    pub fn ptr_eq(a: &Bytes, b: &Bytes) -> bool {
        Rc::ptr_eq(&a.buf, &b.buf)
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `buf` without copying it.
    fn from(buf: Vec<u8>) -> Self {
        let end = buf.len();
        Bytes {
            buf: Rc::new(buf),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derefs_to_the_bytes_it_was_built_from() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(&*b, &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(format!("{b:?}"), "[1, 2, 3]");
    }

    #[test]
    fn clone_and_slice_share_the_allocation() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let c = b.clone();
        assert!(Bytes::ptr_eq(&b, &c));
        assert_eq!(b.as_ptr(), c.as_ptr());
        let s = b.slice(2..5);
        assert!(Bytes::ptr_eq(&b, &s));
        assert_eq!(&*s, &[2, 3, 4]);
        // Slicing a slice is relative to the slice, not the buffer.
        let t = s.slice(1..3);
        assert_eq!(&*t, &[3, 4]);
        assert_eq!(t.as_ptr(), b[3..].as_ptr());
        // The buffer outlives the view it was built through.
        drop((b, c, s));
        assert_eq!(&*t, &[3, 4]);
    }

    #[test]
    fn slice_bounds() {
        let b = Bytes::from(vec![7; 4]);
        assert_eq!(b.slice(0..4), b);
        assert!(b.slice(4..4).is_empty());
        assert!(b.slice(0..0).is_empty());
        let s = b.slice(1..3);
        assert_eq!(s.slice(0..2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        Bytes::from(vec![0; 4]).slice(2..5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_of_a_slice_panics_even_inside_the_buffer() {
        Bytes::from(vec![0; 8]).slice(0..4).slice(2..6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[allow(clippy::reversed_empty_ranges)]
    fn decreasing_slice_panics() {
        Bytes::from(vec![0; 4]).slice(3..1);
    }

    #[test]
    fn equality_is_by_content_not_identity() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::from(vec![1, 2, 3]);
        assert!(!Bytes::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_ne!(a, Bytes::from(vec![1, 2, 4]));
        assert_ne!(a, Bytes::from(vec![1, 2]));
        // Views at different offsets of different buffers compare by
        // what they show.
        let c = Bytes::from(vec![9, 1, 2, 3, 9]).slice(1..4);
        assert_eq!(a, c);
    }
}
