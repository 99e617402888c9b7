//! The two non-cryptographic hashes the system fingerprints with.
//!
//! * [`fnv1a`] — byte-at-a-time FNV-1a. Its values are pinned in
//!   committed artefacts (schedule fingerprints, trace ids, health and
//!   benchmark state digests), and its inputs are short or off the hot
//!   path, so it stays exactly as it is.
//! * [`hash_bytes`] — a word-at-a-time hash for *bulk* data: the body of
//!   every delivered IIOP message goes through it once per node. FNV-1a
//!   there was a four-cycle dependent multiply per byte and more than
//!   half of a fragmented workload's host time.

/// FNV-1a offset basis: the hash of no input, and the seed to chain
/// from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a hash `h` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Folds one more word into a running chain. Order matters: folding
/// `a` then `b` and `b` then `a` leave different chains.
pub fn fold_word(chain: u64, word: u64) -> u64 {
    merge(chain, word)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// Hashes `bytes` eight at a time (XXH64, seed 0).
///
/// Each 32-byte stripe feeds four independent accumulators with one
/// little-endian word each, so the four multiply chains overlap; the
/// length is folded in before the tail, so a body never collides with
/// its zero-padded extension; a final avalanche spreads every input bit
/// over the whole result.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.into_iter().fold(h, merge)
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let w = u32::from_le_bytes(rest[..4].try_into().expect("a 4-byte chunk"));
        h = (h ^ u64::from(w).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn reference_values_of_fnv1a() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining is concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn hash_bytes_matches_xxh64_reference_values() {
        assert_eq!(hash_bytes(b""), 0xef46_db37_51d8_e999);
        assert_eq!(hash_bytes(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(hash_bytes(b"abc"), 0x44bc_2cf5_ad77_0999);
        // Longer than one stripe, so the four-lane path runs.
        assert_eq!(
            hash_bytes(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn zero_padding_changes_the_hash_at_every_tail_shape() {
        // Lengths straddling the byte / word / stripe boundaries: the
        // one-byte-longer zero-padded body must hash differently, for
        // all-zero bodies (only the length tells them apart) and for
        // patterned ones.
        for len in [0usize, 7, 8, 9, 31, 32, 33] {
            for fill in [0u8, 0xA5] {
                let body = vec![fill; len];
                let mut padded = body.clone();
                padded.push(0);
                assert_ne!(
                    hash_bytes(&body),
                    hash_bytes(&padded),
                    "len {len} fill {fill:#x}"
                );
            }
        }
    }

    #[test]
    fn every_byte_position_matters() {
        // Flip one bit at each position of a 109-byte body (3 stripes, a
        // word, a half-word and a byte of tail): all 110 hashes differ.
        let body: Vec<u8> = (0..109u8).collect();
        let mut seen = HashSet::new();
        assert!(seen.insert(hash_bytes(&body)));
        for i in 0..body.len() {
            let mut flipped = body.clone();
            flipped[i] ^= 0x10;
            assert!(seen.insert(hash_bytes(&flipped)), "position {i}");
        }
    }

    #[test]
    fn swapping_words_or_lanes_changes_the_hash() {
        let body: Vec<u8> = (0..64u8).collect();
        let mut swapped = body.clone();
        // Two words of the same lane (stripe 0 word 0 <-> stripe 1 word 0).
        for i in 0..8 {
            swapped.swap(i, 32 + i);
        }
        assert_ne!(hash_bytes(&body), hash_bytes(&swapped));
        let mut swapped = body.clone();
        // Two lanes of one stripe.
        for i in 0..8 {
            swapped.swap(i, 8 + i);
        }
        assert_ne!(hash_bytes(&body), hash_bytes(&swapped));
    }
}
