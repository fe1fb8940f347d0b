//! Stable hashing for content addressing and cache keys.
//!
//! `std::hash` makes no cross-run (or cross-version) stability promise, so
//! everything persisted to disk hashes through one of two fixed algorithms:
//!
//! * [`xxh64`] — XXH64 with seed 0, over *bulk bytes*: checkpoint content
//!   hashes (the cache verifies every byte it serves with it) and
//!   collision-free file stems. It consumes 32-byte stripes on four
//!   independent 64-bit lanes, so it runs at memory speed where a
//!   byte-serial hash is bound by one multiply per byte.
//! * [`StableHasher`] — FNV-1a 64 over *typed, delimited* writes: cache
//!   keys, job IDs, config fingerprints. Their pre-images are short, and
//!   every write is terminated so concatenation ambiguities ("ab"+"c" vs
//!   "a"+"bc") cannot collide.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x100000001b3;

/// An incremental FNV-1a 64-bit hasher with typed, delimited writes.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    pub fn new() -> Self {
        StableHasher { state: OFFSET }
    }

    /// Raw bytes, no terminator — the primitive the typed writes build on.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// A string, terminated by its length so adjacent writes cannot merge.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// An `f64` by bit pattern: equal bits hash equal, and any knob change
    /// that alters the value alters the hash.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

const P1: u64 = 0x9E3779B185EBCA87;
const P2: u64 = 0xC2B2AE3D27D4EB4F;
const P3: u64 = 0x165667B19E3779F9;
const P4: u64 = 0x85EBCA77C2B2AE63;
const P5: u64 = 0x27D4EB2F165667C5;

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn read_u32(b: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(b[..4].try_into().expect("4 bytes")))
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// One-shot XXH64 (seed 0) over a byte slice, as the public XXH64
/// specification defines it.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            v[0] = round(v[0], read_u64(&stripe[0..]));
            v[1] = round(v[1], read_u64(&stripe[8..]));
            v[2] = round(v[2], read_u64(&stripe[16..]));
            v[3] = round(v[3], read_u64(&stripe[24..]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| merge_round(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);

    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        h = (h ^ round(0, read_u64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        h = (h ^ read_u32(rest).wrapping_mul(P1))
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

    #[test]
    fn known_vectors() {
        // FNV-1a 64 reference values, through the incremental hasher.
        let fnv = |bytes: &[u8]| {
            let mut h = StableHasher::new();
            h.write_bytes(bytes);
            h.finish()
        };
        assert_eq!(fnv(b""), 0xcbf29ce484222325);
        assert_eq!(fnv(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn xxh64_known_vectors() {
        // XXH64 reference values, seed 0.
        assert_eq!(xxh64(b""), 0xef46db3751d8e999);
        assert_eq!(xxh64(b"a"), 0xd24ec4f1a98c6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc2cf5ad770999);
    }

    #[test]
    fn xxh64_flips_and_truncations_change_the_hash() {
        // Lengths 0..=100 cross the 32-byte stripe boundary and every
        // 8-byte, 4-byte and single-byte tail shape.
        let data: Vec<u8> = (0..=100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            let h = xxh64(input);
            for at in 0..len {
                for bit in 0..8 {
                    let mut flipped = input.to_vec();
                    flipped[at] ^= 1 << bit;
                    assert_ne!(xxh64(&flipped), h, "len {len}: bit {bit} of byte {at}");
                }
            }
            for cut in 0..len {
                assert_ne!(xxh64(&input[..cut]), h, "len {len}: truncated to {cut}");
            }
        }
    }

    #[test]
    fn string_writes_are_delimited() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stable_across_invocations() {
        let h = |x: f64| {
            let mut h = StableHasher::new();
            h.write_str("knob");
            h.write_f64(x);
            h.finish()
        };
        assert_eq!(h(0.7), h(0.7));
        assert_ne!(h(0.7), h(0.70001));
    }
}
