//! Stable hashing for content addressing and cache keys.
//!
//! `std::hash` makes no cross-run (or cross-version) stability promise, so
//! everything persisted to disk — checkpoint content hashes, component
//! cache keys, collision-free file stems — hashes through this FNV-1a
//! 64-bit implementation instead. The encoding is explicit about field
//! boundaries (every write is terminated) so concatenation ambiguities
//! ("ab"+"c" vs "a"+"bc") cannot collide.

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

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // FNV-1a 64 reference values.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
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
