//! A deterministic multiply-xor hasher for the simulator's hot lookups.
//!
//! The engine probes `addr_map` and `links` once per routed packet, and the
//! keys are tiny fixed-size values (an IPv4 address, a pair of node ids)
//! fully controlled by the simulation itself — the DoS resistance that
//! justifies `std`'s randomly-seeded SipHash buys nothing here and costs a
//! long dependency chain per probe. This is the Fx construction (rotate,
//! xor, multiply by a odd constant) with a fixed zero seed, so hash values
//! — and therefore any map iteration order — are identical across runs and
//! processes, which is one less way for nondeterminism to leak into a
//! seeded simulation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by the deterministic [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` hashed by the deterministic [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Multiplier from Firefox's Fx hash: an odd constant close to
/// 2^64 / golden ratio, so consecutive keys scatter across the table.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state. `Default` starts at zero — fixed, never randomized.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of<T: std::hash::Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let a = hash_of(&(std::net::Ipv4Addr::new(30, 0, 0, 1), 7u64));
        let b = hash_of(&(std::net::Ipv4Addr::new(30, 0, 0, 1), 7u64));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_close_keys() {
        let h1 = hash_of(&std::net::Ipv4Addr::new(30, 0, 0, 1));
        let h2 = hash_of(&std::net::Ipv4Addr::new(30, 0, 0, 2));
        assert_ne!(h1, h2);
    }

    #[test]
    fn tail_bytes_and_length_both_count() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 3, 0]);
        assert_ne!(a.finish(), b.finish(), "a trailing zero must change the hash");
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastHashMap<(u32, u32), &'static str> = FastHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i ^ 5), "v");
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(17, 17 ^ 5)), Some(&"v"));
    }
}
