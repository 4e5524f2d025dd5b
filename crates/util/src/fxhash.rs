//! A fast, deterministic hasher (the FxHash algorithm used by rustc).
//!
//! The default [`std::collections::HashMap`] hasher (SipHash-1-3) costs
//! tens of nanoseconds per short key; in the annotation hot path
//! that is a measurable fraction of a whole prediction. FxHash is a
//! multiply-rotate mix that is 5-10× faster on the small keys these
//! tables use (instruction bytes, packed node ids) and — unlike the std
//! default — has no per-process random seed, so shard assignment and any
//! iteration-adjacent behavior is reproducible across runs.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit seed used by the multiply step (from rustc's FxHash; the golden
/// ratio in fixed point).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash streaming hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" hash differently.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Hash a byte slice in one call (used for cache-shard selection).
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_bytes(b"4801c8"), hash_bytes(b"4801c8"));
        assert_ne!(hash_bytes(b"4801c8"), hash_bytes(b"4801c9"));
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(vec![i as u8, (i * 7) as u8], i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get([3u8, 21u8].as_slice()), Some(&3));
    }

    #[test]
    fn empty_input_cases() {
        // Writing nothing leaves the hasher in its initial state: the
        // empty key has a well-defined (zero) hash and is still a usable
        // map key, distinct from every one-byte key.
        let mut h = FxHasher::default();
        h.write(b"");
        assert_eq!(h.finish(), FxHasher::default().finish());
        assert_eq!(hash_bytes(b""), h.finish());
        for b in 0..=255u8 {
            assert_ne!(hash_bytes(b""), hash_bytes(&[b]));
        }
        let mut m: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
        m.insert(Vec::new(), 7);
        m.insert(vec![0], 8);
        assert_eq!(m.get([].as_slice()), Some(&7));
        assert_eq!(m.get([0u8].as_slice()), Some(&8));
        assert_eq!(m.remove([].as_slice()), Some(7));
        assert_eq!(m.get([].as_slice()), None);
    }

    #[test]
    fn colliding_shard_keys_coexist() {
        // The engine uses `hash_bytes % shards` for shard selection, so
        // keys that collide on the low bits share a shard/bucket. Group
        // 4096 distinct keys into 16 shard classes: every class gets
        // members, the assignment is deterministic, and a map holding
        // only same-shard (bucket-colliding) keys still resolves each key
        // to its own value.
        let keys: Vec<Vec<u8>> = (0..4096u16).map(|i| i.to_le_bytes().to_vec()).collect();
        let shard = |k: &[u8]| (hash_bytes(k) % 16) as usize;
        let mut by_shard: Vec<Vec<&Vec<u8>>> = vec![Vec::new(); 16];
        for k in &keys {
            assert_eq!(shard(k), shard(k), "shard choice is deterministic");
            by_shard[shard(k)].push(k);
        }
        assert!(
            by_shard.iter().all(|s| s.len() > 64),
            "low bits spread keys over every shard: {:?}",
            by_shard.iter().map(Vec::len).collect::<Vec<_>>()
        );
        let crowded = by_shard.iter().max_by_key(|s| s.len()).expect("16 shards");
        let mut m: FxHashMap<Vec<u8>, usize> = FxHashMap::default();
        for (i, k) in crowded.iter().enumerate() {
            m.insert((*k).clone(), i);
        }
        assert_eq!(m.len(), crowded.len());
        for (i, k) in crowded.iter().enumerate() {
            assert_eq!(m.get(k.as_slice()), Some(&i), "collision lost a key");
        }
    }

    #[test]
    fn integer_writes_spread() {
        let mut a = FxHasher::default();
        a.write_u64(1);
        let mut b = FxHasher::default();
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }
}
