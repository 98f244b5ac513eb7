//! A fast hasher for word-keyed maps on the analysis hot paths, and the
//! one register/word table every read-after-write analysis is built on.
//!
//! The dependency analyses key hash maps by 8-byte-aligned guest addresses
//! and touch them once or twice per retired instruction — hundreds of
//! millions of lookups at paper scale. The default SipHash is DoS-hardened
//! but slow for this; a Fibonacci multiplicative hash is ample for
//! guest-address keys (the "attacker" is our own workload generator).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::regid::NUM_REG_SLOTS;
use crate::retire::RetiredInst;

/// Multiplicative hasher for integer keys.
#[derive(Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (not used by u64 keys, kept correct anyway).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // splitmix64 finalizer: excellent low-bit diffusion (hashbrown
        // selects buckets from the low bits) at a few cycles per key.
        let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by guest words using [`WordHasher`].
pub type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordHasher>>;

/// The last value written to each register slot and each 8-byte memory
/// word — the paper's §4 "array to maintain the critical path length to
/// the value held in each register, and a map to keep track of path
/// lengths for each memory address". What the value is (a chain depth, a
/// retirement index, a ready cycle) is up to the analysis.
///
/// Unwritten registers read as `V::default()`; unwritten words are not
/// read at all.
#[derive(Debug, Clone)]
pub struct DepTable<V> {
    regs: [V; NUM_REG_SLOTS],
    words: WordMap<V>,
}

impl<V: Copy + Default> DepTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        DepTable { regs: [V::default(); NUM_REG_SLOTS], words: WordMap::default() }
    }

    /// Fold `f` over the values `ri` reads: each source register slot,
    /// then each word of each memory read that has been written.
    #[inline]
    pub fn fold_reads<A>(&self, ri: &RetiredInst, init: A, mut f: impl FnMut(A, V) -> A) -> A {
        let mut acc = init;
        for r in ri.srcs.iter() {
            acc = f(acc, self.regs[r.index()]);
        }
        for a in ri.mem_reads.iter() {
            for w in a.words() {
                if let Some(&v) = self.words.get(&w) {
                    acc = f(acc, v);
                }
            }
        }
        acc
    }

    /// Set every register slot and memory word `ri` writes to `value`.
    #[inline]
    pub fn write(&mut self, ri: &RetiredInst, value: V) {
        for r in ri.dsts.iter() {
            self.regs[r.index()] = value;
        }
        for a in ri.mem_writes.iter() {
            for w in a.words() {
                self.words.insert(w, value);
            }
        }
    }

    /// Forget every write (the word map keeps its capacity).
    pub fn clear(&mut self) {
        self.regs = [V::default(); NUM_REG_SLOTS];
        self.words.clear();
    }
}

impl<V: Copy + Default> Default for DepTable<V> {
    fn default() -> Self {
        DepTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstGroup, MemAccess, RegId, RegSet};

    fn words(addr: u64, size: u8) -> Vec<u64> {
        MemAccess { addr, size }.words().collect()
    }

    #[test]
    fn access_words_cover_every_touched_byte() {
        assert_eq!(words(0x100, 8), vec![0x20], "aligned 8-byte access: one word");
        assert_eq!(words(0x103, 0), vec![0x20], "zero size counts as one byte");
        assert_eq!(words(0x107, 1), vec![0x20]);
        assert_eq!(words(0x104, 8), vec![0x20, 0x21], "straddling 8-byte access: two words");
        assert_eq!(words(0x104, 16), vec![0x20, 0x21, 0x22], "unaligned pair access: three words");
        assert_eq!(words(0x100, 16), vec![0x20, 0x21]);
    }

    fn rec(srcs: &[RegId], dsts: &[RegId]) -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::IntAlu);
        ri.srcs = RegSet::of(srcs);
        ri.dsts = RegSet::of(dsts);
        ri
    }

    fn reads(t: &DepTable<u64>, ri: &RetiredInst) -> Vec<u64> {
        t.fold_reads(ri, Vec::new(), |mut v, x| {
            v.push(x);
            v
        })
    }

    #[test]
    fn dep_table_reads_back_what_was_written() {
        let mut t: DepTable<u64> = DepTable::new();
        let mut st = rec(&[], &[RegId::Int(3), RegId::Flags]);
        st.mem_writes.push(0x104, 8); // words 0x20 and 0x21
        t.write(&st, 7);

        // Unwritten registers read as the default; unwritten words are
        // not visited at all.
        let mut ld = rec(&[RegId::Int(3), RegId::Fp(3), RegId::Flags], &[]);
        ld.mem_reads.push(0x0FC, 8); // words 0x1F (unwritten) and 0x20
        ld.mem_reads.push(0x200, 4); // word 0x40 (unwritten)
        assert_eq!(reads(&t, &ld), vec![7, 0, 7, 7]);
        assert_eq!(t.fold_reads(&ld, 0, u64::max), 7);

        // A later write to one word leaves its neighbour alone.
        let mut st2 = rec(&[], &[]);
        st2.mem_writes.push(0x108, 2);
        t.write(&st2, 9);
        let mut both = rec(&[], &[]);
        both.mem_reads.push(0x100, 16);
        assert_eq!(reads(&t, &both), vec![7, 9]);

        t.clear();
        assert_eq!(reads(&t, &ld), vec![0, 0, 0], "clear forgets registers and words");
        assert_eq!(reads(&t, &both), Vec::<u64>::new());
    }

    #[test]
    fn map_behaves_like_hashmap() {
        let mut m: WordMap<u64> = WordMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 8, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 8)), Some(&i));
        }
        m.remove(&80);
        assert_eq!(m.get(&80), None);
    }

    #[test]
    fn aligned_addresses_spread() {
        // 8-byte-aligned keys must not collapse onto few buckets: check the
        // low bits of hashes differ across a stride-8 sequence.
        use std::hash::Hash;
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            let mut h = WordHasher::default();
            (i * 8).hash(&mut h);
            low_bits.insert(h.finish() & 0x3F);
        }
        assert!(low_bits.len() > 32, "only {} distinct low-6-bit patterns", low_bits.len());
    }
}
