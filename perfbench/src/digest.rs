//! Order-independent digests of trace entries, for output checks.

use ipfs_monitoring::core::TraceEntry;
use std::hash::{Hash, Hasher};

/// A fast, fixed-key word hasher. Keyless hashing is fine here: the
/// digest compares two readings of the program's own output.
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Multiset digest: the same entries in any order give the same value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    sum: u64,
    sum_sq: u64,
}

impl Digest {
    /// Folds in one entry. `flags` includes the preprocessing flags; leave
    /// it off to compare collected with read-back entries, which carry
    /// none.
    pub fn add(&mut self, entry: &TraceEntry, flags: bool) {
        let mut h = WordHasher(0x243f_6a88_85a3_08d3);
        entry.timestamp.as_millis().hash(&mut h);
        entry.peer.hash(&mut h);
        entry.address.hash(&mut h);
        entry.request_type.hash(&mut h);
        Hash::hash(&entry.cid, &mut h);
        entry.monitor.hash(&mut h);
        if flags {
            entry.flags.inter_monitor_duplicate.hash(&mut h);
            entry.flags.rebroadcast.hash(&mut h);
        }
        let word = h.finish();
        self.count += 1;
        self.sum = self.sum.wrapping_add(word);
        self.sum_sq = self.sum_sq.wrapping_add(word.wrapping_mul(word | 1));
    }
}
