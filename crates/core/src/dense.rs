//! Building blocks for indexes keyed the way their keys are shaped.
//!
//! The relay's indexes have two kinds of key. An [`ExprId`] is a dense
//! index into the monitor's `ExprTable`, so a map over expressions is a
//! `Vec` indexed by [`ExprId::index`] plus a [`LiveExprs`] list of the
//! occupied slots for the relay to walk. A tag key (`i64`) or heap rank
//! (`i128`) really is a value and keeps a hash table — an [`IntMap`],
//! hashed by [`IntHasher`] instead of SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use autosynch_predicate::expr::ExprId;

/// A `HashMap` over integer keys hashed by [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Hasher for maps keyed by a single integer.
///
/// The keys are the constants a program compares its shared expressions
/// against — ticket numbers, batch sizes, thread ids — and are often
/// strided (every key a multiple of 64, say). They are not attacker
/// input, so SipHash's collision resistance buys nothing here. But the
/// table takes its bucket from the hash's low bits and its control byte
/// from the top seven: across a power-of-two stride an identity hash
/// gives every key one control byte and a multiply-only hash gives every
/// key one bucket. Each word therefore goes through the SplitMix64
/// finalizer, whose output bits each depend on every input bit.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_ne_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = (self.0 ^ n).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }
}

/// The slot of `expr` in an `ExprId`-indexed `Vec`, which grows by
/// `empty()` slots to reach it: expressions may be registered after the
/// index was built.
pub(crate) fn slot_mut<T>(slots: &mut Vec<T>, expr: ExprId, empty: impl FnMut() -> T) -> &mut T {
    let idx = expr.index();
    if idx >= slots.len() {
        slots.resize_with(idx + 1, empty);
    }
    &mut slots[idx]
}

/// The occupied slots of an `ExprId`-indexed `Vec`, kept sorted: relay
/// walks visit live expressions in `ExprId` order without sorting, and a
/// monitor with many registered expressions but few live tags walks only
/// the few. Insert and remove are idempotent.
#[derive(Debug, Default)]
pub(crate) struct LiveExprs(Vec<ExprId>);

impl LiveExprs {
    pub(crate) fn insert(&mut self, expr: ExprId) {
        if let Err(pos) = self.0.binary_search(&expr) {
            self.0.insert(pos, expr);
        }
    }

    pub(crate) fn remove(&mut self, expr: ExprId) {
        if let Ok(pos) = self.0.binary_search(&expr) {
            self.0.remove(pos);
        }
    }

    pub(crate) fn as_slice(&self) -> &[ExprId] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(key: i64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn strided_keys_spread_over_bucket_and_control_bits() {
        // 256 keys a stride of 4096 apart: a multiply-only hash puts
        // them all in one bucket of a 256-bucket table (equal low bits),
        // an identity hash gives them one control byte (equal top bits).
        // With full avalanche both spread like random draws (the fullest
        // bucket holds 5, the commonest control byte 6).
        let hashes: Vec<u64> = (0..256).map(|i| hash_of(i * 4096)).collect();
        let mut buckets = [0u32; 256];
        let mut controls = [0u32; 128];
        for h in &hashes {
            buckets[(h & 0xff) as usize] += 1;
            controls[(h >> 57) as usize] += 1;
        }
        assert!(*buckets.iter().max().unwrap() <= 6, "low bits clump");
        assert!(*controls.iter().max().unwrap() <= 9, "top bits clump");
    }

    #[test]
    fn wide_keys_hash_both_halves() {
        let build = BuildHasherDefault::<IntHasher>::default();
        let low = build.hash_one(1i128);
        let high = build.hash_one(1i128 << 64);
        assert_ne!(low, high);
        assert_ne!(build.hash_one(-1i128), build.hash_one(i128::from(u64::MAX)));
    }

    #[test]
    fn generic_writes_fold_every_byte() {
        let mut a = IntHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IntHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn live_exprs_stay_sorted_and_idempotent() {
        let e = ExprId::from_raw;
        let mut live = LiveExprs::default();
        for raw in [5, 1, 3, 1, 5] {
            live.insert(e(raw));
        }
        assert_eq!(live.as_slice(), &[e(1), e(3), e(5)]);
        live.remove(e(3));
        live.remove(e(3));
        live.remove(e(9));
        assert_eq!(live.as_slice(), &[e(1), e(5)]);
    }
}
