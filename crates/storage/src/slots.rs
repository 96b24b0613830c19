//! The point-access half of a stripe's key index: an open-addressing hash
//! table of interleaved `(key, value)` slots.
//!
//! Linear probing from a multiplicative hash, so a lookup is one dependent
//! miss into the slot array (neighbouring probes share its cache line);
//! removal shifts the following run back instead of leaving tombstones, so
//! probe lengths depend on what is stored, not on what once was. Capacity is
//! zero or a power of two and doubles at 7/8 full: an empty table owns no
//! memory. Keys are primary keys handed out by this program, not outside
//! input, so a fixed hash is enough.
//!
//! Which bits decide a slot matters: every key of one table already agrees
//! on the hash range `shard_for` gave its shard, and every key of one stripe
//! on the bits of `key * φ` that `stripe_of` took. The home slot comes from
//! the top bits of a product with a different odd constant, which neither
//! consumed.

use crate::tuple::Key;

/// Slots allocated by the first insert.
const MIN_CAPACITY: usize = 4;

/// See the module doc. `V` is a `Box` in the table (a slot is 16 bytes).
pub(crate) struct SlotTable<V> {
    /// Empty, or a power of two long with at least one `None`.
    slots: Vec<Option<(Key, V)>>,
    len: usize,
}

impl<V> Default for SlotTable<V> {
    fn default() -> Self {
        SlotTable {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> SlotTable<V> {
    /// Where `key`'s probe sequence starts in a table of `capacity` slots
    /// (a power of two, at least [`MIN_CAPACITY`]).
    fn home(key: Key, capacity: usize) -> usize {
        let hash = key.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        (hash >> (u64::BITS - capacity.trailing_zeros())) as usize
    }

    /// The slot holding `key`, or the empty slot its probe sequence ends at.
    /// Must not be called on a table without slots.
    fn probe(&self, key: Key) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = Self::home(key, self.slots.len());
        while self.slots[at].as_ref().is_some_and(|(k, _)| *k != key) {
            at = (at + 1) & mask;
        }
        at
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.probe(key)].as_ref().map(|(_, v)| v)
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        if self.slots.is_empty() {
            return None;
        }
        let at = self.probe(key);
        self.slots[at].as_mut().map(|(_, v)| v)
    }

    /// Stores `value` under `key`, returning what it replaced.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        if let Some(slot) = self.get_mut(key) {
            return Some(std::mem::replace(slot, value));
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let at = self.probe(key);
        self.slots[at] = Some((key, value));
        self.len += 1;
        None
    }

    /// Doubles the slot array and re-seats every entry.
    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(MIN_CAPACITY);
        let mut grown = Vec::new();
        grown.resize_with(capacity, || None);
        for (key, value) in std::mem::replace(&mut self.slots, grown)
            .into_iter()
            .flatten()
        {
            let at = self.probe(key);
            self.slots[at] = Some((key, value));
        }
    }

    /// Removes `key`, closing the gap: every entry of the run after it moves
    /// back unless that would put it before its home slot.
    pub fn remove(&mut self, key: Key) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut hole = self.probe(key);
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        let mut at = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[at] {
            let from_home = at.wrapping_sub(Self::home(*k, self.slots.len())) & mask;
            if from_home >= (at.wrapping_sub(hole) & mask) {
                self.slots.swap(hole, at);
                hole = at;
            }
            at = (at + 1) & mask;
        }
        Some(value)
    }

    /// Every entry, in slot order (no key order).
    pub fn iter(&self) -> impl Iterator<Item = (Key, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (*k, v))
    }

    /// The longest probe sequence a lookup of a stored key walks (1 = every
    /// key sits in its home slot; 0 = empty).
    pub fn max_probe(&self) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        let probes = self.slots.iter().enumerate().filter_map(|(at, slot)| {
            let (key, _) = slot.as_ref()?;
            Some((at.wrapping_sub(Self::home(*key, self.slots.len())) & mask) + 1)
        });
        probes.max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn an_empty_table_owns_no_memory_and_answers_none() {
        let mut t = SlotTable::<u64>::default();
        assert_eq!(t.slots.capacity(), 0);
        assert_eq!((t.get(7), t.len(), t.max_probe()), (None, 0, 0));
        assert_eq!(t.remove(7), None);
        t.insert(7, 70);
        assert_eq!(t.slots.len(), MIN_CAPACITY);
    }

    #[test]
    fn a_slot_of_boxes_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<(Key, Box<[u64; 8]>)>>(), 16);
    }

    /// Checks `t` against `model` key by key, plus the load-factor bound.
    fn assert_matches(t: &SlotTable<u64>, model: &BTreeMap<Key, u64>, absent: &[Key]) {
        assert_eq!(t.len(), model.len());
        assert!(t.len() * 8 <= t.slots.len() * 7, "load factor above 7/8");
        for (k, v) in model {
            assert_eq!(t.get(*k), Some(v), "key {k}");
        }
        for k in absent {
            assert_eq!(t.get(*k), None, "removed key {k}");
        }
        let mut seen: Vec<(Key, u64)> = t.iter().map(|(k, v)| (k, *v)).collect();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(model.iter().map(|(k, v)| (*k, *v))));
    }

    #[test]
    fn insert_remove_reinsert_and_growth_match_a_map() {
        let (mut t, mut model) = (SlotTable::default(), BTreeMap::new());
        // A deterministic mix: ascending runs, strided keys, wide keys.
        let keys: Vec<Key> = (0..600u64)
            .map(|i| match i % 3 {
                0 => i,
                1 => i * 4096,
                _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
            .collect();
        let mut removed = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.insert(k, i as u64), model.insert(k, i as u64));
            if i % 4 == 3 {
                // Remove an older key: the run behind it has to close up.
                let victim = keys[i / 2];
                assert_eq!(t.remove(victim), model.remove(&victim));
                removed.push(victim);
                removed.retain(|r| !model.contains_key(r));
            }
            if i % 16 == 0 {
                assert_matches(&t, &model, &removed);
            }
        }
        assert_matches(&t, &model, &removed);
        // Re-insert what was removed, then replace a value in place.
        for (i, k) in removed.clone().into_iter().enumerate() {
            assert_eq!(t.insert(k, i as u64), model.insert(k, i as u64));
        }
        assert_eq!(t.insert(keys[0], 99), model.insert(keys[0], 99));
        assert_matches(&t, &model, &[]);
        // Drain to empty: every removal leaves the rest reachable.
        for k in model.keys().copied().collect::<Vec<_>>() {
            assert_eq!(t.remove(k), model.remove(&k));
            if model.len() % 50 == 0 {
                assert_matches(&t, &model, &[k]);
            }
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn removal_across_the_wrap_keeps_the_run_reachable() {
        // Keys whose home is the last slot of an 8-slot table: the run
        // wraps to slot 0, and removing its head must pull the rest back.
        let mut t = SlotTable::default();
        let last: Vec<Key> = (0..100_000u64)
            .filter(|k| SlotTable::<u64>::home(*k, 8) == 7)
            .take(3)
            .collect();
        for &k in &last {
            t.insert(k, k);
        }
        t.insert(u64::MAX - 1, 0); // a fifth key so capacity becomes 8
        t.insert(u64::MAX - 2, 0);
        assert_eq!(t.slots.len(), 8);
        assert_eq!(t.remove(last[0]), Some(last[0]));
        assert_eq!(t.get(last[1]), Some(&last[1]));
        assert_eq!(t.get(last[2]), Some(&last[2]));
        assert_eq!(t.get(last[0]), None);
    }
}
