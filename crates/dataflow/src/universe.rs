//! The dataflow universe: a bijection between domain items and small ids.
//!
//! GIVE-N-TAKE is parametric in its solution lattice; for the communication
//! problem the items are array sections, for classical PRE they are
//! expressions. [`Universe`] interns arbitrary hashable items and hands out
//! dense [`ItemId`]s usable as [`BitSet`](crate::BitSet) elements.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// A dense identifier for an interned universe item.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl ItemId {
    /// The id as a bitset element index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An interning table mapping items of type `T` to dense [`ItemId`]s.
///
/// Each item is stored once, in id order; the lookup maps an item's hash
/// to the newest id with that hash, and a per-id link chains the older
/// ids that share it. Items are hashed with a fixed [`WordHasher`], so
/// equal items hash alike in every run; ids never depend on the hash,
/// only on the order of first interning.
///
/// # Examples
///
/// ```
/// use gnt_dataflow::Universe;
///
/// let mut u = Universe::new();
/// let a = u.intern("x(1:N)");
/// let b = u.intern("y(2:M)");
/// assert_eq!(a, u.intern("x(1:N)")); // stable ids
/// assert_ne!(a, b);
/// assert_eq!(u.len(), 2);
/// assert_eq!(u.resolve(a), &"x(1:N)");
/// ```
#[derive(Clone, Debug)]
pub struct Universe<T> {
    items: Vec<T>,
    /// Hash → the newest id with that hash, the head of its chain. The
    /// map's [`WordHasher`] hashes the items too.
    head: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    /// Per id, the next older id with the same hash, or `END`.
    next: Vec<u32>,
}

/// The end of a `next` chain.
const END: u32 = u32::MAX;

/// A fixed multiplicative hasher that takes its input one word at a
/// time: each word is xor-ed into the rotated state, which is then
/// multiplied by an odd constant (the FxHash mix). Items of a universe
/// are small derived-`Hash` values (integers, symbols, short vectors),
/// which this hashes in a few multiplies where SipHash runs its rounds.
/// It is not keyed, so it is no defence against crafted collisions; a
/// collision costs a longer chain in [`Universe`], never a wrong id.
#[derive(Clone, Copy, Debug, Default)]
struct WordHasher(u64);

impl WordHasher {
    const MUL: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MUL);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let word = |chunk: &[u8]| chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(word(chunk));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            self.add(word(rest));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

impl<T: Eq + Hash> Universe<T> {
    /// Creates an empty universe.
    pub fn new() -> Self {
        Universe {
            items: Vec::new(),
            head: HashMap::default(),
            next: Vec::new(),
        }
    }

    /// The id of `item` in the chain of ids with hash `hash`, if any.
    fn find(&self, hash: u64, item: &T) -> Option<ItemId> {
        let mut id = self.head.get(&hash).copied().unwrap_or(END);
        while id != END {
            if self.items[id as usize] == *item {
                return Some(ItemId(id));
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Interns `item`, returning its stable id.
    ///
    /// # Panics
    ///
    /// Panics when `item` is new and the universe already holds
    /// `u32::MAX` items, the most a 32-bit [`ItemId`] names beside the
    /// chain end. Items come from a program's references, and every one
    /// is stored, so that universe would need hundreds of GiB first.
    pub fn intern(&mut self, item: T) -> ItemId {
        let hash = self.head.hasher().hash_one(&item);
        if let Some(id) = self.find(hash, &item) {
            return id;
        }
        let id = u32::try_from(self.items.len())
            .ok()
            .filter(|&id| id != END)
            .expect("universe overflow");
        self.items.push(item);
        // The new id heads its hash's chain.
        self.next.push(self.head.insert(hash, id).unwrap_or(END));
        ItemId(id)
    }

    /// Looks up an already-interned item.
    pub fn get(&self, item: &T) -> Option<ItemId> {
        self.find(self.head.hasher().hash_one(item), item)
    }

    /// Returns the item for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this universe.
    pub fn resolve(&self, id: ItemId) -> &T {
        &self.items[id.index()]
    }

    /// The number of interned items (also the required bitset capacity).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over `(id, item)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &T)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, t)| (ItemId(i as u32), t))
    }
}

impl<T: Eq + Hash> Default for Universe<T> {
    fn default() -> Self {
        Universe::new()
    }
}

impl<T: Eq + Hash> FromIterator<T> for Universe<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut u = Universe::new();
        for item in iter {
            u.intern(item);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut u = Universe::new();
        let a = u.intern(42);
        let b = u.intern(42);
        assert_eq!(a, b);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let u: Universe<&str> = ["a", "b", "c"].into_iter().collect();
        let ids: Vec<u32> = u.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn resolve_round_trips() {
        let mut u = Universe::new();
        let id = u.intern("hello".to_string());
        assert_eq!(u.resolve(id), "hello");
        assert_eq!(u.get(&"hello".to_string()), Some(id));
        assert_eq!(u.get(&"world".to_string()), None);
    }

    /// Every item hashes alike, so every lookup walks one chain.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Collide(u32);

    impl Hash for Collide {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            0u8.hash(state);
        }
    }

    #[test]
    fn colliding_items_keep_distinct_dense_ids() {
        let mut u = Universe::new();
        let ids: Vec<ItemId> = (0..50).map(|k| u.intern(Collide(k * 7 % 50))).collect();
        assert_eq!(ids, (0..50).map(ItemId).collect::<Vec<_>>());
        for k in 0..50 {
            let id = u.get(&Collide(k * 7 % 50)).unwrap();
            assert_eq!(id, ids[k as usize]);
            assert_eq!(u.intern(Collide(k * 7 % 50)), id);
            assert_eq!(u.resolve(id), &Collide(k * 7 % 50));
        }
        assert_eq!(u.get(&Collide(50)), None);
        assert_eq!(u.len(), 50);
        let order: Vec<u32> = u.iter().map(|(_, c)| c.0).collect();
        assert_eq!(order, (0..50).map(|k| k * 7 % 50).collect::<Vec<_>>());
    }

    #[test]
    fn word_hasher_is_fixed_and_reads_every_byte() {
        let hash = |s: &str| BuildHasherDefault::<WordHasher>::default().hash_one(s);
        assert_eq!(hash("x(1:N+10)"), hash("x(1:N+10)"));
        // Strings that differ in a full word, or only in the tail after
        // the last full word, hash apart.
        assert_ne!(hash("x(1:N+10)"), hash("y(1:N+10)"));
        assert_ne!(hash("x(1:N+10)"), hash("x(1:N+11)"));
        let mut u = Universe::new();
        let names: Vec<String> = (0..1000).map(|i| format!("x({i}:N+{i})")).collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(u.intern(n.clone()), ItemId(i as u32));
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(u.get(n), Some(ItemId(i as u32)));
        }
    }

    #[test]
    fn default_is_empty() {
        let u: Universe<u8> = Universe::default();
        assert!(u.is_empty());
    }
}
