//! Global FNV-interned identifier symbols.
//!
//! Every identifier in a MiniF program — variable, array, loop counter —
//! is interned once into a process-wide [`SymbolTable`] and carried as a
//! [`Symbol`]: a `u32` index whose equality and hashing are single
//! integer operations. The backing strings are leaked (`&'static str`),
//! so [`Symbol::as_str`] hands out a `'static` reference (it takes the
//! table's read lock to find it) and the pretty printers stay
//! byte-identical to the old `String`-carrying AST.
//!
//! The table is append-only behind an `RwLock`: interning an
//! already-known name takes the read lock only, so parallel lint workers
//! contend only on genuinely new identifiers. Lookup uses FNV-1a over
//! the raw bytes into an open-addressing slot array, cheap on the short
//! names MiniF programs contain.
//!
//! Ordering: [`Symbol`] compares by *string contents*, not by table
//! index, so `BTreeMap<Symbol, _>` and `sort()` iterate in exactly the
//! order the pre-interning code saw — diagnostics and pretty-printed
//! output do not depend on interning history.

use std::fmt;
use std::sync::RwLock;

/// An interned identifier: a `u32` handle into the global
/// [`SymbolTable`].
///
/// # Examples
///
/// ```
/// use gnt_ir::Symbol;
///
/// let a = Symbol::from("x");
/// let b = Symbol::from("x");
/// assert_eq!(a, b);           // one integer compare
/// assert_eq!(a.as_str(), "x");
/// assert_eq!(a, "x");         // compares against plain strings too
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The global interning table. All access goes through [`Symbol`] and
/// [`SymbolTable::intern`]; the table itself is a process-wide
/// singleton.
pub struct SymbolTable {
    inner: RwLock<Inner>,
}

struct Inner {
    /// Open-addressing table of `index + 1` into `strings` (0 = empty).
    /// Length is always a power of two.
    slots: Vec<u32>,
    strings: Vec<&'static str>,
}

impl Inner {
    fn lookup(&self, hash: u64, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                v => {
                    if self.strings[(v - 1) as usize] == s {
                        return Some(v - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn place(slots: &mut [u32], strings: &[&'static str], idx: u32) {
        let mask = slots.len() - 1;
        let mut i = (fnv1a(strings[idx as usize].as_bytes()) as usize) & mask;
        while slots[i] != 0 {
            i = (i + 1) & mask;
        }
        slots[i] = idx + 1;
    }

    fn insert(&mut self, s: &str) -> u32 {
        // Keep the load factor under 1/2.
        if (self.strings.len() + 1) * 2 > self.slots.len() {
            let cap = (self.slots.len() * 2).max(64);
            let mut slots = vec![0u32; cap];
            for idx in 0..self.strings.len() as u32 {
                Self::place(&mut slots, &self.strings, idx);
            }
            self.slots = slots;
        }
        let idx = u32::try_from(self.strings.len()).expect("symbol table overflow");
        self.strings.push(Box::leak(s.to_owned().into_boxed_str()));
        Self::place(&mut self.slots, &self.strings, idx);
        idx
    }
}

static TABLE: SymbolTable = SymbolTable {
    inner: RwLock::new(Inner {
        slots: Vec::new(),
        strings: Vec::new(),
    }),
};

impl SymbolTable {
    /// The process-wide table.
    pub fn global() -> &'static SymbolTable {
        &TABLE
    }

    /// Interns `s`, returning its stable handle. Read-lock only when the
    /// name is already known.
    pub fn intern(&self, s: &str) -> Symbol {
        let hash = fnv1a(s.as_bytes());
        if let Some(i) = self
            .inner
            .read()
            .expect("symbol table poisoned")
            .lookup(hash, s)
        {
            return Symbol(i);
        }
        let mut w = self.inner.write().expect("symbol table poisoned");
        if let Some(i) = w.lookup(hash, s) {
            return Symbol(i);
        }
        Symbol(w.insert(s))
    }

    /// The symbol of `s` if it was interned, without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .lookup(fnv1a(s.as_bytes()), s)
            .map(Symbol)
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .strings
            .len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Interns `s` in the global table. Shorthand for
/// [`SymbolTable::global`]`.intern(s)`.
pub fn intern(s: &str) -> Symbol {
    SymbolTable::global().intern(s)
}

impl Symbol {
    /// The interned text, read under the table's read lock. The backing
    /// storage is leaked, so the reference is `'static`.
    pub fn as_str(self) -> &'static str {
        TABLE.inner.read().expect("symbol table poisoned").strings[self.0 as usize]
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        intern(&s)
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.as_str().to_owned()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

// Symbols order by contents so sorted collections keyed by `Symbol`
// iterate exactly as their `String`-keyed predecessors did.
impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        // Both names under one read guard.
        let inner = TABLE.inner.read().expect("symbol table poisoned");
        let strings = &inner.strings;
        strings[self.0 as usize].cmp(strings[other.0 as usize])
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("alpha_test_sym");
        let b = intern("alpha_test_sym");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "alpha_test_sym");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        assert_ne!(intern("one_sym"), intern("other_sym"));
    }

    #[test]
    fn ordering_matches_string_ordering() {
        // Intern deliberately out of lexicographic order.
        let z = intern("zz_order_sym");
        let a = intern("aa_order_sym");
        let m = intern("mm_order_sym");
        let mut v = vec![z, a, m];
        v.sort();
        assert_eq!(v, vec![a, m, z]);
    }

    #[test]
    fn compares_against_plain_strings() {
        let s = intern("plain_cmp_sym");
        assert_eq!(s, "plain_cmp_sym");
        assert_eq!("plain_cmp_sym", s);
        assert_ne!(s, "other");
        assert_eq!(s, String::from("plain_cmp_sym"));
    }

    #[test]
    fn survives_table_growth() {
        let early = intern("growth_probe_sym");
        let names: Vec<String> = (0..500).map(|i| format!("growth_filler_{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| intern(n)).collect();
        assert_eq!(early, intern("growth_probe_sym"));
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(*s, intern(n));
            assert_eq!(s.as_str(), n.as_str());
        }
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        // Eight threads race to intern an overlapping window of names;
        // every thread must see the same handle for the same name.
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200u64)
                        .map(|i| {
                            let name = format!("conc_sym_{}", (i + t) % 100);
                            (name.clone(), intern(&name))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (name, sym) in h.join().unwrap() {
                assert_eq!(sym.as_str(), name);
                assert_eq!(sym, intern(&name));
            }
        }
    }
}
