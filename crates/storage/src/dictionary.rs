//! Dictionary encoding for string columns.
//!
//! Categorical dimensions (`state`, `city`, ...) have low cardinality by the
//! paper's design, so string columns store a `u32` code per row plus one
//! shared dictionary. Group-by and joins compare codes, never bytes.

use crate::hash::FxHashMap;
use std::sync::Arc;

/// Interns strings to dense `u32` codes.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    lookup: FxHashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Intern `s`, returning its code (existing or freshly assigned).
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct strings — the column format stores
    /// codes in 4 bytes, so a larger dictionary cannot be represented.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.lookup.get(s) {
            return code;
        }
        let arc: Arc<str> = Arc::from(s);
        let code = u32::try_from(self.values.len()).expect("dictionary exceeds u32 codes");
        self.values.push(Arc::clone(&arc));
        self.lookup.insert(arc, code);
        code
    }

    /// Intern an already-shared string without copying its bytes.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct strings, like [`Self::intern`].
    pub fn intern_arc(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&code) = self.lookup.get(s.as_ref()) {
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("dictionary exceeds u32 codes");
        self.values.push(Arc::clone(s));
        self.lookup.insert(Arc::clone(s), code);
        code
    }

    /// Look up a code without interning.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Resolve a code back to its string. Panics on an unknown code —
    /// codes only come from this dictionary.
    #[inline]
    pub fn resolve(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// All interned strings, in code order.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("CA");
        let b = d.intern("TX");
        let a2 = d.intern("CA");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn resolve_round_trip() {
        let mut d = Dictionary::new();
        let code = d.intern("Houston");
        assert_eq!(d.resolve(code).as_ref(), "Houston");
        assert_eq!(d.code_of("Houston"), Some(code));
        assert_eq!(d.code_of("Dallas"), None);
    }

    #[test]
    fn intern_arc_shares_allocation() {
        let mut d = Dictionary::new();
        let s: Arc<str> = Arc::from("Dallas");
        let code = d.intern_arc(&s);
        assert!(Arc::ptr_eq(d.resolve(code), &s));
        // Re-interning by &str finds the same code.
        assert_eq!(d.intern("Dallas"), code);
    }

    #[test]
    fn codes_are_dense() {
        let mut d = Dictionary::new();
        for (i, s) in ["a", "b", "c", "d"].iter().enumerate() {
            assert_eq!(d.intern(s), i as u32);
        }
        assert_eq!(d.values().len(), 4);
    }
}
