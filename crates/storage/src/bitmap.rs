//! Packed validity bitmap.
//!
//! One bit per row; `true` means the row's value is present (non-NULL).
//! Backed by `Vec<u64>` words, appended one bit at a time by column builders
//! and queried on the hot path of every scan.

/// Packed bitmap with one bit per row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// Empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Bitmap pre-sized for `capacity` bits.
    pub fn with_capacity(capacity: usize) -> Bitmap {
        Bitmap {
            words: Vec::with_capacity(capacity.div_ceil(64)),
            len: 0,
            ones: 0,
        }
    }

    /// A copy with room for `bits` bits in all.
    pub(crate) fn copy_with_room(&self, bits: usize) -> Bitmap {
        let mut words = Vec::with_capacity(bits.div_ceil(64).max(self.words.len()));
        words.extend_from_slice(&self.words);
        Bitmap { words, ..*self }
    }

    /// Bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Bitmap {
        let word = if value { u64::MAX } else { 0 };
        let mut words = vec![word; len.div_ceil(64)];
        if value {
            if let Some(last) = words.last_mut() {
                let tail = len % 64;
                if tail != 0 {
                    *last = (1u64 << tail) - 1;
                }
            }
        }
        Bitmap {
            words,
            len,
            ones: if value { len } else { 0 },
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (valid rows).
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// True when every bit is set (no NULLs).
    #[inline]
    pub fn all_set(&self) -> bool {
        self.ones == self.len
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if value {
            *self.words.last_mut().expect("word pushed above") |= 1u64 << bit;
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Append `n` unset bits: whole zero words, as the bits past `len` in
    /// the last word already are.
    pub(crate) fn push_unset(&mut self, n: usize) {
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
    }

    /// Get bit `i`. Panics when out of bounds (mirrors slice indexing).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `value` in place (used by UPDATE).
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        let was = *word & mask != 0;
        if value && !was {
            *word |= mask;
            self.ones += 1;
        } else if !value && was {
            *word &= !mask;
            self.ones -= 1;
        }
    }

    /// The backing words to set bits in place: bits past the length must
    /// stay zero, and [`Bitmap::recount`] must run after.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Recount the ones after the words were written in place.
    pub(crate) fn recount(&mut self) {
        self.ones = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Iterate bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Backing words, for columnar serialization (checkpoint images).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a bitmap of `len` bits from raw backing words (checkpoint
    /// decode). Tail bits past `len` in the last word are masked off and
    /// the ones count is recomputed, so any `len.div_ceil(64)`-word vector
    /// round-trips to a structurally valid bitmap.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Option<Bitmap> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Some(Bitmap { words, len, ones })
    }

    /// Append all bits of `other`, a word at a time (bits past either
    /// bitmap's length are zero by construction, so shifted words merge
    /// with a plain OR).
    pub fn extend_from(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                *self.words.last_mut().expect("a partial word exists") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        self.ones += other.ones;
        self.words.truncate(self.len.div_ceil(64));
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_across_word_boundary() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn filled_true_and_false() {
        let t = Bitmap::filled(130, true);
        assert_eq!(t.len(), 130);
        assert!(t.all_set());
        assert_eq!(t.count_ones(), 130);
        assert!(t.get(129));

        let f = Bitmap::filled(130, false);
        assert_eq!(f.count_ones(), 0);
        assert!(!f.get(0));
    }

    #[test]
    fn filled_exact_word_multiple() {
        let t = Bitmap::filled(128, true);
        assert_eq!(t.count_ones(), 128);
        assert!(t.get(127));
    }

    #[test]
    fn set_updates_ones_count() {
        let mut bm = Bitmap::filled(10, false);
        bm.set(3, true);
        bm.set(3, true); // idempotent
        assert_eq!(bm.count_ones(), 1);
        assert!(bm.get(3));
        bm.set(3, false);
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn extend_from_preserves_order() {
        let a: Bitmap = [true, false, true].into_iter().collect();
        let mut b: Bitmap = [false].into_iter().collect();
        b.extend_from(&a);
        let bits: Vec<bool> = b.iter().collect();
        assert_eq!(bits, vec![false, true, false, true]);
    }

    #[test]
    fn extend_from_matches_bit_by_bit_at_every_alignment() {
        let bit = |i: usize| (i * 2654435761) >> 7 & 1 == 1;
        for head in [0usize, 1, 63, 64, 65, 127, 128, 130] {
            for tail in [0usize, 1, 63, 64, 65, 191, 192, 200] {
                let mut got: Bitmap = (0..head).map(bit).collect();
                let other: Bitmap = (head..head + tail).map(bit).collect();
                got.extend_from(&other);
                let want: Bitmap = (0..head + tail).map(bit).collect();
                assert_eq!(got.words(), want.words(), "head={head} tail={tail}");
                assert_eq!(
                    (got.len(), got.count_ones()),
                    (want.len(), want.count_ones())
                );
                // Still appendable: the tail past `len` stayed zero.
                got.push(true);
                assert!(got.get(head + tail));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::filled(3, true).get(3);
    }

    #[test]
    fn empty() {
        let bm = Bitmap::new();
        assert!(bm.is_empty());
        assert!(bm.all_set(), "vacuously true");
    }
}
