//! NULL-folded slot vectors for key dimensions.
//!
//! The vectorized kernel layer (DESIGN.md §12) reads a key dimension through
//! one byte-aligned vector of *slots* instead of its unpacked source — the
//! `Vec<u32>` code array and validity bitmap of a dictionary column, the
//! `Vec<i64>` values and validity bitmap of a narrow integer one. Each row
//! stores the NULL-folded slot — `code + 1` (strings) or `value - min + 1`
//! (integers) for valid rows, `0` for NULL rows — in the smallest of
//! `u8`/`u16`/`u32` that holds the slot domain. Folding the validity bitmap
//! into the slot at build time means the scan kernels read exactly one
//! stream per dimension, and the slot is precisely the digit a
//! [`DenseKeySpace`] composite code needs (NULL slot 0, value slots 1..), so
//! a block of slots feeds the mixed-radix group-code computation with no
//! further translation.
//!
//! [`PackedCodes::width`] is still the *logical* width — the bits the slot
//! domain needs ([`width_for`]) — but storage rounds it up to a whole lane,
//! so [`PackedCodes::unpack_into`] is a widening copy the compiler
//! vectorizes: 0.18 ns per slot against 1.8 for the shift-and-mask over a
//! two-word `u128` window the exact-width layout needed, for at most one
//! byte per row more.
//!
//! [`DenseKeySpace`]: https://en.wikipedia.org/wiki/Mixed_radix

use crate::bitmap::Bitmap;

/// Widest supported pack width. Slots are produced into `u32` buffers, so a
/// dictionary whose NULL-folded domain needs more than 32 bits (> `u32::MAX`
/// distinct values) is not packable and scans fall back to the scalar path.
pub const MAX_PACK_WIDTH: u32 = 32;

/// Bits needed to store every slot in `0..=max_slot` (at least 1).
#[inline]
pub fn width_for(max_slot: u64) -> u32 {
    (u64::BITS - max_slot.leading_zeros()).max(1)
}

/// Integer columns get a slot vector only when their NULL-folded domain
/// fits this many bits: 2 bytes a row is worth keeping beside 8, and the
/// presence table that counts distinct values in the same pass stays small.
pub const MAX_INT_PACK_WIDTH: u32 = 16;

/// Bits the NULL-folded slots of an integer column spanning `min..=max`
/// need; `None` past [`MAX_INT_PACK_WIDTH`] (or when `max - min` overflows).
pub(crate) fn int_width(min: i64, max: i64) -> Option<u32> {
    let max_slot = u64::try_from(max.checked_sub(min)?).ok()?.checked_add(1)?;
    Some(width_for(max_slot)).filter(|&width| width <= MAX_INT_PACK_WIDTH)
}

/// The storage lane: the smallest unsigned integer holding `width` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lanes {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Lanes {
    /// `len` slots, `slot(row)` each, in the lane `width` bits need. Panics
    /// if any slot needs more than `width` bits (a caller bug — the widths
    /// come from [`width_for`] over the same domain).
    fn build(width: u32, len: usize, mut slot: impl FnMut(usize) -> u32) -> Lanes {
        let mask = u32::MAX >> (32 - width);
        // Out-of-range bits accumulate branch-free; one check after the loop.
        let mut over = 0u32;
        let mut checked = |row| {
            let s = slot(row);
            over |= s & !mask;
            s
        };
        let lanes = match Lanes::bytes_for(width) {
            1 => Lanes::U8((0..len).map(|row| checked(row) as u8).collect()),
            2 => Lanes::U16((0..len).map(|row| checked(row) as u16).collect()),
            _ => Lanes::U32((0..len).map(checked).collect()),
        };
        assert!(over == 0, "a slot exceeds pack width {width}");
        lanes
    }

    /// Bytes a slot of `width` bits is stored in: the smallest lane.
    fn bytes_for(width: u32) -> usize {
        match width {
            0..=8 => 1,
            9..=16 => 2,
            _ => 4,
        }
    }

    /// Bytes a slot of this lane takes.
    fn bytes_per_slot(&self) -> usize {
        match self {
            Lanes::U8(_) => 1,
            Lanes::U16(_) => 2,
            Lanes::U32(_) => 4,
        }
    }
}

/// Validity bit of row `i` as a 0/1 multiplier: the branchless NULL fold.
#[inline]
fn valid(vwords: &[u64], i: usize) -> u32 {
    (vwords[i >> 6] >> (i & 63)) as u32 & 1
}

#[inline]
fn zip<S: Copy + Into<u32>, T>(src: &[S], out: &mut [T], f: impl Fn(u32, &mut T)) {
    for (o, &s) in out.iter_mut().zip(src) {
        f(s.into(), o);
    }
}

/// A vector of NULL-folded `u32` slots in byte-aligned lanes.
///
/// Built once per column version and shared (via `Arc`) across every query
/// that scans that version; see [`crate::Column::packed_slots`] (strings)
/// and [`crate::ColumnStats::slots`] (narrow integers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCodes {
    lanes: Lanes,
    width: u32,
}

impl PackedCodes {
    /// Pack `slots` at a logical `width` bits each. Panics if `width` is
    /// outside `1..=32` or any slot needs more than `width` bits (caller
    /// bugs — the widths come from [`width_for`] over the same domain).
    pub fn pack(slots: &[u32], width: u32) -> PackedCodes {
        assert!(
            (1..=MAX_PACK_WIDTH).contains(&width),
            "pack width {width} outside 1..=32"
        );
        PackedCodes {
            lanes: Lanes::build(width, slots.len(), |row| slots[row]),
            width,
        }
    }

    /// Pack a dictionary-code column into NULL-folded slots: `code + 1` per
    /// valid row, `0` per NULL row. `dict_len` fixes the slot domain (and
    /// therefore the width) independently of which codes happen to appear.
    /// Returns `None` when the domain does not fit [`MAX_PACK_WIDTH`] bits.
    pub fn from_codes(codes: &[u32], validity: &Bitmap, dict_len: usize) -> Option<PackedCodes> {
        // Max slot is dict_len (code dict_len-1 folds to dict_len).
        let max_slot = u64::try_from(dict_len).ok()?;
        let width = width_for(max_slot);
        if width > MAX_PACK_WIDTH {
            return None;
        }
        debug_assert_eq!(codes.len(), validity.len());
        let vwords = validity.words();
        let lanes = Lanes::build(width, codes.len(), |i| {
            // The multiply by validity zeroes NULL rows, so their
            // placeholder codes never reach the vector (wrapping add keeps
            // even a hostile placeholder from overflowing).
            codes[i].wrapping_add(1) * valid(vwords, i)
        });
        Some(PackedCodes { lanes, width })
    }

    /// Pack an integer column whose non-NULL values all lie in `min..=max`
    /// into NULL-folded slots: `value - min + 1` per valid row, `0` per
    /// NULL row. Also returns the presence table filled in the same pass —
    /// bit `s` set when some row holds slot `s`, over `0..=max - min + 1` —
    /// which counts the distinct values exactly and keeps counting them as
    /// rows are appended. `None` when the domain does not fit
    /// [`MAX_INT_PACK_WIDTH`] bits (or `max - min` overflows).
    pub fn from_ints(
        data: &[i64],
        validity: &Bitmap,
        min: i64,
        max: i64,
    ) -> Option<(PackedCodes, Bitmap)> {
        let width = int_width(min, max)?;
        debug_assert_eq!(data.len(), validity.len());
        let vwords = validity.words();
        let mut present = vec![false; (max - min) as usize + 2];
        let lanes = Lanes::build(width, data.len(), |i| {
            // Wrapping math masked by validity: a NULL placeholder may sit
            // arbitrarily far from `min`, the multiply discards whatever it
            // wraps to. A valid value outside `min..=max` is a caller bug
            // and panics on the presence index.
            let slot = (data[i].wrapping_sub(min) as u32).wrapping_add(1) * valid(vwords, i);
            present[slot as usize] = true;
            slot
        });
        Some((PackedCodes { lanes, width }, present.into_iter().collect()))
    }

    /// Whether a vector over a slot domain of `width` bits is stored in the
    /// lane this one uses, i.e. whether a fresh pack at `width` would have
    /// this layout.
    pub(crate) fn holds(&self, width: u32) -> bool {
        self.lanes.bytes_per_slot() == Lanes::bytes_for(width)
    }

    /// Append `slots`, the domain now needing `width` bits: what an append
    /// to the column does to a vector already built, instead of a repack.
    /// Panics unless [`Self::holds`]`(width)` and every slot fits `width`
    /// bits (caller bugs, as for [`Self::pack`]).
    pub(crate) fn extend(&mut self, width: u32, slots: impl Iterator<Item = u32>) {
        assert!(self.holds(width), "pack width {width} needs another lane");
        let mask = u32::MAX >> (32 - width);
        let mut over = 0u32;
        let checked = slots.inspect(|s| over |= s & !mask);
        match &mut self.lanes {
            Lanes::U8(v) => v.extend(checked.map(|s| s as u8)),
            Lanes::U16(v) => v.extend(checked.map(|s| s as u16)),
            Lanes::U32(v) => v.extend(checked),
        }
        assert!(over == 0, "a slot exceeds pack width {width}");
        self.width = width;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.lanes {
            Lanes::U8(v) => v.len(),
            Lanes::U16(v) => v.len(),
            Lanes::U32(v) => v.len(),
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical pack width in bits: what the slot domain needs, not the
    /// width of the lane it is stored in.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The slot at row `i`. Panics when out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match &self.lanes {
            Lanes::U8(v) => v[i].into(),
            Lanes::U16(v) => v[i].into(),
            Lanes::U32(v) => v[i],
        }
    }

    /// Unpack rows `start..start + out.len()` into `out`: one widening
    /// copy. Panics when the range exceeds the vector.
    #[inline]
    pub fn unpack_into(&self, start: usize, out: &mut [u32]) {
        self.zip_into(start, out, |slot, o| *o = slot);
    }

    /// The block kernel: `f(slot, &mut out[k])` for the slot of each row
    /// `start + k` — how a coder combines a dimension into its code block
    /// without a scratch copy of the slots. The lane is matched once, so
    /// each arm is a tight loop over a typed slice that the compiler
    /// vectorizes. Panics when the range exceeds the vector.
    #[inline]
    pub fn zip_into<T>(&self, start: usize, out: &mut [T], f: impl Fn(u32, &mut T)) {
        let rows = start..start + out.len();
        match &self.lanes {
            Lanes::U8(v) => zip(&v[rows], out, f),
            Lanes::U16(v) => zip(&v[rows], out, f),
            Lanes::U32(v) => zip(&v[rows], out, f),
        }
    }

    /// Approximate heap bytes held (intermediate-table sizing).
    pub fn heap_bytes(&self) -> usize {
        self.len() * self.lanes.bytes_per_slot()
    }
}

/// Lazily built, version-scoped cache slot for a column's [`PackedCodes`].
///
/// Lives inside [`crate::Column::Str`]. The first scan that wants the packed
/// vector builds it ([`PackedCell::get_or_build`], thread-safe via
/// `OnceLock`); later scans — and clones of the column, e.g. CoW snapshot
/// views — share the same `Arc`. An append (`push`/`extend_from`) carries a
/// built vector forward over the appended rows ([`PackedCell::extend`]), an
/// overwrite (`set`) resets the cell, so a packed vector always describes
/// exactly the column version it belongs to. `None` is cached too: a
/// dictionary past the 32-bit slot domain stays on the scalar path without
/// re-probing.
#[derive(Debug, Clone, Default)]
pub struct PackedCell(std::sync::OnceLock<Option<std::sync::Arc<PackedCodes>>>);

impl PackedCell {
    /// Fresh, unbuilt cell.
    pub fn new() -> PackedCell {
        PackedCell::default()
    }

    /// The packed vector for (`codes`, `validity`, `dict_len`), building and
    /// caching it on first use. `None` when the domain is unpackable.
    pub fn get_or_build(
        &self,
        codes: &[u32],
        validity: &Bitmap,
        dict_len: usize,
    ) -> Option<&std::sync::Arc<PackedCodes>> {
        self.0
            .get_or_init(|| {
                PackedCodes::from_codes(codes, validity, dict_len).map(std::sync::Arc::new)
            })
            .as_ref()
    }

    /// Heap bytes of the vector, 0 while none is built (table sizing must
    /// not force the build).
    pub fn heap_bytes(&self) -> usize {
        match self.0.get() {
            Some(Some(packed)) => packed.heap_bytes(),
            _ => 0,
        }
    }

    /// Drop any cached vector (the column version changed).
    pub fn invalidate(&mut self) {
        self.0.take();
    }

    /// Carry a built vector over the rows `from..` just appended to
    /// (`codes`, `validity`), whose dictionary now has `dict_len` entries:
    /// their slots are pushed onto it when the grown domain keeps the lane
    /// it is stored in, and the cell is reset — the next reader repacks —
    /// when it does not. The vector is copied first if a clone of the cell
    /// (a pinned snapshot) still shares it. An unbuilt cell stays unbuilt.
    pub(crate) fn extend(
        &mut self,
        codes: &[u32],
        validity: &Bitmap,
        from: usize,
        dict_len: usize,
    ) {
        // `Some(None)`: unpackable, and a dictionary only grows.
        let Some(Some(packed)) = self.0.get_mut() else {
            return;
        };
        let width = width_for(dict_len as u64);
        if !packed.holds(width) {
            self.0.take();
            return;
        }
        let vwords = validity.words();
        let slots = (from..codes.len()).map(|i| codes[i].wrapping_add(1) * valid(vwords, i));
        std::sync::Arc::make_mut(packed).extend(width, slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_covers_the_domain() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(4), 3);
        assert_eq!(width_for(u32::MAX as u64), 32);
        assert_eq!(
            width_for(u32::MAX as u64 + 1),
            33,
            "past the packable domain"
        );
    }

    #[test]
    fn pack_get_round_trip_every_width() {
        for width in 1..=MAX_PACK_WIDTH {
            let max = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            // Values spanning the width's domain, lengths that straddle word
            // boundaries.
            let slots: Vec<u32> = (0..131u64)
                .map(|i| ((i * 2654435761) % (max as u64 + 1)) as u32)
                .collect();
            let packed = PackedCodes::pack(&slots, width);
            assert_eq!(packed.len(), slots.len());
            assert_eq!(packed.width(), width);
            for (i, &s) in slots.iter().enumerate() {
                assert_eq!(packed.get(i), s, "width {width} row {i}");
            }
            let mut out = vec![0u32; slots.len()];
            packed.unpack_into(0, &mut out);
            assert_eq!(out, slots, "width {width}");
        }
    }

    #[test]
    fn unpack_into_partial_blocks() {
        let slots: Vec<u32> = (0..300).map(|i| i % 7).collect();
        let packed = PackedCodes::pack(&slots, 3);
        let mut out = [0u32; 64];
        packed.unpack_into(100, &mut out);
        assert_eq!(&out[..], &slots[100..164]);
        let mut tail = vec![0u32; 5];
        packed.unpack_into(295, &mut tail);
        assert_eq!(&tail[..], &slots[295..300]);
    }

    #[test]
    fn from_codes_folds_nulls_into_slot_zero() {
        let codes = vec![0, 1, 0, 2, 1];
        let validity: Bitmap = [true, true, false, true, true].into_iter().collect();
        let packed = PackedCodes::from_codes(&codes, &validity, 3).unwrap();
        assert_eq!(packed.width(), 2, "slots 0..=3 fit 2 bits");
        let mut out = vec![0u32; 5];
        packed.unpack_into(0, &mut out);
        assert_eq!(out, vec![1, 2, 0, 3, 2]);
    }

    #[test]
    fn empty_and_all_null_columns_pack() {
        let empty = PackedCodes::from_codes(&[], &Bitmap::new(), 0).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.width(), 1);

        let codes = vec![0u32; 70];
        let validity = Bitmap::filled(70, false);
        let packed = PackedCodes::from_codes(&codes, &validity, 0).unwrap();
        let mut out = vec![9u32; 70];
        packed.unpack_into(0, &mut out);
        assert!(out.iter().all(|&s| s == 0), "all rows are the NULL slot");
    }

    #[test]
    fn storage_is_the_smallest_lane_that_holds_the_width() {
        let slots = vec![1u32; 10];
        for (width, bytes_per_row) in [(1, 1), (8, 1), (9, 2), (16, 2), (17, 4), (32, 4)] {
            let packed = PackedCodes::pack(&slots, width);
            assert_eq!(packed.heap_bytes(), 10 * bytes_per_row, "width {width}");
            assert_eq!(packed.width(), width, "the logical width is kept");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds pack width 3")]
    fn pack_rejects_a_slot_past_its_width() {
        PackedCodes::pack(&[7, 8], 3);
    }

    #[test]
    fn from_ints_folds_nulls_and_counts_distinct_values() {
        // Negative minimum, a NULL whose placeholder (0) lies outside the
        // value range, duplicates.
        let data = vec![-5, 0, -3, -5, -3, 0];
        let validity: Bitmap = [true, false, true, true, true, false].into_iter().collect();
        let (packed, present) = PackedCodes::from_ints(&data, &validity, -5, -3).unwrap();
        let present: Vec<bool> = present.iter().collect();
        assert_eq!(present, [true, true, false, true], "NULL, -5, no -4, -3");
        assert_eq!(packed.width(), 2, "slots 0..=3");
        let mut out = vec![9u32; 6];
        packed.unpack_into(0, &mut out);
        assert_eq!(out, vec![1, 0, 3, 1, 3, 0]);
    }

    #[test]
    fn from_ints_lane_boundaries() {
        let validity = Bitmap::filled(2, true);
        // span 254 → max slot 255 → u8; 255 → u16; 65 534 → still u16;
        // 65 535 → max slot 65 536 needs 17 bits: no vector.
        for (span, bytes) in [
            (254i64, Some(2)),
            (255, Some(4)),
            (65_534, Some(4)),
            (65_535, None),
        ] {
            let data = vec![10, 10 + span];
            let packed = PackedCodes::from_ints(&data, &validity, 10, 10 + span);
            assert_eq!(
                packed.as_ref().map(|p| p.0.heap_bytes()),
                bytes,
                "span {span}"
            );
            if let Some((p, present)) = packed {
                assert_eq!((p.get(0), p.get(1)), (1, span as u32 + 1));
                assert_eq!(
                    (present.len(), present.count_ones()),
                    (span as usize + 2, 2)
                );
            }
        }
        // A span past i64 has no slot domain at all.
        let data = vec![i64::MIN, i64::MAX];
        assert!(PackedCodes::from_ints(&data, &validity, i64::MIN, i64::MAX).is_none());
    }

    #[test]
    fn extend_is_a_fresh_pack_until_the_lane_changes() {
        // 255 slots fill a byte; the 256th needs the next lane.
        let slots: Vec<u32> = (0..300).map(|i| i % 200).collect();
        let mut packed = PackedCodes::pack(&slots[..100], 7);
        assert!(packed.holds(8) && !packed.holds(9));
        packed.extend(8, slots[100..].iter().copied());
        assert_eq!(packed, PackedCodes::pack(&slots, 8));
        let wide = PackedCodes::pack(&slots, 9);
        assert!(wide.holds(16) && !wide.holds(8) && !wide.holds(17));
        assert!(PackedCodes::pack(&slots, 17).holds(32));
    }

    #[test]
    #[should_panic(expected = "exceeds pack width 3")]
    fn extend_rejects_a_slot_past_its_width() {
        PackedCodes::pack(&[7], 3).extend(3, [8].into_iter());
    }

    #[test]
    fn a_cell_extends_what_is_built_and_nothing_else() {
        let validity = |n| Bitmap::filled(n, true);
        let mut codes = vec![0, 1];
        let mut cell = PackedCell::new();
        codes.push(2);
        cell.extend(&codes, &validity(3), 2, 3);
        assert_eq!(cell.heap_bytes(), 0, "an unbuilt cell stays unbuilt");

        let built = cell.get_or_build(&codes, &validity(3), 3).unwrap().clone();
        let pin = cell.clone();
        codes.extend([3, 0]);
        cell.extend(&codes, &validity(5), 3, 4);
        let fresh = PackedCodes::from_codes(&codes, &validity(5), 4).unwrap();
        let extended = cell.get_or_build(&[], &validity(0), 0).unwrap().clone();
        assert_eq!(*extended, fresh, "slots and logical width");
        let pinned = pin.get_or_build(&[], &validity(0), 0).unwrap();
        assert!(std::sync::Arc::ptr_eq(pinned, &built), "the pin's copy");
        assert_eq!(pinned.len(), 3);

        // A dictionary of 255 entries is the last a byte lane holds.
        codes.push(254);
        cell.extend(&codes, &validity(6), 5, 255);
        assert_eq!(cell.heap_bytes(), 6);
        codes.push(255);
        cell.extend(&codes, &validity(7), 6, 256);
        assert_eq!(cell.heap_bytes(), 0, "lane change: reset");
    }

    #[test]
    fn cell_builds_once_and_invalidates() {
        let codes = vec![0, 1];
        let validity = Bitmap::filled(2, true);
        let mut cell = PackedCell::new();
        let a = cell.get_or_build(&codes, &validity, 2).unwrap().clone();
        let b = cell.get_or_build(&codes, &validity, 2).unwrap().clone();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "second call reuses the Arc");
        cell.invalidate();
        let c = cell.get_or_build(&codes, &validity, 2).unwrap().clone();
        assert!(
            !std::sync::Arc::ptr_eq(&a, &c),
            "rebuilt after invalidation"
        );
        assert_eq!(a, c, "same contents");
    }
}
