//! The write journal: what each append and update changed in a table, so a
//! cached level of an older version can be rolled forward instead of
//! recomputed (DESIGN.md "The level cache").
//!
//! *Data Cube*'s other half of the lattice identity: a distributive
//! aggregate of `F ∪ ΔF` is the aggregate of `F` merged with that of `ΔF`.
//! [`crate::Catalog::write`] journals every `Append` (its row range) and
//! every `Update` (the row, the columns and their before-image) under the
//! table version it produced; [`crate::Catalog::changes`] hands a reader the
//! coalesced [`TableDelta`] between two versions. The journal keeps only
//! what a cached level of the table could still be rolled from: it is
//! trimmed to the oldest version a cached entry of the table describes; it
//! drops its oldest changes, and the catalog the cached entries they would
//! roll, while it covers as many rows as the table holds (a roll-forward
//! over it would read as much as a scan) or holds more bytes than the level
//! cache may ([`crate::LATTICE_CACHE_BYTES`]); a create, a drop or
//! [`crate::Catalog::invalidate_combos`] removes it, and the next journaled
//! change starts a new one.

use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Range;

/// One journaled change.
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// Rows appended at the end of the table.
    Append(Range<usize>),
    /// One update statement: the columns it wrote, each row it wrote (in
    /// the order it wrote them) and, `cols.len()` values to a row, what
    /// those cells held before.
    Update {
        cols: Vec<usize>,
        rows: Vec<usize>,
        before: Vec<Value>,
    },
}

impl Entry {
    /// Rows the change touched: what a roll-forward reads for it.
    fn rows(&self) -> usize {
        match self {
            Entry::Append(rows) => rows.len(),
            Entry::Update { rows, .. } => rows.len(),
        }
    }

    /// Heap bytes the entry holds.
    fn bytes(&self) -> usize {
        let Entry::Update { cols, rows, before } = self else {
            return 0;
        };
        let text = |v: &Value| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        };
        let values = before.len() * std::mem::size_of::<Value>();
        (cols.len() + rows.len()) * std::mem::size_of::<usize>()
            + values
            + before.iter().map(text).sum::<usize>()
    }

    /// Each overwritten cell, `(row, column, value before)`.
    fn cells(&self) -> impl Iterator<Item = (usize, usize, &Value)> + '_ {
        let (cols, rows, before) = match self {
            Entry::Update { cols, rows, before } => (&cols[..], &rows[..], &before[..]),
            Entry::Append(_) => (&[][..], &[][..], &[][..]),
        };
        let images = before.chunks(cols.len().max(1));
        (rows.iter().zip(images)).flat_map(move |(&row, image)| {
            (cols.iter().zip(image)).map(move |(&col, value)| (row, col, value))
        })
    }
}

/// What changed in a table between an older version and a newer one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDelta {
    /// The rows appended: the table held `appended.start` rows at the older
    /// version.
    pub appended: Range<usize>,
    /// Each cell overwritten in a row the older version already held, as
    /// `(row, column, value at the older version)`, sorted by row and then
    /// column. A row appended in between is read whole from the newer
    /// version instead.
    pub overwritten: Vec<(usize, usize, Value)>,
}

impl TableDelta {
    /// Rows a roll-forward over this delta reads: the appended ones and
    /// each overwritten row once.
    pub fn rows(&self) -> usize {
        let mut updated: Vec<usize> = self.overwritten.iter().map(|(row, ..)| *row).collect();
        updated.dedup();
        self.appended.len() + updated.len()
    }
}

/// The changes to one table since version `base`, every one of them: a
/// version past `base` is reached only through a journaled change.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    base: u64,
    /// `(version the change produced, change)`, oldest first; one update
    /// statement journals one entry.
    entries: Vec<(u64, Entry)>,
    /// Rows the entries touch, summed.
    rows: usize,
    /// Heap bytes the entries hold, summed.
    bytes: usize,
}

impl Journal {
    /// An empty journal of a table now at `version`.
    pub(crate) fn at(version: u64) -> Journal {
        Journal {
            base: version,
            ..Journal::default()
        }
    }

    /// Record the changes that took the table to `version`.
    pub(crate) fn record(&mut self, version: u64, changes: impl IntoIterator<Item = Entry>) {
        for entry in changes {
            self.rows += entry.rows();
            self.bytes += entry.bytes();
            self.entries.push((version, entry));
        }
    }

    /// Forget what no cached entry can be rolled over any more: the changes
    /// up to `oldest`, the oldest version a cached entry describes — or
    /// every change, when none is cached (`None`; `now` is the table's
    /// version).
    pub(crate) fn trim(&mut self, oldest: Option<u64>, now: u64) {
        let keep_after = oldest.unwrap_or(now);
        if keep_after <= self.base {
            return;
        }
        let gone = self.entries.partition_point(|(v, _)| *v <= keep_after);
        for (_, entry) in self.entries.drain(..gone) {
            self.rows -= entry.rows();
            self.bytes -= entry.bytes();
        }
        self.base = keep_after;
    }

    /// Drop the oldest changes, a version at a time, until the journal
    /// covers fewer rows than `rows` and holds at most `bytes`. Returns the
    /// new base when it moved: a cached entry older than it can no longer
    /// be rolled forward.
    pub(crate) fn fit(&mut self, rows: usize, bytes: usize) -> Option<u64> {
        let base = self.base;
        while let Some(&(oldest, _)) = self.entries.first() {
            if self.rows < rows && self.bytes <= bytes {
                break;
            }
            self.trim(Some(oldest), oldest);
        }
        (self.base != base).then_some(self.base)
    }

    /// Heap bytes the journal holds.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Rows the journal covers.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// What changed from version `from` to version `to`, coalesced; `None`
    /// when the journal does not reach back to `from`.
    pub(crate) fn since(&self, from: u64, to: u64) -> Option<TableDelta> {
        if from < self.base || to < from {
            return None;
        }
        let start = self.entries.partition_point(|(v, _)| *v <= from);
        let end = self.entries.partition_point(|(v, _)| *v <= to);
        let window = &self.entries[start..end];
        let appended = window.iter().filter_map(|(_, e)| match e {
            Entry::Append(rows) => Some(rows.clone()),
            Entry::Update { .. } => None,
        });
        let appended = appended.reduce(|a, b| a.start..b.end);
        let held = appended.as_ref().map_or(usize::MAX, |rows| rows.start);
        // The earliest before-image of each cell is its value at `from`.
        let mut first: BTreeMap<(usize, usize), &Value> = BTreeMap::new();
        for (_, entry) in window {
            for (row, col, value) in entry.cells().filter(|&(row, ..)| row < held) {
                first.entry((row, col)).or_insert(value);
            }
        }
        let overwritten = (first.into_iter())
            .map(|((row, col), value)| (row, col, value.clone()))
            .collect();
        let appended = appended.unwrap_or(0..0);
        Some(TableDelta {
            appended,
            overwritten,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An update statement of `rows`, `cols.len()` before-values a row.
    fn updates(rows: &[usize], cols: &[usize], before: &[f64]) -> Entry {
        Entry::Update {
            cols: cols.to_vec(),
            rows: rows.to_vec(),
            before: before.iter().map(|&x| Value::Float(x)).collect(),
        }
    }

    fn update(row: usize, cols: &[usize], before: &[f64]) -> Entry {
        updates(&[row], cols, before)
    }

    #[test]
    fn a_window_coalesces_appends_and_keeps_each_cells_first_before_image() {
        let mut j = Journal::at(3);
        j.record(4, [Entry::Append(10..12)]);
        j.record(
            5,
            [update(1, &[2], &[7.0]), update(4, &[2, 3], &[1.0, 2.0])],
        );
        j.record(6, [Entry::Append(12..15), update(1, &[2], &[9.0])]);
        j.record(7, [update(11, &[2], &[5.0])]);
        assert_eq!(j.rows(), 2 + 2 + 3 + 1 + 1);
        let all = j.since(3, 7).unwrap();
        assert_eq!(all.appended, 10..15);
        let cells: Vec<(usize, usize, Value)> = vec![
            (1, 2, Value::Float(7.0)),
            (4, 2, Value::Float(1.0)),
            (4, 3, Value::Float(2.0)),
        ];
        assert_eq!(all.overwritten, cells, "row 11 was appended in the window");
        assert_eq!(all.rows(), 5 + 2);
        // A later window: row 1's value at version 5 is the one version 6
        // overwrote, and row 11 existed at version 6.
        let late = j.since(5, 7).unwrap();
        assert_eq!(late.appended, 12..15);
        let cells = vec![(1, 2, Value::Float(9.0)), (11, 2, Value::Float(5.0))];
        assert_eq!(late.overwritten, cells);
        assert_eq!(j.since(7, 7).unwrap(), TableDelta::default());
        assert!(j.since(2, 7).is_none(), "before the journal began");
    }

    #[test]
    fn trimming_keeps_what_the_oldest_cached_version_needs() {
        let mut j = Journal::at(0);
        j.record(1, [Entry::Append(0..5)]);
        j.record(2, [update(0, &[1], &[1.0])]);
        j.record(3, [Entry::Append(5..8)]);
        j.trim(Some(1), 3);
        assert_eq!(j.rows(), 1 + 3);
        assert!(j.since(0, 3).is_none());
        assert_eq!(j.since(1, 3).unwrap().appended, 5..8);
        j.trim(Some(0), 3);
        assert_eq!(j.rows(), 4, "a trim never reaches back");
        j.trim(None, 3);
        assert_eq!(j.rows(), 0);
        assert_eq!(j.since(3, 3).unwrap(), TableDelta::default());
        assert!(j.since(2, 3).is_none());
    }

    #[test]
    fn one_update_statement_is_one_entry_with_a_flat_before_image() {
        let mut j = Journal::at(0);
        j.record(
            1,
            [updates(
                &[4, 2, 4],
                &[1, 3],
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            )],
        );
        assert_eq!(j.rows(), 3);
        let value = std::mem::size_of::<Value>();
        assert_eq!(
            j.bytes(),
            (2 + 3) * std::mem::size_of::<usize>() + 6 * value
        );
        let cells = vec![
            (2, 1, Value::Float(3.0)),
            (2, 3, Value::Float(4.0)),
            (4, 1, Value::Float(1.0)),
            (4, 3, Value::Float(2.0)),
        ];
        let delta = j.since(0, 1).unwrap();
        assert_eq!(
            delta.overwritten, cells,
            "row 4's first write holds its old value"
        );
        assert_eq!(delta.rows(), 2);
    }

    #[test]
    fn fitting_drops_the_oldest_versions_until_rows_and_bytes_fit() {
        let mut j = Journal::at(0);
        for v in 1..=10 {
            j.record(v, [update(v as usize, &[0], &[1.0])]);
        }
        let one = j.bytes() / 10;
        assert_eq!(j.fit(11, 10 * one), None, "ten rows of eleven, in budget");
        assert_eq!(j.fit(10, 10 * one), Some(1), "as many rows as the table");
        assert_eq!((j.rows(), j.bytes()), (9, 9 * one));
        assert_eq!(j.fit(100, 4 * one), Some(6), "over its bytes");
        assert_eq!((j.rows(), j.bytes()), (4, 4 * one));
        assert!(j.since(5, 10).is_none(), "before the new base");
        let kept: Vec<usize> = (j.since(6, 10).unwrap().overwritten.iter())
            .map(|(row, ..)| *row)
            .collect();
        assert_eq!(kept, [7, 8, 9, 10]);
        assert_eq!(j.fit(4, usize::MAX), Some(7));
        assert_eq!(j.fit(1, usize::MAX), Some(10), "a journal of nothing fits");
        assert_eq!((j.rows(), j.bytes()), (0, 0));
        assert_eq!(j.since(10, 10).unwrap(), TableDelta::default());
    }
}
