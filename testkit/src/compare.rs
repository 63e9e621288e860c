//! The one comparator: two tables are the same answer when their field
//! names, field types, row order, validity and every cell's bits agree. A
//! float compares by `to_bits`, so `-0.0` is not `0.0` and a NaN is a
//! value.
//!
//! Where an answer's row order is not part of its contract, both sides are
//! put in one canonical order first ([`canonical`]). There is no tolerance:
//! a test whose plans sum a measure in different groupings (more than one
//! thread, or a coarser level folded from a finer one) draws that measure
//! exact — whole numbers, halves or whole cents — so its answers agree to
//! the bit (DESIGN.md §7).

use pa_storage::{Table, Value};
use std::cmp::Ordering;

/// Every cell of `t` as text, a float by its bits.
pub fn cells(t: &Table) -> Vec<Vec<String>> {
    t.rows().map(|row| row.iter().map(cell).collect()).collect()
}

/// One cell as text, a float by its bits.
pub fn cell(v: &Value) -> String {
    match v {
        Value::Float(x) => format!("f{:016x} ({x})", x.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Field names and types.
pub fn shape(t: &Table) -> Vec<(String, String)> {
    let fields = t.schema().fields().iter();
    fields
        .map(|f| (f.name.clone(), format!("{:?}", f.dtype)))
        .collect()
}

/// `t`'s rows in one canonical order, each cell as text, a float by its
/// bits: every column a sort key, so the order depends on nothing but the
/// multiset of rows.
pub fn canonical(t: &Table) -> Vec<Vec<String>> {
    canonical_rows(t.rows().collect())
}

/// [`canonical`] of rows.
pub fn canonical_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<String>> {
    rows.sort_by(|a, b| {
        let by_cell = a.iter().zip(b).map(|(x, y)| {
            let text = || format!("{x:?}").cmp(&format!("{y:?}"));
            x.total_cmp(y).then_with(text)
        });
        by_cell.fold(Ordering::Equal, Ordering::then)
    });
    rows.iter()
        .map(|row| row.iter().map(cell).collect())
        .collect()
}

/// The first row where `got` and `want` differ, as a message naming it and
/// both rows in full; `None` when they agree row for row.
pub fn first_divergence(got: &[Vec<String>], want: &[Vec<String>]) -> Option<String> {
    let at = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))?;
    Some(format!(
        "first divergent row {at} (of {} got, {} wanted):\n  got:  {:?}\n  want: {:?}",
        got.len(),
        want.len(),
        got.get(at),
        want.get(at)
    ))
}

fn check(got: &Table, want: &Table, what: &str, text: impl Fn(&Table) -> Vec<Vec<String>>) {
    assert_eq!(shape(got), shape(want), "{what}: schema");
    if let Some(diff) = first_divergence(&text(got), &text(want)) {
        panic!("{what}: {diff}");
    }
}

/// `got` is `want`: names, types, row order, validity and bits.
pub fn assert_same(got: &Table, want: &Table, what: &str) {
    check(got, want, what, cells);
}

/// `got` is `want` up to row order.
pub fn assert_same_rows(got: &Table, want: &Table, what: &str) {
    check(got, want, what, canonical);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    fn table(values: &[f64]) -> Table {
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let mut t = Table::empty(schema.into_shared());
        for &x in values {
            t.push_row(&[Value::Float(x)]).unwrap();
        }
        t
    }

    /// A vacuous comparator would pass anything: each difference it must
    /// see is injected and has to fail with the row that differs.
    #[test]
    fn the_comparator_reports_an_injected_divergence() {
        let want = table(&[1.0, 0.0, 2.5]);
        for (got, row) in [
            (table(&[1.0, -0.0, 2.5]), 1),
            (table(&[1.0, 0.0, 2.5000000000000004]), 2),
            (table(&[1.0, 0.0]), 2),
            (table(&[0.0, 1.0, 2.5]), 0),
        ] {
            let diff = first_divergence(&cells(&got), &cells(&want)).expect("a divergence");
            assert!(
                diff.starts_with(&format!("first divergent row {row} ")),
                "{diff}"
            );
        }
        assert!(first_divergence(&cells(&want), &cells(&want)).is_none());
        let reordered = table(&[2.5, 1.0, 0.0]);
        assert_same_rows(&reordered, &want, "row order aside");
    }
}
