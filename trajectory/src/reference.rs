//! The naive reference evaluator: one `BTreeMap<Vec<Cell>, _>` group-by per
//! grouping set over the harness's own copy of the rows. It shares no code
//! with the engine. Sums of the integral measures are exact in any order, so
//! exact answers compare byte for byte; `approx_*` answers (and exact
//! percentiles of groups past the engine's spill budget) are checked
//! against the error bound the engine documents.

use crate::data::{Cell, RawCol, RawTable};
use crate::stmt::{CmpOp, Extra, Stmt, Term};
use percentage_aggregations::engine::{
    DEFAULT_PERCENTILE_BUDGET, HLL_STD_ERROR, TDIGEST_RANK_EPSILON,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What one answer cell must be.
#[derive(Debug, Clone)]
pub enum Expect {
    Exact(Cell),
    /// A value whose rank among `sorted` lies within `eps` of `p`.
    RankWithin {
        sorted: Arc<Vec<f64>>,
        p: f64,
        eps: f64,
    },
    /// An integer within `rel` (relative) of `truth`.
    CountWithin {
        truth: usize,
        rel: f64,
    },
}

/// The expected answer: rows of `n_key` exact key cells followed by
/// aggregate cells. `ordered` answers must arrive in this row order;
/// others compare as sets of rows (keys are unique across grouping sets
/// because the data holds no NULL dimension).
#[derive(Debug, Clone)]
pub struct Answer {
    pub n_key: usize,
    pub rows: Vec<Vec<Expect>>,
    pub ordered: bool,
}

/// One vertical term's totals: the positions of its totals key inside the
/// grouping set, and the measure summed per totals key.
type Totals = (Vec<usize>, BTreeMap<Vec<Cell>, f64>);

#[derive(Default)]
struct Group {
    sum: f64,
    count: i64,
    values: Vec<f64>,
    distinct: BTreeSet<Cell>,
    /// Per horizontal term: BY-combination → (sum, rows).
    cells: Vec<BTreeMap<Vec<Cell>, (f64, i64)>>,
}

fn row_passes(stmt: &Stmt, t: &RawTable, row: usize) -> bool {
    stmt.where_.iter().all(|p| {
        let v = match t.col(&p.col) {
            RawCol::Int(v) => v[row] as f64,
            RawCol::Float(v) => v[row],
            RawCol::Str(..) => panic!("WHERE on a string column is not generated"),
        };
        let lit = p.value as f64;
        match p.op {
            CmpOp::Lt => v < lit,
            CmpOp::Ge => v >= lit,
            CmpOp::Ne => v != lit,
        }
    })
}

/// PERCENTILE_CONT by linear interpolation between closest ranks.
pub fn percentile_cont(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

fn key_of(t: &RawTable, cols: &[usize], row: usize, out: &mut Vec<Cell>) {
    out.clear();
    out.extend(cols.iter().map(|&c| t.cols[c].1.cell(row)));
}

pub fn evaluate(stmt: &Stmt, t: &RawTable) -> Answer {
    let rows: Vec<usize> = (0..t.rows()).filter(|&r| row_passes(stmt, t, r)).collect();
    let measure = match t.col(&stmt.measure) {
        RawCol::Float(v) => v,
        other => panic!("measure must be a float column, got {other:?}"),
    };
    let needs_values = stmt.is_holistic();
    let distinct_col = stmt.extras.iter().find_map(|e| match e {
        Extra::ApproxCountDistinct(c) => Some(t.col_index(c)),
        _ => None,
    });
    let by_cols: Vec<Vec<usize>> = stmt
        .terms
        .iter()
        .map(|term| match term {
            Term::Vpct { .. } => Vec::new(),
            Term::Hpct { by } | Term::HSum { by } | Term::HCount { by } => {
                by.iter().map(|c| t.col_index(c)).collect()
            }
        })
        .collect();
    // Horizontal result columns: every BY combination present in the
    // filtered input, in sorted order, whatever the grouping set.
    let combos: Vec<Vec<Vec<Cell>>> = by_cols
        .iter()
        .map(|cols| {
            if cols.is_empty() {
                return Vec::new();
            }
            let mut set = BTreeSet::new();
            let mut key = Vec::new();
            for &r in &rows {
                key_of(t, cols, r, &mut key);
                if !set.contains(&key) {
                    set.insert(key.clone());
                }
            }
            set.into_iter().collect()
        })
        .collect();

    let mut out: Vec<Vec<Expect>> = Vec::new();
    for set in stmt.grouping_sets() {
        if set.is_empty() && stmt.is_vertical() {
            continue; // a Vpct grand total is 100% by definition; the engine skips it
        }
        let set_cols: Vec<usize> = set.iter().map(|c| t.col_index(c)).collect();
        let mut groups: BTreeMap<Vec<Cell>, Group> = BTreeMap::new();
        let mut key = Vec::new();
        let mut cell_key = Vec::new();
        for &r in &rows {
            key_of(t, &set_cols, r, &mut key);
            if !groups.contains_key(&key) {
                groups.insert(
                    key.clone(),
                    Group {
                        cells: vec![BTreeMap::new(); stmt.terms.len()],
                        ..Group::default()
                    },
                );
            }
            let g = groups.get_mut(&key).expect("inserted above");
            let x = measure[r];
            g.sum += x;
            g.count += 1;
            if needs_values {
                g.values.push(x);
            }
            if let Some(c) = distinct_col {
                g.distinct.insert(t.cols[c].1.cell(r));
            }
            for (ti, cols) in by_cols.iter().enumerate() {
                if cols.is_empty() {
                    continue;
                }
                key_of(t, cols, r, &mut cell_key);
                let e = match g.cells[ti].get_mut(&cell_key) {
                    Some(e) => e,
                    None => g.cells[ti].entry(cell_key.clone()).or_insert((0.0, 0)),
                };
                e.0 += x;
                e.1 += 1;
            }
        }

        // Vertical totals: the engine intersects BY with the set; an empty
        // intersection (or BY = set) totals over every row.
        let totals: Vec<Option<Totals>> = stmt
            .terms
            .iter()
            .map(|term| {
                let Term::Vpct { by, .. } = term else {
                    return None;
                };
                let by: Vec<&String> = by.iter().filter(|b| set.contains(b)).collect();
                let key_pos: Vec<usize> = if by.is_empty() {
                    Vec::new()
                } else {
                    (0..set.len()).filter(|&i| !by.contains(&&set[i])).collect()
                };
                let mut sums: BTreeMap<Vec<Cell>, f64> = BTreeMap::new();
                for (k, g) in &groups {
                    let tk: Vec<Cell> = key_pos.iter().map(|&i| k[i].clone()).collect();
                    *sums.entry(tk).or_insert(0.0) += g.sum;
                }
                Some((key_pos, sums))
            })
            .collect();

        for (k, g) in &mut groups {
            // Key cells in GROUP BY order, NULL where the set rolled a
            // column away.
            let mut row: Vec<Expect> = stmt
                .group_by
                .iter()
                .map(|c| {
                    let cell = set
                        .iter()
                        .position(|s| s == c)
                        .map_or(Cell::Null, |i| k[i].clone());
                    Expect::Exact(cell)
                })
                .collect();
            for (ti, term) in stmt.terms.iter().enumerate() {
                match term {
                    Term::Vpct { .. } => {
                        let (key_pos, sums) = totals[ti].as_ref().expect("vertical term");
                        let tk: Vec<Cell> = key_pos.iter().map(|&i| k[i].clone()).collect();
                        let total = sums[&tk];
                        row.push(Expect::Exact(if total == 0.0 {
                            Cell::Null
                        } else {
                            Cell::Float(g.sum / total)
                        }));
                    }
                    Term::Hpct { .. } => {
                        for combo in &combos[ti] {
                            let cell = g.cells[ti].get(combo).map_or(0.0, |c| c.0);
                            row.push(Expect::Exact(if g.sum == 0.0 {
                                Cell::Null
                            } else {
                                Cell::Float(cell / g.sum)
                            }));
                        }
                    }
                    Term::HSum { .. } => {
                        for combo in &combos[ti] {
                            row.push(Expect::Exact(
                                g.cells[ti]
                                    .get(combo)
                                    .map_or(Cell::Null, |c| Cell::Float(c.0)),
                            ));
                        }
                    }
                    Term::HCount { .. } => {
                        for combo in &combos[ti] {
                            // A sum over no rows is NULL; a count is 0.
                            row.push(Expect::Exact(Cell::Int(
                                g.cells[ti].get(combo).map_or(0, |c| c.1),
                            )));
                        }
                    }
                }
            }
            let sorted = if needs_values {
                g.values.sort_by(f64::total_cmp);
                Arc::new(std::mem::take(&mut g.values))
            } else {
                Arc::new(Vec::new())
            };
            for e in &stmt.extras {
                row.push(match e {
                    Extra::Sum => Expect::Exact(Cell::Float(g.sum)),
                    Extra::CountStar => Expect::Exact(Cell::Int(g.count)),
                    Extra::Median | Extra::Percentile(_) => {
                        let p = if let Extra::Percentile(p) = e {
                            *p
                        } else {
                            0.5
                        };
                        if sorted.len() > DEFAULT_PERCENTILE_BUDGET {
                            // The engine spills such a group to a t-digest.
                            Expect::RankWithin {
                                sorted: Arc::clone(&sorted),
                                p,
                                eps: TDIGEST_RANK_EPSILON,
                            }
                        } else {
                            Expect::Exact(
                                percentile_cont(&sorted, p).map_or(Cell::Null, Cell::Float),
                            )
                        }
                    }
                    Extra::ApproxPercentile(p) => Expect::RankWithin {
                        sorted: Arc::clone(&sorted),
                        p: *p,
                        eps: TDIGEST_RANK_EPSILON,
                    },
                    Extra::ApproxCountDistinct(_) => Expect::CountWithin {
                        truth: g.distinct.len(),
                        rel: 3.0 * HLL_STD_ERROR,
                    },
                });
            }
            out.push(row);
        }
    }
    let n_key = stmt.group_by.len();
    // BTreeMap iteration already sorted each set by key; across sets (and
    // for ORDER BY) sort the whole answer by its key cells.
    out.sort_by(|a, b| key_cells(a, n_key).cmp(&key_cells(b, n_key)));
    Answer {
        n_key,
        rows: out,
        ordered: stmt.order_by && stmt.grouping == crate::stmt::Grouping::Flat,
    }
}

fn key_cells(row: &[Expect], n_key: usize) -> Vec<&Cell> {
    row[..n_key]
        .iter()
        .map(|e| match e {
            Expect::Exact(c) => c,
            _ => unreachable!("key cells are exact"),
        })
        .collect()
}

fn cell_matches(expect: &Expect, got: &Cell) -> bool {
    match expect {
        Expect::Exact(c) => c == got,
        Expect::RankWithin { sorted, p, eps } => {
            let Cell::Float(x) = got else {
                return sorted.is_empty() && *got == Cell::Null;
            };
            let n = sorted.len() as f64;
            let lo = sorted.partition_point(|v| v < x) as f64 / n;
            let hi = sorted.partition_point(|v| v <= x) as f64 / n;
            *p >= lo - eps && *p <= hi + eps
        }
        Expect::CountWithin { truth, rel } => {
            let Cell::Int(n) = got else { return false };
            (*n as f64 - *truth as f64).abs() <= (*truth as f64 * rel).max(1.0)
        }
    }
}

/// Compare an engine answer with the expected one. `Err` names the first
/// difference.
pub fn compare(answer: &Answer, mut got: Vec<Vec<Cell>>) -> Result<(), String> {
    if got.len() != answer.rows.len() {
        return Err(format!(
            "{} rows, expected {}",
            got.len(),
            answer.rows.len()
        ));
    }
    if !answer.ordered {
        let k = answer.n_key;
        got.sort_by(|a, b| a[..k.min(a.len())].cmp(&b[..k.min(b.len())]));
    }
    for (i, (want, have)) in answer.rows.iter().zip(&got).enumerate() {
        if want.len() != have.len() {
            return Err(format!(
                "row {i} has {} columns, expected {}",
                have.len(),
                want.len()
            ));
        }
        for (c, (w, h)) in want.iter().zip(have).enumerate() {
            if !cell_matches(w, h) {
                let w = match w {
                    Expect::Exact(c) => format!("{c:?}"),
                    Expect::RankWithin { p, eps, .. } => format!("rank {p}±{eps}"),
                    Expect::CountWithin { truth, rel } => format!("{truth}±{:.1}%", rel * 100.0),
                };
                return Err(format!("row {i} column {c}: got {h:?}, expected {w}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{Grouping, Pred};

    /// The paper's Table 1 (state, city, salesAmt) plus a state that sold
    /// nothing.
    fn sales() -> RawTable {
        let cities = ["SF", "LA", "Dallas", "Houston", "Nowhere"];
        RawTable {
            name: "sales".into(),
            cols: vec![
                (
                    "state".into(),
                    RawCol::Str(
                        vec![0, 0, 1, 1, 2],
                        vec!["CA".into(), "TX".into(), "ZZ".into()],
                    ),
                ),
                (
                    "city".into(),
                    RawCol::Str(
                        (0..5).collect(),
                        cities.iter().map(|c| c.to_string()).collect(),
                    ),
                ),
                (
                    "amt".into(),
                    RawCol::Float(vec![83.0, 23.0, 85.0, 64.0, 0.0]),
                ),
            ],
        }
    }

    fn stmt(group_by: &[&str], terms: Vec<Term>) -> Stmt {
        Stmt {
            class: "t".into(),
            table: "sales".into(),
            measure: "amt".into(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            grouping: Grouping::Flat,
            terms,
            extras: Vec::new(),
            where_: Vec::new(),
            order_by: true,
        }
    }

    fn exact(answer: &Answer) -> Vec<Vec<Cell>> {
        answer
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|e| match e {
                        Expect::Exact(c) => c.clone(),
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn percentile_cont_interpolates_between_closest_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_cont(&v, 0.5), Some(25.0));
        assert_eq!(percentile_cont(&v, 0.0), Some(10.0));
        assert_eq!(percentile_cont(&v, 1.0), Some(40.0));
        assert_eq!(percentile_cont(&v, 0.25), Some(17.5));
        assert_eq!(percentile_cont(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile_cont(&[], 0.5), None);
    }

    #[test]
    fn vpct_divides_by_the_totals_key_and_nulls_a_zero_total() {
        let s = stmt(
            &["state", "city"],
            vec![Term::Vpct {
                by: vec!["city".into()],
                alias: "pct".into(),
            }],
        );
        let rows = exact(&evaluate(&s, &sales()));
        let pct: Vec<&Cell> = rows.iter().map(|r| &r[2]).collect();
        // Sorted by (state, city): CA/LA, CA/SF, TX/Dallas, TX/Houston, ZZ.
        assert_eq!(*pct[0], Cell::Float(23.0 / 106.0));
        assert_eq!(*pct[1], Cell::Float(83.0 / 106.0));
        assert_eq!(*pct[2], Cell::Float(85.0 / 149.0));
        assert_eq!(*pct[4], Cell::Null, "ZZ sold nothing: NULL, not NaN");
    }

    #[test]
    fn hpct_pads_missing_cells_with_zero_and_hagg_with_null() {
        let t = sales();
        let h = stmt(
            &["state"],
            vec![Term::Hpct {
                by: vec!["city".into()],
            }],
        );
        let rows = exact(&evaluate(&h, &t));
        // Columns: state, then Dallas, Houston, LA, Nowhere, SF.
        assert_eq!(rows[0][1], Cell::Float(0.0));
        assert_eq!(rows[0][3], Cell::Float(23.0 / 106.0));
        assert_eq!(rows[2][4], Cell::Null, "zero total");
        let a = stmt(
            &["state"],
            vec![
                Term::HSum {
                    by: vec!["city".into()],
                },
                Term::HCount {
                    by: vec!["city".into()],
                },
            ],
        );
        let rows = exact(&evaluate(&a, &t));
        assert_eq!(rows[0][1], Cell::Null, "sum over no rows");
        assert_eq!(rows[0][3], Cell::Float(23.0));
        assert_eq!(rows[0][6], Cell::Int(0), "count over no rows");
        assert_eq!(rows[0][8], Cell::Int(1));
    }

    #[test]
    fn rollup_pads_rolled_columns_with_null_and_skips_the_grand_total() {
        let mut s = stmt(
            &["state", "city"],
            vec![Term::Vpct {
                by: vec!["city".into()],
                alias: "pct".into(),
            }],
        );
        s.grouping = Grouping::Rollup;
        s.where_ = vec![Pred {
            col: "amt".into(),
            op: CmpOp::Ge,
            value: 1,
        }];
        let rows = exact(&evaluate(&s, &sales()));
        // Four (state, city) rows and two (state) rows; no () row.
        assert_eq!(rows.len(), 6);
        let state_level: Vec<&Vec<Cell>> = rows.iter().filter(|r| r[1] == Cell::Null).collect();
        assert_eq!(state_level.len(), 2);
        // At (state) the BY column is rolled away: share of the grand total.
        assert_eq!(state_level[0][2], Cell::Float(106.0 / 255.0));
    }

    #[test]
    fn compare_accepts_any_row_order_unless_ordered_and_names_the_first_difference() {
        let s = stmt(
            &["state"],
            vec![Term::Hpct {
                by: vec!["city".into()],
            }],
        );
        let mut answer = evaluate(&s, &sales());
        let mut got = exact(&answer);
        got.reverse();
        assert!(
            compare(&answer, got.clone()).is_err(),
            "ordered answers keep their order"
        );
        answer.ordered = false;
        assert!(compare(&answer, got.clone()).is_ok());
        got[0][1] = Cell::Float(0.5);
        let err = compare(&answer, got).unwrap_err();
        assert!(err.contains("column 1"), "{err}");
    }

    #[test]
    fn approximate_cells_are_held_to_their_documented_error() {
        let sorted = Arc::new((0..1000).map(f64::from).collect::<Vec<_>>());
        let e = Expect::RankWithin {
            sorted,
            p: 0.5,
            eps: 0.05,
        };
        assert!(cell_matches(&e, &Cell::Float(520.0)));
        assert!(!cell_matches(&e, &Cell::Float(600.0)));
        let c = Expect::CountWithin {
            truth: 100,
            rel: 0.0975,
        };
        assert!(cell_matches(&c, &Cell::Int(109)));
        assert!(!cell_matches(&c, &Cell::Int(111)));
    }
}
