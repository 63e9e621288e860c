//! Golden snapshot tests: the SIGMOD worked example (Table 1's fact table,
//! Tables 2–3's expected outputs) pinned as on-disk fixtures under
//! `tests/golden/`.
//!
//! Each test runs a query over the CSV fact fixture, renders the result in
//! a canonical line format (sorted rows, `|`-separated, shortest-roundtrip
//! float formatting), and compares it byte-for-byte against the recorded
//! `.golden` file. On mismatch the failure message is a unified diff —
//! what changed, not just "snapshots differ". Plan shape is pinned the
//! same way via `EXPLAIN` (which never executes, so its text is
//! deterministic).
//!
//! To accept intentional changes, regenerate in place:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use percentage_aggregations::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Load the fact-table fixture (`header` row, then `Int|Str|Float`-typed
/// columns inferred from the header's `name:type` pairs).
fn load_fixture(name: &str) -> Catalog {
    let path = golden_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let mut lines = text.lines();
    let header = lines.next().expect("fixture has a header line");
    let mut names = Vec::new();
    let mut types = Vec::new();
    for field in header.split(',') {
        let (name, ty) = field
            .split_once(':')
            .unwrap_or_else(|| panic!("header field {field:?} is not name:type"));
        names.push(name.trim().to_string());
        types.push(match ty.trim() {
            "int" => DataType::Int,
            "str" => DataType::Str,
            "float" => DataType::Float,
            other => panic!("unknown fixture type {other:?}"),
        });
    }
    let pairs: Vec<(&str, DataType)> = names
        .iter()
        .map(String::as_str)
        .zip(types.iter().copied())
        .collect();
    let schema = Schema::from_pairs(&pairs).unwrap().into_shared();
    let mut t = Table::empty(schema);
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let row: Vec<Value> = line
            .split(',')
            .zip(types.iter())
            .map(|(cell, ty)| {
                let cell = cell.trim();
                if cell == "NULL" {
                    return Value::Null;
                }
                match ty {
                    DataType::Int => Value::Int(cell.parse().unwrap()),
                    DataType::Float => Value::Float(cell.parse().unwrap()),
                    _ => Value::str(cell),
                }
            })
            .collect();
        t.push_row(&row).unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("sales", t).unwrap();
    catalog
}

/// Canonical snapshot text: header, then all rows sorted by every column.
/// Floats print with Rust's shortest-roundtrip formatting, so the snapshot
/// pins exact bits, not a rounding of them.
fn render(t: &Table) -> String {
    let mut out = String::new();
    let names: Vec<&str> = (0..t.num_columns())
        .map(|c| t.schema().field_at(c).name.as_str())
        .collect();
    let _ = writeln!(out, "{}", names.join("|"));
    let all: Vec<usize> = (0..t.num_columns()).collect();
    for row in t.sorted_by(&all).rows() {
        let cells: Vec<String> = row.iter().map(Value::to_string).collect();
        let _ = writeln!(out, "{}", cells.join("|"));
    }
    out
}

/// Minimal unified diff (full-context) between two snapshots, LCS-based so
/// an inserted row shows as one `+` line rather than cascading mismatches.
fn unified_diff(expected: &str, actual: &str) -> String {
    let a: Vec<&str> = expected.lines().collect();
    let b: Vec<&str> = actual.lines().collect();
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = String::from("--- expected (golden)\n+++ actual\n");
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            let _ = writeln!(out, " {}", a[i]);
            i += 1;
            j += 1;
        } else if j < b.len() && (i == a.len() || lcs[i][j + 1] >= lcs[i + 1][j]) {
            let _ = writeln!(out, "+{}", b[j]);
            j += 1;
        } else {
            let _ = writeln!(out, "-{}", a[i]);
            i += 1;
        }
    }
    out
}

/// Compare `actual` against the recorded `tests/golden/<name>`; with
/// `UPDATE_GOLDEN=1` rewrite the file instead and pass.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read golden {}: {e}\n(run UPDATE_GOLDEN=1 cargo test --test \
             golden to record it)",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "snapshot {} diverged:\n{}\n(run UPDATE_GOLDEN=1 cargo test --test \
         golden to accept)",
        name,
        unified_diff(&expected, actual)
    );
}

/// SIGMOD Table 2: vertical percentages of `salesAmt` by city per state.
#[test]
fn golden_vpct_sigmod_table_2() {
    let catalog = load_fixture("sales.csv");
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql("SELECT state,city,Vpct(salesAmt BY city) FROM sales GROUP BY state,city;")
        .unwrap();
    assert_golden("vpct_by_city.golden", &render(&out.table().read()));
}

/// SIGMOD Table 3 shape on the Table 1 data: one row per state, one
/// percentage column per city.
#[test]
fn golden_hpct_sigmod_table_3_shape() {
    let catalog = load_fixture("sales.csv");
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state;")
        .unwrap();
    assert_golden("hpct_by_city.golden", &render(&out.table().read()));
}

/// Hagg: horizontal plain aggregation (DMKD's generalization) on the same
/// fixture.
#[test]
fn golden_hagg_sum_by_city() {
    let catalog = load_fixture("sales.csv");
    let engine = PercentageEngine::new(&catalog);
    let out = engine
        .execute_sql("SELECT state, sum(salesAmt BY city) FROM sales GROUP BY state;")
        .unwrap();
    assert_golden("hagg_sum_by_city.golden", &render(&out.table().read()));
}

/// Plan shape for the horizontal query: the paper's script, then the
/// levels of the lattice request a knob-less run executes (EXPLAIN never
/// executes, so the text is stable run to run — the guard line carries no
/// `charged=`).
#[test]
fn golden_explain_hpct_plan() {
    let catalog = load_fixture("sales.csv");
    let engine = PercentageEngine::new(&catalog);
    let lines = engine
        .explain_sql("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state;")
        .unwrap();
    let mut text = lines.join("\n");
    text.push('\n');
    assert_golden("explain_hpct.golden", &text);
}

/// The same for statements with a `WHERE`: every generated statement that
/// reads `F` carries the predicate, and the levels of a selected fact come
/// from a scan, never from the table's cache — even once the same
/// statement without the predicate has filled it.
#[test]
fn golden_explain_where_plans() {
    let catalog = load_fixture("sales.csv");
    let engine = PercentageEngine::new(&catalog);
    let terms = "Vpct(salesAmt BY city) AS p, Vpct(salesAmt BY state, city) AS q";
    engine
        .execute_sql(&format!(
            "SELECT state, city, {terms} FROM sales GROUP BY state, city;"
        ))
        .unwrap();
    let mut text = String::new();
    for sql in [
        format!("SELECT state, city, {terms} FROM sales WHERE salesAmt > 10 GROUP BY state, city;"),
        "SELECT state, Hpct(salesAmt BY city) FROM sales \
         WHERE salesAmt > 10 AND state <> 'TX' GROUP BY state;"
            .to_string(),
    ] {
        for line in engine.explain_sql(&sql).unwrap() {
            text.push_str(&line);
            text.push('\n');
        }
    }
    assert_golden("explain_where.golden", &text);
}

/// The comparator itself: injected divergence must surface as a unified
/// diff naming the changed lines, not a bare inequality.
#[test]
fn golden_harness_reports_unified_diff() {
    let expected = "state|pct\nCA|0.25\nTX|0.75\n";
    let actual = "state|pct\nCA|0.5\nTX|0.5\n";
    let diff = unified_diff(expected, actual);
    assert!(diff.contains("-CA|0.25"), "{diff}");
    assert!(diff.contains("+CA|0.5"), "{diff}");
    assert!(diff.contains(" state|pct"), "context line kept: {diff}");
}
