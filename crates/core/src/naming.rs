//! Result-column naming and vertical partitioning for horizontal results.
//!
//! DMKD §3.6 calls out two practical issues: the maximum number of columns
//! in the DBMS and the maximum column-name length when names are generated
//! from subgroup values. Names here follow the papers' convention
//! (`"Dh=vh1 .. Dk=vk1"`, compacted to `dweek=Mon`), abbreviated with a
//! stable hash suffix when over-long, and over-wide results are split into
//! partitions each carrying the `D1..Dj` key.

use pa_storage::{hash::hash_values, FxHashMap, FxHashSet, Value};

/// Maximum generated column-name length (Teradata V2R4 allowed 30; we use a
/// modern-but-finite default).
pub const MAX_NAME_LEN: usize = 64;

fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Str(s) => s.replace([' ', '\t', '\n'], "_"),
        other => other.to_string(),
    }
}

/// Name for one cell column: `prefix:by1=v1;by2=v2`, with `prefix:` omitted
/// when `prefix` is empty. Over-long names are truncated and suffixed with a
/// stable 8-hex-digit hash of the combination so uniqueness survives
/// abbreviation.
pub fn cell_column_name(prefix: &str, by_cols: &[String], combo: &[Value]) -> String {
    debug_assert_eq!(by_cols.len(), combo.len());
    let body: Vec<String> = by_cols
        .iter()
        .zip(combo)
        .map(|(c, v)| format!("{c}={}", render_value(v)))
        .collect();
    let mut name = if prefix.is_empty() {
        body.join(";")
    } else {
        format!("{prefix}:{}", body.join(";"))
    };
    if name.len() > MAX_NAME_LEN {
        let h = hash_values(combo);
        let tag = format!("~{h:08x}", h = (h & 0xffff_ffff));
        let keep = MAX_NAME_LEN - tag.len();
        // Truncate on a char boundary.
        let mut cut = keep;
        while !name.is_char_boundary(cut) {
            cut -= 1;
        }
        name.truncate(cut);
        name.push_str(&tag);
    }
    name
}

/// Disambiguate duplicate names in place by appending `_2`, `_3`, ...
/// (duplicates can appear after abbreviation or when distinct values render
/// identically, e.g. `"a b"` vs `"a_b"`): a name an earlier one took becomes
/// `name_k`, for the smallest `k ≥ 2` no earlier name took. One pass over a
/// set of the names taken, and per name the next `k` to try, which only
/// grows, since a taken name stays taken.
pub fn dedup_names(names: &mut [String]) {
    let mut taken: FxHashSet<String> = FxHashSet::default();
    let mut next_k: FxHashMap<String, usize> = FxHashMap::default();
    for name in names.iter_mut() {
        if taken.contains(name) {
            let k = next_k.entry(name.clone()).or_insert(2);
            let free = loop {
                let candidate = format!("{name}_{k}");
                *k += 1;
                if !taken.contains(&candidate) {
                    break candidate;
                }
            };
            *name = free;
        }
        taken.insert(name.clone());
    }
}

/// Split `n_cells` cell columns into partitions so that each partition table
/// holds at most `max_columns` total columns including the `n_key` key
/// columns. Returns the half-open cell index ranges, one per partition.
pub fn partition_ranges(
    n_cells: usize,
    n_key: usize,
    max_columns: usize,
) -> Vec<std::ops::Range<usize>> {
    let per = max_columns.saturating_sub(n_key).max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < n_cells {
        let end = (start + per).min(n_cells);
        out.push(start..end);
        start = end;
    }
    if out.is_empty() {
        out.push(0..0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_paper_convention() {
        let by = vec!["dweek".to_string()];
        assert_eq!(cell_column_name("", &by, &[Value::str("Mon")]), "dweek=Mon");
        let by2 = vec!["region".to_string(), "month".to_string()];
        assert_eq!(
            cell_column_name("hpct_sales", &by2, &[Value::Int(4), Value::Int(12)]),
            "hpct_sales:region=4;month=12"
        );
    }

    #[test]
    fn spaces_in_values_are_sanitized() {
        let by = vec!["city".to_string()];
        assert_eq!(
            cell_column_name("", &by, &[Value::str("San Francisco")]),
            "city=San_Francisco"
        );
        assert_eq!(cell_column_name("", &by, &[Value::Null]), "city=NULL");
    }

    #[test]
    fn long_names_abbreviate_uniquely() {
        let by = vec!["averyveryverylongdimensionname".to_string()];
        let a = cell_column_name("", &by, &[Value::str("x".repeat(100))]);
        let b = cell_column_name("", &by, &[Value::str("x".repeat(101))]);
        assert!(a.len() <= MAX_NAME_LEN);
        assert!(b.len() <= MAX_NAME_LEN);
        assert_ne!(a, b, "hash suffix keeps abbreviated names distinct");
    }

    #[test]
    fn dedup_appends_counters() {
        let mut names = vec![
            "a".to_string(),
            "a".to_string(),
            "a".to_string(),
            "b".to_string(),
        ];
        dedup_names(&mut names);
        assert_eq!(names, vec!["a", "a_2", "a_3", "b"]);
    }

    /// The `_k` a name gets is the smallest no earlier name took, whatever
    /// the earlier names are: one an input already spelled `a_2` pushes a
    /// later `a` on to `a_3`, and is itself renamed only if `a_2` was taken
    /// before it.
    #[test]
    fn dedup_picks_the_smallest_free_counter() {
        let dedup = |names: &[&str]| {
            let mut names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            dedup_names(&mut names);
            names
        };
        assert_eq!(dedup(&["a", "a", "a_2", "a"]), ["a", "a_2", "a_2_2", "a_3"]);
        assert_eq!(dedup(&["a", "a_2", "a", "a"]), ["a", "a_2", "a_3", "a_4"]);
        assert_eq!(
            dedup(&["a_2", "a", "a", "b", "b"]),
            ["a_2", "a", "a_3", "b", "b_2"]
        );
        assert_eq!(dedup(&["x", "y"]), ["x", "y"]);
        let many = vec!["a"; 5000];
        let out = dedup(&many);
        assert_eq!((out[1].as_str(), out[4999].as_str()), ("a_2", "a_5000"));
    }

    #[test]
    fn partitioning_math() {
        // 10 cells, 2 key cols, max 5 columns → 3 cells per partition.
        let ranges = partition_ranges(10, 2, 5);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
        // Everything fits.
        assert_eq!(partition_ranges(4, 1, 100), vec![0..4]);
        // Degenerate: key columns alone exceed the limit — still one cell
        // per partition rather than an infinite loop.
        assert_eq!(partition_ranges(2, 10, 5), vec![0..1, 1..2]);
        assert_eq!(partition_ranges(0, 1, 5), vec![0..0]);
    }
}
