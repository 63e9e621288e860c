//! # pa-bench — the papers' evaluation, as a reusable harness
//!
//! Declares every query configuration from SIGMOD 2004 Tables 4–6 and DMKD
//! 2004 Table 3, the workload setup they run on, and timing helpers shared
//! by the Criterion benches and the `repro` binary.

#![warn(missing_docs)]

pub mod paper;

use pa_core::{
    HorizontalOptions, HorizontalQuery, HorizontalStrategy, PercentageEngine, VpctQuery,
    VpctStrategy,
};
use pa_storage::{Catalog, Wal};
use pa_workload::{CensusConfig, EmployeeConfig, SalesConfig, Scale, TransactionConfig};
use std::time::Instant;

/// Which generated table a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// SIGMOD `employee` (paper n = 1M).
    Employee,
    /// SIGMOD `sales` (paper n = 10M).
    Sales,
    /// DMKD `transactionLine` at base scale (paper n = 1M).
    Transaction1M,
    /// DMKD `transactionLine` at double scale (paper n = 2M).
    Transaction2M,
    /// DMKD census-like (paper n = 200k).
    Census,
}

impl Dataset {
    /// Catalog table name.
    pub fn table_name(&self) -> &'static str {
        match self {
            Dataset::Employee => "employee",
            Dataset::Sales => "sales",
            Dataset::Transaction1M => "transactionLine",
            Dataset::Transaction2M => "transactionLine2M",
            Dataset::Census => "uscensus",
        }
    }

    /// Measure column used by the papers' queries on this table.
    pub fn measure(&self) -> &'static str {
        match self {
            Dataset::Employee => "salary",
            Dataset::Sales => "salesAmt",
            Dataset::Transaction1M | Dataset::Transaction2M => "salesAmt",
            Dataset::Census => "dIncome",
        }
    }
}

/// An empty catalog whose in-memory WAL retains the whole logged history
/// of the replication bench's `(d: Int, a: Float)` table — `rows` rows
/// appended in `batches` batches. [`Catalog::new`] retains 16 MiB and then
/// recycles its oldest frames, which a bench that ships the log from the
/// first record cannot afford: a row logs 18 bytes, and a batch under
/// 1 KiB of frame headers.
pub fn catalog_retaining(rows: usize, batches: usize) -> Catalog {
    Catalog::from_wal(Wal::new(rows * 32 + batches * 1024))
}

/// One evaluation-table query configuration: `GROUP BY D1..Dk` with the
/// totals key `D1..Dj` (vertical form), equivalently `GROUP BY D1..Dj` with
/// `BY Dj+1..Dk` (horizontal form).
#[derive(Debug, Clone)]
pub struct BenchQuery {
    /// Data set.
    pub dataset: Dataset,
    /// `D1..Dj` — the totals key / horizontal GROUP BY.
    pub totals: Vec<&'static str>,
    /// `Dj+1..Dk` — the BY columns.
    pub by: Vec<&'static str>,
}

impl BenchQuery {
    fn new(dataset: Dataset, totals: &[&'static str], by: &[&'static str]) -> BenchQuery {
        BenchQuery {
            dataset,
            totals: totals.to_vec(),
            by: by.to_vec(),
        }
    }

    /// Row label in the papers' tables, e.g. `sales dept,store | dweek,monthNo`.
    pub fn label(&self) -> String {
        let t = if self.totals.is_empty() {
            "-".to_string()
        } else {
            self.totals.join(",")
        };
        format!("{} {t} | {}", self.dataset.table_name(), self.by.join(","))
    }

    /// The vertical form: `GROUP BY D1..Dk`, `Vpct(A BY Dj+1..Dk)`.
    pub fn vertical(&self) -> VpctQuery {
        let group_by: Vec<&str> = self.totals.iter().chain(&self.by).copied().collect();
        VpctQuery::single(
            self.dataset.table_name(),
            &group_by,
            self.dataset.measure(),
            &self.by,
        )
    }

    /// The horizontal percentage form: `GROUP BY D1..Dj`, `Hpct(A BY ...)`.
    pub fn horizontal(&self) -> HorizontalQuery {
        HorizontalQuery::hpct(
            self.dataset.table_name(),
            &self.totals,
            self.dataset.measure(),
            &self.by,
        )
    }

    /// The horizontal plain-aggregation form (DMKD): `sum(A BY ...)`.
    pub fn hagg(&self) -> HorizontalQuery {
        HorizontalQuery::hagg(
            self.dataset.table_name(),
            &self.totals,
            pa_engine::AggFunc::Sum,
            self.dataset.measure(),
            &self.by,
        )
    }
}

/// The eight query configurations of SIGMOD Tables 4–6 (four on `employee`,
/// four on `sales`), in table order.
pub fn sigmod_queries() -> Vec<BenchQuery> {
    vec![
        BenchQuery::new(Dataset::Employee, &[], &["gender"]),
        BenchQuery::new(Dataset::Employee, &["gender"], &["marstatus"]),
        BenchQuery::new(Dataset::Employee, &["gender"], &["educat", "marstatus"]),
        BenchQuery::new(
            Dataset::Employee,
            &["gender", "educat"],
            &["age", "marstatus"],
        ),
        BenchQuery::new(Dataset::Sales, &[], &["dweek"]),
        BenchQuery::new(Dataset::Sales, &["monthNo"], &["dweek"]),
        BenchQuery::new(Dataset::Sales, &["dept"], &["dweek", "monthNo"]),
        BenchQuery::new(Dataset::Sales, &["dept", "store"], &["dweek", "monthNo"]),
    ]
}

/// The seventeen configurations of DMKD Table 3: five on the census-like
/// set, six on `transactionLine` at 1M, the same six at 2M.
pub fn dmkd_queries() -> Vec<BenchQuery> {
    let mut out = vec![
        BenchQuery::new(Dataset::Census, &[], &["iSchool"]),
        BenchQuery::new(Dataset::Census, &[], &["iClass"]),
        BenchQuery::new(Dataset::Census, &[], &["iMarital"]),
        BenchQuery::new(Dataset::Census, &["dAge"], &["iMarital"]),
        BenchQuery::new(Dataset::Census, &["dAge", "iClass"], &["iSchool", "iSex"]),
    ];
    for dataset in [Dataset::Transaction1M, Dataset::Transaction2M] {
        out.push(BenchQuery::new(dataset, &[], &["regionId"]));
        out.push(BenchQuery::new(dataset, &[], &["monthNo"]));
        out.push(BenchQuery::new(dataset, &[], &["subdeptId"]));
        out.push(BenchQuery::new(dataset, &["monthNo"], &["dayOfWeekNo"]));
        out.push(BenchQuery::new(
            dataset,
            &["deptId"],
            &["dayOfWeekNo", "monthNo"],
        ));
        out.push(BenchQuery::new(
            dataset,
            &["deptId", "storeId"],
            &["dayOfWeekNo", "monthNo"],
        ));
    }
    out
}

/// Install every data set the benches use, at the given scale.
pub fn install_all(catalog: &Catalog, scale: Scale) {
    pa_workload::install_employee(catalog, &EmployeeConfig::at_scale(scale))
        .expect("fresh catalog");
    pa_workload::install_sales(catalog, &SalesConfig::at_scale(scale)).expect("fresh catalog");
    pa_workload::install_transaction_line(catalog, &TransactionConfig::at_scale(scale))
        .expect("fresh catalog");
    // The paper's second transactionLine size (2M base) under its own name.
    let config2 = TransactionConfig {
        rows: scale.rows(2_000_000),
        seed: 0x54_58_4e + 1,
    };
    let t2 = pa_workload::transaction_line_table(&config2);
    catalog
        .create_table("transactionLine2M", t2)
        .expect("fresh catalog");
    pa_workload::install_uscensus(catalog, &CensusConfig::at_scale(scale)).expect("fresh catalog");
}

/// Deterministic LCG-generated fact table shared by the scaling and
/// observability benches: ~101 `store` values, `d` distinct `day` values,
/// `amt` in `0..1000`.
pub fn lcg_fact_table(n: usize, d: usize) -> pa_storage::Table {
    use pa_storage::{DataType, Schema, Table, Value};
    let schema = Schema::from_pairs(&[
        ("store", DataType::Int),
        ("day", DataType::Int),
        ("amt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, n);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        t.push_row(&[
            Value::Int(((state >> 33) % 101) as i64),
            Value::Int(((state >> 13) % d.max(1) as u64) as i64),
            Value::Float(((state >> 3) % 1000) as f64),
        ])
        .expect("generator row matches schema");
    }
    t
}

/// Four-dimension variant of [`lcg_fact_table`] for the lattice scenario:
/// `store` (23 values) × `day` (`d` values) × `region` (5) × `month`
/// (12) plus the `amt` measure — enough grouping columns that a CUBE or
/// BY-prefix batch exercises a genuinely multi-level lattice, with the
/// modest per-dimension cardinalities typical of cube dimensions.
pub fn lcg_cube_table(n: usize, d: usize) -> pa_storage::Table {
    use pa_storage::{DataType, Schema, Table, Value};
    let schema = Schema::from_pairs(&[
        ("store", DataType::Int),
        ("day", DataType::Int),
        ("region", DataType::Int),
        ("month", DataType::Int),
        ("amt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, n);
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        t.push_row(&[
            Value::Int(((state >> 33) % 23) as i64),
            Value::Int(((state >> 13) % d.max(1) as u64) as i64),
            Value::Int(((state >> 23) % 5) as i64),
            Value::Int(((state >> 43) % 12) as i64),
            Value::Float(((state >> 3) % 1000) as f64),
        ])
        .expect("generator row matches schema");
    }
    t
}

/// Per-operator breakdown of a traced run as a JSON array: one object per
/// top-level operator span, with worker child spans folded into their
/// operator (`rows`/`morsels` inclusive). This is the `"operators"` field
/// the bench binaries attach to `results/BENCH_*.json` rows.
pub fn operator_breakdown(report: &pa_core::TraceReport) -> String {
    use std::fmt::Write as _;
    let Some(root) = report.root() else {
        return "[]".to_string();
    };
    let mut out = String::from("[");
    for (i, op) in report.children(root.id).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"op\": \"{}\", \"rows\": {}, \"morsels\": {}, \"ns\": {}, \"workers\": {}}}",
            op.name(),
            report.rows_inclusive(op.id),
            report.morsels_inclusive(op.id),
            op.duration_ns(),
            report.children(op.id).count(),
        );
    }
    out.push(']');
    out
}

/// Milliseconds spent running `f` once.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Best-of-`iters` milliseconds for `f`.
pub fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let (ms, _) = time_ms(&mut f);
        best = best.min(ms);
    }
    best
}

/// SIGMOD Table 4's four strategy columns, in table order:
/// (1) best, (2) no subkey index, (3) UPDATE instead of INSERT,
/// (4) `Fj` from `F` instead of from `Fk`.
pub fn table4_strategies() -> [(&'static str, VpctStrategy); 4] {
    [
        ("(1) best", VpctStrategy::best()),
        ("(2) no idx", VpctStrategy::without_index()),
        ("(3) update", VpctStrategy::with_update()),
        ("(4) Fj from F", VpctStrategy::fj_from_f()),
    ]
}

/// Run one vertical query under one strategy, returning wall ms and stats.
pub fn run_vertical(
    engine: &PercentageEngine<'_>,
    q: &VpctQuery,
    strat: &VpctStrategy,
) -> (f64, pa_engine::ExecStats) {
    let (ms, result) = time_ms(|| engine.vpct_with(q, strat).expect("bench query"));
    (ms, result.stats)
}

/// Run one horizontal query under one strategy.
pub fn run_horizontal(
    engine: &PercentageEngine<'_>,
    q: &HorizontalQuery,
    strategy: HorizontalStrategy,
) -> (f64, pa_engine::ExecStats) {
    let opts = HorizontalOptions {
        strategy,
        // DMKD's subdeptId query needs 100 columns at one-row-per-group —
        // fits the default 2048; keep defaults.
        ..HorizontalOptions::default()
    };
    let (ms, result) = time_ms(|| engine.horizontal_with(q, &opts).expect("bench query"));
    (ms, result.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lists_match_paper_row_counts() {
        assert_eq!(sigmod_queries().len(), 8);
        assert_eq!(dmkd_queries().len(), 17);
    }

    #[test]
    fn labels_read_like_table_rows() {
        let qs = sigmod_queries();
        assert_eq!(qs[1].label(), "employee gender | marstatus");
        assert_eq!(qs[7].label(), "sales dept,store | dweek,monthNo");
        assert_eq!(qs[4].label(), "sales - | dweek");
    }

    #[test]
    fn vertical_and_horizontal_forms_are_consistent() {
        for q in sigmod_queries() {
            let v = q.vertical();
            let h = q.horizontal();
            v.validate().unwrap();
            h.validate().unwrap();
            assert_eq!(v.totals_key(&v.terms[0]), h.group_by);
        }
        for q in dmkd_queries() {
            q.hagg().validate().unwrap();
        }
    }

    #[test]
    fn smoke_scale_end_to_end() {
        let catalog = Catalog::new();
        install_all(&catalog, Scale(0.001));
        let engine = PercentageEngine::new(&catalog);
        for q in sigmod_queries() {
            let (_, stats) = run_vertical(&engine, &q.vertical(), &VpctStrategy::best());
            assert!(stats.rows_scanned > 0, "{}", q.label());
        }
        // A couple of DMKD configs through all four strategies.
        for q in dmkd_queries().into_iter().take(2) {
            for strategy in HorizontalStrategy::all() {
                let (_, stats) = run_horizontal(&engine, &q.hagg(), strategy);
                assert!(stats.rows_scanned > 0, "{} {}", q.label(), strategy.label());
            }
        }
    }
}
