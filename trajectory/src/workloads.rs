//! The five workloads: seeded tables, the statements issued against them,
//! and the client shape. Everything here is a pure function of
//! `(workload, seed, sizes, nproc)`.
//!
//! The seed moves the data, the literals and the order statements are
//! issued in — never the mix of query classes, so a workload costs the same
//! on every seed and two seeds can be compared.

use crate::data::{RawCol, RawTable};
use crate::stmt::{CmpOp, Extra, Grouping, Pred, Stmt, Term};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scan,
    Small,
    Holistic,
    Cube,
    Ingest,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Scan,
        Kind::Small,
        Kind::Holistic,
        Kind::Cube,
        Kind::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Scan => "scan",
            Kind::Small => "small",
            Kind::Holistic => "holistic",
            Kind::Cube => "cube",
            Kind::Ingest => "ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Table sizes. `check()` shrinks everything so all five workloads and
/// their traces finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub scan_rows: usize,
    pub sparse_rows: usize,
    pub sparse_combos: usize,
    pub small_tables: usize,
    pub small_rows: (usize, usize),
    pub holistic_rows: usize,
    pub cube_rows: usize,
    pub ingest_rows: usize,
    pub batch_rows: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            scan_rows: 1_000_000,
            // Half the rows of the dense tables: the wide tier is ~5x
            // slower per row, and at 1M rows its two classes alone would
            // take a third of the run.
            sparse_rows: 500_000,
            sparse_combos: 5_000,
            small_tables: 32,
            small_rows: (2_000, 8_000),
            holistic_rows: 100_000,
            cube_rows: 1_000_000,
            ingest_rows: 500_000,
            batch_rows: 1_000,
        }
    }

    pub fn check() -> Sizes {
        Sizes {
            scan_rows: 40_000,
            sparse_rows: 20_000,
            sparse_combos: 500,
            small_tables: 4,
            small_rows: (300, 600),
            // Past the engine's percentile budget, so the spill path and
            // its rank-error check still run.
            holistic_rows: 70_000,
            cube_rows: 40_000,
            ingest_rows: 20_000,
            batch_rows: 100,
        }
    }
}

/// SplitMix64: small, seedable, and identical everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` under `seed`.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x51_7c_c1_b7_27_22_0a_95;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Measures are integral in `0..1000`: sums stay exact in f64 whatever
/// the order, so answers are comparable byte for byte at any thread count.
fn amount(rng: &mut Rng) -> f64 {
    rng.below(1000) as f64
}

/// A fact table of uniform integer dimensions plus `amt`.
fn fact_table(name: &str, rows: usize, dims: &[(&str, u64)], rng: &mut Rng) -> RawTable {
    let mut cols: Vec<Vec<i64>> = dims.iter().map(|_| Vec::with_capacity(rows)).collect();
    let mut amt = Vec::with_capacity(rows);
    for _ in 0..rows {
        for (col, (_, card)) in cols.iter_mut().zip(dims) {
            col.push(rng.below(*card) as i64);
        }
        amt.push(amount(rng));
    }
    let mut out: Vec<(String, RawCol)> = dims
        .iter()
        .zip(cols)
        .map(|((n, _), c)| (n.to_string(), RawCol::Int(c)))
        .collect();
    out.push(("amt".into(), RawCol::Float(amt)));
    RawTable {
        name: name.into(),
        cols: out,
    }
}

/// `t` with its rows stably sorted by integer column `by` — long constant
/// runs in that dimension, which is what the RLE fast path needs.
fn sorted_by(t: &RawTable, name: &str, by: &str) -> RawTable {
    let RawCol::Int(key) = t.col(by) else {
        panic!("sort column must be an integer dimension");
    };
    let mut idx: Vec<usize> = (0..t.rows()).collect();
    idx.sort_by_key(|&i| key[i]);
    RawTable {
        name: name.into(),
        cols: t
            .cols
            .iter()
            .map(|(n, c)| {
                let c = match c {
                    RawCol::Int(v) => RawCol::Int(idx.iter().map(|&i| v[i]).collect()),
                    RawCol::Float(v) => RawCol::Float(idx.iter().map(|&i| v[i]).collect()),
                    RawCol::Str(v, d) => {
                        RawCol::Str(idx.iter().map(|&i| v[i]).collect(), d.clone())
                    }
                };
                (n.clone(), c)
            })
            .collect(),
    }
}

/// Replace integer column `col` by a string dimension `<prefix><value>`,
/// so the dictionary and bit-packed readers are exercised too.
fn stringify(t: &mut RawTable, col: &str, prefix: &str) {
    let i = t.col_index(col);
    let RawCol::Int(v) = &t.cols[i].1 else {
        panic!("only integer dimensions are stringified");
    };
    let mut dict: Vec<String> = Vec::new();
    let mut codes = Vec::with_capacity(v.len());
    for x in v {
        let s = format!("{prefix}{x}");
        let code = dict.iter().position(|d| *d == s).unwrap_or_else(|| {
            dict.push(s);
            dict.len() - 1
        });
        codes.push(code as u32);
    }
    t.cols[i].1 = RawCol::Str(codes, dict);
}

fn names(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

fn vpct(by: &[&str], alias: &str) -> Term {
    Term::Vpct {
        by: names(by),
        alias: alias.into(),
    }
}

fn stmt(class: &str, table: &str, group_by: &[&str], terms: Vec<Term>) -> Stmt {
    Stmt {
        class: class.into(),
        table: table.into(),
        measure: "amt".into(),
        group_by: names(group_by),
        grouping: Grouping::Flat,
        terms,
        extras: Vec::new(),
        where_: Vec::new(),
        order_by: false,
    }
}

/// What one workload runs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub kind: Kind,
    /// Closed-loop query clients (`ingest` adds one open-loop writer).
    pub clients: usize,
    /// `PA_THREADS` for the run; `clients x pa_threads <= nproc`.
    pub pa_threads: usize,
    pub tables: Vec<RawTable>,
    /// Distinct statements in builder order, which is also first-touch
    /// order: which lattice levels end up cached depends on which statement
    /// scans first, and a workload's steady state must not depend on the
    /// seed.
    pub stmts: Vec<Stmt>,
    /// The seeded order statements are issued in (indices into `stmts`);
    /// client `i` of `n` starts `i/n` of the way round this cycle.
    pub order: Vec<usize>,
    pub batch_rows: usize,
}

impl Plan {
    pub fn table(&self, name: &str) -> &RawTable {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("no generated table {name}"))
    }

    /// Query classes in first-appearance order.
    pub fn classes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.stmts {
            if !out.contains(&s.class) {
                out.push(s.class.clone());
            }
        }
        out
    }
}

pub fn build(kind: Kind, seed: u64, sizes: &Sizes, nproc: usize) -> Plan {
    let mut rng = Rng::stream(seed, kind.name());
    let (tables, stmts) = match kind {
        Kind::Scan => scan(sizes, &mut rng),
        Kind::Small => small(sizes, &mut rng),
        Kind::Holistic => holistic(sizes, &mut rng),
        Kind::Cube => cube(sizes, &mut rng),
        Kind::Ingest => ingest(sizes, &mut rng),
    };
    let mut order: Vec<usize> = (0..stmts.len()).collect();
    rng.shuffle(&mut order);
    let (clients, pa_threads) = match kind {
        // One client, the morsel layer gets half the cores. The engine's
        // other threads run on cores no calibration kernel reads (only the
        // client's own thread runs one), and a neighbour slows one core
        // without the next: with every core in use, ten runs on a 2-vCPU
        // host lay 14-21% apart end to end in cost, with half of them 6-8%.
        Kind::Scan | Kind::Holistic => (1, (nproc / 2).max(1)),
        Kind::Small | Kind::Cube => (nproc, 1),
        // The writer takes one core's worth; at least one reader remains.
        Kind::Ingest => (nproc.saturating_sub(1).max(1), 1),
    };
    Plan {
        kind,
        clients,
        pa_threads,
        tables,
        stmts,
        order,
        batch_rows: sizes.batch_rows,
    }
}

fn scan(sizes: &Sizes, rng: &mut Rng) -> (Vec<RawTable>, Vec<Stmt>) {
    let n = sizes.scan_rows;
    let f7 = fact_table("f7", n, &[("store", 101), ("day", 7)], rng);
    let f50 = fact_table("f50", n, &[("store", 101), ("day", 50)], rng);
    let f7_sorted = sorted_by(
        &fact_table("f7_unsorted", n, &[("store", 101), ("day", 7)], rng),
        "f7_sorted",
        "day",
    );
    // A 2000 x 2000 code space (past the dense budget of 2^20) in which
    // only `sparse_combos` pairs occur: the wide/hash tier.
    let combos: Vec<(i64, i64)> = (0..sizes.sparse_combos)
        .map(|_| (rng.below(2000) as i64, rng.below(2000) as i64))
        .collect();
    let m = sizes.sparse_rows;
    let (mut a, mut b, mut k, mut amt) = (
        Vec::with_capacity(m),
        Vec::with_capacity(m),
        Vec::with_capacity(m),
        Vec::with_capacity(m),
    );
    for _ in 0..m {
        let (x, y) = combos[rng.below(combos.len() as u64) as usize];
        a.push(x);
        b.push(y);
        k.push(rng.below(5) as i64);
        amt.push(amount(rng));
    }
    let fsparse = RawTable {
        name: "fsparse".into(),
        cols: vec![
            ("a".into(), RawCol::Int(a)),
            ("b".into(), RawCol::Int(b)),
            ("k".into(), RawCol::Int(k)),
            ("amt".into(), RawCol::Float(amt)),
        ],
    };

    let mut stmts = Vec::new();
    for t in ["f7", "f50", "f7_sorted"] {
        stmts.push(stmt(
            &format!("vpct_{t}"),
            t,
            &["store", "day"],
            vec![vpct(&["day"], "pct")],
        ));
        stmts.push(stmt(
            &format!("hpct_{t}"),
            t,
            &["store"],
            vec![Term::Hpct {
                by: names(&["day"]),
            }],
        ));
        stmts.push(stmt(
            &format!("hsum_{t}"),
            t,
            &["store"],
            vec![Term::HSum {
                by: names(&["day"]),
            }],
        ));
    }
    stmts.push(stmt(
        "vpct_fsparse",
        "fsparse",
        &["a", "b"],
        vec![vpct(&["b"], "pct")],
    ));
    stmts.push(stmt(
        "hpct_fsparse",
        "fsparse",
        &["a", "b"],
        vec![Term::Hpct { by: names(&["k"]) }],
    ));
    (vec![f7, f50, f7_sorted, fsparse], stmts)
}

fn small(sizes: &Sizes, rng: &mut Rng) -> (Vec<RawTable>, Vec<Stmt>) {
    let mut tables = Vec::new();
    let mut stmts = Vec::new();
    let (lo, hi) = sizes.small_rows;
    // The same row and store counts on every seed, dealt to the tables in
    // seeded order: drawn freely, the 32 sizes moved the workload's cost by
    // a few percent from seed to seed.
    let n = sizes.small_tables;
    let mut shapes: Vec<(usize, u64)> = (0..n)
        .map(|i| {
            (
                lo + (hi - lo) * i / (n - 1).max(1),
                11 + (i as u64 * 7) % 30,
            )
        })
        .collect();
    rng.shuffle(&mut shapes);
    for (i, (rows, stores)) in shapes.into_iter().enumerate() {
        let name = format!("s{i:02}");
        let mut t = fact_table(
            &name,
            rows,
            &[("store", stores), ("day", 7), ("region", 4)],
            rng,
        );
        // Store 0 sells nothing: its totals are zero, so its percentages
        // must come back NULL, not NaN or a division error.
        let zero: Vec<usize> = match t.col("store") {
            RawCol::Int(v) => (0..rows).filter(|&r| v[r] == 0).collect(),
            _ => unreachable!(),
        };
        let amt = t.col_index("amt");
        for r in zero {
            t.set_cell(r, amt, &crate::data::Cell::Float(0.0));
        }
        stringify(&mut t, "region", "r");
        tables.push(t);

        stmts.push(stmt(
            "vpct",
            &name,
            &["store", "day"],
            vec![vpct(&["day"], "pct")],
        ));
        let mut s = stmt(
            "vpct_multi",
            &name,
            &["store", "day", "region"],
            vec![vpct(&["day", "region"], "pct"), vpct(&["region"], "pct2")],
        );
        s.extras = vec![Extra::Sum, Extra::CountStar];
        stmts.push(s);
        let mut s = stmt(
            "hpct_order",
            &name,
            &["store"],
            vec![Term::Hpct {
                by: names(&["day"]),
            }],
        );
        s.extras = vec![Extra::Sum];
        s.order_by = true;
        stmts.push(s);
        stmts.push(stmt(
            "hagg_multi",
            &name,
            &["store"],
            vec![
                Term::HSum {
                    by: names(&["region"]),
                },
                Term::HCount {
                    by: names(&["day"]),
                },
            ],
        ));
        let mut s = stmt(
            "vpct_where",
            &name,
            &["store", "day"],
            vec![vpct(&["day"], "pct")],
        );
        s.where_ = vec![Pred {
            col: "amt".into(),
            op: CmpOp::Ge,
            value: 100 + rng.below(400) as i64,
        }];
        s.order_by = true;
        stmts.push(s);
        let mut s = stmt(
            "hpct_where",
            &name,
            &["region"],
            vec![Term::Hpct {
                by: names(&["day"]),
            }],
        );
        s.where_ = vec![
            Pred {
                col: "day".into(),
                op: CmpOp::Ne,
                value: rng.below(7) as i64,
            },
            Pred {
                col: "amt".into(),
                op: CmpOp::Lt,
                value: 500 + rng.below(400) as i64,
            },
        ];
        stmts.push(s);
    }
    (tables, stmts)
}

fn holistic(sizes: &Sizes, rng: &mut Rng) -> (Vec<RawTable>, Vec<Stmt>) {
    let h = fact_table("h", sizes.holistic_rows, &[("store", 101), ("day", 7)], rng);
    let hpct = || {
        vec![Term::Hpct {
            by: names(&["day"]),
        }]
    };
    let mut stmts = Vec::new();
    let mut add = |class: &str, group_by: &[&str], terms: Vec<Term>, extras: Vec<Extra>| {
        let mut s = stmt(class, "h", group_by, terms);
        s.extras = extras;
        stmts.push(s);
    };
    let p = [0.25, 0.75, 0.9][rng.below(3) as usize];
    add("hpct_median", &["store"], hpct(), vec![Extra::Median]);
    add(
        "hpct_percentile",
        &["store"],
        hpct(),
        vec![Extra::Percentile(p)],
    );
    add(
        "hpct_approx",
        &["store"],
        hpct(),
        vec![
            Extra::ApproxPercentile(p),
            Extra::ApproxCountDistinct("day".into()),
        ],
    );
    add(
        "vpct_median",
        &["store", "day"],
        vec![vpct(&["day"], "pct")],
        vec![Extra::Median],
    );
    add(
        "vpct_approx",
        &["store", "day"],
        vec![vpct(&["day"], "pct")],
        vec![
            Extra::ApproxPercentile(0.5),
            Extra::ApproxCountDistinct("day".into()),
        ],
    );
    add(
        "vpct_percentile",
        &["store", "day"],
        vec![vpct(&["day"], "pct")],
        vec![Extra::Percentile(p)],
    );
    // One group holding every row: past the engine's per-group sample
    // budget, so the exact percentile spills to a t-digest.
    add("hpct_spill", &[], hpct(), vec![Extra::Median]);
    (vec![h], stmts)
}

const CUBE_DIMS: [(&str, u64); 4] = [("store", 23), ("day", 7), ("region", 5), ("month", 12)];

/// Every statement here carries the alias `pct` (multi-term ones `pct`,
/// `pct2`) and touches lattice levels the other signature does not: the
/// engine keys cached level partials by `(table, level)` and replaces an
/// entry whose lane names differ, so differently named statements sharing a
/// level would evict each other and the workload would measure rescans,
/// not the hit path.
fn cube(sizes: &Sizes, rng: &mut Rng) -> (Vec<RawTable>, Vec<Stmt>) {
    let mut c = fact_table("c", sizes.cube_rows, &CUBE_DIMS, rng);
    stringify(&mut c, "region", "r");
    let mut stmts = Vec::new();
    let all = ["store", "day", "region", "month"];
    // Builder order is first-touch order (see `build`): the CUBE goes first
    // so its one cold scan caches every subset of (store, day, region), and
    // the statements after it find exact entries instead of re-aggregating
    // a finer level on every request.
    let mut s = stmt("cube3", "c", &all[..3], vec![vpct(&["region"], "pct")]);
    s.grouping = Grouping::Cube;
    stmts.push(s);
    let mut s = stmt("sets2", "c", &all[..2], vec![vpct(&["day"], "pct")]);
    s.grouping = Grouping::Sets(vec![names(&["store", "day"]), names(&["store"])]);
    stmts.push(s);
    let mut s = stmt(
        "sets3",
        "c",
        &all[..3],
        vec![vpct(&["day", "region"], "pct")],
    );
    s.grouping = Grouping::Sets(vec![
        names(&["store", "day", "region"]),
        names(&["store", "region"]),
        names(&["region"]),
    ]);
    stmts.push(s);
    let mut s = stmt("rollup4", "c", &all, vec![vpct(&["month"], "pct")]);
    s.grouping = Grouping::Rollup;
    stmts.push(s);
    let mut s = stmt(
        "rollup4_by2",
        "c",
        &all,
        vec![vpct(&["region", "month"], "pct")],
    );
    s.grouping = Grouping::Rollup;
    stmts.push(s);
    stmts.push(stmt(
        "multi_month_region",
        "c",
        &["month", "region"],
        vec![vpct(&["region"], "pct"), vpct(&[], "pct2")],
    ));
    stmts.push(stmt(
        "multi_month_day",
        "c",
        &["month", "day"],
        vec![vpct(&["day"], "pct"), vpct(&[], "pct2")],
    ));
    (vec![c], stmts)
}

/// Three flat `Vpct` scans, one `Hpct`, one `ROLLUP`. A read is ~1 ms
/// when no write came since the statement last ran and up to ~15 ms
/// otherwise; the driver keys each sample by which (`Sample::cold`).
fn ingest(sizes: &Sizes, rng: &mut Rng) -> (Vec<RawTable>, Vec<Stmt>) {
    let g = fact_table("g", sizes.ingest_rows, &CUBE_DIMS, rng);
    let mut stmts = vec![
        stmt(
            "vpct_store_day",
            "g",
            &["store", "day"],
            vec![vpct(&["day"], "pct")],
        ),
        stmt(
            "vpct_region_month",
            "g",
            &["region", "month"],
            vec![vpct(&["month"], "pct")],
        ),
        stmt(
            "vpct_store_month",
            "g",
            &["store", "month"],
            vec![vpct(&["month"], "pct")],
        ),
        stmt(
            "hpct",
            "g",
            &["store"],
            vec![Term::Hpct {
                by: names(&["day"]),
            }],
        ),
    ];
    let mut s = stmt(
        "rollup3",
        "g",
        &["store", "day", "region"],
        vec![vpct(&["region"], "pct")],
    );
    s.grouping = Grouping::Rollup;
    stmts.push(s);
    (vec![g], stmts)
}

/// The rows of write batch `seq` for `ingest`: a pure function of the seed
/// and the batch number, so the shadow copy and the engine see the same
/// rows whichever thread generates them.
pub fn ingest_batch(seed: u64, seq: u64, rows: usize) -> Vec<Vec<crate::data::Cell>> {
    use crate::data::Cell;
    let mut rng = Rng::stream(
        seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        "ingest-batch",
    );
    (0..rows)
        .map(|_| {
            let mut row: Vec<Cell> = CUBE_DIMS
                .iter()
                .map(|(_, card)| Cell::Int(rng.below(*card) as i64))
                .collect();
            row.push(Cell::Float(amount(&mut rng)));
            row
        })
        .collect()
}

/// The single-cell update that follows batch `seq`: `(row, new amt)`.
pub fn ingest_update(seed: u64, seq: u64, table_rows: usize) -> (usize, f64) {
    let mut rng = Rng::stream(
        seed ^ seq.wrapping_mul(0xbf58_476d_1ce4_e5b9),
        "ingest-update",
    );
    (rng.below(table_rows as u64) as usize, amount(&mut rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(p: &Plan) -> (Vec<u64>, Vec<String>) {
        (
            p.tables.iter().map(RawTable::fingerprint).collect(),
            p.order.iter().map(|&i| p.stmts[i].sql()).collect(),
        )
    }

    #[test]
    fn same_seed_same_tables_and_sql_different_seed_differs() {
        let sizes = Sizes::check();
        for kind in Kind::ALL {
            let a = fingerprint(&build(kind, 7, &sizes, 2));
            let b = fingerprint(&build(kind, 7, &sizes, 2));
            let c = fingerprint(&build(kind, 8, &sizes, 2));
            assert_eq!(a, b, "{} is not a function of its seed", kind.name());
            assert_ne!(a.0, c.0, "{} tables ignore the seed", kind.name());
        }
        // Statement order and literals move with the seed as well.
        let a = fingerprint(&build(Kind::Small, 7, &sizes, 2));
        let c = fingerprint(&build(Kind::Small, 8, &sizes, 2));
        assert_ne!(a.1, c.1);
    }

    #[test]
    fn the_class_mix_does_not_depend_on_the_seed() {
        let sizes = Sizes::check();
        for kind in Kind::ALL {
            let mut a = build(kind, 1, &sizes, 2).classes();
            let mut b = build(kind, 99, &sizes, 2).classes();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn write_batches_are_a_function_of_seed_and_sequence() {
        assert_eq!(ingest_batch(3, 5, 10), ingest_batch(3, 5, 10));
        assert_ne!(ingest_batch(3, 5, 10), ingest_batch(3, 6, 10));
        assert_eq!(ingest_update(3, 5, 100), ingest_update(3, 5, 100));
    }

    #[test]
    fn thread_budget_never_exceeds_nproc() {
        for nproc in [1, 2, 4, 8] {
            for kind in Kind::ALL {
                let p = build(kind, 1, &Sizes::check(), nproc);
                let writer = usize::from(kind == Kind::Ingest);
                assert!(p.clients * p.pa_threads + writer <= nproc.max(1 + writer));
            }
        }
    }
}
