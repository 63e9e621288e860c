//! The statements the harness issues: a small structured form that renders
//! to SQL text for the engine and is evaluated directly by the reference.

use std::fmt::Write as _;

/// Shape of the GROUP BY clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Grouping {
    Flat,
    Rollup,
    Cube,
    /// Explicit sets, each a list of `group_by` column names.
    Sets(Vec<Vec<String>>),
}

/// A percentage or horizontal term over the statement's measure.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Vpct {
        by: Vec<String>,
        alias: String,
    },
    Hpct {
        by: Vec<String>,
    },
    /// `sum(measure BY ..)`.
    HSum {
        by: Vec<String>,
    },
    /// `count(* BY ..)`.
    HCount {
        by: Vec<String>,
    },
}

/// A plain aggregate riding the same GROUP BY.
#[derive(Debug, Clone, PartialEq)]
pub enum Extra {
    Sum,
    CountStar,
    Median,
    Percentile(f64),
    ApproxPercentile(f64),
    /// `approx_count_distinct(column)`.
    ApproxCountDistinct(String),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CmpOp {
    Lt,
    Ge,
    Ne,
}

/// `column op literal`; a statement's predicates are ANDed.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub col: String,
    pub op: CmpOp,
    pub value: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Query class: statements of one class cost about the same and are
    /// replayed together in the traced run.
    pub class: String,
    pub table: String,
    pub measure: String,
    pub group_by: Vec<String>,
    pub grouping: Grouping,
    pub terms: Vec<Term>,
    pub extras: Vec<Extra>,
    pub where_: Vec<Pred>,
    /// `ORDER BY` the GROUP BY columns.
    pub order_by: bool,
}

impl Stmt {
    pub fn is_vertical(&self) -> bool {
        matches!(self.terms[0], Term::Vpct { .. })
    }

    pub fn is_holistic(&self) -> bool {
        self.extras
            .iter()
            .any(|e| !matches!(e, Extra::Sum | Extra::CountStar))
    }

    /// The grouping sets in the engine's evaluation order (only the set of
    /// sets matters to the reference; answers compare as sorted rows).
    pub fn grouping_sets(&self) -> Vec<Vec<String>> {
        let g = &self.group_by;
        match &self.grouping {
            Grouping::Flat => vec![g.clone()],
            Grouping::Rollup => (0..=g.len()).rev().map(|k| g[..k].to_vec()).collect(),
            Grouping::Cube => (0..1usize << g.len())
                .rev()
                .map(|mask| {
                    g.iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> (g.len() - 1 - i) & 1 == 1)
                        .map(|(_, c)| c.clone())
                        .collect()
                })
                .collect(),
            Grouping::Sets(sets) => sets.clone(),
        }
    }

    pub fn sql(&self) -> String {
        let m = &self.measure;
        let mut items: Vec<String> = self.group_by.clone();
        for t in &self.terms {
            items.push(match t {
                Term::Vpct { by, alias } if by.is_empty() => format!("Vpct({m}) AS {alias}"),
                Term::Vpct { by, alias } => format!("Vpct({m} BY {}) AS {alias}", by.join(", ")),
                Term::Hpct { by } => format!("Hpct({m} BY {})", by.join(", ")),
                Term::HSum { by } => format!("sum({m} BY {})", by.join(", ")),
                Term::HCount { by } => format!("count(* BY {})", by.join(", ")),
            });
        }
        for (i, e) in self.extras.iter().enumerate() {
            items.push(match e {
                Extra::Sum => format!("sum({m}) AS x{i}"),
                Extra::CountStar => format!("count(*) AS x{i}"),
                Extra::Median => format!("median({m}) AS x{i}"),
                Extra::Percentile(p) => format!("percentile({m}, {p}) AS x{i}"),
                Extra::ApproxPercentile(p) => format!("approx_percentile({m}, {p}) AS x{i}"),
                Extra::ApproxCountDistinct(c) => format!("approx_count_distinct({c}) AS x{i}"),
            });
        }
        let mut sql = format!("SELECT {} FROM {}", items.join(", "), self.table);
        for (i, p) in self.where_.iter().enumerate() {
            let op = match p.op {
                CmpOp::Lt => "<",
                CmpOp::Ge => ">=",
                CmpOp::Ne => "<>",
            };
            let kw = if i == 0 { "WHERE" } else { "AND" };
            let _ = write!(sql, " {kw} {} {op} {}", p.col, p.value);
        }
        let cols = self.group_by.join(", ");
        match &self.grouping {
            Grouping::Flat if self.group_by.is_empty() => {}
            Grouping::Flat => {
                let _ = write!(sql, " GROUP BY {cols}");
            }
            Grouping::Rollup => {
                let _ = write!(sql, " GROUP BY ROLLUP({cols})");
            }
            Grouping::Cube => {
                let _ = write!(sql, " GROUP BY CUBE({cols})");
            }
            Grouping::Sets(sets) => {
                let sets: Vec<String> =
                    sets.iter().map(|s| format!("({})", s.join(", "))).collect();
                let _ = write!(sql, " GROUP BY GROUPING SETS({})", sets.join(", "));
            }
        }
        if self.order_by && !self.group_by.is_empty() {
            let _ = write!(sql, " ORDER BY {cols}");
        }
        sql
    }
}
