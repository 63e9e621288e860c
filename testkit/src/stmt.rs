//! A percentage statement as the kit knows it, rendered two ways: as SQL
//! text in the paper's dialect and as the typed query the library's typed
//! entry points take. The oracle reads only this form.

use pa_core::{ExtraAgg, HorizontalQuery, HorizontalTerm, Measure, VpctQuery, VpctTerm};
use pa_engine::AggFunc;
use pa_storage::Value;

/// The grouping of a statement: one `GROUP BY` list, or grouping sets over
/// it (each set grouped on its own, the columns it leaves out read as the
/// ALL marker, NULL).
#[derive(Debug, Clone, PartialEq)]
pub enum Sets {
    Flat,
    Rollup,
    Cube,
    /// `GROUPING SETS (..)`: each set lists columns of `group_by`.
    Sets(Vec<Vec<String>>),
}

/// One aggregate term, as the typed queries hold it.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// `Vpct(measure BY by) AS name`.
    Vpct(VpctTerm),
    /// `Hpct(..)` when `percentage`, else `func(measure BY by [DEFAULT 0])`;
    /// `count(*)` is `CountStar` over the literal 1.
    Horizontal(HorizontalTerm),
}

/// `WHERE column op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    pub column: String,
    /// One of `<`, `>=`, `<>`, `=`.
    pub op: &'static str,
    pub literal: Value,
}

/// `SELECT group_by, terms, extras FROM table [WHERE] GROUP BY .. [ORDER BY
/// group_by]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub table: String,
    pub group_by: Vec<String>,
    pub sets: Sets,
    pub terms: Vec<Term>,
    /// Plain aggregates beside the terms; `count(*)` has no measure.
    pub extras: Vec<ExtraAgg>,
    pub filter: Option<Filter>,
    pub order_by: bool,
}

impl Stmt {
    /// A flat statement over `table` with no terms yet.
    pub fn new(table: &str, group_by: &[&str]) -> Stmt {
        Stmt {
            table: table.to_string(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            sets: Sets::Flat,
            terms: Vec::new(),
            extras: Vec::new(),
            filter: None,
            order_by: false,
        }
    }

    /// Add `Vpct(measure BY by) AS name`; a measure is a column name, or
    /// an integer for a literal.
    pub fn vpct(mut self, measure: &str, by: &[&str], name: &str) -> Stmt {
        let (measure, by, name) = (measure_of(measure), names(by), name.to_string());
        self.terms.push(Term::Vpct(VpctTerm { measure, by, name }));
        self
    }

    /// Add `Hpct(measure BY by) AS name`.
    pub fn hpct(self, measure: &str, by: &[&str], name: &str) -> Stmt {
        self.horizontal(AggFunc::Sum, Some(measure), by, (true, false), name)
    }

    /// Add `func(measure BY by [DEFAULT 0]) AS name` (`Hpct` when
    /// `percentage`; `count(*)` when `measure` is `None`).
    pub fn horizontal(
        mut self,
        func: AggFunc,
        measure: Option<&str>,
        by: &[&str],
        (percentage, default_zero): (bool, bool),
        name: &str,
    ) -> Stmt {
        self.terms.push(Term::Horizontal(HorizontalTerm {
            func,
            measure: measure_of(measure.unwrap_or("1")),
            by: names(by),
            percentage,
            default_zero,
            name: name.to_string(),
        }));
        self
    }

    /// Add `func(measure) AS name` (`count(*)` when `measure` is `None`).
    pub fn extra(mut self, func: AggFunc, measure: Option<&str>, name: &str) -> Stmt {
        self.extras.push(ExtraAgg {
            func,
            measure: measure.map(measure_of),
            name: name.to_string(),
        });
        self
    }

    /// With `GROUP BY ROLLUP`.
    pub fn rollup(self) -> Stmt {
        Stmt {
            sets: Sets::Rollup,
            ..self
        }
    }

    /// With `ORDER BY` the `GROUP BY` columns.
    pub fn ordered(self) -> Stmt {
        Stmt {
            order_by: true,
            ..self
        }
    }

    /// With `WHERE column op literal`.
    pub fn filter(self, column: &str, op: &'static str, literal: Value) -> Stmt {
        let column = column.to_string();
        let filter = Some(Filter {
            column,
            op,
            literal,
        });
        Stmt { filter, ..self }
    }

    /// Is this a `Vpct` statement (else `Hpct`/`Hagg`)?
    pub fn is_vertical(&self) -> bool {
        matches!(self.terms.first(), Some(Term::Vpct(_)))
    }

    /// The grouping sets, each in `GROUP BY` order.
    pub fn grouping_sets(&self) -> Vec<Vec<String>> {
        let k = self.group_by.len();
        let pick = |keep: &dyn Fn(usize) -> bool| -> Vec<String> {
            (0..k)
                .filter(|&i| keep(i))
                .map(|i| self.group_by[i].clone())
                .collect()
        };
        match &self.sets {
            Sets::Flat => vec![self.group_by.clone()],
            Sets::Rollup => (0..=k).rev().map(|n| pick(&|i| i < n)).collect(),
            Sets::Cube => (0..1usize << k)
                .rev()
                .map(|mask| pick(&|i| mask >> (k - 1 - i) & 1 == 1))
                .collect(),
            Sets::Sets(sets) => sets
                .iter()
                .map(|set| pick(&|i| set.contains(&self.group_by[i])))
                .collect(),
        }
    }

    /// The statement as SQL text.
    pub fn sql(&self) -> String {
        let mut items: Vec<String> = self.group_by.clone();
        let by = |by: &[String]| match by.is_empty() {
            true => String::new(),
            false => format!(" BY {}", by.join(", ")),
        };
        for term in &self.terms {
            items.push(match term {
                Term::Vpct(t) => format!("Vpct({}{}) AS {}", sql_of(&t.measure), by(&t.by), t.name),
                Term::Horizontal(t) => {
                    let zero = if t.default_zero { " DEFAULT 0" } else { "" };
                    let call = match t.percentage {
                        true => format!("Hpct({}", sql_of(&t.measure)),
                        false => call(t.func, Some(&t.measure)),
                    };
                    format!("{call}{}{zero}) AS {}", by(&t.by), t.name)
                }
            });
        }
        for e in &self.extras {
            items.push(format!(
                "{}) AS {}",
                call(e.func, e.measure.as_ref()),
                e.name
            ));
        }
        let mut sql = format!("SELECT {} FROM {}", items.join(", "), self.table);
        if let Some(f) = &self.filter {
            let lit = match &f.literal {
                Value::Str(s) => format!("'{s}'"),
                other => other.to_string(),
            };
            sql += &format!(" WHERE {} {} {lit}", f.column, f.op);
        }
        let list = self.group_by.join(", ");
        match &self.sets {
            Sets::Flat if list.is_empty() => {}
            Sets::Flat => sql += &format!(" GROUP BY {list}"),
            Sets::Rollup => sql += &format!(" GROUP BY ROLLUP ({list})"),
            Sets::Cube => sql += &format!(" GROUP BY CUBE ({list})"),
            Sets::Sets(sets) => {
                let sets: Vec<String> =
                    sets.iter().map(|s| format!("({})", s.join(", "))).collect();
                sql += &format!(" GROUP BY GROUPING SETS ({})", sets.join(", "));
            }
        }
        if self.order_by {
            sql += &format!(" ORDER BY {list}");
        }
        sql + ";"
    }

    /// The typed `Vpct` query (flat, no `WHERE`, no `ORDER BY`).
    pub fn vpct_query(&self) -> VpctQuery {
        assert!(self.sets == Sets::Flat && self.filter.is_none());
        let terms = self.terms.iter().map(|term| match term {
            Term::Vpct(t) => t.clone(),
            Term::Horizontal(_) => panic!("a Vpct statement holds Vpct terms"),
        });
        let (table, group_by) = (self.table.clone(), self.group_by.clone());
        let (terms, extra) = (terms.collect(), self.extras.clone());
        VpctQuery {
            table,
            group_by,
            terms,
            extra,
        }
    }

    /// The typed horizontal query (flat, no `WHERE`, no `ORDER BY`).
    pub fn horizontal_query(&self) -> HorizontalQuery {
        assert!(self.sets == Sets::Flat && self.filter.is_none());
        let terms = self.terms.iter().map(|term| match term {
            Term::Horizontal(t) => t.clone(),
            Term::Vpct(_) => panic!("a horizontal statement holds horizontal terms"),
        });
        let (table, group_by) = (self.table.clone(), self.group_by.clone());
        let (terms, extra) = (terms.collect(), self.extras.clone());
        HorizontalQuery {
            table,
            group_by,
            terms,
            extra,
        }
    }
}

fn names(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|s| s.to_string()).collect()
}

/// A measure: a column name, or an integer literal.
fn measure_of(m: &str) -> Measure {
    match m.parse::<i64>() {
        Ok(i) => Measure::LitInt(i),
        Err(_) => Measure::Column(m.to_string()),
    }
}

/// `func(measure`, open for a `BY` list: `count(*` for `CountStar`.
fn call(func: AggFunc, m: Option<&Measure>) -> String {
    match (func, m) {
        (AggFunc::CountStar, _) | (_, None) => "count(*".to_string(),
        (func, Some(m)) => format!("{}({}", func.sql_name(), sql_of(m)),
    }
}

/// A measure as SQL text.
fn sql_of(m: &Measure) -> String {
    match m {
        Measure::Column(name) => name.clone(),
        Measure::LitInt(i) => i.to_string(),
        Measure::LitFloat(x) => x.to_string(),
    }
}
