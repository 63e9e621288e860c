//! Row expressions: arithmetic, comparisons, boolean logic, CASE WHEN.
//!
//! Expressions are evaluated per row against the rows a scan reads: a
//! measure, a `CASE`-guarded cell, a predicate. NULL follows SQL
//! three-valued logic. After the scan every column is typed: a percentage
//! is [`divide`](crate::divide), not an expression.

use crate::error::{EngineError, Result};
use crate::stats::ExecStats;
use pa_storage::{DataType, Schema, Table, Value};

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (NULL when either side is NULL, and for a zero divisor,
    /// where a SQL engine raises).
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

/// A row expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Three-valued comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Null-safe equality with grouping semantics (`IS NOT DISTINCT FROM`):
    /// NULL matches NULL, result is never NULL. This is how generated plans
    /// match subgroup combinations, which are *group keys* — a NULL
    /// dimension value is a legitimate group.
    KeyEq(Box<Expr>, Box<Expr>),
    /// Three-valued conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Three-valued disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Three-valued negation.
    Not(Box<Expr>),
    /// `CASE WHEN c1 THEN v1 WHEN c2 THEN v2 ... [ELSE e] END`.
    /// Without an ELSE the result is NULL — the form horizontal
    /// aggregations generate.
    Case {
        /// `(condition, result)` branches, evaluated in order.
        branches: Vec<(Expr, Expr)>,
        /// Optional ELSE result.
        else_value: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Column reference by name, resolved against `schema`.
    pub fn col(schema: &Schema, name: &str) -> Result<Expr> {
        Ok(Expr::Col(schema.index_of(name)?))
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }

    /// Conjunction of `col_i = value_i` over the given pairs — the boolean
    /// form horizontal strategies generate for each result column. Uses
    /// null-safe equality so NULL group keys match their own column.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: a key match over zero columns has no
    /// boolean meaning. Callers materialize it from a validated `BY` list,
    /// which the SQL layer guarantees is non-empty.
    pub fn key_match(pairs: &[(usize, Value)]) -> Expr {
        let mut it = pairs.iter();
        let (c0, v0) = it.next().expect("key_match needs at least one pair");
        let mut expr = Expr::KeyEq(Box::new(Expr::Col(*c0)), Box::new(Expr::Lit(v0.clone())));
        for (c, v) in it {
            expr = expr.and(Expr::KeyEq(
                Box::new(Expr::Col(*c)),
                Box::new(Expr::Lit(v.clone())),
            ));
        }
        expr
    }

    /// Static output type, when derivable. Comparisons/logic are Int (0/1),
    /// arithmetic is Float unless both sides are Int and the op is not Div.
    pub fn output_type(&self, schema: &Schema) -> Option<DataType> {
        match self {
            Expr::Col(i) => Some(schema.field_at(*i).dtype),
            Expr::Lit(v) => v.data_type(),
            Expr::Arith(op, l, r) => {
                let lt = l.output_type(schema)?;
                let rt = r.output_type(schema)?;
                if *op != ArithOp::Div && lt == DataType::Int && rt == DataType::Int {
                    Some(DataType::Int)
                } else {
                    Some(DataType::Float)
                }
            }
            Expr::Cmp(..) | Expr::KeyEq(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => {
                Some(DataType::Int)
            }
            Expr::Case {
                branches,
                else_value,
            } => branches
                .iter()
                .filter_map(|(_, v)| v.output_type(schema))
                .next()
                .or_else(|| else_value.as_ref().and_then(|e| e.output_type(schema))),
        }
    }

    /// Evaluate against row `row` of `table`, accumulating work into `stats`.
    pub fn eval(&self, table: &Table, row: usize, stats: &mut ExecStats) -> Result<Value> {
        match self {
            Expr::Col(i) => {
                let col = table.columns().get(*i).ok_or_else(|| {
                    EngineError::InvalidOperator(format!(
                        "column {i} out of range ({} columns)",
                        table.num_columns()
                    ))
                })?;
                Ok(col.get(row))
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Arith(op, l, r) => {
                let lv = l.eval(table, row, stats)?;
                let rv = r.eval(table, row, stats)?;
                arith(*op, &lv, &rv)
            }
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(table, row, stats)?;
                let rv = r.eval(table, row, stats)?;
                Ok(compare(*op, &lv, &rv))
            }
            Expr::KeyEq(l, r) => {
                let lv = l.eval(table, row, stats)?;
                let rv = r.eval(table, row, stats)?;
                Ok(Value::Int(lv.key_eq(&rv) as i64))
            }
            Expr::And(l, r) => {
                let lv = truth(&l.eval(table, row, stats)?);
                // SQL AND short-circuits on FALSE only.
                if lv == Some(false) {
                    return Ok(Value::Int(0));
                }
                let rv = truth(&r.eval(table, row, stats)?);
                Ok(match (lv, rv) {
                    (_, Some(false)) => Value::Int(0),
                    (Some(true), Some(true)) => Value::Int(1),
                    _ => Value::Null,
                })
            }
            Expr::Or(l, r) => {
                let lv = truth(&l.eval(table, row, stats)?);
                if lv == Some(true) {
                    return Ok(Value::Int(1));
                }
                let rv = truth(&r.eval(table, row, stats)?);
                Ok(match (lv, rv) {
                    (_, Some(true)) => Value::Int(1),
                    (Some(false), Some(false)) => Value::Int(0),
                    _ => Value::Null,
                })
            }
            Expr::Not(e) => Ok(match truth(&e.eval(table, row, stats)?) {
                Some(b) => Value::Int(!b as i64),
                None => Value::Null,
            }),
            Expr::Case {
                branches,
                else_value,
            } => {
                for (cond, result) in branches {
                    stats.case_condition_evals += 1;
                    if truth(&cond.eval(table, row, stats)?) == Some(true) {
                        return result.eval(table, row, stats);
                    }
                }
                match else_value {
                    Some(e) => e.eval(table, row, stats),
                    None => Ok(Value::Null),
                }
            }
        }
    }
}

/// The three-valued truth of a value: NULL and strings are unknown.
pub(crate) fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        Value::Str(_) => None,
    }
}

fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Int-preserving fast path for +,-,* on two ints.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            ArithOp::Add => return Ok(Value::Int(a.wrapping_add(*b))),
            ArithOp::Sub => return Ok(Value::Int(a.wrapping_sub(*b))),
            ArithOp::Mul => return Ok(Value::Int(a.wrapping_mul(*b))),
            ArithOp::Div => {}
        }
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(EngineError::ExprType(format!(
                "arithmetic on non-numeric values {l} and {r}"
            )));
        }
    };
    Ok(match op {
        ArithOp::Add => Value::Float(a + b),
        ArithOp::Sub => Value::Float(a - b),
        ArithOp::Mul => Value::Float(a * b),
        ArithOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
    })
}

/// `l op r`: NULL when either side is, ordering by [`Value::total_cmp`],
/// equality by [`Value::key_eq`].
pub(crate) fn compare(op: CmpOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    let ord = l.total_cmp(r);
    let b = match op {
        CmpOp::Eq => l.key_eq(r),
        CmpOp::Ne => !l.key_eq(r),
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    };
    Value::Int(b as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::Schema;
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("d", DataType::Str),
            ("a", DataType::Float),
            ("b", DataType::Int),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::str("x"), Value::Float(10.0), Value::Int(2)])
            .unwrap();
        t.push_row(&[Value::str("y"), Value::Float(4.0), Value::Int(0)])
            .unwrap();
        t.push_row(&[Value::Null, Value::Null, Value::Int(5)])
            .unwrap();
        t
    }

    fn eval(e: &Expr, t: &Table, row: usize) -> Value {
        e.eval(t, row, &mut ExecStats::default()).unwrap()
    }

    #[test]
    fn col_and_lit() {
        let t = table();
        let s = t.schema();
        assert_eq!(eval(&Expr::col(s, "a").unwrap(), &t, 0), Value::Float(10.0));
        assert_eq!(eval(&Expr::lit(3), &t, 0), Value::Int(3));
        assert_eq!(eval(&Expr::col(s, "d").unwrap(), &t, 2), Value::Null);
    }

    #[test]
    fn arithmetic_and_null_propagation() {
        let t = table();
        let s = t.schema();
        let a = Expr::col(s, "a").unwrap();
        let b = Expr::col(s, "b").unwrap();
        assert_eq!(eval(&a.clone().add(b.clone()), &t, 0), Value::Float(12.0));
        assert_eq!(eval(&a.clone().mul(b.clone()), &t, 0), Value::Float(20.0));
        assert_eq!(eval(&a.add(b), &t, 2), Value::Null, "NULL + x = NULL");
        // Int-preserving ops.
        assert_eq!(eval(&Expr::lit(3).add(Expr::lit(4)), &t, 0), Value::Int(7));
    }

    #[test]
    fn division_by_zero_and_null_is_null() {
        let t = table();
        let s = t.schema();
        let div = |a, b| Expr::Arith(ArithOp::Div, Box::new(a), Box::new(b));
        let e = div(Expr::col(s, "a").unwrap(), Expr::col(s, "b").unwrap());
        assert_eq!(eval(&e, &t, 0), Value::Float(5.0));
        assert_eq!(eval(&e, &t, 1), Value::Null, "10 / 0");
        assert_eq!(eval(&e, &t, 2), Value::Null, "NULL / 5");
        assert_eq!(e.output_type(s), Some(DataType::Float));
    }

    #[test]
    fn arithmetic_on_strings_is_an_error() {
        let t = table();
        let s = t.schema();
        let e = Expr::col(s, "d").unwrap().add(Expr::lit(1));
        assert!(matches!(
            e.eval(&t, 0, &mut ExecStats::default()),
            Err(EngineError::ExprType(_))
        ));
    }

    #[test]
    fn three_valued_logic() {
        let t = table();
        let s = t.schema();
        // NULL = 'x' is NULL, and so is its negation, but FALSE AND NULL
        // is FALSE.
        let cmp = Expr::col(s, "d").unwrap().eq(Expr::lit("x"));
        assert_eq!(eval(&cmp, &t, 2), Value::Null);
        assert_eq!(eval(&Expr::Not(Box::new(cmp.clone())), &t, 2), Value::Null);
        assert_eq!(
            eval(&Expr::Not(Box::new(cmp.clone())), &t, 0),
            Value::Int(0)
        );
        let f_and_null = Expr::lit(0).and(cmp.clone());
        assert_eq!(eval(&f_and_null, &t, 2), Value::Int(0));
        let t_and_null = Expr::lit(1).and(cmp.clone());
        assert_eq!(eval(&t_and_null, &t, 2), Value::Null);
        // TRUE OR NULL is TRUE.
        let t_or_null = Expr::Or(Box::new(Expr::lit(1)), Box::new(cmp));
        assert_eq!(eval(&t_or_null, &t, 2), Value::Int(1));
    }

    #[test]
    fn case_when_first_match_wins_and_counts_conditions() {
        let t = table();
        let s = t.schema();
        let e = Expr::Case {
            branches: vec![
                (
                    Expr::col(s, "d").unwrap().eq(Expr::lit("nope")),
                    Expr::lit(1),
                ),
                (Expr::col(s, "d").unwrap().eq(Expr::lit("x")), Expr::lit(2)),
                (Expr::col(s, "d").unwrap().eq(Expr::lit("x")), Expr::lit(3)),
            ],
            else_value: None,
        };
        let mut st = ExecStats::default();
        assert_eq!(e.eval(&t, 0, &mut st).unwrap(), Value::Int(2));
        assert_eq!(st.case_condition_evals, 2, "stops at the first match");

        let mut st = ExecStats::default();
        assert_eq!(
            e.eval(&t, 1, &mut st).unwrap(),
            Value::Null,
            "no ELSE → NULL"
        );
        assert_eq!(st.case_condition_evals, 3, "all conditions tried");
    }

    #[test]
    fn key_match_builds_conjunction() {
        let t = table();
        let e = Expr::key_match(&[(0, Value::str("x")), (2, Value::Int(2))]);
        assert_eq!(eval(&e, &t, 0), Value::Int(1));
        assert_eq!(eval(&e, &t, 1), Value::Int(0));
    }

    #[test]
    fn output_types() {
        let t = table();
        let s = t.schema();
        let a = Expr::col(s, "a").unwrap();
        let b = Expr::col(s, "b").unwrap();
        assert_eq!(a.output_type(s), Some(DataType::Float));
        assert_eq!(b.output_type(s), Some(DataType::Int));
        assert_eq!(
            b.clone().add(Expr::lit(1)).output_type(s),
            Some(DataType::Int)
        );
        assert_eq!(a.eq(b).output_type(s), Some(DataType::Int));
        let schema2 = Arc::clone(s);
        drop(schema2);
    }

    #[test]
    fn key_eq_is_null_safe() {
        let t = table();
        let s = t.schema();
        let e = Expr::KeyEq(
            Box::new(Expr::col(s, "d").unwrap()),
            Box::new(Expr::Lit(Value::Null)),
        );
        assert_eq!(
            eval(&e, &t, 0),
            Value::Int(0),
            "'x' IS NOT DISTINCT FROM NULL"
        );
        assert_eq!(eval(&e, &t, 2), Value::Int(1), "NULL matches NULL");
        // Int/Float cross-type key equality.
        let e = Expr::KeyEq(Box::new(Expr::lit(2)), Box::new(Expr::lit(2.0)));
        assert_eq!(eval(&e, &t, 0), Value::Int(1));
    }

    #[test]
    fn comparisons() {
        let t = table();
        let s = t.schema();
        let b = Expr::col(s, "b").unwrap();
        for (op, expect) in [
            (CmpOp::Lt, 0),
            (CmpOp::Le, 1),
            (CmpOp::Eq, 1),
            (CmpOp::Ge, 1),
            (CmpOp::Gt, 0),
            (CmpOp::Ne, 0),
        ] {
            let e = Expr::Cmp(op, Box::new(b.clone()), Box::new(Expr::lit(2)));
            assert_eq!(eval(&e, &t, 0), Value::Int(expect), "{op:?}");
        }
    }
}
