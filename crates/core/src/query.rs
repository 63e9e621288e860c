//! Typed percentage-query definitions.
//!
//! These are the validated, schema-resolved forms of the SQL statements the
//! papers write. They can be built directly (the programmatic API) or
//! converted from a parsed [`SelectStmt`] (the SQL API).

use crate::error::{CoreError, Result};
use pa_engine::{AggFunc, ExecStats, ParallelConfig, ResourceGuard, Selected, Selection};
use pa_sql::{AggName, AstExpr, QueryKind, SelectItem, SelectStmt};
use pa_storage::{Catalog, Schema, SharedTable, SnapshotView, Table};
use std::sync::{Arc, OnceLock};

/// The fact table `F` one statement reads, resolved once by its caller ("F
/// can be a temporary table resulting from some query", SIGMOD §2): a
/// catalog table — usually a pinned snapshot — and, for a statement with a
/// `WHERE`, which of its rows. The rows are reachable only through
/// [`Fact::read`], so no reader can forget the selection.
#[derive(Debug)]
pub(crate) struct Fact {
    table: SharedTable,
    /// The table and version whose data `table` holds: what the level
    /// cache knows it by, and what a roll-forward asks the write journal
    /// about.
    data: Option<(String, u64)>,
    /// A statement's `WHERE`: the rows it selects.
    selection: Option<Selection>,
    /// What the statement was handed, or what [`Fact::config`] read once
    /// it has.
    config: OnceLock<ParallelConfig>,
}

/// A [`Fact`] held for reading.
pub(crate) struct FactRows<'f> {
    table: parking_lot::RwLockReadGuard<'f, Table>,
    selection: Option<&'f Selection>,
}

impl Fact {
    /// The catalog table `name` as it stands — a snapshot alias as its
    /// pin froze it. A live table read beside writers is the executor's
    /// job to pin first: its version is read here, its rows later.
    pub(crate) fn named(catalog: &Catalog, name: &str) -> Result<Fact> {
        let table = catalog.table(name)?;
        let (source, version) = catalog
            .data_version(name)
            .unwrap_or_else(|| (name.to_string(), 0));
        Ok(Fact::cached(table, &source, version))
    }

    /// `name` pinned at its current version, and the fact over the pin —
    /// the pin must outlive every read of the fact, dropping it releases
    /// the snapshot; a name no pin takes (a snapshot alias) as it stands.
    pub(crate) fn pinned(
        catalog: &Catalog,
        name: &str,
    ) -> Result<(Option<Arc<SnapshotView>>, Fact)> {
        let pin = catalog.pin_table(name);
        let fact = match &pin {
            Some(view) => Fact::cached(Arc::clone(view.table()), view.source(), view.version()),
            None => Fact::named(catalog, name)?,
        };
        Ok((pin, fact))
    }

    /// `table`, which holds version `version` of catalog table `source`.
    fn cached(table: SharedTable, source: &str, version: u64) -> Fact {
        Fact {
            table,
            data: Some((source.to_string(), version)),
            selection: None,
            config: OnceLock::new(),
        }
    }

    /// Hand the statement its scan configuration
    /// ([`crate::PercentageEngine::with_config`]); `None` leaves it to
    /// [`Fact::config`]'s fallback.
    pub(crate) fn configured(mut self, config: Option<ParallelConfig>) -> Fact {
        if let Some(config) = config {
            self.config = OnceLock::from(config);
        }
        self
    }

    /// The scan configuration every pass over `F` runs under — the
    /// selection pass and every scan after it, the same one: what the
    /// statement was handed, else the deployment's `PA_*` settings
    /// ([`ParallelConfig::from_env`]), read once per statement by the first
    /// pass that needs them. Nothing below this reads the environment.
    pub(crate) fn config(&self) -> ParallelConfig {
        *self.config.get_or_init(ParallelConfig::from_env)
    }

    /// The rows of this fact that `pred` is TRUE on, as a fact over the
    /// same table: the predicate is evaluated once, under `guard`, into the
    /// selection every scan of the statement then reads.
    pub(crate) fn select(
        &self,
        pred: &AstExpr,
        guard: &ResourceGuard,
        stats: &mut ExecStats,
    ) -> Result<Fact> {
        let rows = self.read();
        let expr = ast_to_expr(pred, rows.schema())?;
        let config = self.config();
        let selection = Selection::compile(rows.selected(), &expr, guard, stats, &config)?;
        Ok(Fact {
            table: Arc::clone(&self.table),
            data: self.data.clone(),
            selection: Some(selection),
            config: self.config.clone(),
        })
    }

    pub(crate) fn read(&self) -> FactRows<'_> {
        FactRows {
            table: self.table.read(),
            selection: self.selection.as_ref(),
        }
    }

    /// The table and version the level cache knows these rows by. A
    /// selected fact has none, so it is never cached: the combinations and
    /// levels of a subset are not the table's.
    pub(crate) fn cache_key(&self) -> Option<(&str, u64)> {
        match (&self.selection, &self.data) {
            (None, Some((source, version))) => Some((source, *version)),
            _ => None,
        }
    }
}

impl FactRows<'_> {
    /// What the scan-core operators read: the table with its selection.
    pub(crate) fn selected(&self) -> Selected<'_> {
        let all = Selected::from(&*self.table);
        self.selection.map_or(all, |selection| all.with(selection))
    }

    pub(crate) fn schema(&self) -> &Arc<Schema> {
        self.table.schema()
    }

    /// The whole table, for the readers outside the scan core (the OLAP
    /// baseline, missing-row padding).
    ///
    /// # Panics
    /// On a selected fact: only a statement has a `WHERE`, and no statement
    /// reaches those readers.
    pub(crate) fn whole(&self) -> &Table {
        assert!(self.selection.is_none(), "this reader takes no selection");
        &self.table
    }

    /// The table's distinct-value estimate for column `col` — an upper
    /// bound on the selected rows'.
    pub(crate) fn distinct_estimate(&self, col: usize) -> usize {
        self.table.distinct_estimate(col)
    }
}

/// The measure expression `A`: a column of `F` or a literal
/// (`Vpct(1)` computes row-count percentages; `sum(1 BY ..)`/`max(1 BY ..)`
/// code categorical attributes).
#[derive(Debug, Clone, PartialEq)]
pub enum Measure {
    /// Column of the fact table.
    Column(String),
    /// Integer literal (usually `1`).
    LitInt(i64),
    /// Float literal.
    LitFloat(f64),
}

impl Measure {
    /// Resolve to an engine expression against `schema`.
    pub fn to_expr(&self, schema: &Schema) -> Result<pa_engine::Expr> {
        Ok(match self {
            Measure::Column(name) => pa_engine::Expr::col(schema, name)
                .map_err(|_| CoreError::InvalidQuery(format!("unknown measure column {name}")))?,
            Measure::LitInt(i) => pa_engine::Expr::lit(*i),
            Measure::LitFloat(x) => pa_engine::Expr::lit(*x),
        })
    }

    /// SQL rendering.
    pub fn sql(&self) -> String {
        match self {
            Measure::Column(name) => name.clone(),
            Measure::LitInt(i) => i.to_string(),
            Measure::LitFloat(x) => x.to_string(),
        }
    }

    /// Short label used in generated column names.
    pub fn label(&self) -> String {
        match self {
            Measure::Column(name) => name.clone(),
            Measure::LitInt(i) => format!("lit{i}"),
            Measure::LitFloat(x) => format!("lit{x}"),
        }
    }
}

impl From<&str> for Measure {
    fn from(s: &str) -> Self {
        Measure::Column(s.to_string())
    }
}

/// A non-percentage aggregate term carried alongside percentage terms
/// (SIGMOD rule 3: "vertical percentage aggregations can be combined with
/// other aggregations in the same statement").
#[derive(Debug, Clone, PartialEq)]
pub struct ExtraAgg {
    /// Aggregate function.
    pub func: AggFunc,
    /// Measure (`None` only for `count(*)`).
    pub measure: Option<Measure>,
    /// Output column name.
    pub name: String,
}

impl ExtraAgg {
    /// `sum(column) AS name`.
    pub fn sum(column: &str, name: &str) -> ExtraAgg {
        ExtraAgg {
            func: AggFunc::Sum,
            measure: Some(column.into()),
            name: name.to_string(),
        }
    }

    /// `count(*) AS name`.
    pub fn count_star(name: &str) -> ExtraAgg {
        ExtraAgg {
            func: AggFunc::CountStar,
            measure: None,
            name: name.to_string(),
        }
    }
}

/// One `Vpct(A BY Dj+1..Dk)` term.
#[derive(Debug, Clone, PartialEq)]
pub struct VpctTerm {
    /// Measure `A`.
    pub measure: Measure,
    /// BY columns (`Dj+1..Dk`). Must be a subset of the query's GROUP BY;
    /// empty means totals are computed over all rows of `F` (SIGMOD §3.1:
    /// "if no BY clause is present then all rows in F are used to compute
    /// totals" — the `BY = GROUP BY` corner is given the same global-total
    /// semantics, since both leave `D1..Dj` empty).
    pub by: Vec<String>,
    /// Output column name.
    pub name: String,
}

impl VpctTerm {
    /// Build a term with a generated output name.
    pub fn new(measure: impl Into<Measure>, by: &[&str]) -> VpctTerm {
        let measure = measure.into();
        let name = if by.is_empty() {
            format!("vpct_{}", measure.label())
        } else {
            format!("vpct_{}_by_{}", measure.label(), by.join("_"))
        };
        VpctTerm {
            measure,
            by: by.iter().map(|s| s.to_string()).collect(),
            name,
        }
    }
}

/// A vertical percentage query:
/// `SELECT D1..Dk, Vpct(..), .. FROM table GROUP BY D1..Dk`.
#[derive(Debug, Clone, PartialEq)]
pub struct VpctQuery {
    /// Fact table name in the catalog.
    pub table: String,
    /// GROUP BY columns `D1..Dk`.
    pub group_by: Vec<String>,
    /// Percentage terms (m ≥ 1).
    pub terms: Vec<VpctTerm>,
    /// Additional plain aggregates on the same GROUP BY.
    pub extra: Vec<ExtraAgg>,
}

impl VpctQuery {
    /// Single-term convenience constructor.
    pub fn single(
        table: &str,
        group_by: &[&str],
        measure: impl Into<Measure>,
        by: &[&str],
    ) -> VpctQuery {
        VpctQuery {
            table: table.to_string(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            terms: vec![VpctTerm::new(measure, by)],
            extra: Vec::new(),
        }
    }

    /// Totals key of a term: `D1..Dj` = GROUP BY minus the term's BY list,
    /// in GROUP BY order. An absent BY clause means "all rows in F are used
    /// to compute totals" (SIGMOD §3.1), i.e. an empty totals key.
    pub fn totals_key(&self, term: &VpctTerm) -> Vec<String> {
        if term.by.is_empty() {
            return Vec::new();
        }
        self.group_by
            .iter()
            .filter(|g| !term.by.iter().any(|b| b.eq_ignore_ascii_case(g)))
            .cloned()
            .collect()
    }

    /// Structural validation (schema-independent).
    pub fn validate(&self) -> Result<()> {
        if self.group_by.is_empty() {
            return Err(CoreError::InvalidQuery(
                "Vpct requires a GROUP BY clause (rule 1)".into(),
            ));
        }
        if self.terms.is_empty() {
            return Err(CoreError::InvalidQuery("no Vpct terms".into()));
        }
        for term in &self.terms {
            for b in &term.by {
                if !self.group_by.iter().any(|g| g.eq_ignore_ascii_case(b)) {
                    return Err(CoreError::InvalidQuery(format!(
                        "Vpct BY column {b} is not in GROUP BY (rule 2)"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// One horizontal aggregation term `Hagg(A BY Dj+1..Dk [DEFAULT 0])` —
/// `Hpct` is the special case `func = Sum` with `percentage = true`.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizontalTerm {
    /// Underlying vertical aggregate applied per cell.
    pub func: AggFunc,
    /// Measure `A`.
    pub measure: Measure,
    /// Subgrouping columns (`Dj+1..Dk`); required, disjoint from GROUP BY.
    pub by: Vec<String>,
    /// Divide each cell by the group total of `measure` (the `Hpct`
    /// semantics). Only meaningful with `func = Sum`.
    pub percentage: bool,
    /// Missing cells become 0 instead of NULL (`DEFAULT 0`).
    pub default_zero: bool,
    /// Prefix for generated cell column names.
    pub name: String,
}

impl HorizontalTerm {
    /// `Hpct(measure BY by)`.
    pub fn hpct(measure: impl Into<Measure>, by: &[&str]) -> HorizontalTerm {
        let measure = measure.into();
        HorizontalTerm {
            func: AggFunc::Sum,
            name: format!("hpct_{}", measure.label()),
            measure,
            by: by.iter().map(|s| s.to_string()).collect(),
            percentage: true,
            default_zero: false,
        }
    }

    /// `Hagg(measure BY by)` for a standard aggregate.
    pub fn hagg(func: AggFunc, measure: impl Into<Measure>, by: &[&str]) -> HorizontalTerm {
        let measure = measure.into();
        HorizontalTerm {
            func,
            name: format!(
                "{}_{}",
                func.sql_name().replace("(*)", "_star"),
                measure.label()
            ),
            measure,
            by: by.iter().map(|s| s.to_string()).collect(),
            percentage: false,
            default_zero: false,
        }
    }

    /// Builder: switch missing cells to 0.
    pub fn with_default_zero(mut self) -> HorizontalTerm {
        self.default_zero = true;
        self
    }
}

/// A horizontal query:
/// `SELECT D1..Dj, Hpct/Hagg(..), .. FROM table GROUP BY D1..Dj`.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizontalQuery {
    /// Fact table name.
    pub table: String,
    /// GROUP BY columns `D1..Dj` (may be empty — one global result row).
    pub group_by: Vec<String>,
    /// Horizontal terms (≥ 1).
    pub terms: Vec<HorizontalTerm>,
    /// Additional plain aggregates on the same GROUP BY.
    pub extra: Vec<ExtraAgg>,
}

impl HorizontalQuery {
    /// Single-`Hpct` convenience constructor.
    pub fn hpct(
        table: &str,
        group_by: &[&str],
        measure: impl Into<Measure>,
        by: &[&str],
    ) -> HorizontalQuery {
        HorizontalQuery {
            table: table.to_string(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            terms: vec![HorizontalTerm::hpct(measure, by)],
            extra: Vec::new(),
        }
    }

    /// Single-`Hagg` convenience constructor.
    pub fn hagg(
        table: &str,
        group_by: &[&str],
        func: AggFunc,
        measure: impl Into<Measure>,
        by: &[&str],
    ) -> HorizontalQuery {
        HorizontalQuery {
            table: table.to_string(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            terms: vec![HorizontalTerm::hagg(func, measure, by)],
            extra: Vec::new(),
        }
    }

    /// Structural validation (schema-independent).
    pub fn validate(&self) -> Result<()> {
        if self.terms.is_empty() {
            return Err(CoreError::InvalidQuery("no horizontal terms".into()));
        }
        for term in &self.terms {
            if term.by.is_empty() {
                return Err(CoreError::InvalidQuery(
                    "horizontal aggregations require a non-empty BY clause (rule 2)".into(),
                ));
            }
            for b in &term.by {
                if self.group_by.iter().any(|g| g.eq_ignore_ascii_case(b)) {
                    return Err(CoreError::InvalidQuery(format!(
                        "BY column {b} must be disjoint from GROUP BY (rule 2)"
                    )));
                }
            }
            if term.percentage && term.func != AggFunc::Sum {
                return Err(CoreError::InvalidQuery(
                    "percentage semantics require sum()".into(),
                ));
            }
        }
        Ok(())
    }
}

/// A percentage/horizontal query of either family, as classified by the SQL
/// validator.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Vertical percentage query.
    Vertical(VpctQuery),
    /// Horizontal percentage / aggregation query.
    Horizontal(HorizontalQuery),
}

fn measure_from_ast(e: &AstExpr) -> Result<Measure> {
    match e {
        AstExpr::Column(c) => Ok(Measure::Column(c.clone())),
        AstExpr::Int(i) => Ok(Measure::LitInt(*i)),
        AstExpr::Float(x) => Ok(Measure::LitFloat(*x)),
        AstExpr::Star => Ok(Measure::LitInt(1)),
        other => Err(CoreError::Unsupported(format!(
            "aggregate argument must be a column or literal, got {other}"
        ))),
    }
}

fn agg_func_of(name: AggName, distinct: bool, param: Option<f64>) -> AggFunc {
    use pa_engine::PBits;
    match name {
        AggName::Sum | AggName::Vpct | AggName::Hpct => AggFunc::Sum,
        AggName::Count if distinct => AggFunc::CountDistinct,
        AggName::Count => AggFunc::Count,
        AggName::Avg => AggFunc::Avg,
        AggName::Min => AggFunc::Min,
        AggName::Max => AggFunc::Max,
        // median is sugar for the exact 50th percentile.
        AggName::Median => AggFunc::Percentile(PBits::new(0.5)),
        // The validator guarantees the rank is present and in [0, 1].
        AggName::Percentile => AggFunc::Percentile(PBits::new(param.unwrap_or(0.5))),
        AggName::ApproxPercentile => AggFunc::ApproxPercentile(PBits::new(param.unwrap_or(0.5))),
        AggName::ApproxCountDistinct => AggFunc::ApproxCountDistinct,
    }
}

/// Expand a lattice-grouped statement (`ROLLUP` / `CUBE` / `GROUPING SETS`)
/// into one flat statement per grouping set, in [`SelectStmt::grouping_sets`]
/// order. Per set `S`: plain SELECT columns are filtered to `S`, `Vpct` BY
/// lists are intersected with `S` (the percentage at level `S` is relative
/// to the totals over `S ∖ BY`), and `Hpct`/`Hagg` BY lists — disjoint from
/// the whole GROUP BY by rule — pass through unchanged. `None` marks a set
/// the statement cannot evaluate (the empty set under `Vpct` rule 1); such
/// sets are skipped, since a `Vpct` grand total is definitionally 100%.
pub fn per_set_statements(stmt: &SelectStmt) -> Result<Vec<(Vec<String>, Option<SelectStmt>)>> {
    let kind = pa_sql::validate(stmt)?;
    let sets = stmt.grouping_sets();
    let mut out = Vec::with_capacity(sets.len());
    for set in sets {
        if kind == QueryKind::Vertical && set.is_empty() {
            out.push((set, None));
            continue;
        }
        let items = stmt
            .items
            .iter()
            .filter_map(|item| match item {
                SelectItem::Column(c) => set
                    .iter()
                    .any(|s| s.eq_ignore_ascii_case(c))
                    .then(|| item.clone()),
                SelectItem::Aggregate { call, alias } => {
                    let mut call = call.clone();
                    if call.func == AggName::Vpct {
                        call.by
                            .retain(|c| set.iter().any(|s| s.eq_ignore_ascii_case(c)));
                    }
                    Some(SelectItem::Aggregate {
                        call,
                        alias: alias.clone(),
                    })
                }
            })
            .collect();
        let flat = SelectStmt {
            items,
            from: stmt.from.clone(),
            where_clause: stmt.where_clause.clone(),
            group_by: set.clone(),
            grouping: pa_sql::Grouping::Flat,
            order_by: Vec::new(),
        };
        out.push((set, Some(flat)));
    }
    Ok(out)
}

/// Convert a parsed and rule-validated statement into a typed query.
pub fn from_sql(stmt: &SelectStmt) -> Result<Query> {
    let kind = pa_sql::validate(stmt)?;
    match kind {
        QueryKind::Vertical => {
            let mut q = VpctQuery {
                table: stmt.from.clone(),
                group_by: stmt.group_by.clone(),
                terms: Vec::new(),
                extra: Vec::new(),
            };
            for item in &stmt.items {
                let SelectItem::Aggregate { call, alias } = item else {
                    continue;
                };
                let measure = measure_from_ast(&call.arg)?;
                if call.func == AggName::Vpct {
                    let mut term = VpctTerm {
                        by: call.by.clone(),
                        name: String::new(),
                        measure,
                    };
                    term.name = alias.clone().unwrap_or_else(|| {
                        let by: Vec<&str> = call.by.iter().map(String::as_str).collect();
                        VpctTerm::new(term.measure.clone(), &by).name
                    });
                    q.terms.push(term);
                } else {
                    let func = if matches!(call.arg, AstExpr::Star) {
                        AggFunc::CountStar
                    } else {
                        agg_func_of(call.func, call.distinct, call.param)
                    };
                    q.extra.push(ExtraAgg {
                        func,
                        measure: (!matches!(call.arg, AstExpr::Star)).then_some(measure),
                        name: alias.clone().unwrap_or_else(|| {
                            format!("{}_{}", call.func.sql_name(), expr_label(&call.arg))
                        }),
                    });
                }
            }
            q.validate()?;
            Ok(Query::Vertical(q))
        }
        QueryKind::Horizontal | QueryKind::PlainAggregate => {
            let mut q = HorizontalQuery {
                table: stmt.from.clone(),
                group_by: stmt.group_by.clone(),
                terms: Vec::new(),
                extra: Vec::new(),
            };
            for item in &stmt.items {
                let SelectItem::Aggregate { call, alias } = item else {
                    continue;
                };
                let measure = measure_from_ast(&call.arg)?;
                if call.func == AggName::Hpct || !call.by.is_empty() {
                    let mut term = HorizontalTerm {
                        func: if matches!(call.arg, AstExpr::Star) {
                            AggFunc::CountStar
                        } else {
                            agg_func_of(call.func, call.distinct, call.param)
                        },
                        measure,
                        by: call.by.clone(),
                        percentage: call.func == AggName::Hpct,
                        default_zero: call.default_zero,
                        name: String::new(),
                    };
                    term.name = alias.clone().unwrap_or_else(|| {
                        let label = if matches!(call.arg, AstExpr::Star) {
                            "star".to_string()
                        } else {
                            term.measure.label()
                        };
                        format!("{}_{}", call.func.sql_name(), label)
                    });
                    q.terms.push(term);
                } else {
                    let func = if matches!(call.arg, AstExpr::Star) {
                        AggFunc::CountStar
                    } else {
                        agg_func_of(call.func, call.distinct, call.param)
                    };
                    q.extra.push(ExtraAgg {
                        func,
                        measure: (!matches!(call.arg, AstExpr::Star)).then_some(measure),
                        name: alias.clone().unwrap_or_else(|| {
                            format!("{}_{}", call.func.sql_name(), expr_label(&call.arg))
                        }),
                    });
                }
            }
            if q.terms.is_empty() {
                return Err(CoreError::Unsupported(
                    "plain aggregate statements are evaluated by pa-engine directly; \
                     the percentage framework expects Vpct/Hpct/BY terms"
                        .into(),
                ));
            }
            q.validate()?;
            Ok(Query::Horizontal(q))
        }
    }
}

/// Convert a WHERE-clause AST expression into an engine expression against
/// `schema`.
pub fn ast_to_expr(e: &AstExpr, schema: &Schema) -> Result<pa_engine::Expr> {
    use pa_engine::{ArithOp, CmpOp, Expr};
    use pa_sql::BinOp;
    Ok(match e {
        AstExpr::Column(c) => Expr::col(schema, c)
            .map_err(|_| CoreError::InvalidQuery(format!("unknown column {c} in WHERE")))?,
        AstExpr::Int(i) => Expr::lit(*i),
        AstExpr::Float(x) => Expr::lit(*x),
        AstExpr::Str(s) => Expr::lit(s.as_str()),
        AstExpr::Star => {
            return Err(CoreError::InvalidQuery(
                "'*' is not a scalar expression".into(),
            ));
        }
        AstExpr::Binary { op, left, right } => {
            let l = Box::new(ast_to_expr(left, schema)?);
            let r = Box::new(ast_to_expr(right, schema)?);
            match op {
                BinOp::Add => Expr::Arith(ArithOp::Add, l, r),
                BinOp::Sub => Expr::Arith(ArithOp::Sub, l, r),
                BinOp::Mul => Expr::Arith(ArithOp::Mul, l, r),
                BinOp::Div => Expr::Arith(ArithOp::Div, l, r),
                BinOp::Eq => Expr::Cmp(CmpOp::Eq, l, r),
                BinOp::Ne => Expr::Cmp(CmpOp::Ne, l, r),
                BinOp::Lt => Expr::Cmp(CmpOp::Lt, l, r),
                BinOp::Le => Expr::Cmp(CmpOp::Le, l, r),
                BinOp::Gt => Expr::Cmp(CmpOp::Gt, l, r),
                BinOp::Ge => Expr::Cmp(CmpOp::Ge, l, r),
                BinOp::And => Expr::And(l, r),
                BinOp::Or => Expr::Or(l, r),
            }
        }
    })
}

fn expr_label(e: &AstExpr) -> String {
    match e {
        AstExpr::Column(c) => c.clone(),
        AstExpr::Star => "star".into(),
        AstExpr::Int(i) => i.to_string(),
        AstExpr::Float(x) => x.to_string(),
        other => format!("{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_sql::parse;

    #[test]
    fn totals_key_is_group_by_minus_by() {
        let q = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        assert_eq!(q.totals_key(&q.terms[0]), vec!["state".to_string()]);
        // Absent BY → global totals → empty totals key.
        let q2 = VpctQuery::single("sales", &["state", "city"], "salesAmt", &[]);
        assert!(q2.totals_key(&q2.terms[0]).is_empty());
        // BY = GROUP BY → also empty totals key (global totals).
        let q3 = VpctQuery::single("sales", &["state"], "salesAmt", &["state"]);
        assert!(q3.totals_key(&q3.terms[0]).is_empty());
    }

    #[test]
    fn vpct_validation() {
        let mut q = VpctQuery::single("f", &[], "a", &[]);
        assert!(q.validate().is_err(), "GROUP BY required");
        q.group_by = vec!["d".into()];
        assert!(q.validate().is_ok());
        q.terms[0].by = vec!["other".into()];
        assert!(q.validate().is_err(), "BY must be subset of GROUP BY");
    }

    #[test]
    fn horizontal_validation() {
        let q = HorizontalQuery::hpct("f", &["s"], "a", &["d"]);
        assert!(q.validate().is_ok());
        let bad = HorizontalQuery::hpct("f", &["s"], "a", &["s"]);
        assert!(bad.validate().is_err(), "BY disjoint from GROUP BY");
        let empty = HorizontalQuery::hpct("f", &["s"], "a", &[]);
        assert!(empty.validate().is_err(), "BY required");
    }

    #[test]
    fn from_sql_vertical() {
        let stmt = parse(
            "SELECT state,city,Vpct(salesAmt BY city),sum(salesAmt) AS tot FROM sales \
                   GROUP BY state,city",
        )
        .unwrap();
        let Query::Vertical(q) = from_sql(&stmt).unwrap() else {
            panic!("expected vertical");
        };
        assert_eq!(q.table, "sales");
        assert_eq!(q.terms.len(), 1);
        assert_eq!(q.terms[0].by, vec!["city"]);
        assert_eq!(q.extra.len(), 1);
        assert_eq!(q.extra[0].name, "tot");
    }

    #[test]
    fn from_sql_horizontal_with_percentage_and_hagg() {
        let stmt =
            parse("SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM sales GROUP BY store")
                .unwrap();
        let Query::Horizontal(q) = from_sql(&stmt).unwrap() else {
            panic!("expected horizontal");
        };
        assert_eq!(q.terms.len(), 1);
        assert!(q.terms[0].percentage);
        assert_eq!(q.extra.len(), 1);

        let stmt = parse("SELECT tid, max(1 BY deptId DEFAULT 0) FROM t GROUP BY tid").unwrap();
        let Query::Horizontal(q) = from_sql(&stmt).unwrap() else {
            panic!("expected horizontal");
        };
        assert_eq!(q.terms[0].func, AggFunc::Max);
        assert!(q.terms[0].default_zero);
        assert!(!q.terms[0].percentage);
        assert_eq!(q.terms[0].measure, Measure::LitInt(1));
    }

    #[test]
    fn from_sql_rejects_plain_aggregates() {
        let stmt = parse("SELECT d, sum(a) FROM f GROUP BY d").unwrap();
        assert!(matches!(from_sql(&stmt), Err(CoreError::Unsupported(_))));
    }

    #[test]
    fn from_sql_count_star_by() {
        let stmt = parse("SELECT s, count(* BY d) FROM f GROUP BY s").unwrap();
        let Query::Horizontal(q) = from_sql(&stmt).unwrap() else {
            panic!()
        };
        assert_eq!(q.terms[0].func, AggFunc::CountStar);
    }

    #[test]
    fn measure_expr_resolution() {
        let schema = Schema::from_pairs(&[("a", pa_storage::DataType::Float)]).unwrap();
        assert!(Measure::Column("a".into()).to_expr(&schema).is_ok());
        assert!(Measure::Column("zz".into()).to_expr(&schema).is_err());
        assert!(Measure::LitInt(1).to_expr(&schema).is_ok());
        assert_eq!(Measure::LitInt(1).label(), "lit1");
        assert_eq!(Measure::from("a").sql(), "a");
    }
}
