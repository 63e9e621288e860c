//! SQL code generation.
//!
//! The paper's experiments were driven by "a Java program that generated SQL
//! code to evaluate percentage queries given a query with the proposed
//! aggregate functions". This module is that program: given a typed query
//! and a strategy, it emits the exact multi-statement SQL the paper shows.
//! The executor attaches the transcript to every result so plans stay
//! inspectable, and golden tests pin the generated text to the paper's
//! statements.

use crate::query::{HorizontalQuery, VpctQuery};
use crate::strategy::{FjSource, HorizontalStrategy, Materialization, VpctStrategy};
use pa_storage::Value;

fn join_names(names: &[String]) -> String {
    names.join(", ")
}

fn render_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// Boolean conjunction `Dh = vh AND .. AND Dk = vk` for one combination.
fn combo_predicate(by: &[String], combo: &[Value]) -> String {
    by.iter()
        .zip(combo)
        .map(|(c, v)| format!("{c} = {}", render_literal(v)))
        .collect::<Vec<_>>()
        .join(" and ")
}

/// Placeholder predicate used before the distinct combinations are known.
fn combo_placeholder(by: &[String], i: usize) -> String {
    by.iter()
        .map(|c| format!("{c} = v_{c}_{i}"))
        .collect::<Vec<_>>()
        .join(" and ")
}

/// `F` as a statement reads it: the table, with the statement's `WHERE`
/// when it has one.
fn fact_source(table: &str, where_sql: Option<&str>) -> String {
    match where_sql {
        Some(pred) => format!("{table} WHERE {pred}"),
        None => table.to_string(),
    }
}

/// Generated statements for a vertical percentage plan (SIGMOD §3.1).
/// `where_sql` is the statement's `WHERE` predicate: every generated
/// statement that reads `F` carries it.
pub fn vpct_statements(
    q: &VpctQuery,
    strat: &VpctStrategy,
    where_sql: Option<&str>,
) -> Vec<String> {
    let mut out = Vec::new();
    let k_list = join_names(&q.group_by);
    let fact = fact_source(&q.table, where_sql);

    // Fk.
    let sums: Vec<String> = q
        .terms
        .iter()
        .map(|t| format!("sum({}) AS {}", t.measure.sql(), t.name))
        .chain(q.extra.iter().map(|e| {
            let arg = e
                .measure
                .as_ref()
                .map(|m| m.sql())
                .unwrap_or_else(|| "*".into());
            let f = e.func.sql_name().replace("(*)", "");
            format!("{f}({arg}) AS {}", e.name)
        }))
        .collect();
    out.push(format!(
        "INSERT INTO Fk SELECT {k_list}, {} FROM {fact} GROUP BY {k_list};",
        sums.join(", ")
    ));
    if strat.synchronized_scan && strat.fj_source == FjSource::FromF {
        out.push("-- Fk and every Fj computed in one synchronized scan of F".into());
    }

    // Fj per term.
    for (t, term) in q.terms.iter().enumerate() {
        let j = q.totals_key(term);
        let src = match strat.fj_source {
            FjSource::FromF => fact.as_str(),
            FjSource::FromFk => "Fk",
        };
        let measure = match strat.fj_source {
            FjSource::FromF => term.measure.sql(),
            FjSource::FromFk => term.name.clone(),
        };
        if j.is_empty() {
            out.push(format!(
                "INSERT INTO Fj{t} SELECT sum({measure}) AS total FROM {src};"
            ));
        } else {
            let j_list = join_names(&j);
            out.push(format!(
                "INSERT INTO Fj{t} SELECT {j_list}, sum({measure}) AS total \
                 FROM {src} GROUP BY {j_list};"
            ));
        }
        if strat.subkey_index && !j.is_empty() {
            out.push(format!("CREATE INDEX ON Fj{t} ({});", join_names(&j)));
        }
    }

    // FV.
    match strat.materialization {
        Materialization::Insert => {
            let mut select_cols: Vec<String> =
                q.group_by.iter().map(|c| format!("Fk.{c}")).collect();
            let mut from = vec!["Fk".to_string()];
            let mut preds: Vec<String> = Vec::new();
            for (t, term) in q.terms.iter().enumerate() {
                let j = q.totals_key(term);
                select_cols.push(format!(
                    "CASE WHEN Fj{t}.total <> 0 THEN Fk.{n}/Fj{t}.total ELSE NULL END AS {n}",
                    n = term.name
                ));
                from.push(format!("Fj{t}"));
                for c in &j {
                    preds.push(format!("Fk.{c} = Fj{t}.{c}"));
                }
            }
            for e in &q.extra {
                select_cols.push(format!("Fk.{}", e.name));
            }
            let where_clause = if preds.is_empty() {
                String::new()
            } else {
                format!(" WHERE {}", preds.join(" AND "))
            };
            out.push(format!(
                "INSERT INTO FV SELECT {} FROM {}{};",
                select_cols.join(", "),
                from.join(", "),
                where_clause
            ));
        }
        Materialization::Update => {
            for (t, term) in q.terms.iter().enumerate() {
                let j = q.totals_key(term);
                let preds: Vec<String> = j.iter().map(|c| format!("Fk.{c} = Fj{t}.{c}")).collect();
                let where_clause = if preds.is_empty() {
                    String::new()
                } else {
                    format!(" WHERE {}", preds.join(" AND "))
                };
                out.push(format!(
                    "UPDATE Fk SET {n} = CASE WHEN Fj{t}.total <> 0 \
                     THEN Fk.{n}/Fj{t}.total ELSE NULL END{w}; /* FV = Fk */",
                    n = term.name,
                    w = where_clause
                ));
            }
        }
    }
    out
}

/// Generated statements for a horizontal plan (SIGMOD §3.2 / DMKD §3.4).
/// When the distinct subgroup combinations are already known, pass them for
/// concrete CASE/WHERE text; otherwise symbolic placeholders are emitted.
/// `where_sql` is the statement's `WHERE` predicate: every generated
/// statement that reads `F` carries it (one that reads `FV` does not — the
/// predicate went into `FV`).
pub fn horizontal_statements(
    q: &HorizontalQuery,
    strategy: HorizontalStrategy,
    combos: Option<&[Vec<Value>]>,
    where_sql: Option<&str>,
) -> Vec<String> {
    let mut out = Vec::new();
    let fact = fact_source(&q.table, where_sql);
    let j_list = join_names(&q.group_by);
    let group_clause = if q.group_by.is_empty() {
        String::new()
    } else {
        format!(" GROUP BY {j_list}")
    };
    let select_keys = if q.group_by.is_empty() {
        String::new()
    } else {
        format!("{j_list}, ")
    };

    // FV for the indirect strategies: one vertical aggregation at D1..Dk.
    if strategy.uses_fv() {
        let mut all_cols: Vec<String> = q.group_by.clone();
        for term in &q.terms {
            for b in &term.by {
                if !all_cols.iter().any(|c| c.eq_ignore_ascii_case(b)) {
                    all_cols.push(b.clone());
                }
            }
        }
        let k_list = join_names(&all_cols);
        let aggs: Vec<String> = q
            .terms
            .iter()
            .map(|t| {
                let f = t.func.sql_name().replace("(*)", "");
                format!("{f}({}) AS {}", t.measure.sql(), t.name)
            })
            .collect();
        out.push(format!(
            "INSERT INTO FV SELECT {k_list}, {} FROM {fact} GROUP BY {k_list};",
            aggs.join(", ")
        ));
    }
    // What the remaining statements read — `FV`, which the predicate went
    // into, or `F` with it — and the conjunct it adds to an SPJ step's own
    // `WHERE`.
    let (table, where_sql) = match strategy.uses_fv() {
        true => ("FV", None),
        false => (q.table.as_str(), where_sql),
    };
    let src = fact_source(table, where_sql);
    let and_where = where_sql.map_or(String::new(), |pred| format!(" and {pred}"));

    match strategy {
        HorizontalStrategy::CaseDirect | HorizontalStrategy::CaseFromFv => {
            for term in &q.terms {
                out.push(format!(
                    "SELECT DISTINCT {} FROM {src};",
                    join_names(&term.by)
                ));
            }
            let mut cells: Vec<String> = Vec::new();
            for term in &q.terms {
                let measure = if strategy.uses_fv() {
                    term.name.clone()
                } else {
                    term.measure.sql()
                };
                let n = combos.map(|c| c.len()).unwrap_or(2);
                for i in 0..n {
                    let pred = match combos {
                        Some(cs) => combo_predicate(&term.by, &cs[i]),
                        None => combo_placeholder(&term.by, i + 1),
                    };
                    let cell = format!("sum(CASE WHEN {pred} THEN {measure} ELSE NULL END)");
                    if term.percentage {
                        cells.push(format!("{cell}/sum({measure})"));
                    } else {
                        cells.push(cell);
                    }
                }
                if combos.is_none() {
                    cells.push("..".into());
                }
            }
            for e in &q.extra {
                let arg = e
                    .measure
                    .as_ref()
                    .map(|m| m.sql())
                    .unwrap_or_else(|| "*".into());
                cells.push(format!("{}({arg})", e.func.sql_name().replace("(*)", "")));
            }
            out.push(format!(
                "INSERT INTO FH SELECT {select_keys}{} FROM {src}{group_clause};",
                cells.join(", ")
            ));
        }
        HorizontalStrategy::SpjDirect | HorizontalStrategy::SpjFromFv => {
            out.push(format!(
                "INSERT INTO F0 SELECT DISTINCT {j_list} FROM {src};"
            ));
            for term in &q.terms {
                out.push(format!(
                    "SELECT DISTINCT {} FROM {src};",
                    join_names(&term.by)
                ));
                let measure = if strategy.uses_fv() {
                    term.name.clone()
                } else {
                    term.measure.sql()
                };
                let n = combos.map(|c| c.len()).unwrap_or(2);
                for i in 0..n {
                    let pred = match combos {
                        Some(cs) => combo_predicate(&term.by, &cs[i]),
                        None => combo_placeholder(&term.by, i + 1),
                    };
                    out.push(format!(
                        "INSERT INTO F{idx} SELECT {select_keys}sum({measure}) \
                         FROM {table} WHERE {pred}{and_where}{group_clause};",
                        idx = i + 1
                    ));
                }
                if combos.is_none() {
                    out.push("..".into());
                }
            }
            let n = combos.map(|c| c.len()).unwrap_or(2);
            let join_chain: Vec<String> = (1..=n)
                .map(|i| {
                    let on: Vec<String> = q
                        .group_by
                        .iter()
                        .map(|c| format!("F0.{c} = F{i}.{c}"))
                        .collect();
                    format!(
                        "LEFT OUTER JOIN F{i} ON {}",
                        if on.is_empty() {
                            "1 = 1".to_string()
                        } else {
                            on.join(" and ")
                        }
                    )
                })
                .collect();
            out.push(format!(
                "INSERT INTO FH SELECT {keys}{cols} FROM F0 {joins};",
                keys = if q.group_by.is_empty() {
                    String::new()
                } else {
                    q.group_by
                        .iter()
                        .map(|c| format!("F0.{c}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                        + ", "
                },
                cols = (1..=n)
                    .map(|i| format!("F{i}.A"))
                    .collect::<Vec<_>>()
                    .join(", "),
                joins = join_chain.join(" ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::VpctQuery;

    fn q() -> VpctQuery {
        VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"])
    }

    #[test]
    fn vpct_best_strategy_statements_match_paper_shape() {
        let stmts = vpct_statements(&q(), &VpctStrategy::best(), None);
        assert!(stmts[0].starts_with("INSERT INTO Fk SELECT state, city, sum(salesAmt)"));
        assert!(stmts[0].ends_with("GROUP BY state, city;"));
        // Fj from Fk (the recommended source).
        assert!(stmts[1].contains("FROM Fk"), "{}", stmts[1]);
        assert!(stmts[1].contains("GROUP BY state"));
        // Subkey index.
        assert!(stmts[2].starts_with("CREATE INDEX ON Fj0 (state)"));
        // Division with the zero guard.
        let fv = stmts.last().unwrap();
        assert!(fv.starts_with("INSERT INTO FV"));
        assert!(fv.contains("CASE WHEN Fj0.total <> 0"));
        assert!(fv.contains("WHERE Fk.state = Fj0.state"));
    }

    #[test]
    fn vpct_update_strategy_emits_update() {
        let stmts = vpct_statements(&q(), &VpctStrategy::with_update(), None);
        let last = stmts.last().unwrap();
        assert!(last.starts_with("UPDATE Fk SET"));
        assert!(last.contains("/* FV = Fk */"));
    }

    #[test]
    fn vpct_from_f_reads_fact_table_twice() {
        let stmts = vpct_statements(&q(), &VpctStrategy::fj_from_f(), None);
        assert!(stmts[1].contains("FROM sales"), "{}", stmts[1]);
    }

    #[test]
    fn global_totals_have_no_group_by() {
        let q = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        let stmts = vpct_statements(&q, &VpctStrategy::best(), None);
        let fj = &stmts[1];
        assert!(!fj.contains("GROUP BY"), "{fj}");
    }

    #[test]
    fn horizontal_case_direct_with_known_combos() {
        let q = HorizontalQuery::hpct("sales", &["store"], "salesAmt", &["dweek"]);
        let combos = vec![vec![Value::str("Mon")], vec![Value::str("Tue")]];
        let stmts = horizontal_statements(&q, HorizontalStrategy::CaseDirect, Some(&combos), None);
        assert!(stmts[0].starts_with("SELECT DISTINCT dweek FROM sales"));
        let ins = &stmts[1];
        assert!(
            ins.contains("sum(CASE WHEN dweek = 'Mon' THEN salesAmt ELSE NULL END)/sum(salesAmt)")
        );
        assert!(ins.contains("GROUP BY store"));
    }

    #[test]
    fn horizontal_indirect_prepends_fv() {
        let q = HorizontalQuery::hpct("sales", &["store"], "salesAmt", &["dweek"]);
        let stmts = horizontal_statements(&q, HorizontalStrategy::CaseFromFv, None, None);
        assert!(stmts[0].starts_with("INSERT INTO FV SELECT store, dweek, sum(salesAmt)"));
        assert!(stmts.last().unwrap().contains("FROM FV"));
    }

    #[test]
    fn spj_emits_outer_join_chain() {
        let q = HorizontalQuery::hagg(
            "sales",
            &["store"],
            pa_engine::AggFunc::Sum,
            "salesAmt",
            &["dweek"],
        );
        let combos = vec![vec![Value::str("Mon")], vec![Value::str("Tue")]];
        let stmts = horizontal_statements(&q, HorizontalStrategy::SpjDirect, Some(&combos), None);
        assert!(stmts[0].starts_with("INSERT INTO F0 SELECT DISTINCT store"));
        assert!(stmts[2].contains("WHERE dweek = 'Mon'"));
        let last = stmts.last().unwrap();
        assert!(last.contains("LEFT OUTER JOIN F1 ON F0.store = F1.store"));
        assert!(last.contains("LEFT OUTER JOIN F2"));
    }

    #[test]
    fn every_statement_that_reads_f_carries_the_where() {
        let pred = Some("(salesAmt > 10)");
        let stmts = vpct_statements(&q(), &VpctStrategy::fj_from_f(), pred);
        assert!(stmts[0].contains("FROM sales WHERE (salesAmt > 10) GROUP BY state, city;"));
        assert!(stmts[1].contains("FROM sales WHERE (salesAmt > 10) GROUP BY state;"));
        let stmts = vpct_statements(&q(), &VpctStrategy::best(), pred);
        assert!(
            stmts[1].contains("FROM Fk GROUP BY"),
            "Fk is already filtered"
        );

        let q = HorizontalQuery::hpct("sales", &["store"], "salesAmt", &["dweek"]);
        let combos = vec![vec![Value::str("Mon")]];
        let stmts = horizontal_statements(&q, HorizontalStrategy::SpjDirect, Some(&combos), pred);
        assert!(
            stmts[0].ends_with("FROM sales WHERE (salesAmt > 10);"),
            "{}",
            stmts[0]
        );
        assert!(
            stmts[2].contains("FROM sales WHERE dweek = 'Mon' and (salesAmt > 10) GROUP BY store;"),
            "{}",
            stmts[2]
        );
        let stmts = horizontal_statements(&q, HorizontalStrategy::SpjFromFv, Some(&combos), pred);
        assert!(stmts[0].contains("FROM sales WHERE (salesAmt > 10) GROUP BY"));
        assert!(
            stmts[3].contains("FROM FV WHERE dweek = 'Mon' GROUP BY store;"),
            "{}",
            stmts[3]
        );
    }

    #[test]
    fn string_literals_escaped() {
        let q = HorizontalQuery::hpct("f", &["s"], "a", &["d"]);
        let combos = vec![vec![Value::str("it's")]];
        let stmts = horizontal_statements(&q, HorizontalStrategy::CaseDirect, Some(&combos), None);
        assert!(stmts[1].contains("d = 'it''s'"), "{}", stmts[1]);
    }
}
