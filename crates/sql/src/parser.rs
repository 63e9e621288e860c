//! Recursive-descent parser for the percentage-query dialect.

use crate::ast::{AggCall, AggName, AstExpr, BinOp, Grouping, SelectItem, SelectStmt, Statement};
use crate::error::{Result, SqlError};
use crate::token::{skip_blank, tokenize, Spanned, Token};

/// Parse one SELECT statement.
pub fn parse(input: &str) -> Result<SelectStmt> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select_stmt()?;
    p.accept(&Token::Semi);
    if let Some(t) = p.peek() {
        return Err(p.err_at(t.offset, "trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Parse one top-level statement: a SELECT, optionally wrapped in
/// `EXPLAIN` / `EXPLAIN ANALYZE`.
pub fn parse_statement(input: &str) -> Result<Statement> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let explain = p.accept_kw("EXPLAIN");
    let analyze = explain && p.accept_kw("ANALYZE");
    let stmt = p.select_stmt()?;
    p.accept(&Token::Semi);
    if let Some(t) = p.peek() {
        return Err(p.err_at(t.offset, "trailing tokens after statement"));
    }
    Ok(if explain {
        Statement::Explain { analyze, stmt }
    } else {
        Statement::Select(stmt)
    })
}

/// `input` without a leading `EXPLAIN [ANALYZE]` — the statement under the
/// wrapper, from its first token, read as [`parse_statement`] reads it:
/// keywords match whole identifiers case-insensitively, after any
/// whitespace and line comments. Text with no wrapper comes back whole.
pub fn strip_explain(input: &str) -> &str {
    let bytes = input.as_bytes();
    let keyword = |from: usize, kw: &str| {
        let at = skip_blank(bytes, from);
        let end = at + kw.len();
        let word = bytes.get(at..end)?;
        let ident = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_';
        (word.eq_ignore_ascii_case(kw.as_bytes()) && !bytes.get(end).is_some_and(ident))
            .then_some(end)
    };
    let Some(end) = keyword(0, "EXPLAIN") else {
        return input;
    };
    let end = keyword(end, "ANALYZE").unwrap_or(end);
    &input[skip_blank(bytes, end)..]
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, message: impl Into<String>) -> SqlError {
        let offset = self.peek().map(|t| t.offset).unwrap_or(usize::MAX);
        SqlError::Parse {
            offset: if offset == usize::MAX { 0 } else { offset },
            message: message.into(),
        }
    }

    fn err_at(&self, offset: usize, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            offset,
            message: message.into(),
        }
    }

    /// Consume `tok` if it is next; report whether it was.
    fn accept(&mut self, tok: &Token) -> bool {
        if self.peek().map(|t| &t.token) == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<()> {
        if self.accept(tok) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    /// Consume a keyword (case-insensitive identifier) if it is next.
    fn accept_kw(&mut self, kw: &str) -> bool {
        if let Some(Spanned {
            token: Token::Ident(name),
            ..
        }) = self.peek()
        {
            if name.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kw}")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Some(Spanned {
                token: Token::Ident(name),
                ..
            }) => Ok(name),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here(format!("expected {what}")))
            }
        }
    }

    /// `ident` or `ident.ident` kept verbatim as a column reference name.
    fn column_name(&mut self) -> Result<String> {
        let mut name = self.ident("column name")?;
        while self.accept(&Token::Dot) {
            name.push('.');
            name.push_str(&self.ident("column name after '.'")?);
        }
        Ok(name)
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut items = vec![self.select_item()?];
        while self.accept(&Token::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("FROM")?;
        let from = self.ident("table name")?;
        let where_clause = if self.accept_kw("WHERE") {
            Some(self.or_expr()?)
        } else {
            None
        };
        let (group_by, grouping) = if self.accept_kw("GROUP") {
            self.expect_kw("BY")?;
            self.grouping_clause(&items)?
        } else {
            (Vec::new(), Grouping::Flat)
        };
        let order_by = if self.accept_kw("ORDER") {
            self.expect_kw("BY")?;
            let mut refs = vec![self.group_ref(&items)?];
            while self.accept(&Token::Comma) {
                refs.push(self.group_ref(&items)?);
            }
            refs
        } else {
            Vec::new()
        };
        Ok(SelectStmt {
            items,
            from,
            where_clause,
            group_by,
            grouping,
            order_by,
        })
    }

    /// Consume a lattice-form keyword (`ROLLUP` / `CUBE`) only when its
    /// parenthesized list follows, so plain columns with those names keep
    /// parsing as a flat grouping.
    fn accept_form_kw(&mut self, kw: &str) -> bool {
        if let Some(Spanned {
            token: Token::Ident(name),
            ..
        }) = self.peek()
        {
            if name.eq_ignore_ascii_case(kw)
                && matches!(
                    self.tokens.get(self.pos + 1),
                    Some(Spanned {
                        token: Token::LParen,
                        ..
                    })
                )
            {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    /// Consume `GROUPING SETS` only when the opening `(` of the set list
    /// follows both keywords.
    fn accept_grouping_sets_kw(&mut self) -> bool {
        let kw_at = |pos: usize, kw: &str| {
            matches!(
                self.tokens.get(pos),
                Some(Spanned { token: Token::Ident(name), .. }) if name.eq_ignore_ascii_case(kw)
            )
        };
        if kw_at(self.pos, "GROUPING")
            && kw_at(self.pos + 1, "SETS")
            && matches!(
                self.tokens.get(self.pos + 2),
                Some(Spanned {
                    token: Token::LParen,
                    ..
                })
            )
        {
            self.pos += 2;
            return true;
        }
        false
    }

    /// The clause after `GROUP BY`: a flat column list, `ROLLUP (…)`,
    /// `CUBE (…)`, or `GROUPING SETS ((…), …)`. Returns the resolved
    /// GROUP BY columns (for the set forms: the union in first-appearance
    /// order) and the grouping shape.
    fn grouping_clause(&mut self, items: &[SelectItem]) -> Result<(Vec<String>, Grouping)> {
        if self.accept_form_kw("ROLLUP") {
            return Ok((self.paren_col_list(items)?, Grouping::Rollup));
        }
        if self.accept_form_kw("CUBE") {
            return Ok((self.paren_col_list(items)?, Grouping::Cube));
        }
        if self.accept_grouping_sets_kw() {
            self.expect(&Token::LParen, "'('")?;
            let mut sets = vec![self.grouping_set(items)?];
            while self.accept(&Token::Comma) {
                sets.push(self.grouping_set(items)?);
            }
            self.expect(&Token::RParen, "')'")?;
            let mut union: Vec<String> = Vec::new();
            for col in sets.iter().flatten() {
                if !union.iter().any(|g| g.eq_ignore_ascii_case(col)) {
                    union.push(col.clone());
                }
            }
            return Ok((union, Grouping::Sets(sets)));
        }
        let mut refs = vec![self.group_ref(items)?];
        while self.accept(&Token::Comma) {
            refs.push(self.group_ref(items)?);
        }
        Ok((refs, Grouping::Flat))
    }

    /// `( col, col, … )` — at least one column.
    fn paren_col_list(&mut self, items: &[SelectItem]) -> Result<Vec<String>> {
        self.expect(&Token::LParen, "'('")?;
        let mut cols = vec![self.group_ref(items)?];
        while self.accept(&Token::Comma) {
            cols.push(self.group_ref(items)?);
        }
        self.expect(&Token::RParen, "')'")?;
        Ok(cols)
    }

    /// One set of a `GROUPING SETS` list: `( col, … )` or the grand-total
    /// set `()`.
    fn grouping_set(&mut self, items: &[SelectItem]) -> Result<Vec<String>> {
        self.expect(&Token::LParen, "'(' to open a grouping set")?;
        if self.accept(&Token::RParen) {
            return Ok(Vec::new());
        }
        let mut cols = vec![self.group_ref(items)?];
        while self.accept(&Token::Comma) {
            cols.push(self.group_ref(items)?);
        }
        self.expect(&Token::RParen, "')'")?;
        Ok(cols)
    }

    /// GROUP BY entry: a column name or a 1-based SELECT position
    /// (the papers write `GROUP BY 1,2`).
    fn group_ref(&mut self, items: &[SelectItem]) -> Result<String> {
        if let Some(Spanned {
            token: Token::Int(n),
            offset,
        }) = self.peek().cloned()
        {
            self.pos += 1;
            let idx = usize::try_from(n - 1)
                .ok()
                .filter(|&i| i < items.len())
                .ok_or_else(|| {
                    self.err_at(offset, format!("GROUP BY position {n} out of range"))
                })?;
            return match &items[idx] {
                SelectItem::Column(name) => Ok(name.clone()),
                SelectItem::Aggregate { .. } => Err(self.err_at(
                    offset,
                    format!("GROUP BY position {n} refers to an aggregate"),
                )),
            };
        }
        self.column_name()
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        // Aggregate call: known function name followed by '('.
        if let Some(Spanned {
            token: Token::Ident(name),
            ..
        }) = self.peek()
        {
            if let Some(func) = AggName::from_ident(name) {
                if matches!(
                    self.tokens.get(self.pos + 1),
                    Some(Spanned {
                        token: Token::LParen,
                        ..
                    })
                ) {
                    self.pos += 1;
                    let call = self.agg_call(func)?;
                    let alias = if self.accept_kw("AS") {
                        Some(self.ident("alias")?)
                    } else {
                        None
                    };
                    return Ok(SelectItem::Aggregate { call, alias });
                }
            }
        }
        Ok(SelectItem::Column(self.column_name()?))
    }

    fn agg_call(&mut self, func: AggName) -> Result<AggCall> {
        self.expect(&Token::LParen, "'('")?;
        let distinct = self.accept_kw("DISTINCT");
        // count(*) / count(* BY ...).
        let arg = if matches!(
            self.peek(),
            Some(Spanned {
                token: Token::Star,
                ..
            })
        ) {
            self.pos += 1;
            AstExpr::Star
        } else {
            self.or_expr()?
        };
        // Optional second argument: the rank of percentile(expr, p) /
        // approx_percentile(expr, p). Must be a numeric literal.
        let param = if self.accept(&Token::Comma) {
            let offset = self.peek().map(|t| t.offset).unwrap_or(0);
            match self.primary()? {
                AstExpr::Int(i) => Some(i as f64),
                AstExpr::Float(x) => Some(x),
                _ => {
                    return Err(self.err_at(offset, "expected a numeric percentile rank"));
                }
            }
        } else {
            None
        };
        let by = if self.accept_kw("BY") {
            let mut cols = vec![self.column_name()?];
            while self.accept(&Token::Comma) {
                cols.push(self.column_name()?);
            }
            cols
        } else {
            Vec::new()
        };
        let default_zero = if self.accept_kw("DEFAULT") {
            match self.next() {
                Some(Spanned {
                    token: Token::Int(0),
                    ..
                }) => true,
                Some(Spanned { offset, .. }) => {
                    return Err(self.err_at(offset, "only DEFAULT 0 is supported"));
                }
                None => return Err(self.err_here("expected 0 after DEFAULT")),
            }
        } else {
            false
        };
        self.expect(&Token::RParen, "')'")?;
        Ok(AggCall {
            func,
            distinct,
            arg,
            param,
            by,
            default_zero,
        })
    }

    // Expression grammar: OR < AND < comparison < additive < multiplicative.

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.accept_kw("OR") {
            let right = self.and_expr()?;
            left = AstExpr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.cmp_expr()?;
        while self.accept_kw("AND") {
            let right = self.cmp_expr()?;
            left = AstExpr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<AstExpr> {
        let left = self.add_expr()?;
        let op = match self.peek().map(|t| &t.token) {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            return Ok(AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.token) {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek().map(|t| &t.token) {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.primary()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.peek().cloned() {
            Some(Spanned {
                token: Token::Int(i),
                ..
            }) => {
                self.pos += 1;
                Ok(AstExpr::Int(i))
            }
            Some(Spanned {
                token: Token::Float(x),
                ..
            }) => {
                self.pos += 1;
                Ok(AstExpr::Float(x))
            }
            Some(Spanned {
                token: Token::Str(s),
                ..
            }) => {
                self.pos += 1;
                Ok(AstExpr::Str(s))
            }
            Some(Spanned {
                token: Token::Minus,
                ..
            }) => {
                self.pos += 1;
                // Negative literals parse directly; other unary minus
                // desugars to 0 - expr.
                match self.peek().cloned() {
                    Some(Spanned {
                        token: Token::Int(i),
                        ..
                    }) => {
                        self.pos += 1;
                        Ok(AstExpr::Int(-i))
                    }
                    Some(Spanned {
                        token: Token::Float(x),
                        ..
                    }) => {
                        self.pos += 1;
                        Ok(AstExpr::Float(-x))
                    }
                    _ => {
                        let inner = self.primary()?;
                        Ok(AstExpr::Binary {
                            op: BinOp::Sub,
                            left: Box::new(AstExpr::Int(0)),
                            right: Box::new(inner),
                        })
                    }
                }
            }
            Some(Spanned {
                token: Token::LParen,
                ..
            }) => {
                self.pos += 1;
                let inner = self.or_expr()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(inner)
            }
            Some(Spanned {
                token: Token::Ident(_),
                ..
            }) => Ok(AstExpr::Column(self.column_name()?)),
            _ => Err(self.err_here("expected expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_vertical_query() {
        // SIGMOD §3.1 example.
        let stmt =
            parse("SELECT state,city,Vpct(salesAmt BY city) FROM sales GROUP BY state,city;")
                .unwrap();
        assert_eq!(stmt.from, "sales");
        assert_eq!(stmt.group_by, vec!["state", "city"]);
        assert_eq!(stmt.items.len(), 3);
        let agg = stmt.aggregates().next().unwrap();
        assert_eq!(agg.func, AggName::Vpct);
        assert_eq!(agg.arg, AstExpr::Column("salesAmt".into()));
        assert_eq!(agg.by, vec!["city"]);
    }

    #[test]
    fn paper_horizontal_query() {
        // SIGMOD §3.2 example with a mixed vertical term.
        let stmt =
            parse("SELECT store,Hpct(salesAmt BY dweek),sum(salesAmt) FROM sales GROUP BY store;")
                .unwrap();
        let aggs: Vec<_> = stmt.aggregates().collect();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].func, AggName::Hpct);
        assert_eq!(aggs[1].func, AggName::Sum);
        assert!(aggs[1].by.is_empty());
    }

    #[test]
    fn dmkd_binary_coding_query() {
        let stmt = parse(
            "SELECT transactionId, max(1 BY deptId DEFAULT 0) FROM transactionLine GROUP BY transactionId;",
        )
        .unwrap();
        let agg = stmt.aggregates().next().unwrap();
        assert_eq!(agg.func, AggName::Max);
        assert_eq!(agg.arg, AstExpr::Int(1));
        assert!(agg.default_zero);
    }

    #[test]
    fn count_star_and_positional_group_by() {
        let stmt = parse("SELECT departmentId,gender,count(*) FROM employee GROUP BY 1,2").unwrap();
        assert_eq!(stmt.group_by, vec!["departmentId", "gender"]);
        assert_eq!(stmt.aggregates().next().unwrap().arg, AstExpr::Star);
    }

    #[test]
    fn count_distinct_like_call_with_by() {
        // DMKD writes count(distinct tid BY d); we accept the simpler
        // count(tid BY d) form.
        let stmt = parse(
            "SELECT storeId, count(transactionid BY dayofweekNo) FROM transactionLine GROUP BY storeId",
        )
        .unwrap();
        let agg = stmt.aggregates().next().unwrap();
        assert_eq!(agg.func, AggName::Count);
        assert_eq!(agg.by, vec!["dayofweekNo"]);
    }

    #[test]
    fn where_clause_and_aliases() {
        let stmt = parse(
            "SELECT state, sum(a) AS total FROM f WHERE a > 10 AND state <> 'NV' GROUP BY state",
        )
        .unwrap();
        assert!(stmt.where_clause.is_some());
        match &stmt.items[1] {
            SelectItem::Aggregate { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn multi_column_by_list() {
        let stmt =
            parse("SELECT subdeptid, sum(salesAmt BY regionNo, monthNo) FROM t GROUP BY subdeptId")
                .unwrap();
        assert_eq!(
            stmt.aggregates().next().unwrap().by,
            vec!["regionNo", "monthNo"]
        );
    }

    #[test]
    fn hpct_without_group_by() {
        let stmt = parse("SELECT Hpct(a BY d) FROM f").unwrap();
        assert!(stmt.group_by.is_empty());
    }

    #[test]
    fn arithmetic_argument() {
        let stmt = parse("SELECT sum(price * qty BY region) FROM t GROUP BY s").unwrap();
        let agg = stmt.aggregates().next().unwrap();
        assert!(matches!(agg.arg, AstExpr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn percentile_and_sketch_calls() {
        let stmt = parse(
            "SELECT state, median(a), percentile(a, 0.95), approx_count_distinct(city) \
             FROM f GROUP BY state",
        )
        .unwrap();
        let aggs: Vec<_> = stmt.aggregates().collect();
        assert_eq!(aggs.len(), 3);
        assert_eq!(aggs[0].func, AggName::Median);
        assert_eq!(aggs[0].param, None);
        assert_eq!(aggs[1].func, AggName::Percentile);
        assert_eq!(aggs[1].param, Some(0.95));
        assert_eq!(aggs[2].func, AggName::ApproxCountDistinct);

        // Integer rank literals parse (validated for range later).
        let stmt = parse("SELECT percentile(a, 1) FROM f").unwrap();
        assert_eq!(stmt.aggregates().next().unwrap().param, Some(1.0));

        // Percentile calls nest in a BY clause like any other aggregate.
        let stmt = parse("SELECT s, approx_percentile(a, 0.5 BY city) FROM f GROUP BY s").unwrap();
        let agg = stmt.aggregates().next().unwrap();
        assert_eq!(agg.param, Some(0.5));
        assert_eq!(agg.by, vec!["city"]);

        // A non-numeric rank is a parse error.
        assert!(parse("SELECT percentile(a, b) FROM f").is_err());
    }

    #[test]
    fn percentile_call_round_trips_through_display() {
        for q in [
            "SELECT state, percentile(a, 0.95) AS p95 FROM f GROUP BY state;",
            "SELECT median(a) FROM f;",
            "SELECT approx_count_distinct(city) FROM f;",
        ] {
            let stmt = parse_statement(q).unwrap();
            let printed = stmt.to_string();
            assert_eq!(parse_statement(&printed).unwrap(), stmt, "{q}");
            assert_eq!(printed, q, "canonical form is stable");
        }
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(matches!(parse("SELECT"), Err(SqlError::Parse { .. })));
        assert!(parse("SELECT a FROM").is_err());
        assert!(parse("SELECT a FROM t GROUP").is_err());
        assert!(parse("SELECT Vpct(a FROM t").is_err());
        assert!(parse("SELECT a FROM t extra").is_err());
        assert!(
            parse("SELECT max(1 BY d DEFAULT 7) FROM t").is_err(),
            "only DEFAULT 0"
        );
        assert!(
            parse("SELECT a FROM t GROUP BY 9").is_err(),
            "position out of range"
        );
        assert!(
            parse("SELECT sum(a) FROM t GROUP BY 1").is_err(),
            "positional ref to aggregate"
        );
    }

    #[test]
    fn order_by_clause() {
        let stmt = parse(
            "SELECT state, city, Vpct(a BY city) FROM f GROUP BY state, city ORDER BY state, city",
        )
        .unwrap();
        assert_eq!(stmt.order_by, vec!["state", "city"]);
        // Positional ORDER BY resolves against the select list.
        let stmt = parse("SELECT state, sum(a) FROM f GROUP BY state ORDER BY 1").unwrap();
        assert_eq!(stmt.order_by, vec!["state"]);
        // Absent -> empty.
        let stmt = parse("SELECT state, sum(a) FROM f GROUP BY state").unwrap();
        assert!(stmt.order_by.is_empty());
        // ORDER without BY is an error.
        assert!(parse("SELECT a FROM f GROUP BY a ORDER a").is_err());
    }

    #[test]
    fn rollup_and_cube_clauses() {
        let stmt =
            parse("SELECT state, city, Vpct(a BY city) FROM f GROUP BY ROLLUP (state, city)")
                .unwrap();
        assert_eq!(stmt.group_by, vec!["state", "city"]);
        assert_eq!(stmt.grouping, Grouping::Rollup);

        let stmt = parse("SELECT state, city, sum(a) FROM f GROUP BY CUBE (state, city)").unwrap();
        assert_eq!(stmt.group_by, vec!["state", "city"]);
        assert_eq!(stmt.grouping, Grouping::Cube);

        // Positional refs resolve inside the lattice forms too.
        let stmt = parse("SELECT state, city, sum(a) FROM f GROUP BY ROLLUP (1, 2)").unwrap();
        assert_eq!(stmt.group_by, vec!["state", "city"]);

        // Empty column lists are rejected.
        assert!(parse("SELECT sum(a) FROM f GROUP BY ROLLUP ()").is_err());
        assert!(parse("SELECT sum(a) FROM f GROUP BY CUBE ()").is_err());
    }

    #[test]
    fn grouping_sets_clause() {
        let stmt = parse(
            "SELECT state, city, Vpct(a BY city) FROM f \
             GROUP BY GROUPING SETS ((state, city), (state), ())",
        )
        .unwrap();
        assert_eq!(stmt.group_by, vec!["state", "city"]);
        assert_eq!(
            stmt.grouping,
            Grouping::Sets(vec![
                vec!["state".to_string(), "city".to_string()],
                vec!["state".to_string()],
                vec![],
            ])
        );

        // The union keeps first-appearance order across sets.
        let stmt = parse("SELECT a FROM f GROUP BY GROUPING SETS ((b), (c, a), (b, c))").unwrap();
        assert_eq!(stmt.group_by, vec!["b", "c", "a"]);

        // An empty set list is rejected, as is a dangling comma.
        assert!(parse("SELECT sum(a) FROM f GROUP BY GROUPING SETS ()").is_err());
        assert!(parse("SELECT sum(a) FROM f GROUP BY GROUPING SETS ((a),)").is_err());
    }

    #[test]
    fn lattice_keywords_stay_usable_as_columns() {
        // Without a following '(' these are ordinary column names.
        let stmt = parse("SELECT rollup, cube, sum(a) FROM f GROUP BY rollup, cube").unwrap();
        assert_eq!(stmt.group_by, vec!["rollup", "cube"]);
        assert_eq!(stmt.grouping, Grouping::Flat);
        let stmt = parse("SELECT grouping, sets, sum(a) FROM f GROUP BY grouping, sets").unwrap();
        assert_eq!(stmt.group_by, vec!["grouping", "sets"]);
        assert_eq!(stmt.grouping, Grouping::Flat);
    }

    #[test]
    fn lattice_clauses_round_trip_through_display() {
        for q in [
            "SELECT state, city, Vpct(a BY city) FROM f GROUP BY ROLLUP (state, city);",
            "SELECT state, city, sum(a) FROM f GROUP BY CUBE (state, city);",
            "SELECT state, city, sum(a) FROM f \
             GROUP BY GROUPING SETS ((state, city), (city), ());",
            "EXPLAIN SELECT state, Vpct(a BY state) FROM f GROUP BY ROLLUP (state);",
        ] {
            let stmt = parse_statement(q).unwrap();
            let printed = stmt.to_string();
            assert_eq!(parse_statement(&printed).unwrap(), stmt, "{q}");
            assert_eq!(printed, q, "canonical form is stable");
        }
    }

    #[test]
    fn negative_literal() {
        let stmt = parse("SELECT a FROM t WHERE a > -5").unwrap();
        assert!(stmt.where_clause.is_some());
    }

    #[test]
    fn qualified_column_names() {
        let stmt = parse("SELECT a FROM t WHERE Fk.A <> 0").unwrap();
        match stmt.where_clause.unwrap() {
            AstExpr::Binary { left, .. } => {
                assert_eq!(*left, AstExpr::Column("Fk.A".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("select a from t group by a").is_ok());
    }

    #[test]
    fn explain_statement_forms() {
        let q = "SELECT store, Hpct(amt BY dweek) FROM sales GROUP BY store";
        match parse_statement(q).unwrap() {
            Statement::Select(s) => assert_eq!(s.from, "sales"),
            other => panic!("expected Select, got {other:?}"),
        }
        match parse_statement(&format!("EXPLAIN {q}")).unwrap() {
            Statement::Explain { analyze, stmt } => {
                assert!(!analyze);
                assert_eq!(stmt, parse(q).unwrap());
            }
            other => panic!("expected Explain, got {other:?}"),
        }
        match parse_statement(&format!("explain analyze {q};")).unwrap() {
            Statement::Explain { analyze, stmt } => {
                assert!(analyze);
                assert_eq!(stmt, parse(q).unwrap());
            }
            other => panic!("expected Explain, got {other:?}"),
        }
        // ANALYZE alone is not a prefix; EXPLAIN needs a SELECT after it.
        assert!(parse_statement(&format!("ANALYZE {q}")).is_err());
        assert!(parse_statement("EXPLAIN").is_err());
        assert!(parse_statement("EXPLAIN ANALYZE 42").is_err());
    }

    #[test]
    fn strip_explain_reads_the_wrapper_as_parse_statement_does() {
        let q = "SELECT store, Hpct(amt BY dweek) FROM sales GROUP BY store";
        for text in [
            q.to_string(),
            format!("EXPLAIN {q}"),
            format!("  explain\tANALYZE\n{q};"),
            format!("-- why\nExplain -- a comment\n analyze {q}"),
        ] {
            let under = parse_statement(&text).unwrap().select().clone();
            assert_eq!(parse(strip_explain(&text)).unwrap(), under, "{text:?}");
        }
        assert_eq!(strip_explain(q), q);
        assert_eq!(strip_explain("EXPLAIN ANALYZE"), "");
        // Keywords are whole identifiers.
        assert_eq!(strip_explain("EXPLAINED SELECT"), "EXPLAINED SELECT");
        assert_eq!(strip_explain("explain_x SELECT"), "explain_x SELECT");
        assert_eq!(strip_explain("EXPLAIN ANALYZE2 x"), "ANALYZE2 x");
        assert_eq!(strip_explain(&format!("EXPLAIN -- c\n {q}")), q);
    }

    #[test]
    fn explain_statement_round_trips_through_display() {
        for q in [
            "SELECT a FROM t;",
            "EXPLAIN SELECT state, Vpct(a BY city) FROM f GROUP BY state, city;",
            "EXPLAIN ANALYZE SELECT store, Hpct(amt BY dweek) FROM sales GROUP BY store;",
        ] {
            let stmt = parse_statement(q).unwrap();
            let printed = stmt.to_string();
            assert_eq!(parse_statement(&printed).unwrap(), stmt, "{q}");
            assert_eq!(printed, q, "canonical form is stable");
        }
    }
}
