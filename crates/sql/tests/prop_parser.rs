//! Parser round-trip property: render a randomly generated statement to SQL
//! text, parse it back, and require structural equality. Covers every
//! syntactic feature of the dialect (Vpct/Hpct/Hagg calls, DISTINCT,
//! DEFAULT 0, aliases, WHERE, GROUP BY, ORDER BY).

use pa_sql::{parse, AggCall, AggName, AstExpr, BinOp, Grouping, SelectItem, SelectStmt};
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    // Identifiers that are not dialect keywords.
    "[a-z][a-z0-9_]{0,6}".prop_filter("keyword", |s| {
        !matches!(
            s.as_str(),
            "select"
                | "from"
                | "where"
                | "group"
                | "order"
                | "by"
                | "as"
                | "and"
                | "or"
                | "default"
                | "distinct"
                | "sum"
                | "count"
                | "avg"
                | "min"
                | "max"
                | "vpct"
                | "hpct"
                | "median"
        )
    })
}

fn literal() -> impl Strategy<Value = AstExpr> {
    prop_oneof![
        (-1000i64..1000).prop_map(AstExpr::Int),
        (0u32..4000).prop_map(|x| AstExpr::Float(x as f64 / 8.0 + 0.125)),
        "[a-z ']{0,6}".prop_map(AstExpr::Str),
    ]
}

fn where_expr() -> impl Strategy<Value = AstExpr> {
    let leaf = prop_oneof![ident().prop_map(AstExpr::Column), literal()];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (
            inner.clone(),
            prop_oneof![
                Just(BinOp::Eq),
                Just(BinOp::Ne),
                Just(BinOp::Lt),
                Just(BinOp::Le),
                Just(BinOp::Gt),
                Just(BinOp::Ge),
                Just(BinOp::And),
                Just(BinOp::Or),
            ],
            inner,
        )
            .prop_map(|(l, op, r)| AstExpr::Binary {
                op,
                left: Box::new(l),
                right: Box::new(r),
            })
    })
}

fn agg_call() -> impl Strategy<Value = AggCall> {
    (
        prop_oneof![
            Just(AggName::Vpct),
            Just(AggName::Hpct),
            Just(AggName::Sum),
            Just(AggName::Count),
            Just(AggName::Avg),
            Just(AggName::Min),
            Just(AggName::Max),
            Just(AggName::Median),
            Just(AggName::Percentile),
            Just(AggName::ApproxPercentile),
            Just(AggName::ApproxCountDistinct),
        ],
        any::<bool>(),
        prop_oneof![
            ident().prop_map(AstExpr::Column),
            (1i64..10).prop_map(AstExpr::Int),
            Just(AstExpr::Star),
        ],
        0u32..=100,
        prop::collection::vec(ident(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(func, distinct, arg, rank, by, default_zero)| {
            // Keep the combination syntactically valid for the renderer:
            // DISTINCT and '*' belong to count, the rank argument to the
            // percentile functions.
            let distinct = distinct && func == AggName::Count && !matches!(arg, AstExpr::Star);
            let arg = if matches!(arg, AstExpr::Star) && func != AggName::Count {
                AstExpr::Int(1)
            } else {
                arg
            };
            let param = func.takes_param().then(|| rank as f64 / 100.0);
            AggCall {
                func,
                distinct,
                arg,
                param,
                by,
                default_zero,
            }
        })
}

/// A GROUP BY clause: the resolved column list plus its lattice shape,
/// mirroring the parser's invariants (ROLLUP/CUBE lists are non-empty;
/// the Sets union keeps first-appearance order).
fn grouping_clause() -> impl Strategy<Value = (Vec<String>, Grouping)> {
    prop_oneof![
        prop::collection::vec(ident(), 0..3).prop_map(|g| (g, Grouping::Flat)),
        prop::collection::vec(ident(), 1..4).prop_map(|g| (g, Grouping::Rollup)),
        prop::collection::vec(ident(), 1..4).prop_map(|g| (g, Grouping::Cube)),
        prop::collection::vec(prop::collection::vec(ident(), 0..3), 1..4).prop_map(|sets| {
            let mut union: Vec<String> = Vec::new();
            for col in sets.iter().flatten() {
                if !union.iter().any(|g| g.eq_ignore_ascii_case(col)) {
                    union.push(col.clone());
                }
            }
            (union, Grouping::Sets(sets))
        }),
    ]
}

fn stmt() -> impl Strategy<Value = SelectStmt> {
    (
        prop::collection::vec(
            prop_oneof![
                ident().prop_map(SelectItem::Column),
                (agg_call(), prop::option::of(ident()))
                    .prop_map(|(call, alias)| SelectItem::Aggregate { call, alias }),
            ],
            1..5,
        ),
        ident(),
        prop::option::of(where_expr()),
        grouping_clause(),
        prop::collection::vec(ident(), 0..2),
    )
        .prop_map(
            |(items, from, where_clause, (group_by, grouping), order_by)| SelectStmt {
                items,
                from,
                where_clause,
                group_by,
                grouping,
                order_by,
            },
        )
}

/// A shrunk counterexample of the round trip: a chained comparison,
/// `WHERE -1 = a = a`, is `(-1 = a) = a` and must print back as that.
#[test]
fn a_chained_comparison_with_a_negative_literal_round_trips() {
    let eq = |left, right| AstExpr::Binary {
        op: BinOp::Eq,
        left: Box::new(left),
        right: Box::new(right),
    };
    let a = || AstExpr::Column("a".into());
    let s = SelectStmt {
        items: vec![SelectItem::Column("a".into())],
        from: "a".into(),
        where_clause: Some(eq(eq(AstExpr::Int(-1), a()), a())),
        group_by: vec![],
        grouping: Grouping::Flat,
        order_by: vec![],
    };
    let text = s.to_string();
    assert_eq!(parse(&text).unwrap(), s, "{text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn render_parse_round_trip(s in stmt()) {
        let text = s.to_string();
        let parsed = parse(&text)
            .unwrap_or_else(|e| panic!("failed to re-parse {text:?}: {e}"));
        prop_assert_eq!(parsed, s, "{}", text);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "[ -~]{0,80}") {
        let _ = parse(&input);
    }

    #[test]
    fn tokenizer_never_panics(input in ".{0,80}") {
        let _ = pa_sql::token::tokenize(&input);
    }
}
