//! # pa-sql — SQL dialect front end
//!
//! Tokenizer, parser and rule validation for the percentage-query dialect:
//! standard `SELECT ... FROM ... [WHERE ...] [GROUP BY ...]` plus the
//! aggregate extensions the papers propose — `Vpct(A BY ...)`,
//! `Hpct(A BY ...)`, and `sum/count/avg/min/max(A BY ... [DEFAULT 0])`.
//!
//! The validator enforces the exact usage-rule lists from SIGMOD §3.1/§3.2
//! and DMKD §3.1 and classifies each statement as vertical, horizontal, or
//! plain — the classification `pa-core` uses to pick an evaluation
//! framework.

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod parser;
pub mod token;
pub mod validate;

pub use ast::{
    AggCall, AggName, AstExpr, BinOp, Grouping, SelectItem, SelectStmt, Statement, MAX_CUBE_COLUMNS,
};
pub use error::{Result, SqlError};
pub use parser::{parse, parse_statement, strip_explain};
pub use validate::{is_strict_paper_form, validate, QueryKind};
