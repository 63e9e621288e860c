//! The tests' one oracle (DESIGN.md §5). Every suite that checks an answer
//! checks it against this kit:
//!
//! * [`reference`] — the row-level reference of the scan core's adapters:
//!   groups through a tuple map of key fragments, one `Acc::update` per
//!   row, chunks merged in worker order;
//! * [`oracle`] — the statement-level reference: `Vpct`, `Hpct`/`Hagg`,
//!   extras, grouping sets, missing-row pads and `ORDER BY`, by nested
//!   loops over `Value`s from the papers' definitions;
//! * [`gen`] — one seeded generator of corner-value tables and of
//!   statements, which [`stmt::Stmt`] renders as SQL and as typed queries;
//! * [`compare`] — one comparator of names, types, validity, bits and row
//!   order.
//!
//! The kit is a dev-dependency only and lives outside `crates/`, so
//! nothing in it counts as production code.

pub mod compare;
pub mod gen;
pub mod oracle;
pub mod reference;
pub mod stmt;

pub use compare::{assert_same, assert_same_rows};
pub use gen::{config, Draw};
pub use oracle::answer;
pub use stmt::{Sets, Stmt};
