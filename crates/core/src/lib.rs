//! # pa-core — vertical and horizontal percentage aggregations
//!
//! Reference implementation of Ordonez, *"Vertical and Horizontal Percentage
//! Aggregations"* (SIGMOD 2004), extended with the generalized horizontal
//! aggregations of the DMKD 2004 companion paper. Queries can be defined
//! programmatically ([`VpctQuery`], [`HorizontalQuery`]) or parsed from the
//! SQL dialect (via `pa-sql`), evaluated under any of the strategies the
//! papers benchmark, and compared against the OLAP window-function baseline.

#![warn(missing_docs)]

pub mod codegen;
pub mod dispatch;
pub mod error;
pub mod executor;
pub mod horizontal;
pub mod lattice;
pub mod missing;
pub mod naming;
pub mod olap;
pub mod optimizer;
pub mod query;
mod roll;
pub mod strategy;
pub mod vertical;

pub use error::{CoreError, Result};
pub use executor::{PercentageEngine, PlanCacheStats, QueryLimits, SqlOutcome};
pub use horizontal::{eval_horizontal, HorizontalResult};
pub use lattice::{
    eval_vpct_batch, eval_vpct_lattice_guarded, plan_levels_cached, Level, LevelSource, LevelStep,
};
pub use missing::MissingRows;
pub use olap::eval_vpct_olap;
pub use optimizer::{choose_horizontal_strategy, choose_vpct_strategy};
pub use pa_engine::{
    AbortCause, Clock, Deadline, Degradation, ExecStats, MetricsRegistry, ParallelConfig,
    ResourceGuard, SpanRecord, SystemClock, TestClock, TraceReport, Tracer,
};
pub use query::{
    from_sql, per_set_statements, ExtraAgg, HorizontalQuery, HorizontalTerm, Measure, Query,
    VpctQuery, VpctTerm,
};
pub use strategy::{
    FjSource, HorizontalOptions, HorizontalStrategy, Materialization, VpctStrategy,
};
pub use vertical::{eval_vpct, QueryResult};
