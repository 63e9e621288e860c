//! # percentage-aggregations
//!
//! A from-scratch Rust implementation of **Carlos Ordonez, "Vertical and
//! Horizontal Percentage Aggregations" (SIGMOD 2004)**, extended with the
//! generalized horizontal aggregations of the DMKD 2004 companion paper —
//! on top of an in-memory columnar relational engine built for the purpose.
//!
//! ```
//! use percentage_aggregations::prelude::*;
//!
//! // The paper's Table 1 fact table.
//! let catalog = Catalog::new();
//! let schema = Schema::from_pairs(&[
//!     ("state", DataType::Str),
//!     ("city", DataType::Str),
//!     ("salesAmt", DataType::Float),
//! ])
//! .unwrap()
//! .into_shared();
//! let mut f = Table::empty(schema);
//! for (s, c, a) in [("CA", "SF", 83.0), ("CA", "LA", 23.0), ("TX", "Dallas", 85.0)] {
//!     f.push_row(&[Value::str(s), Value::str(c), Value::Float(a)]).unwrap();
//! }
//! catalog.create_table("sales", f).unwrap();
//!
//! // SIGMOD §3.1: what share of its state did each city contribute?
//! let engine = PercentageEngine::new(&catalog);
//! let out = engine
//!     .execute_sql("SELECT state,city,Vpct(salesAmt BY city) FROM sales GROUP BY state,city;")
//!     .unwrap();
//! let result = out.table();
//! let t = result.read();
//! assert_eq!(t.num_rows(), 3);
//! ```
//!
//! The crates underneath:
//!
//! * [`storage`] — columnar tables, catalog, hash indexes, WAL.
//! * [`engine`] — physical operators (hash aggregation, joins, windows...).
//! * [`sql`] — the extended SQL dialect (`Vpct`, `Hpct`, `agg(A BY ...)`).
//! * [`core`] — percentage queries, evaluation strategies, code generation.
//! * [`service`] — admission control, degradation, service metrics.
//! * [`workload`] — the papers' evaluation data sets, synthesized.

pub use pa_core as core;
pub use pa_engine as engine;
pub use pa_service as service;
pub use pa_sql as sql;
pub use pa_storage as storage;
pub use pa_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use pa_core::{
        eval_horizontal, eval_vpct, eval_vpct_olap, CoreError, ExtraAgg, FjSource,
        HorizontalOptions, HorizontalQuery, HorizontalResult, HorizontalStrategy, HorizontalTerm,
        Materialization, Measure, MissingRows, PercentageEngine, QueryResult, SqlOutcome,
        VpctQuery, VpctStrategy, VpctTerm,
    };
    pub use pa_engine::{
        AggFunc, ExecStats, MetricsRegistry, ParallelConfig, ResourceGuard, TraceReport, Tracer,
    };
    pub use pa_service::{QueryService, ServiceConfig, ServiceError};
    pub use pa_storage::{Catalog, DataType, MemLogStore, RecoveryReport, Schema, Table, Value};
    pub use pa_workload::{CensusConfig, EmployeeConfig, SalesConfig, Scale, TransactionConfig};
}
