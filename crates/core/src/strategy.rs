//! Evaluation strategies — the knobs SIGMOD Table 4/5 and DMKD Table 3 turn,
//! and nothing else: engine configuration is not a strategy of the query.

/// Where the coarse totals table `Fj` is aggregated from (SIGMOD Table 4,
/// column 4 turns this off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FjSource {
    /// Re-scan the fact table `F` for every totals level.
    FromF,
    /// Re-aggregate the partial aggregate `Fk` (sum is distributive); the
    /// paper's recommended default — "this is crucial when F is much larger
    /// than Fk".
    FromFk,
}

/// How the result table `FV` is materialized (SIGMOD Table 4, column 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialization {
    /// `INSERT INTO FV SELECT .. FROM Fj, Fk WHERE ..` — bulk build of a
    /// third temporary table.
    Insert,
    /// `UPDATE Fk SET A = ..` in place; `FV = Fk`. Saves the third table
    /// (disk space) at the cost of per-row logged writes.
    Update,
}

/// Full strategy for a vertical percentage query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VpctStrategy {
    /// Source for the totals aggregation.
    pub fj_source: FjSource,
    /// INSERT vs UPDATE materialization.
    pub materialization: Materialization,
    /// Index the common subkey `D1..Dj` of `Fk` and `Fj` for the division
    /// (SIGMOD Table 4, column 2 turns this off). For an INSERT plan the
    /// index is direct addressing — the `parent` vector, each `Fk` row's
    /// row in `Fj`, which the scan that grouped `Fk` already knows — so
    /// nothing is built or probed; the UPDATE plan builds a hash index on
    /// `Fj` and probes it per row. Off, the INSERT plan joins through a
    /// transient hash table.
    pub subkey_index: bool,
    /// Compute `Fk` and every `Fj` in one synchronized scan of `F`
    /// (only meaningful with [`FjSource::FromF`]).
    pub synchronized_scan: bool,
}

impl VpctStrategy {
    /// The paper's recommended configuration (Table 4 "best strategy"
    /// column): index the common subkey, INSERT the result, compute `Fj`
    /// from `Fk`.
    pub fn best() -> VpctStrategy {
        VpctStrategy {
            fj_source: FjSource::FromFk,
            materialization: Materialization::Insert,
            subkey_index: true,
            synchronized_scan: false,
        }
    }

    /// Table 4 column (2): drop the subkey indexes.
    pub fn without_index() -> VpctStrategy {
        VpctStrategy {
            subkey_index: false,
            ..VpctStrategy::best()
        }
    }

    /// Table 4 column (3): UPDATE instead of INSERT.
    pub fn with_update() -> VpctStrategy {
        VpctStrategy {
            materialization: Materialization::Update,
            ..VpctStrategy::best()
        }
    }

    /// Table 4 column (4): compute `Fj` from `F` instead of from `Fk`.
    pub fn fj_from_f() -> VpctStrategy {
        VpctStrategy {
            fj_source: FjSource::FromF,
            ..VpctStrategy::best()
        }
    }

    /// Both aggregations from `F` in a single synchronized scan.
    pub fn synchronized() -> VpctStrategy {
        VpctStrategy {
            fj_source: FjSource::FromF,
            synchronized_scan: true,
            ..VpctStrategy::best()
        }
    }
}

impl Default for VpctStrategy {
    fn default() -> Self {
        VpctStrategy::best()
    }
}

/// Evaluation strategies for horizontal queries (SIGMOD Table 5 compares the
/// two CASE variants; DMKD Table 3 adds the two SPJ variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizontalStrategy {
    /// One scan of `F` with `N` CASE-guarded aggregate terms.
    CaseDirect,
    /// First compute the vertical aggregate `FV` (`GROUP BY D1..Dk`), then
    /// run the CASE transposition over `FV`.
    CaseFromFv,
    /// DMKD SPJ: `N` filtered aggregation queries from `F`, assembled with
    /// `N` left outer joins onto the key table `F0`.
    SpjDirect,
    /// SPJ with the `N` aggregations reading the pre-aggregated `FV`.
    SpjFromFv,
}

impl HorizontalStrategy {
    /// All four strategies, in DMKD Table 3 column order.
    pub fn all() -> [HorizontalStrategy; 4] {
        [
            HorizontalStrategy::SpjDirect,
            HorizontalStrategy::SpjFromFv,
            HorizontalStrategy::CaseDirect,
            HorizontalStrategy::CaseFromFv,
        ]
    }

    /// Whether the strategy pre-aggregates into `FV`.
    pub fn uses_fv(&self) -> bool {
        matches!(
            self,
            HorizontalStrategy::CaseFromFv | HorizontalStrategy::SpjFromFv
        )
    }

    /// Display name matching the tables in the papers.
    pub fn label(&self) -> &'static str {
        match self {
            HorizontalStrategy::CaseDirect => "CASE from F",
            HorizontalStrategy::CaseFromFv => "CASE from FV",
            HorizontalStrategy::SpjDirect => "SPJ from F",
            HorizontalStrategy::SpjFromFv => "SPJ from FV",
        }
    }
}

/// Options for horizontal evaluation beyond the strategy choice: what the
/// papers vary (SIGMOD Table 5, DMKD Table 3 and §3.6). How the engine runs
/// a plan — worker threads, the dense or the hash group tier, vectorized or
/// scalar kernels — is the statement's [`pa_engine::ParallelConfig`], and
/// its deadline is [`crate::QueryLimits`] (DESIGN.md §18).
#[derive(Debug, Clone, PartialEq)]
pub struct HorizontalOptions {
    /// Evaluation strategy.
    pub strategy: HorizontalStrategy,
    /// Evaluate the CASE strategies as the pivot ([`crate::dispatch`]): the
    /// aggregate at `GROUP BY ∪ BY` in one scan, transposed into the result
    /// columns at finalize, O(1) per row whatever the BY columns are. On
    /// by default. Off runs the paper's O(N)-per-row CASE predicate chain
    /// instead — an ablation (cost-model checks, EXPERIMENTS.md,
    /// differential tests); nothing falls back to it.
    pub jump_table: bool,
    /// Maximum columns a single result table may have (the DBMS limit the
    /// papers worry about). Teradata V2R4's limit was 2048.
    pub max_columns: usize,
    /// Allow splitting an over-wide result into vertically partitioned
    /// tables, each keyed by `D1..Dj` (the papers' prescribed remedy).
    /// When false, exceeding `max_columns` is an error.
    pub allow_partitioning: bool,
}

impl Default for HorizontalOptions {
    fn default() -> Self {
        HorizontalOptions {
            strategy: HorizontalStrategy::CaseDirect,
            jump_table: true,
            max_columns: 2048,
            allow_partitioning: false,
        }
    }
}

impl HorizontalOptions {
    /// Options with a given strategy, defaults elsewhere.
    pub fn with_strategy(strategy: HorizontalStrategy) -> HorizontalOptions {
        HorizontalOptions {
            strategy,
            ..HorizontalOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_strategy_matches_paper_recommendations() {
        let s = VpctStrategy::best();
        assert_eq!(s.fj_source, FjSource::FromFk);
        assert_eq!(s.materialization, Materialization::Insert);
        assert!(s.subkey_index);
        assert!(!s.synchronized_scan);
        assert_eq!(VpctStrategy::default(), s);
    }

    #[test]
    fn knob_constructors_flip_one_knob() {
        assert!(!VpctStrategy::without_index().subkey_index);
        assert_eq!(
            VpctStrategy::with_update().materialization,
            Materialization::Update
        );
        assert_eq!(VpctStrategy::fj_from_f().fj_source, FjSource::FromF);
        let sync = VpctStrategy::synchronized();
        assert!(sync.synchronized_scan);
        assert_eq!(sync.fj_source, FjSource::FromF);
    }

    #[test]
    fn horizontal_strategy_metadata() {
        assert!(HorizontalStrategy::CaseFromFv.uses_fv());
        assert!(!HorizontalStrategy::CaseDirect.uses_fv());
        assert_eq!(HorizontalStrategy::all().len(), 4);
        assert_eq!(HorizontalStrategy::SpjDirect.label(), "SPJ from F");
    }

    #[test]
    fn default_options() {
        let o = HorizontalOptions::default();
        assert_eq!(o.strategy, HorizontalStrategy::CaseDirect);
        assert_eq!(o.max_columns, 2048);
        assert!(o.jump_table, "code-path CASE evaluation is the default");
        assert!(!o.allow_partitioning);
        let o = HorizontalOptions::with_strategy(HorizontalStrategy::SpjFromFv);
        assert_eq!(o.strategy, HorizontalStrategy::SpjFromFv);
    }
}
