//! Retail OLAP: strategy shoot-out on the paper's `sales` workload.
//!
//! Generates the SIGMOD `sales` table (10M rows at paper scale; smoke scale
//! here so the example runs in seconds — pass `--release` and `PAPER=1` for
//! the real thing), then runs the evaluation-section queries under every
//! strategy, printing wall time and work counters. This is SIGMOD §4 in
//! miniature.
//!
//! Run with: `cargo run --release --example retail_sales`

use percentage_aggregations::prelude::*;
use std::time::Instant;

fn main() -> Result<(), CoreError> {
    let scale = if std::env::var("PAPER").is_ok() {
        Scale::PAPER
    } else {
        Scale::SMOKE
    };
    let config = SalesConfig::at_scale(scale);
    println!("generating sales with n = {} ...", config.rows);
    let catalog = Catalog::new();
    pa_workload::install_sales(&catalog, &config)?;
    let engine = PercentageEngine::new(&catalog);

    // The four sales queries of SIGMOD Table 4, as (GROUP BY, BY) pairs.
    let queries: [(&[&str], &[&str]); 4] = [
        (&["dweek"], &["dweek"]),
        (&["monthNo", "dweek"], &["dweek"]),
        (&["dept", "dweek", "monthNo"], &["dweek", "monthNo"]),
        (
            &["dept", "store", "dweek", "monthNo"],
            &["dweek", "monthNo"],
        ),
    ];

    println!("\n== vertical percentage strategies (times in ms) ==");
    println!(
        "{:<44} {:>10} {:>10} {:>10} {:>10}",
        "GROUP BY [BY]", "best", "no-index", "update", "Fj-from-F"
    );
    for (group_by, by) in queries {
        let q = VpctQuery::single("sales", group_by, "salesAmt", by);
        let mut times = Vec::new();
        for strat in [
            VpctStrategy::best(),
            VpctStrategy::without_index(),
            VpctStrategy::with_update(),
            VpctStrategy::fj_from_f(),
        ] {
            let t0 = Instant::now();
            let result = engine.vpct_with(&q, &strat)?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            times.push((ms, result.stats));
        }
        println!(
            "{:<44} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            format!("{group_by:?} {by:?}"),
            times[0].0,
            times[1].0,
            times[2].0,
            times[3].0,
        );
    }

    // Horizontal: CASE from F vs from FV, plus the hash-tier ablation (an
    // engine handed `dense_budget: 0`).
    println!("\n== horizontal percentage strategies (times in ms) ==");
    println!(
        "{:<44} {:>10} {:>10} {:>12}",
        "GROUP BY [BY]", "from F", "from FV", "hash-dispatch"
    );
    let hqueries: [(&[&str], &[&str]); 3] = [
        (&[], &["dweek"]),
        (&["monthNo"], &["dweek"]),
        (&["dept"], &["dweek", "monthNo"]),
    ];
    let hash_tier = PercentageEngine::new(&catalog).with_config(ParallelConfig {
        dense_budget: 0,
        ..ParallelConfig::from_env()
    });
    for (group_by, by) in hqueries {
        let q = HorizontalQuery::hpct("sales", group_by, "salesAmt", by);
        let mut times = Vec::new();
        for (engine, strategy) in [
            (&engine, HorizontalStrategy::CaseDirect),
            (&engine, HorizontalStrategy::CaseFromFv),
            (&hash_tier, HorizontalStrategy::CaseDirect),
        ] {
            let opts = HorizontalOptions::with_strategy(strategy);
            let t0 = Instant::now();
            let result = engine.horizontal_with(&q, &opts)?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            times.push((ms, result.stats.case_condition_evals));
        }
        println!(
            "{:<44} {:>10.1} {:>10.1} {:>12.1}",
            format!("{group_by:?} {by:?}"),
            times[0].0,
            times[1].0,
            times[2].0,
        );
    }

    // A peek at an actual result: weekday mix per department.
    let q = HorizontalQuery::hpct("sales", &["dept"], "salesAmt", &["dweek"]);
    let result = engine.horizontal(&q)?;
    println!("\n== weekday sales mix per department (first 8 departments) ==");
    println!("{}", result.snapshot().sorted_by(&[0]).display(8));
    Ok(())
}
