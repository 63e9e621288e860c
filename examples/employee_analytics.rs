//! HR analytics on the `employee` workload: percentage breakdowns, the
//! missing-rows issue and its two remedies, and the OLAP-extension
//! comparison — SIGMOD §3.1's issues section as a runnable scenario.
//!
//! Run with: `cargo run --release --example employee_analytics`

use percentage_aggregations::prelude::*;
use percentage_aggregations::storage::Change;
use std::time::Instant;

fn main() -> Result<(), CoreError> {
    let catalog = Catalog::new();
    let config = EmployeeConfig::at_scale(Scale::SMOKE);
    println!("generating employee with n = {} ...", config.rows);
    pa_workload::install_employee(&catalog, &config)?;
    let engine = PercentageEngine::new(&catalog);

    // Salary share of each marital status within gender.
    let out = engine.execute_sql(
        "SELECT gender, marstatus, Vpct(salary BY marstatus) AS salaryShare, count(*) AS n \
         FROM employee GROUP BY gender, marstatus;",
    )?;
    let SqlOutcome::Vertical(result) = out else {
        unreachable!()
    };
    println!("\n== salary share by marital status within gender ==");
    println!("{}", result.snapshot().sorted_by(&[0, 1]).display(10));

    // Head-count percentages (Vpct of a literal counts rows).
    let q = VpctQuery::single(
        "employee",
        &["gender", "educat"],
        Measure::LitInt(1),
        &["educat"],
    );
    let result = engine.vpct(&q)?;
    println!("== head-count share by education within gender ==");
    println!("{}", result.snapshot().sorted_by(&[0, 1]).display(12));

    // The missing-rows issue: carve a hole, then demonstrate the remedies.
    // UPDATE employee SET educat = NULL WHERE gender = 'F' AND educat = 'phd'
    // — now the (F, phd) cube cell is empty.
    {
        let schema = catalog.table("employee")?.read().schema().clone();
        let (gender, educat) = (schema.index_of("gender")?, schema.index_of("educat")?);
        let (f, phd) = (Value::str("F"), Value::str("phd"));
        let mut from = 0;
        let next = &mut |t: &Table, set: &mut Vec<Value>| {
            let hit = (from..t.num_rows())
                .find(|&row| t.get(row, gender) == f && t.get(row, educat) == phd)?;
            from = hit + 1;
            set.push(Value::Null);
            Some(hit)
        };
        let cols = &[educat];
        catalog.write("employee", Change::Update { cols, next })?;
    }
    let q = VpctQuery::single("employee", &["gender", "educat"], "salary", &["educat"]);
    let plain = engine.vpct_with_missing(&q, &VpctStrategy::best(), MissingRows::Ignore)?;
    let padded = engine.vpct_with_missing(&q, &VpctStrategy::best(), MissingRows::PostProcess)?;
    println!(
        "== missing rows: ignore → {} rows; post-process pads to {} rows ==",
        plain.snapshot().num_rows(),
        padded.snapshot().num_rows()
    );
    println!("{}", padded.snapshot().sorted_by(&[0, 1]).display(14));

    // Percentage plan vs OLAP window plan, timed.
    let q = VpctQuery::single(
        "employee",
        &["gender", "marstatus"],
        "salary",
        &["marstatus"],
    );
    let t0 = Instant::now();
    let fast = engine.vpct(&q)?;
    let fast_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let olap = engine.vpct_olap(&q)?;
    let olap_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("== Vpct best strategy vs OLAP extensions ==");
    println!("  Vpct : {fast_ms:8.1} ms  ({})", fast.stats);
    println!("  OLAP : {olap_ms:8.1} ms  ({})", olap.stats);
    println!(
        "  speed-up: {:.1}x (paper reports ~6x on employee, ~30x on sales)",
        olap_ms / fast_ms
    );
    Ok(())
}
