//! Correctness: run each distinct statement through the service once and
//! compare its answer with the reference evaluator's.

use crate::data::{cells_of, RawTable};
use crate::reference::{compare, evaluate, Answer};
use crate::stmt::Stmt;
use percentage_aggregations::service::QueryService;

#[derive(Debug, Default)]
pub struct CheckOut {
    pub attempted: u64,
    /// One line per statement whose answer was wrong or that failed to run.
    pub failures: Vec<String>,
}

/// Reference answers for `stmts`, computed on `threads` threads (the
/// reference is deliberately naive; this keeps it off the critical path).
fn reference_answers<'t>(
    stmts: &[Stmt],
    table: &(dyn Fn(&str) -> &'t RawTable + Sync),
    threads: usize,
) -> Vec<Answer> {
    let threads = threads.clamp(1, stmts.len().max(1));
    let mut answers: Vec<Option<Answer>> = vec![None; stmts.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    (w..stmts.len())
                        .step_by(threads)
                        .map(|i| (i, evaluate(&stmts[i], table(&stmts[i].table))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, a) in h.join().expect("reference evaluator panicked") {
                answers[i] = Some(a);
            }
        }
    });
    answers
        .into_iter()
        .map(|a| a.expect("every statement evaluated"))
        .collect()
}

pub fn check_statements<'t>(
    svc: &QueryService<'_>,
    stmts: &[Stmt],
    table: &(dyn Fn(&str) -> &'t RawTable + Sync),
    threads: usize,
    stage: &str,
) -> CheckOut {
    let answers = reference_answers(stmts, table, threads);
    let mut out = CheckOut::default();
    for (stmt, answer) in stmts.iter().zip(&answers) {
        out.attempted += 1;
        let sql = stmt.sql();
        let verdict = match svc.execute_sql(&sql) {
            Ok(resp) => compare(answer, cells_of(&resp.table)),
            Err(e) => Err(format!("failed to run: {e}")),
        };
        if let Err(why) = verdict {
            out.failures.push(format!("[{stage}] {sql}: {why}"));
        }
    }
    out
}
