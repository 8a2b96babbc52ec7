//! End-to-end and per-layer benchmark of the Logic-LNCL workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric of the
//! traced run with `--trace 1`.  See `README.md` next to this crate.

pub mod fingerprint;
pub mod report;
pub mod serve;
pub mod sweep;
pub mod trace;
pub mod train;
pub mod workload;

use report::Outcome;
use train::Task;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sentiment", "ner"];

/// The task a workload name stands for; `None` for an unknown name.
pub fn task_of(workload: &str) -> Option<Task> {
    match workload {
        "sentiment" => Some(Task::Sentiment),
        "ner" => Some(Task::Ner),
        _ => None,
    }
}

/// Runs one workload; `None` for an unknown name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    task_of(name).map(|task| workload::run(task, seed, seconds, trace))
}
