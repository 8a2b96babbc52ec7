//! A workload: one task's corpus through every layer of the workspace.
//!
//! A run sets up (the task's paper-scale corpus and model, the task's
//! scenarios of CI's sweep grid, the serve label stream and a server),
//! then measures three phases in turn: repeated Logic-LNCL trainings for
//! `--seconds` and a traced replay of one (`nn`, `autograd`, `logic`,
//! `core`, `crowd`, `tensor`), the task's part of CI's sweep (`bench`
//! and every method family), and the label stream through an in-process
//! `lncl-serve` (`serve` and `crowd`'s streaming truth).  So every
//! workload reports every metric of `BENCHMARK.json`; the two differ in
//! how they use the layers.

use crate::report::{median, print_unreported, setup_repeats_due, timed, Outcome, SETUP_REPEATS};
use crate::trace::Tracer;
use crate::train::Task;
use crate::{serve, sweep, train};
use lncl_bench::Scale;
use lncl_crowd::scenario::ScenarioConfig;
use lncl_crowd::TaskKind;

/// The scales and epoch caps of a run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub train_scale: Scale,
    pub train_epochs: usize,
    pub sweep_scale: Scale,
    pub sweep_epochs: usize,
    pub serve_scale: Scale,
}

impl Plan {
    /// The benchmark's plan: paper-scale training and stream, CI's sweep.
    pub fn benchmark(task: Task) -> Self {
        Plan {
            train_scale: Scale::Paper,
            train_epochs: task.epochs(),
            sweep_scale: sweep::SCALE,
            sweep_epochs: sweep::EPOCHS,
            serve_scale: Scale::Paper,
        }
    }

    /// Tiny corpora everywhere, for the tests.
    pub fn tiny() -> Self {
        Plan {
            train_scale: Scale::Tiny,
            train_epochs: 2,
            sweep_scale: Scale::Tiny,
            sweep_epochs: 1,
            serve_scale: Scale::Tiny,
        }
    }
}

/// Everything a run builds before it measures.
pub struct Setup {
    pub train: train::Setup,
    pub sweep: Vec<ScenarioConfig>,
    pub stream: serve::Stream,
}

pub fn set_up(task: Task, plan: &Plan, seed: u64) -> Setup {
    Setup {
        train: train::setup(task, plan.train_scale, seed, plan.train_epochs),
        sweep: sweep::configs(task.kind(), plan.sweep_scale),
        stream: serve::set_up(plan.serve_scale, seed),
    }
}

pub fn run(task: Task, seed: u64, seconds: f64, trace: bool) -> Outcome {
    run_at(task, &Plan::benchmark(task), seed, seconds, trace)
}

/// Runs one workload under `plan`.  Set-up runs [`SETUP_REPEATS`] times,
/// spread evenly over the trainings so that its median covers the same
/// stretch of the run; a shared machine's speed can shift within seconds.
pub fn run_at(task: Task, plan: &Plan, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_samples = Vec::new();
    let state = timed(&mut setup_samples, || set_up(task, plan, seed));
    let set_up_again = |samples: &mut Vec<f64>, due: usize| {
        while samples.len() < due {
            std::hint::black_box(timed(samples, || set_up(task, plan, seed)));
        }
    };
    let dataset = &state.train.dataset;
    println!(
        "{task:?}: {} train / {} dev / {} test instances, {} annotators, epoch cap {}",
        dataset.train.len(),
        dataset.dev.len(),
        dataset.test.len(),
        dataset.num_annotators,
        state.train.config.epochs
    );

    let tracer = Tracer::new();
    let trained = train::measure(&state.train, seconds, &tracer, &mut out, |share| {
        set_up_again(&mut setup_samples, setup_repeats_due(share))
    });
    set_up_again(&mut setup_samples, SETUP_REPEATS);
    let swept = sweep::measure(&state.sweep, plan.sweep_scale, plan.sweep_epochs, trace, &tracer, &mut out);
    let served = serve::measure(&state.stream, trace, &tracer, &mut out);

    let sequence_task = task.kind() == TaskKind::SequenceTagging;
    out.report_end_to_end(&[
        ("setup_s", median(&setup_samples), setup_samples.len()),
        ("peak_rss_mb", crate::fingerprint::peak_rss_mb(), 1),
        ("infer_headline", trained.first.report.inference.headline(sequence_task) as f64, 1),
    ]);
    print_unreported("sweep_s", swept.wall_s, "s", 1);
    if trace {
        let derived: Vec<_> = [trained.derived, swept.derived, served].concat();
        out.report_layers(&tracer, &derived);
    }
    out
}
