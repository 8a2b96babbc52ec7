//! The training phase of a workload: repeated Logic-LNCL trainings of the
//! task at paper scale, plus a traced replay of Algorithm 1 from public
//! calls.
//!
//! The replay repeats `LogicLncl::train` step for step — same RNG stream,
//! same optimiser, same float operations in the same order — with a span
//! around every call into a layer.  It must reproduce the trainer's loss
//! history, dev history, best model and final `q_f` bit for bit; any
//! divergence is a failed check.

use crate::report::{median, print_unreported, Outcome};
use crate::trace::Tracer;
use lncl_bench::Scale;
use lncl_crowd::truth::{MajorityVote, TruthInference};
use lncl_crowd::{metrics, CrowdDataset, TaskKind};
use lncl_nn::models::AnyModel;
use lncl_nn::optim::{Adadelta, Adam, Optimizer, Sgd};
use lncl_nn::{Binding, InstanceClassifier, Module};
use lncl_tensor::TensorRng;
use logic_lncl::distill::infer_qb;
use logic_lncl::posterior::{infer_qa_into, FlatPosteriors};
use logic_lncl::predict::evaluate_split;
use logic_lncl::{
    paper_rules, AnnotatorModel, EvalMetrics, LogicLncl, MStepObjective, OptimizerKind, PredictionMode, RunContext,
    TaskRules, TrainConfig, TrainReport,
};
use std::time::Instant;

/// Which training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    Sentiment,
    Ner,
}

impl Task {
    /// Epoch cap of one benchmark training.  Early stopping runs as
    /// configured (patience 5) below the cap; the cap keeps one training
    /// short enough that a run holds several of them, which is what makes
    /// the median throughput steady.
    pub fn epochs(self) -> usize {
        match self {
            Task::Sentiment => 3,
            Task::Ner => 2,
        }
    }

    pub fn kind(self) -> TaskKind {
        match self {
            Task::Sentiment => TaskKind::Classification,
            Task::Ner => TaskKind::SequenceTagging,
        }
    }
}

/// Everything a training needs, built from the workload seed.
pub struct Setup {
    pub dataset: CrowdDataset,
    pub model: AnyModel,
    pub rules: TaskRules,
    pub config: TrainConfig,
}

/// Generates the corpus and builds the initial model and rules.
pub fn setup(task: Task, scale: Scale, seed: u64, epochs: usize) -> Setup {
    let dataset = match task {
        Task::Sentiment => scale.sentiment_dataset(seed),
        Task::Ner => scale.ner_dataset(seed),
    };
    let config = scale.train_config_with_epochs(task.kind(), seed, epochs);
    let model = RunContext::for_dataset(&dataset, config.clone()).model(seed);
    let rules = paper_rules(&dataset);
    Setup { dataset, model, rules, config }
}

/// One untraced `LogicLncl::train` and its teacher-mode test evaluation.
pub struct Trained {
    pub trainer: LogicLncl<AnyModel>,
    pub report: TrainReport,
    pub train_wall_s: f64,
    pub test: EvalMetrics,
}

pub fn train_once(setup: &Setup) -> Trained {
    let rules = paper_rules(&setup.dataset);
    let mut trainer =
        LogicLncl::builder(setup.model.clone()).rules(rules).config(setup.config.clone()).build(&setup.dataset);
    let start = Instant::now();
    let report = trainer.train(&setup.dataset);
    let train_wall_s = start.elapsed().as_secs_f64();
    let test = trainer.evaluate(&setup.dataset.test, setup.dataset.task, PredictionMode::Teacher);
    Trained { trainer, report, train_wall_s, test }
}

/// What the traced replay reproduced.
pub struct Replay {
    pub report: TrainReport,
    pub qf: FlatPosteriors,
    pub model: AnyModel,
    pub annotators: AnnotatorModel,
    pub wall_s: f64,
}

fn make_optimizer(kind: OptimizerKind) -> Box<dyn Optimizer> {
    match kind {
        OptimizerKind::Sgd { lr, momentum } => Box::new(Sgd::new(lr).with_momentum(momentum)),
        OptimizerKind::Adam { lr } => Box::new(Adam::new(lr)),
        OptimizerKind::Adadelta { lr } => Box::new(Adadelta::new(lr)),
    }
}

/// Algorithm 1 line 1: `q_f` from majority voting, scattered per unit.
fn majority_vote_qf(dataset: &CrowdDataset) -> FlatPosteriors {
    let view = dataset.annotation_view();
    let mv = MajorityVote.infer(&view);
    let k = dataset.num_classes;
    let mut qf = FlatPosteriors::zeros(&dataset.train, k);
    let mut cursor = vec![0usize; dataset.train.len()];
    for (u, post) in mv.posteriors.iter().enumerate() {
        let i = view.unit_instance[u];
        let unit = cursor[i];
        qf.instance_slice_mut(i)[unit * k..(unit + 1) * k].copy_from_slice(post);
        cursor[i] += 1;
    }
    qf
}

/// `q_f` inference quality against the training gold labels.
fn inference_metrics(dataset: &CrowdDataset, qf: &FlatPosteriors) -> EvalMetrics {
    let predictions: Vec<Vec<usize>> = (0..qf.num_instances()).map(|i| qf.instance_argmax(i)).collect();
    let gold: Vec<Vec<usize>> = dataset.train.iter().map(|i| i.gold.clone()).collect();
    match dataset.task {
        TaskKind::Classification => {
            let flat_pred: Vec<usize> = predictions.iter().map(|p| p[0]).collect();
            let flat_gold: Vec<usize> = gold.iter().map(|g| g[0]).collect();
            EvalMetrics::from_accuracy(metrics::accuracy(&flat_pred, &flat_gold))
        }
        TaskKind::SequenceTagging => {
            let prf = metrics::span_f1(&predictions, &gold);
            EvalMetrics {
                accuracy: metrics::token_accuracy(&predictions, &gold),
                precision: prf.precision,
                recall: prf.recall,
                f1: prf.f1,
            }
        }
    }
}

/// Replays `LogicLncl::train` (pooled annotator model, iterative
/// posterior) from public calls, with a span around every layer call.
pub fn replay(setup: &Setup, tracer: &Tracer) -> Replay {
    let Setup { dataset, rules, config, .. } = setup;
    let start = Instant::now();
    let mut model = setup.model.clone();
    let mut rng = TensorRng::seed_from_u64(config.seed);
    let mut optimizer = make_optimizer(config.optimizer);
    let base_lr = optimizer.learning_rate();
    let mut qf = tracer.span("crowd.mv_init_s", || majority_vote_qf(dataset));
    let mut annotators = AnnotatorModel::new(dataset.num_annotators, dataset.num_classes, 0.7);

    let mut report = TrainReport::default();
    let mut best_dev = f32::NEG_INFINITY;
    let mut best_model: Option<AnyModel> = None;
    let mut epochs_without_improvement = 0usize;
    let sequence_task = dataset.task == TaskKind::SequenceTagging;

    for epoch in 0..config.epochs {
        tracer.count("core.epochs", 1);
        if let Some((factor, every)) = config.lr_decay {
            optimizer.set_learning_rate(base_lr * factor.powi((epoch / every) as i32));
        }
        let imitation_k = config.imitation.strength(epoch);

        // pseudo-M-step
        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for batch in order.chunks(config.batch_size) {
            tracer.span("nn.optim_s", || model.zero_grad());
            let mut batch_loss = 0.0f32;
            for &i in batch {
                let inst = &dataset.train[i];
                let mut tape = lncl_autograd::Tape::new();
                let mut binding = Binding::new();
                let logits = tracer.span("nn.forward_s", || {
                    model.forward_logits(&mut tape, &mut binding, &inst.tokens, true, &mut rng)
                });
                tracer.count("nn.train_forwards", 1);
                let loss = tracer.span("autograd.loss_s", || {
                    let mut loss = tape.softmax_cross_entropy(logits, qf.instance_matrix(i));
                    if config.objective == MStepObjective::AnnotationWeighted {
                        loss = tape.scale(loss, inst.num_annotations().max(1) as f32);
                    }
                    batch_loss += tape.scalar(loss);
                    loss
                });
                tracer.count("autograd.tape_nodes", tape.len() as u64);
                tracer.span("autograd.backward_s", || tape.backward(loss));
                tracer.span("nn.accumulate_s", || binding.accumulate(&tape, model.params_mut()));
            }
            tracer.span("nn.optim_s", || {
                model.scale_grads(1.0 / batch.len() as f32);
                if let Some(clip) = config.grad_clip {
                    model.clip_grad_norm(clip);
                }
                let mut params = model.params_mut();
                optimizer.step(&mut params);
            });
            epoch_loss += batch_loss / batch.len() as f32;
            batches += 1;
        }
        report.loss_history.push(epoch_loss / batches.max(1) as f32);

        // pseudo-E-step
        let predictions: Vec<lncl_tensor::Matrix> = tracer
            .span("nn.predict_s", || dataset.train.iter().map(|inst| model.predict_proba(&inst.tokens)).collect());
        tracer.count("nn.predict_calls", dataset.train.len() as u64);
        let clause = |tokens: &[usize]| {
            tracer.count("nn.predict_calls", 1);
            tracer.span("nn.predict_s", || model.predict_proba(tokens).row(0).to_vec())
        };
        let imitation_k = imitation_k.clamp(0.0, 1.0);
        let mut new_qf = FlatPosteriors::zeros(&dataset.train, dataset.num_classes);
        for (i, inst) in dataset.train.iter().enumerate() {
            tracer.span("core.posterior_s", || {
                infer_qa_into(inst, &predictions[i], &annotators, new_qf.instance_slice_mut(i))
            });
            tracer.span("core.distill_s", || {
                if rules.is_none() {
                    for v in new_qf.instance_slice_mut(i) {
                        *v = (1.0 - imitation_k) * *v + imitation_k * *v;
                    }
                } else {
                    let qa = new_qf.instance_matrix(i);
                    let qb = infer_qb(&qa, &inst.tokens, rules, config.regularization_c, &clause);
                    for ((f, &a), &b) in new_qf.instance_slice_mut(i).iter_mut().zip(qa.as_slice()).zip(qb.as_slice()) {
                        *f = (1.0 - imitation_k) * a + imitation_k * b;
                    }
                }
            });
        }
        qf = new_qf;
        tracer.span("core.annotators_s", || annotators.update_from_qf(dataset, &qf, 0.01));

        // development evaluation and early stopping
        let dev_split = if dataset.dev.is_empty() { &dataset.test } else { &dataset.dev };
        let dev_metric = tracer.span("core.dev_eval_s", || {
            evaluate_split(&model, dev_split, dataset.task, PredictionMode::Student, rules, config.regularization_c)
                .headline(sequence_task)
        });
        report.dev_history.push(dev_metric);
        report.epochs_run = epoch + 1;
        if dev_metric > best_dev {
            best_dev = dev_metric;
            report.best_epoch = epoch;
            epochs_without_improvement = 0;
            best_model = Some(tracer.span("core.checkpoint_s", || model.clone()));
        } else {
            epochs_without_improvement += 1;
            if epochs_without_improvement > config.early_stopping_patience {
                break;
            }
        }
    }
    if let Some(best) = best_model {
        model = best;
    }
    report.inference = tracer.span("core.dev_eval_s", || inference_metrics(dataset, &qf));
    Replay { report, qf, model, annotators, wall_s: start.elapsed().as_secs_f64() }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every way the replay can diverge from the trainer, as `(what, equal)`.
pub fn compare(trained: &Trained, replay: &Replay) -> Vec<(&'static str, bool)> {
    let t = &trained.report;
    let r = &replay.report;
    let params_equal = {
        let a = trained.trainer.model.params();
        let b = replay.model.params();
        a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| same_bits(x.value.as_slice(), y.value.as_slice()))
    };
    let confusions_equal = {
        let a = trained.trainer.annotators.confusions();
        let b = replay.annotators.confusions();
        a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| same_bits(x.as_slice(), y.as_slice()))
    };
    vec![
        ("loss history", same_bits(&t.loss_history, &r.loss_history)),
        ("dev history", same_bits(&t.dev_history, &r.dev_history)),
        ("epochs run and best epoch", t.epochs_run == r.epochs_run && t.best_epoch == r.best_epoch),
        ("final q_f", same_bits(trained.trainer.qf().data().as_slice(), replay.qf.data().as_slice())),
        ("best-model parameters", params_equal),
        ("annotator confusions", confusions_equal),
        ("inference metrics", t.inference == r.inference),
    ]
}

/// What the training phase of a workload measured.
pub struct Measured {
    /// The first training: the reference of every check.
    pub first: Trained,
    /// Per-layer values the tracer does not hold: `trace.coverage` and
    /// `trace.overhead`.
    pub derived: Vec<(&'static str, f64, usize)>,
}

/// Untraced trainings until `seconds` have passed (at least one), calling
/// `between` with the elapsed share of `seconds` after each; then the
/// traced replay into `tracer`, checked against the first training.
pub fn measure(
    setup: &Setup,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
    mut between: impl FnMut(f64),
) -> Measured {
    let sequence_task = setup.dataset.task == TaskKind::SequenceTagging;
    let train_size = setup.dataset.train.len() as f64;
    let measure_start = Instant::now();
    let mut throughput = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<Trained> = None;
    while first.is_none() || measure_start.elapsed().as_secs_f64() < seconds {
        let trained = train_once(setup);
        out.attempted += 1;
        let rate = trained.report.epochs_run as f64 * train_size / trained.train_wall_s;
        println!(
            "train(): {} epochs in {:.3} s = {:.1} instances/s, teacher test {:.4}, q_f inference {:.4}",
            trained.report.epochs_run,
            trained.train_wall_s,
            rate,
            trained.test.headline(sequence_task),
            trained.report.inference.headline(sequence_task)
        );
        throughput.push(rate);
        walls.push(trained.train_wall_s);
        match &first {
            None => first = Some(trained),
            Some(reference) => out.check(
                "a repeated train() is bitwise equal to the first",
                same_bits(&reference.report.loss_history, &trained.report.loss_history)
                    && same_bits(reference.trainer.qf().data().as_slice(), trained.trainer.qf().data().as_slice()),
            ),
        }
        between(measure_start.elapsed().as_secs_f64() / seconds);
    }
    let first = first.expect("at least one training ran");

    let covered_before = tracer.covered_seconds();
    let replayed = replay(setup, tracer);
    for (what, equal) in compare(&first, &replayed) {
        out.check(&format!("replay reproduces train(): {what}"), equal);
    }
    let coverage = (tracer.covered_seconds() - covered_before) / replayed.wall_s;
    let overhead = replayed.wall_s / median(&walls);
    println!("replay: {:.3} s wall, span coverage {:.4}, overhead {:.4}", replayed.wall_s, coverage, overhead);
    print_phase_shares(tracer, replayed.wall_s);
    print_unreported("train_inst_per_s", median(&throughput), "instances/s", throughput.len());
    print_unreported("test_headline", first.test.headline(sequence_task) as f64, "ratio", 1);
    Measured { first, derived: vec![("trace.coverage", coverage, 1), ("trace.overhead", overhead, walls.len())] }
}

/// Prints each span's share of the replay wall, largest first, then the
/// Algorithm 1 steps they add up to.
fn print_phase_shares(tracer: &Tracer, wall_s: f64) {
    let mut spans = tracer.span_seconds();
    spans.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, secs) in spans {
        println!("  phase {name:<22} {secs:>9.4} s  {:>6.2}%", 100.0 * secs / wall_s);
    }
    let steps: [(&str, &[&str]); 3] = [
        ("M-step", &["nn.forward_s", "autograd.loss_s", "autograd.backward_s", "nn.accumulate_s", "nn.optim_s"]),
        ("E-step", &["nn.predict_s", "core.posterior_s", "core.distill_s", "core.annotators_s"]),
        ("dev evaluation", &["core.dev_eval_s"]),
    ];
    for (step, names) in steps {
        let secs: f64 = names.iter().map(|n| tracer.seconds(n)).sum();
        println!("  step  {step:<22} {secs:>9.4} s  {:>6.2}%", 100.0 * secs / wall_s);
    }
}
