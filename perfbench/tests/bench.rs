//! The benchmark's own tests: on small corpora the traced replay
//! reproduces `train()` and its spans cover the replay; the serial sweep's
//! spans cover its wall; every workload reports every declared metric,
//! and those match `BENCHMARK.json`.

use lncl_bench::json::Json;
use lncl_bench::{scenario_sweep_configs, Scale};
use lncl_perfbench::report::{Metric, MetricSpec, END_TO_END, PER_LAYER};
use lncl_perfbench::trace::Tracer;
use lncl_perfbench::train::{compare, replay, setup, train_once, Task};
use lncl_perfbench::workload::{self, Plan};
use lncl_perfbench::{sweep, task_of, WORKLOADS};
use std::time::Instant;

/// Required share of a traced run's wall clock covered by spans.
const MIN_COVERAGE: f64 = 0.95;

#[test]
fn replay_equals_train_and_spans_cover_it() {
    // small rather than tiny corpora: a replay of a few hundred ms keeps a
    // scheduler hiccup in unspanned code from deciding the coverage
    for task in [Task::Sentiment, Task::Ner] {
        let built = setup(task, Scale::Small, 5, 2);
        let trained = train_once(&built);
        let tracer = Tracer::new();
        let replayed = replay(&built, &tracer);
        for (what, equal) in compare(&trained, &replayed) {
            assert!(equal, "{task:?}: replay diverges from train() in {what}");
        }
        let coverage = tracer.covered_seconds() / replayed.wall_s;
        assert!((MIN_COVERAGE..=1.0).contains(&coverage), "{task:?}: span coverage {coverage}");
        assert_eq!(tracer.counter("core.epochs") as usize, trained.report.epochs_run);
    }
}

#[test]
fn replay_detects_a_diverging_trainer() {
    let built = setup(Task::Sentiment, Scale::Tiny, 5, 2);
    let trained = train_once(&built);
    let mut other = setup(Task::Sentiment, Scale::Tiny, 5, 2);
    other.config.seed += 1;
    let replayed = replay(&other, &Tracer::new());
    assert!(compare(&trained, &replayed).iter().any(|(_, equal)| !equal), "a different seed must not compare equal");
}

#[test]
fn family_times_sum_to_the_serial_sweep_wall() {
    let configs: Vec<_> = scenario_sweep_configs(Scale::Tiny, 29).into_iter().step_by(6).collect();
    assert!(configs.iter().any(|c| c.task == lncl_crowd::TaskKind::SequenceTagging));
    let tracer = Tracer::new();
    let start = Instant::now();
    let outcomes = sweep::serial_traced(&configs, Scale::Tiny, 2, &tracer);
    let wall = start.elapsed().as_secs_f64();
    let families: f64 = logic_lncl::Family::all().iter().map(|&f| tracer.seconds(sweep::family_span(f))).sum();
    let covered = families + tracer.seconds("crowd.scenario_gen_s") + tracer.seconds("crowd.reliability_s");
    assert!(
        (covered - tracer.covered_seconds()).abs() < 1e-9,
        "every sweep span is a family, generation or reliability span"
    );
    assert!(covered / wall >= MIN_COVERAGE && covered <= wall, "covered {covered} of {wall} s");
    let runs: usize = outcomes.iter().map(|o| o.timings.len()).sum();
    assert_eq!(runs as u64, tracer.counter("core.method.runs"));
}

fn names(metrics: &[Metric]) -> Vec<&'static str> {
    metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let declared = |list: &[MetricSpec]| list.iter().map(|m| m.name).collect::<Vec<_>>();
    for workload in WORKLOADS {
        let task = task_of(workload).expect("known workload");
        let outcome = workload::run_at(task, &Plan::tiny(), 3, 0.01, true);
        assert_eq!(names(&outcome.end_to_end), declared(END_TO_END), "{workload}");
        assert_eq!(names(&outcome.per_layer), declared(PER_LAYER), "{workload}");
        assert_eq!(outcome.failed, 0, "{workload}: failed operations");
        assert!(outcome.attempted > 0);
        // no metric reads 0: a layer the workload did not reach would
        for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
        }
    }
}

fn declared(list: &Json) -> Vec<(String, String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("metric field").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let spec = |list: &[MetricSpec]| -> Vec<(String, String, String)> {
        list.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.better.name().to_string())).collect()
    };
    assert_eq!(declared(doc.get("end_to_end").expect("end_to_end")), spec(END_TO_END));
    assert_eq!(declared(doc.get("per_layer").expect("per_layer")), spec(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
