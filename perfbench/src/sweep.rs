//! The sweep phase of a workload: the task's scenarios of CI's grid
//! through `sweep_scenarios`.
//!
//! The timed run is the parallel sweep with `nproc` workers; its rows must
//! equal the task's rows of the checked-in `quality_baseline.json` bit for
//! bit.  The traced run executes the same scenarios serially from public
//! calls — scenario generation, every supporting registry method, the
//! reliability statistic — with a span around each, so per-family method
//! time is measured without threads interleaving; its rows must equal the
//! parallel ones bit for bit.

use crate::report::Outcome;
use crate::trace::Tracer;
use lncl_bench::quality::{quality_only_report, scenario_quality_rows};
use lncl_bench::timing::{BenchReport, QualityCase};
use lncl_bench::{scenario_sweep_configs, sweep_scenarios, Scale, ScenarioOutcome};
use lncl_crowd::metrics::reliability_recovery_pearson;
use lncl_crowd::scenario::{generate_scenario, ScenarioConfig};
use lncl_crowd::TaskKind;
use logic_lncl::method::{Family, MethodRegistry};
use std::path::Path;
use std::time::Instant;

/// The scale CI sweeps at.
pub const SCALE: Scale = Scale::Small;
/// Epochs per training run in CI's sweep.
pub const EPOCHS: usize = 3;
/// The grid seed CI (and `quality_baseline.json`) uses.
pub const CI_SEED: u64 = 29;
/// The checked-in quality table of CI's sweep, relative to the checkout.
pub const BASELINE: &str = "quality_baseline.json";

/// Span name of a method family's run time.
pub fn family_span(family: Family) -> &'static str {
    match family {
        Family::TruthInference => "core.method.truth-inference_s",
        Family::TwoStage => "core.method.two-stage_s",
        Family::NeuralEm => "core.method.neural-em_s",
        Family::CrowdLayer => "core.method.crowd-layer_s",
        Family::DlDn => "core.method.dl-dn_s",
        Family::Gold => "core.method.gold_s",
        Family::LogicLncl => "core.method.logic-lncl_s",
        Family::Ablation => "core.method.ablation_s",
    }
}

/// Sorted quality rows, the canonical order of the baseline file.
pub fn canonical_rows(outcomes: &[ScenarioOutcome], scale: Scale) -> Vec<QualityCase> {
    let rows = outcomes.iter().flat_map(scenario_quality_rows).collect();
    quality_only_report("sweep", scale, rows).quality
}

/// Rows equal in order, names and metric bits.
pub fn rows_bitwise_equal(a: &[QualityCase], b: &[QualityCase]) -> (usize, usize) {
    let matched = a
        .iter()
        .zip(b)
        .filter(|(x, y)| {
            x.scenario == y.scenario
                && x.method == y.method
                && x.metrics.len() == y.metrics.len()
                && x.metrics.iter().zip(&y.metrics).all(|((kx, vx), (ky, vy))| kx == ky && vx.to_bits() == vy.to_bits())
        })
        .count();
    (matched, a.len().max(b.len()))
}

/// The serial traced sweep: every scenario and method on this thread.
pub fn serial_traced(configs: &[ScenarioConfig], scale: Scale, epochs: usize, tracer: &Tracer) -> Vec<ScenarioOutcome> {
    let registry = MethodRegistry::standard();
    configs
        .iter()
        .map(|config| {
            let dataset = tracer.span("crowd.scenario_gen_s", || generate_scenario(config));
            let ctx = scale.run_context_with_epochs(&dataset, config.seed, epochs);
            let mut rows = Vec::new();
            let mut timings = Vec::new();
            for method in registry.supporting(dataset.task) {
                let descriptor = method.descriptor();
                let start = Instant::now();
                rows.extend(tracer.span(family_span(descriptor.family), || method.run(&dataset, &ctx)));
                timings.push((descriptor.name, start.elapsed().as_secs_f64()));
                tracer.count("core.method.runs", 1);
            }
            let reliability_pearson = tracer.span("crowd.reliability_s", || reliability_recovery_pearson(&dataset, 5));
            ScenarioOutcome { name: config.name.clone(), task: config.task, rows, timings, reliability_pearson }
        })
        .collect()
}

/// The task's share of CI's grid, each scenario generated once more (and
/// dropped) as part of set-up.  The grid is CI's, seed included, whatever
/// the workload seed: the sweep then does the same work on every run, so
/// `sweep_s` moves with the program and the machine only, and every run
/// can check its rows against the checked-in baseline.
pub fn configs(task: TaskKind, scale: Scale) -> Vec<ScenarioConfig> {
    let configs: Vec<ScenarioConfig> =
        scenario_sweep_configs(scale, CI_SEED).into_iter().filter(|c| c.task == task).collect();
    for config in &configs {
        std::hint::black_box(generate_scenario(config));
    }
    configs
}

/// What the sweep phase of a workload measured.
pub struct Measured {
    /// Wall time of the parallel sweep.
    pub wall_s: f64,
    /// `bench.sweep_busy_share`.
    pub derived: Vec<(&'static str, f64, usize)>,
}

/// Sweeps `configs` with `nproc` workers, timed, and checks the rows: at
/// CI's scale and epochs against the baseline file, and against a serial
/// run into `tracer` when `trace` is set or the baseline does not apply.
pub fn measure(
    configs: &[ScenarioConfig],
    scale: Scale,
    epochs: usize,
    trace: bool,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Measured {
    // `sweep_scenarios` takes its epoch count from the environment, as
    // CI's sweep does
    std::env::set_var("LNCL_EPOCHS", epochs.to_string());
    assert_eq!(scale.epochs(), epochs);
    let is_ci = scale == SCALE && epochs == EPOCHS;
    let threads = lncl_tensor::par::max_threads();
    println!("sweep: {} scenarios, scale {}, {epochs} epochs, {threads} workers", configs.len(), scale.name());

    let start = Instant::now();
    let outcomes = sweep_scenarios(configs, scale, None, threads);
    let wall_s = start.elapsed().as_secs_f64();
    out.attempted += 1;
    let method_seconds: f64 = outcomes.iter().flat_map(|o| o.timings.iter().map(|(_, s)| s)).sum();
    let busy_share = method_seconds / (threads as f64 * wall_s);
    println!("sweep_scenarios: {wall_s:.3} s wall, {method_seconds:.3} s summed method time");
    let rows = canonical_rows(&outcomes, scale);

    if is_ci {
        let names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
        match BenchReport::load(Path::new(BASELINE)) {
            Ok(baseline) => {
                let expected: Vec<QualityCase> =
                    baseline.quality.into_iter().filter(|r| names.contains(&r.scenario.as_str())).collect();
                let (matched, total) = rows_bitwise_equal(&expected, &rows);
                out.check(
                    &format!("sweep rows bitwise equal to {BASELINE} ({matched}/{total})"),
                    matched == total && total > 0,
                );
            }
            Err(e) => out.check(&format!("{BASELINE} readable: {e}"), false),
        }
    }
    if trace || !is_ci {
        let covered_before = tracer.covered_seconds();
        let start = Instant::now();
        let serial = serial_traced(configs, scale, epochs, tracer);
        let serial_wall = start.elapsed().as_secs_f64();
        let (matched, total) = rows_bitwise_equal(&canonical_rows(&serial, scale), &rows);
        out.check(
            &format!("parallel rows bitwise equal to the serial run ({matched}/{total})"),
            matched == total && total > 0,
        );
        println!(
            "serial traced sweep: {serial_wall:.3} s wall, span coverage {:.4}",
            (tracer.covered_seconds() - covered_before) / serial_wall
        );
        for family in Family::all() {
            let secs = tracer.seconds(family_span(family));
            println!("  phase {:<34} {secs:>9.4} s  {:>6.2}%", family_span(family), 100.0 * secs / serial_wall);
        }
    }
    Measured { wall_s, derived: vec![("bench.sweep_busy_share", busy_share, 1)] }
}
