//! Metric declarations, summary statistics and the result line.

use crate::trace::Tracer;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric: name, unit, direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher }
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[MetricSpec] =
    &[lower("setup_s", "s"), lower("peak_rss_mb", "MB"), higher("infer_headline", "ratio")];

/// Every per-layer metric of the traced runs, in `BENCHMARK.json` order.
pub const PER_LAYER: &[MetricSpec] = &[
    // M-step
    lower("nn.forward_s", "s"),
    lower("autograd.loss_s", "s"),
    lower("autograd.backward_s", "s"),
    lower("nn.accumulate_s", "s"),
    lower("nn.optim_s", "s"),
    lower("autograd.tape_nodes", "count"),
    lower("nn.train_forwards", "count"),
    // E-step and evaluation
    lower("nn.predict_s", "s"),
    lower("nn.predict_calls", "count"),
    lower("core.posterior_s", "s"),
    lower("core.distill_s", "s"),
    lower("core.annotators_s", "s"),
    lower("core.dev_eval_s", "s"),
    lower("core.checkpoint_s", "s"),
    lower("crowd.mv_init_s", "s"),
    lower("core.epochs", "count"),
    higher("trace.coverage", "ratio"),
    lower("trace.overhead", "ratio"),
    // sweep
    lower("core.method.truth-inference_s", "s"),
    lower("core.method.two-stage_s", "s"),
    lower("core.method.neural-em_s", "s"),
    lower("core.method.crowd-layer_s", "s"),
    lower("core.method.dl-dn_s", "s"),
    lower("core.method.gold_s", "s"),
    lower("core.method.logic-lncl_s", "s"),
    lower("core.method.ablation_s", "s"),
    lower("crowd.scenario_gen_s", "s"),
    lower("crowd.reliability_s", "s"),
    lower("core.method.runs", "count"),
    higher("bench.sweep_busy_share", "ratio"),
    // serve
    lower("serve.http.parse_us", "us"),
    lower("serve.state.post_labels_us", "us"),
    lower("serve.state.get_consensus_us", "us"),
    lower("serve.state.finalize_ms", "ms"),
    lower("crowd.stream.ingest_us", "us"),
    lower("crowd.stream.finalize_ms", "ms"),
    lower("crowd.stream.refreshed_per_label", "count"),
    lower("crowd.stream.max_dirty_backlog", "count"),
    lower("bench.gen_late_ms", "ms"),
];

/// Looks a declared metric up by name.
pub fn spec(name: &str) -> &'static MetricSpec {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
}

/// One reported metric value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Self {
        spec(name);
        Self { name, value, samples }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trainings, sweeps, requests, checks).
    pub attempted: u64,
    /// Operations that failed, including failed correctness checks.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Records the result of one correctness check as one operation;
    /// a failure is also reported on stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if ok {
            println!("check ok: {what}");
        } else {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
            println!("check FAILED: {what}");
        }
    }

    /// Reports every end-to-end metric, in declaration order, each from
    /// its `(name, value, samples)` entry in `values`.
    pub fn report_end_to_end(&mut self, values: &[(&str, f64, usize)]) {
        self.end_to_end = END_TO_END
            .iter()
            .map(|m| from_values(m.name, values).unwrap_or_else(|| panic!("no value for {}", m.name)))
            .collect();
    }

    /// Reports every per-layer metric, in declaration order: from
    /// `derived` where it has the name, else from `tracer` by the metric's
    /// unit: a counter for `count`, a span's summed self time for `s`, and
    /// its mean time per call for `ms` and `us`.
    pub fn report_layers(&mut self, tracer: &Tracer, derived: &[(&str, f64, usize)]) {
        self.per_layer = PER_LAYER
            .iter()
            .map(|m| {
                let name = m.name;
                let calls = tracer.calls(name);
                let per_call = |scale: f64| tracer.seconds(name) * scale / calls.max(1) as f64;
                from_values(name, derived).unwrap_or_else(|| match m.unit {
                    "count" => Metric::new(name, tracer.counter(name) as f64, 1),
                    "s" => Metric::new(name, tracer.seconds(name), calls as usize),
                    "ms" => Metric::new(name, per_call(1e3), calls as usize),
                    "us" => Metric::new(name, per_call(1e6), calls as usize),
                    unit => panic!("layer metric {name} ({unit}) needs a derived value"),
                })
            })
            .collect();
    }
}

fn from_values(name: &'static str, values: &[(&str, f64, usize)]) -> Option<Metric> {
    values.iter().find(|v| v.0 == name).map(|&(_, value, samples)| Metric::new(name, value, samples))
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, spec(m.name).unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

/// Prints a metric the run measures but does not report: its spread from
/// run to run is wider than any bound it could be given (see README).
pub fn print_unreported(name: &str, value: f64, unit: &str, samples: usize) {
    println!("unreported {name:<30} {value:>16.6} {unit:<12} ({samples} samples)");
}

/// Set-up runs this many times per run and its median is reported.
pub const SETUP_REPEATS: usize = 31;

/// How many set-up samples are due once `share` of the run's measured time
/// has passed.  The repeats are spread evenly between the measured
/// operations, so their median covers the same stretch of the run as the
/// operations do: a shared machine's speed can shift within seconds.
pub fn setup_repeats_due(share: f64) -> usize {
    ((SETUP_REPEATS as f64 * share).ceil() as usize).min(SETUP_REPEATS)
}

/// Runs `f`, pushing its wall time in seconds onto `samples`.
pub fn timed<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let start = std::time::Instant::now();
    let out = f();
    samples.push(start.elapsed().as_secs_f64());
    out
}

/// Median of a sample set (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of a sample set.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(3, 0, &[Metric::new("setup_s", 0.25, 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
