//! Truth-inference baselines.
//!
//! These are the label-aggregation methods the paper compares against in the
//! "Truth Inference" blocks of Tables II and III: Majority Voting,
//! Dawid–Skene, GLAD, IBCC, PM, CATD, plus the sequence-aware HMM-Crowd and
//! a simplified BSC-seq.  They all consume the flattened
//! [`AnnotationView`] of a dataset and produce a
//! [`TruthEstimate`].

pub mod bsc_seq;
pub mod catd;
pub mod dawid_skene;
pub mod ds_windowed;
mod em;
pub mod glad;
pub mod hmm_crowd;
pub mod ibcc;
pub mod mv;
pub mod pm;
pub mod streaming;

pub use bsc_seq::BscSeq;
pub use catd::Catd;
pub use dawid_skene::DawidSkene;
pub use ds_windowed::DsWindowed;
pub use glad::Glad;
pub use hmm_crowd::HmmCrowd;
pub use ibcc::Ibcc;
pub use mv::MajorityVote;
pub use pm::Pm;
pub use streaming::{StreamingConfig, StreamingTruth};

use crate::data::AnnotationView;
use crate::metrics::accuracy;
use lncl_tensor::{stats, Matrix};

/// Output of a truth-inference method.
#[derive(Debug, Clone)]
pub struct TruthEstimate {
    /// Per-unit posterior distribution over classes.
    pub posteriors: Vec<Vec<f32>>,
    /// Per-unit hard label (argmax of the posterior).
    pub hard: Vec<usize>,
    /// Estimated per-annotator confusion matrices, when the method models
    /// them (DS/IBCC/HMM-Crowd/BSC-seq), indexed by annotator.
    pub confusions: Option<Vec<Matrix>>,
}

impl TruthEstimate {
    /// Builds the estimate from posteriors alone.
    pub fn from_posteriors(posteriors: Vec<Vec<f32>>) -> Self {
        let hard = posteriors.iter().map(|p| stats::argmax(p)).collect();
        Self { posteriors, hard, confusions: None }
    }

    /// Attaches annotator confusion estimates.
    pub fn with_confusions(mut self, confusions: Vec<Matrix>) -> Self {
        self.confusions = Some(confusions);
        self
    }

    /// Unit-level accuracy of the hard labels against a gold reference.
    pub fn accuracy(&self, gold: &[usize]) -> f32 {
        accuracy(&self.hard, gold)
    }

    /// Reassembles the per-unit hard labels into per-instance sequences
    /// using the layout of the originating [`AnnotationView`].
    pub fn hard_by_instance(&self, view: &AnnotationView) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = view.instance_len.iter().map(|&len| Vec::with_capacity(len)).collect();
        for (u, &label) in self.hard.iter().enumerate() {
            out[view.unit_instance[u]].push(label);
        }
        out
    }
}

/// A truth-inference method.
pub trait TruthInference {
    /// Short display name used by the experiment tables.
    fn name(&self) -> &'static str;

    /// Infers the per-unit truth posterior from the noisy annotations.
    fn infer(&self, view: &AnnotationView) -> TruthEstimate;
}

/// Per-unit vote-count matrix (`units x classes`), the starting point of
/// several methods.
pub(crate) fn vote_counts(view: &AnnotationView) -> Matrix {
    let mut counts = Matrix::zeros(view.num_units(), view.num_classes);
    for (u, annotations) in view.annotations.iter().enumerate() {
        for &(_, class) in annotations {
            counts[(u, class)] += 1.0;
        }
    }
    counts
}

/// Class prior estimated from a soft posterior assignment.
pub(crate) fn class_prior(posteriors: &[Vec<f32>], num_classes: usize) -> Vec<f32> {
    let mut prior = vec![1e-6f32; num_classes];
    for p in posteriors {
        for (k, &v) in p.iter().enumerate() {
            prior[k] += v;
        }
    }
    stats::normalize_in_place(&mut prior);
    prior
}

/// Estimates per-annotator confusion matrices from soft posteriors
/// (the M-step shared by DS-family methods), with additive smoothing.
pub(crate) fn estimate_confusions(view: &AnnotationView, posteriors: &[Vec<f32>], smoothing: f32) -> Vec<Matrix> {
    let k = view.num_classes;
    let mut confusions = vec![Matrix::full(k, k, smoothing); view.num_annotators];
    for (u, annotations) in view.annotations.iter().enumerate() {
        for &(annotator, class) in annotations {
            for m in 0..k {
                confusions[annotator][(m, class)] += posteriors[u][m];
            }
        }
    }
    for c in &mut confusions {
        crate::metrics::normalize_confusion_rows(c);
    }
    confusions
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::annotator::ConfusionAnnotator;
    use crate::data::{CrowdDataset, CrowdLabel, Instance, TaskKind};
    use lncl_tensor::TensorRng;

    /// Builds a synthetic classification view with known annotator
    /// accuracies so each method's recovery rate can be measured.
    pub fn planted_view(
        num_units: usize,
        num_classes: usize,
        accuracies: &[f32],
        labels_per_unit: usize,
        seed: u64,
    ) -> AnnotationView {
        let mut rng = TensorRng::seed_from_u64(seed);
        let annotators: Vec<ConfusionAnnotator> =
            accuracies.iter().map(|&a| ConfusionAnnotator::with_accuracy(num_classes, a)).collect();
        let mut train = Vec::with_capacity(num_units);
        for _ in 0..num_units {
            let truth = rng.usize_below(num_classes);
            let chosen = rng.sample_indices(annotators.len(), labels_per_unit.min(annotators.len()));
            let crowd_labels = chosen
                .into_iter()
                .map(|a| CrowdLabel { annotator: a, labels: vec![annotators[a].annotate(truth, &mut rng)] })
                .collect();
            train.push(Instance { tokens: vec![1], gold: vec![truth], crowd_labels });
        }
        let dataset = CrowdDataset {
            task: TaskKind::Classification,
            num_classes,
            num_annotators: accuracies.len(),
            vocab: vec!["<pad>".into(), "w".into()],
            class_names: (0..num_classes).map(|k| format!("c{k}")).collect(),
            train,
            dev: vec![],
            test: vec![],
            but_token: None,
            however_token: None,
        };
        dataset.annotation_view()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::planted_view;
    use super::*;

    #[test]
    fn vote_counts_shape() {
        let view = planted_view(20, 3, &[0.9, 0.8, 0.7, 0.6], 3, 1);
        let counts = vote_counts(&view);
        assert_eq!(counts.shape(), (20, 3));
        for u in 0..20 {
            assert!((counts.row(u).iter().sum::<f32>() - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn class_prior_normalised() {
        let posts = vec![vec![0.8, 0.2], vec![0.3, 0.7]];
        let prior = class_prior(&posts, 2);
        assert!((prior.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((prior[0] - 0.55).abs() < 1e-3);
    }

    #[test]
    fn estimate_confusions_identifies_good_annotator() {
        let view = planted_view(300, 2, &[0.95, 0.55], 2, 2);
        // use gold as (degenerate) posteriors
        let posteriors: Vec<Vec<f32>> = view
            .gold
            .iter()
            .map(|&g| {
                let mut p = vec![0.0; 2];
                p[g] = 1.0;
                p
            })
            .collect();
        let confusions = estimate_confusions(&view, &posteriors, 0.1);
        let good = crate::metrics::overall_reliability(&confusions[0]);
        let bad = crate::metrics::overall_reliability(&confusions[1]);
        assert!(good > bad + 0.2, "good {good} vs bad {bad}");
    }

    #[test]
    fn hard_by_instance_reassembles_sequences() {
        let view = planted_view(5, 2, &[0.9, 0.9, 0.9], 2, 3);
        let est = TruthEstimate::from_posteriors(vec![vec![1.0, 0.0]; 5]);
        let grouped = est.hard_by_instance(&view);
        assert_eq!(grouped.len(), 5);
        assert!(grouped.iter().all(|g| g == &vec![0]));
    }
}
