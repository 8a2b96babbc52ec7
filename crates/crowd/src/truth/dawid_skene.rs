//! Dawid–Skene EM aggregation (Dawid & Skene, 1979).

use super::em::dawid_skene_em;
use super::{TruthEstimate, TruthInference};
use crate::data::AnnotationView;

/// The classic Dawid–Skene model: a latent true class per unit, a class
/// prior, and one confusion matrix per annotator, fitted with EM.
#[derive(Debug, Clone, Copy)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the mean absolute posterior change.
    pub tol: f32,
    /// Additive smoothing used when estimating confusion matrices.
    pub smoothing: f32,
}

impl Default for DawidSkene {
    fn default() -> Self {
        Self { max_iters: 50, tol: 1e-4, smoothing: 0.01 }
    }
}

impl TruthInference for DawidSkene {
    fn name(&self) -> &'static str {
        "DS"
    }

    fn infer(&self, view: &AnnotationView) -> TruthEstimate {
        dawid_skene_em(view, None, self.smoothing, self.max_iters, self.tol).into_estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::overall_reliability;
    use crate::truth::testutil::planted_view;
    use crate::truth::{MajorityVote, TruthInference};

    #[test]
    fn recovers_truth_better_than_mv_with_spammers() {
        // one strong annotator among near-random ones: DS should learn to
        // trust the expert and beat majority voting.
        let view = planted_view(600, 2, &[0.95, 0.93, 0.55, 0.5, 0.5, 0.5], 5, 7);
        let mv = MajorityVote.infer(&view).accuracy(&view.gold);
        let ds = DawidSkene::default().infer(&view).accuracy(&view.gold);
        assert!(ds > mv + 0.02, "DS {ds} should beat MV {mv}");
        assert!(ds > 0.85, "DS accuracy {ds}");
    }

    #[test]
    fn estimates_annotator_reliability_ordering() {
        let view = planted_view(500, 3, &[0.9, 0.7, 0.4], 3, 9);
        let est = DawidSkene::default().infer(&view);
        let confusions = est.confusions.expect("DS estimates confusions");
        let r: Vec<f32> = confusions.iter().map(overall_reliability).collect();
        assert!(r[0] > r[1] && r[1] > r[2], "reliability ordering {r:?}");
    }

    #[test]
    fn posteriors_are_distributions() {
        let view = planted_view(100, 4, &[0.8, 0.7, 0.6, 0.5], 3, 11);
        let est = DawidSkene::default().infer(&view);
        for p in &est.posteriors {
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn converges_quickly_on_clean_data() {
        let view = planted_view(200, 2, &[0.99, 0.99, 0.99], 3, 13);
        let fast = DawidSkene { max_iters: 3, ..Default::default() }.infer(&view);
        assert!(fast.accuracy(&view.gold) > 0.97);
    }
}
