//! The one Dawid–Skene EM loop (Dawid & Skene, 1979) behind
//! [`DawidSkene`](super::DawidSkene), [`DsWindowed`](super::DsWindowed) and
//! [`StreamingTruth::finalize`](super::StreamingTruth::finalize).
//!
//! Majority-vote initialisation, then alternating E- and M-steps until the
//! largest mean absolute posterior change drops below `tol`.  Without a
//! [`StreamIndex`] every label is judged by its annotator's pooled
//! confusion matrix (classic DS).  With one, each label is judged by the
//! confusion of the stream window it was produced in, backing off to the
//! pooled matrix where that window's observed-class column is weakly
//! supported (DS-W).
//!
//! The two M-steps sum in different float orders — pooled adds smoothing
//! first and then mass in unit order, windowed adds mass first, blends
//! across windows and smooths last — so DS is deliberately *not* run as
//! DS-W with a single window: that would change its bits.

use super::ds_windowed::{decay_blend, decay_blend_flat};
use super::streaming::StreamWindow;
use super::{class_prior, estimate_confusions, MajorityVote, TruthEstimate, TruthInference};
use crate::data::AnnotationView;
use lncl_tensor::{stats, Matrix};

/// Stream bookkeeping for windowed EM: for every unit and every annotation
/// on it, the position of that label in its annotator's own stream, plus
/// each annotator's window count and the window parameters.
pub(crate) struct StreamIndex {
    /// Parallel to `view.annotations`: per annotation, the label's position
    /// in its annotator's stream.
    positions: Vec<Vec<usize>>,
    /// Windows per annotator (at least 1 each).
    windows: Vec<usize>,
    window: StreamWindow,
}

impl StreamIndex {
    /// Stream positions taken from the view itself: an annotator's labels
    /// are numbered in unit order.
    pub(crate) fn build(view: &AnnotationView, window: StreamWindow) -> Self {
        let mut counters = vec![0usize; view.num_annotators];
        let positions = view
            .annotations
            .iter()
            .map(|annotations| {
                annotations
                    .iter()
                    .map(|&(annotator, _)| {
                        counters[annotator] += 1;
                        counters[annotator] - 1
                    })
                    .collect()
            })
            .collect();
        Self::from_positions(positions, &counters, window)
    }

    /// Recorded stream positions (parallel to the view's annotations) and
    /// each annotator's stream length.
    pub(crate) fn from_positions(positions: Vec<Vec<usize>>, stream_lens: &[usize], window: StreamWindow) -> Self {
        let windows = stream_lens.iter().map(|&len| len.div_ceil(window.size).max(1)).collect();
        Self { positions, windows, window }
    }

    /// Window index of annotation `slot` of unit `u`.
    #[inline]
    fn window_of(&self, annotator: usize, u: usize, slot: usize) -> usize {
        (self.positions[u][slot] / self.window.size).min(self.windows[annotator] - 1)
    }

    /// Estimates per-annotator, per-window confusion matrices from soft
    /// posteriors: raw window counts, decay blending, smoothing, row
    /// normalisation.
    fn confusions(&self, view: &AnnotationView, posteriors: &[Vec<f32>], smoothing: f32) -> Vec<Vec<Matrix>> {
        let k = view.num_classes;
        let mut raw: Vec<Vec<Matrix>> = self.windows.iter().map(|&w| vec![Matrix::zeros(k, k); w]).collect();
        for (u, annotations) in view.annotations.iter().enumerate() {
            for (slot, &(annotator, class)) in annotations.iter().enumerate() {
                let counts = &mut raw[annotator][self.window_of(annotator, u, slot)];
                for m in 0..k {
                    counts[(m, class)] += posteriors[u][m];
                }
            }
        }
        raw.into_iter()
            .map(|windows| {
                let mut blended = decay_blend(&windows, self.window.decay);
                for c in &mut blended {
                    for v in c.as_mut_slice() {
                        *v += smoothing;
                    }
                    crate::metrics::normalize_confusion_rows(c);
                }
                blended
            })
            .collect()
    }

    /// Blended per-annotator label-count support: entry `window * k + class`
    /// is the decay-blended number of labels of observed class `class` the
    /// annotator produced in `window`.  This is the evidence mass a windowed
    /// confusion column rests on — posterior-independent, so it is computed
    /// once per inference, not per EM iteration.
    fn support(&self, view: &AnnotationView) -> Vec<Vec<f32>> {
        let k = view.num_classes;
        let mut raw: Vec<Vec<f32>> = self.windows.iter().map(|&w| vec![0.0; w * k]).collect();
        for (u, annotations) in view.annotations.iter().enumerate() {
            for (slot, &(annotator, class)) in annotations.iter().enumerate() {
                raw[annotator][self.window_of(annotator, u, slot) * k + class] += 1.0;
            }
        }
        raw.into_iter().map(|counts| decay_blend_flat(&counts, k, self.window.decay)).collect()
    }
}

/// The windowed half of the EM state: the index, its label-count support
/// and the current per-window confusions.
struct Windowed<'a> {
    index: &'a StreamIndex,
    support: Vec<Vec<f32>>,
    confusions: Vec<Vec<Matrix>>,
}

/// What one EM run produces.
pub(crate) struct EmFit {
    /// Per-unit posteriors at convergence.
    pub posteriors: Vec<Vec<f32>>,
    /// Pooled per-annotator confusions of the final posteriors.
    pub confusions: Vec<Matrix>,
    /// EM iterations run.
    pub iterations: usize,
}

impl EmFit {
    pub(crate) fn into_estimate(self) -> TruthEstimate {
        TruthEstimate::from_posteriors(self.posteriors).with_confusions(self.confusions)
    }
}

/// Runs Dawid–Skene EM over `view`, windowed when `index` is given.
pub(crate) fn dawid_skene_em(
    view: &AnnotationView,
    index: Option<&StreamIndex>,
    smoothing: f32,
    max_iters: usize,
    tol: f32,
) -> EmFit {
    let k = view.num_classes;
    let mut posteriors = MajorityVote.infer(view).posteriors;
    let mut windowed = index.map(|index| Windowed {
        index,
        support: index.support(view),
        confusions: index.confusions(view, &posteriors, smoothing),
    });
    let mut pooled = estimate_confusions(view, &posteriors, smoothing);
    let mut prior = class_prior(&posteriors, k);

    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        // E-step: p(t=m | labels) ∝ prior_m * Π_j pi^{(j)}_{m, y_j}, each
        // label judged by its window's confusion unless that window's
        // observed-class column is too weakly supported to be more than the
        // label's own circular self-evidence
        let mut max_delta = 0.0f32;
        for (u, annotations) in view.annotations.iter().enumerate() {
            let mut log_post: Vec<f32> = (0..k).map(|m| prior[m].max(1e-12).ln()).collect();
            for (slot, &(annotator, class)) in annotations.iter().enumerate() {
                let confusion = match &windowed {
                    Some(w) => {
                        let window = w.index.window_of(annotator, u, slot);
                        if w.support[annotator][window * k + class] < w.index.window.backoff_min_support {
                            &pooled[annotator]
                        } else {
                            &w.confusions[annotator][window]
                        }
                    }
                    None => &pooled[annotator],
                };
                for (m, lp) in log_post.iter_mut().enumerate() {
                    *lp += confusion[(m, class)].max(1e-12).ln();
                }
            }
            let new_post = stats::softmax(&log_post);
            let delta: f32 = new_post.iter().zip(&posteriors[u]).map(|(a, b)| (a - b).abs()).sum::<f32>() / k as f32;
            max_delta = max_delta.max(delta);
            posteriors[u] = new_post;
        }
        // M-step: both confusion families track the evolving posteriors so
        // the backoff always compares like-for-like estimates
        if let Some(w) = &mut windowed {
            w.confusions = w.index.confusions(view, &posteriors, smoothing);
        }
        pooled = estimate_confusions(view, &posteriors, smoothing);
        prior = class_prior(&posteriors, k);
        if max_delta < tol {
            break;
        }
    }
    EmFit { posteriors, confusions: pooled, iterations }
}
