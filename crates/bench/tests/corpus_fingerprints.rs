//! Golden fingerprints of the generated corpora.
//!
//! Every token, gold label and crowd label of the scale-tier sentiment and
//! NER corpora and of the CI scenario grid is folded into one FNV-1a hash
//! per corpus (the [`ScenarioConfig::content_hash`] idiom).  The constants
//! pin the generators' output bits: an RNG draw consumed in a different
//! order or a weighted pick resolved differently fails here by corpus
//! name, instead of surfacing only as a shifted quality baseline.
//!
//! [`ScenarioConfig::content_hash`]: lncl_crowd::scenario::ScenarioConfig::content_hash

use lncl_bench::experiments::scenario_sweep_configs;
use lncl_bench::scale::Scale;
use lncl_crowd::scenario::generate_scenario;
use lncl_crowd::{CrowdDataset, Instance};

/// FNV-1a over the dataset's shape and every token, gold label and crowd
/// label of all three splits.
fn fingerprint(dataset: &CrowdDataset) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix_in = |v: usize| {
        hash ^= v as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix_in(dataset.num_classes);
    mix_in(dataset.num_annotators);
    mix_in(dataset.vocab.len());
    for split in [&dataset.train, &dataset.dev, &dataset.test] {
        mix_in(split.len());
        for Instance { tokens, gold, crowd_labels } in split.iter() {
            mix_in(tokens.len());
            tokens.iter().chain(gold).for_each(|&v| mix_in(v));
            mix_in(crowd_labels.len());
            for label in crowd_labels {
                mix_in(label.annotator);
                label.labels.iter().for_each(|&v| mix_in(v));
            }
        }
    }
    hash
}

/// Compares every `(name, fingerprint)` against its recorded constant and
/// reports all mismatches at once.
fn assert_fingerprints(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let names: Vec<&str> = actual.iter().map(|(name, _)| name.as_str()).collect();
    let expected_names: Vec<&str> = expected.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, expected_names, "corpus list changed");
    let drifted: Vec<String> = actual
        .iter()
        .zip(expected)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: {got:#018x} (recorded {want:#018x})"))
        .collect();
    assert!(drifted.is_empty(), "generated corpora changed:\n{}", drifted.join("\n"));
}

#[test]
fn scale_tier_corpora_match_their_recorded_fingerprints() {
    let mut actual = Vec::new();
    for (scale, seeds) in [(Scale::Tiny, 1..=3u64), (Scale::Small, 1..=3), (Scale::Paper, 1..=1)] {
        for seed in seeds {
            actual.push((format!("{}/sentiment/s{seed}", scale.name()), fingerprint(&scale.sentiment_dataset(seed))));
            actual.push((format!("{}/ner/s{seed}", scale.name()), fingerprint(&scale.ner_dataset(seed))));
        }
    }
    assert_fingerprints(&actual, SCALE_TIER);
}

#[test]
fn ci_scenario_grid_matches_its_recorded_fingerprints() {
    let actual: Vec<(String, u64)> = scenario_sweep_configs(Scale::Tiny, 29)
        .iter()
        .map(|config| (config.name.clone(), fingerprint(&generate_scenario(config))))
        .collect();
    assert_fingerprints(&actual, CI_GRID);
}

const SCALE_TIER: &[(&str, u64)] = &[
    ("tiny/sentiment/s1", 0x5d1026f26a751310),
    ("tiny/ner/s1", 0x88590829796e8b38),
    ("tiny/sentiment/s2", 0xe5bb401357a65586),
    ("tiny/ner/s2", 0xdbdec9e4f9b7e8a3),
    ("tiny/sentiment/s3", 0x7db7f2b15573f32a),
    ("tiny/ner/s3", 0x954c3c3b4caa1f5f),
    ("small/sentiment/s1", 0x35bc65149d40e306),
    ("small/ner/s1", 0xe5ed8abe925324df),
    ("small/sentiment/s2", 0x613d93332b1e23d3),
    ("small/ner/s2", 0x8f9b8ebfbf2fd38c),
    ("small/sentiment/s3", 0xff425cb3d9394d39),
    ("small/ner/s3", 0x467156e42c7d9e75),
    ("paper/sentiment/s1", 0x8f927b96f9fd0c76),
    ("paper/ner/s1", 0xc7a02685c0642c85),
];

const CI_GRID: &[(&str, u64)] = &[
    ("sent/clean/r3-5/j8/b0.50", 0xf12498be6cedb213),
    ("sent/spammer-third/r3-5/j8/b0.50", 0xd726d143cc58514c),
    ("sent/adversarial-quarter/r3-5/j8/b0.50", 0x039440aa57b11cdd),
    ("sent/pair-confusers/r3-5/j8/b0.50", 0xbdc01c6314fe1343),
    ("sent/colluding-clique/r3-5/j8/b0.50", 0x48656093e9afa9b7),
    ("sent/anarchy/r3-5/j8/b0.50", 0xdc0181c6c84e5a7c),
    ("ner/clean/r2-4/j6/b0.25", 0x5b0e5238270bb8bc),
    ("ner/spammer-third/r2-4/j6/b0.25", 0xf1dfaaeca8538831),
    ("ner/adversarial-quarter/r2-4/j6/b0.25", 0xc89b60e31d3696ac),
    ("ner/pair-confusers/r2-4/j6/b0.25", 0x9e8a8020639c2101),
    ("ner/colluding-clique/r2-4/j6/b0.25", 0x13630c4707029ee6),
    ("ner/anarchy/r2-4/j6/b0.25", 0x7648a65236a68945),
    ("sent/clean/r3-5/j8/b0.50/static/flat", 0xf12498be6cedb213),
    ("sent/clean/r3-5/j8/b0.50/static/hard0.8", 0x84099f450d52b4fa),
    ("sent/clean/r3-5/j8/b0.50/step0.9/flat", 0xc158f9a4f37a0f61),
    ("sent/clean/r3-5/j8/b0.50/step0.9/hard0.8", 0x531248f34de8908e),
    ("ner/clean/r2-4/j6/b0.25/static/flat", 0x5b0e5238270bb8bc),
    ("ner/clean/r2-4/j6/b0.25/static/hard0.8", 0xdeb4d0162961c99f),
    ("ner/clean/r2-4/j6/b0.25/step0.9/flat", 0x6225a719bb0718b4),
    ("ner/clean/r2-4/j6/b0.25/step0.9/hard0.8", 0x4479c3a89d195fef),
    ("sent/clean/r1-1", 0xdc36dc62835f5867),
    ("sent/clean/r6-6", 0xb624aca837436d56),
    ("sent/clean/b0.85", 0x6358738fcc0f19bb),
    ("sent/spammer-third/j16", 0x9330f2ae006d1e29),
];
