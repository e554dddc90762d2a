//! Cross-crate property tests (proptest): invariants of the text
//! pipeline, scoring equations and post-processing, over arbitrary
//! inputs.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rayon::prelude::*;

use teda::core::annotate::CellAnnotation;
use teda::core::postprocess::{column_scores, eliminate_spurious};
use teda::kb::EntityType;
use teda::tabular::{CellId, Table};
use teda::text::features::TOKEN_MEMO_CAP;
use teda::text::{preprocess as text_preprocess, tokenize, FeatureExtractor};

/// Mixed-script text over a small alphabet, so short tokens recur across
/// strings: accented letters, `İ` (whose lowercase is longer), final and
/// medial sigma, digits and punctuation.
const UNICODE_TEXT: &str = "[a-fA-FéÉüßİıΣσςŒ0-9 .,'!(-]{0,120}";

/// A small English-ish vocabulary source: stopwords, inflections that
/// share a stem, and capitalised forms.
const WORDS: &str = "The museums of Paris are a museum in PARIS running runs ran hotel Hotels";

/// The un-memoized §5.2.1 featurizer: `preprocess`, one vocabulary lookup
/// per stem, and normalized TF over the content-token count. Weights are
/// returned as raw bits so comparisons are exact.
fn reference_transform(fx: &FeatureExtractor, text: &str) -> Vec<(u32, u64)> {
    let stems = text_preprocess(text);
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for stem in &stems {
        if let Some(id) = fx.vocab().get(stem) {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    let total = stems.len() as f64;
    counts
        .into_iter()
        .map(|(id, c)| (id, (f64::from(c) / total).to_bits()))
        .collect()
}

fn bits(fx: &FeatureExtractor, text: &str) -> Vec<(u32, u64)> {
    fx.transform(text)
        .entries()
        .iter()
        .map(|&(id, w)| (id, w.to_bits()))
        .collect()
}

/// `n` distinct lowercase ASCII words of at least two letters.
fn distinct_words(n: usize) -> Vec<String> {
    (0..n)
        .map(|mut i| {
            let mut w = String::from("q");
            loop {
                w.push(char::from(b'a' + (i % 26) as u8));
                i /= 26;
                if i == 0 {
                    break w;
                }
            }
        })
        .collect()
}

/// More distinct tokens than the memo holds: the memo is cleared
/// mid-snippet and between snippets, and every answer stays exact.
#[test]
fn transform_is_bit_identical_past_the_memo_cap() {
    let words = distinct_words(2 * TOKEN_MEMO_CAP + 123);
    let mut fx = FeatureExtractor::new();
    for chunk in words.chunks(7).step_by(3) {
        fx.fit_transform(&chunk.join(" "));
    }
    fx.fit_transform(WORDS);
    let snippets: Vec<String> = words
        .chunks(500)
        .map(|chunk| format!("{} {WORDS}", chunk.join(" ")))
        .collect();
    for _ in 0..2 {
        for s in &snippets {
            assert_eq!(bits(&fx, s), reference_transform(&fx, s));
        }
    }
    let whole = words.join(" ");
    assert_eq!(bits(&fx, &whole), reference_transform(&fx, &whole));
}

proptest! {
    /// Tokenize→stopword→stem never produces empty, uppercase or
    /// single-character tokens.
    #[test]
    fn preprocess_token_invariants(s in "\\PC{0,200}") {
        for tok in text_preprocess(&s) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().count() >= 1);
            prop_assert!(!tok.chars().any(|c| c.is_ascii_uppercase()), "{tok}");
        }
    }

    /// Feature vectors are normalized: weights sum to 1 when any content
    /// token survives, 0 otherwise; all weights positive.
    #[test]
    fn feature_weights_normalized(s in "[a-zA-Z ]{0,120}") {
        let mut fx = FeatureExtractor::new();
        let v = fx.fit_transform(&s);
        let sum = v.sum();
        prop_assert!(
            v.is_empty() && sum == 0.0 || (sum - 1.0).abs() < 1e-9,
            "sum = {sum}"
        );
        prop_assert!(v.entries().iter().all(|&(_, w)| w > 0.0));
    }

    /// `transform` never grows the vocabulary.
    #[test]
    fn transform_is_frozen(a in "[a-z ]{0,80}", b in "[a-z ]{0,80}") {
        let mut fx = FeatureExtractor::new();
        fx.fit_transform(&a);
        let dim = fx.dim();
        let _ = fx.transform(&b);
        prop_assert_eq!(fx.dim(), dim);
    }

    /// `tokenize` splits on non-alphabetic characters, drops one-letter
    /// runs and lowercases with `str::to_lowercase`.
    #[test]
    fn tokenize_matches_split_reference(s in "\\PC{0,200}", u in UNICODE_TEXT) {
        for text in [s.as_str(), u.as_str()] {
            let reference: Vec<String> = text
                .split(|c: char| !c.is_alphabetic())
                .filter(|w| w.chars().count() >= 2)
                .map(str::to_lowercase)
                .collect();
            prop_assert_eq!(tokenize(text).collect::<Vec<_>>(), reference);
        }
    }

    /// The memoized `transform` equals the un-memoized recipe bit for
    /// bit on arbitrary Unicode input, cold and warm.
    #[test]
    fn transform_is_bit_identical_on_unicode(
        train in proptest::collection::vec(UNICODE_TEXT, 1..6),
        texts in proptest::collection::vec(UNICODE_TEXT, 1..8),
        printable in "\\PC{0,200}"
    ) {
        let mut fx = FeatureExtractor::new();
        fx.fit_transform(WORDS);
        for t in &train {
            fx.fit_transform(t);
        }
        for _ in 0..2 {
            for t in texts.iter().chain([&printable]) {
                prop_assert_eq!(bits(&fx, t), reference_transform(&fx, t));
            }
        }
    }

    /// Interning a new word invalidates every answer the memo holds
    /// for the old vocabulary.
    #[test]
    fn fit_transform_invalidates_the_memo(
        a in UNICODE_TEXT,
        b in UNICODE_TEXT,
        c in UNICODE_TEXT
    ) {
        let mut fx = FeatureExtractor::new();
        fx.fit_transform(&a);
        for t in [&a, &b, &c, &b] {
            prop_assert_eq!(bits(&fx, t), reference_transform(&fx, t));
            // `c`'s tokens are memoized as unseen before it is learnt.
            fx.fit_transform(&c);
        }
        let learnt = format!("{b} nouveaumot {c}");
        let _ = fx.transform(&learnt);
        fx.fit_transform("nouveaumot");
        prop_assert_eq!(bits(&fx, &learnt), reference_transform(&fx, &learnt));
    }

    /// Two extractors with different vocabularies, alternating on one
    /// thread, never see each other's answers.
    #[test]
    fn alternating_extractors_stay_exact(
        a in UNICODE_TEXT,
        b in UNICODE_TEXT,
        texts in proptest::collection::vec(UNICODE_TEXT, 1..8)
    ) {
        let mut fx1 = FeatureExtractor::new();
        fx1.fit_transform(&a);
        fx1.fit_transform(WORDS);
        let mut fx2 = FeatureExtractor::new();
        fx2.fit_transform(&b);
        fx2.fit_transform(&a);
        for t in texts.iter().chain([&a, &b]) {
            prop_assert_eq!(bits(&fx1, t), reference_transform(&fx1, t));
            prop_assert_eq!(bits(&fx2, t), reference_transform(&fx2, t));
        }
    }

    /// Featurizing on a thread pool (each worker with its own memo)
    /// gives the sequential results.
    #[test]
    fn parallel_transform_matches_sequential(
        train in UNICODE_TEXT,
        texts in proptest::collection::vec(UNICODE_TEXT, 1..64)
    ) {
        let mut fx = FeatureExtractor::new();
        fx.fit_transform(&train);
        fx.fit_transform(WORDS);
        let sequential: Vec<Vec<(u32, u64)>> = texts.iter().map(|t| bits(&fx, t)).collect();
        let parallel: Vec<Vec<(u32, u64)>> = texts.par_iter().map(|t| bits(&fx, t)).collect();
        prop_assert_eq!(&parallel, &sequential);
        let reference: Vec<Vec<(u32, u64)>> =
            texts.iter().map(|t| reference_transform(&fx, t)).collect();
        prop_assert_eq!(parallel, reference);
    }

    /// Post-processing only removes annotations (output ⊆ input) and
    /// leaves at most one column per type.
    #[test]
    fn postprocess_shrinks_and_unifies_columns(
        anns in proptest::collection::vec(
            (0usize..8, 0usize..3, 0usize..3, 1usize..=10),
            0..24
        )
    ) {
        // table of 8 rows × 3 columns with distinct-ish cell values
        let mut b = Table::builder(3);
        for i in 0..8 {
            b.push_row(vec![
                format!("a{i}"),
                format!("b{}", i % 2), // repeated values in column 1
                format!("c{i}"),
            ]).unwrap();
        }
        let table = b.build().unwrap();
        let types = [EntityType::Restaurant, EntityType::Museum, EntityType::Hotel];
        let input: Vec<CellAnnotation> = anns
            .iter()
            .map(|&(row, col, t, votes)| CellAnnotation {
                cell: CellId::new(row, col),
                etype: types[t],
                score: votes as f64 / 10.0,
                votes,
            })
            .collect();
        let output = eliminate_spurious(&table, input.clone());
        prop_assert!(output.len() <= input.len());
        for a in &output {
            prop_assert!(input.contains(a), "postprocess invented {a:?}");
        }
        for t in types {
            let cols: std::collections::HashSet<usize> = output
                .iter()
                .filter(|a| a.etype == t)
                .map(|a| a.cell.col)
                .collect();
            prop_assert!(cols.len() <= 1, "{t}: columns {cols:?}");
        }
    }

    /// Eq. 2 column scores are non-negative and grow monotonically with
    /// extra annotations.
    #[test]
    fn eq2_scores_monotone(votes in proptest::collection::vec(6usize..=10, 1..8)) {
        let mut b = Table::builder(1);
        for i in 0..8 {
            b.push_row(vec![format!("v{i}")]).unwrap();
        }
        let table = b.build().unwrap();
        let mut anns: Vec<CellAnnotation> = Vec::new();
        let mut last = 0.0;
        for (i, &v) in votes.iter().enumerate() {
            anns.push(CellAnnotation {
                cell: CellId::new(i, 0),
                etype: EntityType::Museum,
                score: v as f64 / 10.0,
                votes: v,
            });
            let s = column_scores(&table, &anns, EntityType::Museum)[&0];
            prop_assert!(s >= last, "score dropped: {last} -> {s}");
            prop_assert!(s >= 0.0);
            last = s;
        }
    }
}
