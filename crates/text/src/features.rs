//! Sparse feature vectors with the paper's normalized-TF weighting.
//!
//! §5.2.1: "Each token is associated with its normalized frequency in the
//! snippet, that is obtained by dividing the number of its occurrences by
//! the length of the snippet. The set of tokens, along with their relative
//! frequencies, form the features used by the text classifier."
//!
//! "Length of the snippet" is taken as the number of content tokens after
//! stop-word removal (so weights of a snippet always sum to 1 when at
//! least one token survives) — the convention LingPipe-era pipelines used.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::porter::Stemmer;
use crate::stopwords::is_stopword;
use crate::tokenize::{lowercase_into, words};
use crate::vocab::Vocabulary;

/// A sparse feature vector: `(feature id, weight)` pairs sorted by id,
/// each id unique.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// Builds a vector from unsorted, possibly duplicated pairs; duplicate
    /// ids are summed.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some((last_id, last_w)) if *last_id == id => *last_w += w,
                _ => entries.push((id, w)),
            }
        }
        SparseVector { entries }
    }

    /// The entries, sorted by feature id.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Number of non-zero features.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no features (e.g. the snippet was all stopwords).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of feature `id`, 0.0 when absent.
    pub fn get(&self, id: u32) -> f64 {
        self.entries
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|idx| self.entries[idx].1)
            .unwrap_or(0.0)
    }

    /// Sum of weights (≈ 1.0 for normalized-TF vectors).
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Dot product with another sparse vector (merge join).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Dot product with a dense weight slice; out-of-range ids contribute 0.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.entries
            .iter()
            .map(|&(id, w)| dense.get(id as usize).copied().unwrap_or(0.0) * w)
            .sum()
    }

    /// Adds `scale * self` into a dense accumulator (grows implicitly via
    /// the caller sizing `dense` to the vocabulary).
    pub fn add_scaled_into(&self, dense: &mut [f64], scale: f64) {
        for &(id, w) in &self.entries {
            if let Some(slot) = dense.get_mut(id as usize) {
                *slot += scale * w;
            }
        }
    }

    /// Squared Euclidean distance to another sparse vector.
    pub fn distance_sq(&self, other: &SparseVector) -> f64 {
        // |a|² + |b|² − 2·a·b
        let na = self.entries.iter().map(|&(_, w)| w * w).sum::<f64>();
        let nb = other.entries.iter().map(|&(_, w)| w * w).sum::<f64>();
        (na + nb - 2.0 * self.dot(other)).max(0.0)
    }
}

/// Turns raw text into [`SparseVector`]s via the §5.2.1 recipe:
/// lowercase → tokenize → stop-filter → Porter stem → normalized TF.
///
/// During training, call [`fit_transform`](FeatureExtractor::fit_transform)
/// so new tokens extend the vocabulary; at prediction time call
/// [`transform`](FeatureExtractor::transform), which skips unseen tokens.
///
/// `transform` is the extractor's *frozen* mode: it takes `&self`, never
/// touches the vocabulary, and keeps its scratch in thread-local storage —
/// so one extractor can featurize snippets from many threads concurrently
/// (the batch annotation engine classifies cells in parallel against a
/// single shared extractor).
///
/// That scratch includes a per-thread token memo: it maps a lowercased
/// surface token to what it contributes (a stopword, an out-of-vocabulary
/// stem, or a feature id), so the stopword search, the Porter stemmer and
/// the vocabulary lookup run once per distinct token per thread rather
/// than once per occurrence. The memo holds at most a fixed number of
/// tokens and is cleared when full. It is keyed to the extractor's
/// vocabulary *generation*: every extractor draws a fresh generation when
/// created and whenever `fit_transform` interns a new word (a clone keeps
/// its generation, as it has the same vocabulary), and a thread's memo is
/// cleared on first use with a different generation. The memo is a cache
/// only: `transform` returns the same vector, bit for bit, with or
/// without it.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    vocab: Vocabulary,
    stemmer: Stemmer,
    /// Identifies the vocabulary's contents to the frozen path's memo.
    generation: u64,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor {
            vocab: Vocabulary::new(),
            stemmer: Stemmer::new(),
            generation: next_generation(),
        }
    }
}

/// Most distinct tokens a thread's frozen-path memo holds; reaching it
/// clears the memo. A fixed bound, not a setting: a few hundred KB per
/// thread at most.
pub const TOKEN_MEMO_CAP: usize = 4096;

/// Source of vocabulary generations. It starts at 1, so a thread's fresh
/// scratch (generation 0) answers for no extractor.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    // Only uniqueness matters: the value publishes no other data.
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// What one lowercased surface token contributes to a frozen featurization.
#[derive(Debug, Clone, Copy)]
enum TokenClass {
    /// A stopword: dropped, and not part of the snippet length.
    Stop,
    /// Its stem is out of vocabulary: part of the length, but no feature.
    Unseen,
    /// Its stem is this feature id.
    Id(u32),
}

/// Per-thread scratch of the frozen (`&self`) path. The stemmer and the
/// buffers are allocation optimisations and the memo is a cache of a pure
/// function of (token, vocabulary), so a per-thread instance preserves
/// pure-function semantics.
#[derive(Default)]
struct FrozenScratch {
    stemmer: Stemmer,
    /// The current token, lowercased.
    lower: String,
    /// The vocabulary generation `memo` answers for.
    generation: u64,
    memo: HashMap<String, TokenClass>,
    /// Feature ids of the current snippet, one per occurrence.
    ids: Vec<u32>,
}

thread_local! {
    static FROZEN_SCRATCH: RefCell<FrozenScratch> = RefCell::new(FrozenScratch::default());
}

impl FeatureExtractor {
    /// Creates an extractor with an empty vocabulary.
    pub fn new() -> Self {
        FeatureExtractor::default()
    }

    /// The current vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Vocabulary size; classifiers size their weight vectors from this.
    pub fn dim(&self) -> usize {
        self.vocab.len()
    }

    /// Extracts features, interning unseen tokens (training mode).
    pub fn fit_transform(&mut self, text: &str) -> SparseVector {
        let dim = self.vocab.len();
        let mut lower = String::new();
        let mut ids = Vec::new();
        let mut total = 0u32;
        for raw in words(text) {
            lowercase_into(raw, &mut lower);
            if is_stopword(&lower) {
                continue;
            }
            ids.push(self.vocab.intern(self.stemmer.stem(&lower)));
            total += 1;
        }
        if self.vocab.len() != dim {
            self.generation = next_generation();
        }
        Self::normalize(&mut ids, total)
    }

    /// Extracts features against the frozen vocabulary (prediction mode);
    /// unseen tokens are skipped but still count toward the snippet length,
    /// as they would for a classifier that has never seen the word.
    ///
    /// Takes `&self`: the vocabulary is read-only here and the scratch
    /// (stemmer, buffers, token memo) is thread-local, so concurrent
    /// inference needs no locking.
    pub fn transform(&self, text: &str) -> SparseVector {
        FROZEN_SCRATCH.with(|scratch| {
            let FrozenScratch {
                stemmer,
                lower,
                generation,
                memo,
                ids,
            } = &mut *scratch.borrow_mut();
            if *generation != self.generation {
                memo.clear();
                *generation = self.generation;
            }
            ids.clear();
            let mut total = 0u32;
            for raw in words(text) {
                lowercase_into(raw, lower);
                let class = match memo.get(lower.as_str()) {
                    Some(&class) => class,
                    None => {
                        let class = self.classify_token(stemmer, lower);
                        if memo.len() >= TOKEN_MEMO_CAP {
                            memo.clear();
                        }
                        memo.insert(lower.clone(), class);
                        class
                    }
                };
                match class {
                    TokenClass::Stop => {}
                    TokenClass::Unseen => total += 1,
                    TokenClass::Id(id) => {
                        ids.push(id);
                        total += 1;
                    }
                }
            }
            Self::normalize(ids, total)
        })
    }

    /// The uncached answer for one lowercased token.
    fn classify_token(&self, stemmer: &mut Stemmer, lower: &str) -> TokenClass {
        if is_stopword(lower) {
            return TokenClass::Stop;
        }
        match self.vocab.get(stemmer.stem(lower)) {
            Some(id) => TokenClass::Id(id),
            None => TokenClass::Unseen,
        }
    }

    /// Normalized TF: each distinct id weighs its occurrences in `ids`
    /// divided by `total`, the snippet's content-token count.
    fn normalize(ids: &mut [u32], total: u32) -> SparseVector {
        if total == 0 {
            return SparseVector::default();
        }
        ids.sort_unstable();
        let denom = f64::from(total);
        SparseVector::from_pairs(
            ids.chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as f64 / denom))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs(vec![(3, 1.0), (1, 0.5), (3, 2.0)]);
        assert_eq!(v.entries(), &[(1, 0.5), (3, 3.0)]);
        assert_eq!(v.get(3), 3.0);
        assert_eq!(v.get(2), 0.0);
    }

    #[test]
    fn dot_products() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0)]);
        let b = SparseVector::from_pairs(vec![(1, 5.0), (2, 3.0)]);
        assert_eq!(a.dot(&b), 6.0);
        assert_eq!(a.dot_dense(&[1.0, 1.0, 1.0]), 3.0);
        assert_eq!(a.dot_dense(&[1.0]), 1.0); // id 2 out of range → 0
    }

    #[test]
    fn norms_and_distance() {
        let a = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        assert_eq!(a.norm(), 5.0);
        let b = SparseVector::from_pairs(vec![(0, 0.0), (1, 0.0)]);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
        assert_eq!(a.distance_sq(&a), 0.0);
    }

    #[test]
    fn add_scaled_accumulates() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0)]);
        let mut dense = vec![0.0; 3];
        a.add_scaled_into(&mut dense, 2.0);
        assert_eq!(dense, vec![2.0, 0.0, 4.0]);
    }

    #[test]
    fn fit_transform_normalizes_to_one() {
        let mut fx = FeatureExtractor::new();
        let v = fx.fit_transform("The Louvre museum is a museum in Paris");
        // content tokens: louvre museum museum paris → weights sum to 1
        assert!((v.sum() - 1.0).abs() < 1e-12);
        let museum_id = fx.vocab().get("museum").unwrap();
        assert!((v.get(museum_id) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transform_skips_unseen_but_counts_length() {
        let mut fx = FeatureExtractor::new();
        fx.fit_transform("museum paris");
        let v = fx.transform("museum zanzibar"); // zanzibar unseen
        let museum_id = fx.vocab().get("museum").unwrap();
        // length 2, museum count 1 → weight 0.5
        assert!((v.get(museum_id) - 0.5).abs() < 1e-12);
        assert_eq!(v.nnz(), 1);
        assert_eq!(fx.dim(), 2, "transform must not grow the vocabulary");
    }

    #[test]
    fn all_stopword_text_yields_empty_vector() {
        let mut fx = FeatureExtractor::new();
        let v = fx.fit_transform("the of and");
        assert!(v.is_empty());
        assert_eq!(v.sum(), 0.0);
    }

    #[test]
    fn stemming_merges_inflections() {
        let mut fx = FeatureExtractor::new();
        let v = fx.fit_transform("museums museum");
        assert_eq!(v.nnz(), 1, "museums and museum share a stem");
        assert!((v.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memo_follows_vocabulary_growth() {
        let mut fx = FeatureExtractor::new();
        fx.fit_transform("museum paris");
        assert_eq!(fx.transform("museum louvre").nnz(), 1);
        // "louvre" is now memoized as unseen; interning it must invalidate.
        fx.fit_transform("louvre");
        let v = fx.transform("museum louvre");
        assert_eq!(v.nnz(), 2);
        assert!(v.entries().iter().all(|&(_, w)| w == 0.5));
    }

    #[test]
    fn clones_share_answers_until_one_grows() {
        let mut a = FeatureExtractor::new();
        a.fit_transform("museum paris");
        let mut b = a.clone();
        assert_eq!(a.transform("museum hotel"), b.transform("museum hotel"));
        b.fit_transform("hotel");
        assert_eq!(a.transform("museum hotel").nnz(), 1);
        assert_eq!(b.transform("museum hotel").nnz(), 2);
    }

    #[test]
    fn memo_stays_bounded() {
        // Twice the cap in distinct three-letter words.
        let letter = |i: usize| char::from(b'a' + (i % 26) as u8);
        let text: String = (0..2 * TOKEN_MEMO_CAP + 10)
            .map(|i| format!("{}{}{} ", letter(i / 676), letter(i / 26), letter(i)))
            .collect();
        let fx = FeatureExtractor::new();
        fx.transform(&text);
        fx.transform(&text);
        FROZEN_SCRATCH.with(|s| {
            let len = s.borrow().memo.len();
            assert!(len > 0 && len <= TOKEN_MEMO_CAP, "memo holds {len}");
        });
    }
}
