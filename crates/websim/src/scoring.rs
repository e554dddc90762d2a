//! The BM25 scoring kernel shared by every index flavour.
//!
//! This module owns the query path below term lookup: the posting walk
//! ([`accumulate`]), the per-thread score [`Accumulator`] it writes, and
//! the ranking that reads it ([`rank_top_k`], [`merge_topk`]). Callers
//! only say where postings live ([`PostingSource`]) and which collection
//! statistics to score with ([`Stats`]): the heap
//! [`InvertedIndex`](crate::InvertedIndex) and `teda-store`'s mapped view
//! with their own, `teda-cluster`'s shard backend with its manifest's
//! global `N`, dfs and `avg_len`. [`SegmentedCorpus`](crate::SegmentedCorpus)
//! keeps its own two-pass remap walk but adds into the same accumulator.
//!
//! Bit-identity across flavours is guaranteed by sharing the arithmetic
//! (same operations in the same order on the same bit patterns: query
//! terms, postings, per-page additions, first touches) and the tie rules
//! (score descending, page id ascending, via `f64::total_cmp`). The
//! property tests only have to check that each flavour *feeds* the
//! kernel the same `(idf, tf, doc_len, avg_len)` stream.
//!
//! A query costs O(pages touched), not O(collection): the accumulator is
//! kept per thread and cleared by zeroing only the last query's pages.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use teda_text::tokenize;

use crate::backend::BaseCorpus;
use crate::page::PageId;

/// BM25 `k1`: term-frequency saturation.
pub const K1: f64 = 1.2;
/// BM25 `b`: document-length normalization strength.
pub const B: f64 = 0.75;

/// BM25 IDF with the standard +1 floor against negative values.
#[inline]
pub fn idf(n_docs: usize, df: usize) -> f64 {
    let df = df as f64;
    (((n_docs as f64 - df + 0.5) / (df + 0.5)) + 1.0).ln()
}

/// One posting's BM25 contribution. The expression tree is fixed here
/// so every caller performs the identical float operations in the
/// identical order — the foundation of cross-flavour bit-identity.
#[inline]
pub fn weight(idf: f64, tf: f64, doc_len: f64, avg_len: f64) -> f64 {
    let norm = K1 * (1.0 - B + B * doc_len / avg_len.max(1e-9));
    idf * (tf * (K1 + 1.0)) / (tf + norm)
}

/// Where the kernel reads postings from. Page ids are `0..n_docs()`;
/// `tid`s come from `term_id` on the same source; each term's postings
/// are visited pages ascending, with the `tf` bits the index stores.
/// Sources validate at construction (`crate::index::check_index`) so
/// that every contribution is finite and positive.
///
/// The walk is generic, so concrete sources are walked without a
/// per-posting dynamic call; `dyn BaseCorpus` is a source through its
/// object-safe visitor.
pub trait PostingSource {
    /// Number of documents; sizes the accumulator.
    fn n_docs(&self) -> usize;
    /// The dense id of `term`, if interned.
    fn term_id(&self, term: &str) -> Option<u32>;
    /// Posting-list length of term `tid` (its local df).
    fn postings_len(&self, tid: u32) -> usize;
    /// Visits term `tid`'s postings as `(page id, tf)`, pages ascending.
    fn for_each_posting<F: FnMut(u32, f32)>(&self, tid: u32, visit: F);
    /// Indexed token length of document `doc`, as stored.
    fn doc_len_of(&self, doc: usize) -> f64;
}

impl PostingSource for dyn BaseCorpus {
    fn n_docs(&self) -> usize {
        BaseCorpus::n_docs(self)
    }

    fn term_id(&self, term: &str) -> Option<u32> {
        BaseCorpus::term_id(self, term)
    }

    fn postings_len(&self, tid: u32) -> usize {
        BaseCorpus::postings_len(self, tid)
    }

    fn for_each_posting<F: FnMut(u32, f32)>(&self, tid: u32, mut visit: F) {
        BaseCorpus::for_each_posting(self, tid, &mut visit)
    }

    fn doc_len_of(&self, doc: usize) -> f64 {
        BaseCorpus::doc_len_of(self, doc)
    }
}

/// The collection statistics a query is scored with.
#[derive(Debug, Clone, Copy)]
pub struct Stats<'a> {
    /// `N`, the collection size idf is computed against.
    pub n_docs: usize,
    /// The average document length, as stored.
    pub avg_len: f64,
    /// Per-term dfs indexed by the source's term ids; `None` uses the
    /// source's posting-list lengths.
    pub dfs: Option<&'a [u64]>,
}

impl Stats<'static> {
    /// A single node scoring its own collection.
    pub fn local(n_docs: usize, avg_len: f64) -> Self {
        Stats {
            n_docs,
            avg_len,
            dfs: None,
        }
    }
}

/// A query's scores: a dense per-page buffer plus the pages touched, in
/// first-touch order. The buffer only grows, and `reset` zeroes just
/// the previous query's touched pages. `add` lists a page before its
/// first write, so even a query that panicked
/// mid-walk leaves no score the next reset misses.
#[derive(Debug, Default)]
pub struct Accumulator {
    scores: Vec<f64>,
    touched: Vec<u32>,
}

impl Accumulator {
    /// Starts a query over `n_docs` pages: O(touched) clear, then growth.
    pub(crate) fn reset(&mut self, n_docs: usize) {
        for &page in &self.touched {
            self.scores[page as usize] = 0.0;
        }
        self.touched.clear();
        if self.scores.len() < n_docs {
            self.scores.resize(n_docs, 0.0);
        }
    }

    /// Adds one posting's contribution to `page`. A zero contribution
    /// changes no score and is dropped, so no page is listed twice.
    #[inline]
    pub(crate) fn add(&mut self, page: u32, contrib: f64) {
        let i = page as usize;
        if self.scores[i] == 0.0 {
            if contrib == 0.0 {
                return;
            }
            self.touched.push(page);
        }
        self.scores[i] += contrib;
    }

    /// The current query's top `k` through the bounded heap.
    pub fn top_k(&self, k: usize) -> Vec<(PageId, f64)> {
        rank_top_k(&self.scores, &self.touched, k)
    }

    /// The current query's top `k` through the full-sort reference.
    pub(crate) fn full_sort(&self, k: usize) -> Vec<(PageId, f64)> {
        rank_full_sort(&self.scores, &self.touched, k)
    }
}

thread_local! {
    static SCRATCH: RefCell<Accumulator> = RefCell::default();
}

/// Runs `f` with this thread's scratch [`Accumulator`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Accumulator) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// The one BM25 posting walk: resets `acc` for `src`, then for each
/// query token `src` interns, in `tokenize` order, adds every posting's
/// [`weight`] in posting order, idf taken from `stats`.
pub fn accumulate<S: PostingSource + ?Sized>(
    src: &S,
    stats: Stats<'_>,
    query: &str,
    acc: &mut Accumulator,
) {
    acc.reset(src.n_docs());
    for term in tokenize(query) {
        let Some(tid) = src.term_id(&term) else {
            continue;
        };
        let df = match stats.dfs {
            Some(dfs) => dfs[tid as usize] as usize,
            None => src.postings_len(tid),
        };
        let idf = idf(stats.n_docs, df);
        src.for_each_posting(tid, |page, tf| {
            let doc_len = src.doc_len_of(page as usize);
            acc.add(page, weight(idf, f64::from(tf), doc_len, stats.avg_len));
        });
    }
}

/// Up to `k` pages of `src` by descending score, ties by ascending id:
/// [`accumulate`] into this thread's scratch, then [`rank_top_k`].
pub fn search<S: PostingSource + ?Sized>(
    src: &S,
    stats: Stats<'_>,
    query: &str,
    k: usize,
) -> Vec<(PageId, f64)> {
    if k == 0 || src.n_docs() == 0 {
        return Vec::new();
    }
    with_scratch(|acc| {
        accumulate(src, stats, query, acc);
        acc.top_k(k)
    })
}

/// The one total order every ranked list in the system uses: higher
/// score first (compared with `total_cmp`, so a NaN degrades to an
/// ordinary value instead of panicking inside every query), ascending
/// page id on ties. `Less` means "`a` ranks better than `b`" — i.e.
/// sorting by this comparator puts the best hit first.
///
/// This is the single definition of the tie rules. The bounded heap
/// ([`rank_top_k`]), the full-sort reference ([`rank_full_sort`]) and
/// the cluster router's k-way merge ([`merge_topk`]) all defer to it,
/// which is why their outputs can be compared bit for bit.
#[inline]
pub fn rank_order(a: &(PageId, f64), b: &(PageId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Merges already-ranked lists (each sorted best-first by
/// [`rank_order`], e.g. per-shard `search` outputs) into one global
/// top-`k` under the identical order. Page ids must be globally unique
/// across the lists — duplicate ids are kept as-is, never summed.
///
/// Correctness of scatter-gather rides on this: any document in the
/// global top-k beats all but fewer than k documents globally, hence
/// all but fewer than k in its own shard, hence appears in that shard's
/// local top-k — so merging local top-k lists and truncating is exact,
/// ties included.
pub fn merge_topk<I>(lists: I, k: usize) -> Vec<(PageId, f64)>
where
    I: IntoIterator<Item = Vec<(PageId, f64)>>,
{
    let mut merged: Vec<(PageId, f64)> = lists.into_iter().flatten().collect();
    merged.sort_by(rank_order);
    merged.truncate(k);
    merged
}

/// Heap entry ordered so that `a > b` means "a ranks better": higher
/// score first, lower page id on ties — the exact order of a full
/// descending sort with id tie-breaks.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f64,
    page: PageId,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.page == other.page
    }
}

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // `rank_order` puts the better entry first (`Less`); the heap
        // wants "better" to be `Greater`, hence the reverse.
        rank_order(&(self.page, self.score), &(other.page, other.score)).reverse()
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Selects the top `k` of the touched pages by descending score, page
/// id ascending on ties, through a bounded binary heap (`O(n log k)`).
/// `touched` lists the pages with non-zero accumulated score (any
/// deterministic order works — the heap result is order-insensitive,
/// but every caller produces first-touch order for its own scan).
pub fn rank_top_k(scores: &[f64], touched: &[u32], k: usize) -> Vec<(PageId, f64)> {
    if k == 0 {
        return Vec::new();
    }
    // Bounded min-heap of the k best (the heap's minimum is the
    // current k-th entry; anything better evicts it).
    let mut heap: BinaryHeap<std::cmp::Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
    for &page in touched {
        let entry = Ranked {
            score: scores[page as usize],
            page: PageId(page),
        };
        if heap.len() < k {
            heap.push(std::cmp::Reverse(entry));
        } else if entry > heap.peek().expect("non-empty heap").0 {
            heap.pop();
            heap.push(std::cmp::Reverse(entry));
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|std::cmp::Reverse(r)| (r.page, r.score))
        .collect()
}

/// The historical ranking path — score everything, sort everything —
/// kept as the reference [`rank_top_k`] must match exactly (tie order
/// included) and as the baseline for microbenchmarks.
pub fn rank_full_sort(scores: &[f64], touched: &[u32], k: usize) -> Vec<(PageId, f64)> {
    let mut ranked: Vec<(PageId, f64)> = touched
        .iter()
        .map(|&p| (PageId(p), scores[p as usize]))
        .collect();
    ranked.sort_by(rank_order);
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a NaN score (a degenerate idf/length interaction in
    /// some future scoring tweak) must order deterministically, not
    /// panic inside every query — and both ranking paths must agree.
    #[test]
    fn nan_scores_order_deterministically_instead_of_panicking() {
        let entries = [
            Ranked {
                score: f64::NAN,
                page: PageId(0),
            },
            Ranked {
                score: 1.5,
                page: PageId(1),
            },
            Ranked {
                score: f64::NAN,
                page: PageId(2),
            },
            Ranked {
                score: 0.5,
                page: PageId(3),
            },
        ];
        let mut heap_order = entries;
        heap_order.sort(); // would have panicked via partial_cmp
        let mut full_sort_order: Vec<(PageId, f64)> =
            entries.iter().map(|r| (r.page, r.score)).collect();
        full_sort_order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        // `sort` is ascending "worse first"; the full-sort comparator is
        // descending "best first" — reversed, they must agree exactly.
        heap_order.reverse();
        let from_ranked: Vec<(PageId, f64)> =
            heap_order.iter().map(|r| (r.page, r.score)).collect();
        assert_eq!(
            format!("{from_ranked:?}"),
            format!("{full_sort_order:?}"),
            "Ranked::cmp and the full-sort comparator disagree on NaN"
        );
        // NaN ranks above every finite score under total_cmp; ties on
        // NaN still break by ascending page id.
        assert_eq!(from_ranked[0].0, PageId(0));
        assert_eq!(from_ranked[1].0, PageId(2));
        assert_eq!(from_ranked[2].0, PageId(1));
        assert_eq!(from_ranked[3].0, PageId(3));
    }

    #[test]
    fn rank_paths_agree_on_ties() {
        let scores = vec![2.0, 1.0, 2.0, 0.0, 1.0];
        let touched = vec![0, 1, 2, 4];
        for k in 0..=5 {
            assert_eq!(
                rank_top_k(&scores, &touched, k),
                rank_full_sort(&scores, &touched, k),
                "k = {k}"
            );
        }
        let top = rank_top_k(&scores, &touched, 3);
        assert_eq!(
            top,
            vec![(PageId(0), 2.0), (PageId(2), 2.0), (PageId(1), 1.0)]
        );
    }

    /// Merging per-shard top-k lists equals ranking the union — the
    /// scatter-gather exactness argument, exercised on ties.
    #[test]
    fn merge_topk_equals_ranking_the_union() {
        // Global scores with cross-shard ties (pages 0/2 tie at 2.0,
        // pages 1/4 tie at 1.0) split over three "shards", one empty.
        let scores = vec![2.0, 1.0, 2.0, 0.5, 1.0, 3.0];
        let all: Vec<u32> = (0..scores.len() as u32).collect();
        let shards: [&[u32]; 3] = [&[0, 3], &[], &[1, 2, 4, 5]];
        for k in 0..=scores.len() + 1 {
            let locals = shards
                .iter()
                .map(|pages| rank_top_k(&scores, pages, k))
                .collect::<Vec<_>>();
            assert_eq!(
                merge_topk(locals, k),
                rank_top_k(&scores, &all, k),
                "k = {k}"
            );
        }
    }

    /// A test-only base: page `i` of `n_docs` holds term `"alpha"` when
    /// `i % step == 0` (tf 1 + i % 3) and term `"beta"` when `i % 5 == 0`,
    /// and the walk panics on reaching posting number `panic_at`.
    #[derive(Debug)]
    struct Synthetic {
        n_docs: usize,
        step: usize,
        panic_at: Option<usize>,
    }

    impl Synthetic {
        fn pages(&self, tid: u32) -> Vec<u32> {
            let every = if tid == 0 { self.step } else { 5 };
            (0..self.n_docs as u32).step_by(every).collect()
        }
    }

    impl BaseCorpus for Synthetic {
        fn n_docs(&self) -> usize {
            self.n_docs
        }
        fn term_id(&self, term: &str) -> Option<u32> {
            ["alpha", "beta"]
                .iter()
                .position(|t| *t == term)
                .map(|i| i as u32)
        }
        fn n_terms(&self) -> usize {
            2
        }
        fn postings_len(&self, tid: u32) -> usize {
            self.pages(tid).len()
        }
        fn for_each_posting(&self, tid: u32, visit: &mut dyn FnMut(u32, f32)) {
            for (j, page) in self.pages(tid).into_iter().enumerate() {
                if self.panic_at == Some(j) {
                    panic!("posting walk failed mid-query");
                }
                visit(page, 1.0 + (page % 3) as f32);
            }
        }
        fn doc_len_of(&self, doc: usize) -> f64 {
            4.0 + (doc % 7) as f64
        }
        fn page_fields(&self, _: PageId) -> crate::backend::PageFields<'_> {
            crate::backend::PageFields {
                url: "",
                title: "",
                body: "",
            }
        }
    }

    fn stats_of(src: &Synthetic) -> Stats<'static> {
        let total: f64 = (0..src.n_docs).map(|d| src.doc_len_of(d)).sum();
        Stats::local(src.n_docs, total / src.n_docs as f64)
    }

    /// The reference: a fresh accumulator, never used before.
    fn fresh(src: &Synthetic, query: &str, k: usize) -> Vec<(PageId, f64)> {
        let mut acc = Accumulator::default();
        accumulate(src as &dyn BaseCorpus, stats_of(src), query, &mut acc);
        acc.top_k(k)
    }

    fn bits(hits: &[(PageId, f64)]) -> Vec<(u32, u64)> {
        hits.iter().map(|&(p, s)| (p.0, s.to_bits())).collect()
    }

    #[test]
    fn scratch_reuse_across_collection_sizes_matches_a_fresh_accumulator() {
        let sizes = [5000, 40, 1, 3000, 7, 5000];
        for (round, &n_docs) in sizes.iter().enumerate() {
            let src = Synthetic {
                n_docs,
                step: 2 + round % 3,
                panic_at: None,
            };
            assert!(!fresh(&src, "alpha", 10).is_empty());
            for query in ["alpha", "beta alpha", "alpha alpha beta", "absent", ""] {
                for k in [1, 10, 10_000] {
                    let got = search(&src as &dyn BaseCorpus, stats_of(&src), query, k);
                    assert_eq!(
                        bits(&got),
                        bits(&fresh(&src, query, k)),
                        "{n_docs} docs, {query:?}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panic_mid_walk_leaks_nothing_into_the_next_query() {
        let big = Synthetic {
            n_docs: 2000,
            step: 1,
            panic_at: Some(1500),
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            search(&big as &dyn BaseCorpus, stats_of(&big), "beta alpha", 10)
        }));
        assert!(caught.is_err(), "the walk must have panicked");
        // The thread's scratch now holds a partial query's scores; the
        // next query on this thread — smaller collection, overlapping
        // pages — must not see them.
        for n_docs in [2000, 300] {
            let next = Synthetic {
                n_docs,
                step: 3,
                panic_at: None,
            };
            for query in ["alpha", "beta", "alpha beta"] {
                let got = search(&next as &dyn BaseCorpus, stats_of(&next), query, 50);
                assert_eq!(bits(&got), bits(&fresh(&next, query, 50)), "{query:?}");
            }
        }
        // Scratch is still usable (the borrow was released on unwind).
        with_scratch(|acc| {
            acc.reset(3);
            assert!(acc.touched.is_empty());
        });
    }

    #[test]
    fn zero_contributions_never_list_a_page_twice() {
        let mut acc = Accumulator::default();
        acc.reset(4);
        acc.add(2, 0.0);
        acc.add(2, 1.5);
        acc.add(2, 0.0);
        acc.add(2, 0.5);
        acc.add(1, 0.0);
        assert_eq!(acc.touched, vec![2]);
        assert_eq!(acc.top_k(10), vec![(PageId(2), 2.0)]);
    }

    #[test]
    fn merge_topk_orders_nan_like_the_single_node_paths() {
        let a = vec![(PageId(4), f64::NAN), (PageId(7), 1.0)];
        let b = vec![(PageId(2), f64::NAN), (PageId(9), 2.0)];
        let merged = merge_topk([a, b], 3);
        let ids: Vec<u32> = merged.iter().map(|(p, _)| p.0).collect();
        // NaN ranks above every finite score under total_cmp; NaN ties
        // break by ascending page id.
        assert_eq!(ids, vec![2, 4, 9]);
    }
}
