//! Snippet clustering — the paper's proposed general solution to query
//! ambiguity (§5.2):
//!
//! > "A more general solution to the ambiguity problem would be clustering
//! > the results returned by the search engine and classify separately the
//! > snippets that belong to the different clusters. We do not explore
//! > this point in this paper, which we leave for future work."
//!
//! Implemented here as an optional annotation mode: the top-k snippets are
//! clustered by cosine similarity (single-pass leader clustering with mean
//! centroids — deterministic, order-stable), each cluster is classified
//! separately, and the cell is annotated from its most coherent cluster.
//! For an ambiguous name like "Melisse" (restaurant + jazz label), the two
//! senses fall into different clusters; the plain majority rule would see
//! a 5/5 split and abstain, while the clustered rule recovers the
//! restaurant sense from its own cluster.

use teda_kb::EntityType;
use teda_text::similarity::cosine;
use teda_text::SparseVector;

/// Parameters of the clustering annotation mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Minimum cosine similarity to a cluster centroid for membership.
    pub similarity_threshold: f64,
    /// Minimum fraction of the *requested* k a winning cluster's agreeing
    /// votes must reach (the clustered counterpart of the `> k/2` rule;
    /// lower because a sense owns only part of the result list).
    pub min_votes_frac: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            similarity_threshold: 0.15,
            min_votes_frac: 0.3,
        }
    }
}

/// A cluster of snippet indices with its running mean centroid.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Indices into the input snippet list.
    pub members: Vec<usize>,
    centroid_sum: Vec<(u32, f64)>,
}

impl Cluster {
    fn new(idx: usize, v: &SparseVector) -> Self {
        Cluster {
            members: vec![idx],
            centroid_sum: v.entries().to_vec(),
        }
    }

    /// The mean centroid as a sparse vector.
    pub fn centroid(&self) -> SparseVector {
        let n = self.members.len() as f64;
        SparseVector::from_pairs(
            self.centroid_sum
                .iter()
                .map(|&(id, w)| (id, w / n))
                .collect(),
        )
    }

    fn add(&mut self, idx: usize, v: &SparseVector) {
        self.members.push(idx);
        // merge the sums (both sorted by id)
        let merged = SparseVector::from_pairs(
            self.centroid_sum
                .iter()
                .copied()
                .chain(v.entries().iter().copied())
                .collect(),
        );
        self.centroid_sum = merged.entries().to_vec();
    }
}

/// Single-pass leader clustering over snippet vectors. Deterministic:
/// input order decides leaders, ties go to the earliest cluster.
pub fn cluster_snippets(vectors: &[SparseVector], config: ClusterConfig) -> Vec<Cluster> {
    let mut clusters: Vec<Cluster> = Vec::new();
    for (i, v) in vectors.iter().enumerate() {
        if v.is_empty() {
            continue; // stopword-only snippets join nothing
        }
        let mut best: Option<(usize, f64)> = None;
        for (ci, c) in clusters.iter().enumerate() {
            let sim = cosine(&c.centroid(), v);
            if sim >= config.similarity_threshold && best.is_none_or(|(_, b)| sim > b) {
                best = Some((ci, sim));
            }
        }
        match best {
            Some((ci, _)) => clusters[ci].add(i, v),
            None => clusters.push(Cluster::new(i, v)),
        }
    }
    clusters
}

/// The clustered voting rule: classify each snippet, group votes by
/// cluster, and return the best (type, votes) over clusters — the cell's
/// annotation candidate. `snippet_types[i]` is the classifier's output for
/// snippet `i` (`None` = no vote).
pub fn best_cluster_vote(
    clusters: &[Cluster],
    snippet_types: &[Option<EntityType>],
) -> Option<(EntityType, usize)> {
    let mut best: Option<(EntityType, usize)> = None;
    for c in clusters {
        // Tallies indexed by the `EntityType` discriminant.
        let mut counts = [0usize; EntityType::ALL.len()];
        for &i in &c.members {
            if let Some(t) = snippet_types.get(i).copied().flatten() {
                counts[t as usize] += 1;
            }
        }
        for (&t, &votes) in EntityType::ALL.iter().zip(&counts) {
            // strict majority *within* the cluster keeps mixed clusters out
            if votes * 2 <= c.members.len() {
                continue;
            }
            if best.is_none_or(|(bt, bv)| votes > bv || (votes == bv && t < bt)) {
                best = Some((t, votes));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use teda_text::FeatureExtractor;

    fn vectors(texts: &[&str]) -> (Vec<SparseVector>, FeatureExtractor) {
        let mut fx = FeatureExtractor::new();
        let vs = texts.iter().map(|t| fx.fit_transform(t)).collect();
        (vs, fx)
    }

    #[test]
    fn two_senses_form_two_clusters() {
        let (vs, _) = vectors(&[
            "menu cuisine dining chef tasting",
            "cuisine menu wine dinner chef",
            "menu dining chef cuisine wine",
            "jazz records quartet saxophone sessions",
            "jazz vinyl recordings quartet sessions",
        ]);
        let clusters = cluster_snippets(&vs, ClusterConfig::default());
        assert_eq!(clusters.len(), 2, "{clusters:?}");
        assert_eq!(clusters[0].members, vec![0, 1, 2]);
        assert_eq!(clusters[1].members, vec![3, 4]);
    }

    #[test]
    fn empty_vectors_are_skipped() {
        let (mut vs, _) = vectors(&["menu cuisine"]);
        vs.push(SparseVector::default());
        let clusters = cluster_snippets(&vs, ClusterConfig::default());
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn singleton_inputs_yield_singleton_clusters() {
        let (vs, _) = vectors(&["menu cuisine", "jazz quartet", "campus faculty"]);
        let clusters = cluster_snippets(&vs, ClusterConfig::default());
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn centroid_is_the_mean() {
        let (vs, _) = vectors(&["menu menu", "menu menu"]);
        let clusters = cluster_snippets(&vs, ClusterConfig::default());
        assert_eq!(clusters.len(), 1);
        let c = clusters[0].centroid();
        // both snippets are the unit vector on "menu" → mean weight 1.0
        assert!((c.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_cluster_vote_recovers_the_split_sense() {
        use EntityType::{JazzLabel, Restaurant};
        let (vs, _) = vectors(&[
            "menu cuisine dining chef",
            "cuisine menu chef wine",
            "menu chef dining wine",
            "jazz records quartet saxophone",
            "jazz vinyl quartet sessions",
        ]);
        let clusters = cluster_snippets(&vs, ClusterConfig::default());
        let types = vec![
            Some(Restaurant),
            Some(Restaurant),
            Some(Restaurant),
            Some(JazzLabel),
            Some(JazzLabel),
        ];
        // 3/5 restaurant would fail the plain > k/2 rule at k = 10, but
        // the restaurant cluster is pure and biggest.
        let best = best_cluster_vote(&clusters, &types);
        assert_eq!(best, Some((Restaurant, 3)));
    }

    #[test]
    fn mixed_clusters_do_not_vote() {
        use EntityType::{Museum, Theatre};
        let (vs, _) = vectors(&["stage gallery words", "stage gallery words"]);
        let clusters = cluster_snippets(&vs, ClusterConfig::default());
        assert_eq!(clusters.len(), 1);
        let types = vec![Some(Museum), Some(Theatre)];
        // 1 vote each in a 2-member cluster: no strict majority
        assert_eq!(best_cluster_vote(&clusters, &types), None);
    }

    #[test]
    fn no_votes_no_annotation() {
        let (vs, _) = vectors(&["menu cuisine"]);
        let clusters = cluster_snippets(&vs, ClusterConfig::default());
        assert_eq!(best_cluster_vote(&clusters, &[None]), None);
    }
}
