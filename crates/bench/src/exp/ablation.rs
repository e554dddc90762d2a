//! Extension ablations — design choices the paper leaves open, measured:
//!
//! 1. **Reject class** — the paper trains over Γ only (§5.2.1); this
//!    repository can optionally add an `Other` class harvested from
//!    distractor types. How much precision does it buy each classifier?
//! 2. **Snippet clustering** (§5.2 future work) — does clustering recover
//!    ambiguous names the plain majority rule abstains on?
//! 3. **Kernel** — the paper's RBF C-SVC (SMO) vs. the linear Pegasos
//!    used at scale, trained on a size-capped corpus, compared end to end.

use teda_classifier::naive_bayes::NaiveBayesConfig;
use teda_classifier::svm::pegasos::PegasosConfig;
use teda_classifier::svm::smo::SmoConfig;
use teda_classifier::Prf;
use teda_core::config::AnnotatorConfig;
use teda_core::trainer::{
    harvest, train_bayes, train_svm_linear, train_svm_rbf, TrainerConfig, TrainingCorpus,
};
use teda_kb::EntityType;
use teda_simkit::tablefmt::{f2, Align, TextTable};

use crate::exp::table2::subsample_per_class;
use crate::harness::{run_method, Fixture};

/// The ablation report.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// (label, micro PRF over the benchmark) per variant.
    pub variants: Vec<(String, Prf)>,
    /// People-type recall without / with clustering.
    pub people_recall_plain: f64,
    pub people_recall_clustered: f64,
}

/// Runs all three ablations over the fixture's benchmark.
pub fn run(fixture: &Fixture) -> Ablation {
    let tables = &fixture.benchmark.tables;
    let mut variants: Vec<(String, Prf)> = Vec::new();

    // --- 1. reject-class ablation ---------------------------------------
    let with_other = harvest(
        &fixture.world,
        &fixture.net,
        fixture.engine.as_ref(),
        &EntityType::TARGETS,
        TrainerConfig {
            max_entities_per_type: Some(80),
            include_other_class: true,
            seed: fixture.seed,
            ..TrainerConfig::default()
        },
    );

    let mut eval = |label: &str, classifier: teda_core::model::SnippetClassifier| {
        let annotator = fixture.annotator(classifier, AnnotatorConfig::default());
        let out = run_method(tables, |t| annotator.annotate_table(&t.table).cells);
        variants.push((label.to_owned(), out.micro_prf()));
    };

    eval("SVM closed-Γ (paper)", fixture.svm.clone());
    eval(
        "SVM + Other class",
        train_svm_linear(&with_other, PegasosConfig::default()),
    );
    eval("Bayes closed-Γ (paper)", fixture.bayes.clone());
    eval(
        "Bayes + Other class",
        train_bayes(&with_other, NaiveBayesConfig::snippet_default()),
    );

    // --- 3. kernel ablation (capped corpus so SMO stays tractable) ------
    let capped = TrainingCorpus {
        train: subsample_per_class(&fixture.corpus.train, 40, fixture.seed),
        test: fixture.corpus.test.clone(),
        labels: fixture.corpus.labels.clone(),
        extractor: fixture.corpus.extractor.clone(),
        stats: fixture.corpus.stats.clone(),
    };
    eval(
        "SVM linear (capped 40/class)",
        train_svm_linear(&capped, PegasosConfig::default()),
    );
    eval(
        "SVM RBF C=8 γ=8 (capped 40/class)",
        train_svm_rbf(&capped, SmoConfig::default()),
    );

    // --- 2. clustering ablation on the people tables --------------------
    let people_tables: Vec<_> = tables
        .iter()
        .filter(|t| {
            t.entries.iter().any(|e| {
                matches!(
                    e.etype,
                    EntityType::Actor | EntityType::Singer | EntityType::Scientist
                )
            })
        })
        .cloned()
        .collect();
    let recall_of = |use_clustering: bool| {
        let annotator = fixture.annotator(
            fixture.svm.clone(),
            AnnotatorConfig {
                use_clustering,
                ..AnnotatorConfig::default()
            },
        );
        let out = run_method(&people_tables, |t| annotator.annotate_table(&t.table).cells);
        let prfs: Vec<Prf> = [EntityType::Actor, EntityType::Singer, EntityType::Scientist]
            .iter()
            .map(|&t| out.prf(t))
            .collect();
        Prf::mean(&prfs).recall
    };
    let people_recall_plain = recall_of(false);
    let people_recall_clustered = recall_of(true);

    Ablation {
        variants,
        people_recall_plain,
        people_recall_clustered,
    }
}

/// Renders the ablation report.
pub fn render(a: &Ablation) -> String {
    let mut out = String::from("Extension ablations (beyond the paper's evaluation).\n");
    let mut tbl = TextTable::new(vec!["Variant", "P", "R", "F"]);
    tbl.align(0, Align::Left);
    for (label, prf) in &a.variants {
        tbl.row(vec![
            label.clone(),
            f2(prf.precision),
            f2(prf.recall),
            f2(prf.f1),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "\nClustering (people types, mean recall): plain {:.2} -> clustered {:.2}\n",
        a.people_recall_plain, a.people_recall_clustered
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::quick_fixture;

    #[test]
    fn ablation_runs_and_orders_sensibly() {
        let fixture = quick_fixture();
        let a = run(fixture);
        assert_eq!(a.variants.len(), 6);
        // Adding a reject class must not hurt precision for either model.
        let get = |label: &str| {
            a.variants
                .iter()
                .find(|(l, _)| l.starts_with(label))
                .map(|(_, p)| *p)
                .unwrap()
        };
        let bayes_closed = get("Bayes closed");
        let bayes_other = get("Bayes + Other");
        assert!(
            bayes_other.precision >= bayes_closed.precision - 0.05,
            "reject class should protect Bayes precision: {} vs {}",
            bayes_other.precision,
            bayes_closed.precision
        );
        // Clustering must not reduce people recall.
        assert!(
            a.people_recall_clustered >= a.people_recall_plain - 0.02,
            "clustering hurt recall: {} -> {}",
            a.people_recall_plain,
            a.people_recall_clustered
        );
        assert!(render(&a).contains("Clustering"));
    }
}
