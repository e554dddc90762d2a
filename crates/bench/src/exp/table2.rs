//! Table 2 — training/test corpus sizes and classifier quality per type,
//! plus the Hsu–Chang–Lin grid-search reproduction (§6.1).
//!
//! The paper reports |TR| up to ~45,000 snippets per type against real
//! DBpedia + Bing; the synthetic fixture harvests proportionally smaller
//! corpora (documented in EXPERIMENTS.md). What must reproduce is the
//! *shape*: high test F for both classifiers with SVM ≥ Bayes, and the
//! grid search landing on a high-accuracy (C, γ) cell.

use teda_classifier::grid::{GridSearch, GridSearchResult};
use teda_classifier::{Dataset, Prf};
use teda_core::trainer::test_prf;
use teda_kb::EntityType;
use teda_simkit::tablefmt::{f2, Align, TextTable};

use crate::harness::Fixture;

/// One row of Table 2.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    pub etype: EntityType,
    pub n_train: usize,
    pub n_test: usize,
    pub bayes_f: f64,
    pub svm_f: f64,
}

/// The Table 2 result plus the grid-search block.
#[derive(Debug, Clone)]
pub struct Table2 {
    pub rows: Vec<Table2Row>,
    pub grid: GridSearchResult,
}

/// Computes Table 2 from the fixture's harvested corpus and classifiers.
pub fn run(fixture: &Fixture) -> Table2 {
    let bayes_prf = test_prf(&fixture.corpus, fixture.bayes.model());
    let svm_prf = test_prf(&fixture.corpus, fixture.svm.model());

    let rows = fixture
        .corpus
        .stats
        .iter()
        .map(|s| {
            let f_of = |prfs: &[(EntityType, Prf)]| {
                prfs.iter()
                    .find(|(t, _)| *t == s.etype)
                    .map(|(_, p)| p.f1)
                    .unwrap_or(0.0)
            };
            Table2Row {
                etype: s.etype,
                n_train: s.n_train,
                n_test: s.n_test,
                bayes_f: f_of(&bayes_prf),
                svm_f: f_of(&svm_prf),
            }
        })
        .collect();

    // Grid search on a stratified subsample (SMO is quadratic; the paper
    // used LibSVM over the full corpora on a 2013 desktop for ~2 hours),
    // with the paper's 10-fold cross-validation.
    let sub = subsample_per_class(&fixture.corpus.train, 25, fixture.seed);
    let grid = GridSearch {
        folds: 10,
        ..GridSearch::small_grid()
    }
    .run(&sub);

    Table2 { rows, grid }
}

/// Takes up to `per_class` examples of each class (deterministic).
pub fn subsample_per_class(data: &Dataset, per_class: usize, _seed: u64) -> Dataset {
    let mut taken = vec![0usize; data.n_classes()];
    let mut idx = Vec::new();
    for i in 0..data.len() {
        let y = data.ys()[i];
        if taken[y] < per_class {
            taken[y] += 1;
            idx.push(i);
        }
    }
    data.subset(&idx)
}

/// Renders the paper-style table.
pub fn render(t: &Table2) -> String {
    let mut out = String::from("Table 2: Results of the training/test phase.\n");
    let mut tbl = TextTable::new(vec!["Type", "|TR|", "|TE|", "Bayes F", "SVM F"]);
    tbl.align(0, Align::Left);
    for r in &t.rows {
        tbl.row(vec![
            r.etype.display().to_owned(),
            r.n_train.to_string(),
            r.n_test.to_string(),
            f2(r.bayes_f),
            f2(r.svm_f),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "\nGrid search (10-fold CV over a {} point grid): best C = {}, gamma = {}, accuracy = {:.3}\n",
        t.grid.points.len(),
        t.grid.best.c,
        t.grid.best.gamma,
        t.grid.best.accuracy,
    ));
    out.push_str("(paper: grid search with 10-fold CV selected C = 8, gamma = 8)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{quick_fixture, Scale};

    #[test]
    fn table2_has_high_test_f_for_both_classifiers() {
        let fixture = quick_fixture();
        let t2 = run(fixture);
        assert_eq!(t2.rows.len(), 12);
        let mean_svm: f64 = t2.rows.iter().map(|r| r.svm_f).sum::<f64>() / 12.0;
        let mean_bayes: f64 = t2.rows.iter().map(|r| r.bayes_f).sum::<f64>() / 12.0;
        // Table 2 shape: both high; SVM at least on par.
        assert!(mean_bayes > 0.6, "Bayes mean F {mean_bayes}");
        assert!(mean_svm > 0.6, "SVM mean F {mean_svm}");
        assert!(
            mean_svm >= mean_bayes - 0.05,
            "SVM ({mean_svm}) should be ≥ Bayes ({mean_bayes})"
        );
        // grid search found something workable
        assert!(t2.grid.best.accuracy > 0.5);
        assert!(render(&t2).contains("|TR|"));
    }

    #[test]
    fn subsample_caps_classes() {
        let fixture = Fixture::build(Scale::Quick, 43);
        let sub = subsample_per_class(&fixture.corpus.train, 5, 0);
        for (c, &count) in sub.class_counts().iter().enumerate() {
            assert!(count <= 5, "class {c} has {count}");
        }
    }
}
