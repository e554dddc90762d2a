//! Table 1 — P/R/F of the algorithm (SVM, Bayes) and the baselines
//! (TIN, TIS) over the 40-table benchmark, per type, with the paper's
//! per-category AVERAGE rows.
//!
//! Settings as in the paper: k = 10, post-processing ON, disambiguation
//! OFF ("at this point we did not use the disambiguation procedure").

use teda_classifier::Prf;
use teda_core::baselines::{tin_annotate, tis_annotate};
use teda_core::config::AnnotatorConfig;
use teda_core::preprocess::preprocess;
use teda_kb::{EntityType, TypeCategory};
use teda_simkit::tablefmt::{f2, Align, TextTable};

use crate::harness::{run_method, Fixture, RunOutput};

/// One row of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    pub etype: EntityType,
    pub svm: Prf,
    pub bayes: Prf,
    pub tin: Prf,
    pub tis: Prf,
}

/// The full Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1 {
    pub rows: Vec<Table1Row>,
    pub averages: Vec<(TypeCategory, Table1Row)>,
}

/// Runs all four methods over the benchmark.
pub fn run(fixture: &Fixture) -> Table1 {
    let tables = &fixture.benchmark.tables;
    let config = AnnotatorConfig::default();

    let svm = fixture.svm_annotator(true, false);
    let svm_out = run_method(tables, |t| svm.annotate_table(&t.table).cells);

    let bayes = fixture.bayes_annotator(true);
    let bayes_out = run_method(tables, |t| bayes.annotate_table(&t.table).cells);

    let tin_out = run_method(tables, |t| {
        let pre = preprocess(&t.table, &config);
        tin_annotate(&t.table, &pre.candidates, &config.targets)
    });

    let engine = fixture.engine.clone();
    let tis_out = run_method(tables, |t| {
        let pre = preprocess(&t.table, &config);
        tis_annotate(
            &t.table,
            &pre.candidates,
            engine.as_ref(),
            &config.targets,
            &config,
        )
    });

    assemble(&svm_out, &bayes_out, &tin_out, &tis_out)
}

fn assemble(svm: &RunOutput, bayes: &RunOutput, tin: &RunOutput, tis: &RunOutput) -> Table1 {
    let rows: Vec<Table1Row> = EntityType::TARGETS
        .iter()
        .map(|&etype| Table1Row {
            etype,
            svm: svm.prf(etype),
            bayes: bayes.prf(etype),
            tin: tin.prf(etype),
            tis: tis.prf(etype),
        })
        .collect();
    let averages = [
        TypeCategory::Poi,
        TypeCategory::People,
        TypeCategory::Cinema,
    ]
    .into_iter()
    .map(|cat| {
        let of = |sel: fn(&Table1Row) -> Prf| {
            Prf::mean(
                &rows
                    .iter()
                    .filter(|r| r.etype.category() == cat)
                    .map(sel)
                    .collect::<Vec<_>>(),
            )
        };
        (
            cat,
            Table1Row {
                etype: EntityType::Restaurant, // placeholder, unused for averages
                svm: of(|r| r.svm),
                bayes: of(|r| r.bayes),
                tin: of(|r| r.tin),
                tis: of(|r| r.tis),
            },
        )
    })
    .collect();
    Table1 { rows, averages }
}

/// Renders the paper-style table.
pub fn render(t: &Table1) -> String {
    let mut out = String::from("Table 1: Evaluation of the algorithm.\n");
    let mut tbl = TextTable::new(vec![
        "Type", "SVM P", "R", "F", "Bayes P", "R", "F", "TIN P", "R", "F", "TIS P", "R", "F",
    ]);
    tbl.align(0, Align::Left);
    let push = |label: String, r: &Table1Row, tbl: &mut TextTable| {
        tbl.row(vec![
            label,
            f2(r.svm.precision),
            f2(r.svm.recall),
            f2(r.svm.f1),
            f2(r.bayes.precision),
            f2(r.bayes.recall),
            f2(r.bayes.f1),
            f2(r.tin.precision),
            f2(r.tin.recall),
            f2(r.tin.f1),
            f2(r.tis.precision),
            f2(r.tis.recall),
            f2(r.tis.f1),
        ]);
    };
    let mut last_cat = None;
    for row in &t.rows {
        let cat = row.etype.category();
        if last_cat.is_some() && last_cat != Some(cat) {
            if let Some((_, avg)) = t.averages.iter().find(|(c, _)| Some(*c) == last_cat) {
                push("AVERAGE".into(), avg, &mut tbl);
                tbl.separator();
            }
        }
        push(row.etype.display().to_owned(), row, &mut tbl);
        last_cat = Some(cat);
    }
    if let Some((_, avg)) = t.averages.iter().find(|(c, _)| Some(*c) == last_cat) {
        push("AVERAGE".into(), avg, &mut tbl);
    }
    out.push_str(&tbl.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::quick_fixture;

    #[test]
    fn table1_runs_on_quick_fixture_with_paper_shape() {
        let fixture = quick_fixture();
        let t1 = run(fixture);
        assert_eq!(t1.rows.len(), 12);
        assert_eq!(t1.averages.len(), 3);

        let poi_avg = &t1.averages[0].1;
        // Core shape claims (quick fixture, loose bounds):
        // 1. the full algorithm with SVM substantially beats TIN/TIS on F.
        assert!(
            poi_avg.svm.f1 > poi_avg.tin.f1,
            "SVM {} vs TIN {}",
            poi_avg.svm.f1,
            poi_avg.tin.f1
        );
        // 2. TIN/TIS are zero on people types (names/snippets lack the
        //    literal type word).
        let people_avg = &t1.averages[1].1;
        assert!(people_avg.tin.f1 < 0.05, "TIN people {}", people_avg.tin.f1);
        let render = render(&t1);
        assert!(render.contains("Restaurants"));
        assert!(render.contains("AVERAGE"));
    }
}
