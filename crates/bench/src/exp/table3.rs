//! Table 3 — the ablation: SVM alone, + post-processing,
//! + post-processing + disambiguation (F-measure per type).
//!
//! As in the paper, the disambiguation column is only populated for POI
//! types with spatial information (all POIs except Mines); other rows
//! print "–".

use teda_kb::{EntityType, TypeCategory};
use teda_simkit::tablefmt::{f2, Align, TextTable};

use crate::harness::{run_method, Fixture};

/// One row of Table 3.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    pub etype: EntityType,
    pub svm_only: f64,
    pub svm_post: f64,
    /// `None` for types without spatial info (printed as "–").
    pub svm_post_disambig: Option<f64>,
}

/// The Table 3 result.
#[derive(Debug, Clone)]
pub struct Table3 {
    pub rows: Vec<Table3Row>,
}

/// Runs the three settings.
pub fn run(fixture: &Fixture) -> Table3 {
    let tables = &fixture.benchmark.tables;

    let plain = fixture.svm_annotator(false, false);
    let plain_out = run_method(tables, |t| plain.annotate_table(&t.table).cells);

    let post = fixture.svm_annotator(true, false);
    let post_out = run_method(tables, |t| post.annotate_table(&t.table).cells);

    let disambig = fixture.svm_annotator(true, true);
    let disambig_out = run_method(tables, |t| disambig.annotate_table(&t.table).cells);

    let rows = EntityType::TARGETS
        .iter()
        .map(|&etype| Table3Row {
            etype,
            svm_only: plain_out.prf(etype).f1,
            svm_post: post_out.prf(etype).f1,
            svm_post_disambig: etype.has_spatial_info().then(|| disambig_out.prf(etype).f1),
        })
        .collect();
    Table3 { rows }
}

/// Renders the paper-style table.
pub fn render(t: &Table3) -> String {
    let mut out = String::from(
        "Table 3: F-measure without postprocessing, with postprocessing,\n\
         and with postprocessing and disambiguation.\n",
    );
    let mut tbl = TextTable::new(vec!["Type", "SVM", "SVM+post", "SVM+post+disambig"]);
    tbl.align(0, Align::Left);
    for r in &t.rows {
        tbl.row(vec![
            r.etype.display().to_owned(),
            f2(r.svm_only),
            f2(r.svm_post),
            r.svm_post_disambig.map(f2).unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&tbl.render());
    out
}

impl Table3 {
    /// Mean F over all types for a setting selector.
    pub fn mean_f<F: Fn(&Table3Row) -> Option<f64>>(&self, sel: F) -> f64 {
        let vals: Vec<f64> = self.rows.iter().filter_map(&sel).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Mean F over POI types that carry spatial info (the disambiguation
    /// comparison set).
    pub fn spatial_mean(&self, with_disambig: bool) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.etype.category() == TypeCategory::Poi && r.etype.has_spatial_info())
            .map(|r| {
                if with_disambig {
                    r.svm_post_disambig.unwrap_or(r.svm_post)
                } else {
                    r.svm_post
                }
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::quick_fixture;

    #[test]
    fn postprocessing_helps_and_mines_have_no_disambig_column() {
        let fixture = quick_fixture();
        let t3 = run(fixture);
        assert_eq!(t3.rows.len(), 12);

        // Table 3's headline: post-processing increases mean F.
        let without = t3.mean_f(|r| Some(r.svm_only));
        let with = t3.mean_f(|r| Some(r.svm_post));
        assert!(
            with >= without,
            "post-processing must not hurt: {without} -> {with}"
        );

        // Mines and non-POI types print "–" (no spatial info).
        let mines = t3
            .rows
            .iter()
            .find(|r| r.etype == EntityType::Mine)
            .unwrap();
        assert!(mines.svm_post_disambig.is_none());
        let actors = t3
            .rows
            .iter()
            .find(|r| r.etype == EntityType::Actor)
            .unwrap();
        assert!(actors.svm_post_disambig.is_none());
        let hotels = t3
            .rows
            .iter()
            .find(|r| r.etype == EntityType::Hotel)
            .unwrap();
        assert!(hotels.svm_post_disambig.is_some());

        let rendered = render(&t3);
        assert!(rendered.contains('-'));
    }
}
