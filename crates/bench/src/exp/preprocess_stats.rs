//! §5.1 quantified — how many search queries pre-processing saves.
//!
//! The paper motivates the pre-processing step by cost: "querying a Web
//! search engine is a costly operation … it is not a good idea to submit a
//! query for every cell of the table". This experiment audits the 40-table
//! benchmark: per skip rule, how many cells are ruled out, and what the
//! query bill would be without the step.

use std::collections::BTreeMap;

use teda_core::config::AnnotatorConfig;
use teda_core::preprocess::{preprocess, SkipReason};
use teda_simkit::tablefmt::{Align, TextTable};
use teda_tabular::ValueKind;

use crate::harness::Fixture;

/// The audit result.
#[derive(Debug, Clone)]
pub struct PreprocessStats {
    /// Total cells across the benchmark.
    pub total_cells: usize,
    /// Cells surviving to the annotation step.
    pub candidates: usize,
    /// Skip counts per reason label.
    pub by_reason: BTreeMap<String, usize>,
}

impl PreprocessStats {
    /// Fraction of queries saved by §5.1.
    pub fn saving(&self) -> f64 {
        if self.total_cells == 0 {
            return 0.0;
        }
        1.0 - self.candidates as f64 / self.total_cells as f64
    }
}

fn reason_label(r: SkipReason) -> String {
    match r {
        SkipReason::ColumnType(t) => format!("GFT column type: {t}"),
        SkipReason::Pattern(ValueKind::Phone) => "pattern: phone".into(),
        SkipReason::Pattern(ValueKind::Url) => "pattern: URL".into(),
        SkipReason::Pattern(ValueKind::Email) => "pattern: email".into(),
        SkipReason::Pattern(ValueKind::Number) => "pattern: number".into(),
        SkipReason::Pattern(ValueKind::Coordinates) => "pattern: coordinates".into(),
        SkipReason::Pattern(ValueKind::Date) => "pattern: date".into(),
        SkipReason::Pattern(ValueKind::Address) => "pattern: address".into(),
        SkipReason::Pattern(k) => format!("pattern: {k:?}"),
        SkipReason::TooLong { .. } => "verbose description".into(),
        SkipReason::Empty => "empty cell".into(),
    }
}

/// Runs the audit over the benchmark tables.
pub fn run(fixture: &Fixture) -> PreprocessStats {
    let config = AnnotatorConfig::default();
    let mut by_reason: BTreeMap<String, usize> = BTreeMap::new();
    let mut total_cells = 0usize;
    let mut candidates = 0usize;
    for gold in &fixture.benchmark.tables {
        let pre = preprocess(&gold.table, &config);
        total_cells += gold.table.n_rows() * gold.table.n_cols();
        candidates += pre.candidates.len();
        for (_, reason) in pre.skipped {
            *by_reason.entry(reason_label(reason)).or_insert(0) += 1;
        }
    }
    PreprocessStats {
        total_cells,
        candidates,
        by_reason,
    }
}

/// Renders the audit.
pub fn render(s: &PreprocessStats) -> String {
    let mut out = String::from("Pre-processing audit (§5.1) over the 40-table benchmark.\n");
    let mut tbl = TextTable::new(vec!["Skip rule", "cells"]);
    tbl.align(0, Align::Left);
    for (reason, n) in &s.by_reason {
        tbl.row(vec![reason.clone(), n.to_string()]);
    }
    tbl.separator();
    tbl.row(vec![
        "(candidates — queried)".into(),
        s.candidates.to_string(),
    ]);
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "\n{} of {} cells ruled out: {:.0}% of search queries saved\n",
        s.total_cells - s.candidates,
        s.total_cells,
        s.saving() * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::quick_fixture;

    #[test]
    fn preprocessing_saves_most_queries() {
        let fixture = quick_fixture();
        let s = run(fixture);
        assert!(
            s.saving() > 0.5,
            "POI-heavy tables should skip most cells: {}",
            s.saving()
        );
        // the headline rules all fire somewhere in the benchmark
        for needle in [
            "GFT column type",
            "pattern: phone",
            "pattern: URL",
            "verbose",
        ] {
            assert!(
                s.by_reason.keys().any(|k| k.contains(needle)),
                "no cells skipped by {needle}: {:?}",
                s.by_reason.keys().collect::<Vec<_>>()
            );
        }
        assert!(render(&s).contains("queries saved"));
    }
}
