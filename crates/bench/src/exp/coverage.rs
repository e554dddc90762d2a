//! §1 — the catalogue-coverage statistic.
//!
//! "We verified that only 22% of the entities in our dataset of tables are
//! actually represented in either Yago, DBpedia or Freebase." The fixture
//! samples its catalogue at 22% per type; this experiment audits the
//! coverage actually observed over the benchmark's gold mentions.

use teda_kb::EntityType;
use teda_simkit::tablefmt::{Align, TextTable};

use crate::harness::Fixture;

/// Coverage per type and overall.
#[derive(Debug, Clone)]
pub struct Coverage {
    pub per_type: Vec<(EntityType, f64, usize)>,
    /// Fraction of all gold mentions whose entity is catalogued.
    pub overall: f64,
}

/// Computes the audit.
pub fn run(fixture: &Fixture) -> Coverage {
    let mut per_type = Vec::new();
    let mut known = 0usize;
    let mut total = 0usize;
    for etype in EntityType::TARGETS {
        let mut t_known = 0usize;
        let mut t_total = 0usize;
        for table in &fixture.benchmark.tables {
            for e in table.entries_of(etype) {
                t_total += 1;
                // Identity-based check: a mention counts as catalogued
                // only if *this* entity is in the catalogue — an
                // uncatalogued actor borrowing a catalogued singer's name
                // must not count (name collisions would inflate coverage
                // by several points).
                let known = fixture
                    .catalogue
                    .lookup(&fixture.world.entity(e.entity).name)
                    .iter()
                    .any(|&(id, _)| id == e.entity);
                if known {
                    t_known += 1;
                }
            }
        }
        known += t_known;
        total += t_total;
        let frac = if t_total == 0 {
            0.0
        } else {
            t_known as f64 / t_total as f64
        };
        per_type.push((etype, frac, t_total));
    }
    Coverage {
        per_type,
        overall: known as f64 / total as f64,
    }
}

/// Renders the audit.
pub fn render(c: &Coverage) -> String {
    let mut out = String::from("Catalogue coverage of benchmark mentions (§1).\n");
    let mut tbl = TextTable::new(vec!["Type", "mentions", "catalogued"]);
    tbl.align(0, Align::Left);
    for (etype, frac, total) in &c.per_type {
        tbl.row(vec![
            etype.display().to_owned(),
            total.to_string(),
            format!("{:.0}%", frac * 100.0),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "\nOverall: {:.1}% of mentions are catalogued (paper: 22%)\n",
        c.overall * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::quick_fixture;

    #[test]
    fn coverage_lands_near_the_papers_22_percent() {
        let fixture = quick_fixture();
        let c = run(fixture);
        assert!(
            (0.12..=0.32).contains(&c.overall),
            "coverage {} too far from 0.22",
            c.overall
        );
        assert_eq!(c.per_type.len(), 12);
        // mention totals match the paper's dataset statistics
        let restaurants = c
            .per_type
            .iter()
            .find(|(t, _, _)| *t == EntityType::Restaurant)
            .unwrap();
        assert_eq!(restaurants.2, 287);
        assert!(render(&c).contains("22%"));
    }
}
