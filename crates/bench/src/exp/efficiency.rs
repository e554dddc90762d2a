//! §6.4 — efficiency: the running time is dominated by search-engine
//! latency (~0.5 s per row); tables up to ~500 rows stay practical; the
//! catalogue-first hybrid cuts query volume.
//!
//! Timing is on the **virtual clock**: the simulated Bing charges
//! 350–450 ms and the geocoder 90–150 ms per call, so the reported
//! seconds/row mirror the paper's latency accounting while the real CPU
//! time of the local computation is reported alongside.

use std::time::{Duration, Instant};

use teda_core::hybrid::annotate_hybrid;
use teda_corpus::gft::poi_table;
use teda_kb::EntityType;
use teda_simkit::rng_from_seed;
use teda_simkit::tablefmt::{Align, TextTable};

use crate::harness::Fixture;

/// One point of the scaling series.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    pub rows: usize,
    /// Virtual seconds per row (latency-dominated, as in the paper).
    pub virtual_s_per_row: f64,
    /// Real milliseconds per row (local computation only).
    pub real_ms_per_row: f64,
    /// Search queries issued.
    pub queries: u64,
}

/// The efficiency report.
#[derive(Debug, Clone)]
pub struct Efficiency {
    /// Scaling with table size, annotation without disambiguation.
    pub series: Vec<ScalePoint>,
    /// The same 100-row table with spatial disambiguation on.
    pub with_disambiguation: ScalePoint,
    /// Hybrid vs pure-web on the same 100-row table.
    pub pure_web_virtual_s: f64,
    pub hybrid_virtual_s: f64,
    pub hybrid_catalogue_hits: usize,
    /// Memoized re-annotation of the 100-row table through the batch
    /// engine: queries answered from the `(query, k)` cache on the second
    /// pass, and the virtual seconds that pass cost.
    pub cache_hits_on_rerun: u64,
    pub cached_rerun_virtual_s: f64,
}

/// Runs the sweep.
pub fn run(fixture: &Fixture) -> Efficiency {
    let mut rng = rng_from_seed(fixture.seed ^ 0xeff1);
    let sizes = [10usize, 50, 100, 250, 500];

    let mut series = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        let table = poi_table(
            &fixture.world,
            EntityType::Restaurant,
            n,
            0,
            &format!("eff_{n}"),
            &mut rng,
        );
        let annotator = fixture.svm_annotator(true, false);
        series.push(measure(fixture, n, || {
            annotator.annotate_table(&table.table);
        }));
    }

    // Disambiguation adds geocoding calls per row.
    let table100 = poi_table(
        &fixture.world,
        EntityType::Restaurant,
        100,
        0,
        "eff_disambig",
        &mut rng,
    );
    let annotator = fixture.svm_annotator(true, true);
    let with_disambiguation = measure(fixture, 100, || {
        annotator.annotate_table(&table100.table);
    });

    // Hybrid vs pure web on one 100-row table.
    let pure = fixture.svm_annotator(true, false);
    let p = measure(fixture, 100, || {
        pure.annotate_table(&table100.table);
    });
    let hybrid_annotator = fixture.svm_annotator(true, false);
    let mut hits = 0usize;
    let h = measure(fixture, 100, || {
        let (_, stats) = annotate_hybrid(&hybrid_annotator, &table100.table, &fixture.catalogue);
        hits = stats.catalogue_hits;
    });

    // Memoized re-annotation: the batch engine's query cache pays for
    // itself the moment a corpus repeats a cell (here: the same table
    // annotated again — a refresh of an already-served corpus).
    let batch = fixture.svm_annotator(true, false).into_batch();
    batch.annotate_table(&table100.table); // warm pass fills the cache
    let warm_hits = batch.cache_stats().hits;
    let rerun = measure(fixture, 100, || {
        batch.annotate_table(&table100.table);
    });
    let cache_hits_on_rerun = batch.cache_stats().hits - warm_hits;

    Efficiency {
        series,
        with_disambiguation,
        pure_web_virtual_s: p.virtual_s_per_row * 100.0,
        hybrid_virtual_s: h.virtual_s_per_row * 100.0,
        hybrid_catalogue_hits: hits,
        cache_hits_on_rerun,
        cached_rerun_virtual_s: rerun.virtual_s_per_row * 100.0,
    }
}

fn measure<F: FnOnce()>(fixture: &Fixture, rows: usize, f: F) -> ScalePoint {
    let clock0 = fixture.clock.now();
    let queries0 = fixture.engine.query_count();
    let t0 = Instant::now();
    f();
    let real = t0.elapsed();
    let virt = fixture.clock.now().saturating_sub(clock0);
    ScalePoint {
        rows,
        virtual_s_per_row: virt.as_secs_f64() / rows as f64,
        real_ms_per_row: real.as_secs_f64() * 1000.0 / rows as f64,
        queries: fixture.engine.query_count() - queries0,
    }
}

/// Renders the report (the paper's §6.4 narrative as a table + series).
pub fn render(e: &Efficiency) -> String {
    let mut out = String::from("Efficiency (§6.4): virtual latency-dominated cost per row.\n");
    let mut tbl = TextTable::new(vec!["Rows", "virtual s/row", "real ms/row", "queries"]);
    tbl.align(0, Align::Right);
    for p in &e.series {
        tbl.row(vec![
            p.rows.to_string(),
            format!("{:.3}", p.virtual_s_per_row),
            format!("{:.2}", p.real_ms_per_row),
            p.queries.to_string(),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "\nWith disambiguation (100 rows): {:.3} virtual s/row ({} service calls)\n",
        e.with_disambiguation.virtual_s_per_row, e.with_disambiguation.queries,
    ));
    out.push_str(&format!(
        "Hybrid vs pure web (100 rows): {:.1}s vs {:.1}s virtual ({} catalogue hits)\n",
        e.hybrid_virtual_s, e.pure_web_virtual_s, e.hybrid_catalogue_hits,
    ));
    out.push_str(&format!(
        "Memoized re-annotation (100 rows, batch engine): {:.1}s virtual, {} cache hits\n",
        e.cached_rerun_virtual_s, e.cache_hits_on_rerun,
    ));
    out.push_str("(paper: ~0.5 s per row on average; tables up to 500 rows practical)\n");
    out
}

/// The paper's headline number: mean virtual seconds/row across the series.
pub fn mean_s_per_row(e: &Efficiency) -> f64 {
    e.series.iter().map(|p| p.virtual_s_per_row).sum::<f64>() / e.series.len() as f64
}

/// Convenience: duration of the whole series in virtual time.
pub fn total_virtual(e: &Efficiency) -> Duration {
    Duration::from_secs_f64(
        e.series
            .iter()
            .map(|p| p.virtual_s_per_row * p.rows as f64)
            .sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn efficiency_matches_the_papers_narrative() {
        // A private fixture, not the shared one: this test reads the
        // fixture's virtual clock, which concurrent tests would advance.
        let fixture = Fixture::build(Scale::Quick, 42);
        let e = run(&fixture);
        // ~1 query per row at ~0.4s → virtual s/row in the 0.2–0.8 band.
        let mean = mean_s_per_row(&e);
        assert!(
            (0.2..=0.8).contains(&mean),
            "virtual s/row {mean} outside the paper's ballpark"
        );
        // Cost is per-row (linear): s/row roughly flat across sizes.
        let first = e.series.first().unwrap().virtual_s_per_row;
        let last = e.series.last().unwrap().virtual_s_per_row;
        assert!(
            (first - last).abs() / first < 0.5,
            "per-row cost should be ~constant: {first} vs {last}"
        );
        // Disambiguation costs extra (geocoding).
        assert!(e.with_disambiguation.virtual_s_per_row > last * 1.05);
        // Hybrid saves time when the catalogue hits anything.
        if e.hybrid_catalogue_hits > 0 {
            assert!(e.hybrid_virtual_s < e.pure_web_virtual_s);
        }
        // Real CPU time is orders of magnitude below virtual latency.
        assert!(e.series[0].real_ms_per_row < 1000.0);
        // The memoized re-run answers every query from the cache: zero
        // virtual latency, one hit per previously-searched cell.
        assert!(e.cache_hits_on_rerun > 0, "re-run must hit the cache");
        assert_eq!(
            e.cached_rerun_virtual_s, 0.0,
            "cache hits charge no latency"
        );
        assert!(render(&e).contains("cache hits"));
        assert!(render(&e).contains("virtual s/row"));
    }
}
