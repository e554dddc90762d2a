//! The offline pipeline rebuilt from its public step functions, with a
//! span around every call — the traced twin of
//! `BatchAnnotator::annotate_table`. Its output is checked bit for bit
//! against the untraced program on every pass, so the traced program is
//! the measured program.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teda_cluster::ClusterRouter;
use teda_core::annotate::{annotate_from_results, build_cell_query};
use teda_core::postprocess::eliminate_spurious;
use teda_core::preprocess::preprocess;
use teda_core::query::build_spatial_context_cached;
use teda_core::{AnnotatorConfig, QueryCache, SnippetClassifier, TableAnnotations};
use teda_geo::{GeocodeCache, SimGeocoder};
use teda_tabular::infer::infer_column_types;
use teda_tabular::{ColumnType, Table};
use teda_websim::{assemble_results, SearchBackend, SearchEngine, SearchResult, WebCorpus};

use crate::trace::{Layer, Tracer};

/// What the traced engine searches.
#[derive(Clone)]
pub enum Searcher {
    /// One in-process Web: rank and hydrate are timed apart.
    Local(Arc<WebCorpus>),
    /// A scatter/gather cluster: one span per routed search.
    Cluster(Arc<ClusterRouter>),
}

/// A [`SearchEngine`] over a [`Searcher`] that opens a span per layer.
/// It answers exactly what `BingSim` over the same backend answers.
pub struct TimedEngine<'a> {
    pub searcher: &'a Searcher,
    pub tracer: &'a Tracer,
}

impl SearchEngine for TimedEngine<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        match self.searcher {
            Searcher::Local(web) => {
                let hits = self.tracer.time(Layer::Rank, || {
                    SearchBackend::search(web.as_ref(), query, k)
                });
                self.tracer.time(Layer::Hydrate, || {
                    assemble_results(hits, |id| web.page_fields(id))
                })
            }
            Searcher::Cluster(router) => self
                .tracer
                .time(Layer::ClusterSearch, || router.search_results(query, k)),
        }
    }
}

/// Everything one traced table annotation reads.
pub struct Steps<'a> {
    pub engine: TimedEngine<'a>,
    pub classifier: &'a SnippetClassifier,
    pub geocoder: Option<&'a SimGeocoder>,
    pub config: &'a AnnotatorConfig,
    pub cache: &'a QueryCache,
    pub geo_memo: &'a GeocodeCache,
}

/// Per-pass counts the traced run reports beside the span times.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCounts {
    pub skipped: usize,
    pub candidates: usize,
    pub votes: usize,
    pub annotated: usize,
}

impl Steps<'_> {
    /// One table, step by step, in `BatchAnnotator::annotate_table`'s
    /// order.
    pub fn annotate(&self, table: &Table, counts: &mut StepCounts) -> TableAnnotations {
        let tracer = self.engine.tracer;
        let inferred;
        let table = if table.column_types().contains(&ColumnType::Unknown) {
            let mut owned = table.clone();
            infer_column_types(&mut owned);
            inferred = owned;
            &inferred
        } else {
            table
        };
        let pre = tracer.time(Layer::Preprocess, || preprocess(table, self.config));
        let spatial = match (self.config.use_disambiguation, self.geocoder) {
            (true, Some(g)) => Some(tracer.time(Layer::Spatial, || {
                build_spatial_context_cached(table, g, Some(self.geo_memo), self.config)
            })),
            _ => None,
        };
        let mut annotations = Vec::new();
        for &cell in &pre.candidates {
            let query = tracer.time(Layer::Query, || {
                build_cell_query(table, cell, spatial.as_ref())
            });
            if query.trim().is_empty() {
                continue;
            }
            let results = tracer.time(Layer::Cache, || {
                self.cache
                    .get_or_search(&self.engine, &query, self.config.top_k)
            });
            counts.votes += 1;
            let vote = tracer.time(Layer::Vote, || {
                annotate_from_results(&results, cell, self.classifier, self.config)
            });
            annotations.extend(vote);
        }
        counts.skipped += pre.skipped.len();
        counts.candidates += pre.candidates.len();
        counts.annotated += annotations.len();
        let cells = if self.config.use_postprocessing {
            tracer.time(Layer::Postprocess, || {
                eliminate_spurious(table, annotations)
            })
        } else {
            annotations
        };
        TableAnnotations {
            cells,
            skipped_cells: pre.skipped.len(),
            queried_cells: pre.candidates.len(),
        }
    }

    /// Annotates `tables` on `workers` threads pulling the next table
    /// index in turn; results come back in table order.
    pub fn annotate_all(
        &self,
        tables: &[Table],
        workers: usize,
    ) -> (Vec<TableAnnotations>, StepCounts) {
        let next = AtomicUsize::new(0);
        let parts: Vec<(Vec<(usize, TableAnnotations)>, StepCounts)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers.max(1))
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        let mut counts = StepCounts::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(table) = tables.get(i) else { break };
                            done.push((i, self.annotate(table, &mut counts)));
                        }
                        (done, counts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced worker panicked"))
                .collect()
        });
        let mut total = StepCounts::default();
        let mut out: Vec<(usize, TableAnnotations)> = Vec::with_capacity(tables.len());
        for (done, c) in parts {
            out.extend(done);
            total.skipped += c.skipped;
            total.candidates += c.candidates;
            total.votes += c.votes;
            total.annotated += c.annotated;
        }
        out.sort_by_key(|&(i, _)| i);
        (out.into_iter().map(|(_, a)| a).collect(), total)
    }
}

/// Bit-level equality of two annotation results (scores compared by
/// their bits, not by `==`).
pub fn same(a: &TableAnnotations, b: &TableAnnotations) -> bool {
    a.skipped_cells == b.skipped_cells
        && a.queried_cells == b.queried_cells
        && a.cells.len() == b.cells.len()
        && a.cells.iter().zip(&b.cells).all(|(x, y)| {
            x.cell == y.cell
                && x.etype == y.etype
                && x.votes == y.votes
                && x.score.to_bits() == y.score.to_bits()
        })
}
