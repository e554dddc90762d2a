//! The shared experiment fixture and evaluation helpers.

use std::sync::Arc;
use std::time::Instant;

use teda_classifier::naive_bayes::NaiveBayesConfig;
use teda_classifier::svm::pegasos::PegasosConfig;
use teda_classifier::Prf;
use teda_core::annotate::CellAnnotation;
use teda_core::config::AnnotatorConfig;
use teda_core::evaluate::{count_type, TypeCounts};
use teda_core::model::SnippetClassifier;
use teda_core::pipeline::Annotator;
use teda_core::trainer::{harvest, train_bayes, train_svm_linear, TrainerConfig, TrainingCorpus};
use teda_corpus::datasets::{gft_benchmark, BenchmarkSet};
use teda_corpus::gold::GoldTable;
use teda_geo::SimGeocoder;
use teda_kb::{Catalogue, CategoryNetwork, EntityType, TypeCategory, World, WorldSpec};
use teda_simkit::{LatencyModel, VirtualClock};
use teda_tabular::CellId;
use teda_websim::{BingSim, WebCorpus, WebCorpusSpec};

use crate::report::log;

/// Everything an experiment needs, built once per process.
pub struct Fixture {
    pub seed: u64,
    pub world: World,
    pub net: CategoryNetwork,
    /// The shape the fixture's Web was built with — experiments that
    /// time a true cold start (`exp_store`) rebuild from this.
    pub web_spec: WebCorpusSpec,
    pub web: Arc<WebCorpus>,
    pub clock: VirtualClock,
    pub engine: Arc<BingSim>,
    pub geocoder: Arc<SimGeocoder>,
    pub catalogue: Catalogue,
    pub benchmark: BenchmarkSet,
    pub corpus: TrainingCorpus,
    pub svm: SnippetClassifier,
    pub bayes: SnippetClassifier,
}

/// Fixture scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full-size: the 40-table benchmark over a 1,680-entity world.
    Standard,
    /// Reduced: for integration tests and smoke runs.
    Quick,
}

impl Fixture {
    /// Builds the fixture at the given scale. Progress goes to stderr.
    pub fn build(scale: Scale, seed: u64) -> Self {
        let t0 = Instant::now();
        let (world_spec, web_spec, trainer_cfg) = match scale {
            Scale::Standard => (
                WorldSpec::default(),
                WebCorpusSpec::default(),
                TrainerConfig {
                    max_entities_per_type: Some(80),
                    seed,
                    ..TrainerConfig::default()
                },
            ),
            Scale::Quick => (
                WorldSpec::tiny(),
                WebCorpusSpec::tiny(),
                TrainerConfig {
                    max_entities_per_type: Some(12),
                    seed,
                    ..TrainerConfig::default()
                },
            ),
        };

        log("fixture", "generating world…");
        let world = World::generate(world_spec, seed);
        let net = CategoryNetwork::build(&world, seed);

        log("fixture", "building web corpus…");
        let web = Arc::new(WebCorpus::build(&world, web_spec, seed));
        let clock = VirtualClock::new();
        let engine = Arc::new(BingSim::new(
            web.clone(),
            clock.clone(),
            LatencyModel::bing_default(),
        ));
        let geocoder = Arc::new(SimGeocoder::new(
            world.gazetteer().clone(),
            clock.clone(),
            LatencyModel::geocoder_default(),
        ));

        let catalogue = Catalogue::sample(&world, 0.22, seed);
        let benchmark = gft_benchmark(&world, seed);

        log("fixture", "harvesting training corpus…");
        let targets = EntityType::TARGETS.to_vec();
        let corpus = harvest(&world, &net, engine.as_ref(), &targets, trainer_cfg);
        log(
            "fixture",
            &format!(
                "corpus: {} train / {} test snippets, vocab {}",
                corpus.train.len(),
                corpus.test.len(),
                corpus.extractor.dim()
            ),
        );

        log("fixture", "training classifiers…");
        let svm = train_svm_linear(&corpus, PegasosConfig::default());
        let bayes = train_bayes(&corpus, NaiveBayesConfig::snippet_default());
        clock.reset();
        log(
            "fixture",
            &format!("ready in {:.1}s (real)", t0.elapsed().as_secs_f64()),
        );

        Fixture {
            seed,
            world,
            net,
            web_spec,
            web,
            clock,
            engine,
            geocoder,
            catalogue,
            benchmark,
            corpus,
            svm,
            bayes,
        }
    }

    /// An annotator over the fixture's engine with the given classifier.
    pub fn annotator(&self, classifier: SnippetClassifier, config: AnnotatorConfig) -> Annotator {
        Annotator::new(self.engine.clone(), classifier, config).with_geocoder(self.geocoder.clone())
    }

    /// The paper's main configuration: SVM + post-processing.
    pub fn svm_annotator(&self, postproc: bool, disambig: bool) -> Annotator {
        self.annotator(
            self.svm.clone(),
            AnnotatorConfig {
                use_postprocessing: postproc,
                use_disambiguation: disambig,
                ..AnnotatorConfig::default()
            },
        )
    }

    /// The Bayes variant.
    pub fn bayes_annotator(&self, postproc: bool) -> Annotator {
        self.annotator(
            self.bayes.clone(),
            AnnotatorConfig {
                use_postprocessing: postproc,
                ..AnnotatorConfig::default()
            },
        )
    }
}

/// The quick seed-42 fixture, built on first use and shared by this
/// crate's unit tests. Tests run concurrently, so a test whose assertions
/// read the fixture's virtual clock or query counter builds its own.
#[cfg(test)]
pub(crate) fn quick_fixture() -> &'static Fixture {
    static QUICK: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    QUICK.get_or_init(|| Fixture::build(Scale::Quick, 42))
}

/// The gold standard of a table as `(cell, type)` pairs.
pub fn gold_pairs(table: &GoldTable) -> Vec<(CellId, EntityType)> {
    table.entries.iter().map(|e| (e.cell, e.etype)).collect()
}

/// One method's outputs over a table set, ready for evaluation.
pub struct RunOutput {
    /// Parallel to the table set: `(gold pairs, predicted annotations)`.
    pub per_table: Vec<teda_core::evaluate::TableResult>,
}

impl RunOutput {
    /// Aggregated PRF for one type.
    pub fn prf(&self, etype: EntityType) -> Prf {
        let mut totals = TypeCounts::default();
        for (gold, predicted) in &self.per_table {
            totals.add(count_type(gold, predicted, etype));
        }
        totals.prf()
    }

    /// Micro-averaged PRF over all target types (the single-F numbers the
    /// paper quotes for the §6.3 comparison).
    pub fn micro_prf(&self) -> Prf {
        let mut totals = TypeCounts::default();
        for etype in EntityType::TARGETS {
            for (gold, predicted) in &self.per_table {
                totals.add(count_type(gold, predicted, etype));
            }
        }
        totals.prf()
    }

    /// Per-type PRFs in the Table 1 order.
    pub fn per_type(&self) -> Vec<(EntityType, Prf)> {
        EntityType::TARGETS
            .iter()
            .map(|&t| (t, self.prf(t)))
            .collect()
    }

    /// Arithmetic mean of the PRFs of the types in one category — the
    /// paper's AVERAGE rows.
    pub fn category_average(&self, category: TypeCategory) -> Prf {
        let prfs: Vec<Prf> = EntityType::TARGETS
            .iter()
            .filter(|t| t.category() == category)
            .map(|&t| self.prf(t))
            .collect();
        Prf::mean(&prfs)
    }
}

/// Runs `annotate` over every table and pairs outputs with gold.
pub fn run_method<F>(tables: &[GoldTable], mut annotate: F) -> RunOutput
where
    F: FnMut(&GoldTable) -> Vec<CellAnnotation>,
{
    let per_table = tables
        .iter()
        .map(|t| (gold_pairs(t), annotate(t)))
        .collect();
    RunOutput { per_table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fixture_builds_and_is_consistent() {
        let f = quick_fixture();
        assert_eq!(f.benchmark.tables.len(), 40);
        assert!(!f.corpus.train.is_empty());
        assert_eq!(f.corpus.labels.types().len(), 12);
        // every target type has harvested stats
        assert_eq!(f.corpus.stats.len(), 12);
    }

    #[test]
    fn run_output_math() {
        use teda_corpus::gold::GoldEntry;
        use teda_kb::EntityId;
        use teda_tabular::Table;

        let table = Table::builder(1)
            .row(vec!["Melisse"])
            .unwrap()
            .build()
            .unwrap();
        let gt = GoldTable::new(
            table,
            vec![GoldEntry {
                cell: CellId::new(0, 0),
                etype: EntityType::Restaurant,
                entity: EntityId(0),
            }],
        );
        let out = run_method(std::slice::from_ref(&gt), |_| {
            vec![CellAnnotation {
                cell: CellId::new(0, 0),
                etype: EntityType::Restaurant,
                score: 1.0,
                votes: 10,
            }]
        });
        assert_eq!(out.prf(EntityType::Restaurant).f1, 1.0);
        assert_eq!(out.micro_prf().f1, 1.0);
        let avg = out.category_average(TypeCategory::Poi);
        // restaurants perfect, the other six POI types are 0/0/0 → mean
        assert!(avg.f1 > 0.0);
    }
}
