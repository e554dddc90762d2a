//! The three batch workloads: `batch_cold`, `batch_warm_geo` and
//! `cluster_cold`. Each runs the gft-benchmark tables through
//! `BatchAnnotator::annotate_stream` in a closed loop and checks every
//! pass bit for bit against a reference made during set-up.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use teda_bench::harness::{gold_pairs, Fixture, RunOutput};
use teda_cluster::{
    build_shard, partition_pages, ClusterRouter, RouterConfig, ShardBackend, ShardServer,
};
use teda_core::{
    AnnotatedTable, AnnotationSink, AnnotatorConfig, BatchAnnotator, QueryCache, SourceError,
    TableAnnotations, TableSource,
};
use teda_geo::GeocodeCache;
use teda_simkit::{LatencyModel, VirtualClock};
use teda_tabular::Table;
use teda_websim::{
    BaseCorpus, BingSim, SearchEngine, Segment, SegmentOp, SegmentedCorpus, WebCorpus,
    WebCorpusSpec, WebPage,
};

use crate::pipeline::{same, Searcher, StepCounts, Steps, TimedEngine};
use crate::report::{peak_rss_mb, summary_ms, Outcome};
use crate::stats::{median, spread_due};
use crate::trace::{Layer, Tracer};
use crate::{Args, Failure};

/// Noise pages added to the standard Web for `batch_cold` (≈414k pages
/// in all), so BM25 ranking dominates a cold pass.
const COLD_NOISE_PAGES: usize = 400_000;
/// Worker threads of every pass (the machine this benchmark targets has
/// two cores).
pub const WORKERS: usize = 2;
/// Pages in one corpus-update probe batch.
const PROBE_PAGES: usize = 64;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    WarmGeo,
    Cluster,
}

/// Two heap shard servers on loopback and the router over them.
struct Cluster {
    servers: Vec<ShardServer>,
    router: Arc<ClusterRouter>,
}

impl Cluster {
    fn start(web: &WebCorpus) -> Result<Cluster, Failure> {
        let n_shards = 2;
        let assignment = partition_pages(web.len(), n_shards);
        let servers = (0..n_shards)
            .map(|shard| {
                let (local, manifest) = build_shard(web, shard, n_shards, &assignment)?;
                let base: Arc<dyn BaseCorpus> = Arc::new(local);
                let backend = ShardBackend::from_parts(base, manifest)?;
                ShardServer::start_with(Arc::new(backend), "127.0.0.1:0")
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| Failure::Setup(format!("shard start: {e}")))?;
        let topology: Vec<_> = servers.iter().map(|s| vec![s.local_addr()]).collect();
        let config = RouterConfig {
            pool_per_replica: WORKERS,
            ..RouterConfig::default()
        };
        let router = ClusterRouter::connect(&topology, config)
            .map_err(|e| Failure::Setup(format!("router connect: {e}")))?;
        Ok(Cluster {
            servers,
            router: Arc::new(router),
        })
    }

    fn shutdown(self) {
        drop(self.router);
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// One set-up of a batch workload.
struct Setup {
    fixture: Fixture,
    /// The Web this workload searches (the padded Web for `batch_cold`).
    web: Arc<WebCorpus>,
    cluster: Option<Cluster>,
    engine: Arc<BingSim>,
    searcher: Searcher,
}

impl Setup {
    fn build(kind: Kind, seed: u64) -> Result<Setup, Failure> {
        let fixture = crate::fixture(seed);
        let web = match kind {
            Kind::Cold => Arc::new(WebCorpus::build(
                &fixture.world,
                WebCorpusSpec {
                    noise_pages: COLD_NOISE_PAGES,
                    ..fixture.web_spec
                },
                seed,
            )),
            Kind::WarmGeo | Kind::Cluster => Arc::clone(&fixture.web),
        };
        let cluster = match kind {
            Kind::Cluster => Some(Cluster::start(&web)?),
            _ => None,
        };
        let (backend, searcher): (Arc<dyn teda_websim::SearchBackend>, Searcher) = match &cluster {
            Some(c) => (c.router.clone(), Searcher::Cluster(Arc::clone(&c.router))),
            None => (web.clone(), Searcher::Local(Arc::clone(&web))),
        };
        let engine = Arc::new(BingSim::new(
            backend,
            VirtualClock::new(),
            LatencyModel::bing_default(),
        ));
        Ok(Setup {
            fixture,
            web,
            cluster,
            engine,
            searcher,
        })
    }

    fn shutdown(self) {
        if let Some(c) = self.cluster {
            c.shutdown();
        }
    }
}

fn config(kind: Kind) -> AnnotatorConfig {
    AnnotatorConfig {
        use_disambiguation: kind == Kind::WarmGeo,
        ..AnnotatorConfig::default()
    }
}

fn annotator(kind: Kind, s: &Setup, engine: Arc<dyn SearchEngine + Send + Sync>) -> BatchAnnotator {
    let a = BatchAnnotator::new(engine, s.fixture.svm.clone(), config(kind));
    match kind {
        Kind::WarmGeo => a.with_geocoder(Arc::clone(&s.fixture.geocoder)),
        _ => a,
    }
}

/// A slice source that notes when each table is pulled.
struct TimedSource<'a> {
    tables: &'a [Table],
    next: usize,
    pulled: &'a RefCell<Vec<Instant>>,
}

impl<'a> TableSource for TimedSource<'a> {
    type Item = &'a Table;

    fn next_table(&mut self) -> Option<Result<&'a Table, SourceError>> {
        let t = self.tables.get(self.next)?;
        self.next += 1;
        self.pulled.borrow_mut().push(Instant::now());
        Some(Ok(t))
    }
}

/// A sink that keeps results in order and notes when each was emitted.
struct TimedSink {
    out: Vec<Option<TableAnnotations>>,
    done: Vec<Option<Instant>>,
    errors: usize,
}

impl<T> AnnotationSink<T> for TimedSink {
    fn on_annotated(&mut self, r: AnnotatedTable<T>) {
        self.done[r.index] = Some(Instant::now());
        self.out[r.index] = Some(r.annotations);
    }

    fn on_error(&mut self, _index: usize, _error: SourceError) {
        self.errors += 1;
    }
}

/// One closed-loop pass: wall time, per-table latency (pulled → emitted,
/// µs) and the results.
struct Pass {
    wall: Duration,
    latency_us: Vec<u64>,
    out: Vec<TableAnnotations>,
}

fn stream_pass(a: &BatchAnnotator, tables: &[Table], window: usize) -> Result<Pass, Failure> {
    let pulled = RefCell::new(Vec::with_capacity(tables.len()));
    let mut sink = TimedSink {
        out: vec![None; tables.len()],
        done: vec![None; tables.len()],
        errors: 0,
    };
    let t0 = Instant::now();
    let summary = a.annotate_stream(
        TimedSource {
            tables,
            next: 0,
            pulled: &pulled,
        },
        &mut sink,
        window,
    );
    let wall = t0.elapsed();
    if sink.errors > 0 || summary.annotated != tables.len() {
        return Err(Failure::Check(format!(
            "stream annotated {} of {} tables ({} errors)",
            summary.annotated,
            tables.len(),
            sink.errors
        )));
    }
    let pulled = pulled.into_inner();
    let latency_us = pulled
        .iter()
        .zip(&sink.done)
        .map(|(p, d)| d.map_or(0, |d| d.duration_since(*p).as_micros() as u64))
        .collect();
    let out = sink
        .out
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    Ok(Pass {
        wall,
        latency_us,
        out,
    })
}

/// Micro-averaged F1 of `out` against the gold standard.
fn f1_micro(fixture: &Fixture, out: &[TableAnnotations]) -> f64 {
    RunOutput {
        per_table: fixture
            .benchmark
            .tables
            .iter()
            .zip(out)
            .map(|(g, a)| (gold_pairs(g), a.cells.clone()))
            .collect(),
    }
    .micro_prf()
    .f1
}

/// A corpus-update probe batch; `marker` is a term only these pages carry.
fn probe_pages(round: usize, marker: &str) -> Vec<WebPage> {
    (0..PROBE_PAGES)
        .map(|i| WebPage {
            url: format!("http://perfbench.example/{round}/{i}"),
            title: format!("Update {round}-{i}"),
            body: format!("{marker} update {i} restaurant museum river city review listing"),
        })
        .collect()
}

/// Publishes a page batch over `base` as a segment overlay, then removes
/// it; returns both publish times (µs) after checking that the batch was
/// searchable exactly while published.
fn overlay_probe(base: &Arc<WebCorpus>, round: usize) -> Result<[u64; 2], Failure> {
    let marker = "perfbenchupdatemarker";
    let pages = probe_pages(round, marker);
    let urls: Vec<String> = pages.iter().map(|p| p.url.clone()).collect();
    let base: Arc<dyn BaseCorpus> = base.clone();
    let view = SegmentedCorpus::new(base, Vec::new())
        .map_err(|e| Failure::Check(format!("overlay base: {e}")))?;
    let t0 = Instant::now();
    let added = view
        .push_segment(Arc::new(Segment::new(vec![SegmentOp::add(pages)])))
        .map_err(|e| Failure::Check(format!("overlay add: {e}")))?;
    let add_us = t0.elapsed().as_micros() as u64;
    let visible = added.search(marker, PROBE_PAGES * 2).len();
    let t1 = Instant::now();
    let removed = added
        .push_segment(Arc::new(Segment::new(vec![SegmentOp::remove(urls)])))
        .map_err(|e| Failure::Check(format!("overlay remove: {e}")))?;
    let remove_us = t1.elapsed().as_micros() as u64;
    let left = removed.search(marker, PROBE_PAGES * 2).len();
    if visible != PROBE_PAGES || left != 0 {
        return Err(Failure::Check(format!(
            "overlay probe: {visible} pages visible after publish, {left} after removal"
        )));
    }
    Ok([add_us, remove_us])
}

/// Overlay publish/remove pairs per run: a fixed count, so the tail
/// percentile the rule picks does not change with machine speed. A
/// probe over the ≈414k-page Web of `batch_cold` takes tens of times
/// longer than one over the standard Web, so it runs fewer.
fn probe_pairs(kind: Kind) -> usize {
    match kind {
        Kind::Cold => 20,
        Kind::WarmGeo | Kind::Cluster => 100,
    }
}

/// Overlay probes spread evenly over the timed loop, so their tail
/// samples the whole run rather than one moment at its end.
struct Probes<'a> {
    base: &'a Arc<WebCorpus>,
    pairs: usize,
    /// Publish times so far, µs.
    times_us: Vec<u64>,
    /// Wall time spent probing, kept out of the loop's time budget.
    spent: Duration,
}

impl<'a> Probes<'a> {
    fn new(kind: Kind, base: &'a Arc<WebCorpus>) -> Probes<'a> {
        let pairs = probe_pairs(kind);
        Probes {
            base,
            pairs,
            times_us: Vec::with_capacity(2 * pairs),
            spent: Duration::ZERO,
        }
    }

    /// Runs the probes due once `done` of the loop's `total` time has
    /// passed; `done >= total` runs all that are left.
    fn catch_up(&mut self, done: Duration, total: Duration) -> Result<(), Failure> {
        let due = spread_due(self.pairs, done, total);
        let t0 = Instant::now();
        while self.times_us.len() / 2 < due {
            let round = self.times_us.len() / 2;
            self.times_us.extend(overlay_probe(self.base, round)?);
        }
        self.spent += t0.elapsed();
        Ok(())
    }
}

/// Appends one pass's per-table latencies to each table's series.
fn push_each(series: &mut [Vec<u64>], pass: &[u64]) {
    for (s, &us) in series.iter_mut().zip(pass) {
        s.push(us);
    }
}

/// Per-table latency over the passes: each table's median, summarized
/// across the tables. Repeated passes re-measure the same forty tables,
/// so the tail is over tables, not over repeats of the slowest one.
fn per_table_summary(series: &[Vec<u64>]) -> crate::stats::Summary {
    let medians: Vec<u64> = series
        .iter()
        .map(|s| {
            let v: Vec<f64> = s.iter().map(|&us| us as f64).collect();
            median(&v) as u64
        })
        .collect();
    summary_ms(&medians)
}

/// Sets the workload up [`SETUPS`] times (keeping the last) and returns
/// it with the median set-up time.
fn set_up(kind: Kind, seed: u64, setups: usize) -> Result<(Setup, f64), Failure> {
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups.max(1) {
        if let Some(old) = kept.take() {
            Setup::shutdown(old);
        }
        let t0 = Instant::now();
        kept = Some(Setup::build(kind, seed)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// The set-up reference: a sequential pass of a fresh annotator — over
/// the single-node Web for `cluster_cold`, so the cluster must match
/// the single node.
fn reference(kind: Kind, s: &Setup, tables: &[Table]) -> Vec<TableAnnotations> {
    let engine: Arc<dyn SearchEngine + Send + Sync> = match kind {
        Kind::Cluster => Arc::new(BingSim::instant(s.web.clone())),
        _ => s.engine.clone(),
    };
    annotator(kind, s, engine).annotate_corpus(tables)
}

fn check_pass(
    what: &str,
    out: &[TableAnnotations],
    reference: &[TableAnnotations],
) -> Result<(), Failure> {
    match out.iter().zip(reference).position(|(a, b)| !same(a, b)) {
        None if out.len() == reference.len() => Ok(()),
        None => Err(Failure::Check(format!(
            "{what}: {} results for {} tables",
            out.len(),
            reference.len()
        ))),
        Some(i) => Err(Failure::Check(format!(
            "{what}: table {i} differs from the set-up reference"
        ))),
    }
}

/// Per-pass layer figures of the traced run.
#[derive(Default)]
struct LayerSeries {
    busy_ms: Vec<Vec<f64>>,
    calls: Vec<Vec<f64>>,
    pass_busy_ms: Vec<f64>,
    unattributed: Vec<f64>,
}

/// Hands each pass its annotator: the shared warm one for
/// `batch_warm_geo`, a fresh (cold) one otherwise.
struct Annotators<'s> {
    kind: Kind,
    setup: &'s Setup,
    warm: Option<BatchAnnotator>,
}

impl Annotators<'_> {
    fn pass<R>(&self, f: impl FnOnce(&BatchAnnotator) -> R) -> R {
        match &self.warm {
            Some(a) => f(a),
            None => f(&annotator(self.kind, self.setup, self.setup.engine.clone())),
        }
    }
}

/// Runs one batch workload.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, Failure> {
    let (setup, setup_s) = set_up(kind, args.seed, args.setups)?;
    let tables: Vec<Table> = setup
        .fixture
        .benchmark
        .tables
        .iter()
        .map(|g| g.table.clone())
        .collect();
    let reference = reference(kind, &setup, &tables);

    // The warm workload reuses one annotator whose query cache and geo
    // memo an untimed pass has filled.
    let warm = (kind == Kind::WarmGeo).then(|| annotator(kind, &setup, setup.engine.clone()));
    if let Some(a) = &warm {
        check_pass("warming pass", &a.annotate_corpus(&tables), &reference)?;
    }
    let annotators = Annotators {
        kind,
        setup: &setup,
        warm,
    };
    let outcome = if args.trace {
        traced(kind, args, &setup, &tables, &reference, &annotators)
    } else {
        untraced(args, &setup, &tables, &reference, &annotators).map(|mut o| {
            o.put("setup_s", "s", setup_s, args.setups, "median");
            o.put("peak_rss_mb", "MB", peak_rss_mb(), 1, "VmHWM");
            o
        })
    };
    drop(annotators);
    setup.shutdown();
    outcome
}

/// Pass count, outputs and F1 of the untraced loop's high-load passes.
fn untraced(
    args: &Args,
    setup: &Setup,
    tables: &[Table],
    reference: &[TableAnnotations],
    annotators: &Annotators,
) -> Result<Outcome, Failure> {
    let f1_ref = f1_micro(&setup.fixture, reference);
    let cells: usize = reference.iter().map(|a| a.queried_cells).sum();
    let window = teda_core::default_max_in_flight();
    let mut probes = Probes::new(annotators.kind, &setup.web);
    let started = Instant::now();
    let looped = |probes: &Probes| started.elapsed().saturating_sub(probes.spent);
    let (mut walls, mut f1) = (Vec::new(), Vec::new());
    let mut high_lat = vec![Vec::new(); tables.len()];
    let mut low_lat = vec![Vec::new(); tables.len()];
    let mut rounds = 0;
    while rounds == 0 || looped(&probes) < args.seconds {
        let high = annotators.pass(|a| stream_pass(a, tables, window))?;
        check_pass("high-load pass", &high.out, reference)?;
        let pass_f1 = f1_micro(&setup.fixture, &high.out);
        if pass_f1.to_bits() != f1_ref.to_bits() {
            return Err(Failure::Check(format!(
                "pass F1 {pass_f1} differs from the reference F1 {f1_ref}"
            )));
        }
        f1.push(pass_f1);
        walls.push(high.wall.as_secs_f64());
        push_each(&mut high_lat, &high.latency_us);

        // One table in flight per worker: no table waits for a worker.
        let low = annotators.pass(|a| stream_pass(a, tables, WORKERS))?;
        check_pass("low-load pass", &low.out, reference)?;
        push_each(&mut low_lat, &low.latency_us);

        rounds += 1;
        probes.catch_up(looped(&probes), args.seconds)?;
    }
    probes.catch_up(args.seconds, args.seconds)?;
    let publish = probes.times_us;
    let attempted = (rounds * tables.len() * 2) as u64;
    let mut o = Outcome {
        attempted,
        failed: 0,
        metrics: Vec::new(),
    };
    let wall = median(&walls);
    o.put(
        "cells_per_s",
        "1/s",
        cells as f64 / wall,
        walls.len(),
        "median pass",
    );
    o.put("f1_micro", "ratio", median(&f1), f1.len(), "= reference F1");
    o.put(
        "ok_ratio",
        "ratio",
        1.0,
        attempted as usize,
        "checked tables / attempted",
    );
    o.put_timing(
        "req_p50_ms.low",
        "req_p99_ms.low",
        "ms",
        &per_table_summary(&low_lat),
    );
    o.put_timing(
        "req_p50_ms.high",
        "req_p99_ms.high",
        "ms",
        &per_table_summary(&high_lat),
    );
    o.put(
        "max_rate_rps",
        "1/s",
        tables.len() as f64 / wall,
        walls.len(),
        "closed-loop tables/s, median pass",
    );
    let p = summary_ms(&publish);
    o.put("publish_p99_ms", "ms", p.tail, p.n, p.tail_label);
    Ok(o)
}

/// Featurize and classify cost per snippet (µs), timed on the same
/// snippets outside the timed path: the two halves of `core.vote`.
fn vote_side_probe(setup: &Setup, tables: &[Table]) -> (f64, f64) {
    let engine = BingSim::instant(setup.web.clone());
    let mut snippets: Vec<String> = Vec::new();
    'collect: for t in tables {
        for id in t.cell_ids() {
            for r in engine.search(t.cell_at(id), 10) {
                snippets.push(r.snippet);
                if snippets.len() >= 2_000 {
                    break 'collect;
                }
            }
        }
    }
    let classifier = &setup.fixture.svm;
    let n = snippets.len().max(1) as f64;
    let (mut featurize, mut score) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let vectors: Vec<_> = snippets.iter().map(|s| classifier.vectorize(s)).collect();
        featurize.push(t0.elapsed().as_secs_f64() * 1e6 / n);
        let t1 = Instant::now();
        let typed = vectors
            .iter()
            .filter(|v| classifier.classify_vector(v).is_some())
            .count();
        score.push(t1.elapsed().as_secs_f64() * 1e6 / n);
        std::hint::black_box(typed);
    }
    (median(&featurize), median(&score))
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The traced run: untraced and traced passes alternate, the traced one
/// rebuilt from step functions and checked against the reference.
fn traced(
    kind: Kind,
    args: &Args,
    setup: &Setup,
    tables: &[Table],
    reference: &[TableAnnotations],
    annotators: &Annotators,
) -> Result<Outcome, Failure> {
    let tracer = Tracer::default();
    let config = config(kind);
    let geocoder = (kind == Kind::WarmGeo).then(|| setup.fixture.geocoder.as_ref());
    let traced_pass = |caches: &(QueryCache, GeocodeCache)| {
        Steps {
            engine: TimedEngine {
                searcher: &setup.searcher,
                tracer: &tracer,
            },
            classifier: &setup.fixture.svm,
            geocoder,
            config: &config,
            cache: &caches.0,
            geo_memo: &caches.1,
        }
        .annotate_all(tables, WORKERS)
    };
    let warm_caches =
        (kind == Kind::WarmGeo).then(|| (QueryCache::default(), GeocodeCache::default()));
    if let Some(c) = &warm_caches {
        let (out, _) = traced_pass(c);
        check_pass("traced warming pass", &out, reference)?;
    }
    let _ = tracer.take_samples(Layer::Rank);
    let _ = tracer.take_samples(Layer::ClusterSearch);
    let telemetry = setup.cluster.as_ref().map(|c| c.router.telemetry());
    let tel0 = telemetry.as_ref().map_or((0, 0, 0), |t| t.snapshot());

    let window = teda_core::default_max_in_flight();
    let deadline = Instant::now() + args.seconds;
    let mut series = LayerSeries {
        busy_ms: vec![Vec::new(); Layer::ALL.len()],
        calls: vec![Vec::new(); Layer::ALL.len()],
        ..LayerSeries::default()
    };
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut cache_hit, mut geo_hit) = (Vec::new(), Vec::new());
    let mut counts = StepCounts::default();
    let mut rounds = 0;
    while rounds < 2 || Instant::now() < deadline {
        let plain = annotators.pass(|a| stream_pass(a, tables, window))?;
        check_pass("untraced pass", &plain.out, reference)?;
        plain_walls.push(plain.wall.as_secs_f64());

        let fresh;
        let caches = match &warm_caches {
            Some(c) => c,
            None => {
                fresh = (QueryCache::default(), GeocodeCache::default());
                &fresh
            }
        };
        let (q0, g0) = (caches.0.stats(), caches.1.stats());
        let t0 = tracer.totals();
        let started = Instant::now();
        let (out, c) = traced_pass(caches);
        let wall = started.elapsed().as_secs_f64();
        let t1 = tracer.totals();
        check_pass("traced pass", &out, reference)?;
        traced_walls.push(wall);
        let mut busy = 0.0;
        for i in 0..Layer::ALL.len() {
            let ms = (t1[i].self_ns - t0[i].self_ns) as f64 / 1e6;
            busy += ms;
            series.busy_ms[i].push(ms);
            series.calls[i].push((t1[i].calls - t0[i].calls) as f64);
        }
        series.pass_busy_ms.push(busy);
        series
            .unattributed
            .push(1.0 - busy / (wall * 1e3 * WORKERS as f64));
        let (q1, g1) = (caches.0.stats(), caches.1.stats());
        cache_hit.push(ratio(
            (q1.hits - q0.hits) as f64,
            (q1.hits + q1.misses - q0.hits - q0.misses) as f64,
        ));
        geo_hit.push(ratio(
            (g1.hits - g0.hits) as f64,
            (g1.hits + g1.misses - g0.hits - g0.misses) as f64,
        ));
        counts.skipped += c.skipped;
        counts.candidates += c.candidates;
        counts.votes += c.votes;
        counts.annotated += c.annotated;
        rounds += 1;
    }
    let mut probes = Probes::new(kind, &setup.web);
    probes.catch_up(args.seconds, args.seconds)?;
    let publish = probes.times_us;
    let tel1 = telemetry.as_ref().map_or((0, 0, 0), |t| t.snapshot());

    let mut o = Outcome {
        attempted: (rounds * tables.len() * 2) as u64,
        failed: 0,
        metrics: Vec::new(),
    };
    for (i, layer) in Layer::ALL.iter().enumerate() {
        o.put_median(
            &format!("{}.busy_ms", layer.name()),
            "ms",
            &series.busy_ms[i],
        );
    }
    let at = |layer: Layer| {
        Layer::ALL
            .iter()
            .position(|&l| l == layer)
            .expect("listed layer")
    };
    o.put_median("websim.rank.calls", "count", &series.calls[at(Layer::Rank)]);
    o.put_median(
        "cluster.search.calls",
        "count",
        &series.calls[at(Layer::ClusterSearch)],
    );
    for layer in [
        Layer::Rank,
        Layer::ClusterSearch,
        Layer::Cache,
        Layer::Vote,
        Layer::Spatial,
    ] {
        let shares: Vec<f64> = series.busy_ms[at(layer)]
            .iter()
            .zip(&series.pass_busy_ms)
            .map(|(&b, &all)| ratio(b, all))
            .collect();
        o.put_median(&format!("{}.busy_share", layer.name()), "ratio", &shares);
    }
    o.put_timing(
        "websim.rank.us_p50",
        "websim.rank.us_p99",
        "us",
        &summary_us(&tracer.take_samples(Layer::Rank)),
    );
    o.put_timing(
        "cluster.search.us_p50",
        "cluster.search.us_p99",
        "us",
        &summary_us(&tracer.take_samples(Layer::ClusterSearch)),
    );
    o.put(
        "cluster.partials",
        "count",
        (tel1.1 - tel0.1) as f64,
        rounds,
        "ClusterTelemetry, whole run",
    );
    o.put(
        "cluster.retries",
        "count",
        (tel1.2 - tel0.2) as f64,
        rounds,
        "ClusterTelemetry, whole run",
    );
    o.put_median("core.cache.hit_ratio", "ratio", &cache_hit);
    o.put_median("geo.memo.hit_ratio", "ratio", &geo_hit);
    o.put(
        "core.preprocess.pruned_ratio",
        "ratio",
        ratio(
            counts.skipped as f64,
            (counts.skipped + counts.candidates) as f64,
        ),
        counts.skipped + counts.candidates,
        "skipped / all cells",
    );
    o.put(
        "core.vote.annotated_ratio",
        "ratio",
        ratio(counts.annotated as f64, counts.votes as f64),
        counts.votes,
        "annotations / votes",
    );
    let (featurize, score) = vote_side_probe(setup, tables);
    o.put(
        "text.featurize.us_per_snippet",
        "us",
        featurize,
        5,
        "median of 5 side-probe runs",
    );
    o.put(
        "classifier.score.us_per_snippet",
        "us",
        score,
        5,
        "median of 5 side-probe runs",
    );
    let p = summary_ms(&publish);
    o.put_timing("store.publish.ms_p50", "store.publish.ms_p99", "ms", &p);
    o.put_median("trace.pass_busy_ms", "ms", &series.pass_busy_ms);
    o.put_median("trace.unattributed_share", "ratio", &series.unattributed);
    o.put(
        "trace.overhead_ratio",
        "ratio",
        median(&traced_walls) / median(&plain_walls),
        rounds,
        "median traced / untraced pass",
    );
    Ok(o)
}

/// Latency samples (µs) → summary in µs.
fn summary_us(samples: &[u64]) -> crate::stats::Summary {
    let v: Vec<f64> = samples.iter().map(|&us| us as f64).collect();
    crate::stats::summarize(&v).unwrap_or(crate::stats::Summary {
        n: 0,
        p50: 0.0,
        tail: 0.0,
        tail_label: "none",
    })
}
