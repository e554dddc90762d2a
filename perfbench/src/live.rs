//! `wire_live`: the user-facing service under an open-loop request
//! schedule with corpus updates beside it.
//!
//! `AnnotationService::start_live` serves a mmap'd `LiveCorpus` (the
//! standard Web) behind a loopback `WireServer`. Two connections send
//! `ANNOTATE` requests on a seeded Poisson schedule — a low rate, a high
//! rate, then a short rate ladder — and each request is timed from when
//! it was due. A writer publishes and removes delta page batches on a
//! fixed period; every publish clears the query memo and drives overlay
//! pushes, tier merges and full folds. Every reply must equal the offline
//! rendering for the corpus state it was served in (or, when it overlaps
//! a publish, the state before or after it).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::Rng;
use teda_bench::harness::{gold_pairs, Fixture, RunOutput};
use teda_core::{AnnotatorConfig, BatchAnnotator, TableAnnotations};
use teda_corpus::gft::poi_table;
use teda_corpus::gold::GoldTable;
use teda_corpus::typed_table_to_csv;
use teda_kb::EntityType;
use teda_service::{AnnotationService, LiveCorpus, ServiceConfig, TierPolicy};
use teda_simkit::{derive_seed, rng_from_seed, LatencyModel, VirtualClock};
use teda_store::CorpusStore;
use teda_websim::template::{entity_page, PageFlavour};
use teda_websim::{BingSim, WebCorpus, WebPage};
use teda_wire::protocol::render_annotations;
use teda_wire::{WireClient, WireServer};

use crate::report::{peak_rss_mb, summary_ms, thread_bytes_written, Outcome};
use crate::stats::{drive, median, self_times, summarize, SpanRec, Timing};
use crate::{Args, Failure};

/// Distinct request tables; requests pick among them Zipf-style.
const POOL: usize = 48;
/// Row counts cycled through the pool (mixed request sizes).
const ROWS: [usize; 4] = [4, 8, 16, 32];
/// Zipf exponent of the table choice.
const ZIPF_S: f64 = 1.1;
/// Client connections (one generator thread each).
const CONNECTIONS: usize = 2;
/// The two fixed request rates, requests per second.
const LOW_RPS: f64 = 100.0;
const HIGH_RPS: f64 = 300.0;
/// The rate ladder behind `max_rate_rps`.
const LADDER_RPS: [f64; 6] = [400.0, 550.0, 700.0, 850.0, 1000.0, 1150.0];
/// The committed tail-latency limit a ladder rate must meet.
const LIMIT_MS: f64 = 10.0;
/// Share of the run spent at the low rate, the high rate and the ladder.
const PHASES: [f64; 3] = [0.25, 0.35, 0.4];
/// Time between two corpus publishes.
const PUBLISH_EVERY: Duration = Duration::from_millis(250);
/// Entities per delta batch, and pages per entity.
const DELTA_ENTITIES: usize = 16;
const PAGES_PER_ENTITY: usize = 6;

/// Compaction policy small enough that a run sees several tier merges
/// and full folds.
fn policy() -> TierPolicy {
    TierPolicy {
        max_segments: 4,
        fanout: 2,
        max_removed: 1_000,
    }
}

/// The state the corpus is in after publish `p`: publishes cycle
/// add A, remove A, add B, remove B. State 0 is the base Web, 1 = base
/// + A, 2 = base + B.
fn state_after(p: u64) -> usize {
    [0, 1, 0, 2][(p % 4) as usize]
}

/// Corpus states a reply may have been served from, given the publish
/// version read before sending (`v0`) and after the reply (`v1`).
/// Version `2p - 1` means publish `p` is in progress, `2p` that it is
/// done.
fn acceptable_states(v0: u64, v1: u64) -> Vec<usize> {
    let mut states: Vec<usize> = (v0 / 2..=v1.div_ceil(2)).map(state_after).collect();
    states.sort_unstable();
    states.dedup();
    states
}

/// A served service and where its store lives.
struct Served {
    dir: PathBuf,
    live: Arc<LiveCorpus>,
    service: Arc<AnnotationService>,
    server: WireServer,
}

impl Served {
    fn start(fixture: &Fixture, dir: PathBuf) -> Result<Served, Failure> {
        let fail = |what: &str, e: &dyn std::fmt::Display| Failure::Setup(format!("{what}: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        CorpusStore::open(&dir)
            .and_then(|s| s.save(&fixture.web))
            .map_err(|e| fail("save corpus", &e))?;
        let live = Arc::new(
            LiveCorpus::open_mapped(&dir, policy()).map_err(|e| fail("open live corpus", &e))?,
        );
        let engine = Arc::new(BingSim::new(
            live.backend(),
            VirtualClock::new(),
            LatencyModel::bing_default(),
        ));
        let annotator =
            BatchAnnotator::new(engine, fixture.svm.clone(), AnnotatorConfig::default());
        let config = ServiceConfig {
            workers: crate::batch::WORKERS,
            mmap_corpus: true,
            ..ServiceConfig::default()
        };
        let service = Arc::new(AnnotationService::start_live(
            annotator,
            config,
            Arc::clone(&live),
        ));
        let server =
            WireServer::start(Arc::clone(&service), "127.0.0.1:0").map_err(|e| fail("bind", &e))?;
        Ok(Served {
            dir,
            live,
            service,
            server,
        })
    }

    fn stop(self) {
        self.server.shutdown();
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
        drop(self.live);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The generated inputs of one run.
struct Inputs {
    pool: Vec<GoldTable>,
    csv: Vec<String>,
    /// Delta batches A and B (states 1 and 2).
    deltas: [Vec<WebPage>; 2],
    /// `refs[state][table]`: the offline rendering and annotations.
    refs: Vec<Vec<(String, TableAnnotations)>>,
}

fn inputs(fixture: &Fixture, seed: u64) -> Inputs {
    let world = &fixture.world;
    let mut rng = rng_from_seed(derive_seed(seed, "perfbench-wire-live"));
    let types = [
        EntityType::Restaurant,
        EntityType::Museum,
        EntityType::Theatre,
        EntityType::Hotel,
        EntityType::School,
        EntityType::University,
    ];
    let pool: Vec<GoldTable> = (0..POOL)
        .map(|i| {
            let etype = types[i % types.len()];
            poi_table(
                world,
                etype,
                ROWS[i % ROWS.len()],
                (i % 3) as u8,
                &format!("live{i}"),
                &mut rng,
            )
        })
        .collect();
    let csv = pool.iter().map(|g| typed_table_to_csv(&g.table)).collect();

    // Delta pages are weak-signal news items about entities the request
    // tables name, so publishing them changes some answers.
    let mut entities: Vec<_> = pool
        .iter()
        .flat_map(|g| g.entries.iter().map(|e| e.entity))
        .collect();
    entities.sort_unstable();
    entities.dedup();
    for i in (1..entities.len()).rev() {
        entities.swap(i, rng.gen_range(0..=i));
    }
    let deltas = [0, 1].map(|batch| {
        entities
            .iter()
            .skip(batch * DELTA_ENTITIES)
            .take(DELTA_ENTITIES)
            .flat_map(|&id| {
                (0..PAGES_PER_ENTITY)
                    .map(|j| {
                        entity_page(
                            &mut rng,
                            world,
                            world.entity(id),
                            PageFlavour::News,
                            (900 + 10 * batch + j) as u32,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<WebPage>>()
    });

    let base = fixture.web.pages();
    let refs = (0..3)
        .map(|state| {
            let mut pages = base.to_vec();
            if state > 0 {
                pages.extend(deltas[state - 1].iter().cloned());
            }
            let engine = Arc::new(BingSim::instant(Arc::new(WebCorpus::from_pages(pages))));
            let offline =
                BatchAnnotator::new(engine, fixture.svm.clone(), AnnotatorConfig::default());
            pool.iter()
                .map(|g| {
                    let a = offline.annotate_table(&g.table);
                    (render_annotations(&a), a)
                })
                .collect()
        })
        .collect();
    Inputs {
        pool,
        csv,
        deltas,
        refs,
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Req {
    due_us: u64,
    table: usize,
    /// 0 = low rate, 1 = high rate, 2 + k = ladder step k.
    phase: usize,
}

/// The seeded open-loop schedule: Poisson arrivals per phase, tables
/// drawn Zipf-style from the pool.
fn schedule(seed: u64, seconds: Duration) -> (Vec<Req>, u64) {
    let mut rng = rng_from_seed(derive_seed(seed, "perfbench-schedule"));
    let weights: Vec<f64> = (1..=POOL).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let total_us = seconds.as_micros().max(1) as f64;
    let mut phases: Vec<(f64, f64)> = vec![
        (LOW_RPS, PHASES[0] * total_us),
        (HIGH_RPS, PHASES[1] * total_us),
    ];
    let step = PHASES[2] * total_us / LADDER_RPS.len() as f64;
    phases.extend(LADDER_RPS.iter().map(|&r| (r, step)));
    let mut reqs = Vec::new();
    let mut start = 0.0;
    for (phase, &(rate, len)) in phases.iter().enumerate() {
        let mut t = start;
        loop {
            t += -(1.0 - rng.gen::<f64>()).ln() / rate * 1e6;
            if t >= start + len {
                break;
            }
            let mut pick = rng.gen::<f64>() * total;
            let table = weights
                .iter()
                .position(|&w| {
                    pick -= w;
                    pick < 0.0
                })
                .unwrap_or(POOL - 1);
            reqs.push(Req {
                due_us: t as u64,
                table,
                phase,
            });
        }
        start += len;
    }
    (reqs, start as u64)
}

/// What one request came back with.
#[derive(Debug, Clone, Copy)]
struct Done {
    req: usize,
    timing: Timing,
    /// Index into the state references the reply matched; `None` for a
    /// refused or failed request.
    state: Option<usize>,
    /// The reply overlapped a publish and matched neither side.
    mixed: bool,
    /// Traced run: (root span, queue wait, annotate run, root self), µs.
    spans: Option<[u64; 4]>,
}

/// One publish as the writer saw it.
#[derive(Debug, Clone, Copy)]
struct Publish {
    us: u64,
    merges: usize,
    fold: bool,
    depth: usize,
    bytes: u64,
    pages: usize,
    hydrations_before: u64,
    /// Query-cache counters just before the publish cleared them.
    cache_before: (u64, u64),
}

/// Root, queue-wait, annotate and root-self durations of a service trace.
fn span_times(trace: &teda_obs::Trace) -> [u64; 4] {
    let recs: Vec<SpanRec> = trace
        .spans
        .iter()
        .map(|s| SpanRec {
            parent: s.parent as usize,
            start: s.start_us,
            end: s.end_us,
        })
        .collect();
    let own = self_times(&recs);
    let dur = |name: &str| {
        trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum::<u64>()
    };
    let root = recs.first().map_or(0, |r| r.end - r.start);
    [
        root,
        dur("queue_wait"),
        dur("annotate"),
        own.first().copied().unwrap_or(0),
    ]
}

/// Runs the writer: `count` publishes, one per period from `t0`. The
/// count is fixed by the schedule, so every run of a given length sees
/// the same number of publishes.
fn writer(
    served: &Served,
    deltas: &[Vec<WebPage>; 2],
    version: &AtomicU64,
    t0: Instant,
    count: u64,
) -> Result<Vec<Publish>, Failure> {
    let urls: Vec<Vec<String>> = deltas
        .iter()
        .map(|d| d.iter().map(|p| p.url.clone()).collect())
        .collect();
    let mut out = Vec::new();
    for p in 1..=count {
        let due = PUBLISH_EVERY * p as u32;
        std::thread::sleep(due.saturating_sub(t0.elapsed()));
        let hydrations_before = served.live.map_stats().map_or(0, |m| m.hydrations);
        let cache = served.service.annotator().cache_stats();
        version.store(2 * p - 1, Ordering::SeqCst);
        let bytes0 = thread_bytes_written();
        let started = Instant::now();
        let (report, pages) = match p % 4 {
            1 | 3 => {
                let batch = &deltas[((p % 4) / 2) as usize];
                (served.service.add_pages(batch.clone()), batch.len())
            }
            _ => {
                let batch = &urls[usize::from(p.is_multiple_of(4))];
                (served.service.remove_pages(batch.clone()), batch.len())
            }
        };
        let us = started.elapsed().as_micros() as u64;
        let bytes = thread_bytes_written() - bytes0;
        version.store(2 * p, Ordering::SeqCst);
        let report = report.map_err(|e| Failure::Check(format!("publish {p}: {e}")))?;
        out.push(Publish {
            us,
            merges: report.merges,
            fold: report.full_fold,
            depth: served.live.corpus().segments().len(),
            bytes,
            pages,
            hydrations_before,
            cache_before: (cache.hits, cache.misses),
        });
    }
    Ok(out)
}

/// Drives one connection through its share of the schedule.
#[allow(clippy::too_many_arguments)]
fn connection(
    addr: std::net::SocketAddr,
    reqs: &[Req],
    mine: &[usize],
    inputs: &Inputs,
    version: &AtomicU64,
    t0: Instant,
    traced: bool,
    mismatch: &Mutex<Option<String>>,
) -> Vec<Done> {
    let mut client = match WireClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            return mine
                .iter()
                .map(|&i| Done {
                    req: i,
                    timing: Timing {
                        due: reqs[i].due_us,
                        sent: reqs[i].due_us,
                        done: reqs[i].due_us,
                    },
                    state: None,
                    mixed: false,
                    spans: None,
                })
                .collect()
        }
    };
    let due: Vec<u64> = mine.iter().map(|&i| reqs[i].due_us).collect();
    let now = || t0.elapsed().as_micros() as u64;
    let mut results: Vec<(Option<usize>, bool, Option<[u64; 4]>)> = Vec::with_capacity(mine.len());
    let timings = drive(
        &due,
        now,
        |d| {
            let n = now();
            if d > n {
                std::thread::sleep(Duration::from_micros(d - n));
            }
        },
        |k| {
            let i = mine[k];
            let table = reqs[i].table;
            let v0 = version.load(Ordering::SeqCst);
            // The traced run traces every other request so the traced
            // and untraced halves give the tracing overhead.
            let trace_id = (traced && i % 2 == 1).then_some(i as u64 + 1);
            let reply = match trace_id {
                Some(id) => client.annotate_traced(id, &format!("r{i}"), &inputs.csv[table]),
                None => client.annotate(&format!("r{i}"), &inputs.csv[table]),
            };
            let v1 = version.load(Ordering::SeqCst);
            let overlapped = v0 != v1 || v0 % 2 == 1;
            let mut mixed = false;
            let state = reply.ok().and_then(|text| {
                let states = acceptable_states(v0, v1);
                let hit = states.iter().copied().find(|&s| inputs.refs[s][table].0 == text);
                if hit.is_none() && overlapped {
                    // The service pins a corpus snapshot per search, not
                    // per request, so a reply overlapping a publish may
                    // mix both states. It counts as failed, never as ok.
                    mixed = true;
                } else if hit.is_none() {
                    if let Ok(mut m) = mismatch.lock() {
                        m.get_or_insert_with(|| {
                            format!("request {i} (table {table}, corpus state {states:?}) got a reply that differs from the offline annotation:\n{text}")
                        });
                    }
                }
                hit
            });
            let spans = trace_id
                .and_then(|id| client.trace_dump(id).ok())
                .map(|t| span_times(&t));
            results.push((state, mixed, spans));
        },
    );
    timings
        .into_iter()
        .zip(results)
        .zip(mine)
        .map(|((timing, (state, mixed, spans)), &req)| Done {
            req,
            timing,
            state,
            mixed,
            spans,
        })
        .collect()
}

/// Highest ladder rate meeting the limit without a growing backlog,
/// interpolated between the last passing and the first failing step by
/// where the tail latency crosses the limit.
fn max_rate(steps: &[(f64, f64, bool)]) -> f64 {
    let passing = steps.iter().take_while(|s| s.2).count();
    match (passing.checked_sub(1).map(|i| steps[i]), steps.get(passing)) {
        (_, None) => steps.last().map_or(0.0, |s| s.0),
        (None, Some(&(rate, tail, _))) => rate * (LIMIT_MS / tail.max(LIMIT_MS)),
        (Some((r0, t0, _)), Some(&(r1, t1, _))) => {
            let f = if t1 > LIMIT_MS && t1 > t0 {
                ((LIMIT_MS - t0) / (t1 - t0)).clamp(0.0, 1.0)
            } else {
                0.5
            };
            r0 + f * (r1 - r0)
        }
    }
}

/// Runs `wire_live`.
pub fn run(args: &Args) -> Result<Outcome, Failure> {
    let root = Path::new(".perfbench_tmp");
    let mut setup_times = Vec::new();
    let mut kept: Option<(Fixture, Served)> = None;
    for k in 0..args.setups {
        if let Some((_, old)) = kept.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let fixture = crate::fixture(args.seed);
        let served = Served::start(
            &fixture,
            root.join(format!("wire_live-{}-{k}", std::process::id())),
        )?;
        setup_times.push(t0.elapsed().as_secs_f64());
        kept = Some((fixture, served));
    }
    let (fixture, served) = kept.ok_or_else(|| Failure::Setup("no set-up".into()))?;
    let result = measure(args, &fixture, &served);
    served.stop();
    let _ = std::fs::remove_dir(root);
    let mut o = result?;
    if !args.trace {
        o.put(
            "setup_s",
            "s",
            median(&setup_times),
            setup_times.len(),
            "median",
        );
        o.put("peak_rss_mb", "MB", peak_rss_mb(), 1, "VmHWM");
    }
    Ok(o)
}

fn measure(args: &Args, fixture: &Fixture, served: &Served) -> Result<Outcome, Failure> {
    let inputs = inputs(fixture, args.seed);
    let changed = (0..POOL)
        .filter(|&t| {
            inputs.refs[0][t].0 != inputs.refs[1][t].0 || inputs.refs[0][t].0 != inputs.refs[2][t].0
        })
        .count();
    println!("wire_live: {changed} of {POOL} pool tables answer differently once a delta batch is published");
    let seconds = args.seconds.max(Duration::from_secs(1));
    let (reqs, span_us) = schedule(args.seed, seconds);
    let version = AtomicU64::new(0);
    let mismatch = Mutex::new(None);
    let publishes = span_us / PUBLISH_EVERY.as_micros() as u64;
    let addr = served.server.local_addr();
    let t0 = Instant::now();
    let (done, publishes) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(served, &inputs.deltas, &version, t0, publishes));
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<usize> = (c..reqs.len()).step_by(CONNECTIONS).collect();
                let (reqs, inputs, version, mismatch) = (&reqs, &inputs, &version, &mismatch);
                s.spawn(move || {
                    connection(addr, reqs, &mine, inputs, version, t0, args.trace, mismatch)
                })
            })
            .collect();
        let done: Vec<Done> = conns
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (done, w.join().expect("writer thread panicked"))
    });
    let wall_us = t0.elapsed().as_micros() as u64;
    if let Some(m) = mismatch.into_inner().ok().flatten() {
        return Err(Failure::Check(m));
    }
    let publishes = publishes?;
    let mut o = Outcome {
        attempted: done.len() as u64,
        failed: done.iter().filter(|d| d.state.is_none()).count() as u64,
        metrics: Vec::new(),
    };
    let ok = |phase: &dyn Fn(usize) -> bool| -> Vec<u64> {
        done.iter()
            .filter(|d| d.state.is_some() && phase(reqs[d.req].phase))
            .map(|d| d.timing.latency())
            .collect()
    };
    if args.trace {
        traced_metrics(&mut o, served, &done, &publishes);
        return Ok(o);
    }
    let cells: usize = done
        .iter()
        .filter_map(|d| {
            d.state
                .map(|s| inputs.refs[s][reqs[d.req].table].1.queried_cells)
        })
        .sum();
    o.put(
        "cells_per_s",
        "1/s",
        cells as f64 * 1e6 / span_us.max(wall_us) as f64,
        done.len(),
        "served cells / schedule wall",
    );
    // Every ok reply equals a reference annotation, so the pool's
    // base-state references are the quality the service delivers.
    let pool_f1 = RunOutput {
        per_table: inputs
            .pool
            .iter()
            .zip(&inputs.refs[0])
            .map(|(g, (_, a))| (gold_pairs(g), a.cells.clone()))
            .collect(),
    }
    .micro_prf()
    .f1;
    o.put(
        "f1_micro",
        "ratio",
        pool_f1,
        POOL,
        "pool tables, base corpus",
    );
    o.put(
        "ok_ratio",
        "ratio",
        (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64,
        done.len(),
        "ok / attempted",
    );
    o.put_timing(
        "req_p50_ms.low",
        "req_p99_ms.low",
        "ms",
        &summary_ms(&ok(&|p| p == 0)),
    );
    o.put_timing(
        "req_p50_ms.high",
        "req_p99_ms.high",
        "ms",
        &summary_ms(&ok(&|p| p == 1)),
    );
    let steps: Vec<(f64, f64, bool)> = LADDER_RPS
        .iter()
        .enumerate()
        .map(|(k, &rate)| {
            let mine: Vec<&Done> = done.iter().filter(|d| reqs[d.req].phase == 2 + k).collect();
            // A failed request counts as missing the limit.
            let lat: Vec<f64> = mine
                .iter()
                .map(|d| match d.state {
                    Some(_) => d.timing.latency() as f64 / 1000.0,
                    None => f64::INFINITY,
                })
                .collect();
            let tail = summarize(&lat).map_or(f64::INFINITY, |s| s.tail);
            // A growing backlog shows as the step's last quarter of
            // requests being sent later than the limit.
            let tail_lags: Vec<f64> = mine[mine.len() * 3 / 4..]
                .iter()
                .map(|d| d.timing.lag() as f64 / 1000.0)
                .collect();
            let last_lag = median(&tail_lags);
            let meets = tail <= LIMIT_MS && last_lag <= LIMIT_MS;
            println!("wire_live ladder {rate:>5.0} rps: n={} tail={tail:.2} ms late-quarter lag={last_lag:.2} ms meets={meets}", mine.len());
            (rate, tail, meets)
        })
        .collect();
    o.put(
        "max_rate_rps",
        "1/s",
        max_rate(&steps),
        steps.len(),
        "ladder, interpolated at the limit",
    );
    let p = summary_ms(&publishes.iter().map(|p| p.us).collect::<Vec<_>>());
    o.put("publish_p99_ms", "ms", p.tail, p.n, p.tail_label);
    let (merges, folds) = (
        publishes.iter().map(|p| p.merges).sum::<usize>(),
        publishes.iter().filter(|p| p.fold).count(),
    );
    println!(
        "wire_live: {} publishes, {merges} tier merges, {folds} full folds; {} replies overlapped a publish and mixed both corpus states",
        publishes.len(),
        done.iter().filter(|d| d.mixed).count()
    );
    Ok(o)
}

fn traced_metrics(o: &mut Outcome, served: &Served, done: &[Done], publishes: &[Publish]) {
    let traced: Vec<(&Done, [u64; 4])> = done
        .iter()
        .filter_map(|d| d.spans.map(|s| (d, s)))
        .collect();
    let pick = |f: &dyn Fn(&Done, &[u64; 4]) -> u64| {
        traced.iter().map(|(d, s)| f(d, s)).collect::<Vec<u64>>()
    };
    o.put_timing(
        "service.queue_wait_ms.p50",
        "service.queue_wait_ms.p99",
        "ms",
        &summary_ms(&pick(&|_, s| s[1])),
    );
    o.put_timing(
        "service.run_ms.p50",
        "service.run_ms.p99",
        "ms",
        &summary_ms(&pick(&|_, s| s[2])),
    );
    let call = |d: &Done| d.timing.done - d.timing.sent;
    o.put_timing(
        "wire.self_ms.p50",
        "wire.self_ms.p99",
        "ms",
        &summary_ms(&pick(&|d, s| call(d).saturating_sub(s[0]))),
    );
    // The wire layer owns call time outside the server's root span; what
    // no span owns is the root's self time (parsing, reply encoding).
    let unowned: u64 = traced.iter().map(|(_, s)| s[3]).sum();
    let total: u64 = traced.iter().map(|(d, _)| call(d)).sum();
    o.put(
        "trace.unattributed_share",
        "ratio",
        unowned as f64 / total.max(1) as f64,
        traced.len(),
        "root-span self time / client call time",
    );
    let plain: Vec<f64> = done
        .iter()
        .filter(|d| d.spans.is_none() && d.state.is_some())
        .map(|d| call(d) as f64)
        .collect();
    let with: Vec<f64> = traced.iter().map(|(d, _)| call(d) as f64).collect();
    o.put(
        "trace.overhead_ratio",
        "ratio",
        median(&with) / median(&plain).max(1.0),
        with.len(),
        "median traced / untraced call",
    );
    o.put(
        "service.mixed_replies",
        "count",
        done.iter().filter(|d| d.mixed).count() as f64,
        done.len(),
        "replies overlapping a publish that mixed both corpus states",
    );
    let lag = summary_ms(&done.iter().map(|d| d.timing.lag()).collect::<Vec<_>>());
    o.put("loadgen.lag_p99_ms", "ms", lag.tail, lag.n, lag.tail_label);

    // Each publish clears the memo and its counters: add up the counts
    // each clear discarded, plus what stands at the end.
    let end = served.service.annotator().cache_stats();
    let (hits, misses) = publishes.iter().fold((end.hits, end.misses), |(h, m), p| {
        (h + p.cache_before.0, m + p.cache_before.1)
    });
    o.put(
        "service.cache.hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
        "query memo, whole run",
    );

    let p = summary_ms(&publishes.iter().map(|p| p.us).collect::<Vec<_>>());
    o.put_timing("store.publish.ms_p50", "store.publish.ms_p99", "ms", &p);
    let n = publishes.len();
    o.put("store.publishes", "count", n as f64, n, "whole run");
    o.put(
        "store.merges",
        "count",
        publishes.iter().map(|p| p.merges).sum::<usize>() as f64,
        n,
        "whole run",
    );
    o.put(
        "store.folds",
        "count",
        publishes.iter().filter(|p| p.fold).count() as f64,
        n,
        "whole run",
    );
    o.put_median(
        "store.overlay_depth",
        "count",
        &publishes.iter().map(|p| p.depth as f64).collect::<Vec<_>>(),
    );
    let pages: usize = publishes.iter().map(|p| p.pages).sum();
    o.put(
        "store.bytes_written_per_page",
        "B",
        publishes.iter().map(|p| p.bytes).sum::<u64>() as f64 / pages.max(1) as f64,
        pages,
        "writer-thread wchar / published pages",
    );
    // Hydration counters restart when a fold or merge remaps the base;
    // sum each mapping's count as it stood before the publish that
    // replaced it.
    let map = served.live.map_stats();
    let hydrations = map.map_or(0, |m| m.hydrations)
        + publishes
            .iter()
            .filter(|p| p.merges > 0 || p.fold)
            .map(|p| p.hydrations_before)
            .sum::<u64>();
    o.put(
        "store.mapped.hydrations",
        "count",
        hydrations as f64,
        n,
        "whole run",
    );
    o.put(
        "store.mapped.resident_mb",
        "MB",
        map.map_or(0, |m| m.resident_bytes) as f64 / (1 << 20) as f64,
        1,
        "end of run",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_overlapping_a_publish_may_match_either_side() {
        assert_eq!(acceptable_states(0, 0), vec![0]);
        // Publish 1 (add A) in progress at send, done at reply.
        assert_eq!(acceptable_states(1, 2), vec![0, 1]);
        // Sent and answered inside publish 2's completed state.
        assert_eq!(acceptable_states(4, 4), vec![0]);
        assert_eq!(acceptable_states(5, 6), vec![0, 2]);
    }

    #[test]
    fn max_rate_interpolates_where_the_tail_crosses_the_limit() {
        let l = LIMIT_MS;
        let steps = [
            (100.0, 0.2 * l, true),
            (200.0, 0.6 * l, true),
            (300.0, 1.4 * l, false),
        ];
        assert_eq!(max_rate(&steps), 250.0);
        assert_eq!(max_rate(&[(100.0, 2.0 * l, false)]), 50.0);
    }
}
