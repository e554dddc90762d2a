//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the
//! separate traced run and prints every per-layer metric. The last line
//! of standard output is one JSON object; any failed correctness check
//! exits non-zero without it. See `README.md` for the workloads.

mod batch;
mod live;
mod pipeline;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{facts_line, metric_lines, result_json, Outcome};
use teda_bench::harness::{Fixture, Scale};
use teda_corpus::datasets::gft_benchmark;

/// The workloads, in the order `--smoke` runs them.
const WORKLOADS: [&str; 4] = ["batch_cold", "batch_warm_geo", "wire_live", "cluster_cold"];

/// Every end-to-end metric, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("f1_micro", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms.low", "ms"),
    ("req_p99_ms.low", "ms"),
    ("req_p50_ms.high", "ms"),
    ("req_p99_ms.high", "ms"),
    ("max_rate_rps", "1/s"),
    ("publish_p99_ms", "ms"),
];

/// Every per-layer metric, reported by every workload with `--trace 1`;
/// a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("core.preprocess.busy_ms", "ms"),
    ("core.preprocess.pruned_ratio", "ratio"),
    ("geo.spatial.busy_ms", "ms"),
    ("geo.memo.hit_ratio", "ratio"),
    ("core.query.busy_ms", "ms"),
    ("core.cache.busy_ms", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("websim.rank.busy_ms", "ms"),
    ("websim.rank.calls", "count"),
    ("websim.rank.us_p50", "us"),
    ("websim.rank.us_p99", "us"),
    ("websim.hydrate.busy_ms", "ms"),
    ("core.vote.busy_ms", "ms"),
    ("core.vote.annotated_ratio", "ratio"),
    ("text.featurize.us_per_snippet", "us"),
    ("classifier.score.us_per_snippet", "us"),
    ("core.postprocess.busy_ms", "ms"),
    ("cluster.search.busy_ms", "ms"),
    ("cluster.search.calls", "count"),
    ("cluster.search.us_p50", "us"),
    ("cluster.search.us_p99", "us"),
    ("cluster.retries", "count"),
    ("cluster.partials", "count"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.run_ms.p50", "ms"),
    ("service.run_ms.p99", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.mixed_replies", "count"),
    ("wire.self_ms.p50", "ms"),
    ("wire.self_ms.p99", "ms"),
    ("store.publish.ms_p50", "ms"),
    ("store.publish.ms_p99", "ms"),
    ("store.publishes", "count"),
    ("store.merges", "count"),
    ("store.folds", "count"),
    ("store.overlay_depth", "count"),
    ("store.bytes_written_per_page", "B"),
    ("store.mapped.hydrations", "count"),
    ("store.mapped.resident_mb", "MB"),
    ("trace.pass_busy_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("websim.rank.busy_share", "ratio"),
    ("cluster.search.busy_share", "ratio"),
    ("core.cache.busy_share", "ratio"),
    ("core.vote.busy_share", "ratio"),
    ("geo.spatial.busy_share", "ratio"),
];

/// Seed of the knowledge-base world (entities, gazetteer, the standard
/// Web and the trained classifier) shared by every run. A world is a
/// whole population of entities; fixing it keeps differences in cost
/// between populations out of the run-to-run spread. `--seed` draws
/// everything a workload feeds
/// the program: the benchmark tables, the padded Web, the request
/// pool, the schedule and the delta pages.
const WORLD_SEED: u64 = 42;

/// The standard fixture over the shared world, with the gft-benchmark
/// tables drawn from `seed`.
pub fn fixture(seed: u64) -> Fixture {
    let mut f = Fixture::build(Scale::Standard, WORLD_SEED);
    f.benchmark = gft_benchmark(&f.world, seed);
    f
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Set-up repetitions behind `setup_s`.
    pub setups: usize,
}

/// Why a run produced no result.
#[derive(Debug)]
pub enum Failure {
    Usage(String),
    Setup(String),
    Check(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(m) => write!(f, "usage: {m}"),
            Failure::Setup(m) => write!(f, "set-up failed: {m}"),
            Failure::Check(m) => write!(f, "correctness check failed: {m}"),
        }
    }
}

fn parse(argv: &[String]) -> Result<Option<Args>, Failure> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        setups: batch::SETUPS,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))?;
        let bad = |what: &str| Failure::Usage(format!("{flag} {value}: {what}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value.clone(),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a number"))?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("not a whole number"))?;
                args.seconds = Duration::from_secs(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(Failure::Usage(format!("unknown flag {flag}"))),
        }
    }
    if args.workload.is_empty() {
        return Err(Failure::Usage(format!(
            "--workload <{}> --seed <n> --seconds <s> --trace <0|1>, or --smoke",
            WORKLOADS.join("|")
        )));
    }
    Ok(Some(args))
}

fn run_workload(args: &Args) -> Result<Outcome, Failure> {
    match args.workload.as_str() {
        "batch_cold" => batch::run(batch::Kind::Cold, args),
        "batch_warm_geo" => batch::run(batch::Kind::WarmGeo, args),
        "cluster_cold" => batch::run(batch::Kind::Cluster, args),
        "wire_live" => live::run(args),
        other => Err(Failure::Usage(format!("unknown workload {other}"))),
    }
}

/// Orders the metrics as `names` lists them, filling a per-layer metric
/// the workload did not exercise with 0. A name outside `names`, or a
/// missing end-to-end metric, is a bug in this benchmark.
fn conform(o: &mut Outcome, names: &[(&str, &'static str)], fill: bool) -> Result<(), Failure> {
    if let Some(m) = o
        .metrics
        .iter()
        .find(|m| !names.iter().any(|(n, _)| *n == m.name))
    {
        return Err(Failure::Check(format!("unlisted metric {}", m.name)));
    }
    let mut ordered = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        match o.metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = o.metrics.swap_remove(i);
                if m.unit != unit || !m.value.is_finite() {
                    return Err(Failure::Check(format!(
                        "metric {name}: {} {}",
                        m.value, m.unit
                    )));
                }
                ordered.push(m);
            }
            None if fill => ordered.push(report::Metric {
                name: name.to_owned(),
                unit,
                value: 0.0,
                n: 0,
                how: "not exercised".to_owned(),
            }),
            None => return Err(Failure::Check(format!("workload reported no {name}"))),
        }
    }
    o.metrics = ordered;
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, Failure> {
    let started = Instant::now();
    let mut outcome = run_workload(args)?;
    if args.trace {
        conform(&mut outcome, &PER_LAYER, true)?;
    } else {
        conform(&mut outcome, &END_TO_END, false)?;
    }
    println!(
        "facts {}",
        facts_line(&args.workload, args.seed, args.trace, started.elapsed())
    );
    print!("{}", metric_lines(&outcome));
    Ok(outcome)
}

/// Every workload, untraced and traced, each for one short round.
fn smoke() -> Result<(), Failure> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_owned(),
                seed: 7,
                seconds: Duration::ZERO,
                trace,
                setups: 1,
            };
            let t0 = Instant::now();
            let o = run(&args)?;
            println!(
                "smoke {workload} trace={} ok: {} metrics, {} attempted, {:.1}s",
                u8::from(trace),
                o.metrics.len(),
                o.attempted,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // Every parallel path of the program under test uses this many
    // workers; set before any thread starts.
    std::env::set_var("RAYON_NUM_THREADS", batch::WORKERS.to_string());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&argv) {
        Ok(None) => smoke().map(|()| None),
        Ok(Some(args)) => run(&args).map(Some),
        Err(e) => Err(e),
    };
    match result {
        Ok(Some(outcome)) => {
            println!("{}", result_json(&outcome));
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(if matches!(e, Failure::Usage(_)) { 2 } else { 1 })
        }
    }
}
