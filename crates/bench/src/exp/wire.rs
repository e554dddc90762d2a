//! The wire front-end under load: sustained requests/sec over loopback
//! TCP, bit-identity against the offline batch path, and the fairness
//! demonstration — a bulk "hog" client and an interactive "trickle"
//! client sharing one drip-fed query pool, where deficit-round-robin
//! admission must keep the trickle's tail latency bounded.
//!
//! Two phases:
//!
//! * **loopback throughput** — several concurrent wire connections
//!   drive the duplicate-heavy throughput corpus through a full worker
//!   pool; every `OK` payload is string-compared against
//!   `render_annotations` of the offline `annotate_table` result (the
//!   wire determinism invariant).
//! * **fairness** — a metered service whose pool starts dry and is
//!   refilled on a timer (the paper's daily allowance, compressed).
//!   First the trickle client runs alone to establish its solo p99;
//!   then a hog streams large tables back to back over its own
//!   connection while the trickle repeats the same cadence. With
//!   per-client token buckets the trickle's p99 must stay within 5× of
//!   its solo baseline — under first-come-first-served pooling it
//!   would instead wait behind the hog's entire queued demand.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teda_corpus::typed_table_to_csv;
use teda_service::{AnnotationService, LatencySummary, ServiceConfig, ServiceStats};
use teda_simkit::tablefmt::{Align, TextTable};
use teda_tabular::Table;
use teda_wire::protocol::render_annotations;
use teda_wire::{WireClient, WireServer};

use crate::exp::throughput::build_corpus;
use crate::harness::Fixture;

/// Trickle requests per fairness window (solo and contended alike);
/// p99 over so few samples is the worst observation, which is exactly
/// the starvation signal the demo is after.
const TRICKLE_REQUESTS: usize = 25;
/// Trickle cadence: one interactive request every this many millis.
const TRICKLE_GAP: Duration = Duration::from_millis(5);
/// Pool refill period (the compressed daily allowance).
const REFILL_EVERY: Duration = Duration::from_millis(2);
/// Baseline floor for the fairness ratio: below this, the solo p99 is
/// measuring scheduler noise, not admission waits.
const SOLO_FLOOR: Duration = Duration::from_millis(5);

/// The wire experiment report.
#[derive(Debug, Clone)]
pub struct WireReport {
    /// Tables pushed through the loopback throughput phase.
    pub offered: usize,
    /// Concurrent wire connections of the throughput phase.
    pub connections: usize,
    /// Wall-clock seconds of the throughput phase.
    pub wall_secs: f64,
    /// Completed wire requests per second (throughput phase).
    pub req_per_sec: f64,
    /// Whether every wire payload was string-identical to the offline
    /// batch rendering of the same table.
    pub deterministic: bool,
    /// Trickle submit-to-reply latency, running alone on the drip-fed
    /// pool.
    pub trickle_solo: LatencySummary,
    /// Trickle latency with the hog saturating the same pool.
    pub trickle_contended: LatencySummary,
    /// `contended p99 / max(solo p99, floor)` — the fairness headline;
    /// must stay ≤ 5.
    pub fairness_ratio: f64,
    /// Hog tables completed during the contended window.
    pub hog_completed: u64,
    /// Final counters of the fairness service (per-client lines
    /// included).
    pub fairness_stats: ServiceStats,
}

/// Runs both phases.
pub fn run(fixture: &Fixture) -> WireReport {
    let tables: Vec<Table> = build_corpus(fixture);
    let offline = fixture.svm_annotator(true, false).into_batch();
    let references: Vec<String> = tables
        .iter()
        .map(|t| render_annotations(&offline.annotate_table(t)))
        .collect();

    // Phase 1: loopback throughput, several connections, full pool.
    let service = Arc::new(AnnotationService::start(
        fixture.svm_annotator(true, false).into_batch(),
        ServiceConfig {
            workers: 0, // all cores
            queue_depth: tables.len().max(4) * 2,
            ..ServiceConfig::default()
        },
    ));
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let connections = 4usize.min(tables.len().max(1));
    let t0 = Instant::now();
    let deterministic = std::thread::scope(|s| {
        let mut checks = Vec::new();
        for conn in 0..connections {
            let tables = &tables;
            let references = &references;
            checks.push(s.spawn(move || {
                let mut client = WireClient::connect(addr).expect("connect loopback");
                client
                    .set_client(&format!("load{conn}"))
                    .expect("CLIENT verb");
                let mut ok = true;
                for i in (conn..tables.len()).step_by(connections) {
                    let payload = client
                        .annotate(&format!("thr_{i}"), &typed_table_to_csv(&tables[i]))
                        .expect("wire annotation");
                    ok &= payload == references[i];
                }
                ok
            }));
        }
        checks.into_iter().all(|c| c.join().expect("load thread"))
    });
    let wall_secs = t0.elapsed().as_secs_f64();
    server.shutdown();
    drop(service);

    // Phase 2: fairness on a drip-fed pool. The trickle is a small
    // interactive lookup; the hog replays a full-size corpus table.
    let trickle_table = {
        use teda_corpus::gft::poi_table;
        use teda_kb::EntityType;
        use teda_simkit::rng_from_seed;
        let mut rng = rng_from_seed(fixture.seed ^ 0x317);
        poi_table(
            &fixture.world,
            EntityType::Restaurant,
            4,
            0,
            "trickle",
            &mut rng,
        )
        .table
    };
    let trickle_table = &trickle_table;
    let hog_table = &tables[1];
    let trickle_need = (trickle_table.n_rows() * trickle_table.n_cols()) as u64;
    let hog_need = (hog_table.n_rows() * hog_table.n_cols()) as u64;
    let service = Arc::new(AnnotationService::start(
        fixture.svm_annotator(true, false).into_batch(),
        ServiceConfig {
            workers: 2,
            query_pool: Some(0),
            // One rotation covers the trickle's whole need.
            fair_quantum: trickle_need,
            ..ServiceConfig::default()
        },
    ));
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let trickle_csv = typed_table_to_csv(trickle_table);
    let trickle_reference = render_annotations(&offline.annotate_table(trickle_table));
    let hog_csv = typed_table_to_csv(hog_table);

    let stop_refill = Arc::new(AtomicBool::new(false));
    let stop_hog = Arc::new(AtomicBool::new(false));
    let (trickle_solo, trickle_contended, hog_completed, fair_ok) = std::thread::scope(|s| {
        // The allowance drip: half a hog table plus a whole trickle
        // table per tick — the hog alone would still make progress,
        // the trickle alone is never starved.
        let refill_service = Arc::clone(&service);
        let stop = Arc::clone(&stop_refill);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                refill_service.add_budget(hog_need / 2 + trickle_need);
                std::thread::sleep(REFILL_EVERY);
            }
        });

        let trickle_window = |client: &mut WireClient| -> (Vec<Duration>, bool) {
            let mut latencies = Vec::with_capacity(TRICKLE_REQUESTS);
            let mut ok = true;
            for i in 0..TRICKLE_REQUESTS {
                let t = Instant::now();
                let payload = client
                    .annotate(&format!("thr_0_{i}"), &trickle_csv)
                    .expect("trickle annotation");
                latencies.push(t.elapsed());
                ok &= payload == trickle_reference;
                std::thread::sleep(TRICKLE_GAP);
            }
            (latencies, ok)
        };

        let mut trickle = WireClient::connect(addr).expect("connect trickle");
        trickle.set_client("trickle").expect("CLIENT verb");

        // Solo window: the trickle alone against the drip.
        let (solo, solo_ok) = trickle_window(&mut trickle);

        // Contended window: the hog saturates its own connection.
        let hog_service_stop = Arc::clone(&stop_hog);
        let hog = s.spawn(move || {
            let mut client = WireClient::connect(addr).expect("connect hog");
            client.set_client("hog").expect("CLIENT verb");
            let mut done = 0u64;
            while !hog_service_stop.load(Ordering::Relaxed) {
                client
                    .annotate(&format!("thr_1_{done}"), &hog_csv)
                    .expect("hog annotation");
                done += 1;
            }
            done
        });
        std::thread::sleep(REFILL_EVERY * 4); // let the hog saturate
        let (contended, contended_ok) = trickle_window(&mut trickle);

        stop_hog.store(true, Ordering::Relaxed);
        let hog_completed = hog.join().expect("hog thread");
        stop_refill.store(true, Ordering::Relaxed);
        (
            LatencySummary::from_latencies(&solo),
            LatencySummary::from_latencies(&contended),
            hog_completed,
            solo_ok && contended_ok,
        )
    });
    let fairness_stats = service.stats();
    server.shutdown();

    let baseline = trickle_solo.p99.max(SOLO_FLOOR);
    WireReport {
        offered: tables.len(),
        connections,
        wall_secs,
        req_per_sec: if wall_secs == 0.0 {
            0.0
        } else {
            tables.len() as f64 / wall_secs
        },
        deterministic: deterministic && fair_ok,
        trickle_solo,
        trickle_contended,
        fairness_ratio: trickle_contended.p99.as_secs_f64() / baseline.as_secs_f64(),
        hog_completed,
        fairness_stats,
    }
}

/// Renders the report.
pub fn render(r: &WireReport) -> String {
    let mut out =
        String::from("Wire front-end: loopback throughput, bit-identity, per-client fairness.\n");
    let mut tbl = TextTable::new(vec!["Metric", "Value"]);
    tbl.align(1, Align::Right);
    tbl.row(vec![
        "loopback throughput".into(),
        format!(
            "{:.1} req/s over {} conns ({:.3} s wall)",
            r.req_per_sec, r.connections, r.wall_secs
        ),
    ]);
    tbl.row(vec![
        "wire == offline batch".into(),
        r.deterministic.to_string(),
    ]);
    tbl.row(vec![
        "trickle solo p50 / p99".into(),
        format!(
            "{:.1} ms / {:.1} ms",
            r.trickle_solo.p50.as_secs_f64() * 1e3,
            r.trickle_solo.p99.as_secs_f64() * 1e3
        ),
    ]);
    tbl.row(vec![
        "trickle contended p50 / p99".into(),
        format!(
            "{:.1} ms / {:.1} ms",
            r.trickle_contended.p50.as_secs_f64() * 1e3,
            r.trickle_contended.p99.as_secs_f64() * 1e3
        ),
    ]);
    tbl.row(vec![
        "fairness ratio (≤ 5 required)".into(),
        format!("{:.2}×", r.fairness_ratio),
    ]);
    tbl.row(vec![
        "hog tables during contention".into(),
        r.hog_completed.to_string(),
    ]);
    for c in &r.fairness_stats.clients {
        tbl.row(vec![
            format!("client {}", c.client),
            format!(
                "{}/{} completed, {} tokens granted",
                c.completed, c.submitted, c.granted
            ),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(
        "(fairness phase: the query pool starts dry and refills on a timer; \
         deficit-round-robin grants keep the interactive client's tail \
         bounded while the bulk client streams — under FCFS pooling the \
         trickle would wait behind the hog's whole queued demand)\n",
    );
    out
}

/// The machine-readable record (satellite of the human table).
pub fn to_json(r: &WireReport) -> crate::report::BenchJson {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut json = crate::report::BenchJson::new("wire");
    json.metric("offered", r.offered as f64, "tables")
        .metric("connections", r.connections as f64, "connections")
        .metric("wall_secs", r.wall_secs, "s")
        .metric("req_per_sec", r.req_per_sec, "req/s")
        .metric("deterministic", flag(r.deterministic), "bool")
        .metric("trickle_solo_p50", ms(r.trickle_solo.p50), "ms")
        .metric("trickle_solo_p99", ms(r.trickle_solo.p99), "ms")
        .metric("trickle_contended_p50", ms(r.trickle_contended.p50), "ms")
        .metric("trickle_contended_p99", ms(r.trickle_contended.p99), "ms")
        .metric("fairness_ratio", r.fairness_ratio, "x")
        .metric("hog_completed", r.hog_completed as f64, "tables");
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::quick_fixture;

    #[test]
    fn wire_experiment_is_deterministic_and_fair() {
        let fixture = quick_fixture();
        let r = run(fixture);
        assert!(
            r.deterministic,
            "wire payloads diverged from the offline batch rendering"
        );
        assert!(r.req_per_sec > 0.0);
        assert!(
            r.hog_completed > 0,
            "the hog must actually stream during the contended window"
        );
        assert!(
            r.fairness_ratio <= 5.0,
            "trickle p99 {:?} exceeds 5x its solo baseline {:?}",
            r.trickle_contended.p99,
            r.trickle_solo.p99
        );
        let stats = &r.fairness_stats;
        assert!(stats.client("hog").is_some());
        assert_eq!(
            stats.client("trickle").unwrap().completed,
            2 * TRICKLE_REQUESTS as u64
        );
        assert!(render(&r).contains("fairness ratio"));
        assert!(to_json(&r).render().contains("\"fairness_ratio\""));
    }
}
