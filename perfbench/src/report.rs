//! Result records, run facts, and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

use crate::stats::{summarize, Summary};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value, and how it was taken from them.
    pub n: usize,
    pub how: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric with an explicit provenance note.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, n: usize, how: &str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            n,
            how: how.to_owned(),
        });
    }

    /// Adds the median of per-pass (or per-run) values.
    pub fn put_median(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        let s = summarize(values);
        let (value, n) = s.map_or((0.0, 0), |s| (s.p50, s.n));
        self.put(name, unit, value, n, "median");
    }

    /// Adds a timing's median (`<p50_name>`) and tail (`<tail_name>`).
    pub fn put_timing(&mut self, p50_name: &str, tail_name: &str, unit: &'static str, s: &Summary) {
        self.put(p50_name, unit, s.p50, s.n, "p50");
        self.put(tail_name, unit, s.tail, s.n, s.tail_label);
    }
}

/// Latency samples → summary in milliseconds (an empty set summarizes
/// as a single zero so a missing phase is visible, not a panic).
pub fn summary_ms(samples_us: &[u64]) -> Summary {
    let ms: Vec<f64> = samples_us.iter().map(|&us| us as f64 / 1000.0).collect();
    summarize(&ms).unwrap_or(Summary {
        n: 0,
        p50: 0.0,
        tail: 0.0,
        tail_label: "none",
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process (`/proc/self/stat` fields 14
/// and 15, in clock ticks of the Linux-wide 100 Hz `USER_HZ`).
pub fn cpu_time() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may contain spaces; fields resume after ')'.
            let rest = s.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = fields.get(11)?.parse().ok()?;
            let stime: u64 = fields.get(12)?.parse().ok()?;
            Some(utime + stime)
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// Bytes this thread has passed to `write`-family calls so far
/// (`/proc/thread-self/io`, `wchar`).
pub fn thread_bytes_written() -> u64 {
    std::fs::read_to_string("/proc/thread-self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run facts line: machine, build and CPU-versus-wall, so a run
/// disturbed by a neighbour shows as wall far above CPU.
pub fn facts_line(workload: &str, seed: u64, trace: bool, wall: Duration) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{nproc},\
         \"git_rev\":{},\"rustc\":{},\"wall_s\":{},\"cpu_s\":{}}}",
        json_str(workload),
        json_str(&command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
        wall.as_secs_f64(),
        cpu_time().as_secs_f64(),
    )
}

/// Human-readable metric lines (name, value, unit, sample count).
pub fn metric_lines(o: &Outcome) -> String {
    let mut out = String::new();
    for m in &o.metrics {
        let _ = writeln!(
            out,
            "  {:<34} {:>14.4} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.n, m.how
        );
    }
    out
}

/// The final result line.
pub fn result_json(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}
