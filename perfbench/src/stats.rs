//! The benchmark's own arithmetic: percentile summaries, span self
//! time, open-loop request timing and the spacing of spread probes.
//! Kept free of I/O and clocks so every rule is unit-tested with exact
//! numbers.

use std::time::Duration;

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; otherwise the next lower rung of [`LADDER`] is used.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first, in per-mille.
const LADDER: [(u64, &str); 6] = [
    (999, "p99.9"),
    (990, "p99"),
    (950, "p95"),
    (900, "p90"),
    (750, "p75"),
    (500, "p50"),
];

/// Median plus the highest ladder percentile with at least
/// [`MIN_BEYOND`] samples beyond it, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is (`"max"` when even the median has
    /// fewer than [`MIN_BEYOND`] samples beyond it).
    pub tail_label: &'static str,
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q * n)`, with the number of samples after that rank.
/// Integer arithmetic, so `q = 0.99, n = 1000` is exactly rank 990.
fn nearest_rank(sorted: &[f64], per_mille: u64) -> (f64, usize) {
    let n = sorted.len() as u64;
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
    (sorted[rank as usize - 1], (n - rank) as usize)
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (p50, _) = nearest_rank(&sorted, 500);
    let (tail, tail_label) = LADDER
        .iter()
        .map(|&(q, label)| (nearest_rank(&sorted, q), label))
        .find(|&((_, beyond), _)| beyond >= MIN_BEYOND)
        .map(|((v, _), label)| (v, label))
        .unwrap_or((sorted[sorted.len() - 1], "max"));
    Some(Summary {
        n: sorted.len(),
        p50,
        tail,
        tail_label,
    })
}

/// The median of `values` (lower middle for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

/// One recorded span: index of its parent in the same list (the root,
/// index 0, names itself) and its interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub parent: usize,
    pub start: u64,
    pub end: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other (parallel
/// work under one parent); covered time is their union, clipped to the
/// parent's interval.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    (0..spans.len())
        .map(|i| {
            let s = spans[i];
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .enumerate()
                .filter(|&(j, c)| j != i && c.parent == i)
                .map(|(_, c)| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|&(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Stack-based self-time accounting for spans that nest strictly on one
/// thread (the offline traced run): `enter` opens a span, `exit` closes
/// the innermost one and returns `(layer, self time)`; the closed span's
/// whole duration is charged to its parent as child time.
#[derive(Debug, Default)]
pub struct SpanStack {
    frames: Vec<(usize, u64, u64)>,
}

impl SpanStack {
    /// Opens a span of `layer` at time `now`.
    pub fn enter(&mut self, layer: usize, now: u64) {
        self.frames.push((layer, now, 0));
    }

    /// Closes the innermost span at time `now`.
    pub fn exit(&mut self, now: u64) -> (usize, u64) {
        let (layer, start, child) = self.frames.pop().expect("exit without enter");
        let total = now.saturating_sub(start);
        if let Some(parent) = self.frames.last_mut() {
            parent.2 += total;
        }
        (layer, total.saturating_sub(child))
    }
}

/// When one open-loop request was due, sent and answered, in µs from
/// the start of its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
}

impl Timing {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall that delays later sends is charged to those requests too.
    pub fn latency(&self) -> u64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> u64 {
        self.sent - self.due
    }
}

/// Drives one connection through its share of an open-loop schedule:
/// waits until each request is due (never sends early), sends it, and
/// records the three instants. A slow reply delays the following sends,
/// and [`Timing::latency`] counts that delay against them.
pub fn drive<N, S, C>(due: &[u64], mut now: N, mut sleep_until: S, mut call: C) -> Vec<Timing>
where
    N: FnMut() -> u64,
    S: FnMut(u64),
    C: FnMut(usize),
{
    due.iter()
        .enumerate()
        .map(|(i, &d)| {
            if now() < d {
                sleep_until(d);
            }
            let sent = now();
            call(i);
            Timing {
                due: d,
                sent,
                done: now(),
            }
        })
        .collect()
}

/// How many of `count` evenly spread probes are due once `done` of a
/// loop lasting `total` has passed: rounded up, so the first comes at
/// the start, and all of them once the loop's time is up.
pub fn spread_due(count: usize, done: Duration, total: Duration) -> usize {
    if done >= total {
        return count;
    }
    let share = done.as_secs_f64() / total.as_secs_f64();
    ((count as f64 * share).ceil() as usize).min(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!((s.n, s.tail_label, s.tail), (1000, "p99", 990.0));
        assert_eq!(s.p50, 500.0);
        // One sample short of p99's ten: fall back to p95.
        let s = summarize(&ramp(999)).unwrap();
        assert_eq!((s.n, s.tail_label, s.tail), (999, "p95", 950.0));
        let s = summarize(&ramp(100)).unwrap();
        assert_eq!((s.n, s.tail_label, s.tail), (100, "p90", 90.0));
        let s = summarize(&ramp(10_000)).unwrap();
        assert_eq!((s.tail_label, s.tail), ("p99.9", 9990.0));
    }

    #[test]
    fn tiny_samples_report_max_and_their_count() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail_label, s.tail), (3, 2.0, "max", 3.0));
        assert!(summarize(&[]).is_none());
        let s = summarize(&ramp(20)).unwrap();
        assert_eq!((s.tail_label, s.tail), ("p50", 10.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            SpanRec {
                parent: 0,
                start: 0,
                end: 100,
            },
            // Two overlapping children: 10..60 is covered once.
            SpanRec {
                parent: 0,
                start: 10,
                end: 40,
            },
            SpanRec {
                parent: 0,
                start: 30,
                end: 60,
            },
            // A grandchild only reduces its own parent.
            SpanRec {
                parent: 1,
                start: 15,
                end: 20,
            },
            // A child overrunning its parent is clipped.
            SpanRec {
                parent: 3,
                start: 18,
                end: 25,
            },
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 3, 7]);
    }

    #[test]
    fn span_stack_charges_children_to_parents() {
        let mut st = SpanStack::default();
        st.enter(0, 0); // cache
        st.enter(1, 10); // rank
        assert_eq!(st.exit(40), (1, 30));
        st.enter(2, 40); // hydrate
        st.enter(3, 45);
        assert_eq!(st.exit(47), (3, 2));
        assert_eq!(st.exit(50), (2, 8));
        assert_eq!(st.exit(60), (0, 20));
    }

    #[test]
    fn one_stall_inflates_the_latency_of_later_requests() {
        let clock = Cell::new(0u64);
        let due: Vec<u64> = (0..8).map(|i| i * 10).collect();
        let timings = drive(
            &due,
            || clock.get(),
            |t| clock.set(t),
            |i| clock.set(clock.get() + if i == 3 { 35 } else { 1 }),
        );
        let latency: Vec<u64> = timings.iter().map(Timing::latency).collect();
        let lag: Vec<u64> = timings.iter().map(Timing::lag).collect();
        assert_eq!(latency, vec![1, 1, 1, 35, 26, 17, 8, 1]);
        assert_eq!(lag, vec![0, 0, 0, 0, 25, 16, 7, 0]);
        // Timed from the send, the stall would hide behind request 3.
        let from_send: Vec<u64> = timings.iter().map(|t| t.done - t.sent).collect();
        assert_eq!(from_send, vec![1, 1, 1, 35, 1, 1, 1, 1]);
    }

    #[test]
    fn spread_probes_fall_due_evenly_and_all_by_the_end() {
        let total = Duration::from_secs(20);
        let at = |ms| spread_due(100, Duration::from_millis(ms), total);
        assert_eq!([at(0), at(1), at(200), at(201)], [0, 1, 1, 2]);
        assert_eq!(
            [at(10_000), at(19_999), at(20_000), at(60_000)],
            [50, 100, 100, 100]
        );
        // A loop with no time (the smoke run) runs them all at once.
        assert_eq!(spread_due(20, Duration::ZERO, Duration::ZERO), 20);
    }
}
