//! Benchmark-side tracing of the offline pipeline: spans opened around
//! calls into each layer's public functions, from outside the layer.
//! Spans nest strictly per thread, so self time is accounted on a
//! thread-local [`SpanStack`] and summed across threads per layer.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::SpanStack;

/// The layers the offline traced run separates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Preprocess,
    Spatial,
    Query,
    Cache,
    Rank,
    Hydrate,
    ClusterSearch,
    Vote,
    Postprocess,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Preprocess,
        Layer::Spatial,
        Layer::Query,
        Layer::Cache,
        Layer::Rank,
        Layer::Hydrate,
        Layer::ClusterSearch,
        Layer::Vote,
        Layer::Postprocess,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Preprocess => "core.preprocess",
            Layer::Spatial => "geo.spatial",
            Layer::Query => "core.query",
            Layer::Cache => "core.cache",
            Layer::Rank => "websim.rank",
            Layer::Hydrate => "websim.hydrate",
            Layer::ClusterSearch => "cluster.search",
            Layer::Vote => "core.vote",
            Layer::Postprocess => "core.postprocess",
        }
    }

    /// Layers whose individual call latencies are kept for percentiles.
    fn keeps_samples(self) -> bool {
        matches!(self, Layer::Rank | Layer::ClusterSearch)
    }
}

thread_local! {
    static STACK: RefCell<SpanStack> = RefCell::new(SpanStack::default());
}

/// Per-layer self time and call counts, summed over every thread.
pub struct Tracer {
    origin: Instant,
    self_ns: [AtomicU64; 9],
    calls: [AtomicU64; 9],
    /// Whole-call latencies (µs) of the layers in [`Layer::keeps_samples`].
    samples: Mutex<Vec<(Layer, u32)>>,
}

/// A snapshot of one layer's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub calls: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            self_ns: Default::default(),
            calls: Default::default(),
            samples: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` on this thread; it closes on drop.
    pub fn span(&self, layer: Layer) -> Span<'_> {
        let now = self.now();
        STACK.with(|s| s.borrow_mut().enter(layer as usize, now));
        Span {
            tracer: self,
            layer,
            start: now,
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let _span = self.span(layer);
        f()
    }

    /// Current totals of every layer, in [`Layer::ALL`] order.
    pub fn totals(&self) -> [LayerTotals; 9] {
        std::array::from_fn(|i| LayerTotals {
            self_ns: self.self_ns[i].load(Ordering::Relaxed),
            calls: self.calls[i].load(Ordering::Relaxed),
        })
    }

    /// Takes the recorded call latencies of `layer` (µs).
    pub fn take_samples(&self, layer: Layer) -> Vec<u64> {
        let mut all = self.samples.lock().expect("sample lock poisoned");
        let (mine, rest): (Vec<_>, Vec<_>) = all.drain(..).partition(|&(l, _)| l == layer);
        *all = rest;
        mine.into_iter().map(|(_, us)| u64::from(us)).collect()
    }
}

/// An open span; closing it charges self time to its layer.
pub struct Span<'a> {
    tracer: &'a Tracer,
    layer: Layer,
    start: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now();
        let (layer, self_ns) = STACK.with(|s| s.borrow_mut().exit(now));
        debug_assert_eq!(layer, self.layer as usize, "spans must nest");
        self.tracer.self_ns[layer].fetch_add(self_ns, Ordering::Relaxed);
        self.tracer.calls[layer].fetch_add(1, Ordering::Relaxed);
        if self.layer.keeps_samples() {
            let us = ((now - self.start) / 1000).min(u64::from(u32::MAX)) as u32;
            if let Ok(mut samples) = self.tracer.samples.lock() {
                samples.push((self.layer, us));
            }
        }
    }
}
