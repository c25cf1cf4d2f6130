//! The source boundary: a [`SourceProvider`] decorator that counts every
//! round trip and records a span around it when tracing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use toorjah::catalog::{AccessKey, RelationId, Schema, Tuple};
use toorjah::engine::{AccessResult, EngineError, LoadResult, SourceProvider};

use crate::trace::Tracer;

/// Totals of the source boundary at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// `access` plus `access_batch` calls.
    pub round_trips: u64,
    /// Accesses (relation, binding) requested across all round trips.
    pub keys: u64,
    /// Tuples the source returned.
    pub tuples: u64,
}

impl SourceCounts {
    /// The counts accrued since `earlier`.
    pub fn since(self, earlier: SourceCounts) -> SourceCounts {
        SourceCounts {
            round_trips: self.round_trips - earlier.round_trips,
            keys: self.keys - earlier.keys,
            tuples: self.tuples - earlier.tuples,
        }
    }
}

/// Counters shared between a [`MeteredSource`] and the workload reading
/// them.
#[derive(Default)]
pub struct SourceMeter {
    round_trips: AtomicU64,
    keys: AtomicU64,
    tuples: AtomicU64,
}

impl SourceMeter {
    /// The totals so far.
    pub fn counts(&self) -> SourceCounts {
        SourceCounts {
            round_trips: self.round_trips.load(Ordering::Relaxed),
            keys: self.keys.load(Ordering::Relaxed),
            tuples: self.tuples.load(Ordering::Relaxed),
        }
    }

    fn add(&self, keys: usize, tuples: usize) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.keys.fetch_add(keys as u64, Ordering::Relaxed);
        self.tuples.fetch_add(tuples as u64, Ordering::Relaxed);
    }
}

/// Wraps the provider the engine calls. Counting is always on; spans
/// (`source.access`, `source.access_batch`) are recorded only while the
/// tracer is enabled, parented to the tracer's ambient span.
pub struct MeteredSource<S> {
    inner: S,
    meter: Arc<SourceMeter>,
    tracer: Arc<Tracer>,
}

impl<S: SourceProvider> MeteredSource<S> {
    /// Decorates `inner`, reporting into `meter` and `tracer`.
    pub fn new(inner: S, meter: Arc<SourceMeter>, tracer: Arc<Tracer>) -> Self {
        MeteredSource {
            inner,
            meter,
            tracer,
        }
    }
}

impl<S: SourceProvider> SourceProvider for MeteredSource<S> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError> {
        let result = self
            .tracer
            .span("source.access", self.tracer.ambient(), |_| {
                self.inner.access(relation, binding)
            });
        self.meter
            .add(1, result.as_ref().map_or(0, |tuples| tuples.len()));
        result
    }

    fn access_batch(&self, requests: &[AccessKey]) -> Vec<AccessResult> {
        let results = self
            .tracer
            .span("source.access_batch", self.tracer.ambient(), |_| {
                self.inner.access_batch(requests)
            });
        let tuples = results
            .iter()
            .map(|r| match r {
                LoadResult::Loaded(tuples) => tuples.len(),
                _ => 0,
            })
            .sum();
        self.meter.add(requests.len(), tuples);
        results
    }

    fn full_scan(&self, relation: RelationId) -> Option<Vec<Tuple>> {
        self.inner.full_scan(relation)
    }
}
