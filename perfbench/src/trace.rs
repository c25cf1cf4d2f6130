//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it and the
//! request it belongs to. Spans are kept in memory while the run measures
//! and written out when it ends. When the tracer is off, [`Tracer::span`]
//! calls straight through: untraced runs pay one atomic load per call.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span identifier; [`NO_SPAN`] marks a root.
pub type SpanId = u32;

/// The parent of a root span.
pub const NO_SPAN: SpanId = 0;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's identifier (never [`NO_SPAN`]).
    pub id: SpanId,
    /// The span that caused it, or [`NO_SPAN`].
    pub parent: SpanId,
    /// The request it belongs to; 0 for set-up work.
    pub request: u64,
    /// The layer call it covers, e.g. `engine.execute`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    /// The span that calls made on other threads (source accesses from
    /// dispatch workers) attach to.
    ambient: AtomicU32,
    request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            ambient: AtomicU32::new(NO_SPAN),
            request: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the request that spans without an explicit one belong to.
    pub fn set_request(&self, request: u64) {
        self.request.store(request, Ordering::SeqCst);
    }

    /// The span that calls made on other threads attach to.
    pub fn ambient(&self) -> SpanId {
        self.ambient.load(Ordering::SeqCst)
    }

    /// Runs `f` inside a span named `name` under `parent`, in the current
    /// request. `f` receives the new span's id to parent its own calls.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.is_enabled() {
            return f(NO_SPAN);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let request = self.request.load(Ordering::SeqCst);
        self.push(id, parent, request, name, start, Instant::now());
        out
    }

    /// [`Tracer::span`], with the new span as the ambient parent while `f`
    /// runs, so calls `f` makes on other threads nest under it.
    pub fn span_ambient<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.span(name, parent, |id| {
            let outer = self.ambient.swap(id, Ordering::SeqCst);
            let out = f(id);
            self.ambient.store(outer, Ordering::SeqCst);
            out
        })
    }

    /// Records a span timed by the caller, for an explicit request.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.is_enabled() {
            return NO_SPAN;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, request, name, start, end);
        id
    }

    fn push(
        &self,
        id: SpanId,
        parent: SpanId,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let nanos = |t: Instant| u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: nanos(start),
            end_ns: nanos(end),
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span buffer")
            .push(span);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no thread panics while holding the span buffer"),
        )
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover. Overlapping children (parallel source round trips) are
/// counted once; a child's time outside its parent is ignored. Aligned
/// with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut index = std::collections::HashMap::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        index.insert(s.id, i);
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Writes spans as CSV (`id,parent,request,name,start_ns,end_ns`).
pub fn write_csv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, NO_SPAN, 0, 100),
            // Two overlapping children cover 10..40 once: 30 ns.
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            // A disjoint child covers 60..70.
            span(4, 1, 60, 70),
            // A grandchild does not count against the root.
            span(5, 4, 61, 69),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 2, 8]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, NO_SPAN, 50, 100),
            span(2, 1, 40, 60),
            span(3, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        // A child nested inside another child's interval adds nothing.
        let spans = [
            span(1, NO_SPAN, 0, 100),
            span(2, 1, 0, 50),
            span(3, 1, 10, 20),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn tracer_records_nesting_and_ambient_parents() {
        let tracer = Tracer::default();
        tracer.span("off", NO_SPAN, |id| assert_eq!(id, NO_SPAN));
        assert!(tracer.take().is_empty());

        tracer.set_enabled(true);
        tracer.set_request(7);
        let (outer, inner) = tracer.span_ambient("outer", NO_SPAN, |outer| {
            let inner = std::thread::scope(|s| {
                s.spawn(|| tracer.span("inner", tracer.ambient(), |id| id))
                    .join()
                    .expect("the span thread does not panic")
            });
            (outer, inner)
        });
        assert_eq!(tracer.ambient(), NO_SPAN);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let inner_span = spans.iter().find(|s| s.id == inner).expect("inner span");
        assert_eq!((inner_span.parent, inner_span.request), (outer, 7));
    }
}
