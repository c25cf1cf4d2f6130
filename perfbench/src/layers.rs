//! Per-layer metrics from the spans and counters of a traced phase.

use std::hint::black_box;

use toorjah::cache::CacheStats;
use toorjah::catalog::Schema;
use toorjah::core::{
    analyze_minimality, gfp, order_sources, DGraph, OptimizedDGraph, Planned, Planner,
};
use toorjah::query::{minimize, preprocess};
use toorjah::system::Response;

use crate::source::SourceCounts;
use crate::stats::{mean, ratio};
use crate::trace::{self_times, Span, Tracer, NO_SPAN};
use crate::Report;

/// Root span of one request.
pub const REQUEST: &str = "request";
/// `Statement::parse`.
pub const PARSE: &str = "query.parse";
/// `Toorjah::prepare`.
pub const PREPARE: &str = "core.prepare";
/// `Prepared::execute`.
pub const EXECUTE: &str = "engine.execute";
/// Source round trips (`access`, `access_batch`).
pub const SOURCE: [&str; 2] = ["source.access", "source.access_batch"];

/// Counts a traced phase accumulates besides its spans.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests completed in the traced phase.
    pub requests: u64,
    /// Accesses the engine requested, before pruning and caching.
    pub requested: u64,
    /// Requested accesses the runtime relevance pruner dropped.
    pub pruned: u64,
    /// Frontiers (evaluator rounds with work) dispatched.
    pub frontiers: u64,
    /// Derivations the `Magic` tier suppressed.
    pub suppressed: u64,
    /// Answers returned.
    pub answers: u64,
    /// Source accesses performed.
    pub accesses: u64,
    /// GFP iterations per planned query.
    pub gfp_iterations: Vec<f64>,
    /// Time to first answer over latency, per streaming request.
    pub ttfa_shares: Vec<f64>,
    /// The largest ratio of streaming to parallel accesses for one statement.
    pub streaming_access_ratio: f64,
    /// Source-boundary counts accrued in the phase.
    pub source: SourceCounts,
    /// Session-cache statistics at the start and end of the phase.
    pub cache: (CacheStats, CacheStats),
    /// Interner symbols added in the phase.
    pub symbols: u64,
}

impl Tally {
    /// Adds one response's dispatch account.
    pub fn record(&mut self, response: &Response) {
        let dispatch = &response.profile.dispatch;
        self.requests += 1;
        self.requested += dispatch.total_requested() as u64;
        self.pruned += dispatch.accesses_pruned as u64;
        self.frontiers += dispatch.frontiers() as u64;
        self.suppressed += dispatch.derivations_suppressed as u64;
        self.answers += response.answers.len() as u64;
        self.accesses += response.profile.accesses_performed;
    }
}

/// Re-runs the planner's public steps on `planned`'s query, each in its
/// own span, and records the GFP iteration count. Mirrors
/// `Planner::plan` with the default planner.
pub fn replan(
    tracer: &Tracer,
    planned: &Planned,
    schema: &Schema,
    tally: &mut Tally,
) -> Result<(), String> {
    let planner = Planner::default();
    let minimized = tracer.span("core.minimize", NO_SPAN, |_| minimize(&planned.original));
    let pre = tracer
        .span("core.preprocess", NO_SPAN, |_| {
            preprocess(&minimized, schema)
        })
        .map_err(|e| format!("preprocess: {e}"))?;
    let graph = tracer
        .span("core.dgraph", NO_SPAN, |_| DGraph::build(&pre))
        .map_err(|e| format!("d-graph: {e}"))?;
    let (solution, gfp_stats) = tracer.span("core.gfp", NO_SPAN, |_| gfp(&graph));
    let optimized = OptimizedDGraph::new(graph, solution);
    let ordering = tracer
        .span("core.ordering", NO_SPAN, |_| {
            order_sources(&optimized, planner.heuristic)
        })
        .map_err(|e| format!("ordering: {e}"))?;
    let minimality = tracer.span("core.minimality", NO_SPAN, |_| {
        analyze_minimality(&optimized)
    });
    black_box((ordering, minimality));
    tally.gfp_iterations.push(gfp_stats.iterations as f64);
    Ok(())
}

/// Span totals by name, in microseconds.
struct Totals<'a> {
    spans: &'a [Span],
    selfs: Vec<u64>,
}

impl Totals<'_> {
    fn matching<'s>(
        &'s self,
        names: &'s [&str],
        in_request: bool,
    ) -> impl Iterator<Item = (usize, &'s Span)> + 's {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| names.contains(&s.name) && (!in_request || s.request != 0))
    }

    fn sum_us(&self, names: &[&str], in_request: bool) -> f64 {
        self.matching(names, in_request)
            .map(|(_, s)| s.duration_ns() as f64 / 1e3)
            .sum()
    }

    fn self_us(&self, names: &[&str], in_request: bool) -> f64 {
        self.matching(names, in_request)
            .map(|(i, _)| self.selfs[i] as f64 / 1e3)
            .sum()
    }

    fn count(&self, names: &[&str], in_request: bool) -> f64 {
        self.matching(names, in_request).count() as f64
    }

    fn mean_us(&self, names: &[&str], per: &str) -> f64 {
        ratio(self.sum_us(names, false), self.count(&[per], false))
    }
}

/// Fills the per-layer metrics of an in-process workload.
pub fn local(spans: &[Span], tally: &Tally, report: &mut Report) {
    let totals = Totals {
        spans,
        selfs: self_times(spans),
    };
    let requests = tally.requests as f64;
    let request_us = totals.sum_us(&[REQUEST], true);
    let execute_us = totals.sum_us(&[EXECUTE], true);
    let execute_self_us = totals.self_us(&[EXECUTE], true);
    let executes = totals.count(&[EXECUTE], true);
    let source_us = totals.sum_us(&SOURCE, true);
    let parse_in_requests = totals.sum_us(&[PARSE], true);
    let prepare_in_requests = totals.sum_us(&[PREPARE], true);
    let (before, after) = tally.cache;
    let hits = (after.hits + after.coalesced_hits) - (before.hits + before.coalesced_hits);
    let lookups = after.lookups() - before.lookups();
    let counts = tally.source;
    report.metrics.extend([
        ("query.parse_us", totals.mean_us(&[PARSE], PARSE)),
        ("core.prepare_us", totals.mean_us(&[PREPARE], PREPARE)),
        (
            "core.minimize_us",
            totals.mean_us(&["core.minimize"], "core.minimize"),
        ),
        (
            "core.dgraph_us",
            totals.mean_us(&["core.preprocess", "core.dgraph"], "core.dgraph"),
        ),
        ("core.gfp_us", totals.mean_us(&["core.gfp"], "core.gfp")),
        (
            "core.ordering_us",
            totals.mean_us(&["core.ordering"], "core.ordering"),
        ),
        (
            "core.minimality_us",
            totals.mean_us(&["core.minimality"], "core.minimality"),
        ),
        ("core.gfp_iterations", mean(&tally.gfp_iterations)),
        (
            "core.plan_share",
            ratio(parse_in_requests + prepare_in_requests, request_us),
        ),
        ("engine.execute_us", ratio(execute_us, executes)),
        ("engine.self_us", ratio(execute_self_us, executes)),
        (
            "engine.requested_per_query",
            ratio(tally.requested as f64, requests),
        ),
        (
            "engine.pruned_share",
            ratio(tally.pruned as f64, tally.requested as f64),
        ),
        (
            "engine.frontiers_per_query",
            ratio(tally.frontiers as f64, requests),
        ),
        (
            "engine.suppressed_per_query",
            ratio(tally.suppressed as f64, requests),
        ),
        (
            "engine.answers_per_access",
            ratio(tally.answers as f64, tally.accesses as f64),
        ),
        (
            "source.round_trips_per_query",
            ratio(counts.round_trips as f64, requests),
        ),
        (
            "source.keys_per_round_trip",
            ratio(counts.keys as f64, counts.round_trips as f64),
        ),
        ("source.busy_us_per_query", ratio(source_us, requests)),
        ("source.concurrency", ratio(source_us, execute_us)),
        (
            "source.tuples_per_access",
            ratio(counts.tuples as f64, counts.keys as f64),
        ),
        ("cache.hit_ratio", ratio(hits as f64, lookups as f64)),
        (
            "cache.evictions_per_query",
            ratio((after.evictions - before.evictions) as f64, requests),
        ),
        (
            "cache.coalesced_per_query",
            ratio(
                (after.coalesced_hits - before.coalesced_hits) as f64,
                requests,
            ),
        ),
        ("cache.bytes", after.bytes as f64),
        ("system.ttfa_share", mean(&tally.ttfa_shares)),
        (
            "system.streaming_access_ratio",
            tally.streaming_access_ratio,
        ),
        (
            "catalog.symbols_per_query",
            ratio(tally.symbols as f64, requests),
        ),
    ]);
    let share = |us: f64| ratio(us, request_us);
    let (parse, plan) = (share(parse_in_requests), share(prepare_in_requests));
    let (engine, source) = (share(execute_self_us), share(execute_us - execute_self_us));
    report.notes.push(format!(
        "layer shares of request time: parse {parse:.3}, plan {plan:.3}, engine {engine:.3}, \
         source {source:.3}, other {:.3}",
        1.0 - parse - plan - engine - source
    ));
}
