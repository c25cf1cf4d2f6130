//! End-to-end and per-layer benchmark of the Toorjah system.
//!
//! Four seeded workloads each stress one layer through the public API:
//!
//! | workload         | bound by | what runs                                         |
//! |------------------|----------|---------------------------------------------------|
//! | `paper_local`    | engine   | the §V statements and the sparse star join, prepared at three pruning levels |
//! | `adhoc_plan`     | planner  | one-shot `ask` of distinct 10–20-atom random CQs  |
//! | `remote_session` | sources  | overlapping music queries over 1 ms round trips and a half-size session cache |
//! | `daemon_tenants` | server   | two tenants replaying traffic against a `toorjah serve` child process |
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run reports the per-layer metrics ([`PER_LAYER`]) from spans the
//! benchmark records around its calls into each layer (see [`trace`]).
//! Every answer is checked against the [`oracle`]; a wrong answer fails
//! the run. See `README.md` for the metric definitions and predictions.

pub mod daemon;
pub mod layers;
pub mod local;
pub mod oracle;
pub mod proc;
pub mod source;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "paper_local",
    "adhoc_plan",
    "remote_session",
    "daemon_tenants",
];

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_qps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ttfa_p50_ms", "ms"),
    ("accesses_per_query", "count"),
    ("failed_share", "ratio"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("query.parse_us", "us"),
    ("core.prepare_us", "us"),
    ("core.minimize_us", "us"),
    ("core.dgraph_us", "us"),
    ("core.gfp_us", "us"),
    ("core.ordering_us", "us"),
    ("core.minimality_us", "us"),
    ("core.gfp_iterations", "count"),
    ("core.plan_share", "ratio"),
    ("engine.execute_us", "us"),
    ("engine.self_us", "us"),
    ("engine.requested_per_query", "count"),
    ("engine.pruned_share", "ratio"),
    ("engine.frontiers_per_query", "count"),
    ("engine.suppressed_per_query", "count"),
    ("engine.answers_per_access", "ratio"),
    ("source.round_trips_per_query", "count"),
    ("source.keys_per_round_trip", "count"),
    ("source.busy_us_per_query", "us"),
    ("source.concurrency", "ratio"),
    ("source.tuples_per_access", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_query", "count"),
    ("cache.coalesced_per_query", "count"),
    ("cache.bytes", "bytes"),
    ("system.ttfa_share", "ratio"),
    ("system.streaming_access_ratio", "ratio"),
    ("catalog.symbols_per_query", "count"),
    ("server.rtt_us", "us"),
    ("server.exec_us", "us"),
    ("server.wire_us", "us"),
    ("server.handle_us", "us"),
    ("server.rejected_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// How many times an untraced run sets up, to report the median.
pub const SETUP_REPEATS: usize = 3;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Tiny inputs, for the self-tests.
    pub tiny: bool,
    /// Where spans and generated files are written.
    pub out_dir: PathBuf,
    /// The `toorjah` binary the daemon workload serves with.
    pub server_bin: PathBuf,
}

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// From issuing the request to holding its full answer set.
    pub latency: Duration,
    /// Time to the first answer, for the requests that measure it.
    pub ttfa: Option<Duration>,
    /// Source accesses the request performed.
    pub accesses: u64,
}

/// The requests of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Completed requests.
    pub samples: Vec<Sample>,
    /// Requests that returned a typed error or were refused.
    pub failed: u64,
    /// Wall-clock length of the phase, excluding paused input generation.
    pub wall: Duration,
    /// CPU seconds the serving process spent in the phase.
    pub cpu_s: f64,
}

impl Phase {
    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    /// Latencies in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| ms(s.latency)).collect()
    }

    /// Appends another phase's requests (a second client's).
    pub fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
        self.wall = self.wall.max(other.wall);
    }
}

/// What a request produced: a sample, or a typed failure.
pub enum Outcome {
    /// Completed with the expected answers.
    Done(Sample),
    /// Returned a typed error or was refused.
    Failed,
}

/// One closed-loop client of a workload.
pub trait Client {
    /// Issues request number `i` and waits for it; `Ok(None)` when the
    /// workload's inputs ran out. A wrong answer is an `Err`.
    fn request(&mut self, i: u64, tally: &mut layers::Tally) -> Result<Option<Outcome>, String>;

    /// Generates more inputs after `request` ran out of them.
    fn refill(&mut self) -> Result<(), String> {
        Err("the workload ran out of inputs".to_string())
    }
}

/// Runs `client`'s requests `first, first + 1, …` back to back (closed
/// loop) until `seconds` of wall-clock have been measured. Refills are
/// left out of the phase's wall-clock and CPU time. An `Err` — a wrong
/// answer — ends the phase.
pub fn closed_loop(
    seconds: f64,
    first: u64,
    client: &mut impl Client,
    tally: &mut layers::Tally,
) -> Result<Phase, String> {
    let budget = Duration::from_secs_f64(seconds);
    let cpu_start = proc::cpu_seconds("self");
    let mut phase = Phase::default();
    let (mut paused, mut cpu_paused) = (Duration::ZERO, 0.0);
    let start = Instant::now();
    let mut i = first;
    while start.elapsed() - paused < budget {
        match client.request(i, tally)? {
            Some(Outcome::Done(sample)) => phase.samples.push(sample),
            Some(Outcome::Failed) => phase.failed += 1,
            None => {
                let (pause, cpu) = (Instant::now(), proc::cpu_seconds("self"));
                client.refill()?;
                paused += pause.elapsed();
                cpu_paused += proc::cpu_seconds("self") - cpu;
                continue;
            }
        }
        i += 1;
    }
    phase.wall = start.elapsed() - paused;
    phase.cpu_s = proc::cpu_seconds("self") - cpu_start - cpu_paused;
    Ok(phase)
}

/// Sets up `repeats` times, keeping the last set-up; returns it with each
/// set-up's seconds. Earlier set-ups are dropped before the next begins.
pub fn timed_setups<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A finished run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted in the reported phase.
    pub attempted: u64,
    /// Requests that failed with a typed error or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Fills the end-to-end metrics from a measured phase.
    pub fn end_to_end(&mut self, setup_s: &[f64], phase: &Phase, peak_rss_mb: f64) {
        let latencies = phase.latencies_ms();
        let ttfa: Vec<f64> = phase
            .samples
            .iter()
            .filter_map(|s| s.ttfa.map(ms))
            .collect();
        let accesses: Vec<f64> = phase.samples.iter().map(|s| s.accesses as f64).collect();
        let completed = phase.samples.len() as f64;
        let tail = stats::tail(&latencies);
        self.attempted = phase.attempted();
        self.failed = phase.failed;
        let values = [
            ("setup_s", stats::median(setup_s)),
            ("throughput_qps", completed / phase.wall.as_secs_f64()),
            ("latency_p50_ms", stats::median(&latencies)),
            ("latency_tail_ms", tail.value),
            ("ttfa_p50_ms", stats::median(&ttfa)),
            ("accesses_per_query", stats::mean(&accesses)),
            (
                "failed_share",
                stats::ratio(phase.failed as f64, self.attempted as f64),
            ),
            (
                "cpu_ms_per_query",
                stats::ratio(phase.cpu_s * 1e3, completed),
            ),
            ("peak_rss_mb", peak_rss_mb),
        ];
        self.metrics.extend(values);
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.3}", stats::nearest_rank(&sorted, d as f64 * 10.0).0))
            .collect();
        self.notes.push(format!(
            "latency deciles p10..p90 (ms): {}",
            deciles.join(" ")
        ));
        self.notes.push(format!(
            "latency_tail_ms is p{} of {} samples ({} beyond it); ttfa_p50_ms over {} samples; \
             set-ups {:?} s",
            tail.percentile,
            tail.samples,
            tail.beyond,
            ttfa.len(),
            setup_s
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
        ));
    }

    /// Attempts, failures and the tracing overhead of a traced run: the
    /// traced phase's median latency minus the untraced phase's.
    pub fn traced(&mut self, untraced: &Phase, traced: &Phase) {
        let plain = stats::median(&untraced.latencies_ms());
        let with_spans = stats::median(&traced.latencies_ms());
        self.attempted = untraced.attempted() + traced.attempted();
        self.failed = untraced.failed + traced.failed;
        self.metrics.insert("trace.overhead_ms", with_spans - plain);
        self.notes.push(format!(
            "tracing overhead: latency p50 {with_spans:.4} ms traced vs {plain:.4} ms untraced \
             ({} and {} requests)",
            traced.samples.len(),
            untraced.samples.len()
        ));
    }

    /// The metric table as printed lines: `name value unit`.
    pub fn table(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<32} {value:>14.4} {unit}");
        }
        out
    }

    /// The result object for `names`:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self, names: &[(&'static str, &'static str)], prefix: &str) -> String {
        let mut out = String::new();
        for (name, unit) in names {
            if !out.is_empty() {
                out.push(',');
            }
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let _ = write!(
                out,
                "\"{prefix}{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            );
        }
        out
    }
}

/// A finite JSON number with all its digits.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{:?}", value + 0.0)
    } else {
        "0.0".to_string()
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, opts: &Options) -> Result<Report, String> {
    match name {
        "paper_local" => local::paper_local(opts),
        "adhoc_plan" => local::adhoc_plan(opts),
        "remote_session" => local::remote_session(opts),
        "daemon_tenants" => daemon::daemon_tenants(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}
