//! The three in-process workloads: `paper_local`, `adhoc_plan` and
//! `remote_session`.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use toorjah::cache::{CacheConfig, CacheStats, SharedAccessCache};
use toorjah::catalog::{Interner, Tuple};
use toorjah::core::is_answerable;
use toorjah::engine::{
    DispatchOptions, InstanceSource, LatencySource, PruningLevel, SourceProvider,
};
use toorjah::system::{ExecMode, Prepared, Response, Statement, Toorjah};
use toorjah::workload::{
    music_instance, music_schema, overlapping_queries, paper_queries, publication_instance,
    publication_schema, random_instance, random_query, random_schema, sparse_instance,
    sparse_query, sparse_schema, GeneratedSchema, MusicConfig, OverlapParams, PublicationConfig,
    RandomParams, SparseConfig,
};

use crate::layers::{self, Tally, EXECUTE, PARSE, PREPARE, REQUEST};
use crate::oracle::{
    body_order_cross_product, canonical, expected, expected_within, naive_accesses,
};
use crate::source::{MeteredSource, SourceMeter};
use crate::stats::median;
use crate::trace::{write_csv, Tracer, NO_SPAN};
use crate::{
    closed_loop, proc, timed_setups, Client, Options, Outcome, Report, Sample, SETUP_REPEATS,
};

/// What [`drive`] needs from an in-process workload.
trait Local: Client {
    /// The counters at the workload's source boundary.
    fn meter(&self) -> &SourceMeter;

    /// The session cache's statistics (default when there is none).
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Lines for the report, after the measured phases.
    fn notes(&self, _report: &mut Report) {}

    /// Measurements taken once after the traced phase.
    fn probe(&mut self, _tally: &mut Tally, _report: &mut Report) -> Result<(), String> {
        Ok(())
    }
}

/// Untraced: sets up [`SETUP_REPEATS`] times and measures `seconds`.
/// Traced: sets up once with spans on, measures half the time untraced and
/// half traced, and reports the per-layer metrics and the difference of
/// the two medians as the tracing overhead.
fn drive<W: Local>(
    name: &str,
    opts: &Options,
    mut setup: impl FnMut(&Arc<Tracer>) -> Result<W, String>,
) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::default());
    let mut report = Report::default();
    if !opts.trace {
        let (mut workload, setup_s) = timed_setups(SETUP_REPEATS, || setup(&tracer))?;
        let phase = closed_loop(opts.seconds, 1, &mut workload, &mut Tally::default())?;
        report.end_to_end(&setup_s, &phase, proc::peak_rss_mb("self"));
        workload.notes(&mut report);
        return Ok(report);
    }
    tracer.set_enabled(true);
    let mut workload = setup(&tracer)?;
    tracer.set_enabled(false);
    let untraced = closed_loop(opts.seconds / 2.0, 1, &mut workload, &mut Tally::default())?;
    let mut tally = Tally::default();
    let (source_before, cache_before) = (workload.meter().counts(), workload.cache_stats());
    let symbols_before = Interner::global().stats().symbols;
    tracer.set_enabled(true);
    let traced = closed_loop(
        opts.seconds / 2.0,
        untraced.attempted() + 1,
        &mut workload,
        &mut tally,
    )?;
    tracer.set_enabled(false);
    tally.source = workload.meter().counts().since(source_before);
    tally.cache = (cache_before, workload.cache_stats());
    tally.symbols = (Interner::global().stats().symbols - symbols_before) as u64;
    workload.probe(&mut tally, &mut report)?;
    let spans = tracer.take();
    write_csv(&spans, &opts.out_dir.join(format!("spans-{name}.csv")))
        .map_err(|e| format!("cannot write the spans: {e}"))?;
    layers::local(&spans, &tally, &mut report);
    report.traced(&untraced, &traced);
    workload.notes(&mut report);
    Ok(report)
}

/// A statement prepared once, with its expected answers.
struct Entry {
    label: String,
    prepared: Prepared,
    expected: Arc<Vec<Tuple>>,
}

/// Compares a response's answers with the oracle's.
fn check(label: &str, answers: &[Tuple], expected: &[Tuple]) -> Result<(), String> {
    let got = canonical(answers.to_vec());
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "wrong answers for {label}: expected {} tuple(s), got {}",
            expected.len(),
            got.len()
        ))
    }
}

/// Executes a prepared entry as one request: checks the answers, counts
/// the response and times it from the call to the full answer set.
fn execute_entry(
    tracer: &Tracer,
    entry: &Entry,
    mode: ExecMode,
    tally: &mut Tally,
) -> Result<Option<Outcome>, String> {
    let start = Instant::now();
    let result = tracer.span(REQUEST, NO_SPAN, |root| {
        tracer.span_ambient(EXECUTE, root, |_| entry.prepared.execute(mode))
    });
    let latency = start.elapsed();
    let Ok(response) = result else {
        return Ok(Some(Outcome::Failed));
    };
    check(&entry.label, &response.answers, &entry.expected)?;
    tally.record(&response);
    let ttfa = match mode {
        ExecMode::Streaming => {
            let ttfa = response.time_to_first_answer.unwrap_or(latency);
            tally
                .ttfa_shares
                .push(ttfa.as_secs_f64() / latency.as_secs_f64());
            Some(ttfa)
        }
        _ => None,
    };
    Ok(Some(Outcome::Done(sample(latency, ttfa, &response))))
}

fn sample(latency: Duration, ttfa: Option<Duration>, response: &Response) -> Sample {
    Sample {
        latency,
        ttfa,
        accesses: response.profile.accesses_performed,
    }
}

/// Prepares `statement` on `system` inside a `core.prepare` span and, in
/// traced runs, re-runs the planner's steps on each planned CQ.
fn prepare(
    tracer: &Tracer,
    system: &Toorjah,
    statement: &Statement,
    tally: &mut Tally,
) -> Result<Prepared, String> {
    let prepared = tracer
        .span(PREPARE, NO_SPAN, |_| system.prepare(statement))
        .map_err(|e| format!("cannot prepare {statement:?}: {e}"))?;
    if tracer.is_enabled() {
        for planned in prepared
            .planned()
            .into_iter()
            .chain(prepared.disjunct_plans())
        {
            layers::replan(tracer, planned, system.schema(), tally)?;
        }
    }
    Ok(prepared)
}

/// The largest ratio of streaming to parallel accesses among
/// `statements`, each executed once per mode at `Runtime` over an
/// uncached, undelayed source; each statement's counts go to the notes.
fn streaming_access_ratio(
    statements: &[(String, InstanceSource, Statement)],
    report: &mut Report,
) -> Result<f64, String> {
    let mut largest: f64 = 0.0;
    for (label, source, statement) in statements {
        let system = Toorjah::builder(source.clone())
            .prune_level(PruningLevel::Runtime)
            .build();
        let prepared = system
            .prepare(statement)
            .map_err(|e| format!("{label}: {e}"))?;
        let accesses = |mode| {
            prepared
                .execute(mode)
                .map(|r| r.profile.accesses_performed)
                .map_err(|e| format!("{label}: {e}"))
        };
        let s = accesses(ExecMode::Streaming)?;
        let p = accesses(ExecMode::Parallel(
            DispatchOptions::parallel(2).with_batch_size(8),
        ))?;
        report.notes.push(format!(
            "streaming vs parallel accesses at runtime pruning, {label}: {s} vs {p}"
        ));
        largest = largest.max(s as f64 / p.max(1) as f64);
    }
    Ok(largest)
}

// ---------------------------------------------------------------------------
// paper_local
// ---------------------------------------------------------------------------

/// The statements over the §V publication schema besides q1–q3: a union
/// and a negated query.
const PUBLICATION_STATEMENTS: [(&str, &str); 2] = [
    (
        "union",
        "q(R) <- rev(R, icde, 2008) ; q(R) <- pub1(P, R), conf(P, icde, 2008)",
    ),
    (
        "negated",
        "q(R) <- pub1(P, R), conf(P, icde, Y), !rev(R, icde, Y)",
    ),
];

/// Relative frequency of each statement in the `paper_local` mix, in the
/// order q1, q2, q3, union, negated, sparse.
const PAPER_WEIGHTS: [usize; 6] = [4, 1, 1, 1, 1, 1];

/// Instances of each schema `paper_local` generates from its seed; the
/// statements run over all of them, so no one instance's quirks (how many
/// witnesses a deep join happens to find) decide a run's figures.
const PAPER_INSTANCES: usize = 3;

/// The pruning levels `paper_local` prepares every statement at.
const LEVELS: [PruningLevel; 3] = [
    PruningLevel::Static,
    PruningLevel::Runtime,
    PruningLevel::Magic,
];

struct PaperLocal {
    tracer: Arc<Tracer>,
    meter: Arc<SourceMeter>,
    entries: Vec<Entry>,
    schedule: Vec<usize>,
    /// Each statement, for the streaming probe.
    statements: Vec<(String, InstanceSource, Statement)>,
    /// GFP iterations of the plans made at set-up.
    gfp_iterations: Vec<f64>,
    /// Latencies in milliseconds per entry, to check the mix's weights.
    latencies: Vec<Vec<f64>>,
}

fn publication_config(tiny: bool, seed: u64) -> PublicationConfig {
    let base = if tiny {
        PublicationConfig::small()
    } else {
        PublicationConfig {
            papers: 120,
            persons: 120,
            conferences: 30,
            years: 8,
            tuples_per_relation: 300,
            seed: 0,
        }
    };
    PublicationConfig { seed, ..base }
}

fn sparse_config(tiny: bool, seed: u64) -> SparseConfig {
    let base = if tiny {
        SparseConfig::small()
    } else {
        SparseConfig::default()
    };
    SparseConfig { seed, ..base }
}

/// A seed for the `k`-th of several instances generated from `seed`.
fn derive_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
}

fn paper_local_setup(opts: &Options, tracer: &Arc<Tracer>) -> Result<PaperLocal, String> {
    let meter = Arc::new(SourceMeter::default());
    let schemas = [publication_schema(), sparse_schema()];
    let parse = |text: &str, on: usize| {
        tracer
            .span(PARSE, NO_SPAN, |_| Statement::parse(text, &schemas[on]))
            .map_err(|e| format!("cannot parse {text}: {e}"))
    };
    // (name, index into `schemas`, statement)
    let mut parsed: Vec<(String, usize, Statement)> = paper_queries(&schemas[0])
        .into_iter()
        .map(|(name, q)| (name.to_string(), 0, Statement::Cq(q)))
        .collect();
    for (name, text) in PUBLICATION_STATEMENTS {
        parsed.push((name.to_string(), 0, parse(text, 0)?));
    }
    parsed.push(("sparse".to_string(), 1, parse(sparse_query(), 1)?));

    let mut tally = Tally::default();
    let (mut entries, mut schedule, mut statements) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..PAPER_INSTANCES {
        let seed = derive_seed(opts.seed, k);
        let sources = [
            InstanceSource::new(
                schemas[0].clone(),
                publication_instance(&schemas[0], &publication_config(opts.tiny, seed)),
            ),
            InstanceSource::new(
                schemas[1].clone(),
                sparse_instance(&schemas[1], &sparse_config(opts.tiny, seed)),
            ),
        ];
        let oracle: Vec<Arc<Vec<Tuple>>> = parsed
            .iter()
            .map(|(_, on, statement)| Arc::new(expected(statement, &sources[*on])))
            .collect();
        for level in LEVELS {
            let systems = sources.each_ref().map(|source| {
                Toorjah::builder(MeteredSource::new(
                    source.clone(),
                    Arc::clone(&meter),
                    Arc::clone(tracer),
                ))
                .prune_level(level)
                .build()
            });
            for (i, (name, on, statement)) in parsed.iter().enumerate() {
                schedule.extend(std::iter::repeat_n(entries.len(), PAPER_WEIGHTS[i]));
                entries.push(Entry {
                    label: format!("{name}@{level}"),
                    prepared: prepare(tracer, &systems[*on], statement, &mut tally)?,
                    expected: Arc::clone(&oracle[i]),
                });
            }
        }
        if k == 0 {
            statements = parsed
                .iter()
                .map(|(name, on, statement)| {
                    (name.clone(), sources[*on].clone(), statement.clone())
                })
                .collect();
        }
    }
    let workload = PaperLocal {
        tracer: Arc::clone(tracer),
        meter,
        entries,
        schedule,
        statements,
        gfp_iterations: std::mem::take(&mut tally.gfp_iterations),
        latencies: Vec::new(),
    };
    // Warm-up: one execution of every prepared statement.
    for entry in &workload.entries {
        if let Some(Outcome::Failed) =
            execute_entry(tracer, entry, ExecMode::Sequential, &mut tally)?
        {
            return Err(format!("{} fails", entry.label));
        }
    }
    Ok(workload)
}

impl Client for PaperLocal {
    fn request(&mut self, i: u64, tally: &mut Tally) -> Result<Option<Outcome>, String> {
        self.tracer.set_request(i);
        let index = self.schedule[i as usize % self.schedule.len()];
        let outcome = execute_entry(
            &self.tracer,
            &self.entries[index],
            ExecMode::Sequential,
            tally,
        )?;
        self.latencies.resize(self.entries.len(), Vec::new());
        // Every answer arrives with the full set.
        Ok(outcome.map(|o| match o {
            Outcome::Done(s) => {
                self.latencies[index].push(crate::ms(s.latency));
                Outcome::Done(Sample {
                    ttfa: Some(s.latency),
                    ..s
                })
            }
            failed => failed,
        }))
    }
}

impl Local for PaperLocal {
    fn meter(&self) -> &SourceMeter {
        &self.meter
    }

    fn notes(&self, report: &mut Report) {
        let mut by_label: Vec<(&str, Vec<f64>)> = Vec::new();
        for (entry, latencies) in self.entries.iter().zip(&self.latencies) {
            match by_label.iter_mut().find(|(label, _)| *label == entry.label) {
                Some((_, all)) => all.extend(latencies),
                None => by_label.push((&entry.label, latencies.clone())),
            }
        }
        let medians: Vec<String> = by_label
            .iter()
            .map(|(label, l)| format!("{label} {:.3}", median(l)))
            .collect();
        report.notes.push(format!(
            "latency p50 per statement (ms): {}",
            medians.join(", ")
        ));
    }

    fn probe(&mut self, tally: &mut Tally, report: &mut Report) -> Result<(), String> {
        tally.gfp_iterations.extend(&self.gfp_iterations);
        tally.streaming_access_ratio = streaming_access_ratio(&self.statements, report)?;
        Ok(())
    }
}

/// `paper_local`: engine-bound prepared statements, in memory.
pub fn paper_local(opts: &Options) -> Result<Report, String> {
    drive("paper_local", opts, |tracer| {
        paper_local_setup(opts, tracer)
    })
}

// ---------------------------------------------------------------------------
// adhoc_plan
// ---------------------------------------------------------------------------

/// Random schemas a run draws its queries over.
const ADHOC_SCHEMAS: usize = 256;

/// Seed of the schemas and instances. They are the same in every run, like
/// the §V schema of `paper_local`: the run's seed draws the queries. Each
/// random schema has its own cost profile, and drawn anew per run they
/// decided the run's mean accesses and tail more than its queries did.
const ADHOC_FIXTURE_SEED: u64 = 0x5EED_AD0C;

/// Queries generated (with their oracle answers) at set-up, and per refill.
const ADHOC_CHUNKS: (usize, usize) = (300, 1000);

/// Most accesses the paper's naive algorithm (Fig. 1) may need for a kept
/// query, which bounds the accesses any plan makes. Random schemas with
/// several input positions per relation produce queries needing over a
/// million; those are execution-bound, and a few of them would decide a
/// planner-bound run's figures.
const ADHOC_MAX_NAIVE_ACCESSES: u64 = 100;

/// Largest cross product a kept query's body builds when joined left to
/// right. The engine joins the answer rule in body order, so a query whose
/// first atoms share no variable multiplies their extensions: one 13-atom
/// query with four such atoms first took 918 ms for 4 accesses.
const ADHOC_MAX_CROSS_PRODUCT: u64 = 1000;

/// Most tuple comparisons the oracle may spend on one query; the rare
/// query whose join would take longer is left out.
const ADHOC_ORACLE_STEPS: u64 = 1_000_000;

/// Requests run during set-up.
const ADHOC_WARMUP: usize = 50;

/// The most atoms over one relation a kept query may have. CQ
/// minimization searches homomorphisms among same-relation atoms; on
/// 10–20-atom queries with a relation three or more times one `ask` took
/// up to 2.8 s (seed 1, 3000 queries), against at most 1.3 ms when every
/// relation occurs at most twice, and a handful of such queries would
/// decide a run's figures.
const ADHOC_MAX_OCCURRENCES: usize = 2;

/// §V-shaped schemas, 10–20-atom queries, tiny instances. Every schema
/// has ten relations, the §V maximum: with fewer, a 10–20-atom query
/// rarely uses each relation at most twice, so a few ten-relation schemas
/// would supply most of a run's queries and decide its figures.
fn adhoc_params(opts: &Options) -> RandomParams {
    RandomParams {
        relations: (10, 10),
        atoms: if opts.tiny { (3, 6) } else { (10, 20) },
        tuples: (5, 20),
        ..RandomParams::paper()
    }
}

struct AdhocPlan {
    tracer: Arc<Tracer>,
    meter: Arc<SourceMeter>,
    seed: u64,
    batches: usize,
    params: RandomParams,
    chunk: (usize, usize),
    schemas: Vec<(GeneratedSchema, InstanceSource, Toorjah)>,
    pool: VecDeque<(usize, String, Vec<Tuple>)>,
    seen: HashSet<String>,
}

/// Up to `count` kept queries over `schemas`, with their answers:
/// `(schema index, query text, expected answers)`.
fn adhoc_queries(
    schemas: &[(GeneratedSchema, InstanceSource, Toorjah)],
    params: &RandomParams,
    seed: u64,
    count: usize,
) -> Vec<(usize, String, Vec<Tuple>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let s = rng.gen_range(0..schemas.len());
        let (generated, source, _) = &schemas[s];
        let Some(query) = random_query(&mut rng, generated, params) else {
            continue;
        };
        let most = query
            .relations()
            .iter()
            .map(|&r| query.occurrences_of(r))
            .max()
            .unwrap_or(0);
        if most > ADHOC_MAX_OCCURRENCES
            || !is_answerable(&query, &generated.schema)
            || naive_accesses(&query, source) > ADHOC_MAX_NAIVE_ACCESSES
            || body_order_cross_product(&query, source) > ADHOC_MAX_CROSS_PRODUCT
        {
            continue;
        }
        let text = query.display(&generated.schema).to_string();
        if let Some(answers) = expected_within(&Statement::Cq(query), source, ADHOC_ORACLE_STEPS) {
            out.push((s, text, answers));
        }
    }
    out
}

impl AdhocPlan {
    /// Adds about `count` fresh queries to the pool, generated on both
    /// cores from seeds derived from the run's seed.
    fn generate(&mut self, count: usize) {
        let (schemas, params) = (&self.schemas, &self.params);
        let seeds = [0, 1].map(|k| derive_seed(self.seed, 2 * self.batches + k));
        self.batches += 1;
        let halves: Vec<_> = std::thread::scope(|scope| {
            let handles = seeds
                .map(|seed| scope.spawn(move || adhoc_queries(schemas, params, seed, count / 2)));
            handles.map(|h| h.join().expect("query generation does not panic"))
        })
        .into_iter()
        .collect();
        for (s, text, answers) in halves.into_iter().flatten() {
            if self.seen.insert(text.clone()) {
                self.pool.push_back((s, text, answers));
            }
        }
    }
}

fn adhoc_setup(opts: &Options, tracer: &Arc<Tracer>) -> Result<AdhocPlan, String> {
    let meter = Arc::new(SourceMeter::default());
    let params = adhoc_params(opts);
    let mut rng = StdRng::seed_from_u64(ADHOC_FIXTURE_SEED);
    let schemas = (0..ADHOC_SCHEMAS)
        .map(|_| {
            let generated = random_schema(&mut rng, &params);
            let instance = random_instance(&mut rng, &generated, &params);
            let source = InstanceSource::new(generated.schema.clone(), instance);
            let system = Toorjah::builder(MeteredSource::new(
                source.clone(),
                Arc::clone(&meter),
                Arc::clone(tracer),
            ))
            .build();
            (generated, source, system)
        })
        .collect();
    let chunk = if opts.tiny { (50, 50) } else { ADHOC_CHUNKS };
    let mut workload = AdhocPlan {
        tracer: Arc::clone(tracer),
        meter,
        seed: opts.seed,
        batches: 0,
        params,
        chunk,
        schemas,
        pool: VecDeque::new(),
        seen: HashSet::new(),
    };
    workload.generate(chunk.0);
    let mut tally = Tally::default();
    for _ in 0..ADHOC_WARMUP.min(chunk.0 / 2) {
        if let Some(Outcome::Failed) = workload.request(0, &mut tally)? {
            return Err("a warm-up query fails".to_string());
        }
    }
    Ok(workload)
}

impl Client for AdhocPlan {
    fn request(&mut self, i: u64, tally: &mut Tally) -> Result<Option<Outcome>, String> {
        let Some((s, text, answers)) = self.pool.pop_front() else {
            return Ok(None);
        };
        let system = &self.schemas[s].2;
        let tracer = &self.tracer;
        tracer.set_request(i);
        let start = Instant::now();
        let result = if tracer.is_enabled() {
            // `ask` split into its three public steps, each in a span.
            tracer.span(REQUEST, NO_SPAN, |root| {
                let statement =
                    tracer.span(PARSE, root, |_| Statement::parse(&text, system.schema()))?;
                let prepared = tracer.span(PREPARE, root, |_| system.prepare(&statement))?;
                let response = tracer
                    .span_ambient(EXECUTE, root, |_| prepared.execute(system.default_mode()))?;
                Ok::<_, toorjah::system::ToorjahError>((Some(prepared), response))
            })
        } else {
            system.ask(&text).map(|response| (None, response))
        };
        let latency = start.elapsed();
        let Ok((prepared, response)) = result else {
            return Ok(Some(Outcome::Failed));
        };
        if let Some(planned) = prepared.as_ref().and_then(|p| p.planned()) {
            layers::replan(tracer, planned, system.schema(), tally)?;
        }
        check(&text, &response.answers, &answers)?;
        tally.record(&response);
        Ok(Some(Outcome::Done(sample(
            latency,
            Some(latency),
            &response,
        ))))
    }

    fn refill(&mut self) -> Result<(), String> {
        self.generate(self.chunk.1);
        Ok(())
    }
}

impl Local for AdhocPlan {
    fn meter(&self) -> &SourceMeter {
        &self.meter
    }
}

/// `adhoc_plan`: planner-bound one-shot `ask` of distinct random CQs.
pub fn adhoc_plan(opts: &Options) -> Result<Report, String> {
    drive("adhoc_plan", opts, |tracer| adhoc_setup(opts, tracer))
}

// ---------------------------------------------------------------------------
// remote_session
// ---------------------------------------------------------------------------

/// One source round trip, as `fig11` charges remote sources.
const ROUND_TRIP: Duration = Duration::from_millis(1);

/// Every `STREAMING_EVERY`-th request runs as `ExecMode::Streaming`.
const STREAMING_EVERY: usize = 4;

/// Requests in the seeded sequence the session cycles through.
const REMOTE_SEQUENCE: usize = 1200;

/// Requests run during set-up, filling the session cache.
const REMOTE_WARMUP: usize = 40;

/// Reorders `queries` into rounds that hold one query of each shape (the
/// text with its quoted constants blanked), in an order drawn from `rng`;
/// each shape keeps its queries' order. A run sees every shape equally
/// often: the shapes that scan every artist cost hundreds of accesses and
/// the others a few, so how often the seed happened to draw them otherwise
/// moved `accesses_per_query` by 20% between seeds. The order within a
/// round is random so that every fourth request, the streaming one, does
/// not always fall on the same shapes.
fn interleave_shapes(queries: Vec<String>, rng: &mut StdRng) -> Vec<String> {
    let shape = |q: &str| {
        q.split('\'')
            .enumerate()
            .map(|(i, part)| if i % 2 == 1 { "?" } else { part })
            .collect::<String>()
    };
    let mut groups: Vec<(String, VecDeque<String>)> = Vec::new();
    for q in queries {
        let key = shape(&q);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push_back(q),
            None => groups.push((key, VecDeque::from([q]))),
        }
    }
    let mut out = Vec::new();
    loop {
        let mut round: Vec<String> = groups
            .iter_mut()
            .filter_map(|(_, g)| g.pop_front())
            .collect();
        if round.is_empty() {
            return out;
        }
        for i in (1..round.len()).rev() {
            round.swap(i, rng.gen_range(0..=i));
        }
        out.extend(round);
    }
}

fn remote_dispatch() -> DispatchOptions {
    DispatchOptions::parallel(2).with_batch_size(8)
}

struct RemoteSession {
    tracer: Arc<Tracer>,
    meter: Arc<SourceMeter>,
    system: Toorjah,
    entries: Vec<Entry>,
    sequence: Vec<usize>,
    cursor: usize,
    statements: Vec<(String, InstanceSource, Statement)>,
    gfp_iterations: Vec<f64>,
}

/// Bytes the session cache holds when every access the workload can make
/// is cached: the free `r3`, `r1` per artist, `r2` per year.
fn working_set_bytes(source: &InstanceSource) -> usize {
    let schema = source.schema();
    let id = |name| schema.relation_id(name).expect("a music relation");
    let (r1, r2, r3) = (id("r1"), id("r2"), id("r3"));
    let cache = SharedAccessCache::unbounded();
    let mut keys: Vec<(toorjah::catalog::RelationId, Tuple)> = vec![(r3, Tuple::empty())];
    let column = |rel, k: usize| {
        let mut values: Vec<_> = source
            .instance()
            .full_extension(rel)
            .iter()
            .map(|t| t[k])
            .collect();
        values.sort();
        values.dedup();
        values
    };
    keys.extend(column(r3, 0).into_iter().map(|a| (r1, Tuple::new(vec![a]))));
    keys.extend(column(r1, 2).into_iter().map(|y| (r2, Tuple::new(vec![y]))));
    for (rel, binding) in keys {
        let tuples = source
            .access(rel, &binding)
            .expect("the key is well-formed");
        cache.insert(rel, &binding, tuples);
    }
    cache.bytes()
}

fn remote_setup(opts: &Options, tracer: &Arc<Tracer>) -> Result<RemoteSession, String> {
    let meter = Arc::new(SourceMeter::default());
    let schema = music_schema();
    let config = if opts.tiny {
        MusicConfig {
            seed: opts.seed,
            ..MusicConfig::small()
        }
    } else {
        MusicConfig {
            artists: 400,
            years: 40,
            seed: opts.seed,
            ..MusicConfig::default()
        }
    };
    let source = InstanceSource::new(schema.clone(), music_instance(&schema, &config));
    let cap = working_set_bytes(&source) / 2;
    let remote = LatencySource::new(source.clone(), ROUND_TRIP).with_real_sleep();
    let system = Toorjah::builder(MeteredSource::new(
        remote,
        Arc::clone(&meter),
        Arc::clone(tracer),
    ))
    .prune_level(PruningLevel::Runtime)
    .dispatch(remote_dispatch())
    .cache_config(CacheConfig::max_bytes(cap))
    .build();
    let texts = interleave_shapes(
        overlapping_queries(&OverlapParams {
            queries: if opts.tiny { 40 } else { REMOTE_SEQUENCE },
            artist_pool: config.artists,
            title_pool: config.songs,
            seed: opts.seed,
        }),
        &mut StdRng::seed_from_u64(opts.seed),
    );
    let mut tally = Tally::default();
    let mut entries: Vec<Entry> = Vec::new();
    let mut statements = Vec::new();
    let mut sequence = Vec::with_capacity(texts.len());
    for text in &texts {
        let index = match entries.iter().position(|e| &e.label == text) {
            Some(index) => index,
            None => {
                let statement = tracer
                    .span(PARSE, NO_SPAN, |_| Statement::parse(text, &schema))
                    .map_err(|e| format!("cannot parse {text}: {e}"))?;
                entries.push(Entry {
                    label: text.clone(),
                    prepared: prepare(tracer, &system, &statement, &mut tally)?,
                    expected: Arc::new(expected(&statement, &source)),
                });
                statements.push((text.clone(), source.clone(), statement));
                entries.len() - 1
            }
        };
        sequence.push(index);
    }
    let mut workload = RemoteSession {
        tracer: Arc::clone(tracer),
        meter,
        system,
        entries,
        sequence,
        cursor: 0,
        statements,
        gfp_iterations: std::mem::take(&mut tally.gfp_iterations),
    };
    for _ in 0..REMOTE_WARMUP.min(texts.len() / 2) {
        if let Some(Outcome::Failed) = workload.request(0, &mut tally)? {
            return Err("a warm-up request fails".to_string());
        }
    }
    Ok(workload)
}

impl Client for RemoteSession {
    fn request(&mut self, i: u64, tally: &mut Tally) -> Result<Option<Outcome>, String> {
        self.tracer.set_request(i);
        let position = self.cursor;
        self.cursor += 1;
        let entry = &self.entries[self.sequence[position % self.sequence.len()]];
        let mode = if position % STREAMING_EVERY == STREAMING_EVERY - 1 {
            ExecMode::Streaming
        } else {
            ExecMode::Parallel(remote_dispatch())
        };
        execute_entry(&self.tracer, entry, mode, tally)
    }
}

impl Local for RemoteSession {
    fn meter(&self) -> &SourceMeter {
        &self.meter
    }

    fn cache_stats(&self) -> CacheStats {
        self.system.cache_stats().unwrap_or_default()
    }

    fn probe(&mut self, tally: &mut Tally, report: &mut Report) -> Result<(), String> {
        tally.gfp_iterations.extend(&self.gfp_iterations);
        let mut quiet = Report::default();
        tally.streaming_access_ratio = streaming_access_ratio(&self.statements, &mut quiet)?;
        report.notes.push(format!(
            "streaming vs parallel accesses: largest ratio {:.4} over {} distinct statements",
            tally.streaming_access_ratio,
            self.statements.len()
        ));
        Ok(())
    }
}

/// `remote_session`: source-latency-bound requests sharing one session
/// cache that holds half the working set.
pub fn remote_session(opts: &Options) -> Result<Report, String> {
    drive("remote_session", opts, |tracer| remote_setup(opts, tracer))
}
