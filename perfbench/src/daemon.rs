//! `daemon_tenants`: two tenants replaying traffic against a
//! `toorjah serve` child process over its wire protocol.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use toorjah::cache::SharedAccessCache;
use toorjah::catalog::{Instance, Schema};
use toorjah::engine::InstanceSource;
use toorjah::server::wire::push_json_string;
use toorjah::server::{
    reply_answers, reply_error_code, reply_number, reply_ok, Service, ServiceConfig, WireClient,
};
use toorjah::system::{Statement, Toorjah};
use toorjah::workload::{
    music_instance, music_schema, traffic, MusicConfig, OverlapParams, TrafficParams,
};

use crate::layers::{Tally, REQUEST};
use crate::oracle::{expected, expected_wire, split_answers, tuple_json};
use crate::stats::ratio;
use crate::trace::{write_csv, Tracer, NO_SPAN};
use crate::{
    closed_loop, proc, timed_setups, us, Client, Options, Outcome, Phase, Report, Sample,
    SETUP_REPEATS,
};

/// Tenants, one connection and one load thread each.
const TENANTS: usize = 2;

/// Every `ASK_EVERY`-th request of a tenant is an `ask` (parse and plan
/// per request); the others `execute` through the statement registry.
const ASK_EVERY: usize = 4;

/// A per-tenant access budget no run exhausts.
const BUDGET: usize = 1_000_000_000;

/// How long a child may take to start listening or to drain.
const CHILD_DEADLINE: Duration = Duration::from_secs(30);

/// A running `toorjah serve` child. Dropping it stops the child.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(bin: &Path, source_file: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(source_file)
            .args(["--addr", "127.0.0.1:0", "--budget", &BUDGET.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("the daemon did not start listening: {line:?}"));
            }
        };
        Ok(Daemon {
            child,
            addr,
            _stdout: stdout,
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits for the child to drain and exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = WireClient::connect(self.addr.as_str(), "bench")
            .map_err(|e| format!("cannot connect: {e}"))?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + CHILD_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("the daemon did not drain in time".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One statement of the traffic and its expected reply answers.
struct Expected {
    text: String,
    /// The `"answers"` fragment as the server renders it, in answer order.
    fragment: String,
    /// The answers as sorted wire tuples, for an order-insensitive check.
    tuples: Vec<String>,
}

struct Setup {
    daemon: Daemon,
    statements: Arc<Vec<Expected>>,
    streams: Vec<Vec<usize>>,
    service: Arc<Service>,
}

fn music_config(opts: &Options) -> MusicConfig {
    if opts.tiny {
        MusicConfig {
            seed: opts.seed,
            ..MusicConfig::small()
        }
    } else {
        MusicConfig {
            artists: 200,
            years: 20,
            songs: 400,
            seed: opts.seed,
            ..MusicConfig::default()
        }
    }
}

/// Writes an instance in the `toorjah` source-file format.
fn write_source(schema: &Schema, instance: &Instance, path: &Path) -> Result<(), String> {
    let mut text = String::new();
    for (id, rel) in schema.iter() {
        let _ = writeln!(text, "relation {}", rel.display(schema.domains()));
        for tuple in instance.full_extension(id) {
            let values: Vec<String> = tuple
                .values()
                .iter()
                .map(|v| match v.as_int() {
                    Some(n) => n.to_string(),
                    None => format!(
                        "\"{}\"",
                        v.as_str().expect("a value is an integer or a string")
                    ),
                })
                .collect();
            let _ = writeln!(text, "{}({})", rel.name(), values.join(", "));
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn setup(opts: &Options, source_file: &Path) -> Result<Setup, String> {
    let schema = music_schema();
    let config = music_config(opts);
    let instance = music_instance(&schema, &config);
    write_source(&schema, &instance, source_file)?;
    let source = InstanceSource::new(schema.clone(), instance);
    let params = TrafficParams {
        tenants: TENANTS,
        requests_per_tenant: if opts.tiny { 20 } else { 1000 },
        statement_pool: if opts.tiny { 8 } else { 400 },
        overlap: OverlapParams {
            queries: 0,
            artist_pool: config.artists,
            title_pool: config.songs,
            seed: opts.seed,
        },
        seed: opts.seed,
    };
    let mut texts: Vec<String> = Vec::new();
    let streams: Vec<Vec<usize>> = traffic(&params)
        .into_iter()
        .map(|tenant| {
            tenant
                .requests
                .into_iter()
                .map(|text| match texts.iter().position(|t| *t == text) {
                    Some(i) => i,
                    None => {
                        texts.push(text);
                        texts.len() - 1
                    }
                })
                .collect()
        })
        .collect();
    let statements = texts
        .into_iter()
        .map(|text| {
            let statement = Statement::parse(&text, &schema).map_err(|e| format!("{text}: {e}"))?;
            let answers = expected(&statement, &source);
            let fragment = format!(
                "[{}]",
                answers.iter().map(tuple_json).collect::<Vec<_>>().join(",")
            );
            Ok(Expected {
                text,
                fragment,
                tuples: expected_wire(&answers),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let daemon = Daemon::start(&opts.server_bin, source_file)?;
    // Warm-up: one round trip shows the daemon serves. Its statement
    // registry and shared cache start empty, as they do whenever the
    // daemon starts; the first requests fill them.
    let mut client =
        WireClient::connect(daemon.addr.as_str(), "warmup").map_err(|e| format!("connect: {e}"))?;
    let reply = client
        .cache_stats()
        .map_err(|e| format!("cache_stats: {e}"))?;
    if !reply_ok(&reply) {
        return Err(format!("the daemon does not answer: {reply}"));
    }
    // The in-process service `server.handle_us` is measured on, configured
    // as `toorjah serve` configures the daemon.
    let service = Service::new(
        Toorjah::builder(source)
            .cache(SharedAccessCache::unbounded())
            .build(),
        ServiceConfig {
            default_budget: BUDGET,
            ..ServiceConfig::default()
        },
    );
    Ok(Setup {
        daemon,
        statements: Arc::new(statements),
        streams,
        service: Arc::new(service),
    })
}

/// Server-side figures a tenant reads from its replies.
#[derive(Debug, Default)]
struct Replies {
    rtt_us: f64,
    exec_us: f64,
    execute_us: f64,
    parse_us: f64,
    plan_us: f64,
    asks: u64,
    ok: u64,
    rejected: u64,
}

struct Tenant {
    name: String,
    client: WireClient,
    statements: Arc<Vec<Expected>>,
    stream: Vec<usize>,
    next_id: i64,
    tracer: Arc<Tracer>,
    service: Arc<Service>,
    replies: Replies,
}

impl Tenant {
    fn connect(setup: &Setup, t: usize, tracer: &Arc<Tracer>) -> Result<Tenant, String> {
        let name = format!("tenant{t}");
        let client = WireClient::connect(setup.daemon.addr.as_str(), &name)
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Tenant {
            name,
            client,
            statements: Arc::clone(&setup.statements),
            stream: setup.streams[t].clone(),
            next_id: 0,
            tracer: Arc::clone(tracer),
            service: Arc::clone(&setup.service),
            replies: Replies::default(),
        })
    }
}

impl Client for Tenant {
    fn request(&mut self, i: u64, _tally: &mut Tally) -> Result<Option<Outcome>, String> {
        let position = self.next_id as usize;
        self.next_id += 1;
        let statement = &self.statements[self.stream[position % self.stream.len()]];
        let verb = if position % ASK_EVERY == ASK_EVERY - 1 {
            "ask"
        } else {
            "execute"
        };
        let mut line = format!("{{\"id\":{},\"verb\":\"{verb}\",\"tenant\":", self.next_id);
        push_json_string(&mut line, &self.name);
        line.push_str(",\"query\":");
        push_json_string(&mut line, &statement.text);
        line.push('}');

        let start = Instant::now();
        let reply = self
            .client
            .round_trip(&line)
            .map_err(|e| format!("round trip: {e}"))?;
        let end = Instant::now();
        let latency = end - start;
        let root = self.tracer.record(REQUEST, NO_SPAN, i, start, end);
        if self.tracer.is_enabled() {
            let handled = Instant::now();
            std::hint::black_box(self.service.handle_line(&line));
            self.tracer
                .record("server.handle_line", root, i, handled, Instant::now());
        }
        if !reply_ok(&reply) {
            if reply_error_code(&reply) == Some("admission_rejected") {
                self.replies.rejected += 1;
            }
            return Ok(Some(Outcome::Failed));
        }
        let fragment = reply_answers(&reply).unwrap_or("");
        if fragment != statement.fragment && split_answers(fragment) != statement.tuples {
            return Err(format!("wrong answers for {}: {fragment}", statement.text));
        }
        let field = |name| reply_number(&reply, name).unwrap_or(0) as f64;
        self.replies.ok += 1;
        self.replies.rtt_us += us(latency);
        self.replies.exec_us += field("total");
        self.replies.execute_us += field("execute");
        if verb == "ask" {
            self.replies.asks += 1;
            self.replies.parse_us += field("parse");
            self.replies.plan_us += field("plan");
        }
        Ok(Some(Outcome::Done(Sample {
            latency,
            ttfa: Some(latency),
            accesses: field("accesses_performed") as u64,
        })))
    }
}

/// Runs every tenant's closed loop on its own thread for `seconds`.
fn load(tenants: &mut [Tenant], seconds: f64, first: u64, pid: &str) -> Result<Phase, String> {
    let cpu = proc::cpu_seconds(pid);
    let phases: Vec<Result<Phase, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .enumerate()
            .map(|(t, tenant)| {
                // Disjoint request ids per tenant.
                let first = first + (t as u64) * (1 << 40);
                scope.spawn(move || closed_loop(seconds, first, tenant, &mut Tally::default()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a load thread panicked".to_string()))
            })
            .collect()
    });
    let mut merged = Phase::default();
    for phase in phases {
        merged.merge(phase?);
    }
    merged.cpu_s = proc::cpu_seconds(pid) - cpu;
    Ok(merged)
}

/// Numbers of a `cache_stats` or `metrics` reply.
fn daemon_numbers(addr: &str, fields: &[&str]) -> Result<Vec<f64>, String> {
    let mut client = WireClient::connect(addr, "bench").map_err(|e| format!("connect: {e}"))?;
    let stats = client
        .cache_stats()
        .map_err(|e| format!("cache_stats: {e}"))?;
    let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    Ok(fields
        .iter()
        .map(|f| {
            reply_number(&stats, f)
                .or_else(|| reply_number(&metrics, f))
                .unwrap_or(0) as f64
        })
        .collect())
}

const DAEMON_FIELDS: [&str; 6] = [
    "hits",
    "coalesced_hits",
    "misses",
    "evictions",
    "bytes",
    "symbols",
];

/// `daemon_tenants`: server-bound traffic from two tenants.
pub fn daemon_tenants(opts: &Options) -> Result<Report, String> {
    let source_file: PathBuf = opts.out_dir.join(format!("daemon-{}.toorjah", opts.seed));
    let tracer = Arc::new(Tracer::default());
    let mut report = Report::default();
    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let (setup, setup_s) = timed_setups(repeats, || setup(opts, &source_file))?;
    let pid = setup.daemon.pid();
    let mut tenants = (0..TENANTS)
        .map(|t| Tenant::connect(&setup, t, &tracer))
        .collect::<Result<Vec<_>, _>>()?;
    if !opts.trace {
        let phase = load(&mut tenants, opts.seconds, 1, &pid)?;
        report.end_to_end(&setup_s, &phase, proc::peak_rss_mb(&pid));
    } else {
        let untraced = load(&mut tenants, opts.seconds / 2.0, 1, &pid)?;
        for tenant in &mut tenants {
            tenant.replies = Replies::default();
        }
        let before = daemon_numbers(&setup.daemon.addr, &DAEMON_FIELDS)?;
        tracer.set_enabled(true);
        let traced = load(&mut tenants, opts.seconds / 2.0, 1 << 20, &pid)?;
        tracer.set_enabled(false);
        let after = daemon_numbers(&setup.daemon.addr, &DAEMON_FIELDS)?;
        let spans = tracer.take();
        write_csv(&spans, &opts.out_dir.join("spans-daemon_tenants.csv"))
            .map_err(|e| format!("cannot write the spans: {e}"))?;
        let mut r = Replies::default();
        for tenant in &tenants {
            let t = &tenant.replies;
            r.rtt_us += t.rtt_us;
            r.exec_us += t.exec_us;
            r.execute_us += t.execute_us;
            r.parse_us += t.parse_us;
            r.plan_us += t.plan_us;
            r.asks += t.asks;
            r.ok += t.ok;
            r.rejected += t.rejected;
        }
        let handle_us: f64 = spans
            .iter()
            .filter(|s| s.name == "server.handle_line")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .sum();
        let n = r.ok as f64;
        let delta = |k: usize| after[k] - before[k];
        let lookups = delta(0) + delta(1) + delta(2);
        report.metrics.extend([
            ("query.parse_us", ratio(r.parse_us, r.asks as f64)),
            ("core.prepare_us", ratio(r.plan_us, r.asks as f64)),
            ("core.plan_share", ratio(r.parse_us + r.plan_us, r.rtt_us)),
            ("engine.execute_us", ratio(r.execute_us, n)),
            ("engine.self_us", ratio(r.execute_us, n)),
            ("cache.hit_ratio", ratio(delta(0) + delta(1), lookups)),
            ("cache.evictions_per_query", ratio(delta(3), n)),
            ("cache.coalesced_per_query", ratio(delta(1), n)),
            ("cache.bytes", after[4]),
            ("catalog.symbols_per_query", ratio(delta(5), n)),
            ("server.rtt_us", ratio(r.rtt_us, n)),
            ("server.exec_us", ratio(r.exec_us, n)),
            ("server.wire_us", ratio(r.rtt_us - r.exec_us, n)),
            ("server.handle_us", ratio(handle_us, n)),
            (
                "server.rejected_share",
                ratio(r.rejected as f64, traced.attempted() as f64),
            ),
        ]);
        let share = |x: f64| ratio(x, r.rtt_us);
        report.notes.push(format!(
            "layer shares of round-trip time: wire {:.3}, server parse {:.3}, plan {:.3}, \
             execute {:.3}, server other {:.3}",
            share(r.rtt_us - r.exec_us),
            share(r.parse_us),
            share(r.plan_us),
            share(r.execute_us),
            share(r.exec_us - r.parse_us - r.plan_us - r.execute_us),
        ));
        report.traced(&untraced, &traced);
    }
    drop(tenants);
    setup.daemon.shutdown()?;
    Ok(report)
}
