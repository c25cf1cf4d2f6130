//! A tiny run of every workload, untraced and traced.

use std::path::PathBuf;

use toorjah_perfbench::{run_workload, Options, END_TO_END, PER_LAYER, WORKLOADS};

fn options(trace: bool) -> Options {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-smoke-{trace}"));
    std::fs::create_dir_all(&out_dir).expect("the test directory can be created");
    Options {
        seed: 3,
        seconds: 0.4,
        trace,
        tiny: true,
        out_dir,
        server_bin: PathBuf::from(env!("CARGO_BIN_EXE_toorjah")),
    }
}

#[test]
fn every_workload_runs_and_reports_every_metric() {
    for trace in [false, true] {
        let opts = options(trace);
        let names = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        for workload in WORKLOADS {
            let report =
                run_workload(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(report.attempted > 0, "{workload}: no requests");
            assert_eq!(report.failed, 0, "{workload}: failed requests");
            let json = report.json(names, "");
            for (name, unit) in names {
                assert!(
                    json.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload}: no {name} in {json}"
                );
                assert!(
                    json.contains(&format!("\"unit\":\"{unit}\"")),
                    "{workload}: no unit {unit}"
                );
            }
            let positive = match (trace, workload) {
                (false, _) => ["setup_s", "latency_p50_ms", "throughput_qps"],
                (true, "daemon_tenants") => ["server.rtt_us", "server.exec_us", "server.handle_us"],
                (true, _) => [
                    "engine.execute_us",
                    "core.prepare_us",
                    "source.round_trips_per_query",
                ],
            };
            for name in positive {
                assert!(
                    report.metrics.get(name).is_some_and(|&v| v > 0.0),
                    "{workload}: {name} is not positive"
                );
            }
        }
    }
}
