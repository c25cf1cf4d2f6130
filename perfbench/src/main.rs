//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all four) and prints its metrics by name with
//! their units, then, as the last line, the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Exits non-zero
//! without a result when an answer is wrong or a run cannot complete.

use std::path::PathBuf;
use std::process::ExitCode;

use toorjah_perfbench::{run_workload, Options, Report, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<(String, Options), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    let server_bin = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .with_file_name("toorjah");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Options {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            tiny: false,
            out_dir,
            server_bin,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let metrics = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let (mut attempted, mut failed, mut fields) = (0, 0, Vec::new());
    for name in &names {
        let report: Report = match run_workload(name, &opts) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "{name} (seed {}, {} s, {}): {} attempted, {} failed",
            opts.seed,
            opts.seconds,
            if opts.trace { "traced" } else { "untraced" },
            report.attempted,
            report.failed
        );
        print!("{}", report.table(metrics));
        for note in &report.notes {
            println!("  {note}");
        }
        attempted += report.attempted;
        failed += report.failed;
        let prefix = if names.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        // `failed_share` is carried by `failed` and `attempted`: a correct
        // program reads 0 there, which no relative bound can judge.
        let judged: Vec<_> = metrics
            .iter()
            .copied()
            .filter(|(n, _)| *n != "failed_share")
            .collect();
        fields.push(report.json(&judged, &prefix));
    }
    println!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    ExitCode::SUCCESS
}
