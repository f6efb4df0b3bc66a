//! xqdb benchmark: one workload, one seed, one run.
//!
//! ```text
//! cargo run --release --manifest-path xqbench/Cargo.toml -- \
//!     --workload xquery_reads --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `xquery_reads`, `sql_server`, `dml_durable` (see
//! `BENCHMARK.json` and `xqbench/LAYERS.md`). With `--trace 0` the result
//! line carries the end-to-end metrics; with `--trace 1` the per-layer
//! metrics, the spans are written to `.bench_traces/`, and the tracing
//! overhead is reported. The process exits non-zero on any correctness
//! mismatch.

mod common;
mod data;
mod dml_durable;
mod layers;
mod report;
mod spans;
mod sql_server;
mod xquery_reads;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Res, Run, FSYNC};
use layers::Layers;
use report::Outcome;

const WORKLOADS: [&str; 3] = ["xquery_reads", "sql_server", "dml_durable"];

fn parse_args(args: &[String]) -> Res<(String, Run)> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let seed = seed.unwrap_or(1);
    let work =
        PathBuf::from(".bench_data").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok((
        workload,
        Run {
            seed,
            seconds,
            trace: trace.unwrap_or(false),
            work,
        },
    ))
}

fn run(workload: &str, r: &Run) -> Res<Outcome> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut layers = Layers::default();
    let m = match workload {
        "xquery_reads" => xquery_reads::run(r, &mut out, &mut layers)?,
        "sql_server" => sql_server::run(r, &mut out, &mut layers)?,
        _ => dml_durable::run(r, &mut out, &mut layers)?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.notes.insert(
        0,
        format!(
            "run: workload={workload} seed={} seconds={} trace={} nproc={nproc} pool_frames={} \
             fsync={FSYNC:?} engine_threads={}",
            r.seed,
            r.seconds,
            u8::from(r.trace),
            xqdb_pager::buffer_pages_from_env(),
            xqdb_runtime::RuntimeConfig::default().effective_threads(),
        ),
    );
    out.note(format!("samples: {}", m.counts()));
    if r.trace {
        layers.emit(&mut out);
        let path = PathBuf::from(".bench_traces").join(format!("{workload}-seed{}.tsv", r.seed));
        layers
            .log
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.note(format!(
            "spans: {} written to {}",
            layers.log.spans.len(),
            path.display()
        ));
        // The traced run's own end-to-end figures, for comparison with an
        // untraced run of the same seed.
        let mut traced = Outcome::default();
        m.emit(&mut traced);
        for metric in traced.metrics {
            out.note(format!(
                "traced {} = {:.4} {}",
                metric.name, metric.value, metric.unit
            ));
        }
    } else {
        m.emit(&mut out);
        let ok = out.attempted.saturating_sub(out.failed);
        out.metric("ok_ratio", ok as f64 / out.attempted.max(1) as f64, "ratio");
    }
    out.check_finite();
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, r) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("xqbench: {e}");
            eprintln!(
                "usage: xqbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&workload, &r);
    let _ = std::fs::remove_dir_all(&r.work);
    let _ = std::fs::remove_dir(".bench_data");
    match result {
        Ok(out) => {
            print!("{}", out.render());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xqbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, r) = parse_args(&args(
            "--workload sql_server --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(w, "sql_server");
        assert_eq!((r.seed, r.seconds, r.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload dml_durable --trace 2")).is_err());
        assert!(parse_args(&args("--workload dml_durable --seconds")).is_err());
    }
}
