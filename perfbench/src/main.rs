//! `perfbench`: runs one named workload against the workspace crates'
//! public API and prints its metrics.
//!
//! ```text
//! perfbench --workload <crowdtap|feed_durable|bootstrap_live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from a run whose even-numbered operations are
//! traced. The last line of standard output is the result object; the
//! line before it carries the run's facts (core count, git rev, sample
//! counts, failure breakdown). Both, and the traced run's spans, are also
//! written under `.bench_out/`. See `perfbench/README.md`.

mod clock;
mod dbwrap;
mod layers;
mod probe;
mod procfs;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Outcome, RunConfig};
use std::path::PathBuf;
use workloads::{Kind, Scale};

const USAGE: &str = "usage: perfbench --workload <crowdtap|feed_durable|bootstrap_live> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn detail_json(out: &Outcome) -> String {
    let fields: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work_dir = PathBuf::from(".bench_out");
    let cfg = RunConfig {
        kind: args.kind,
        seed: args.seed,
        trace: args.trace,
        scale: Scale::full(args.seconds),
        work_dir: work_dir.clone(),
    };
    let out = match run::run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let detail = detail_json(&out);
    let result = result_json(&out);
    let file = format!("{{\"detail\": {detail}, \"result\": {result}}}\n");
    if let Err(e) = std::fs::write(work_dir.join(format!("{stem}.json")), file) {
        eprintln!("perfbench: writing the result file: {e}");
    }
    if args.trace {
        if let Err(e) = trace::write_tsv(&work_dir.join(format!("{stem}.spans.tsv")), &out.spans) {
            eprintln!("perfbench: writing spans: {e}");
        }
    }
    println!("{detail}");
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "feed_durable",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                kind: Kind::FeedDurable,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "crowdtap", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "crowdtap", "--seconds"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![run::metric("setup_s", 0.5, "s")],
            detail: vec![("nproc".into(), "2".into())],
            spans: Vec::new(),
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(detail_json(&out), "{\"nproc\": 2}");
    }
}
