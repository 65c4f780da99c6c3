//! Benchmark runner for the PageRankVM workspace.
//!
//! ```text
//! perfbench <workload> --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (`cold-start`, `serve-fleet`, `serve-rack`,
//! `dc-day`) in this process, checks its outputs, and prints as the last
//! stdout line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The line before it carries the workload's
//! own named figures. Exit status is non-zero when any check fails.
//! See `perfbench/README.md` for what each workload and metric means.

mod cold;
mod common;
mod day;
mod serve;

use common::{Args, Outcome, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let workload = argv
        .next()
        .ok_or("usage: perfbench <workload> --seed N --seconds S --trace 0|1")?;
    let mut args = Args {
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// JSON number with all its digits (non-finite values are a bug).
fn num(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value:?}"))
    } else {
        Err(format!("non-finite metric value {value}"))
    }
}

fn render(args: &Args, outcome: &Outcome, correct: bool) -> Result<(String, String), String> {
    let mut detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"detail\":{{",
        args.workload, args.seed
    );
    for (i, (name, value, unit)) in outcome.detail.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            detail,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(*value)?
        );
    }
    detail.push_str("},\"checks\":{");
    for (i, (name, ok)) in outcome.checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(detail, "{sep}\"{name}\":{ok}");
    }
    detail.push_str("}}");

    let mut metrics = String::new();
    if args.trace {
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)?
            );
        }
    } else {
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = outcome
                .e2e
                .get(name)
                .copied()
                .ok_or(format!("workload did not measure {name}"))?;
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)?
            );
        }
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    Ok((detail, result))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    prvm_par::set_global_threads(threads);
    let mut outcome = match args.workload.as_str() {
        "cold-start" => cold::run(&args, threads)?,
        "serve-fleet" => serve::run(&args, &serve::FLEET)?,
        "serve-rack" => serve::run(&args, &serve::RACK)?,
        "dc-day" => day::run(&args, threads)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if outcome.attempted == 0 {
        return Err("workload attempted no operations".to_string());
    }
    outcome.e2e.insert("peak_rss_mb", common::peak_rss_mb()?);
    let failed_checks: Vec<&str> = outcome
        .checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| name.as_str())
        .collect();
    for name in &failed_checks {
        eprintln!("[perfbench] CHECK FAILED: {name}");
    }
    let correct = failed_checks.is_empty();
    let (detail, result) = render(&args, &outcome, correct)?;
    println!("{detail}");
    println!("{result}");
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            std::process::exit(2);
        }
    }
}
