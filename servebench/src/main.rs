//! `skydiver-servebench --workload NAME --seed N --seconds S --trace 0|1
//! --server-bin PATH`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use skydiver_servebench::proc::WorkDir;
use skydiver_servebench::report::{END_TO_END, PER_LAYER, WORKLOAD_END_TO_END};
use skydiver_servebench::workloads::{self, Cx};

fn parse() -> Result<(String, Cx), String> {
    let mut flags = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let bin = PathBuf::from(take("server-bin")?);
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {:?})",
            workloads::WORKLOADS
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = WorkDir::create(&workload)?;
    Ok((
        workload,
        Cx {
            bin,
            seed,
            seconds,
            trace,
            work,
            threads,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cx) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match workloads::run(&workload, &cx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (attempted, failed) = (report.tally.attempted, report.tally.failed_total());
    report.set("failed_share", failed as f64 / attempted.max(1) as f64);
    eprintln!(
        "# {workload} seed={} seconds={} trace={} nproc={}",
        cx.seed, cx.seconds, cx.trace as u8, cx.threads
    );
    for note in &report.notes {
        eprintln!("#   {note}");
    }
    eprintln!(
        "#   failed_share = {failed} / {attempted} attempted {:?}",
        report.tally.failed
    );
    let list = if cx.trace { PER_LAYER } else { END_TO_END };
    let extra = PER_LAYER
        .iter()
        .filter(|(name, _)| !cx.trace && WORKLOAD_END_TO_END.contains(name));
    for (name, unit) in list.iter().chain(extra) {
        let v = report.values.get(*name).copied().unwrap_or(0.0);
        eprintln!("  {name:<32} {v:>16.4} {unit}");
    }
    println!("{}", report.json(list, failed == 0 && attempted > 0));
    ExitCode::SUCCESS
}
