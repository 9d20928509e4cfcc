//! `mphbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks every output, and prints a report line (host,
//! provenance, options, every metric with its unit and direction) and, as
//! the last line, the result object. A traced run also writes its span
//! file under `mphbench/out/`.

use mphbench::host;
use mphbench::metrics::{self, END_TO_END, PER_LAYER};
use mphbench::runner::{run, RunConfig};
use mphbench::workloads::{Scale, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mphbench --workload <solo-coarse|solo-fine|serve-mix> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} has no value", pair[0])) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        span_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    let missing = metrics::missing(catalogue, &out.values);
    let correct = out.failed == 0 && missing.is_empty();

    let render = |values: &metrics::Values| {
        let mut all = String::new();
        for (name, value) in values.iter().filter(|(_, v)| v.is_finite()) {
            let d = metrics::def(name).expect("every reported value is catalogued");
            let sep = if all.is_empty() { "" } else { ", " };
            write!(
                all,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.unit,
                d.better.as_str()
            )
            .expect("writing to a String cannot fail");
        }
        all
    };
    let notes: Vec<String> =
        out.notes.iter().take(20).map(|n| format!("\"{}\"", n.replace('"', "'"))).collect();
    println!(
        "{{\"report\": {{{}, \"trace\": {}, \"ops\": {}, \"failed_frac\": {:?}, \
         \"op_wall_tail_percentile\": {:?}, \"op_wall_tail_samples_beyond\": {}, \
         \"missing\": {:?}, \"span_file\": {:?}, \"notes\": [{}], \"metrics\": {{{}}}, \
         \"virtual\": {{{}}}}}}}",
        host::provenance_json(cfg.workload.name(), cfg.seed, &out.options),
        cfg.trace,
        out.ops,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.tail_percentile,
        out.tail_beyond,
        missing,
        out.span_file.as_ref().map(|p| p.display().to_string()).unwrap_or_default(),
        notes.join(", "),
        render(&out.values),
        render(&out.virtuals),
    );
    println!(
        "{}",
        metrics::result_line(correct, out.attempted.max(1), out.failed, catalogue, &out.values)
    );
    ExitCode::SUCCESS
}
