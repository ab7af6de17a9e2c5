//! Command-line entry point of the full-stack benchmark:
//!
//! ```text
//! acdc-e2e-bench --workload <incast|websearch|datapath|churn> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A run that fails a correctness check prints the failures to standard
//! error, no result, and exits with status 1; bad arguments exit with 2.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use acdc_e2e_bench::bench::{self, Workload};
use acdc_e2e_bench::trace;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed `{val}`"))?),
            "--seconds" => {
                seconds = Some(val.parse().map_err(|_| format!("bad --seconds `{val}`"))?)
            }
            "--trace" => {
                traced = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{val}` (0 or 1)")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: traced.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where the traced run writes its spans: under the build directory,
/// which is never committed. One file per workload, overwritten by the
/// next traced run, since a file holds millions of spans.
fn span_path(w: Workload) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target)
        .join("e2e-spans")
        .join(format!("{}.tsv", w.name()))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acdc-e2e-bench: {e}");
            eprintln!(
                "usage: acdc-e2e-bench --workload <incast|websearch|datapath|churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = bench::run(args.workload, args.seed, args.seconds, args.trace);
    let mut prov = out.prov.clone();
    if let Some(t) = &out.trace {
        let path = span_path(args.workload);
        match trace::write_spans(&path, t) {
            Ok(()) => prov.push(("spans".into(), path.display().to_string())),
            Err(e) => eprintln!("acdc-e2e-bench: could not write spans: {e}"),
        }
    }
    let prov: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", prov.join(", "));
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("acdc-e2e-bench: check failed: {v}");
        }
        return ExitCode::from(1);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
