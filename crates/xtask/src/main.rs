//! CLI for the workspace lint pass. See `LINTS.md` for the rule catalog.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use acdc_xtask::{bench, find_workspace_root, json, rules, run_lint};

const USAGE: &str = "\
usage: acdc-xtask <command>

commands:
  lint [--root PATH]        run the workspace lint pass (default root: the
                            enclosing cargo workspace)
  list-rules                print the rule catalog
  bench-diff OLD NEW        compare two BENCH_pr3.json files; exit 1 when a
                            gated ns/pkt median regressed past the threshold
      [--threshold PCT]     regression threshold in percent (default 10)
      [--summary PATH]      append the markdown table to PATH as well
                            (e.g. $GITHUB_STEP_SUMMARY)
  dump-trace [NAME]         list flight-recorder dumps under
                            target/acdc-traces/, or print dump NAME
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("dump-trace") => cmd_dump_trace(&args[1..]),
        Some("list-rules") => {
            for rule in rules::catalog() {
                println!("{} ({}): {}", rule.id, rule.name, rule.summary);
            }
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown lint flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no enclosing cargo workspace; pass --root");
                    return ExitCode::from(2);
                }
            }
        }
    };

    match run_lint(&root) {
        Ok(report) => {
            for finding in &report.findings {
                println!("{}", finding.render());
            }
            if report.is_clean() {
                eprintln!("acdc-xtask lint: {} files clean", report.files_scanned);
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "acdc-xtask lint: {} finding(s) across {} files",
                    report.findings.len(),
                    report.files_scanned
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn read_bench_json(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn cmd_bench_diff(args: &[String]) -> ExitCode {
    let mut files: Vec<&String> = Vec::new();
    let mut threshold = 10.0f64;
    let mut summary: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => threshold = v,
                _ => {
                    eprintln!("error: --threshold requires a non-negative percent");
                    return ExitCode::from(2);
                }
            },
            "--summary" => match it.next() {
                Some(p) => summary = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --summary requires a path");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown bench-diff flag `{flag}`");
                return ExitCode::from(2);
            }
            _ => files.push(arg),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        eprintln!("error: bench-diff needs exactly OLD and NEW json paths\n\n{USAGE}");
        return ExitCode::from(2);
    };

    let (old, new) = match (read_bench_json(old_path), read_bench_json(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match bench::diff(&old, &new, threshold) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let table = report.render_markdown();
    print!("{table}");
    if let Some(path) = summary {
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(table.as_bytes()));
        if let Err(e) = appended {
            eprintln!("error: cannot append summary to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if report.regressed() {
        eprintln!("bench-diff: REGRESSION past {threshold:.0}% threshold");
        ExitCode::from(1)
    } else {
        eprintln!("bench-diff: within {threshold:.0}% threshold");
        ExitCode::SUCCESS
    }
}

/// Where failing tests (via `acdc_telemetry::TraceGuard`) dump their
/// flight-recorder rings. Mirrors `acdc_telemetry::trace_dir()`; kept
/// duplicated because the xtask stays dependency-free.
fn traces_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Path::new(&target).join("acdc-traces")
}

fn cmd_dump_trace(args: &[String]) -> ExitCode {
    let dir = traces_dir();
    match args {
        [] => {
            let mut names: Vec<String> = match std::fs::read_dir(&dir) {
                Ok(entries) => entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.ends_with(".jsonl"))
                    .collect(),
                Err(_) => {
                    eprintln!(
                        "no flight-recorder dumps under {} (they appear when a \
                         TraceGuard-watched test fails)",
                        dir.display()
                    );
                    return ExitCode::SUCCESS;
                }
            };
            names.sort();
            if names.is_empty() {
                eprintln!("no flight-recorder dumps under {}", dir.display());
            }
            for n in names {
                println!("{n}");
            }
            ExitCode::SUCCESS
        }
        [name] => {
            // Refuse path separators: NAME is a file under the trace dir.
            if name.contains('/') || name.contains('\\') {
                eprintln!("error: NAME must be a bare file name from `dump-trace`");
                return ExitCode::from(2);
            }
            let path = dir.join(name);
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", path.display());
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("error: dump-trace takes at most one NAME\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
