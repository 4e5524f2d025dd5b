//! The facile user-path benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload batch-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the release `facile` binary the way users run it and
//! prints the end-to-end metrics; `--trace 1` replays the same inputs
//! through each crate's public functions and prints the per-layer
//! metrics. See `perfbench/README.md` for every workload and metric.

mod cli_paths;
mod inputs;
mod proc;
mod report;
mod serve;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["batch-cold", "sweep-9u", "serve", "diff"];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin: PathBuf,
    /// Where sockets and records go, inside the checkout.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|_| "numeric --seed")?,
            "--seconds" => seconds = val()?.parse().map_err(|_| "numeric --seconds")?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, seed, seconds, trace))
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let bin = match proc::facile_binary() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let work_dir = PathBuf::from("perfbench").join("results");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        bin,
        work_dir,
    };
    let result = match (ctx.workload.as_str(), ctx.trace) {
        ("batch-cold", false) => cli_paths::batch(&ctx, false),
        ("sweep-9u", false) => cli_paths::batch(&ctx, true),
        ("serve", false) => serve::run(&ctx),
        ("diff", false) => cli_paths::diff(&ctx),
        (_, true) => traced::run(&ctx),
        _ => unreachable!("workload names are validated"),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    for m in &out.metrics {
        println!(
            "{:<28} {:>16} {:<8} {}",
            m.name,
            report::num(m.value),
            m.unit,
            m.note
        );
    }
    for m in &out.info {
        println!(
            "{:<28} {:>16} {:<8} {} (not gated)",
            m.name,
            report::num(m.value),
            m.unit,
            m.note
        );
    }
    for (what, ok) in out.checks.iter().filter(|(_, ok)| !ok) {
        println!("CHECK FAILED (ok={ok}): {what}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let header = [
        ("workload", ctx.workload.clone()),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("trace", u8::from(ctx.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("build_profile", "release (lto = thin)".to_string()),
        ("git_commit", git_commit()),
        ("binary", ctx.bin.display().to_string()),
    ];
    let record = ctx.work_dir.join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = std::fs::write(&record, out.record_json(&header) + "\n") {
        eprintln!("warning: cannot write {}: {e}", record.display());
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
