//! Untraced runs of the one-shot command-line paths: `facile --batch`
//! (one uarch and the 9-uarch sweep) and `facile diff --generalize`.

use crate::inputs::{self, Printed};
use crate::proc::{self, RunOut};
use crate::report::{field, Outcome};
use crate::stats::{median, percentile};
use crate::Ctx;
use facile_uarch::Uarch;
use std::time::{Duration, Instant};

/// Per round of a run: `setup_s` samples, one trial, and one-shot
/// samples, so every metric's samples spread over the whole run and a
/// drift in host speed moves them all alike.
const SETUP_PER_ROUND: usize = 3;
/// One-shot samples per round of `batch-cold` and `sweep-9u`, and of
/// `diff`, whose trials are short.
const ONE_SHOTS_PER_ROUND: usize = 60;
const DIFF_ONE_SHOTS_PER_ROUND: usize = 15;
const MIN_ROUNDS: usize = 4;
/// Share of `--seconds` spent in rounds; the accuracy check follows.
const ROUNDS_SHARE: f64 = 0.8;
/// Printed rows checked against `measure_block` per run. Per-row errors
/// have a heavy tail (the top 1% of rows carry over a quarter of the
/// error), so a smaller sample moves the mean from seed to seed.
const MAPE_ROWS: usize = 8000;
/// Lines per `--batch` trial: one uarch, and the 9-uarch sweep.
const BATCH_LINES: usize = 20_000;
const SWEEP_LINES: usize = 4_000;
/// Generated blocks per `facile diff` trial: the command's default
/// `--count`. A trial's cost follows how many counterexamples its stream
/// holds, so many short trials give a steadier median than a few long
/// ones.
const DIFF_COUNT: usize = 200;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn exit_ok(r: &RunOut) -> bool {
    r.status.success()
}

/// Samples gathered across the rounds of a run.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    one_shot_us: Vec<f64>,
    trials: usize,
}

/// Run rounds until `ROUNDS_SHARE` of the budget is spent. `trial(k)`
/// runs trial `k`; `one_shot(i)` runs one-shot sample `i` and returns its
/// wall time, `one_shots` times a round.
fn rounds(
    ctx: &Ctx,
    out: &mut Outcome,
    setup_args: &[&str],
    one_shots: usize,
    mut trial: impl FnMut(&mut Outcome, usize) -> Result<(), String>,
    mut one_shot: impl FnMut(&mut Outcome, usize) -> Result<Duration, String>,
) -> Result<Rounds, String> {
    let start = Instant::now();
    let mut r = Rounds::default();
    while r.trials < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds * ROUNDS_SHARE {
        for _ in 0..SETUP_PER_ROUND {
            let run = proc::run(&ctx.bin, setup_args, b"").map_err(|e| e.to_string())?;
            out.attempted += 1;
            out.failed += u64::from(!exit_ok(&run));
            r.setup_s.push(secs(run.wall));
        }
        trial(out, r.trials)?;
        r.trials += 1;
        for _ in 0..one_shots {
            let d = one_shot(out, r.one_shot_us.len())?;
            r.one_shot_us.push(d.as_secs_f64() * 1e6);
        }
    }
    Ok(r)
}

/// Report set-up time and one-shot latency: each one-shot sample is one
/// invocation of the path on a single block, spawn to exit, as a script
/// calling it per block sees.
fn report_rounds(out: &mut Outcome, r: Rounds, setup_what: &str, what: &str) {
    out.metric(
        "setup_s",
        median(&r.setup_s),
        "s",
        format!("{setup_what}, median of {}", r.setup_s.len()),
    );
    out.raw("setup_s", r.setup_s);
    let samples_us = r.one_shot_us;
    let n = samples_us.len();
    let p50 = percentile(&samples_us, 50.0);
    out.metric(
        "latency_p50_us",
        p50,
        "us",
        format!("one-shot {what}, n={n}"),
    );
    out.info(
        "latency_p99_us",
        percentile(&samples_us, 99.0),
        "us",
        format!("one-shot {what}, n={n}"),
    );
    out.metric(
        "max_rps",
        1e6 / p50,
        "1/s",
        format!("one-shot {what} invocations per second one caller sustains back to back at the median latency, n={n}"),
    );
    out.raw("one_shot_us", samples_us);
}

/// Check `--format json` rows against the lines fed in: `uarchs` rows
/// per line, in line-major order, each for its own block and uarch.
/// Returns the rows that failed (error rows) or are missing.
fn check_rows(
    out: &mut Outcome,
    text: &str,
    lines: &[String],
    uarchs: &[Uarch],
    label: &str,
) -> u64 {
    let rows: Vec<&str> = text.lines().collect();
    let expected = lines.len() * uarchs.len();
    out.check(
        format!(
            "{label}: {} rows for {} lines x {} uarchs",
            rows.len(),
            lines.len(),
            uarchs.len()
        ),
        rows.len() == expected,
    );
    let mut matched = true;
    let mut failed = expected.saturating_sub(rows.len()) as u64;
    for (i, row) in rows.iter().enumerate().take(expected) {
        let (line, u) = (&lines[i / uarchs.len()], uarchs[i % uarchs.len()]);
        matched &= field(row, "block") == Some(line.as_str())
            && field(row, "uarch") == Some(&*u.to_string());
        if field(row, "status") != Some("ok") {
            failed += 1;
        }
    }
    out.check(
        format!("{label}: every row is for its own line and uarch, in order"),
        matched,
    );
    failed
}

/// MAPE of a seeded sample of printed rows; also returns the sample size.
pub fn mape_of_rows(seed: u64, rows: &[&str]) -> (f64, usize) {
    let printed: Vec<Printed> = inputs::sample_indices(seed, rows.len(), MAPE_ROWS)
        .into_iter()
        .filter_map(|i| Printed::from_row(rows[i]))
        .collect();
    inputs::mape_pct(&printed)
}

/// `sweep-9u`'s accuracy: the rows of one block on several uarchs err
/// together, so a sample of a 4,000-line sweep's rows holds too few
/// blocks for a steady mean. An untimed sweep of `MAPE_ROWS` lines gives
/// one row per line instead, the uarchs taken in turn.
fn sweep_mape(
    ctx: &Ctx,
    out: &mut Outcome,
    args: &[&str],
    uarchs: &[Uarch],
) -> Result<(f64, usize), String> {
    let lines = inputs::distinct_lines(ctx.seed, MAPE_ROWS);
    let r = proc::run(&ctx.bin, args, &inputs::stdin_text(&lines)).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&r.stdout);
    let n_rows = (lines.len() * uarchs.len()) as u64;
    let failed = check_rows(out, &text, &lines, uarchs, "accuracy sweep");
    out.attempted += n_rows;
    out.failed += if exit_ok(&r) { failed } else { n_rows };
    let rows: Vec<&str> = text.lines().collect();
    let printed: Vec<Printed> = (0..lines.len())
        .filter_map(|i| rows.get(i * uarchs.len() + i % uarchs.len()))
        .filter_map(|row| Printed::from_row(row))
        .collect();
    Ok(inputs::mape_pct(&printed))
}

/// `batch-cold` (`sweep == false`) and `sweep-9u`.
pub fn batch(ctx: &Ctx, sweep: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (n_lines, uarchs): (usize, Vec<Uarch>) = if sweep {
        (SWEEP_LINES, Uarch::ALL.to_vec())
    } else {
        (BATCH_LINES, vec![Uarch::Skl])
    };
    let mut args = vec!["--batch", "--format", "json"];
    if sweep {
        args.push("--all-uarchs");
    }
    let lines = inputs::distinct_lines(ctx.seed, n_lines);
    let input = inputs::stdin_text(&lines);
    out.fact("lines_per_trial", n_lines);
    out.fact("rows_per_trial", n_lines * uarchs.len());
    out.fact("command", format!("facile {}", args.join(" ")));

    // Each trial sends the whole input through one fresh process, so
    // every line is new to it.
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut first_output = None;
    let rows = (n_lines * uarchs.len()) as u64;
    let r = rounds(
        ctx,
        &mut out,
        &args,
        ONE_SHOTS_PER_ROUND,
        |out, k| {
            let r = proc::run_watched(&ctx.bin, &args, &input).map_err(|e| e.to_string())?;
            out.attempted += rows;
            let text = String::from_utf8_lossy(&r.stdout).into_owned();
            let failed = check_rows(out, &text, &lines, &uarchs, &format!("trial {k}"));
            out.failed += if exit_ok(&r) { failed } else { rows };
            rates.push(rows as f64 / secs(r.wall));
            rss.push(r.peak_rss_kb as f64 / 1024.0);
            first_output.get_or_insert(text);
            Ok(())
        },
        |out, i| {
            let line = &lines[i % lines.len()];
            let r = proc::run(&ctx.bin, &args, format!("{line}\n").as_bytes())
                .map_err(|e| e.to_string())?;
            out.attempted += 1;
            let text = String::from_utf8_lossy(&r.stdout);
            let ok = exit_ok(&r)
                && text.lines().count() == uarchs.len()
                && text.lines().all(|l| field(l, "status") == Some("ok"));
            out.failed += u64::from(!ok);
            Ok(r.wall)
        },
    )?;
    report_rounds(
        &mut out,
        r,
        "spawn to exit on empty input",
        "single-line batch",
    );
    out.metric(
        "blocks_per_s",
        median(&rates),
        "rows/s",
        format!(
            "median of {} trials of {rows} rows, spawn to exit",
            rates.len()
        ),
    );
    out.metric(
        "peak_rss_mb",
        median(&rss),
        "MB",
        "VmHWM of the facile process, median over trials",
    );
    out.raw("blocks_per_s", rates);
    out.raw("peak_rss_mb", rss);

    let (mape, n) = if sweep {
        sweep_mape(ctx, &mut out, &args, &uarchs)?
    } else {
        let text = first_output.unwrap_or_default();
        let rows: Vec<&str> = text.lines().collect();
        mape_of_rows(ctx.seed, &rows)
    };
    out.check(format!("mape_pct computed from {n} printed rows"), n > 0);
    out.metric(
        "mape_pct",
        mape,
        "%",
        if sweep {
            format!(
                "printed rows vs measure_block, one row of each of {n} lines of an untimed sweep"
            )
        } else {
            format!("printed rows vs measure_block, {n} sampled rows")
        },
    );
    finish(&mut out);
    Ok(out)
}

/// `ok_share` = 1 − failed ÷ attempted (the failure count itself is 0 on
/// a healthy run, and end-to-end metrics are never 0).
pub fn finish(out: &mut Outcome) {
    let attempted = out.attempted.max(1);
    let failed_share = out.failed as f64 / attempted as f64;
    out.fact("ops_attempted", out.attempted);
    out.fact("ops_failed", out.failed);
    out.info(
        "failed_share",
        failed_share,
        "share",
        format!("{} failed of {} attempted", out.failed, out.attempted),
    );
    out.metric(
        "ok_share",
        1.0 - failed_share,
        "share",
        format!(
            "1 - failed_share; {} of {} ops failed",
            out.failed, out.attempted
        ),
    );
}

fn diff_args(seed: u64, count: usize, threads: Option<&str>) -> Vec<String> {
    let mut a: Vec<String> = ["diff", "--generalize", "--format", "json", "--seed"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    a.push(seed.to_string());
    a.push("--count".into());
    a.push(count.to_string());
    if let Some(t) = threads {
        a.push("--threads".into());
        a.push(t.into());
    }
    a
}

/// The seed of diff trial `k` of a run: one generated stream per trial.
pub fn diff_trial_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

/// `diff`: seeded `facile diff --generalize` hunts.
pub fn diff(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.fact("count_per_trial", DIFF_COUNT);
    out.fact(
        "command",
        format!("facile diff --generalize --format json --seed <seed*1000+k> --count {DIFF_COUNT}"),
    );
    let empty = diff_args(ctx.seed, 0, None);
    let empty: Vec<&str> = empty.iter().map(String::as_str).collect();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut first = None;
    let r = rounds(
        ctx,
        &mut out,
        &empty,
        DIFF_ONE_SHOTS_PER_ROUND,
        |out, k| {
            let args = diff_args(diff_trial_seed(ctx.seed, k), DIFF_COUNT, None);
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let r = proc::run_watched(&ctx.bin, &args, b"").map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&r.stdout).into_owned();
            let summary = text.lines().last().unwrap_or("");
            let scanned: usize = field(summary, "scanned_blocks")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            out.attempted += DIFF_COUNT as u64;
            out.failed += if exit_ok(&r) {
                DIFF_COUNT.saturating_sub(scanned) as u64
            } else {
                DIFF_COUNT as u64
            };
            out.check(
                format!("trial {k}: summary reports {scanned} of {DIFF_COUNT} blocks scanned"),
                scanned == DIFF_COUNT,
            );
            rates.push(scanned as f64 / secs(r.wall));
            rss.push(r.peak_rss_kb as f64 / 1024.0);
            first.get_or_insert(text);
            Ok(())
        },
        |out, i| {
            let args = diff_args(diff_trial_seed(ctx.seed, i), 1, None);
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let r = proc::run(&ctx.bin, &args, b"").map_err(|e| e.to_string())?;
            out.attempted += 1;
            out.failed += u64::from(!exit_ok(&r));
            Ok(r.wall)
        },
    )?;
    let trials = r.trials;
    report_rounds(
        &mut out,
        r,
        "spawn to exit with --count 0",
        "diff --count 1",
    );
    // A trial that flags a costly counterexample runs far longer than the
    // rest; the median keeps such trials from moving the run.
    out.metric(
        "blocks_per_s",
        median(&rates),
        "rows/s",
        format!("scanned blocks per second, median of {trials} trials of {DIFF_COUNT}"),
    );
    out.raw("blocks_per_s", rates);
    out.metric(
        "peak_rss_mb",
        median(&rss),
        "MB",
        "VmHWM of the facile process, median over trials",
    );
    out.raw("peak_rss_mb", rss);

    // Same seed, same bytes.
    let args = diff_args(diff_trial_seed(ctx.seed, 0), DIFF_COUNT, None);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let again = proc::run(&ctx.bin, &args, b"").map_err(|e| e.to_string())?;
    out.check(
        "diff JSON is byte-identical across two runs of one seed",
        first.as_deref().map(str::as_bytes) == Some(&again.stdout[..]),
    );

    // `facile diff` prints only the blocks it flags, too few for a steady
    // error figure, so accuracy covers the blocks of the first trial
    // streams, however many trials the run made: their rows as
    // `facile --batch` prints them.
    let scanned: Vec<String> = (0..MAPE_ROWS.div_ceil(DIFF_COUNT))
        .flat_map(|k| {
            facile_bhive::BlockStream::new(diff_trial_seed(ctx.seed, k))
                .take(DIFF_COUNT)
                .map(|g| g.block.to_hex())
        })
        .collect();
    let batch = proc::run(
        &ctx.bin,
        &["--batch", "--format", "json"],
        &inputs::stdin_text(&scanned),
    )
    .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&batch.stdout);
    let rows: Vec<&str> = text.lines().collect();
    let (mape, n) = mape_of_rows(ctx.seed, &rows);
    out.check(format!("mape_pct computed from {n} printed rows"), n > 0);
    out.metric(
        "mape_pct",
        mape,
        "%",
        format!("facile --batch rows of the blocks of the first trial streams vs measure_block, {n} rows"),
    );
    finish(&mut out);
    Ok(out)
}
