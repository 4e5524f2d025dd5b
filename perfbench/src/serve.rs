//! The `serve` workload, untraced: `facile serve` on a Unix socket,
//! streamed by `facile client --batch` (phase 1), then open-loop
//! single-block `predict` requests at a fixed ladder of rates from this
//! process (phase 2).

use crate::cli_paths::{finish, mape_of_rows};
use crate::inputs;
use crate::proc::{self, Daemon};
use crate::report::{field, Outcome};
use crate::stats::{median, percentile};
use crate::Ctx;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Daemon starts timed for `setup_s` before, between and after the
/// phases; the median is reported.
const SETUP_PER_PHASE: usize = 11;
/// Phase-1 streams per run: a fixed count, so the daemon's connection
/// history, and with it its peak RSS, is the same on every run.
const STREAMS: usize = 4;
/// Lines per phase-1 stream: two requests at the client's default
/// `--chunk 1024`, which is kept so the cost of large lines shows.
pub const STREAM_LINES: usize = 2048;
/// Phase-2 offered rates (requests/s over all connections), ascending.
/// Rates double, so a step sits well clear of the capacity a run finds.
const LADDER: [f64; 5] = [500.0, 1000.0, 2000.0, 4000.0, 8000.0];
/// The ladder rate whose latency percentiles are reported.
const STATED_RATE: f64 = 1000.0;
/// Latency limit a ladder step must meet to count towards `max_rps`. It
/// applies to the median: on this class of 2-vCPU virtual machine,
/// scheduling stalls of several ms (an idle `sleep(1ms)` overshoots by
/// 1.4 ms at p99) put p99 above any useful limit at every rate. 10 ms
/// separates a loaded but keeping-up server (p50 0.7-6 ms at 2000 req/s,
/// depending on host speed) from an overloaded one (p50 > 100 ms).
const P50_LIMIT_US: f64 = 10_000.0;
/// Shares of `--seconds` for the stated step (p99 then keeps well over
/// ten samples beyond it) and for each other step.
const STATED_SHARE: f64 = 0.2;
const STEP_SHARE: f64 = 0.05;

/// The socket path for one daemon of this run (relative to the
/// checkout, so it stays short enough for `sun_path`).
pub fn socket_path(ctx: &Ctx, tag: &str) -> PathBuf {
    ctx.work_dir
        .join(format!("{tag}-{}.sock", std::process::id()))
}

/// The request line `facile client --batch` sends for one chunk.
pub fn batch_request(blocks: &[String]) -> String {
    let quoted: Vec<String> = blocks.iter().map(|b| format!("\"{b}\"")).collect();
    format!(
        "{{\"op\":\"batch\",\"blocks\":[{}],\"uarch\":\"SKL\"}}",
        quoted.join(",")
    )
}

/// A single-block request.
pub fn predict_request(block: &str) -> String {
    format!("{{\"op\":\"predict\",\"block\":\"{block}\",\"uarch\":\"SKL\"}}")
}

/// A raw protocol connection: request lines out, reply lines in, no
/// parsing.
pub struct RawConn {
    tx: UnixStream,
    rx: BufReader<UnixStream>,
}

impl RawConn {
    pub fn connect(daemon: &Daemon) -> Result<RawConn, String> {
        let tx = UnixStream::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
        let rx = BufReader::new(tx.try_clone().map_err(|e| e.to_string())?);
        Ok(RawConn { tx, rx })
    }

    /// Send one request line and read its reply line, timing the round
    /// trip.
    pub fn call(&mut self, req: &str) -> Result<(String, Duration), String> {
        let t = Instant::now();
        self.tx
            .write_all(req.as_bytes())
            .map_err(|e| e.to_string())?;
        self.tx.write_all(b"\n").map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.rx.read_line(&mut reply).map_err(|e| e.to_string())?;
        let dt = t.elapsed();
        if reply.is_empty() {
            return Err("server closed the connection".into());
        }
        reply.truncate(reply.trim_end().len());
        Ok((reply, dt))
    }
}

/// Stream `lines` through `facile client --batch`; returns the run and
/// its printed rows.
pub fn client_stream(ctx: &Ctx, daemon: &Daemon, lines: &[String]) -> Result<proc::RunOut, String> {
    let sock = daemon.socket.to_string_lossy().into_owned();
    proc::run(
        &ctx.bin,
        &["client", "--socket", &sock, "--batch"],
        &inputs::stdin_text(lines),
    )
    .map_err(|e| e.to_string())
}

/// What one ladder step measured.
struct Step {
    rate: f64,
    latencies_us: Vec<f64>,
    failed: u64,
    achieved_rps: f64,
    /// How late the generator sent, µs (p99).
    lateness_p99_us: f64,
}

impl Step {
    fn passes(&self) -> bool {
        self.failed == 0
            && percentile(&self.latencies_us, 50.0) <= P50_LIMIT_US
            && self.achieved_rps >= 0.97 * self.rate
    }
}

/// Open loop: request `k` is due at `t0 + k/rate` whatever the replies
/// do, and goes out on connection `k % conns`; latency counts from the
/// due time. One sender thread sleeps to each due time (no spinning, so
/// the generator takes little CPU from the server) and one reader per
/// connection takes the replies, which arrive in request order.
fn ladder_step(
    daemon: &Daemon,
    conns: usize,
    rate: f64,
    n: usize,
    blocks: &[String],
) -> Result<Step, String> {
    let mut txs = Vec::with_capacity(conns);
    let mut rxs = Vec::with_capacity(conns);
    for _ in 0..conns {
        let RawConn { tx, rx } = RawConn::connect(daemon)?;
        // A reply that never comes ends the step instead of hanging it.
        tx.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        txs.push(tx);
        rxs.push(rx);
    }
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| t0 + Duration::from_secs_f64(k as f64 / rate);
    // A missing reply (read error, timeout or closed connection) counts as
    // a failure for it and every later request on its connection.
    // Per connection: latencies, failures, and when the last reply came.
    type Replies = (Vec<f64>, u64, Instant);
    let (late, replies): (Vec<f64>, Vec<Replies>) = std::thread::scope(|s| {
        let readers: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(c, mut rx)| {
                s.spawn(move || {
                    let mine: Vec<usize> = (c..n).step_by(conns).collect();
                    let mut lat = Vec::with_capacity(mine.len());
                    let mut failed = 0u64;
                    let mut last = t0;
                    let mut reply = String::new();
                    for (i, &k) in mine.iter().enumerate() {
                        reply.clear();
                        if !matches!(rx.read_line(&mut reply), Ok(got) if got > 0) {
                            failed += (mine.len() - i) as u64;
                            break;
                        }
                        last = Instant::now();
                        lat.push((last - due(k)).as_secs_f64() * 1e6);
                        let block = &blocks[k % blocks.len()];
                        let ok = reply.starts_with("{\"ok\":true")
                            && field(&reply, "status") == Some("ok")
                            && field(&reply, "block") == Some(block.as_str());
                        failed += u64::from(!ok);
                    }
                    (lat, failed, last)
                })
            })
            .collect();
        let mut late = Vec::with_capacity(n);
        for k in 0..n {
            let d = due(k);
            let now = Instant::now();
            if d > now {
                std::thread::sleep(d - now);
            }
            late.push((Instant::now() - d).as_secs_f64() * 1e6);
            let req = predict_request(&blocks[k % blocks.len()]) + "\n";
            if txs[k % conns].write_all(req.as_bytes()).is_err() {
                // Unblock the readers: no more replies are coming.
                for tx in &txs {
                    let _ = tx.shutdown(std::net::Shutdown::Both);
                }
                break;
            }
        }
        let replies = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (late, replies)
    });
    let mut step = Step {
        rate,
        latencies_us: Vec::with_capacity(n),
        failed: 0,
        achieved_rps: 0.0,
        lateness_p99_us: percentile(&late, 99.0),
    };
    let mut last = t0;
    for (lat, failed, l) in replies {
        step.latencies_us.extend(lat);
        step.failed += failed;
        last = last.max(l);
    }
    step.achieved_rps = n as f64 / (last - t0).as_secs_f64().max(1e-9);
    Ok(step)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let conns = nproc.clamp(1, 4);
    let pool = inputs::distinct_lines(ctx.seed, STREAM_LINES * STREAMS);
    out.fact("lines_per_stream", STREAM_LINES);
    out.fact("client_chunk", 1024);
    out.fact("connections", conns);
    out.fact("ladder_rps", format!("{LADDER:?}"));
    out.fact("p50_limit_us", P50_LIMIT_US);

    let mut ready = Vec::with_capacity(3 * SETUP_PER_PHASE);
    let mut setup = |out: &mut Outcome| -> Result<(), String> {
        for i in 0..SETUP_PER_PHASE {
            let d = Daemon::start(&ctx.bin, &socket_path(ctx, &format!("setup{i}")), &[])?;
            out.attempted += 1;
            ready.push(d.ready.as_secs_f64());
        }
        Ok(())
    };
    setup(&mut out)?;

    let daemon = Daemon::start(&ctx.bin, &socket_path(ctx, "serve"), &[])?;

    // Phase 1: distinct lines per stream, so each is cold in the server.
    let mut rates = Vec::new();
    let mut streamed: Vec<String> = Vec::new();
    let mut rows_out = String::new();
    for lines in pool.chunks(STREAM_LINES) {
        let r = client_stream(ctx, &daemon, lines)?;
        let text = String::from_utf8_lossy(&r.stdout);
        let rows = text.lines().count();
        out.attempted += lines.len() as u64;
        let bad = text
            .lines()
            .filter(|l| field(l, "status") != Some("ok"))
            .count();
        out.failed += if r.status.success() {
            (lines.len().saturating_sub(rows) + bad) as u64
        } else {
            lines.len() as u64
        };
        out.check(
            format!(
                "stream {}: {rows} rows for {} lines x 1 uarch",
                rates.len(),
                lines.len()
            ),
            rows == lines.len(),
        );
        rates.push(rows as f64 / r.wall.as_secs_f64());
        streamed.extend_from_slice(lines);
        rows_out.push_str(&text);
    }
    out.metric(
        "blocks_per_s",
        median(&rates),
        "rows/s",
        format!(
            "facile client --batch streams of {STREAM_LINES} lines, median of {}",
            rates.len()
        ),
    );
    out.raw("blocks_per_s", rates);
    setup(&mut out)?;

    let direct = proc::run(
        &ctx.bin,
        &["--batch", "--format", "json"],
        &inputs::stdin_text(&streamed),
    )
    .map_err(|e| e.to_string())?;
    out.check(
        "served rows are byte-identical to facile --batch rows for the same lines",
        direct.stdout == rows_out.as_bytes(),
    );

    // Phase 2: single-block requests for blocks phase 1 warmed.
    let mut steps = Vec::new();
    for &rate in &LADDER {
        let share = if rate == STATED_RATE {
            STATED_SHARE
        } else {
            STEP_SHARE
        };
        let n = (rate * share * ctx.seconds).ceil() as usize;
        let step = ladder_step(&daemon, conns, rate, n, &streamed)?;
        out.attempted += n as u64;
        out.failed += step.failed;
        let passed = step.passes();
        out.raw(format!("latency_us@{rate}"), step.latencies_us.clone());
        out.fact(
            format!("step {rate} rps"),
            format!(
                "n={n} p50={:.1}us p99={:.1}us achieved={:.1}/s failed={} generator_late_p99={:.1}us pass={passed}",
                percentile(&step.latencies_us, 50.0),
                percentile(&step.latencies_us, 99.0),
                step.achieved_rps,
                step.failed,
                step.lateness_p99_us
            ),
        );
        steps.push(step);
        if !passed && rate > STATED_RATE {
            break;
        }
    }
    let stated = steps
        .iter()
        .find(|s| s.rate == STATED_RATE)
        .expect("the ladder includes the stated rate");
    let n = stated.latencies_us.len();
    out.metric(
        "latency_p50_us",
        percentile(&stated.latencies_us, 50.0),
        "us",
        format!("open loop at {STATED_RATE} req/s on {conns} connections, n={n}, from due time"),
    );
    out.info(
        "latency_p99_us",
        percentile(&stated.latencies_us, 99.0),
        "us",
        format!("open loop at {STATED_RATE} req/s on {conns} connections, n={n}, from due time"),
    );
    let best = steps.iter().rfind(|s| s.passes());
    out.metric(
        "max_rps",
        best.map_or(0.0, |s| s.achieved_rps),
        "1/s",
        format!("achieved reply rate at the highest ladder step ({} req/s offered) with p50 <= {P50_LIMIT_US}us, no failures, no backlog", best.map_or(0.0, |s| s.rate)),
    );

    out.metric(
        "peak_rss_mb",
        proc::peak_rss_kb(daemon.pid()).unwrap_or(0) as f64 / 1024.0,
        "MB",
        "VmHWM of the facile serve process after both phases",
    );
    drop(daemon);
    setup(&mut out)?;
    out.metric(
        "setup_s",
        median(&ready),
        "s",
        format!("spawn to the serving line, median of {}", ready.len()),
    );
    out.raw("setup_s", ready);

    let rows: Vec<&str> = rows_out.lines().collect();
    let (mape, n) = mape_of_rows(ctx.seed, &rows);
    out.check(format!("mape_pct computed from {n} printed rows"), n > 0);
    out.metric(
        "mape_pct",
        mape,
        "%",
        format!("served rows vs measure_block, {n} sampled rows"),
    );
    finish(&mut out);
    Ok(out)
}
