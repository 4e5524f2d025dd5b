//! Traced runs: the per-layer metrics.
//!
//! The program has no spans of its own yet, so the benchmark records
//! them around its own calls into each crate's public functions, on the
//! same inputs and in the order the program makes them. A layer the
//! program calls from inside another (the kernels inside
//! `Facile::predict_brief`, decode/annotate/predict inside
//! `Engine::predict_batch`) is replayed right after the enclosing call on
//! the same input and counted as its child, so the enclosing layer's self
//! time is its busy time minus its children's: for the engine that is
//! planner + cache + parallel map, for `predict_brief` the composition.
//!
//! Every traced run also runs the untraced binary on the same inputs, single
//! threaded like the in-process engine, so that
//! `trace.unattributed_share` (wall time no layer's self time covers) and
//! `trace.overhead_share` (traced wall ÷ untraced wall − 1) compare like
//! with like.

use crate::cli_paths::diff_trial_seed;
use crate::inputs;
use crate::proc::{self, Daemon};
use crate::report::{field, Outcome};
use crate::serve::{self, RawConn, STREAM_LINES};
use crate::stats::median;
use crate::Ctx;
use facile_core::{FrontEndPath, Mode};
use facile_diff::{DiffConfig, DiffPair, GenConfig};
use facile_engine::{BatchItem, BlockInput, Engine, EngineStats, PredictorRegistry};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::Block;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, in report order. The suffix names the unit of
/// the per-call self time; the others are ratios.
const TIMED: [&str; 22] = [
    "x86.from_hex_us",
    "isa.annotate_us",
    "core.predec_us",
    "core.dec_us",
    "core.issue_us",
    "core.ports_us",
    "core.precedence_us",
    "core.predict_brief_us",
    "engine.build_ms",
    "engine.batch_item_us",
    "engine.row_json_us",
    "server.request_parse_us",
    "server.request_parse_single_us",
    "server.reply_parse_ms",
    "server.round_trip_us",
    "cli.client_self_ms",
    "diff.run_ms",
    "diff.shrink_ms",
    "diff.generalize_ms",
    "diff.classify_us",
    "sim.simulate_us",
    // Not a reported metric: the 2x-line parses behind the scaling ratios.
    "server.parse_2x",
];

/// Items per engine call in `facile --batch`.
const BATCH_CHUNK_ITEMS: usize = 4096;
/// Single-block round trips timed on the serve trace.
const ROUND_TRIPS: usize = 500;

/// Ratio metrics by name: value and how it was obtained.
type Ratios = BTreeMap<&'static str, (f64, String)>;

/// Count, busy time and child time of one layer.
#[derive(Default, Clone, Copy)]
struct Layer {
    count: u64,
    busy: Duration,
    child: Duration,
}

impl Layer {
    fn self_time(&self) -> Duration {
        self.busy.saturating_sub(self.child)
    }
}

#[derive(Default)]
struct Layers {
    map: BTreeMap<&'static str, Layer>,
}

impl Layers {
    /// Time one call into a layer.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let v = black_box(f());
        let d = t.elapsed();
        self.add(name, 1, d);
        (v, d)
    }

    fn add(&mut self, name: &'static str, count: u64, busy: Duration) {
        let l = self.map.entry(name).or_default();
        l.count += count;
        l.busy += busy;
    }

    fn child(&mut self, parent: &'static str, d: Duration) {
        self.map.entry(parent).or_default().child += d;
    }

    fn get(&self, name: &str) -> Layer {
        self.map.get(name).copied().unwrap_or_default()
    }

    /// Sum of self times over the named layers.
    fn self_sum(&self, names: &[&str]) -> Duration {
        names.iter().map(|n| self.get(n).self_time()).sum()
    }
}

/// The layers of one engine pass, whose self times add up to the
/// engine's work.
const ENGINE_LAYERS: [&str; 10] = [
    "engine.build_ms",
    "engine.batch_item_us",
    "x86.from_hex_us",
    "isa.annotate_us",
    "core.predict_brief_us",
    "core.predec_us",
    "core.dec_us",
    "core.issue_us",
    "core.ports_us",
    "core.precedence_us",
];

fn auto_mode(block: &Block) -> Mode {
    if block.ends_in_branch() {
        Mode::Loop
    } else {
        Mode::Unrolled
    }
}

/// The kernels `predict_brief` runs on `ab`, timed one by one as its
/// children.
fn kernels(
    layers: &mut Layers,
    ab: &AnnotatedBlock,
    mode: Mode,
    front_end: FrontEndPath,
) -> Duration {
    let mut total = Duration::ZERO;
    if front_end == FrontEndPath::Mite {
        total += layers
            .time("core.predec_us", || facile_core::predec::predec(ab, mode))
            .1;
        total += layers.time("core.dec_us", || facile_core::dec::dec(ab)).1;
    }
    total += layers
        .time("core.issue_us", || facile_core::issue::issue(ab))
        .1;
    total += layers
        .time("core.ports_us", || facile_core::ports::ports(ab).bound)
        .1;
    total += layers
        .time("core.precedence_us", || {
            facile_core::precedence::precedence_bound(ab)
        })
        .1;
    total
}

/// Annotate → predict (with its kernels) for one block on one uarch, as
/// the Facile predictor does; returns the prediction and the busy time
/// of the top-level calls.
fn predict_traced(layers: &mut Layers, block: &Arc<Block>, uarch: Uarch) -> (f64, Duration) {
    let (ab, d_an) = layers.time("isa.annotate_us", || {
        AnnotatedBlock::new_shared(Arc::clone(block), uarch)
    });
    let mode = auto_mode(block);
    let (pred, d_pb) = layers.time("core.predict_brief_us", || {
        facile_core::Facile::new().predict_brief(&ab, mode)
    });
    let kids = kernels(layers, &ab, mode, pred.front_end);
    layers.child("core.predict_brief_us", kids);
    (pred.throughput, d_an + d_pb)
}

/// One `Engine::predict_batch` call as the program makes it, then its
/// decode/annotate/predict replayed as children and its rows rendered.
/// Returns replayed predictions that disagree with the engine's rows.
fn engine_chunk(
    layers: &mut Layers,
    engine: &Engine,
    tally: &mut EngineStats,
    lines: &[String],
    uarchs: &[Uarch],
    rendered: &mut Vec<u8>,
) -> Result<u64, String> {
    let items: Vec<BatchItem> = lines
        .iter()
        .flat_map(|l| {
            uarchs.iter().map(move |&u| BatchItem {
                input: BlockInput::Hex(l.clone()),
                uarch: u,
                mode: None,
                detail: facile_engine::Detail::Brief,
            })
        })
        .collect();
    let t = Instant::now();
    let rows = engine
        .predict_batch(&items, "facile")
        .map_err(|e| e.to_string())?;
    tally.absorb(&engine.snapshot());
    engine.clear_cache();
    layers.add("engine.batch_item_us", items.len() as u64, t.elapsed());
    if rows.len() != items.len() {
        return Err(format!(
            "engine returned {} rows for {} items",
            rows.len(),
            items.len()
        ));
    }

    let mut kids = Duration::ZERO;
    let mut mismatched = 0u64;
    for (li, line) in lines.iter().enumerate() {
        let (block, d) = layers.time("x86.from_hex_us", || Block::from_hex(line));
        kids += d;
        let block = Arc::new(block.map_err(|e| format!("{line}: {e}"))?);
        for (ui, &u) in uarchs.iter().enumerate() {
            let (tp, d) = predict_traced(layers, &block, u);
            kids += d;
            let row = &rows[li * uarchs.len() + ui];
            let same = row
                .prediction
                .as_ref()
                .is_ok_and(|p| format!("{:.4}", p.throughput) == format!("{tp:.4}"));
            mismatched += u64::from(!same);
        }
    }
    layers.child("engine.batch_item_us", kids);
    for r in &rows {
        let (s, _) = layers.time("engine.row_json_us", || facile_engine::render::row_json(r));
        rendered.extend_from_slice(s.as_bytes());
        rendered.push(b'\n');
    }
    Ok(mismatched)
}

fn build_engine(layers: &mut Layers) -> Engine {
    layers
        .time("engine.build_ms", || {
            Engine::new(PredictorRegistry::with_builtins()).with_threads(1)
        })
        .0
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Emit every per-layer metric: per-call self time for the timed layers
/// (0 with count 0 where this workload does not exercise the layer), the
/// given ratios, and the trace's own accounting.
fn emit(
    out: &mut Outcome,
    layers: &Layers,
    passes: u32,
    ratios: &Ratios,
    attributed: Duration,
    untraced: Duration,
    traced: Duration,
) {
    let ratio_order = [
        ("isa.table_coverage", "share"),
        ("engine.annotate_hit_share", "share"),
        ("engine.dedup_share", "share"),
        ("server.request_parse_scaling", "ratio"),
        ("server.reply_parse_scaling", "ratio"),
        ("server.items_per_batch", "items"),
    ];
    for name in TIMED.iter().filter(|n| **n != "server.parse_2x") {
        let l = layers.get(name);
        let unit = if name.ends_with("_ms") { "ms" } else { "us" };
        let scale = if unit == "ms" { 1e3 } else { 1e6 };
        let per_call = if l.count == 0 {
            0.0
        } else {
            l.self_time().as_secs_f64() * scale / l.count as f64
        };
        out.metric(
            name,
            per_call,
            unit,
            format!(
                "self per call; count={} busy={:.3}ms self={:.3}ms over {passes} pass(es)",
                l.count,
                l.busy.as_secs_f64() * 1e3,
                l.self_time().as_secs_f64() * 1e3
            ),
        );
        out.raw(
            format!("{name}:count,busy_us,self_us"),
            vec![l.count as f64, us(l.busy), us(l.self_time())],
        );
    }
    for (name, unit) in ratio_order {
        let (v, note) = ratios.get(name).map_or(
            (0.0, "not exercised by this workload".to_string()),
            |(v, note)| (*v, note.clone()),
        );
        out.metric(name, v, unit, note);
    }
    let per_pass = attributed.as_secs_f64() / f64::from(passes.max(1));
    let wall = untraced.as_secs_f64();
    out.metric(
        "trace.unattributed_share",
        1.0 - per_pass / wall,
        "share",
        format!("1 - (sum of layer self times {:.3}ms) / (untraced wall {:.3}ms); below 0 when the in-process layers took longer than the whole binary", per_pass * 1e3, wall * 1e3),
    );
    out.metric(
        "trace.overhead_share",
        traced.as_secs_f64() / wall - 1.0,
        "share",
        format!(
            "traced wall {:.3}ms / untraced wall {:.3}ms - 1",
            traced.as_secs_f64() * 1e3,
            wall * 1e3
        ),
    );
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "batch-cold" => batch(ctx, &[Uarch::Skl], 20_000),
        "sweep-9u" => batch(ctx, &Uarch::ALL, 4_000),
        "serve" => serve_trace(ctx),
        "diff" => diff_trace(ctx),
        other => Err(format!("no trace for {other}")),
    }
}

fn coverage(before: facile_isa::StaticTableStats) -> (f64, String) {
    let after = facile_isa::static_table_stats();
    let hits = after.hits - before.hits;
    let all = hits + (after.fallbacks - before.fallbacks);
    let v = if all == 0 {
        0.0
    } else {
        hits as f64 / all as f64
    };
    (
        v,
        format!("static-table hits / annotations ({hits} of {all})"),
    )
}

fn engine_ratios(ratios: &mut Ratios, tally: &EngineStats) {
    let a = tally.annotation;
    let looked = a.hits + a.misses;
    ratios.insert(
        "engine.annotate_hit_share",
        (
            if looked == 0 {
                0.0
            } else {
                a.hits as f64 / looked as f64
            },
            format!("annotation cache hits / lookups ({} of {looked})", a.hits),
        ),
    );
    let p = tally.planner;
    ratios.insert(
        "engine.dedup_share",
        (
            if p.items == 0 {
                0.0
            } else {
                p.deduped as f64 / p.items as f64
            },
            format!("planner deduped / items ({} of {})", p.deduped, p.items),
        ),
    );
}

/// `batch-cold` and `sweep-9u`: `facile --batch` chunks of 4096 items.
fn batch(ctx: &Ctx, uarchs: &[Uarch], n_lines: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lines = inputs::distinct_lines(ctx.seed, n_lines);
    let mut args = vec!["--batch", "--format", "json", "--threads", "1"];
    if uarchs.len() > 1 {
        args.push("--all-uarchs");
    }
    let input = inputs::stdin_text(&lines);
    let mut walls = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..3 {
        let r = proc::run(&ctx.bin, &args, &input).map_err(|e| e.to_string())?;
        out.check("untraced reference run exits 0", r.status.success());
        walls.push(r.wall.as_secs_f64());
        expected = r.stdout;
    }
    let untraced = Duration::from_secs_f64(median(&walls));
    out.raw("untraced_wall_s", walls);
    out.fact("lines", n_lines);
    out.fact("untraced_command", format!("facile {}", args.join(" ")));

    let lines_per_chunk = BATCH_CHUNK_ITEMS.div_ceil(uarchs.len());
    let before = facile_isa::static_table_stats();
    let mut layers = Layers::default();
    let mut tally = EngineStats::default();
    let mut passes = 0u32;
    let mut traced = Vec::new();
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < ctx.seconds * 0.5 {
        let t = Instant::now();
        let engine = build_engine(&mut layers);
        let mut rendered = Vec::with_capacity(expected.len());
        let mut mismatched = 0;
        for chunk in lines.chunks(lines_per_chunk) {
            mismatched += engine_chunk(
                &mut layers,
                &engine,
                &mut tally,
                chunk,
                uarchs,
                &mut rendered,
            )?;
        }
        traced.push(t.elapsed().as_secs_f64());
        out.attempted += (lines.len() * uarchs.len()) as u64;
        out.failed += mismatched;
        if passes == 0 {
            out.check(
                "replayed layer calls predict the engine's rows",
                mismatched == 0,
            );
            out.check(
                "in-process rows are byte-identical to the binary's output",
                rendered == expected,
            );
        }
        passes += 1;
    }
    let mut ratios = Ratios::new();
    ratios.insert("isa.table_coverage", coverage(before));
    engine_ratios(&mut ratios, &tally);
    let attributed = layers.self_sum(&ENGINE_LAYERS) + layers.get("engine.row_json_us").self_time();
    out.raw("traced_wall_s", traced.clone());
    emit(
        &mut out,
        &layers,
        passes,
        &ratios,
        attributed,
        untraced,
        Duration::from_secs_f64(median(&traced)),
    );
    Ok(out)
}

/// `serve`: one `facile client --batch` stream of two 1024-block
/// requests, attributed to request parse, the engine layers, reply parse
/// and the client; the rest is the server's own queueing, gathering and
/// I/O, which no layer covers yet.
fn serve_trace(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lines = inputs::distinct_lines(ctx.seed, STREAM_LINES);
    let chunks: Vec<&[String]> = lines.chunks(1024).collect();
    let threads = ["--threads", "1"];
    out.fact("lines", STREAM_LINES);
    out.fact("server_threads", 1);

    // Untraced: the client stream against a cold daemon.
    let daemon = Daemon::start(&ctx.bin, &serve::socket_path(ctx, "trace-a"), &threads)?;
    let stream = serve::client_stream(ctx, &daemon, &lines)?;
    drop(daemon);
    out.check("client stream exits 0", stream.status.success());
    let untraced = stream.wall;

    // The same requests on a raw socket against another cold daemon.
    let t_traced = Instant::now();
    let daemon = Daemon::start(&ctx.bin, &serve::socket_path(ctx, "trace-b"), &threads)?;
    let mut conn = RawConn::connect(&daemon)?;
    let mut layers = Layers::default();
    let mut replies = Vec::new();
    let mut rt_sum = Duration::ZERO;
    for chunk in &chunks {
        let (reply, rt) = conn.call(&serve::batch_request(chunk))?;
        rt_sum += rt;
        replies.push(reply);
    }
    let req_2x = serve::batch_request(&lines);
    let (reply_2x, _) = conn.call(&req_2x)?;
    let mut rt_single = Vec::with_capacity(ROUND_TRIPS);
    for k in 0..ROUND_TRIPS {
        let (reply, rt) = conn.call(&serve::predict_request(&lines[k % lines.len()]))?;
        out.attempted += 1;
        out.failed += u64::from(field(&reply, "status") != Some("ok"));
        rt_single.push(rt);
        layers.add("server.round_trip_us", 1, rt);
    }
    let (stats, _) = conn.call("{\"op\":\"stats\"}")?;
    drop(conn);
    drop(daemon);
    let (batches, items) = (
        field(&stats, "batches").and_then(|v| v.parse::<f64>().ok()),
        field(&stats, "batched_items").and_then(|v| v.parse::<f64>().ok()),
    );

    // Wire parses, as the server and the client make them.
    let mut req_1x = Duration::ZERO;
    for chunk in &chunks {
        let (parsed, d) = layers.time("server.request_parse_us", || {
            facile_server::parse_request(&serve::batch_request(chunk))
        });
        out.check("chunk request parses", parsed.is_ok());
        req_1x += d;
    }
    let (_, req_2x_t) = layers.time("server.parse_2x", || facile_server::parse_request(&req_2x));
    for k in 0..ROUND_TRIPS {
        let _ = layers.time("server.request_parse_single_us", || {
            facile_server::parse_request(&serve::predict_request(&lines[k % lines.len()]))
        });
    }
    let mut rep_1x = Duration::ZERO;
    let mut served_rows = String::new();
    for reply in &replies {
        let (v, d) = layers.time("server.reply_parse_ms", || {
            facile_server::json::parse(reply)
        });
        rep_1x += d;
        let v = v.map_err(|e| format!("reply does not parse: {e}"))?;
        for row in v.get("rows").and_then(|r| r.as_arr()).unwrap_or(&[]) {
            served_rows.push_str(row.raw(reply));
            served_rows.push('\n');
        }
    }
    let (_, reply_2x_t) = layers.time("server.parse_2x", || facile_server::json::parse(&reply_2x));

    // The engine layers the server ran for the two chunks.
    let before = facile_isa::static_table_stats();
    let engine = build_engine(&mut layers);
    let mut tally = EngineStats::default();
    let mut rendered = Vec::new();
    let mut mismatched = 0;
    for chunk in &chunks {
        mismatched += engine_chunk(
            &mut layers,
            &engine,
            &mut tally,
            chunk,
            &[Uarch::Skl],
            &mut rendered,
        )?;
    }
    let traced = t_traced.elapsed();
    out.attempted += STREAM_LINES as u64;
    out.failed += mismatched;
    out.check(
        "replayed layer calls predict the engine's rows",
        mismatched == 0,
    );
    out.check("served rows (raw socket) are byte-identical to the client's stream and to in-process rendering", served_rows.as_bytes() == &stream.stdout[..] && rendered == stream.stdout);

    // The client: stream wall time minus its server round trips; reply
    // parsing is its child.
    layers.add("cli.client_self_ms", 1, untraced.saturating_sub(rt_sum));
    layers.child("cli.client_self_ms", rep_1x);

    let n = chunks.len() as f64;
    let mut ratios = Ratios::new();
    ratios.insert("isa.table_coverage", coverage(before));
    engine_ratios(&mut ratios, &tally);
    ratios.insert(
        "server.request_parse_scaling",
        (
            req_2x_t.as_secs_f64() / (req_1x.as_secs_f64() / n),
            format!(
                "parse_request time at 2x line size / 1x ({} vs {} blocks); linear reads 2",
                2 * 1024,
                1024
            ),
        ),
    );
    ratios.insert(
        "server.reply_parse_scaling",
        (
            reply_2x_t.as_secs_f64() / (rep_1x.as_secs_f64() / n),
            format!(
                "json::parse time on a {}-byte reply / a {}-byte one; linear reads 2",
                reply_2x.len(),
                replies[0].len()
            ),
        ),
    );
    if let (Some(b), Some(i)) = (batches, items) {
        ratios.insert(
            "server.items_per_batch",
            (
                i / b.max(1.0),
                format!("stats op: batched_items {i} / batches {b}"),
            ),
        );
    }
    out.raw("round_trip_us", rt_single.iter().map(|d| us(*d)).collect());
    // Engine layers minus the build (the daemon builds once, before the
    // stream), plus the wire parses and the client.
    let attributed = layers.self_sum(&ENGINE_LAYERS[1..])
        + layers.get("engine.row_json_us").self_time()
        + layers.self_sum(&[
            "server.request_parse_us",
            "server.reply_parse_ms",
            "cli.client_self_ms",
        ]);
    out.fact("stream_round_trips_ms", rt_sum.as_secs_f64() * 1e3);
    emit(&mut out, &layers, 1, &ratios, attributed, untraced, traced);
    // `cli.client_self_ms` is defined as stream wall minus round trips,
    // reply parsing included (see README.md): report that, not self time.
    if let Some(m) = out
        .metrics
        .iter_mut()
        .find(|m| m.name == "cli.client_self_ms")
    {
        m.value = layers.get("cli.client_self_ms").busy.as_secs_f64() * 1e3;
        m.note = format!(
            "stream wall minus its server round trips (reply parse {:.3}ms included)",
            rep_1x.as_secs_f64() * 1e3
        );
    }
    Ok(out)
}

/// The findings, patterns, matrix and summary lines `facile diff
/// --generalize --format json` prints.
fn diff_json(report: &facile_diff::DiffReport) -> String {
    let mut s = String::new();
    for f in &report.findings {
        s.push_str(&f.to_json());
        s.push('\n');
    }
    let pats: Vec<String> = report.patterns.iter().map(|p| p.to_json()).collect();
    s.push_str(&format!("{{\"patterns\":[{}]}}\n", pats.join(",")));
    let cells: Vec<String> = report.matrix.iter().map(|c| c.to_json()).collect();
    s.push_str(&format!("{{\"matrix\":[{}]}}\n", cells.join(",")));
    s.push_str(&report.summary_json());
    s.push('\n');
    s
}

/// `diff`: `facile_diff::run`, with its scan, shrink, generalize and
/// classify steps replayed as its children.
fn diff_trace(ctx: &Ctx) -> Result<Outcome, String> {
    const COUNT: usize = 1_000;
    let mut out = Outcome::default();
    let seed = diff_trial_seed(ctx.seed, 0);
    let args = [
        "diff",
        "--generalize",
        "--format",
        "json",
        "--threads",
        "1",
        "--seed",
        &seed.to_string(),
        "--count",
        &COUNT.to_string(),
    ]
    .map(str::to_string);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let r = proc::run(&ctx.bin, &args, b"").map_err(|e| e.to_string())?;
    out.check("untraced diff exits 0", r.status.success());
    let untraced = r.wall;
    out.fact("seed", seed);
    out.fact("count", COUNT);

    let t_traced = Instant::now();
    let mut layers = Layers::default();
    let engine = build_engine(&mut layers);
    let cfg = DiffConfig {
        seed,
        count: COUNT,
        generalize: true,
        ..DiffConfig::default()
    };
    let (report, _) = layers.time("diff.run_ms", || facile_diff::run(&engine, &cfg));
    let report = report.map_err(|e| e.to_string())?;
    out.check(
        "in-process diff JSON is byte-identical to the traced binary's output",
        diff_json(&report).as_bytes() == &r.stdout[..],
    );

    // The scan: every block annotated and predicted by both sides.
    let mut kids = Duration::ZERO;
    for g in facile_bhive::BlockStream::with_preset(seed, cfg.preset).take(COUNT) {
        let block = Arc::new(g.block);
        for &u in &cfg.uarchs {
            let (_, d) = predict_traced(&mut layers, &block, u);
            kids += d;
            let ab = AnnotatedBlock::new_shared(Arc::clone(&block), u);
            kids += layers
                .time("sim.simulate_us", || {
                    facile_sim::simulate(&ab, block.ends_in_branch())
                })
                .1;
        }
    }
    // Shrink, classify and generalize each finding.
    let gen = GenConfig {
        samples: cfg.gen_samples,
        min_preserved: cfg.gen_min_preserved,
        seed,
    };
    let mut same = true;
    for f in &report.findings {
        let pair = DiffPair::new(&engine, &f.a.key, &f.b.key, f.uarch, f.mode)
            .map_err(|e| e.to_string())?;
        let original = Block::from_hex(&f.original_hex).map_err(|e| e.to_string())?;
        let (shrunk, d) = layers.time("diff.shrink_ms", || pair.shrink(&original, cfg.threshold));
        kids += d;
        let shrunk = shrunk.ok_or("a reported finding no longer shrinks")?;
        same &= shrunk.block.to_hex() == f.shrunk_hex;
        let (ea, eb) = pair.explain(&shrunk.block);
        let (class, d) = layers.time("diff.classify_us", || {
            facile_diff::classify(ea.as_deref(), eb.as_deref())
        });
        kids += d;
        same &= class == f.class;
        let (_, d) = layers.time("diff.generalize_ms", || {
            facile_diff::generalize_block(&pair, &shrunk.block, cfg.threshold, &gen)
        });
        kids += d;
    }
    let traced = t_traced.elapsed();
    out.check("replayed shrink and classify reproduce every finding", same);
    layers.child("diff.run_ms", kids);
    out.attempted += (report.scanned_blocks + report.findings.len()) as u64;
    out.failed += u64::from(!same);

    let mut ratios = Ratios::new();
    ratios.insert(
        "isa.table_coverage",
        coverage(facile_isa::StaticTableStats::default()),
    );
    let attributed = layers.get("engine.build_ms").self_time() + layers.get("diff.run_ms").busy;
    emit(&mut out, &layers, 1, &ratios, attributed, untraced, traced);
    Ok(out)
}
