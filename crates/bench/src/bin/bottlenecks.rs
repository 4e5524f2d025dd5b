//! Per-µarch bottleneck-distribution report over the BHive-style corpus:
//! for every microarchitecture and both throughput notions, which
//! pipeline component binds how often according to Facile's typed
//! bottleneck attribution.
//!
//! This is the corpus-level consumer of the explanation data layer: the
//! engine runs at brief detail (the allocation-free path — attribution is
//! carried on every row even without a full explanation), and the rows
//! are folded into [`facile_metrics::BottleneckDistribution`]s.
//!
//! ```text
//! cargo run --release -p facile-bench --bin bottlenecks
//! cargo run --release -p facile-bench --bin bottlenecks -- --blocks 500 --uarch SKL,RKL
//! ```
//!
//! Defaults to the 2000-block suite (seed 2023).

use facile_bench::Args;
use facile_bhive::generate_suite;
use facile_core::{Component, Mode};
use facile_engine::{BatchItem, Engine};
use facile_metrics::{BottleneckDistribution, Table};
use facile_uarch::Uarch;

/// One planner-enabled batch over the whole `uarchs × blocks` corpus
/// (instead of a per-uarch loop): the engine's two-level cache decodes
/// each block once and only the per-uarch annotation differs, so the
/// sweep reflects the shared
/// decode path. Rows fold into one distribution per uarch (row order is
/// deterministic: items are emitted uarch-major).
fn distributions(
    engine: &Engine,
    suite: &[facile_bhive::Bench],
    uarchs: &[Uarch],
    mode: Mode,
) -> Vec<BottleneckDistribution> {
    let items: Vec<BatchItem> = uarchs
        .iter()
        .flat_map(|&u| {
            suite.iter().map(move |b| {
                let block = match mode {
                    Mode::Unrolled => &b.unrolled,
                    Mode::Loop => &b.looped,
                };
                BatchItem::block(block.clone(), u).with_mode(mode)
            })
        })
        .collect();
    let rows = engine.run_batch(
        &items,
        &engine.registry().resolve("facile").expect("builtin"),
    );
    let mut dists = vec![BottleneckDistribution::new(); uarchs.len()];
    for (k, row) in rows.iter().enumerate() {
        let dist = &mut dists[k / suite.len()];
        match &row.prediction {
            Ok(p) => dist.record(p.bottleneck),
            Err(_) => dist.record_error(),
        }
    }
    dists
}

fn main() {
    let args = Args::parse_with(Args {
        blocks: 2000,
        ..Args::default()
    });
    let suite = generate_suite(args.blocks, args.seed);
    let engine = Engine::with_builtins();
    println!(
        "Bottleneck distribution of the Facile model over the BHive-style \
         corpus ({} blocks, seed {}).\n",
        args.blocks, args.seed
    );

    for (mode, title) in [(Mode::Unrolled, "TPU"), (Mode::Loop, "TPL")] {
        let mut header = vec!["Component".to_string()];
        header.extend(args.uarchs.iter().map(ToString::to_string));
        let mut t = Table::new(header.iter().map(String::as_str).collect());
        let dists = distributions(&engine, &suite, &args.uarchs, mode);
        for comp in Component::ALL {
            if dists.iter().all(|d| d.count(comp) == 0) {
                continue; // e.g. LSD/DSB rows under TPU
            }
            let mut row = vec![comp.name().to_string()];
            for d in &dists {
                row.push(format!("{:.1}%", 100.0 * d.share(comp)));
            }
            t.row(row);
        }
        println!(
            "{title} (dominant per µarch: {}):\n",
            summary(&args.uarchs, &dists)
        );
        println!("{t}");
    }
}

fn summary(uarchs: &[Uarch], dists: &[BottleneckDistribution]) -> String {
    uarchs
        .iter()
        .zip(dists)
        .map(|(u, d)| {
            format!(
                "{u}={}",
                d.dominant().map_or("-", facile_core::Component::name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}
