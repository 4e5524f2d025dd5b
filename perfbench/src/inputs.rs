//! Seeded inputs and the accuracy check against the measurement model.

use crate::report::field;
use facile_bhive::rng::StdRng;
use facile_uarch::Uarch;
use facile_x86::Block;
use std::collections::HashSet;

/// `n` distinct hex lines from the seeded block generator, in stream
/// order: the only input the program under test receives.
pub fn distinct_lines(seed: u64, n: usize) -> Vec<String> {
    let mut seen = HashSet::with_capacity(n);
    facile_bhive::BlockStream::new(seed)
        .map(|g| g.block.to_hex())
        .filter(|h| seen.insert(h.clone()))
        .take(n)
        .collect()
}

/// Lines as `facile --batch` reads them.
pub fn stdin_text(lines: &[String]) -> Vec<u8> {
    let mut s = lines.join("\n");
    s.push('\n');
    s.into_bytes()
}

/// One printed prediction to check against a measurement.
pub struct Printed {
    pub hex: String,
    pub uarch: Uarch,
    pub loop_mode: bool,
    pub throughput: f64,
}

impl Printed {
    /// From a `--format json` row as printed (`None` for error rows).
    pub fn from_row(row: &str) -> Option<Printed> {
        if field(row, "status")? != "ok" {
            return None;
        }
        Some(Printed {
            hex: field(row, "block")?.to_string(),
            uarch: field(row, "uarch")?.parse().ok()?,
            loop_mode: field(row, "mode")? == "tpl",
            throughput: field(row, "throughput")?.parse().ok()?,
        })
    }
}

/// A seeded sample of `k` of the `n` indices (all when `k >= n`), in
/// ascending order.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05ee_d0fa_c11e);
    let mut chosen = HashSet::with_capacity(k);
    while chosen.len() < k {
        chosen.insert(rng.gen_range(0..n));
    }
    let mut v: Vec<usize> = chosen.into_iter().collect();
    v.sort_unstable();
    v
}

/// Mean absolute percentage error of printed predictions against
/// `facile_bhive::measure_block`, measured on all cores. Returns the
/// MAPE and the number of rows it covers.
pub fn mape_pct(rows: &[Printed]) -> (f64, usize) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let errors: Vec<f64> = std::thread::scope(|s| {
        let per = rows.len().div_ceil(threads.max(1)).max(1);
        let handles: Vec<_> = rows
            .chunks(per)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter_map(|p| {
                            let block = Block::from_hex(&p.hex).ok()?;
                            let measured =
                                facile_bhive::measure_block(&block, p.uarch, p.loop_mode);
                            (measured > 0.0).then(|| (p.throughput - measured).abs() / measured)
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("measurement thread panicked"))
            .collect()
    });
    if errors.is_empty() {
        return (0.0, 0);
    }
    (
        100.0 * errors.iter().sum::<f64>() / errors.len() as f64,
        errors.len(),
    )
}
