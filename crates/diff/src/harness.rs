//! The streaming differential harness: scan, flag, shrink, classify,
//! report.

use crate::classify::{classify, DiffClass};
use crate::generalize::{generalize_findings, GenConfig, InconsistencySummary};
use crate::rel_delta;
use crate::shrink::{DiffPair, ShrinkResult};
use facile_bhive::{kernels, BlockStream, Preset};
use facile_engine::{BatchItem, Engine, PredictError};
use facile_explain::{Explanation, Mode};
use facile_uarch::Uarch;
use facile_util::json;
use facile_x86::Block;
use std::fmt;
use std::sync::Arc;

/// Scan chunk size: blocks annotated/predicted per engine batch. Bounds
/// memory on long hunts while still fanning each chunk across the pool.
const SCAN_CHUNK: usize = 512;

/// Configuration of one differential hunt.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Predictor selector (comma-separated registry keys / globs); must
    /// resolve to at least two predictors.
    pub selector: String,
    /// Microarchitectures to hunt on.
    pub uarchs: Vec<Uarch>,
    /// Relative-disagreement threshold (see [`rel_delta`]).
    pub threshold: f64,
    /// Generator seed.
    pub seed: u64,
    /// Number of generated blocks to scan.
    pub count: usize,
    /// Domain-weighted generation preset.
    pub preset: Preset,
    /// Also scan the curated stress-kernel corpus.
    pub include_corpus: bool,
    /// When set, only compare pairs that include this predictor key
    /// (e.g. pivot on `facile` to hunt every baseline against the
    /// interpretable reference — every finding is then classifiable).
    /// `None` compares all pairs.
    pub pivot: Option<String>,
    /// Extra caller-supplied blocks (label, block), e.g. from a BHive CSV
    /// file.
    pub extra_blocks: Vec<(String, Block)>,
    /// Cap on the number of flagged disagreements that are shrunk and
    /// reported (the scan itself, and the disagreement matrix, always
    /// cover everything). The cap keeps hunt time bounded; `truncated`
    /// in the report says how many flags were left unshrunk.
    pub max_counterexamples: usize,
    /// Delta-debug each finding to a 1-minimal block (disable for
    /// scan-only sweeps).
    pub shrink: bool,
    /// Lift findings into abstract patterns and cluster them (see
    /// [`crate::generalize`]).
    pub generalize: bool,
    /// Instantiations sampled per proposed pattern widening.
    pub gen_samples: usize,
    /// Samples that must preserve the disagreement for a widening to be
    /// accepted (≤ `gen_samples`).
    pub gen_min_preserved: usize,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            selector: "facile,sim".to_string(),
            uarchs: vec![Uarch::Skl],
            threshold: 0.5,
            seed: 0,
            count: 200,
            preset: Preset::BALANCED,
            include_corpus: false,
            pivot: None,
            extra_blocks: Vec::new(),
            max_counterexamples: 25,
            shrink: true,
            generalize: false,
            gen_samples: 4,
            gen_min_preserved: 3,
        }
    }
}

/// Why a hunt could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// The selector failed to resolve (unknown key) — carried verbatim.
    Predict(PredictError),
    /// The selector resolved to fewer than two predictors: nothing to
    /// disagree.
    NeedTwoPredictors {
        /// The keys that did resolve.
        resolved: Vec<String>,
    },
    /// The threshold is not a positive finite number.
    BadThreshold(f64),
    /// The pivot key is not among the resolved predictors.
    PivotNotSelected {
        /// The pivot key.
        pivot: String,
        /// The keys that did resolve.
        resolved: Vec<String>,
    },
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Predict(e) => e.fmt(f),
            DiffError::NeedTwoPredictors { resolved } => write!(
                f,
                "differential testing needs at least two predictors (selector resolved to: {})",
                resolved.join(", ")
            ),
            DiffError::BadThreshold(t) => {
                write!(f, "threshold must be a positive finite number, got {t}")
            }
            DiffError::PivotNotSelected { pivot, resolved } => write!(
                f,
                "pivot predictor {pivot:?} is not in the selection ({})",
                resolved.join(", ")
            ),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<PredictError> for DiffError {
    fn from(e: PredictError) -> DiffError {
        DiffError::Predict(e)
    }
}

/// One predictor's side of a finding.
#[derive(Debug, Clone)]
pub struct PredictorSide {
    /// Registry key.
    pub key: String,
    /// Prediction on the original flagged block.
    pub original: f64,
    /// Prediction on the shrunk block.
    pub shrunk: f64,
    /// Full-detail explanation of the shrunk block, if this predictor is
    /// interpretable.
    pub explanation: Option<Box<Explanation>>,
}

/// One shrunken counterexample: a minimal block on which two predictors
/// disagree past the threshold, with both sides' numbers (and, where
/// available, typed explanations) side by side.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Provenance label of the originating block (`gen-17u`,
    /// `corpus:imul-chain`, an input label, ...).
    pub source: String,
    /// Microarchitecture of the disagreement.
    pub uarch: Uarch,
    /// Throughput notion (pinned through shrinking).
    pub mode: Mode,
    /// First predictor's side.
    pub a: PredictorSide,
    /// Second predictor's side.
    pub b: PredictorSide,
    /// The original flagged block (hex).
    pub original_hex: String,
    /// Instructions in the original block.
    pub original_insts: usize,
    /// Relative disagreement on the original block.
    pub original_delta: f64,
    /// The 1-minimal shrunk block (hex).
    pub shrunk_hex: String,
    /// Instructions in the shrunk block.
    pub shrunk_insts: usize,
    /// Relative disagreement on the shrunk block.
    pub delta: f64,
    /// Divergence classification from the typed explanations.
    pub class: DiffClass,
}

impl Finding {
    /// Render as a single JSON object (one line, stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let side = |s: &PredictorSide| {
            let expl = s
                .explanation
                .as_ref()
                .map_or_else(|| "null".to_string(), |e| e.to_json());
            format!(
                "{{\"predictor\":\"{}\",\"original\":{:.4},\"shrunk\":{:.4},\"explanation\":{expl}}}",
                json::escape(&s.key),
                s.original,
                s.shrunk,
            )
        };
        format!(
            "{{\"source\":\"{}\",\"uarch\":\"{}\",\"mode\":\"{}\",\"class\":\"{}\",\"class_label\":\"{}\",\
             \"original\":{{\"block\":\"{}\",\"insts\":{},\"delta\":{:.4}}},\
             \"shrunk\":{{\"block\":\"{}\",\"insts\":{},\"delta\":{:.4}}},\
             \"a\":{},\"b\":{}}}",
            json::escape(&self.source),
            self.uarch,
            match self.mode {
                Mode::Unrolled => "tpu",
                Mode::Loop => "tpl",
            },
            self.class.code(),
            self.class.label(),
            self.original_hex,
            self.original_insts,
            self.original_delta,
            self.shrunk_hex,
            self.shrunk_insts,
            self.delta,
            side(&self.a),
            side(&self.b),
        )
    }

    /// Render as an indented human-readable summary.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "{} on {} ({}): {} — {:.2} vs {:.2} (delta {:.2})\n",
            self.source,
            self.uarch,
            match self.mode {
                Mode::Unrolled => "TPU",
                Mode::Loop => "TPL",
            },
            self.class.label(),
            self.a.shrunk,
            self.b.shrunk,
            self.delta,
        );
        s.push_str(&format!(
            "  original: {} ({} insts, delta {:.2})\n  shrunk:   {} ({} insts)\n",
            self.original_hex,
            self.original_insts,
            self.original_delta,
            self.shrunk_hex,
            self.shrunk_insts,
        ));
        for (label, side) in [("a", &self.a), ("b", &self.b)] {
            s.push_str(&format!("  {label}={}: {:.4}", side.key, side.shrunk));
            if let Some(e) = &side.explanation {
                s.push_str(&format!(
                    " (bottleneck {})",
                    e.primary_bottleneck().map_or("none", |c| c.name())
                ));
            }
            s.push('\n');
        }
        s
    }
}

/// One cell of the disagreement-rate matrix: a predictor pair on one
/// microarchitecture.
#[derive(Debug, Clone)]
pub struct PairCell {
    /// Microarchitecture.
    pub uarch: Uarch,
    /// First predictor key (registration order).
    pub a: String,
    /// Second predictor key.
    pub b: String,
    /// Blocks where both sides produced a prediction.
    pub compared: u32,
    /// Blocks whose relative disagreement reached the threshold.
    pub flagged: u32,
    /// Largest relative disagreement observed.
    pub max_delta: f64,
}

impl PairCell {
    /// Disagreement rate (`flagged / compared`; 0 when nothing compared).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.compared == 0 {
            0.0
        } else {
            f64::from(self.flagged) / f64::from(self.compared)
        }
    }

    /// Render as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"uarch\":\"{}\",\"a\":\"{}\",\"b\":\"{}\",\"compared\":{},\"flagged\":{},\"rate\":{:.4},\"max_delta\":{:.4}}}",
            self.uarch,
            json::escape(&self.a),
            json::escape(&self.b),
            self.compared,
            self.flagged,
            self.rate(),
            self.max_delta,
        )
    }
}

/// The result of one differential hunt.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Generator seed the hunt ran with.
    pub seed: u64,
    /// Relative-disagreement threshold.
    pub threshold: f64,
    /// Blocks scanned (generated + corpus + extra).
    pub scanned_blocks: usize,
    /// `(block, uarch, pair)` comparisons where both sides predicted.
    pub rows_compared: usize,
    /// Comparisons that reached the threshold.
    pub flagged: usize,
    /// Flagged disagreements beyond [`DiffConfig::max_counterexamples`]
    /// that were not shrunk/reported.
    pub truncated: usize,
    /// The full disagreement matrix (every pair × uarch, in registration
    /// and [`Uarch::ALL`] order).
    pub matrix: Vec<PairCell>,
    /// Shrunken, classified counterexamples (deduplicated by shrunk
    /// block, pair, uarch, and notion).
    pub findings: Vec<Finding>,
    /// Ranked inconsistency-pattern clusters (empty unless
    /// [`DiffConfig::generalize`] is set).
    pub patterns: Vec<InconsistencySummary>,
}

impl DiffReport {
    /// Whether any reported finding could not be classified.
    #[must_use]
    pub fn has_unclassified(&self) -> bool {
        self.findings.iter().any(|f| !f.class.is_classified())
    }

    /// The trailing summary JSON object (stable field order).
    #[must_use]
    pub fn summary_json(&self) -> String {
        let unclassified = self
            .findings
            .iter()
            .filter(|f| !f.class.is_classified())
            .count();
        format!(
            "{{\"summary\":{{\"seed\":{},\"threshold\":{:.4},\"scanned_blocks\":{},\"rows_compared\":{},\
             \"flagged\":{},\"findings\":{},\"unclassified\":{},\"truncated\":{}}}}}",
            self.seed,
            self.threshold,
            self.scanned_blocks,
            self.rows_compared,
            self.flagged,
            self.findings.len(),
            unclassified,
            self.truncated,
        )
    }
}

/// A flagged comparison awaiting shrinking. Owns its block and label so
/// the scan can stream sources without retaining unflagged blocks.
struct Candidate {
    label: String,
    block: Block,
    uarch: Uarch,
    mode: Mode,
    pair: (usize, usize),
    predictions: (f64, f64),
    delta: f64,
}

/// Run a differential hunt.
///
/// Deterministic: for a fixed `(engine registry, config)` the report —
/// rows, matrix, findings, shrunken blocks, classifications — is
/// bit-identical across runs and worker-thread counts.
///
/// # Errors
/// [`DiffError`] when the selector does not resolve to two or more
/// predictors or the threshold is invalid.
///
/// # Panics
/// Panics only on engine-level invariant violations (a batch returning
/// the wrong number of rows).
pub fn run(engine: &Engine, cfg: &DiffConfig) -> Result<DiffReport, DiffError> {
    if !cfg.threshold.is_finite() || cfg.threshold <= 0.0 {
        return Err(DiffError::BadThreshold(cfg.threshold));
    }
    let predictors = engine.registry().resolve(&cfg.selector)?;
    if predictors.len() < 2 {
        return Err(DiffError::NeedTwoPredictors {
            resolved: predictors.iter().map(|p| p.key().to_string()).collect(),
        });
    }

    // The block sources, as a lazy stream: generated blocks, then the
    // corpus, then caller-supplied blocks. Labels are stable identifiers.
    // Only flagged blocks are retained past their scan chunk, so a hunt
    // over arbitrarily many generated blocks runs in bounded memory.
    let corpus: Vec<(String, Block)> = if cfg.include_corpus {
        kernels()
            .into_iter()
            .map(|k| (format!("corpus:{}", k.name), k.block))
            .collect()
    } else {
        Vec::new()
    };
    let mut source_stream = BlockStream::with_preset(cfg.seed, cfg.preset)
        .take(cfg.count)
        .map(|gb| (gb.label(), gb.block))
        .chain(corpus)
        .chain(cfg.extra_blocks.iter().cloned());

    // The compared pairs: all (i, j) with i < j in registration order, or
    // only pairs through the pivot when one is set.
    let pairs: Vec<(usize, usize)> = {
        let pivot_idx = match &cfg.pivot {
            None => None,
            Some(key) => Some(
                predictors
                    .iter()
                    .position(|p| p.key() == key.as_str())
                    .ok_or_else(|| DiffError::PivotNotSelected {
                        pivot: key.clone(),
                        resolved: predictors.iter().map(|p| p.key().to_string()).collect(),
                    })?,
            ),
        };
        (0..predictors.len())
            .flat_map(|i| (i + 1..predictors.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| pivot_idx.is_none_or(|p| i == p || j == p))
            .collect()
    };

    // Scan: predict every (block, uarch) with every predictor, in
    // chunks, tallying the matrix and collecting flag candidates.
    let mut matrix: Vec<PairCell> = cfg
        .uarchs
        .iter()
        .flat_map(|&u| pairs.iter().map(move |&(i, j)| (u, i, j)))
        .map(|(u, i, j)| PairCell {
            uarch: u,
            a: predictors[i].key().to_string(),
            b: predictors[j].key().to_string(),
            compared: 0,
            flagged: 0,
            max_delta: 0.0,
        })
        .collect();

    let mut candidates: Vec<Candidate> = Vec::new();
    let mut rows_compared = 0usize;
    let mut scanned_blocks = 0usize;
    loop {
        let chunk: Vec<(String, Block)> = source_stream.by_ref().take(SCAN_CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        scanned_blocks += chunk.len();
        let items: Vec<BatchItem> = chunk
            .iter()
            .flat_map(|(_, b)| cfg.uarchs.iter().map(|&u| BatchItem::block(b.clone(), u)))
            .collect();
        let rows = engine.run_batch(&items, &predictors);
        for (item_idx, item_rows) in rows.chunks(predictors.len()).enumerate() {
            let (label, block) = &chunk[item_idx / cfg.uarchs.len()];
            let u_idx = item_idx % cfg.uarchs.len();
            for (pair_idx, &(i, j)) in pairs.iter().enumerate() {
                let (Ok(pa), Ok(pb)) = (&item_rows[i].prediction, &item_rows[j].prediction) else {
                    continue;
                };
                rows_compared += 1;
                let delta = rel_delta(pa.throughput, pb.throughput);
                let cell = &mut matrix[u_idx * pairs.len() + pair_idx];
                cell.compared += 1;
                if delta > cell.max_delta {
                    cell.max_delta = delta;
                }
                if delta >= cfg.threshold {
                    cell.flagged += 1;
                    // Blocks beyond the counterexample cap are never
                    // shrunk; keeping only the tallies bounds memory.
                    if candidates.len() < cfg.max_counterexamples {
                        candidates.push(Candidate {
                            label: label.clone(),
                            block: block.clone(),
                            uarch: cfg.uarchs[u_idx],
                            mode: item_rows[i].mode.expect("predicted rows have a mode"),
                            pair: (i, j),
                            predictions: (pa.throughput, pb.throughput),
                            delta,
                        });
                    }
                }
            }
        }
        // Annotations are only shared within a chunk; dropping them keeps
        // memory bounded on long hunts.
        engine.clear_cache();
    }

    let flagged: usize = matrix.iter().map(|c| c.flagged as usize).sum();
    let truncated = flagged - candidates.len();

    // Shrink + classify each candidate. Order-preserving parallel map:
    // each shrink is an independent pure function of its block, so the
    // thread count cannot change any result.
    let findings_raw: Vec<Option<Finding>> =
        facile_engine::parallel_map_indexed(candidates.len(), engine.threads(), |k| {
            let c = &candidates[k];
            let (label, block) = (&c.label, &c.block);
            let pair = DiffPair::from_predictors(
                engine,
                Arc::clone(&predictors[c.pair.0]),
                Arc::clone(&predictors[c.pair.1]),
                c.uarch,
                c.mode,
            );
            let shrunk = if cfg.shrink {
                pair.shrink(block, cfg.threshold)?
            } else {
                ShrinkResult {
                    block: block.clone(),
                    predictions: c.predictions,
                    delta: c.delta,
                    removals: 0,
                    simplifications: 0,
                }
            };
            let (ea, eb) = pair.explain(&shrunk.block);
            let class = classify(ea.as_deref(), eb.as_deref());
            Some(Finding {
                source: label.clone(),
                uarch: c.uarch,
                mode: c.mode,
                a: PredictorSide {
                    key: predictors[c.pair.0].key().to_string(),
                    original: c.predictions.0,
                    shrunk: shrunk.predictions.0,
                    explanation: ea,
                },
                b: PredictorSide {
                    key: predictors[c.pair.1].key().to_string(),
                    original: c.predictions.1,
                    shrunk: shrunk.predictions.1,
                    explanation: eb,
                },
                original_hex: block.to_hex(),
                original_insts: block.num_insts(),
                original_delta: c.delta,
                shrunk_hex: shrunk.block.to_hex(),
                shrunk_insts: shrunk.block.num_insts(),
                delta: shrunk.delta,
                class,
            })
        });
    engine.clear_cache();

    // Deduplicate: distinct flagged originals often shrink to the same
    // minimal block. Keep the first occurrence (deterministic order).
    let mut findings: Vec<Finding> = Vec::new();
    for f in findings_raw.into_iter().flatten() {
        let dup = findings.iter().any(|g| {
            g.shrunk_hex == f.shrunk_hex
                && g.uarch == f.uarch
                && g.mode == f.mode
                && g.a.key == f.a.key
                && g.b.key == f.b.key
        });
        if !dup {
            findings.push(f);
        }
    }

    // Pattern generalization: lift each finding into an abstract,
    // engine-validated pattern and cluster. Runs after dedup so every
    // cluster member is a distinct minimal block.
    let patterns = if cfg.generalize {
        let gen_cfg = GenConfig {
            samples: cfg.gen_samples,
            min_preserved: cfg.gen_min_preserved,
            seed: cfg.seed,
        };
        let patterns = generalize_findings(engine, &findings, cfg.threshold, &gen_cfg);
        engine.clear_cache();
        patterns
    } else {
        Vec::new()
    };

    Ok(DiffReport {
        seed: cfg.seed,
        threshold: cfg.threshold,
        scanned_blocks,
        rows_compared,
        flagged,
        truncated,
        matrix,
        findings,
        patterns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_configs_are_rejected() {
        let engine = Engine::with_builtins();
        let cfg = DiffConfig {
            threshold: 0.0,
            ..DiffConfig::default()
        };
        assert!(matches!(
            run(&engine, &cfg),
            Err(DiffError::BadThreshold(_))
        ));
        let cfg = DiffConfig {
            selector: "facile".to_string(),
            ..DiffConfig::default()
        };
        assert!(matches!(
            run(&engine, &cfg),
            Err(DiffError::NeedTwoPredictors { .. })
        ));
        let cfg = DiffConfig {
            selector: "uica".to_string(),
            ..DiffConfig::default()
        };
        assert!(matches!(run(&engine, &cfg), Err(DiffError::Predict(_))));
    }

    #[test]
    fn pivot_restricts_pairs() {
        let engine = Engine::with_builtins();
        let cfg = DiffConfig {
            selector: "facile,iaca,osaca,cqa".to_string(),
            count: 8,
            pivot: Some("facile".to_string()),
            ..DiffConfig::default()
        };
        let report = run(&engine, &cfg).unwrap();
        assert_eq!(report.matrix.len(), 3); // facile × {iaca, osaca, cqa}
        assert!(report
            .matrix
            .iter()
            .all(|c| c.a == "facile" || c.b == "facile"));
        // A pivot outside the selection is rejected.
        let cfg = DiffConfig {
            selector: "iaca,osaca".to_string(),
            pivot: Some("facile".to_string()),
            ..DiffConfig::default()
        };
        assert!(matches!(
            run(&engine, &cfg),
            Err(DiffError::PivotNotSelected { .. })
        ));
    }

    #[test]
    fn scan_covers_matrix_and_counts() {
        let engine = Engine::with_builtins();
        let cfg = DiffConfig {
            selector: "facile,iaca,osaca".to_string(),
            count: 12,
            threshold: 0.4,
            max_counterexamples: 4,
            ..DiffConfig::default()
        };
        let report = run(&engine, &cfg).unwrap();
        assert_eq!(report.scanned_blocks, 12);
        assert_eq!(report.matrix.len(), 3); // 3 pairs × 1 uarch
        assert_eq!(report.rows_compared, 36);
        let total_flagged: u32 = report.matrix.iter().map(|c| c.flagged).sum();
        assert_eq!(total_flagged as usize, report.flagged);
        assert!(report.findings.len() <= 4);
        for f in &report.findings {
            assert!(f.delta >= cfg.threshold);
            assert!(f.shrunk_insts <= f.original_insts);
        }
    }
}
