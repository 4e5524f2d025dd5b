//! AnICA-style generalization: lift shrunk counterexamples into
//! abstract block patterns and cluster findings by pattern.
//!
//! A 1-minimal counterexample answers "does this exact block disagree?";
//! an *inconsistency pattern* answers "what family of blocks does?". In
//! the spirit of AnICA (Ritter & Hack, 2022), each finding's shrunk
//! block is abstracted one facet at a time — the condition code, the
//! concrete register choice, the immediate value, the displacement, the
//! index scale — and every proposed widening is **validated through the
//! engine**: concrete instantiations of the widened pattern are sampled
//! and the widening is kept only if enough of them preserve the
//! disagreement. The accepted pattern therefore never over-claims: it
//! subsumes its counterexample by construction, and every abstraction
//! step is backed by replayable evidence blocks.
//!
//! Findings whose blocks generalize to the same pattern (for the same
//! predictor pair and notion) are one model bug, not many; they are
//! clustered into ranked [`InconsistencySummary`] groups.
//!
//! Determinism: each finding's sampling RNG is seeded from a hash of
//! `(config seed, block bytes, pair keys, uarch, mode)` — a pure
//! function of the finding — so generalization is bit-identical across
//! runs and worker-thread counts, matching the shrinker's guarantees.

use crate::harness::Finding;
use crate::shrink::DiffPair;
use facile_bhive::rng::StdRng;
use facile_engine::Engine;
use facile_explain::Mode;
use facile_isa::vocab;
use facile_uarch::Uarch;
use facile_util::json;
use facile_x86::reg::Width;
use facile_x86::{Block, Cond, Mem, Mnemonic, Operand, Reg};
use std::hash::{Hash, Hasher};

/// One abstraction facet of a pattern slot. Facets are independent and
/// attempted in this fixed ladder order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Facet {
    /// Abstract the condition code: `jne` becomes "any `jcc`".
    Cond,
    /// Abstract the concrete register choice, keeping each register's
    /// class and width and the slot's register-aliasing structure.
    Regs,
    /// Abstract immediate values.
    Imm,
    /// Abstract a nonzero memory displacement.
    Disp,
    /// Abstract the index-register scale factor.
    Scale,
}

/// The widening ladder: facets in attempt order.
pub const LADDER: [Facet; 5] = [
    Facet::Cond,
    Facet::Regs,
    Facet::Imm,
    Facet::Disp,
    Facet::Scale,
];

/// One instruction slot of a block pattern: the concrete instruction it
/// came from, plus the facets that have been abstracted away.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPattern {
    /// The representative's mnemonic (concrete condition code retained
    /// even when [`Facet::Cond`] is widened, as the sampling anchor).
    pub mnemonic: Mnemonic,
    /// The representative's operands.
    pub operands: Vec<Operand>,
    /// The facets abstracted away for this slot.
    pub widened: Vec<Facet>,
}

/// Physical-register identity: width-aliased views (`eax`/`rax`,
/// `xmm3`/`ymm3`) are the same underlying register. `rip` has none.
fn phys(r: Reg) -> Option<(bool, u8)> {
    match r {
        Reg::Rip => None,
        other => Some((other.is_vec(), other.num())),
    }
}

/// Every register the slot's operands touch, in a fixed order: operand
/// registers, then memory base and index. `rip` is skipped (it is not a
/// renameable register).
fn slot_regs(operands: &[Operand]) -> Vec<Reg> {
    let mut out = Vec::new();
    for op in operands {
        match *op {
            Operand::Reg(r) if r != Reg::Rip => out.push(r),
            Operand::Mem(m) => {
                out.extend(m.base.into_iter().filter(|&r| r != Reg::Rip));
                out.extend(m.index);
            }
            _ => {}
        }
    }
    out
}

/// Whether two register views have the same class and width (GPR of the
/// same width, both XMM, both YMM, same high-byte-ness).
fn same_view(a: Reg, b: Reg) -> bool {
    match (a, b) {
        (Reg::Gpr { width: wa, .. }, Reg::Gpr { width: wb, .. }) => wa == wb,
        (Reg::HighByte(_), Reg::HighByte(_))
        | (Reg::Xmm(_), Reg::Xmm(_))
        | (Reg::Ymm(_), Reg::Ymm(_))
        | (Reg::Rip, Reg::Rip) => true,
        _ => false,
    }
}

impl SlotPattern {
    fn has(&self, f: Facet) -> bool {
        self.widened.contains(&f)
    }

    /// Whether `facet` can be abstracted for this slot at all.
    #[must_use]
    pub fn applicable(&self, facet: Facet) -> bool {
        match facet {
            Facet::Cond => vocab::cond_of(self.mnemonic).is_some(),
            // High-byte registers have no samplable renaming pool; a slot
            // touching one keeps its concrete registers.
            Facet::Regs => {
                let regs = slot_regs(&self.operands);
                !regs.is_empty() && !regs.iter().any(|r| matches!(r, Reg::HighByte(_)))
            }
            Facet::Imm => self.operands.iter().any(|o| matches!(o, Operand::Imm(_))),
            Facet::Disp => self
                .operands
                .iter()
                .filter_map(|o| o.mem())
                .any(|m| m.disp != 0),
            Facet::Scale => self
                .operands
                .iter()
                .filter_map(|o| o.mem())
                .any(|m| m.index.is_some()),
        }
    }

    /// Whether a concrete instruction is an instance of this slot.
    fn matches_inst(&self, mnemonic: Mnemonic, operands: &[Operand]) -> bool {
        if self.has(Facet::Cond) {
            if vocab::mnemonic_group(mnemonic) != vocab::mnemonic_group(self.mnemonic) {
                return false;
            }
        } else if mnemonic != self.mnemonic {
            return false;
        }
        if operands.len() != self.operands.len() {
            return false;
        }
        for (p, q) in self.operands.iter().zip(operands) {
            match (*p, *q) {
                (Operand::Reg(a), Operand::Reg(b)) => {
                    if self.has(Facet::Regs) {
                        if !same_view(a, b) {
                            return false;
                        }
                    } else if a != b {
                        return false;
                    }
                }
                (Operand::Imm(a), Operand::Imm(b)) => {
                    if !self.has(Facet::Imm) && a != b {
                        return false;
                    }
                }
                (Operand::Rel(a), Operand::Rel(b)) => {
                    if a != b {
                        return false;
                    }
                }
                (Operand::Mem(a), Operand::Mem(b)) => {
                    if a.width != b.width
                        || a.base.is_some() != b.base.is_some()
                        || a.index.is_some() != b.index.is_some()
                        || a.is_rip_relative() != b.is_rip_relative()
                    {
                        return false;
                    }
                    let reg_ok = |x: Option<Reg>, y: Option<Reg>| match (x, y) {
                        (None, None) => true,
                        (Some(x), Some(y)) => {
                            if self.has(Facet::Regs) {
                                same_view(x, y)
                            } else {
                                x == y
                            }
                        }
                        _ => false,
                    };
                    if !reg_ok(a.base, b.base) || !reg_ok(a.index, b.index) {
                        return false;
                    }
                    if self.has(Facet::Disp) {
                        // Zero vs nonzero is structural (it changes the
                        // encoding shape); only the value is abstract.
                        if (a.disp == 0) != (b.disp == 0) {
                            return false;
                        }
                    } else if a.disp != b.disp {
                        return false;
                    }
                    if !self.has(Facet::Scale) && a.scale != b.scale {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        // The register-aliasing structure must be preserved: `add rax,
        // rax` and `add rax, rcx` are different shapes even when the
        // register choice is abstract.
        if self.has(Facet::Regs) {
            let pr = slot_regs(&self.operands);
            let qr = slot_regs(operands);
            if pr.len() != qr.len() {
                return false;
            }
            for i in 0..pr.len() {
                for j in i + 1..pr.len() {
                    if (phys(pr[i]) == phys(pr[j])) != (phys(qr[i]) == phys(qr[j])) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Render this slot for reports: abstract parts by their class.
    fn render(&self) -> String {
        let mnem = if self.has(Facet::Cond) {
            vocab::mnemonic_group(self.mnemonic)
        } else {
            self.mnemonic.name()
        };
        let reg = |r: Reg| {
            if self.has(Facet::Regs) {
                vocab::class_name(r)
            } else {
                r.to_string()
            }
        };
        let ops: Vec<String> = self
            .operands
            .iter()
            .map(|op| match *op {
                Operand::Reg(r) => reg(r),
                Operand::Imm(v) => {
                    if self.has(Facet::Imm) {
                        "imm".to_string()
                    } else {
                        format!("{v:#x}")
                    }
                }
                Operand::Rel(d) => format!(".{d:+}"),
                Operand::Mem(m) => {
                    let mut parts: Vec<String> = Vec::new();
                    if let Some(b) = m.base {
                        parts.push(if b == Reg::Rip {
                            "rip".to_string()
                        } else {
                            reg(b)
                        });
                    }
                    if let Some(i) = m.index {
                        let scale = if self.has(Facet::Scale) {
                            "s".to_string()
                        } else {
                            m.scale.to_string()
                        };
                        parts.push(format!("{}*{scale}", reg(i)));
                    }
                    if self.has(Facet::Disp) && m.disp != 0 {
                        parts.push("disp".to_string());
                    } else if m.disp != 0 || parts.is_empty() {
                        parts.push(format!("{:#x}", m.disp));
                    }
                    let unit = match m.width {
                        Width::W8 => "byte",
                        Width::W16 => "word",
                        Width::W32 => "dword",
                        Width::W64 => "qword",
                        Width::W128 => "xmmword",
                        Width::W256 => "ymmword",
                    };
                    format!("{unit} [{}]", parts.join("+"))
                }
            })
            .collect();
        if ops.is_empty() {
            mnem
        } else {
            format!("{mnem} {}", ops.join(", "))
        }
    }
}

/// An abstract block pattern: one [`SlotPattern`] per instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPattern {
    /// Instruction slots, in block order.
    pub slots: Vec<SlotPattern>,
}

impl BlockPattern {
    /// The fully-concrete pattern of `block`: matches exactly that block.
    #[must_use]
    pub fn concrete(block: &Block) -> BlockPattern {
        BlockPattern {
            slots: block
                .insts()
                .iter()
                .map(|i| SlotPattern {
                    mnemonic: i.mnemonic,
                    operands: i.operands.clone(),
                    widened: Vec::new(),
                })
                .collect(),
        }
    }

    /// Whether `block` is an instance of this pattern.
    #[must_use]
    pub fn matches(&self, block: &Block) -> bool {
        block.num_insts() == self.slots.len()
            && self
                .slots
                .iter()
                .zip(block.insts())
                .all(|(s, i)| s.matches_inst(i.mnemonic, &i.operands))
    }

    /// Total number of widened facets across all slots.
    #[must_use]
    pub fn widenings(&self) -> usize {
        self.slots.iter().map(|s| s.widened.len()).sum()
    }

    /// Human-readable pattern string (abstract slots render by class:
    /// `jcc`, `r64`, `imm`, `disp`, ...). Used as the clustering key.
    #[must_use]
    pub fn render(&self) -> String {
        self.slots
            .iter()
            .map(SlotPattern::render)
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Sample one concrete instantiation. Register renaming is drawn
    /// per-instruction and per-class so that distinct registers stay
    /// distinct and width-aliased views (`eax`/`rax`) stay aliased.
    /// `None` when a draw fails to assemble (or — defensively — fails to
    /// re-match the pattern after the assemble/decode round-trip).
    #[must_use]
    pub fn instantiate(&self, rng: &mut StdRng) -> Option<Block> {
        let mut prog: Vec<(Mnemonic, Vec<Operand>)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let mnemonic = if slot.has(Facet::Cond) {
                let c = Cond::ALL[rng.gen_range(0..Cond::ALL.len())];
                vocab::with_cond(slot.mnemonic, c)
            } else {
                slot.mnemonic
            };
            // Per-class renaming: the k-th distinct physical register of
            // the slot maps to pool[(offset + k) % pool] — a random
            // rotation, which preserves distinctness within the slot.
            let mut gpr_map: Vec<(u8, u8)> = Vec::new();
            let mut vec_map: Vec<(u8, u8)> = Vec::new();
            let gpr_off = rng.gen_range(0..vocab::GPR_POOL.len());
            let vec_off = rng.gen_range(0..vocab::VEC_POOL.len());
            let mut rename = |r: Reg| -> Option<Reg> {
                if !slot.has(Facet::Regs) || r == Reg::Rip {
                    return Some(r);
                }
                let (map, pool, off): (&mut Vec<(u8, u8)>, &[u8], usize) = if r.is_vec() {
                    (&mut vec_map, &vocab::VEC_POOL, vec_off)
                } else {
                    (&mut gpr_map, &vocab::GPR_POOL, gpr_off)
                };
                let num = r.num();
                let new = match map.iter().find(|(from, _)| *from == num) {
                    Some(&(_, to)) => to,
                    None => {
                        let to = pool[(off + map.len()) % pool.len()];
                        map.push((num, to));
                        to
                    }
                };
                match r {
                    Reg::Gpr { width, .. } => Some(Reg::Gpr { num: new, width }),
                    Reg::Xmm(_) => Some(Reg::Xmm(new)),
                    Reg::Ymm(_) => Some(Reg::Ymm(new)),
                    Reg::HighByte(_) | Reg::Rip => None,
                }
            };
            let mut ops: Vec<Operand> = Vec::with_capacity(slot.operands.len());
            for op in &slot.operands {
                ops.push(match *op {
                    Operand::Reg(r) => Operand::Reg(rename(r)?),
                    Operand::Imm(v) => {
                        if slot.has(Facet::Imm) {
                            Operand::Imm(rng.gen_range(0i64..256))
                        } else {
                            Operand::Imm(v)
                        }
                    }
                    Operand::Rel(d) => Operand::Rel(d),
                    Operand::Mem(m) => {
                        let base = match m.base {
                            Some(b) => Some(rename(b)?),
                            None => None,
                        };
                        let index = match m.index {
                            Some(i) => Some(rename(i)?),
                            None => None,
                        };
                        let disp = if slot.has(Facet::Disp) && m.disp != 0 {
                            rng.gen_range(1i32..2048)
                        } else {
                            m.disp
                        };
                        let scale = if slot.has(Facet::Scale) && index.is_some() {
                            vocab::SCALE_POOL[rng.gen_range(0..vocab::SCALE_POOL.len())]
                        } else {
                            m.scale
                        };
                        Operand::Mem(Mem {
                            base,
                            index,
                            scale,
                            disp,
                            width: m.width,
                        })
                    }
                });
            }
            prog.push((mnemonic, ops));
        }
        let block = Block::assemble(&prog).ok()?;
        self.matches(&block).then_some(block)
    }
}

/// Generalization tuning.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Concrete instantiations sampled per proposed widening.
    pub samples: usize,
    /// Samples that must preserve the disagreement for the widening to
    /// be accepted.
    pub min_preserved: usize,
    /// Mixed into each finding's sampling RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            samples: 4,
            min_preserved: 3,
            seed: 0,
        }
    }
}

/// One finding lifted to a validated pattern.
#[derive(Debug, Clone)]
pub struct PatternResult {
    /// The widest validated pattern.
    pub pattern: BlockPattern,
    /// Evidence blocks that reproduce the disagreement: the original
    /// counterexample first, then every distinct preserved sample that
    /// backed an accepted widening.
    pub validated: Vec<Block>,
}

/// Greedily widen the concrete pattern of `block`, one slot-facet at a
/// time in a fixed order, keeping a widening only if at least
/// `cfg.min_preserved` of `cfg.samples` sampled instantiations still
/// disagree past `threshold` on `pair`.
///
/// Returns `None` when the block does not disagree past the threshold
/// in the first place. The result's pattern always subsumes `block`
/// (widening never un-matches the anchor), and `validated` is non-empty
/// (it starts with `block` itself).
#[must_use]
pub fn generalize_block(
    pair: &DiffPair<'_>,
    block: &Block,
    threshold: f64,
    cfg: &GenConfig,
) -> Option<PatternResult> {
    pair.delta(block).filter(|d| *d >= threshold)?;
    let (key_a, key_b) = pair.keys();
    let mut hasher = facile_util::FxHasher::default();
    cfg.seed.hash(&mut hasher);
    block.bytes().hash(&mut hasher);
    key_a.hash(&mut hasher);
    key_b.hash(&mut hasher);
    pair.uarch().hash(&mut hasher);
    pair.mode().hash(&mut hasher);
    let mut rng = StdRng::seed_from_u64(hasher.finish());

    let mut pattern = BlockPattern::concrete(block);
    let mut validated: Vec<Block> = vec![block.clone()];
    for slot in 0..pattern.slots.len() {
        for facet in LADDER {
            if pattern.slots[slot].has(facet) || !pattern.slots[slot].applicable(facet) {
                continue;
            }
            let mut trial = pattern.clone();
            trial.slots[slot].widened.push(facet);
            let mut preserved: Vec<Block> = Vec::new();
            for _ in 0..cfg.samples {
                if let Some(cand) = trial.instantiate(&mut rng) {
                    if pair.delta(&cand).is_some_and(|d| d >= threshold) {
                        preserved.push(cand);
                    }
                }
            }
            if preserved.len() >= cfg.min_preserved {
                pattern = trial;
                for b in preserved {
                    if !validated.iter().any(|v| v.bytes() == b.bytes()) {
                        validated.push(b);
                    }
                }
            }
        }
    }
    Some(PatternResult { pattern, validated })
}

/// One ranked cluster of findings that generalize to the same pattern.
#[derive(Debug, Clone)]
pub struct InconsistencySummary {
    /// Rendered pattern string (the clustering key).
    pub pattern: String,
    /// First predictor key.
    pub a: String,
    /// Second predictor key.
    pub b: String,
    /// Throughput notion.
    pub mode: Mode,
    /// Findings subsumed by this pattern.
    pub blocks: usize,
    /// Microarchitectures the cluster's findings were flagged on,
    /// deduplicated, in [`Uarch::ALL`] order.
    pub uarchs: Vec<Uarch>,
    /// Mean relative disagreement over the subsumed findings.
    pub mean_delta: f64,
    /// Largest relative disagreement over the subsumed findings.
    pub max_delta: f64,
    /// The representative counterexample (the first subsumed finding's
    /// shrunk block, hex).
    pub representative_hex: String,
    /// The representative's disagreement.
    pub representative_delta: f64,
    /// Widened facets in the pattern (0 = the finding never generalized
    /// beyond its concrete block).
    pub widenings: usize,
    /// Evidence blocks validating the representative's pattern
    /// (original + preserved samples).
    pub validated: usize,
    /// Up to three validated sample blocks (hex, excluding the
    /// representative itself) that reproduce the disagreement.
    pub sample_hexes: Vec<String>,
}

impl InconsistencySummary {
    /// Render as a single JSON object (one line, stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let uarchs: Vec<String> = self.uarchs.iter().map(|u| format!("\"{u}\"")).collect();
        let samples: Vec<String> = self
            .sample_hexes
            .iter()
            .map(|h| format!("\"{h}\""))
            .collect();
        format!(
            "{{\"pattern\":\"{}\",\"a\":\"{}\",\"b\":\"{}\",\"mode\":\"{}\",\"blocks\":{},\
             \"uarchs\":[{}],\"mean_delta\":{:.4},\"max_delta\":{:.4},\"widenings\":{},\
             \"validated\":{},\"representative\":{{\"block\":\"{}\",\"delta\":{:.4}}},\
             \"samples\":[{}]}}",
            json::escape(&self.pattern),
            json::escape(&self.a),
            json::escape(&self.b),
            match self.mode {
                Mode::Unrolled => "tpu",
                Mode::Loop => "tpl",
            },
            self.blocks,
            uarchs.join(","),
            self.mean_delta,
            self.max_delta,
            self.widenings,
            self.validated,
            self.representative_hex,
            self.representative_delta,
            samples.join(","),
        )
    }

    /// Render as an indented human-readable summary.
    #[must_use]
    pub fn to_text(&self) -> String {
        let uarchs: Vec<String> = self.uarchs.iter().map(ToString::to_string).collect();
        let mut s = format!(
            "{} vs {} ({}): {}\n",
            self.a,
            self.b,
            match self.mode {
                Mode::Unrolled => "TPU",
                Mode::Loop => "TPL",
            },
            self.pattern,
        );
        s.push_str(&format!(
            "  {} block(s) on {} — mean delta {:.2}, max {:.2}, {} widening(s), {} evidence block(s)\n",
            self.blocks,
            uarchs.join(","),
            self.mean_delta,
            self.max_delta,
            self.widenings,
            self.validated,
        ));
        s.push_str(&format!(
            "  representative: {} (delta {:.2})\n",
            self.representative_hex, self.representative_delta,
        ));
        if !self.sample_hexes.is_empty() {
            s.push_str(&format!("  samples: {}\n", self.sample_hexes.join(" ")));
        }
        s
    }
}

/// Generalize every finding and cluster the results by `(pattern, pair,
/// mode)`, ranked by blocks subsumed (desc), then mean disagreement
/// (desc), then pattern string.
///
/// Per-finding generalization runs on the engine's worker pool via an
/// order-preserving parallel map; clustering folds the results in
/// finding order, so the output is deterministic across thread counts.
#[must_use]
pub fn generalize_findings(
    engine: &Engine,
    findings: &[Finding],
    threshold: f64,
    cfg: &GenConfig,
) -> Vec<InconsistencySummary> {
    let results: Vec<Option<PatternResult>> =
        facile_engine::parallel_map_indexed(findings.len(), engine.threads(), |k| {
            let f = &findings[k];
            let pair = DiffPair::new(engine, &f.a.key, &f.b.key, f.uarch, f.mode).ok()?;
            let block = Block::from_hex(&f.shrunk_hex).ok()?;
            generalize_block(&pair, &block, threshold, cfg)
        });

    let mut clusters: Vec<(String, String, String, Mode, Vec<usize>)> = Vec::new();
    for (k, result) in results.iter().enumerate() {
        let Some(r) = result else { continue };
        let f = &findings[k];
        let key = (r.pattern.render(), f.a.key.clone(), f.b.key.clone(), f.mode);
        match clusters
            .iter_mut()
            .find(|(p, a, b, m, _)| *p == key.0 && *a == key.1 && *b == key.2 && *m == key.3)
        {
            Some((_, _, _, _, members)) => members.push(k),
            None => clusters.push((key.0, key.1, key.2, key.3, vec![k])),
        }
    }

    let mut out: Vec<InconsistencySummary> = clusters
        .into_iter()
        .map(|(pattern, a, b, mode, members)| {
            let rep = members[0];
            let rep_result = results[rep]
                .as_ref()
                .expect("clustered members generalized");
            let deltas: Vec<f64> = members.iter().map(|&k| findings[k].delta).collect();
            #[allow(clippy::cast_precision_loss)]
            let mean_delta = deltas.iter().sum::<f64>() / deltas.len() as f64;
            let max_delta = deltas.iter().fold(0.0f64, |m, &d| m.max(d));
            let uarchs: Vec<Uarch> = Uarch::ALL
                .into_iter()
                .filter(|u| members.iter().any(|&k| findings[k].uarch == *u))
                .collect();
            let sample_hexes: Vec<String> = rep_result
                .validated
                .iter()
                .skip(1)
                .take(3)
                .map(Block::to_hex)
                .collect();
            InconsistencySummary {
                pattern,
                a,
                b,
                mode,
                blocks: members.len(),
                uarchs,
                mean_delta,
                max_delta,
                representative_hex: findings[rep].shrunk_hex.clone(),
                representative_delta: findings[rep].delta,
                widenings: rep_result.pattern.widenings(),
                validated: rep_result.validated.len(),
                sample_hexes,
            }
        })
        .collect();
    out.sort_by(|x, y| {
        y.blocks
            .cmp(&x.blocks)
            .then_with(|| y.mean_delta.total_cmp(&x.mean_delta))
            .then_with(|| x.pattern.cmp(&y.pattern))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_x86::reg::names::*;

    fn block(prog: &[(Mnemonic, Vec<Operand>)]) -> Block {
        Block::assemble(prog).unwrap()
    }

    fn widen(b: &Block, slot: usize, facet: Facet) -> BlockPattern {
        let mut p = BlockPattern::concrete(b);
        p.slots[slot].widened.push(facet);
        p
    }

    #[test]
    fn concrete_pattern_matches_exactly_itself() {
        let b = block(&[
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Imul, vec![RDX.into(), RAX.into()]),
        ]);
        let p = BlockPattern::concrete(&b);
        assert!(p.matches(&b));
        assert_eq!(p.widenings(), 0);
        let other = block(&[
            (Mnemonic::Add, vec![RAX.into(), RBX.into()]),
            (Mnemonic::Imul, vec![RDX.into(), RAX.into()]),
        ]);
        assert!(!p.matches(&other));
        assert_eq!(p.render(), "add rax, rcx; imul rdx, rax");
    }

    #[test]
    fn regs_widening_preserves_aliasing_structure() {
        let b = block(&[(Mnemonic::Add, vec![RAX.into(), RCX.into()])]);
        let p = widen(&b, 0, Facet::Regs);
        assert!(p.matches(&b));
        // Distinct-register instances match...
        assert!(p.matches(&block(&[(Mnemonic::Add, vec![RSI.into(), RDI.into()])])));
        // ...same-register instances have a different aliasing shape...
        assert!(!p.matches(&block(&[(Mnemonic::Add, vec![RAX.into(), RAX.into()])])));
        // ...and widths stay rigid.
        assert!(!p.matches(&block(&[(Mnemonic::Add, vec![EAX.into(), ECX.into()])])));
        assert_eq!(p.render(), "add r64, r64");

        // The converse: an aliased anchor only matches aliased instances.
        let b2 = block(&[(Mnemonic::Add, vec![RAX.into(), RAX.into()])]);
        let p2 = widen(&b2, 0, Facet::Regs);
        assert!(p2.matches(&block(&[(Mnemonic::Add, vec![RBX.into(), RBX.into()])])));
        assert!(!p2.matches(&block(&[(Mnemonic::Add, vec![RBX.into(), RCX.into()])])));
    }

    #[test]
    fn cond_widening_spans_the_family() {
        let b = block(&[
            (Mnemonic::Cmp, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Jcc(Cond::E), vec![Operand::Rel(-9)]),
        ]);
        let p = widen(&b, 1, Facet::Cond);
        assert!(p.matches(&b));
        let ne = block(&[
            (Mnemonic::Cmp, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-9)]),
        ]);
        assert!(p.matches(&ne));
        assert!(p.render().contains("jcc"));
        // An unconditional jump is not in the family.
        let jmp = block(&[
            (Mnemonic::Cmp, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Jmp, vec![Operand::Rel(-9)]),
        ]);
        assert!(!p.matches(&jmp));
    }

    #[test]
    fn instantiate_produces_matching_blocks() {
        let m = Mem::base_index(RBX, RCX, 4, 64, Width::W64);
        let b = block(&[
            (Mnemonic::Mov, vec![RAX.into(), m.into()]),
            (Mnemonic::Add, vec![RAX.into(), Operand::Imm(7)]),
        ]);
        let mut p = BlockPattern::concrete(&b);
        for facet in [Facet::Regs, Facet::Disp, Facet::Scale] {
            p.slots[0].widened.push(facet);
        }
        p.slots[1].widened.push(Facet::Imm);
        p.slots[1].widened.push(Facet::Regs);
        let mut rng = StdRng::seed_from_u64(42);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..32 {
            let inst = p.instantiate(&mut rng).expect("samples assemble");
            assert!(p.matches(&inst), "{}", inst.to_hex());
            distinct.insert(inst.to_hex());
        }
        assert!(distinct.len() > 5, "sampling collapsed: {distinct:?}");
        // Determinism: same seed, same draws.
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            assert_eq!(
                p.instantiate(&mut r1).map(|b| b.to_hex()),
                p.instantiate(&mut r2).map(|b| b.to_hex())
            );
        }
    }

    #[test]
    fn applicability_follows_structure() {
        let b = block(&[(Mnemonic::Nop, vec![])]);
        let s = &BlockPattern::concrete(&b).slots[0];
        for f in LADDER {
            assert!(!s.applicable(f), "{f:?} applicable to bare nop");
        }
        let m = Mem::base_disp(RBX, 8, Width::W64);
        let b = block(&[(Mnemonic::Mov, vec![RAX.into(), m.into()])]);
        let s = &BlockPattern::concrete(&b).slots[0];
        assert!(s.applicable(Facet::Regs));
        assert!(s.applicable(Facet::Disp));
        assert!(!s.applicable(Facet::Scale)); // no index register
        assert!(!s.applicable(Facet::Imm));
        assert!(!s.applicable(Facet::Cond));
    }
}
