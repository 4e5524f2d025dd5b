//! Renderers over the explanation data model: structured JSON (no
//! external dependencies) and a compact human-readable text form.
//!
//! The legacy full report — which disassembles the instructions on the
//! critical chain — lives in `facile-core::report`, since it needs the
//! annotated block; these renderers work from the [`Explanation`] alone
//! and are what the CLI uses for `--explain` in batch mode.

use crate::explanation::{ChainStep, Evidence, Explanation, PortLoad};
use facile_util::json;
use std::fmt::Write;

/// Emit a finite float as a JSON number (`null` for non-finite values,
/// which cannot occur for well-formed explanations but must not produce
/// invalid JSON if they ever do).
fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn json_chain(out: &mut String, chain: &[ChainStep]) {
    out.push('[');
    for (i, s) in chain.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"inst\":{},\"value\":\"", s.inst);
        json::escape_into(out, &s.value.to_string());
        out.push_str("\",\"latency\":");
        json_num(out, s.latency);
        let _ = write!(out, ",\"loop_carried\":{}}}", s.loop_carried);
    }
    out.push(']');
}

fn json_port_loads(out: &mut String, loads: &[PortLoad]) {
    out.push('[');
    for (i, l) in loads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"ports\":\"{}\",\"uops\":", l.ports);
        json_num(out, l.uops);
        out.push('}');
    }
    out.push(']');
}

fn json_evidence(out: &mut String, e: &Evidence) {
    match e {
        Evidence::None => out.push_str("null"),
        Evidence::Predec(p) => {
            let _ = write!(
                out,
                "{{\"kind\":\"predec\",\"unroll_copies\":{},\"chunks\":{},\"lcp_insts\":{},\
                 \"boundary_crossings\":{},\"base_cycles\":",
                p.unroll_copies, p.chunks, p.lcp_insts, p.boundary_crossings
            );
            json_num(out, p.base_cycles);
            out.push_str(",\"lcp_penalty_cycles\":");
            json_num(out, p.lcp_penalty_cycles);
            out.push('}');
        }
        Evidence::Dec(d) => {
            let _ = write!(
                out,
                "{{\"kind\":\"dec\",\"decoders\":{},\"steady_cycles\":{},\
                 \"steady_iterations\":{},\"complex_insts\":{}}}",
                d.decoders, d.steady_cycles, d.steady_iterations, d.complex_insts
            );
        }
        Evidence::Dsb(d) => {
            let _ = write!(
                out,
                "{{\"kind\":\"dsb\",\"fused_uops\":{},\"dsb_width\":{},\"rounded_up\":{}}}",
                d.fused_uops, d.dsb_width, d.rounded_up
            );
        }
        Evidence::Lsd(l) => {
            let _ = write!(
                out,
                "{{\"kind\":\"lsd\",\"fused_uops\":{},\"unroll\":{},\"issue_width\":{}}}",
                l.fused_uops, l.unroll, l.issue_width
            );
        }
        Evidence::Issue(i) => {
            let _ = write!(
                out,
                "{{\"kind\":\"issue\",\"issue_uops\":{},\"issue_width\":{}}}",
                i.issue_uops, i.issue_width
            );
        }
        Evidence::Ports(p) => {
            let _ = write!(
                out,
                "{{\"kind\":\"ports\",\"critical_ports\":\"{}\",\"load_on_critical\":",
                p.critical_ports
            );
            json_num(out, p.load_on_critical);
            out.push_str(",\"port_loads\":");
            json_port_loads(out, &p.port_loads);
            out.push('}');
        }
        Evidence::Precedence(p) => {
            out.push_str("{\"kind\":\"precedence\",\"critical_chain\":");
            json_chain(out, &p.critical_chain);
            out.push('}');
        }
    }
}

impl Explanation {
    /// Render the explanation as one structured JSON object: per-component
    /// bounds (with typed evidence where collected), the bottleneck set in
    /// tie-break order, and — hoisted to the top level for convenience —
    /// the critical-chain edges, the port-load map, and the
    /// per-instruction attributions.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"front_end\":\"");
        out.push_str(self.front_end.name());
        out.push_str("\",\"throughput\":");
        json_num(&mut out, self.throughput);
        out.push_str(",\"bounds\":[");
        for (i, a) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"component\":\"{}\",\"bound\":", a.component.name());
            json_num(&mut out, a.bound);
            if !matches!(a.evidence, Evidence::None) {
                out.push_str(",\"evidence\":");
                json_evidence(&mut out, &a.evidence);
            }
            out.push('}');
        }
        out.push_str("],\"bottlenecks\":[");
        for (i, b) in self.bottlenecks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", b.name());
        }
        out.push(']');
        if let Some(p) = self.ports() {
            let _ = write!(out, ",\"critical_ports\":\"{}\"", p.critical_ports);
            out.push_str(",\"load_on_critical\":");
            json_num(&mut out, p.load_on_critical);
            out.push_str(",\"port_loads\":");
            json_port_loads(&mut out, &p.port_loads);
        }
        let chain = self.critical_chain();
        if !chain.is_empty() {
            out.push_str(",\"critical_chain\":");
            json_chain(&mut out, chain);
        }
        if !self.attributions.is_empty() {
            out.push_str(",\"attributions\":[");
            let mut first = true;
            for a in &self.attributions {
                if a.is_zero() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{{\"inst\":{},\"critical_port_uops\":", a.inst);
                json_num(&mut out, a.critical_port_uops);
                out.push_str(",\"chain_latency\":");
                json_num(&mut out, a.chain_latency);
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// Render a compact human-readable summary (one fact per line). Used
    /// by the CLI for `--explain` in batch mode, where the annotated block
    /// is not available for disassembly; the bottleneck components are
    /// marked with `<-`.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "front end: {}", self.front_end);
        if let Some(b) = self.primary_bottleneck() {
            let _ = write!(out, "; bottleneck: {b}");
        }
        out.push('\n');
        out.push_str("bounds:");
        for a in &self.components {
            let marker = if self.bottlenecks.contains(&a.component) {
                "<-"
            } else {
                ""
            };
            let _ = write!(out, " {}={:.2}{marker}", a.component.name(), a.bound);
        }
        out.push('\n');
        if let Some(p) = self.ports() {
            if !p.critical_ports.is_empty() {
                let _ = write!(
                    out,
                    "ports: {:.2} uops on {}",
                    p.load_on_critical, p.critical_ports
                );
                if !p.port_loads.is_empty() {
                    out.push_str(" [");
                    for (i, l) in p.port_loads.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        let _ = write!(out, "{}={:.2}", l.ports, l.uops);
                    }
                    out.push(']');
                }
                out.push('\n');
            }
        }
        let chain = self.critical_chain();
        if !chain.is_empty() {
            out.push_str("chain:");
            for s in chain {
                let carry = if s.loop_carried { "/carry" } else { "" };
                let _ = write!(out, " [{}]@{}+{:.2}{carry}", s.value, s.inst, s.latency);
            }
            out.push('\n');
        }
        let contributors: Vec<_> = self.attributions.iter().filter(|a| !a.is_zero()).collect();
        if !contributors.is_empty() {
            out.push_str("attribution:");
            for a in contributors {
                let _ = write!(out, " #{}", a.inst);
                if a.critical_port_uops > 0.0 {
                    let _ = write!(out, " ports={:.2}", a.critical_port_uops);
                }
                if a.chain_latency > 0.0 {
                    let _ = write!(out, " chain={:.2}", a.chain_latency);
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explanation::{ComponentAnalysis, PortsEvidence, PrecedenceEvidence, ValueRef};
    use crate::model::{Component, FrontEndPath, Mode};
    use facile_uarch::PortMask;
    use facile_x86::reg::names::*;

    fn sample() -> Explanation {
        Explanation::compose(
            Mode::Unrolled,
            FrontEndPath::Mite,
            vec![
                ComponentAnalysis {
                    component: Component::Ports,
                    bound: 1.0,
                    evidence: Evidence::Ports(PortsEvidence {
                        critical_ports: PortMask::of(&[1]),
                        load_on_critical: 1.0,
                        port_loads: vec![PortLoad {
                            ports: PortMask::of(&[1]),
                            uops: 1.0,
                        }],
                    }),
                },
                ComponentAnalysis {
                    component: Component::Precedence,
                    bound: 3.0,
                    evidence: Evidence::Precedence(PrecedenceEvidence {
                        critical_chain: vec![ChainStep {
                            inst: 1,
                            value: ValueRef::Reg(RDX),
                            latency: 3.0,
                            loop_carried: true,
                        }],
                    }),
                },
            ],
            vec![crate::InstAttribution {
                inst: 1,
                critical_port_uops: 1.0,
                chain_latency: 3.0,
            }],
        )
    }

    #[test]
    fn json_contains_structured_fields() {
        let j = sample().to_json();
        assert!(j.contains("\"front_end\":\"MITE\""), "{j}");
        assert!(
            j.contains("\"component\":\"Precedence\",\"bound\":3"),
            "{j}"
        );
        assert!(j.contains("\"critical_chain\":[{\"inst\":1"), "{j}");
        assert!(j.contains("\"loop_carried\":true"), "{j}");
        assert!(j.contains("\"port_loads\":[{\"ports\":\"p1\""), "{j}");
        assert!(j.contains("\"bottlenecks\":[\"Precedence\"]"), "{j}");
        assert!(j.contains("\"attributions\":[{\"inst\":1"), "{j}");
    }

    #[test]
    fn text_mentions_bottleneck_and_chain() {
        let t = sample().to_text();
        assert!(t.contains("bottleneck: Precedence"), "{t}");
        assert!(t.contains("Precedence=3.00<-"), "{t}");
        assert!(t.contains("[rdx]@1+3.00/carry"), "{t}");
        assert!(t.contains("ports: 1.00 uops on p1"), "{t}");
    }
}
