//! What a run reports: named metrics with units, output checks, raw
//! per-trial values, and the record file that keeps them.

use std::fmt::Write as _;

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (rate, sample count, per-call basis).
    pub note: String,
}

/// Everything one run found out.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Printed and recorded but not in the result line: figures a shared
    /// virtual machine cannot reproduce within any bound (see `README.md`).
    pub info: Vec<Metric>,
    /// Operations attempted and failed (rows, requests, invocations).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    /// Raw per-trial series, kept beside the medians.
    pub raw: Vec<(String, Vec<f64>)>,
    /// Input sizes and other run facts.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn info(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.info.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Keep a raw per-trial series, with its quartile spread as a fact.
    pub fn raw(&mut self, name: impl Into<String>, values: Vec<f64>) {
        let name = name.into();
        self.facts.push((
            format!("{name}: n, iqr/median"),
            format!("{}, {:.4}", values.len(), crate::stats::spread(&values)),
        ));
        self.raw.push((name, values));
    }

    pub fn fact(&mut self, name: impl Into<String>, value: impl ToString) {
        self.facts.push((name.into(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The full record: the result plus checks, raw series and facts.
    pub fn record_json(&self, header: &[(&str, String)]) -> String {
        let mut s = String::from("{");
        for (k, v) in header {
            let _ = write!(s, "\"{k}\":\"{}\",", esc(v));
        }
        let _ = write!(s, "\"result\":{},\"notes\":{{", self.result_json());
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{}\":\"{}\"", m.name, esc(&m.note));
        }
        s.push_str("},\"info\":{");
        for (i, m) in self.info.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"note\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit,
                esc(&m.note)
            );
        }
        s.push_str("},\"checks\":[");
        for (i, (what, ok)) in self.checks.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}{{\"check\":\"{}\",\"ok\":{ok}}}", esc(what));
        }
        s.push_str("],\"facts\":{");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{}\":\"{}\"", esc(k), esc(v));
        }
        s.push_str("},\"raw\":{");
        for (i, (k, vs)) in self.raw.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let vals: Vec<String> = vs.iter().map(|v| num(*v)).collect();
            let _ = write!(s, "{sep}\"{}\":[{}]", esc(k), vals.join(","));
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit the measurement has.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn esc(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}

/// The text of a string or number field in one flat JSON object line
/// written by `facile` (`"key":"text"` or `"key":number`).
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        s.find('"').map(|end| &s[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}
