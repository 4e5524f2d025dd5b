//! Machine-readable renderings of batch rows.
//!
//! One [`ItemResult`] row has exactly one JSON and one CSV spelling,
//! produced here and nowhere else. The `facile` CLI's batch output and
//! the `facile-server` daemon's protocol replies both call these
//! functions, which is what makes the "server rows are byte-identical
//! to CLI rows" guarantee a property of the code rather than of two
//! renderers kept in sync by hand.

use crate::engine::ItemResult;
use facile_core::Mode;
use facile_util::json;
use std::fmt::Write as _;

/// CSV field quoting per RFC 4180 (only when needed).
#[must_use]
pub fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The wire spelling of a throughput notion (`tpu`, `tpl`, or empty when
/// decoding failed before the notion could be resolved).
#[must_use]
pub fn mode_str(mode: Option<Mode>) -> &'static str {
    match mode {
        Some(Mode::Unrolled) => "tpu",
        Some(Mode::Loop) => "tpl",
        None => "",
    }
}

/// The CSV column header for batch rows (without the optional
/// `explanation` column).
pub const CSV_HEADER: &str = "block,uarch,mode,predictor,status,throughput,bottleneck,error";

/// The CSV header row, with the `explanation` column iff rows will carry
/// explanations.
#[must_use]
pub fn csv_header(explain: bool) -> String {
    if explain {
        format!("{CSV_HEADER},explanation")
    } else {
        CSV_HEADER.to_string()
    }
}

/// One row as a single-line JSON object (no trailing newline).
#[must_use]
pub fn row_json(r: &ItemResult) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"block\":\"{}\",\"uarch\":\"{}\",\"mode\":\"{}\",\"predictor\":\"{}\"",
        json::escape(&r.block_hex),
        r.uarch,
        mode_str(r.mode),
        json::escape(&r.predictor),
    );
    match &r.prediction {
        Ok(p) => {
            let bn = p
                .bottleneck
                .map_or_else(|| "null".to_string(), |b| format!("\"{}\"", b.name()));
            let _ = write!(s, ",\"status\":\"ok\",\"throughput\":{:.4}", p.throughput);
            let _ = write!(s, ",\"bottleneck\":{bn}");
            if let Some(e) = &p.explanation {
                let _ = write!(s, ",\"explanation\":{}", e.to_json());
            }
            s.push('}');
        }
        Err(e) => {
            let _ = write!(
                s,
                ",\"status\":\"error\",\"code\":\"{}\",\"error\":\"{}\"}}",
                e.code(),
                json::escape(&e.to_string())
            );
        }
    }
    s
}

/// One row as a CSV line (no trailing newline). `explain` appends the
/// `explanation` column (empty for error rows), matching
/// [`csv_header`]`(true)`.
#[must_use]
pub fn row_csv(r: &ItemResult, explain: bool) -> String {
    let extra = |expl_field: &str| {
        if explain {
            format!(",{expl_field}")
        } else {
            String::new()
        }
    };
    match &r.prediction {
        Ok(p) => format!(
            "{},{},{},{},ok,{:.4},{},{}",
            csv_escape(&r.block_hex),
            r.uarch,
            mode_str(r.mode),
            csv_escape(&r.predictor),
            p.throughput,
            p.bottleneck.map_or("", |b| b.name()),
            extra(
                &p.explanation
                    .as_ref()
                    .map_or_else(String::new, |e| csv_escape(&e.to_json()))
            ),
        ),
        Err(e) => format!(
            "{},{},{},{},{},,,{}{}",
            csv_escape(&r.block_hex),
            r.uarch,
            mode_str(r.mode),
            csv_escape(&r.predictor),
            e.code(),
            csv_escape(&e.to_string()),
            extra(""),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchItem, Engine};
    use facile_uarch::Uarch;

    #[test]
    fn json_and_csv_rows_render() {
        let engine = Engine::with_builtins().with_threads(1);
        let items = [
            BatchItem::hex("4801c8", Uarch::Skl),
            BatchItem::hex("zz", Uarch::Skl),
        ];
        let rows = engine.predict_batch(&items, "facile").expect("resolves");
        assert_eq!(
            row_json(&rows[0]),
            "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"facile\",\
             \"status\":\"ok\",\"throughput\":1.0000,\"bottleneck\":\"Precedence\"}"
        );
        assert_eq!(
            row_csv(&rows[0], false),
            "4801c8,SKL,tpu,facile,ok,1.0000,Precedence,"
        );
        let err_json = row_json(&rows[1]);
        assert!(err_json.contains("\"status\":\"error\""), "{err_json}");
        assert!(err_json.contains("\"code\":\"bad-hex\""), "{err_json}");
        // The explain column is appended exactly when requested.
        assert!(row_csv(&rows[1], true).ends_with(','));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("a\"b"), "\"a\"\"b\"");
    }
}
