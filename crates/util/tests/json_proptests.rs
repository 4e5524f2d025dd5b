//! Property tests for the shared JSON parser's string scanner:
//! escaping any string and parsing it back is the identity (raw
//! multi-byte UTF-8, control characters, and `\u` escapes, surrogate
//! pairs included), and errors inside long unescaped runs keep their
//! exact `ParseError { at, reason }`.

use facile_util::json::{escape, parse, ParseError};
use proptest::prelude::*;

/// One character from every UTF-8 width, plus the bytes the scanner
/// stops on (`"`, `\`, controls).
fn any_char() -> impl Strategy<Value = char> {
    let pick = |lo: u32, hi: u32| (lo..hi).prop_map(|c| char::from_u32(c).expect("scalar value"));
    prop_oneof![
        pick(0x20, 0x7f),
        pick(0x00, 0x20),
        Just('"'),
        Just('\\'),
        pick(0x80, 0x800),
        pick(0x800, 0xd800),
        pick(0xe000, 0x1_0000),
        pick(0x1_0000, 0x11_0000),
    ]
}

/// `c` as a `\u` escape (a surrogate pair above the BMP).
fn u_escape(c: char) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units)
        .iter()
        .map(|u| format!("\\u{u:04x}"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse("\"" + escape(s) + "\"")` returns `s`.
    #[test]
    fn escaped_strings_round_trip(chars in proptest::collection::vec(any_char(), 0..64)) {
        let s: String = chars.into_iter().collect();
        let line = format!("\"{}\"", escape(&s));
        let v = parse(&line).expect("escaped string parses");
        prop_assert_eq!(v.as_str(), Some(s.as_str()));
        prop_assert_eq!(v.span, (0, line.len()));
    }

    /// Mixing raw runs with `\u` escapes of arbitrary characters, in
    /// keys and values alike, decodes to the same string.
    #[test]
    fn u_escapes_mixed_with_raw_runs_round_trip(
        parts in proptest::collection::vec((any_char(), any::<bool>()), 0..64),
    ) {
        let s: String = parts.iter().map(|&(c, _)| c).collect();
        let mut body = String::new();
        for &(c, as_u) in &parts {
            if as_u {
                body.push_str(&u_escape(c));
            } else {
                body.push_str(&escape(c.encode_utf8(&mut [0u8; 4])));
            }
        }
        let line = format!("{{\"{body}\":\"{body}\"}}");
        let v = parse(&line).expect("escaped object parses");
        prop_assert_eq!(v.get(&s).and_then(|x| x.as_str()), Some(s.as_str()));
    }
}

fn err(src: &str) -> ParseError {
    parse(src).expect_err("malformed input must fail")
}

/// The error a string reports does not depend on how long the clean
/// run before it is: the offset is the offending byte's, the reason is
/// unchanged.
#[test]
fn errors_inside_long_runs_keep_offset_and_reason() {
    let run = "a".repeat(5000);
    let wide = "é€😀".repeat(700); // 2-, 3- and 4-byte characters
    for prefix in [run.as_str(), wide.as_str()] {
        let p = prefix.len();
        let cases: [(String, usize, &str); 9] = [
            (
                format!("\"{prefix}\u{1}{prefix}\""),
                1 + p,
                "control character in string",
            ),
            (
                format!("\"{prefix}\n\""),
                1 + p,
                "control character in string",
            ),
            (format!("\"{prefix}\\q{prefix}\""), 2 + p, "invalid escape"),
            (format!("\"{prefix}"), 1 + p, "unterminated string"),
            (format!("\"{prefix}\\"), 2 + p, "invalid escape"),
            (
                format!("\"{prefix}\\u12g4{prefix}\""),
                3 + p,
                "invalid \\u escape",
            ),
            (format!("\"{prefix}\\u12"), 3 + p, "truncated \\u escape"),
            (
                format!("\"{prefix}\\ud800{prefix}\""),
                7 + p,
                "unpaired surrogate",
            ),
            (
                format!("\"{prefix}\\ud800\\u0041\""),
                13 + p,
                "invalid low surrogate",
            ),
        ];
        for (src, at, reason) in cases {
            assert_eq!(
                err(&src),
                ParseError { at, reason },
                "input of {} bytes",
                src.len()
            );
        }
        // The same errors in an object key, after a long value.
        let src = format!("{{\"k\":\"{prefix}\",\"{prefix}\u{1f}\":1}}");
        assert_eq!(
            err(&src),
            ParseError {
                at: 9 + 2 * p,
                reason: "control character in string"
            }
        );
    }
}
