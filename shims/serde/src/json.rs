//! JSON rendering and parsing for the [`Value`] model (the shim's
//! `serde_json`).

use crate::{Deserialize, Error, Serialize, Value};

/// Serialize `t` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(t: &T) -> String {
    let mut out = String::new();
    write_value(&t.to_value(), &mut out);
    out
}

/// Serialize `t` to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(t: &T) -> String {
    let mut out = String::new();
    write_value_pretty(&t.to_value(), &mut out, 0);
    out
}

/// Deserialize a `T` from JSON text.
///
/// # Errors
///
/// [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse(s)?)
}

/// How deeply arrays and objects may nest in parsed text. Session
/// checkpoints nest 4 levels for the shipped programs (at
/// `machine.procs[i]`), plus the depth of a processor's private state;
/// the golden event fixtures nest 3. Anything past this limit is refused
/// with an [`Error`] rather than recursed into until the stack overflows.
pub const MAX_DEPTH: usize = 128;

/// Parse JSON text into a [`Value`], in time linear in the text's length.
///
/// # Errors
///
/// [`Error`] on malformed JSON, trailing garbage, or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::custom(format!("trailing characters at byte {pos}")));
    }
    Ok(v)
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => push_uint(*u, out),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            push_uint(i.unsigned_abs(), out);
        }
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

/// `value` in decimal, formatted on the stack rather than through a
/// `String` per integer.
fn push_uint(mut value: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

fn write_value_pretty(v: &Value, out: &mut String, indent: usize) {
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        out.push_str(&format!("{f:?}"));
    } else {
        // JSON has no NaN/inf; mirror serde_json's `null`.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value; `depth` is how many more arrays or objects may open
/// inside it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::custom("unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[' | b'{') if depth == 0 => {
            Err(Error::custom(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}")))
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::custom(format!("expected ',' or ']' at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::custom(format!("expected ':' at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth - 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error::custom(format!("expected ',' or '}}' at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(Error::custom(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::custom(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or backslash in one step.
        // Both are ASCII, so the run ends on a character boundary, and
        // each byte is validated once.
        let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
        let end = run.map_or(bytes.len(), |run| *pos + run);
        out.push_str(
            std::str::from_utf8(&bytes[*pos..end])
                .map_err(|_| Error::custom("invalid UTF-8 in string"))?,
        );
        *pos = end;
        match bytes.get(*pos) {
            None => return Err(Error::custom("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash: decode one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(Error::custom("invalid escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::custom("invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::custom(format!("expected number at byte {start}")));
    }
    if float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| Error::custom(format!("bad float '{text}': {e}")))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|e| Error::custom(format!("bad integer '{text}': {e}")))
    } else {
        text.parse::<u64>()
            .map(Value::UInt)
            .map_err(|e| Error::custom(format!("bad integer '{text}': {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_containers() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(7)),
            ("b".into(), Value::Seq(vec![Value::Int(-3), Value::Float(1.5), Value::Null])),
            ("c".into(), Value::Str("x \"y\"\n".into())),
            ("d".into(), Value::Bool(true)),
        ]);
        let text = {
            let mut s = String::new();
            write_value(&v, &mut s);
            s
        };
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"k\" : [ 1 , { \"n\" : null } ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_seq().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    /// Strings whose characters straddle the decoder's copied runs: every
    /// UTF-8 width, escapes at both ends of a run, and the control
    /// characters the writer escapes.
    const BOUNDARY_STRINGS: &[&str] = &[
        "",
        "é",
        "aé",
        "éa",
        "ß€𝄞",
        "a€b𝄞c",
        "\"start",
        "end\"",
        "\\",
        "a\\",
        "\\a",
        "\"\\\"",
        "\n",
        "line\nbreak",
        "\u{0}\u{1}\u{1f}\t\r",
        "é\"€\\𝄞\u{7}",
        "/ slash",
    ];

    #[test]
    fn strings_roundtrip_across_run_boundaries() {
        for &s in BOUNDARY_STRINGS {
            let v = Value::Seq(vec![Value::Str(s.into()), Value::Str(s.into())]);
            assert_eq!(parse(&to_string(&v)).unwrap(), v, "{s:?}");
            assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v, "{s:?}");
            let map = Value::Map(vec![(s.into(), Value::Str(s.into()))]);
            assert_eq!(parse(&to_string(&map)).unwrap(), map, "{s:?}");
        }
        // Escapes the writer never emits still decode.
        assert_eq!(parse(r#""\/\b\fé€""#).unwrap(), Value::Str("/\u{8}\u{c}é€".into()));
    }

    #[test]
    fn string_errors_are_pinned() {
        let err = |text: &str| parse(text).unwrap_err().to_string();
        assert_eq!(err(r#""abc"#), "unterminated string");
        assert_eq!(err(r#"["é"#), "unterminated string");
        assert_eq!(err(r#""abc\"#), "invalid escape");
        assert_eq!(err(r#""\x""#), "invalid escape");
        assert_eq!(err(r#""\u12""#), "truncated \\u escape");
        assert_eq!(err(r#""\u12zz""#), "invalid \\u escape");
        assert_eq!(err(r#""\u00é""#), "invalid \\u escape");
        assert_eq!(err(r#""\ud800""#), "invalid \\u code point");
        assert_eq!(err(r#"{1:2}"#), "expected string at byte 1");
    }

    /// The string decoder as it was before the run scan: one character
    /// per step, re-validating the rest of the input each time (quadratic
    /// in the input's length). The reference the scan is checked against.
    fn parse_string_per_char(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(Error::custom(format!("expected string at byte {pos}")));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(Error::custom("unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::custom("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(Error::custom("invalid escape")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().expect("non-empty remainder");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    #[test]
    fn scan_matches_the_per_character_reference() {
        // Every sequence of up to three fragments, each with and without
        // a closing quote and a trailing value: the scan must return the
        // same string (or the same error) and stop at the same byte.
        const FRAGMENTS: &[&str] = &[
            "a", "é", "€", "𝄞", "\"", "\\", "\\\"", "\\\\", "\\n", "\\/", "\\u0041", "\\u00e9",
            "\\u+041", "\\ud800", "\\u12", "\\u00é", "\\q", "\u{1}", "\n", " ",
        ];
        let mut cases = vec![String::new()];
        for _ in 0..3 {
            let longer: Vec<String> = cases
                .iter()
                .flat_map(|c| FRAGMENTS.iter().map(move |f| format!("{c}{f}")))
                .collect();
            cases.extend(longer);
        }
        cases.sort();
        cases.dedup();
        for body in &cases {
            for tail in ["", "\"", "\",1]"] {
                let text = format!("\"{body}{tail}");
                let (mut new_pos, mut old_pos) = (0, 0);
                let new = parse_string(text.as_bytes(), &mut new_pos);
                let old = parse_string_per_char(text.as_bytes(), &mut old_pos);
                assert_eq!(new, old, "{text:?}");
                if new.is_ok() {
                    assert_eq!(new_pos, old_pos, "{text:?}");
                }
            }
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let err = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert_eq!(err.to_string(), format!("nesting deeper than {MAX_DEPTH} levels at byte 128"));
        assert!(parse(&"{\"k\":".repeat(1 << 16)).is_err());
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    /// A document with the shape of a v4 machine checkpoint: memory
    /// cells, per-processor state, and a failure pattern of small tagged
    /// maps, about a fifth of its bytes inside strings.
    fn checkpoint_shaped(events: u64) -> Value {
        let str = |s: &str| Value::Str(s.into());
        let event = |i: u64| {
            let kind = if i.is_multiple_of(2) {
                Value::Map(vec![(
                    "Failure".into(),
                    Value::Map(vec![("point".into(), str("BeforeWrites"))]),
                )])
            } else {
                str("Restart")
            };
            Value::Map(vec![
                ("kind".into(), kind),
                ("pid".into(), Value::UInt(i % 64)),
                ("time".into(), Value::UInt(i / 8)),
            ])
        };
        let proc = |p: u64| {
            Value::Map(vec![
                ("status".into(), str(if p.is_multiple_of(2) { "Alive" } else { "Failed" })),
                ("completed".into(), Value::UInt(p * 7)),
                ("state".into(), Value::Null),
            ])
        };
        Value::Map(vec![
            ("version".into(), Value::UInt(4)),
            ("model".into(), str("word")),
            ("mem".into(), Value::Seq((0..events).map(|i| Value::UInt(i % 3)).collect())),
            ("procs".into(), Value::Seq((0..64).map(proc).collect())),
            (
                "pattern".into(),
                Value::Map(vec![("events".into(), Value::Seq((0..events).map(event).collect()))]),
            ),
        ])
    }

    #[test]
    fn megabyte_documents_decode_in_linear_time() {
        // Unoptimized, the linear decoder takes about 20 ms on either
        // document; the quadratic per-character one it replaced took 7 s
        // on the checkpoint and over 3 minutes on the string (2-vCPU x86
        // host). The bound only has to separate the two.
        let bound = std::time::Duration::from_secs(2);
        let unit = "plain ascii é€𝄞 \"quoted\" back\\slash\n\t";
        let big = Value::Str(unit.repeat((1 << 20) / unit.len()));
        let ck = checkpoint_shaped(10_000);
        for (what, v, text) in
            [("string", &big, to_string(&big)), ("checkpoint", &ck, to_string_pretty(&ck))]
        {
            assert!(text.len() >= 1 << 20, "{what}: only {} bytes", text.len());
            let start = std::time::Instant::now();
            let back = parse(&text).unwrap();
            let took = start.elapsed();
            assert!(back == *v, "{what}: the round trip changed the document");
            assert!(took < bound, "{what}: {} bytes took {took:?}", text.len());
        }
    }

    #[test]
    fn integers_render_as_std_formats_them() {
        for u in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            assert_eq!(to_string(&Value::UInt(u)), u.to_string());
        }
        for i in [-1, -9, -10, -12_345, i64::MIN + 1, i64::MIN] {
            let text = to_string(&Value::Int(i));
            assert_eq!(text, i.to_string());
            assert_eq!(parse(&text).unwrap(), Value::Int(i));
        }
    }

    #[test]
    fn typed_roundtrip() {
        let xs: Vec<(u64, bool)> = vec![(1, true), (2, false)];
        let text = to_string(&xs);
        assert_eq!(text, "[[1,true],[2,false]]");
        let back: Vec<(u64, bool)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }
}
