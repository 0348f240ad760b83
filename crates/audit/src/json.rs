//! A minimal JSON value: emit and parse, no dependencies.
//!
//! The auditor is deliberately dependency-free (it gates the build, so
//! it must run in the same offline environment), which means `--format
//! json` output and the parser the report-schema test reads it back with
//! are hand-rolled here. Only the subset the report schema uses is
//! supported: objects keep
//! insertion order, numbers are non-negative integers in practice
//! (parsed as `f64`), and strings escape the JSON-mandatory set.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: u64) -> Json {
        // Report counts/lines are far below 2^53; f64 is exact there.
        Json::Num(n as f64)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact rendering (no whitespace) — stable, diff-friendly enough
    /// for the committed baseline since entries are emitted sorted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = parse_value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {i}", i = *i))
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, i, "null").map(|()| Json::Null),
        Some(b't') => expect(b, i, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, i, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, i).map(Json::Str),
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {i}", i = *i)),
                }
            }
        }
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                expect(b, i, ":")?;
                let value = parse_value(b, i)?;
                fields.push((key, value));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {i}", i = *i)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *i;
            *i += 1;
            while *i < b.len()
                && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *i)),
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}", i = *i));
    }
    *i += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {i}", i = *i))?;
                        // Surrogate pairs are not needed by the report
                        // schema; replace rather than fail.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at byte {i}", i = *i)),
                }
                *i += 1;
            }
            _ => {
                // Copy the full UTF-8 sequence through.
                let s = std::str::from_utf8(&b[*i..])
                    .map_err(|_| format!("invalid UTF-8 at byte {i}", i = *i))?;
                let ch = s.chars().next().ok_or("unexpected end of string")?;
                out.push(ch);
                *i += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_report_shape() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("waso-audit-report/v1")),
            ("files_audited".into(), Json::num(33)),
            (
                "diagnostics".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("file".into(), Json::str("a \"quoted\" path\n")),
                    ("line".into(), Json::num(7)),
                    (
                        "chain".into(),
                        Json::Arr(vec![Json::str("x → y"), Json::str("z")]),
                    ),
                ])]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("files_audited").unwrap().as_u64(), Some(33));
        let d = &back.get("diagnostics").unwrap().as_arr().unwrap()[0];
        assert_eq!(d.get("file").unwrap().as_str(), Some("a \"quoted\" path\n"));
    }

    #[test]
    fn parses_pretty_printed_input() {
        let text = "{\n  \"entries\": [\n    {\"file\": \"f.rs\", \"count\": 2}\n  ]\n}";
        let v = Json::parse(text).unwrap();
        let entries = v.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries[0].get("count").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
        assert!(Json::parse("[1,").is_err());
    }
}
