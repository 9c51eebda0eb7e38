//! Minimal JSON support for policy import/export.
//!
//! The workspace builds hermetically (no crates-io registry), so instead
//! of `serde`/`serde_json` the policy types serialise through this small
//! hand-rolled JSON value type. The layout mirrors what the serde derives
//! used to produce (externally tagged enums, maps keyed by call site), so
//! existing dumps remain readable.

use std::collections::BTreeMap;

use crate::policy::{ArgPolicy, ProgramPolicy, SyscallPolicy, MAX_ARGS};

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level, so without a bound a hostile document
/// of a few kilobytes of `[` overflows the stack. The deepest JSON file
/// checked into the repository nests 5 levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. `f64` represents every `u32` (and every integer below
    /// 2^53) exactly, which covers all values the policy types store.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved when printing.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, or of the first array or object nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Serialises with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, &mut out);
        out
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_pretty())
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", ch as char, *pos))
    }
}

/// Parses one value; `depth` is how many more arrays or objects may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'[' | b'{') if depth == 0 => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth - 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into());
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(*esc),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        let ch = char::from_u32(code).ok_or("bad \\u code point")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unknown escape `\\{}`", *other as char)),
                }
            }
            Some(b) => {
                out.push(*b);
                *pos += 1;
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(value: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if !n.is_finite() => out.push_str("null"),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner);
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) if fields.is_empty() => out.push_str("{}"),
        Value::Object(fields) => {
            out.push_str("{\n");
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(&inner);
                write_string(k, out);
                out.push_str(": ");
                write_value(v, indent + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn num(n: impl Into<f64>) -> Value {
    Value::Num(n.into())
}

impl ArgPolicy {
    /// Converts to the JSON representation (externally tagged, matching
    /// the former serde derive).
    pub fn to_value(&self) -> Value {
        match self {
            ArgPolicy::Any => Value::Str("Any".into()),
            ArgPolicy::Capability => Value::Str("Capability".into()),
            ArgPolicy::Immediate(v) => Value::Object(vec![("Immediate".into(), num(*v))]),
            ArgPolicy::ImmediateAddr(v) => Value::Object(vec![("ImmediateAddr".into(), num(*v))]),
            ArgPolicy::StringLit(bytes) => Value::Object(vec![(
                "StringLit".into(),
                Value::Array(bytes.iter().map(|b| num(*b)).collect()),
            )]),
            ArgPolicy::Pattern(p) => Value::Object(vec![("Pattern".into(), Value::Str(p.clone()))]),
        }
    }

    /// Parses the representation produced by [`ArgPolicy::to_value`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_value(value: &Value) -> Result<ArgPolicy, String> {
        match value {
            Value::Str(s) if s == "Any" => Ok(ArgPolicy::Any),
            Value::Str(s) if s == "Capability" => Ok(ArgPolicy::Capability),
            Value::Object(fields) if fields.len() == 1 => {
                let (tag, inner) = &fields[0];
                match tag.as_str() {
                    "Immediate" => Ok(ArgPolicy::Immediate(expect_u32(inner, "Immediate")?)),
                    "ImmediateAddr" => Ok(ArgPolicy::ImmediateAddr(expect_u32(
                        inner,
                        "ImmediateAddr",
                    )?)),
                    "StringLit" => {
                        let items = inner.as_array().ok_or("StringLit expects an array")?;
                        let bytes = items
                            .iter()
                            .map(|i| expect_u32(i, "StringLit byte").map(|v| v as u8))
                            .collect::<Result<Vec<u8>, String>>()?;
                        Ok(ArgPolicy::StringLit(bytes))
                    }
                    "Pattern" => Ok(ArgPolicy::Pattern(
                        inner
                            .as_str()
                            .ok_or("Pattern expects a string")?
                            .to_string(),
                    )),
                    other => Err(format!("unknown ArgPolicy variant `{other}`")),
                }
            }
            _ => Err("malformed ArgPolicy".into()),
        }
    }
}

fn expect_u32(value: &Value, what: &str) -> Result<u32, String> {
    value
        .as_u64()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("{what} expects a u32"))
}

impl SyscallPolicy {
    /// Converts to the JSON representation.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("syscall_nr".into(), num(self.syscall_nr)),
            ("call_site".into(), num(self.call_site)),
            ("block_id".into(), num(self.block_id)),
            (
                "args".into(),
                Value::Array(self.args.iter().map(ArgPolicy::to_value).collect()),
            ),
            (
                "predecessors".into(),
                match &self.predecessors {
                    None => Value::Null,
                    Some(preds) => Value::Array(preds.iter().map(|p| num(*p)).collect()),
                },
            ),
            (
                "returns_capability".into(),
                Value::Bool(self.returns_capability),
            ),
            (
                "revokes_capability".into(),
                Value::Bool(self.revokes_capability),
            ),
        ])
    }

    /// Parses the representation produced by [`SyscallPolicy::to_value`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_value(value: &Value) -> Result<SyscallPolicy, String> {
        let field = |k: &str| value.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let args_val = field("args")?.as_array().ok_or("`args` must be an array")?;
        if args_val.len() != MAX_ARGS {
            return Err(format!("expected {MAX_ARGS} args, got {}", args_val.len()));
        }
        let args = args_val
            .iter()
            .map(ArgPolicy::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let predecessors = match field("predecessors")? {
            Value::Null => None,
            Value::Array(items) => Some(
                items
                    .iter()
                    .map(|i| expect_u32(i, "predecessor"))
                    .collect::<Result<std::collections::BTreeSet<u32>, _>>()?,
            ),
            _ => return Err("`predecessors` must be null or an array".into()),
        };
        Ok(SyscallPolicy {
            syscall_nr: expect_u32(field("syscall_nr")?, "syscall_nr")? as u16,
            call_site: expect_u32(field("call_site")?, "call_site")?,
            block_id: expect_u32(field("block_id")?, "block_id")?,
            args,
            predecessors,
            returns_capability: field("returns_capability")?
                .as_bool()
                .ok_or("`returns_capability` must be a bool")?,
            revokes_capability: field("revokes_capability")?
                .as_bool()
                .ok_or("`revokes_capability` must be a bool")?,
        })
    }

    /// Serialises to a JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parses a JSON document produced by [`SyscallPolicy::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax or schema error.
    pub fn from_json(text: &str) -> Result<SyscallPolicy, String> {
        SyscallPolicy::from_value(&Value::parse(text)?)
    }
}

impl ProgramPolicy {
    /// Converts to the JSON representation (policies keyed by decimal call
    /// site, as the former serde derive produced for the `BTreeMap`).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("program".into(), Value::Str(self.program.clone())),
            ("personality".into(), Value::Str(self.personality.clone())),
            (
                "policies".into(),
                Value::Object(
                    self.policies
                        .iter()
                        .map(|(site, p)| (site.to_string(), p.to_value()))
                        .collect(),
                ),
            ),
            (
                "undisassembled_regions".into(),
                num(self.undisassembled_regions as u32),
            ),
            (
                "warnings".into(),
                Value::Array(
                    self.warnings
                        .iter()
                        .map(|w| Value::Str(w.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the representation produced by [`ProgramPolicy::to_value`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_value(value: &Value) -> Result<ProgramPolicy, String> {
        let field = |k: &str| value.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let policies_val = match field("policies")? {
            Value::Object(fields) => fields,
            _ => return Err("`policies` must be an object".into()),
        };
        let mut policies = BTreeMap::new();
        for (site, p) in policies_val {
            let site: u32 = site
                .parse()
                .map_err(|_| format!("bad call-site key `{site}`"))?;
            policies.insert(site, SyscallPolicy::from_value(p)?);
        }
        let warnings = field("warnings")?
            .as_array()
            .ok_or("`warnings` must be an array")?
            .iter()
            .map(|w| {
                w.as_str()
                    .map(str::to_string)
                    .ok_or("warning must be a string".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ProgramPolicy {
            program: field("program")?
                .as_str()
                .ok_or("`program` must be a string")?
                .into(),
            personality: field("personality")?
                .as_str()
                .ok_or("`personality` must be a string")?
                .into(),
            policies,
            undisassembled_regions: expect_u32(field("undisassembled_regions")?, "regions")?
                as usize,
            warnings,
        })
    }

    /// Serialises to a JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parses a JSON document produced by [`ProgramPolicy::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax or schema error.
    pub fn from_json(text: &str) -> Result<ProgramPolicy, String> {
        ProgramPolicy::from_value(&Value::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-3.5").unwrap(), Value::Num(-3.5));
        assert_eq!(
            Value::parse(r#""a\nbA""#).unwrap(),
            Value::Str("a\nbA".into())
        );
    }

    #[test]
    fn parse_nested() {
        let v = Value::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn reject_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("tru").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse(r#""\x""#).is_err());
    }

    /// `n` arrays, each holding the next, around `0`.
    fn nested_arrays(n: usize) -> String {
        format!("{}0{}", "[".repeat(n), "]".repeat(n))
    }

    #[test]
    fn nesting_at_the_bound_parses() {
        let mut v = &Value::parse(&nested_arrays(MAX_DEPTH)).unwrap();
        for _ in 0..MAX_DEPTH {
            v = &v.as_array().unwrap()[0];
        }
        assert_eq!(v.as_u64(), Some(0));
        let objects = format!("{}0{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Value::parse(&objects).is_ok());
    }

    #[test]
    fn nesting_past_the_bound_names_its_offset() {
        let err = Value::parse(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Each `{"a":` is five bytes; the offending one opens at 5 * 128.
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        let err = Value::parse(&objects).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {}", 5 * MAX_DEPTH)
        );
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(100_000);
        let objects = r#"{"a":"#.repeat(100_000);
        for doc in [&arrays, &objects] {
            assert!(Value::parse(doc)
                .unwrap_err()
                .contains("nesting deeper than"));
            assert!(ProgramPolicy::from_json(doc).is_err());
            assert!(SyscallPolicy::from_json(doc).is_err());
        }
    }

    #[test]
    fn pretty_roundtrip() {
        let v = Value::parse(r#"{"k": [1, "two", false], "empty": {}, "n": null}"#).unwrap();
        let pretty = v.to_pretty();
        assert_eq!(Value::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\"two\""));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("quote\" slash\\ nl\n tab\t ctrl\u{1}".into());
        assert_eq!(Value::parse(&v.to_pretty()).unwrap(), v);
    }
}
