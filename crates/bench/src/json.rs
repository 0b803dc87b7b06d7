//! The one module that knows the JSON format of this crate's documents:
//! `BENCH_dse.json`, `BENCH_state_space.json` and the `rap/trace/v1`
//! trace.
//!
//! The workspace is offline (no `serde_json`), so both directions are
//! hand-rolled here, once:
//!
//! * **Writing.** A document is an ordered [`Node`] tree built at its call
//!   site. Every number names its format ([`Node::Int`], [`Node::Fixed`],
//!   [`Node::Exp`]) and every container its [`Layout`], and
//!   [`Node::write`] renders the tree — so the comma and indent
//!   bookkeeping lives in one function and each document's bytes follow
//!   from its tree alone.
//! * **Reading.** [`Json::parse`] is a recursive-descent parser for
//!   exactly the JSON grammar (minus `\u` escapes, which the writer never
//!   produces), and [`Field`] wraps a parsed value with its path from the
//!   document root, so the validators' typed accessors name the offending
//!   field on error and the validators themselves keep only their
//!   semantic checks.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeBounds;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (irrelevant for validation).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `src` as a single JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", ch as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected end or byte at {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape `\\{}`", *other as char)),
                });
                *pos += 1;
            }
            Some(_) => {
                // advance one UTF-8 scalar
                let s = &b[*pos..];
                let ch_len = std::str::from_utf8(s)
                    .map_err(|_| "invalid utf-8".to_string())?
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                out.push_str(std::str::from_utf8(&s[..ch_len]).unwrap());
                *pos += ch_len;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        out.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

/// How a container is written: [`Layout::Inline`] keeps it on one line
/// (`{"a": 1, "b": 2}`), [`Layout::Block`] puts each member on its own
/// line, indented two spaces deeper than the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One line, members separated by `, `.
    Inline,
    /// One member per line.
    Block,
}

/// A document to write: an ordered tree whose numbers carry their
/// format and whose containers carry their layout (see [`Node::write`]).
#[derive(Debug, Clone)]
pub enum Node {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, written exactly.
    Int(u64),
    /// A float with the given number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A float in lossless exponent notation (`{:e}`): round-trips to the
    /// same bits, so near-ties stay distinct for a reader.
    Exp(f64),
    /// A string, escaped on output.
    Str(String),
    /// An object; members are written in order.
    Obj(Layout, Vec<(&'static str, Node)>),
    /// An array.
    Arr(Layout, Vec<Node>),
}

impl From<bool> for Node {
    fn from(b: bool) -> Node {
        Node::Bool(b)
    }
}

impl From<u64> for Node {
    fn from(n: u64) -> Node {
        Node::Int(n)
    }
}

impl From<usize> for Node {
    fn from(n: usize) -> Node {
        Node::Int(n as u64)
    }
}

impl From<&str> for Node {
    fn from(s: &str) -> Node {
        Node::Str(s.to_string())
    }
}

impl<T: Into<Node>> From<Option<T>> for Node {
    fn from(v: Option<T>) -> Node {
        v.map_or(Node::Null, Into::into)
    }
}

impl Node {
    /// Renders the tree as a document: the value, then a newline.
    #[must_use]
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.emit(0, &mut out);
        out.push('\n');
        out
    }

    fn emit(&self, depth: usize, out: &mut String) {
        match self {
            Node::Null => out.push_str("null"),
            Node::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Node::Int(n) => out.push_str(&n.to_string()),
            Node::Fixed(x, digits) => out.push_str(&format!("{x:.digits$}")),
            Node::Exp(x) => out.push_str(&format!("{x:e}")),
            Node::Str(s) => out.push_str(&escape(s)),
            Node::Obj(layout, members) => {
                let members = members.iter().map(|(k, v)| (Some(*k), v));
                emit_container(*layout, ('{', '}'), members, depth, out);
            }
            Node::Arr(layout, items) => {
                let items = items.iter().map(|v| (None, v));
                emit_container(*layout, ('[', ']'), items, depth, out);
            }
        }
    }
}

fn emit_container<'a>(
    layout: Layout,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Node)>,
    depth: usize,
    out: &mut String,
) {
    out.push(open);
    let mut empty = true;
    for (i, (key, value)) in members.enumerate() {
        empty = false;
        match layout {
            Layout::Inline if i > 0 => out.push_str(", "),
            Layout::Inline => {}
            Layout::Block => {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
        }
        if let Some(key) = key {
            out.push_str(&escape(key));
            out.push_str(": ");
        }
        value.emit(depth + 1, out);
    }
    if layout == Layout::Block && !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// A parsed value and its path from the document root (`stats.pruned`,
/// `cases[2].threads[0].ms`): the typed accessors validators share. Every
/// error names the path of the field that failed.
#[derive(Debug, Clone)]
pub struct Field<'a> {
    value: &'a Json,
    path: String,
}

impl<'a> Field<'a> {
    /// The document root.
    #[must_use]
    pub fn root(doc: &'a Json) -> Field<'a> {
        Field {
            value: doc,
            path: String::new(),
        }
    }

    /// The raw parsed value.
    #[must_use]
    pub fn value(&self) -> &'a Json {
        self.value
    }

    /// An error message about this field: `` `path` `` followed by `what`.
    #[must_use]
    pub fn err(&self, what: &str) -> String {
        format!("`{}` {what}", self.path)
    }

    fn child(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// The member `key`, if this is an object that has it.
    #[must_use]
    pub fn opt(&self, key: &str) -> Option<Field<'a>> {
        match self.value {
            Json::Obj(m) => m.get(key).map(|value| Field {
                value,
                path: self.child(key),
            }),
            _ => None,
        }
    }

    /// The member `key`.
    ///
    /// # Errors
    ///
    /// When this is not an object or has no such member.
    pub fn get(&self, key: &str) -> Result<Field<'a>, String> {
        self.opt(key)
            .ok_or_else(|| format!("missing `{}`", self.child(key)))
    }

    /// A finite number.
    ///
    /// # Errors
    ///
    /// When this is not a finite number.
    pub fn num(&self) -> Result<f64, String> {
        match self.value {
            Json::Num(x) if x.is_finite() => Ok(*x),
            _ => Err(self.err("is not a number")),
        }
    }

    /// A finite number within `range`.
    ///
    /// # Errors
    ///
    /// When this is not a finite number or lies outside `range`.
    pub fn num_in(&self, range: impl RangeBounds<f64> + fmt::Debug) -> Result<f64, String> {
        Some(self.num()?)
            .filter(|x| range.contains(x))
            .ok_or_else(|| self.err(&format!("is outside {range:?}")))
    }

    /// A non-negative integer.
    ///
    /// # Errors
    ///
    /// When this is not a non-negative integer representable as `u64`.
    pub fn count(&self) -> Result<u64, String> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(self.num()?)
            .filter(|x| *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64)
            .map(|x| x as u64)
            .ok_or_else(|| self.err("is not a non-negative integer"))
    }

    /// A string.
    ///
    /// # Errors
    ///
    /// When this is not a string.
    pub fn str(&self) -> Result<&'a str, String> {
        match self.value {
            Json::Str(s) => Ok(s),
            _ => Err(self.err("is not a string")),
        }
    }

    /// A boolean.
    ///
    /// # Errors
    ///
    /// When this is not a boolean.
    pub fn bool(&self) -> Result<bool, String> {
        match self.value {
            Json::Bool(b) => Ok(*b),
            _ => Err(self.err("is not a boolean")),
        }
    }

    /// The elements of an array, each with its indexed path.
    ///
    /// # Errors
    ///
    /// When this is not an array.
    pub fn items(&self) -> Result<Vec<Field<'a>>, String> {
        let Json::Arr(items) = self.value else {
            return Err(self.err("is not an array"));
        };
        Ok(items
            .iter()
            .enumerate()
            .map(|(i, value)| Field {
                value,
                path: format!("{}[{i}]", self.path),
            })
            .collect())
    }

    /// The members of an object, each with its path.
    ///
    /// # Errors
    ///
    /// When this is not an object.
    pub fn members(&self) -> Result<Vec<(&'a str, Field<'a>)>, String> {
        match self.value {
            Json::Obj(m) => Ok(m
                .iter()
                .map(|(k, value)| {
                    let path = self.child(k);
                    (k.as_str(), Field { value, path })
                })
                .collect()),
            _ => Err(self.err("is not an object")),
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, {"b": true}], "c": "x\ny", "d": null}"#).unwrap();
        let root = Field::root(&v);
        let a = root.get("a").unwrap().items().unwrap();
        assert_eq!(a[1].num(), Ok(2.5));
        assert_eq!(a[2].get("b").unwrap().bool(), Ok(true));
        assert_eq!(root.get("c").unwrap().str(), Ok("x\ny"));
        assert_eq!(root.get("d").unwrap().value(), &Json::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} garbage").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn writer_follows_layouts() {
        let row = Node::Obj(
            Layout::Inline,
            vec![("n", 3usize.into()), ("x", Node::Fixed(0.5, 3))],
        );
        let doc = Node::Obj(
            Layout::Block,
            vec![
                ("rows", Node::Arr(Layout::Block, vec![row.clone(), row])),
                ("empty", Node::Arr(Layout::Block, vec![])),
                ("e", Node::Exp(1.5e-11)),
                ("none", Option::<u64>::None.into()),
            ],
        );
        assert_eq!(
            doc.write(),
            "{\n  \"rows\": [\n    {\"n\": 3, \"x\": 0.500},\n    {\"n\": 3, \"x\": 0.500}\n  ],\n  \
             \"empty\": [],\n  \"e\": 1.5e-11,\n  \"none\": null\n}\n"
        );
    }

    #[test]
    fn field_errors_name_the_path() {
        let doc = Json::parse(r#"{"cases": [{"ms": 1}, {"ms": -2, "n": 2.5}]}"#).unwrap();
        let case = &Field::root(&doc).get("cases").unwrap().items().unwrap()[1];
        assert_eq!(
            case.get("ms").unwrap().num_in(0.0..).unwrap_err(),
            "`cases[1].ms` is outside 0.0.."
        );
        assert_eq!(
            case.get("n").unwrap().count().unwrap_err(),
            "`cases[1].n` is not a non-negative integer"
        );
        assert_eq!(case.get("x").unwrap_err(), "missing `cases[1].x`");
        assert_eq!(
            case.get("ms").unwrap().str().unwrap_err(),
            "`cases[1].ms` is not a string"
        );
    }

    #[test]
    fn escape_roundtrips() {
        let s = "a\"b\\c\nd";
        assert_eq!(Json::parse(&escape(s)), Ok(Json::Str(s.to_string())));
    }
}
