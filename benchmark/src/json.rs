//! A small JSON value with a strict parser and a deterministic writer: what
//! `result.json`, `BENCHMARK.json`, the baseline sets and the child
//! processes' reports need, and nothing more. Object keys keep their order.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a path of object keys.
    pub fn path(&self, keys: &[&str]) -> Option<&Value> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Single-line rendering. Numbers print with every digit needed to
    /// read them back exactly; non-finite numbers print as `null`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, s: &mut String) {
        match self {
            Value::Null => s.push_str("null"),
            Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if !n.is_finite() => s.push_str("null"),
            Value::Num(n) => {
                let _ = write!(s, "{n}");
            }
            Value::Str(t) => render_str(t, s),
            Value::Arr(a) => {
                s.push('[');
                for (n, v) in a.iter().enumerate() {
                    if n > 0 {
                        s.push(',');
                    }
                    v.render_into(s);
                }
                s.push(']');
            }
            Value::Obj(o) => {
                s.push('{');
                for (n, (k, v)) in o.iter().enumerate() {
                    if n > 0 {
                        s.push(',');
                    }
                    render_str(k, s);
                    s.push(':');
                    v.render_into(s);
                }
                s.push('}');
            }
        }
    }
}

fn render_str(t: &str, s: &mut String) {
    s.push('"');
    for c in t.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Nesting bound: input comes from files and child processes.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.err("unexpected end"),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.skip_ws();
                if p.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(p.value()?);
                    p.skip_ws();
                    if p.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !p.eat(",") {
                        return p.err("expected ',' or ']'");
                    }
                }
            }),
            Some(b'{') => self.nested(|p| {
                let mut pairs = Vec::new();
                p.skip_ws();
                if p.eat("}") {
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    p.skip_ws();
                    if p.bytes.get(p.pos) != Some(&b'"') {
                        return p.err("expected a key");
                    }
                    let k = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return p.err("expected ':'");
                    }
                    pairs.push((k, p.value()?));
                    p.skip_ws();
                    if p.eat("}") {
                        return Ok(Value::Obj(pairs));
                    }
                    if !p.eat(",") {
                        return p.err("expected ',' or '}'");
                    }
                }
            }),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected byte"),
        }
    }

    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.depth += 1;
        self.pos += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => {
                self.pos = start;
                self.err("malformed number")
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    self.pos += 4;
                                    c
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    };
                    self.pos += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) if b < 0x20 => return self.err("control byte in string"),
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_is_identity() {
        let v = Value::obj(vec![
            ("a", Value::Num(1.0)),
            ("b", Value::Num(0.1 + 0.2)),
            (
                "c",
                Value::Arr(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::str("x\"\\\n\u{1}é"),
                ]),
            ),
            ("d", Value::obj(vec![])),
            ("e", Value::Num(-1.5e-9)),
            ("f", Value::Num(40_353_607.0)),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("\"f\":40353607"), "{text}");
        assert!(text.contains("0.30000000000000004"), "{text}");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "1 2",
            "\"x",
            "nul",
            "{a:1}",
            "1e999",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn path_follows_keys() {
        let v = parse("{\"a\":{\"b\":[1,2]},\"c\":\"s\"}").unwrap();
        assert_eq!(
            v.path(&["a", "b"]).and_then(Value::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.path(&["c"]).and_then(Value::as_str), Some("s"));
        assert!(v.path(&["a", "x"]).is_none());
    }
}
