//! A minimal JSON value: enough to print results and to read
//! `BENCHMARK.json` and earlier result files back. No dependency on a
//! JSON crate (none is vendored).

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Whole numbers are printed without a fraction.
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // Rust prints the shortest decimal that round-trips, i.e. the
            // value as measured with all its digits. JSON has no NaN/inf.
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.at));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.at))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => self.err("unexpected end"),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
        if let Ok(i) = text.parse::<u64>() {
            return Ok(Value::Int(i));
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => {
                self.at = start;
                self.err("bad number")
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return self.err("unterminated string");
            };
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.at) else {
                        return self.err("unterminated escape");
                    };
                    self.at += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = code else {
                                return self.err("bad \\u escape");
                            };
                            self.at += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).or_else(|_| self.err("string is not UTF-8"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !self.eat(",") {
                return self.err("expected ',' or ']'");
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.at += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.at) != Some(&b'"') {
                return self.err("expected a key");
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return self.err("expected ':'");
            }
            pairs.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Value::Obj(pairs));
            }
            if !self.eat(",") {
                return self.err("expected ',' or '}'");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_round_trips() {
        let v = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Int(1000)),
            ("ratio", Value::Num(1.2034)),
            ("nan", Value::Num(f64::NAN)),
            ("name", Value::str("a \"quoted\"\n\\ µs")),
            (
                "list",
                Value::Arr(vec![
                    Value::Null,
                    Value::Num(-2.5e-7),
                    Value::obj::<&str>([]),
                ]),
            ),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "single line: {text}");
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.get("attempted"), Some(&Value::Int(1000)));
        assert_eq!(back.get("ratio").and_then(Value::as_f64), Some(1.2034));
        assert_eq!(back.get("nan"), Some(&Value::Null));
        assert_eq!(
            back.get("name").and_then(Value::as_str),
            Some("a \"quoted\"\n\\ µs")
        );
        assert_eq!(
            back.get("list").and_then(Value::as_arr).map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "tru",
            "{\"a\":1} x",
            "\"abc",
            "1e",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(
            Value::parse(" [1, 2.5, \"\\u00b5\"] ").unwrap(),
            Value::Arr(vec![Value::Int(1), Value::Num(2.5), Value::str("µ")])
        );
    }
}
