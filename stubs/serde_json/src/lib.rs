//! JSON rendering/parsing over the in-tree `serde::Value` tree.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A serialization or parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serialize `value` as a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Deserialize `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new("trailing characters"));
    }
    Ok(T::from_value(&v)?)
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // `{}` on f64 is the shortest representation that
                // round-trips, and prints integral values without a dot;
                // the parser's numeric coercion handles that case.
                out.push_str(&x.to_string());
            } else {
                out.push_str("null");
            }
        }
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
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, Error> {
        let b = self.peek().ok_or_else(|| Error::new("unexpected eof"))?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.bump()?;
        if got != b {
            return Err(Error::new(format!(
                "expected {:?}, got {:?}",
                b as char, got as char
            )));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        for &b in word.as_bytes() {
            self.expect(b)?;
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| Error::new("unexpected eof"))? {
            b'n' => {
                self.literal("null")?;
                Ok(Value::Null)
            }
            b't' => {
                self.literal("true")?;
                Ok(Value::Bool(true))
            }
            b'f' => {
                self.literal("false")?;
                Ok(Value::Bool(false))
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump()? {
                        b',' => continue,
                        b']' => return Ok(Value::Seq(items)),
                        other => {
                            return Err(Error::new(format!(
                                "expected ',' or ']', got {:?}",
                                other as char
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    entries.push((key, self.value()?));
                    self.skip_ws();
                    match self.bump()? {
                        b',' => continue,
                        b'}' => return Ok(Value::Map(entries)),
                        other => {
                            return Err(Error::new(format!(
                                "expected ',' or '}}', got {:?}",
                                other as char
                            )))
                        }
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.bump()?;
            match b {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let h = self.bump()?;
                            code = code * 16
                                + (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| Error::new("bad \\u escape"))?;
                        }
                        out.push(char::from_u32(code).ok_or_else(|| Error::new("bad codepoint"))?);
                    }
                    other => return Err(Error::new(format!("bad escape {:?}", other as char))),
                },
                _ => {
                    // Decode only the UTF-8 character starting at this
                    // byte: validating the rest of the input at every
                    // character would make parsing quadratic.
                    let start = self.pos - 1;
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let c = self
                        .bytes
                        .get(start..start + width)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| Error::new("invalid utf-8"))?;
                    out.push_str(c);
                    self.pos = start + width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::new("invalid number"));
        }
        if float {
            text.parse::<f64>().map(Value::F64).map_err(Error::new)
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .map_err(Error::new)
                .map(|n| Value::I64(-(n as i64)))
        } else {
            text.parse::<u64>().map(Value::U64).map_err(Error::new)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_values() {
        let v = Value::Map(vec![
            ("a".into(), Value::U64(7)),
            ("b".into(), Value::Seq(vec![Value::F64(1.5), Value::Null])),
            ("c".into(), Value::Str("hi \"there\"\n, ünï € 😀".into())),
            ("d".into(), Value::Bool(true)),
            ("e".into(), Value::I64(-3)),
        ]);
        let mut s = String::new();
        write_value(&v, &mut s);
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let back = p.value().unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn integral_floats_coerce() {
        // 3.0f64 prints as "3"; deserializing into f64 must accept U64.
        let s = to_string(&3.0f64).unwrap();
        assert_eq!(s, "3");
        let x: f64 = from_str(&s).unwrap();
        assert_eq!(x, 3.0);
    }
}
