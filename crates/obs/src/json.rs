//! A minimal hand-rolled JSON parser/validator (the workspace is
//! dependency-free by design). Used by the `repro` binary and the tests
//! to check that emitted artifacts (`results/trace.json`,
//! `results/profile.json`, the health report) are well-formed.
//!
//! Faithful to RFC 8259 for everything the repo emits; numbers are kept
//! as `f64`, which is lossless for the magnitudes we write.

/// A parsed JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Parse a complete JSON document. Errors carry the byte offset.
fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

/// Validate well-formedness without keeping the tree.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?,
                                16,
                            )
                            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // surrogate pairs are not emitted by this repo;
                            // map lone surrogates to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control char in string at byte {}", self.pos));
                }
                Some(_) => {
                    // consume one UTF-8 scalar (input is &str, so valid)
                    let rest = &self.b[self.pos..];
                    let ch_len = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8".to_string())?
                        .chars()
                        .next()
                        .map(|c| c.len_utf8())
                        .unwrap_or(1);
                    out.push_str(std::str::from_utf8(&rest[..ch_len]).unwrap());
                    self.pos += ch_len;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad number at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_we_emit() {
        let v = parse(
            r#"{"schema_version": 1, "entries": [{"bench": "p", "value": -1.5e3, "ok": true, "n": null}]}"#,
        )
        .unwrap();
        let entry = Value::Obj(vec![
            ("bench".to_string(), Value::Str("p".to_string())),
            ("value".to_string(), Value::Num(-1500.0)),
            ("ok".to_string(), Value::Bool(true)),
            ("n".to_string(), Value::Null),
        ]);
        assert_eq!(
            v,
            Value::Obj(vec![
                ("schema_version".to_string(), Value::Num(1.0)),
                ("entries".to_string(), Value::Arr(vec![entry])),
            ])
        );
    }

    #[test]
    fn escapes_round_trip() {
        let mut s = String::new();
        crate::json_string(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(parse(&s), Ok(Value::Str("a\"b\\c\nd\te\u{1}".to_string())));
    }

    #[test]
    fn rejects_malformed() {
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("{\"a\" 1}").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("tru").is_err());
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(validate("{} x").is_err());
        assert!(validate("1 2").is_err());
    }
}
