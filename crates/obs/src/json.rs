//! A minimal hand-rolled JSON validator (the workspace is
//! dependency-free by design). Used by the `repro` binary and the tests
//! to check that emitted artifacts (`results/trace.json`,
//! `results/profile.json`, the health report) are well-formed: it walks
//! the RFC 8259 grammar and keeps nothing of what it read.

/// What checking one grammar rule at the cursor gives: the byte offset
/// of the first error.
type Checked = Result<(), String>;

/// Check that `s` is exactly one well-formed JSON document. Errors carry
/// the byte offset.
pub fn validate(s: &str) -> Checked {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(())
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

    fn expect(&mut self, c: u8) -> Checked {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Checked {
        match self.peek() {
            Some(b'{') => self.list(b'}', true),
            Some(b'[') => self.list(b']', false),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str) -> Checked {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// An object (`keyed`: each member is `"key": value`) or an array,
    /// from its opening bracket to `close`.
    fn list(&mut self, close: u8, keyed: bool) -> Checked {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if keyed {
                self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
            }
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or {close:?} at byte {}", self.pos));
                }
            }
        }
    }

    fn string(&mut self) -> Checked {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                        Some(b'u') => {
                            let hex = self.b.get(self.pos + 1..self.pos + 5);
                            if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                                return Err(format!("bad \\u escape at byte {}", self.pos));
                            }
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control char in string at byte {}", self.pos));
                }
                // any other byte of the input, which is UTF-8: no byte of
                // a multi-byte scalar is a quote, a backslash or a control
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Checked {
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_we_emit() {
        let doc = r#"{"schema_version": 1, "entries": [{"bench": "p", "value": -1.5e3, "ok": true, "n": null}, [], {}], "s": "é\u00e9\/"}"#;
        assert_eq!(validate(doc), Ok(()));
    }

    #[test]
    fn escapes_round_trip() {
        let mut s = String::new();
        crate::json_string(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(validate(&s), Ok(()));
    }

    #[test]
    fn rejects_malformed() {
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("{\"a\" 1}").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("tru").is_err());
        assert!(validate("\"\\u12g4\"").is_err());
        assert!(validate("-.5").is_err());
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(validate("{} x").is_err());
        assert!(validate("1 2").is_err());
    }
}
