//! JSON text read in place: one recursive-descent pass over the bytes that
//! accepts exactly what the vendored `serde_json::from_slice` accepts, and
//! hands the caller each value where it stands instead of building a tree.
//!
//! The grammar is the vendored parser's, rule for rule: UTF-8 only (the
//! raw text of every string is checked; outside strings only ASCII
//! parses), whitespace is space, tab, CR and LF, a value may nest at most
//! 128 deep, an escape is one of `\" \\ \/ \b \f \n \r \t \uXXXX`, where
//! the four digits are whatever `u16::from_str_radix(_, 16)` takes, a high
//! surrogate must be followed by `\u` and a low one and a lone low one is
//! refused, and a number is the longest run of
//! `-? digits (. digits)? ([eE] [+-]? digits)?` that `str::parse::<f64>`
//! accepts: one with a digit in its mantissa and one after any `e` (so
//! `01`, `1.` and `-.5` are numbers, `1e` and `-` are not).
//! [`Reader::skip`] checks one value of any shape, numbers by that grammar
//! without converting them, and allocates nothing.

use std::borrow::Cow;

/// The deepest nesting a value may have, the vendored parser's limit.
const MAX_DEPTH: usize = 128;

/// A read step: what it read, or what was wrong at the reader's position.
pub(super) type Step<T> = Result<T, &'static str>;

/// A cursor over JSON text.
pub(super) struct Reader<'a> {
    bytes: &'a [u8],
    /// The next byte to read.
    pub(super) at: usize,
}

/// A string as it stands in the text: checked, its escapes not yet undone.
#[derive(Clone, Copy)]
pub(super) struct Str<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> Str<'a> {
    /// Whether the string reads `s`.
    pub(super) fn is(&self, s: &str) -> bool {
        if self.escaped {
            self.text() == s
        } else {
            self.raw == s
        }
    }

    /// The string's text: borrowed from the input unless it has escapes.
    pub(super) fn text(&self) -> Cow<'a, str> {
        if self.escaped {
            Cow::Owned(unescape(self.raw))
        } else {
            Cow::Borrowed(self.raw)
        }
    }
}

/// Undoes the escapes of a string [`Reader::string`] has checked.
fn unescape(raw: &str) -> String {
    let unit = |hex: &str| u32::from(u16::from_str_radix(&hex[..4], 16).unwrap_or(0xFFFD));
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let escape = rest.as_bytes()[i + 1];
        rest = &rest[i + 2..];
        out.push(match escape {
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = unit(rest);
                rest = &rest[4..];
                let code = if (0xD800..0xDC00).contains(&high) {
                    let low = unit(&rest[2..]);
                    rest = &rest[6..];
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
            }
            quoted => char::from(quoted),
        });
    }
    out.push_str(rest);
    out
}

impl<'a> Reader<'a> {
    /// A reader at `at` in `bytes`.
    pub(super) fn new(bytes: &'a [u8], at: usize) -> Reader<'a> {
        Reader { bytes, at }
    }

    /// The next byte, if any.
    pub(super) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    /// Steps over whitespace.
    pub(super) fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.at += 1;
        }
    }

    /// Steps over whitespace and then `c`, if `c` is next.
    pub(super) fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let next = self.peek() == Some(c);
        self.at += usize::from(next);
        next
    }

    /// Reads the whole text as the one value `read` reads, with only
    /// whitespace around it.
    pub(super) fn document(&mut self, read: impl FnOnce(&mut Self) -> Step<()>) -> Step<()> {
        self.ws();
        read(self)?;
        self.ws();
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing characters")
        }
    }

    /// Checks the value at the reader, nested `depth` deep, and steps over
    /// it.
    pub(super) fn skip(&mut self, depth: usize) -> Step<()> {
        if depth > MAX_DEPTH {
            return Err("recursion limit exceeded");
        }
        match self.peek() {
            Some(b'{') => self.object(depth, |r, _, depth| r.skip(depth)),
            Some(b'[') => self.array(depth, |r, depth| r.skip(depth)),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number_text().map(drop),
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(_) => Err("unexpected character"),
            None => Err("unexpected end of input"),
        }
    }

    /// Reads the object at the reader, nested `depth` deep: `member` gets
    /// each key and the reader at the key's value, and must read the value
    /// (at `depth + 1`).
    pub(super) fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Str<'a>, usize) -> Step<()>,
    ) -> Step<()> {
        if depth > MAX_DEPTH {
            return Err("recursion limit exceeded");
        }
        if !self.eat(b'{') {
            return Err("expected an object");
        }
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.ws();
            if self.peek() != Some(b'"') {
                return Err("expected string key in object");
            }
            let key = self.string()?;
            if !self.eat(b':') {
                return Err("expected `:` after object key");
            }
            self.ws();
            member(self, key, depth + 1)?;
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(());
            }
            return Err("expected `,` or `}` in object");
        }
    }

    /// Reads the array at the reader, nested `depth` deep: `item` gets the
    /// reader at each item, and must read it (at `depth + 1`).
    pub(super) fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self, usize) -> Step<()>,
    ) -> Step<()> {
        if depth > MAX_DEPTH {
            return Err("recursion limit exceeded");
        }
        if !self.eat(b'[') {
            return Err("expected an array");
        }
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            self.ws();
            item(self, depth + 1)?;
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(());
            }
            return Err("expected `,` or `]` in array");
        }
    }

    /// Reads the string at the reader.
    pub(super) fn string(&mut self) -> Step<Str<'a>> {
        if self.peek() != Some(b'"') {
            return Err("expected a string");
        }
        let start = self.at + 1;
        let mut i = start;
        let mut escaped = false;
        loop {
            let Some(&c) = self.bytes.get(i) else {
                return Err("unterminated string");
            };
            i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    escaped = true;
                    i = self.escape(i)?;
                }
                0..=0x1f => return Err("control character in string"),
                _ => {}
            }
        }
        self.at = i;
        // Escapes are ASCII: the raw text is UTF-8 iff what it spells is.
        let raw = std::str::from_utf8(&self.bytes[start..i - 1])
            .map_err(|_| "invalid utf-8 in string")?;
        Ok(Str { raw, escaped })
    }

    /// Checks the escape whose letter is at `i`; the index past it.
    fn escape(&self, i: usize) -> Step<usize> {
        match self.bytes.get(i) {
            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => Ok(i + 1),
            Some(b'u') => match self.hex4(i + 1)? {
                0xD800..=0xDBFF => {
                    if self.bytes.get(i + 5..i + 7) != Some(b"\\u".as_slice()) {
                        return Err("unpaired surrogate");
                    }
                    match self.hex4(i + 7)? {
                        0xDC00..=0xDFFF => Ok(i + 11),
                        _ => Err("invalid low surrogate"),
                    }
                }
                0xDC00..=0xDFFF => Err("invalid unicode escape"),
                _ => Ok(i + 5),
            },
            Some(_) => Err("invalid escape"),
            None => Err("unterminated escape"),
        }
    }

    /// The code unit of the four hex digits at `i`.
    fn hex4(&self, i: usize) -> Step<u16> {
        let quad = self.bytes.get(i..i + 4).ok_or("truncated unicode escape")?;
        std::str::from_utf8(quad)
            .ok()
            .and_then(|hex| u16::from_str_radix(hex, 16).ok())
            .ok_or("invalid unicode escape")
    }

    /// Steps over the longest run of
    /// `-? digits (. digits)? ([eE] [+-]? digits)?` at the reader, and
    /// returns its text if it is a number: a digit in the mantissa and one
    /// after any `e`, which is exactly the runs [`parse_number`] takes. It
    /// steps over the run whether or not it is one.
    pub(super) fn number_text(&mut self) -> Step<&'a [u8]> {
        let start = self.at;
        self.at += usize::from(self.peek() == Some(b'-'));
        let mut mantissa = self.digits();
        if self.peek() == Some(b'.') {
            self.at += 1;
            mantissa |= self.digits();
        }
        let mut exponent = true;
        if let Some(b'e' | b'E') = self.peek() {
            self.at += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.at += 1;
            }
            exponent = self.digits();
        }
        if mantissa && exponent {
            Ok(&self.bytes[start..self.at])
        } else {
            Err("invalid number")
        }
    }

    /// Steps over a run of digits; whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.at;
        while let Some(b'0'..=b'9') = self.peek() {
            self.at += 1;
        }
        self.at > start
    }

    fn literal(&mut self, word: &str) -> Step<()> {
        if !self.bytes[self.at..].starts_with(word.as_bytes()) {
            return Err("expected a literal");
        }
        self.at += word.len();
        Ok(())
    }
}

/// The number `text` spells, if `str::parse::<f64>` takes it.
pub(super) fn parse_number(text: &[u8]) -> Step<f64> {
    std::str::from_utf8(text)
        .ok()
        .and_then(|text| text.parse().ok())
        .ok_or("invalid number")
}

/// Whether `bytes` is one JSON value, as `serde_json::from_slice` would
/// have it. Allocates nothing.
pub fn is_json(bytes: &[u8]) -> bool {
    Reader::new(bytes, 0).document(|r| r.skip(0)).is_ok()
}
