//! A minimal JSON value type with a pretty printer and a parser.
//!
//! This is what the experiment harness writes into `results/*.json` and
//! what the golden-regression tests read back. Objects preserve insertion
//! order so emitted files are stable and diffable.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are carried as `f64`; integral values print without a
    /// decimal point. (The workspace's counters stay far below 2^53.)
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array by converting each item.
    pub fn arr<T: ToJson>(items: &[T]) -> Json {
        Json::Arr(items.iter().map(|x| x.to_json()).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&fmt_number(*x)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Structural comparison with a numeric tolerance: numbers may differ
    /// by up to `tol` (absolute) or `tol` (relative), everything else must
    /// match exactly. Returns a path-qualified description of the first
    /// mismatch.
    pub fn approx_eq(&self, other: &Json, tol: f64) -> Result<(), String> {
        fn go(a: &Json, b: &Json, tol: f64, path: &str) -> Result<(), String> {
            match (a, b) {
                (Json::Num(x), Json::Num(y)) => {
                    let diff = (x - y).abs();
                    let scale = x.abs().max(y.abs());
                    if diff <= tol || (scale > 0.0 && diff / scale <= tol) {
                        Ok(())
                    } else {
                        Err(format!("{}: {} vs {} (diff {})", path, x, y, diff))
                    }
                }
                (Json::Arr(xs), Json::Arr(ys)) => {
                    if xs.len() != ys.len() {
                        return Err(format!(
                            "{}: array lengths {} vs {}",
                            path,
                            xs.len(),
                            ys.len()
                        ));
                    }
                    for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                        go(x, y, tol, &format!("{}[{}]", path, i))?;
                    }
                    Ok(())
                }
                (Json::Obj(xs), Json::Obj(ys)) => {
                    if xs.len() != ys.len() {
                        return Err(format!(
                            "{}: object sizes {} vs {}",
                            path,
                            xs.len(),
                            ys.len()
                        ));
                    }
                    for (k, x) in xs {
                        let y = b
                            .get(k)
                            .ok_or_else(|| format!("{}: missing key {:?}", path, k))?;
                        go(x, y, tol, &format!("{}.{}", path, k))?;
                    }
                    Ok(())
                }
                _ if a == b => Ok(()),
                _ => Err(format!("{}: {:?} vs {:?}", path, a, b)),
            }
        }
        go(self, other, tol, "$")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.pretty().trim_end())
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn fmt_number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        format!("{}", x)
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
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => {
                            return Err(format!(
                                "expected ',' or ']' at byte {}, found {:?}",
                                self.pos,
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.value()?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        other => {
                            return Err(format!(
                                "expected ',' or '}}' at byte {}, found {:?}",
                                self.pos,
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && self.bytes[self.pos] != b'"'
                && self.bytes[self.pos] != b'\\'
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {:?}", hex))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {}", start))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {:?} at byte {}", text, start))
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

int_to_json!(i32, u32, i64, u64, usize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|x| x.to_json()).collect())
    }
}

impl<T: ToJson> ToJson for &[T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|x| x.to_json()).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("name", "gcc like\t\"probe\"".to_json()),
            ("solo", 0.0312.to_json()),
            ("count", 29u32.to_json()),
            ("missing", Json::Null),
            ("ok", true.to_json()),
            ("series", vec![1.0, 2.5, -3.0].to_json()),
            ("pair", (1u32, 0.5).to_json()),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ])
    }

    #[test]
    fn pretty_round_trips_through_parse() {
        let v = sample();
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parses_external_style_json() {
        let text = r#"
        [
          {"name": "a", "solo": 3.2e-2, "neg": -1, "esc": "xA\n"},
          {"name": "b", "solo": 0, "nested": [[1,2],[3,4]]}
        ]"#;
        let v = Json::parse(text).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("solo").unwrap().as_f64().unwrap(), 0.032);
        assert_eq!(arr[0].get("esc").unwrap().as_str().unwrap(), "xA\n");
        assert_eq!(
            arr[1].get("nested").unwrap().as_arr().unwrap()[1],
            Json::Arr(vec![Json::Num(3.0), Json::Num(4.0)])
        );
    }

    #[test]
    fn integral_numbers_print_without_decimal() {
        assert_eq!(Json::Num(29.0).pretty().trim(), "29");
        assert_eq!(Json::Num(-3.0).pretty().trim(), "-3");
        assert!(Json::Num(0.25).pretty().trim() == "0.25");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("[1] trailing").is_err());
        assert!(Json::parse("nulp").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn approx_eq_tolerates_small_numeric_drift() {
        let a = Json::obj(vec![("x", 0.100.to_json()), ("y", "s".to_json())]);
        let b = Json::obj(vec![("x", 0.1005.to_json()), ("y", "s".to_json())]);
        assert!(a.approx_eq(&b, 0.001).is_ok());
        assert!(a.approx_eq(&b, 1e-9).is_err());
        let c = Json::obj(vec![("x", 0.1.to_json()), ("y", "t".to_json())]);
        let err = a.approx_eq(&c, 0.5).unwrap_err();
        assert!(err.contains("$.y"), "{}", err);
    }

    #[test]
    fn get_and_accessors() {
        let v = sample();
        assert!(v.get("nope").is_none());
        assert_eq!(v.get("count").unwrap().as_f64(), Some(29.0));
        assert_eq!(v.get("name").unwrap().as_arr(), None);
    }
}
