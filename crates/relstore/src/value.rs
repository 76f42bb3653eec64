//! Typed values and rows.

use serde::{Content, DeError, Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed cell value (the SQLite storage classes we need).
///
/// As JSON (log payloads, snapshots) a value is `"Null"`, `{"Int":n}`,
/// `{"Real":x}` or `{"Text":"s"}`. JSON has no number for a real that is
/// not finite, so one is a string (`"+Inf"`, `"-Inf"`, `"NaN"`, or
/// `"NaN:"` and the bits in hex) and reads back bit for bit; a
/// `{"Real":null}`, what such a real was written as before, still reads as
/// NaN.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Text accessor.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer accessor (Ints only; Reals are not coerced).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float accessor; Ints coerce to f64.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Real(_) => 1,
            Value::Text(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order following SQLite: NULL < numbers < text; numbers compare
    /// numerically across Int/Real; NaN sorts below all other reals.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => cmp_f64(*a, *b),
            (Int(a), Real(b)) => cmp_f64(*a as f64, *b),
            (Real(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        _ => a.partial_cmp(&b).unwrap(),
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Content {
        let (variant, payload) = match self {
            Value::Null => return Content::Str("Null".to_string()),
            Value::Int(i) => ("Int", i.serialize()),
            Value::Real(x) => match non_finite_text(*x) {
                Some(text) => ("Real", Content::Str(text)),
                None => ("Real", x.serialize()),
            },
            Value::Text(s) => ("Text", s.serialize()),
        };
        Content::Map(vec![(variant.to_string(), payload)])
    }
}

impl Deserialize for Value {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        let unknown = |what: &str| DeError::new(format!("not a value: {what}"));
        match content {
            Content::Str(s) if s == "Null" => Ok(Value::Null),
            Content::Map(entries) if entries.len() == 1 => {
                let (variant, payload) = &entries[0];
                match (variant.as_str(), payload) {
                    ("Int", payload) => Ok(Value::Int(i64::deserialize(payload)?)),
                    ("Real", Content::Str(text)) => non_finite_real(text)
                        .map(Value::Real)
                        .ok_or_else(|| unknown(text)),
                    ("Real", payload) => Ok(Value::Real(f64::deserialize(payload)?)),
                    ("Text", payload) => Ok(Value::Text(String::deserialize(payload)?)),
                    (other, _) => Err(unknown(other)),
                }
            }
            other => Err(unknown(other.kind())),
        }
    }
}

/// How a real that is not finite is written: `+Inf`, `-Inf`, `NaN` for the
/// NaN [`f64::NAN`] is, and `NaN:` and the bits in hex for any other NaN.
/// `None` for a finite real, which is a JSON number.
pub(crate) fn non_finite_text(x: f64) -> Option<String> {
    Some(match x {
        f64::INFINITY => "+Inf".to_string(),
        f64::NEG_INFINITY => "-Inf".to_string(),
        x if x.to_bits() == f64::NAN.to_bits() => "NaN".to_string(),
        x if x.is_nan() => format!("NaN:{:016x}", x.to_bits()),
        _ => return None,
    })
}

/// The real [`non_finite_text`] wrote `text` for.
fn non_finite_real(text: &str) -> Option<f64> {
    match text {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => {
            let bits = text.strip_prefix("NaN:").filter(|hex| hex.len() == 16)?;
            let x = f64::from_bits(u64::from_str_radix(bits, 16).ok()?);
            x.is_nan().then_some(x)
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// A table row: one value per schema column, in column order.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_across_types() {
        let mut vals = vec![
            Value::Text("b".into()),
            Value::Int(5),
            Value::Null,
            Value::Real(2.5),
            Value::Text("a".into()),
            Value::Int(2),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Int(2),
                Value::Real(2.5),
                Value::Int(5),
                Value::Text("a".into()),
                Value::Text("b".into()),
            ]
        );
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Real(3.0));
        assert_ne!(Value::Int(3), Value::Real(3.5));
    }

    #[test]
    fn nan_is_ordered() {
        assert!(Value::Real(f64::NAN) < Value::Real(0.0));
        assert_eq!(Value::Real(f64::NAN), Value::Real(f64::NAN));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_real(), Some(7.0));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Real(1.0).as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn serde_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Int(-3),
            Value::Real(1.25),
            Value::Text("job".into()),
        ];
        let json = serde_json::to_string(&vals).unwrap();
        let back: Vec<Value> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn a_real_that_is_not_finite_comes_back_bit_for_bit() {
        let reals = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            -0.0,
            f64::MAX,
        ];
        let vals: Vec<Value> = reals.iter().map(|x| Value::Real(*x)).collect();
        let json = serde_json::to_string(&vals).unwrap();
        assert_eq!(
            json,
            r#"[{"Real":"+Inf"},{"Real":"-Inf"},{"Real":"NaN"},{"Real":"NaN:fff8000000000000"},{"Real":"NaN:7ff0000000000001"},{"Real":-0.0},{"Real":1.7976931348623157e308}]"#
        );
        let back: Vec<Value> = serde_json::from_str(&json).unwrap();
        for (x, v) in reals.iter().zip(&back) {
            assert_eq!(v.as_real().unwrap().to_bits(), x.to_bits(), "{json}");
        }
        // What an older build wrote for any of them.
        let old: Value = serde_json::from_str(r#"{"Real":null}"#).unwrap();
        assert!(old.as_real().unwrap().is_nan());
        for bad in [
            r#"{"Real":"inf"}"#,
            r#"{"Real":"NaN:0000000000000001"}"#,
            r#"{"Real":"NaN:7ff8"}"#,
        ] {
            assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad}");
        }
    }
}
