//! Scalar values with tolerant numeric comparison.

use std::cmp::Ordering;
use std::fmt;

/// A scalar value stored in a table cell or produced by a query.
///
/// The statistical-check fragment of Definition 3 only ever computes over
/// numbers, but table cells can be missing (early-estimate data) and keys are
/// strings, so the model is the usual four-way enum.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value (empty CSV cell).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (keys, labels).
    Str(String),
}

impl Value {
    /// Returns the value as a float when it is numeric.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the string payload when the value is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True when the value is numeric (int or float).
    #[inline]
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Total ordering used for deterministic sorting of heterogeneous values:
    /// `Null < numbers < strings`; numbers compare numerically, NaN last.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ if self.is_numeric() && other.is_numeric() => {
                let a = self.as_f64().expect("numeric");
                let b = other.as_f64().expect("numeric");
                a.total_cmp(&b)
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Parses a CSV/corpus cell into the most specific value type.
    ///
    /// Accepts thousands separators written as spaces (the IEA style of
    /// Figure 1: `22 209`) or commas, empty cells as `Null`.
    pub fn parse_cell(cell: &str) -> Value {
        let trimmed = cell.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        let compact: String = trimmed
            .chars()
            .filter(|c| !matches!(c, ' ' | ',' | '\u{a0}'))
            .collect();
        if let Ok(i) = compact.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = compact.parse::<f64>() {
            return Value::Float(f);
        }
        Value::Str(trimmed.to_string())
    }

    /// Human-readable type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }
}

/// Relative-tolerance float comparison shared by the whole system.
///
/// The criterion is `|a − b| ≤ tolerance · |b|` — relative error against the
/// claimed parameter `b`, per Definition 2. A claimed parameter of exactly
/// zero ("emissions were flat") falls back to the absolute test
/// `|a| ≤ tolerance`, since relative error is undefined at zero.
#[inline]
pub fn approx_eq_f64(a: f64, b: f64, tolerance: f64) -> bool {
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    if b == 0.0 {
        return a.abs() <= tolerance;
    }
    (a - b).abs() <= tolerance * b.abs()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
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
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_cell_handles_iea_style() {
        assert_eq!(Value::parse_cell("22 209"), Value::Int(22_209));
        assert_eq!(Value::parse_cell("22,209"), Value::Int(22_209));
        assert_eq!(Value::parse_cell("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse_cell(""), Value::Null);
        assert_eq!(Value::parse_cell("  "), Value::Null);
        assert_eq!(
            Value::parse_cell("PGElecDemand"),
            Value::Str("PGElecDemand".into())
        );
    }

    #[test]
    fn approx_eq_uses_relative_tolerance() {
        // 3% growth claim vs computed 3.05% at 5% admissible error
        assert!(approx_eq_f64(0.0305, 0.03, 0.05));
        // 2.5% claim vs computed 3% must NOT match (Example 4)
        assert!(!approx_eq_f64(0.03, 0.025, 0.05));
    }

    #[test]
    fn approx_eq_large_values() {
        // 22 200 TWh claimed vs 22 209 computed
        assert!(approx_eq_f64(22_209.0, 22_200.0, 0.01));
        assert!(!approx_eq_f64(25_000.0, 22_200.0, 0.01));
    }

    #[test]
    fn null_matches_nothing() {
        // a missing value has no numeric form, so it never reaches the
        // tolerance test and can never verify a claim
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn nan_and_inf_never_match() {
        assert!(!approx_eq_f64(f64::NAN, f64::NAN, 1.0));
        assert!(!approx_eq_f64(f64::INFINITY, f64::INFINITY, 1.0));
    }

    #[test]
    fn total_cmp_orders_heterogeneous() {
        let mut vals = vec![
            Value::Str("b".into()),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
            Value::Str("a".into()),
        ];
        vals.sort_by(Value::total_cmp);
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Float(1.5),
                Value::Int(2),
                Value::Str("a".into()),
                Value::Str("b".into()),
            ]
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        for v in [
            Value::Int(42),
            Value::Float(3.25),
            Value::Str("CapAddTotal_Wind".into()),
        ] {
            let shown = v.to_string();
            let parsed = Value::parse_cell(&shown);
            match (&v, &parsed) {
                (Value::Float(a), Value::Float(b)) => assert!((a - b).abs() < 1e-12),
                // "3.0" parses back as Float; Int display stays Int
                _ => assert_eq!(parsed.to_string(), shown),
            }
        }
    }
}
