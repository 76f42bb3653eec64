//! Immutable, sorted label sets.
//!
//! A label set is the identity of a time series. Labels are kept sorted by
//! name so that equality, hashing and the text exposition format are all
//! deterministic. The special label `__name__` carries the metric name in
//! TSDB contexts, as in Prometheus.
//!
//! Names and values are shared strings: cloning a set, or deriving one from
//! it (`with`, `without`, `restrict_to`, `drop_names`), copies pointers,
//! never bytes. Only construction from text allocates, one copy per string.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Reserved label name holding the metric name inside the TSDB.
pub const METRIC_NAME_LABEL: &str = "__name__";

/// An immutable set of `name=value` labels, sorted by name.
///
/// Duplicate names are rejected at build time. Empty values are allowed but
/// are semantically equivalent to the label being absent (Prometheus
/// convention); [`LabelSet::get`] returns `None` for empty values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct LabelSet {
    pairs: Vec<(Arc<str>, Arc<str>)>,
}

impl LabelSet {
    /// The empty label set.
    pub fn empty() -> Self {
        LabelSet { pairs: Vec::new() }
    }

    /// Builds a label set from unsorted pairs. Later duplicates win.
    pub fn from_pairs<I, S1, S2>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S1, S2)>,
        S1: AsRef<str>,
        S2: AsRef<str>,
    {
        let mut b = LabelSetBuilder::new();
        for (k, v) in pairs {
            b = b.label(k, v);
        }
        b.build()
    }

    /// [`Self::from_pairs`] over strings the caller already shares: no
    /// string is copied, so a decoder that hands out one `Arc` per distinct
    /// name or value builds every set from the same allocations.
    pub fn from_shared(mut pairs: Vec<(Arc<str>, Arc<str>)>) -> Self {
        // Stable, so of equal names the later one is last: it wins.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        LabelSet { pairs }
    }

    /// Returns the value for `name`, treating empty values as absent.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .binary_search_by(|(k, _)| (**k).cmp(name))
            .ok()
            .map(|i| &*self.pairs[i].1)
            .filter(|v| !v.is_empty())
    }

    /// Returns the metric name (`__name__` label), if present.
    pub fn metric_name(&self) -> Option<&str> {
        self.get(METRIC_NAME_LABEL)
    }

    /// Number of labels (including empty-valued ones).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no labels are present.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(k, v)| (&**k, &**v))
    }

    /// Returns a new set with `name=value` added or replaced.
    pub fn with(&self, name: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        LabelSetBuilder::from(self.clone())
            .label(name, value)
            .build()
    }

    /// Returns a new set without the given label.
    pub fn without(&self, name: &str) -> Self {
        LabelSet {
            pairs: self
                .pairs
                .iter()
                .filter(|(k, _)| **k != *name)
                .cloned()
                .collect(),
        }
    }

    /// Returns a new set restricted to the given label names (for
    /// `by (...)` aggregation grouping).
    pub fn restrict_to(&self, names: &[String]) -> Self {
        LabelSet {
            pairs: self
                .pairs
                .iter()
                .filter(|(k, _)| names.iter().any(|n| **n == **k))
                .cloned()
                .collect(),
        }
    }

    /// Returns a new set dropping the given label names (for
    /// `without (...)` aggregation grouping). Always drops `__name__`.
    pub fn drop_names(&self, names: &[String]) -> Self {
        LabelSet {
            pairs: self
                .pairs
                .iter()
                .filter(|(k, _)| **k != *METRIC_NAME_LABEL && !names.iter().any(|n| **n == **k))
                .cloned()
                .collect(),
        }
    }

    /// A stable 64-bit FNV-1a fingerprint of the label set.
    ///
    /// Used as the series identity hash in the TSDB index. Collisions are
    /// handled by the index (it compares full label sets on lookup).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for (k, v) in &self.pairs {
            eat(k.as_bytes());
            eat(&[0xfe]);
            eat(v.as_bytes());
            eat(&[0xff]);
        }
        h
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (k, v) in &self.pairs {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{}=\"{}\"", k, crate::encode::escape_label_value(v))?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`LabelSet`]. Later inserts of the same name replace earlier
/// ones.
#[derive(Clone, Default)]
pub struct LabelSetBuilder {
    pairs: Vec<(Arc<str>, Arc<str>)>,
}

impl LabelSetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a label. Each string is copied once, into the
    /// shared allocation the built set keeps.
    pub fn label(mut self, name: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        let (name, value) = (name.as_ref(), Arc::from(value.as_ref()));
        if let Some(slot) = self.pairs.iter_mut().find(|(k, _)| **k == *name) {
            slot.1 = value;
        } else {
            self.pairs.push((Arc::from(name), value));
        }
        self
    }

    /// Finalises the builder into a sorted [`LabelSet`].
    pub fn build(mut self) -> LabelSet {
        self.pairs.sort_by(|a, b| a.0.cmp(&b.0));
        LabelSet { pairs: self.pairs }
    }
}

impl From<LabelSet> for LabelSetBuilder {
    fn from(ls: LabelSet) -> Self {
        LabelSetBuilder { pairs: ls.pairs }
    }
}

/// Convenience macro producing a [`LabelSet`] from `name => value` pairs.
#[macro_export]
macro_rules! labels {
    () => { $crate::labels::LabelSet::empty() };
    ($($k:expr => $v:expr),+ $(,)?) => {{
        let mut b = $crate::labels::LabelSetBuilder::new();
        $( b = b.label($k, $v); )+
        b.build()
    }};
}

/// Validates a metric or label name: `[a-zA-Z_:][a-zA-Z0-9_:]*` for metric
/// names; label names may not contain `:`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates a label name: `[a-zA-Z_][a-zA-Z0-9_]*`.
pub fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_and_dedups() {
        let ls = LabelSetBuilder::new()
            .label("zeta", "1")
            .label("alpha", "2")
            .label("zeta", "3")
            .build();
        let pairs: Vec<_> = ls.iter().collect();
        assert_eq!(pairs, vec![("alpha", "2"), ("zeta", "3")]);
    }

    #[test]
    fn shared_strings_build_the_set_text_builds() {
        let raw = [
            ("zeta", "1"),
            ("alpha", "2"),
            ("zeta", "3"),
            ("mu", ""),
            ("zeta", "4"),
        ];
        for n in 0..=raw.len() {
            let shared = raw[..n]
                .iter()
                .map(|(k, v)| (Arc::from(*k), Arc::from(*v)))
                .collect();
            let ls = LabelSet::from_shared(shared);
            assert_eq!(
                ls,
                LabelSet::from_pairs(raw[..n].iter().copied()),
                "first {n}"
            );
            assert_eq!(
                ls.fingerprint(),
                LabelSet::from_pairs(raw[..n].iter().copied()).fingerprint()
            );
        }
        // The set keeps the caller's allocations.
        let name: Arc<str> = Arc::from("__name__");
        let ls = LabelSet::from_shared(vec![(Arc::clone(&name), Arc::from("up"))]);
        assert!(Arc::ptr_eq(&ls.pairs[0].0, &name));
    }

    #[test]
    fn get_treats_empty_as_absent() {
        let ls = labels! {"a" => "", "b" => "x"};
        assert_eq!(ls.get("a"), None);
        assert_eq!(ls.get("b"), Some("x"));
        assert_eq!(ls.get("missing"), None);
    }

    #[test]
    fn fingerprint_stable_and_order_independent() {
        let a = LabelSet::from_pairs([("x", "1"), ("y", "2")]);
        let b = LabelSet::from_pairs([("y", "2"), ("x", "1")]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = LabelSet::from_pairs([("x", "1"), ("y", "3")]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_separator_prevents_concat_collisions() {
        // ("ab", "c") vs ("a", "bc") must not collide.
        let a = LabelSet::from_pairs([("ab", "c")]);
        let b = LabelSet::from_pairs([("a", "bc")]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn with_and_without() {
        let ls = labels! {"job" => "ceems", "node" => "n1"};
        let ls2 = ls.with("node", "n2");
        assert_eq!(ls2.get("node"), Some("n2"));
        let ls3 = ls2.without("job");
        assert_eq!(ls3.get("job"), None);
        assert_eq!(ls3.len(), 1);
    }

    #[test]
    fn restrict_and_drop() {
        let ls = labels! {"__name__" => "m", "a" => "1", "b" => "2"};
        let r = ls.restrict_to(&["a".to_string()]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get("a"), Some("1"));
        let d = ls.drop_names(&["a".to_string()]);
        assert_eq!(d.get("b"), Some("2"));
        assert_eq!(d.get(METRIC_NAME_LABEL), None);
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("ceems_cpu_seconds_total"));
        assert!(valid_metric_name("job:power_watts:rate5m"));
        assert!(!valid_metric_name("9bad"));
        assert!(!valid_metric_name(""));
        assert!(valid_label_name("instance"));
        assert!(!valid_label_name("with:colon"));
    }

    /// The identity of a set as the commit before shared strings produced
    /// it (`Vec<(String, String)>` pairs, derived traits): the values below
    /// were printed by that commit.
    #[test]
    fn identity_is_what_owned_strings_produced() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash_of(v: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        let pairs = [
            ("uuid", "slurm-42"),
            ("__name__", "ceems_power_watts"),
            ("instance", "n\"1\\\n"),
            ("job", "ceems"),
            ("empty", ""),
        ];
        let ls = LabelSet::from_pairs(pairs);
        assert_eq!(ls.fingerprint(), 0x86eb_c1e6_633c_006c);
        assert_eq!(LabelSet::empty().fingerprint(), 0xcbf2_9ce4_8422_2325);
        let text = r#"{__name__="ceems_power_watts",empty="",instance="n\"1\\\n",job="ceems",uuid="slurm-42"}"#;
        assert_eq!(ls.to_string(), text);
        assert_eq!(format!("{ls:?}"), text);
        let json = r#"{"pairs":[["__name__","ceems_power_watts"],["empty",""],["instance","n\"1\\\n"],["job","ceems"],["uuid","slurm-42"]]}"#;
        assert_eq!(serde_json::to_string(&ls).unwrap(), json);
        assert_eq!(serde_json::from_str::<LabelSet>(json).unwrap(), ls);
        assert_eq!(
            serde_json::to_string(&LabelSet::empty()).unwrap(),
            r#"{"pairs":[]}"#
        );

        // Hashes as the sorted owned pairs did, whatever order it was built in.
        let mut owned: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        owned.sort();
        for rotate in 0..pairs.len() {
            let mut p = pairs;
            p.rotate_left(rotate);
            let other = LabelSet::from_pairs(p);
            assert_eq!(other, ls);
            assert_eq!(hash_of(&other), hash_of(&owned));
            assert_eq!(other.fingerprint(), ls.fingerprint());
        }

        let mut sets = [
            labels! {"a" => "2"},
            labels! {"a" => "1", "b" => "0"},
            labels! {"a" => "1"},
            LabelSet::empty(),
            labels! {"B" => "9"},
            labels! {"a" => "1", "a0" => ""},
        ];
        sets.sort();
        let sorted: Vec<String> = sets.iter().map(LabelSet::to_string).collect();
        let want = [
            r#"{}"#,
            r#"{B="9"}"#,
            r#"{a="1"}"#,
            r#"{a="1",a0=""}"#,
            r#"{a="1",b="0"}"#,
            r#"{a="2"}"#,
        ];
        assert_eq!(sorted, want);
    }

    #[test]
    fn derived_sets_leave_the_original_intact() {
        let ls = labels! {"__name__" => "m", "a" => "1", "b" => "2"};
        let before = (ls.to_string(), ls.fingerprint());
        let copy = ls.clone();
        assert_eq!(copy.with("a", "9").get("a"), Some("9"));
        assert_eq!(copy.with("c", "3").len(), 4);
        assert_eq!(copy.without("a").to_string(), r#"{__name__="m",b="2"}"#);
        assert_eq!(
            copy.restrict_to(&["b".to_string()]).to_string(),
            r#"{b="2"}"#
        );
        assert_eq!(
            copy.drop_names(&["b".to_string()]).to_string(),
            r#"{a="1"}"#
        );
        let rebuilt = LabelSetBuilder::from(copy.clone()).label("b", "x").build();
        assert_eq!(rebuilt.get("b"), Some("x"));
        assert_eq!((ls.to_string(), ls.fingerprint()), before);
        assert_eq!(copy, ls);
    }

    #[test]
    fn display_escapes() {
        let ls = labels! {"path" => "a\"b\nc\\d"};
        let s = format!("{}", ls);
        assert_eq!(s, "{path=\"a\\\"b\\nc\\\\d\"}");
    }
}
