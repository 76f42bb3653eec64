//! Inverted label index.
//!
//! Maps label `name → value → posting list` (sorted series ids). Selectors
//! with exact matchers intersect posting lists; regex/negative matchers
//! scan the value space of the label, which is how Prometheus' index works
//! and why high label cardinality (§II.C of the paper) hurts.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ceems_metrics::labels::{LabelSet, METRIC_NAME_LABEL};
use ceems_metrics::matcher::{LabelMatcher, MatchOp};

use crate::types::SeriesId;

/// The index plus the series registry.
#[derive(Debug, Default)]
pub struct LabelIndex {
    postings: BTreeMap<String, BTreeMap<String, Vec<SeriesId>>>,
    series: HashMap<SeriesId, Arc<LabelSet>>,
    by_fingerprint: HashMap<u64, Vec<SeriesId>>,
    next_id: SeriesId,
    /// Bumped on every series creation or removal. Posting-list caches tag
    /// entries with the generation they were computed at and discard them
    /// when it moves, so a cache can never serve ids across a membership
    /// change.
    generation: u64,
    /// Series registered below `next_id` (replay in another order, a
    /// follower's bootstrap): while this holds still, every series
    /// registered since `next_id` read `n` has an id `>= n`.
    backfills: u64,
}

impl LabelIndex {
    /// Empty index.
    pub fn new() -> LabelIndex {
        LabelIndex::default()
    }

    /// Number of live series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Index generation: changes whenever series membership changes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks up an existing series id for exactly these labels.
    pub fn lookup(&self, labels: &LabelSet) -> Option<SeriesId> {
        self.lookup_with_fingerprint(labels, labels.fingerprint())
    }

    /// [`Self::lookup`] with a precomputed fingerprint, so the append path
    /// hashes a label set once across its lookup + create phases.
    pub fn lookup_with_fingerprint(&self, labels: &LabelSet, fp: u64) -> Option<SeriesId> {
        self.by_fingerprint
            .get(&fp)?
            .iter()
            .copied()
            .find(|id| self.series[id].as_ref() == labels)
    }

    /// Gets an existing id or registers a new series.
    pub fn get_or_create(&mut self, labels: &LabelSet) -> SeriesId {
        self.get_or_create_with_fingerprint(labels, labels.fingerprint())
    }

    /// [`Self::get_or_create`] with a precomputed fingerprint.
    pub fn get_or_create_with_fingerprint(&mut self, labels: &LabelSet, fp: u64) -> SeriesId {
        if let Some(id) = self.lookup_with_fingerprint(labels, fp) {
            return id;
        }
        let id = self.next_id;
        self.register(id, Arc::new(labels.clone()), fp);
        id
    }

    /// Registers a series under a fixed id during WAL or checkpoint replay,
    /// so recovered ids match what logged `Samples` records reference.
    /// No-op when the id already exists. Unlike [`Self::get_or_create`],
    /// ids may arrive in any order (a follower bootstraps from a checkpoint
    /// sorted by id, then replays creates in log order).
    pub fn insert_replayed(&mut self, id: SeriesId, labels: Arc<LabelSet>) {
        if !self.series.contains_key(&id) {
            let fp = labels.fingerprint();
            self.register(id, labels, fp);
        }
    }

    /// Enters a series the registry does not hold yet.
    fn register(&mut self, id: SeriesId, labels: Arc<LabelSet>, fp: u64) {
        self.generation += 1;
        self.backfills += u64::from(id < self.next_id);
        self.next_id = self.next_id.max(id + 1);
        self.by_fingerprint.entry(fp).or_default().push(id);
        for (k, v) in labels.iter() {
            // Looked up by `&str`: only a name or a value the index has not
            // seen is copied into a key.
            let values = match self.postings.get_mut(k) {
                Some(values) => values,
                None => self.postings.entry(k.to_string()).or_default(),
            };
            let list = match values.get_mut(v) {
                Some(list) => list,
                None => values.entry(v.to_string()).or_default(),
            };
            // Ids mostly arrive in increasing order (always, outside
            // replay), which keeps a list sorted by pushing.
            match list.last() {
                Some(&last) if last >= id => {
                    if let Err(pos) = list.binary_search(&id) {
                        list.insert(pos, id);
                    }
                }
                _ => list.push(id),
            }
        }
        self.series.insert(id, labels);
    }

    /// Forces the generation counter (checkpoint restore: recovered caches
    /// must invalidate against the same clock the pre-crash index used).
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// The id the next created series would get.
    pub fn next_id(&self) -> SeriesId {
        self.next_id
    }

    /// Series registered with an id below the `next_id` of the moment.
    pub fn backfills(&self) -> u64 {
        self.backfills
    }

    /// The series with id `>= from` that `matchers` select, ascending, read
    /// off the tail of the `__name__="name"` posting list. With `name` the
    /// value of an exact `__name__` matcher in `matchers` and no removal or
    /// backfill since `next_id` read `from`, these are the series
    /// [`Self::select`] gained since.
    pub fn select_since(
        &self,
        name: &str,
        matchers: &[LabelMatcher],
        from: SeriesId,
    ) -> Vec<SeriesId> {
        let Some(list) = self
            .postings
            .get(METRIC_NAME_LABEL)
            .and_then(|v| v.get(name))
        else {
            return Vec::new();
        };
        list[list.partition_point(|&id| id < from)..]
            .iter()
            .copied()
            .filter(|id| {
                let labels = &self.series[id];
                matchers.iter().all(|m| m.matches(labels))
            })
            .collect()
    }

    /// Forces the next-id counter (checkpoint restore: tombstoned series may
    /// have held ids above every live one).
    pub fn set_next_id(&mut self, next_id: SeriesId) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Every live series as `(id, labels)`, sorted by id (checkpoint
    /// snapshots iterate this).
    pub fn all_series(&self) -> Vec<(SeriesId, Arc<LabelSet>)> {
        let mut out: Vec<(SeriesId, Arc<LabelSet>)> = self
            .series
            .iter()
            .map(|(&id, labels)| (id, Arc::clone(labels)))
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Removes a series entirely (tombstone purge).
    pub fn remove(&mut self, id: SeriesId) {
        let Some(labels) = self.series.remove(&id) else {
            return;
        };
        self.generation += 1;
        if let Some(v) = self.by_fingerprint.get_mut(&labels.fingerprint()) {
            v.retain(|&x| x != id);
            if v.is_empty() {
                self.by_fingerprint.remove(&labels.fingerprint());
            }
        }
        for (k, val) in labels.iter() {
            if let Some(values) = self.postings.get_mut(k) {
                if let Some(list) = values.get_mut(val) {
                    list.retain(|&x| x != id);
                    if list.is_empty() {
                        values.remove(val);
                    }
                }
                if values.is_empty() {
                    self.postings.remove(k);
                }
            }
        }
    }

    /// Labels of a series, shared with the registry (cheap to clone).
    pub fn labels(&self, id: SeriesId) -> Option<&Arc<LabelSet>> {
        self.series.get(&id)
    }

    /// All label names present.
    pub fn label_names(&self) -> Vec<String> {
        self.postings.keys().cloned().collect()
    }

    /// All values of a label name.
    pub fn label_values(&self, name: &str) -> Vec<String> {
        self.postings
            .get(name)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Resolves matchers to the sorted set of matching series ids.
    pub fn select(&self, matchers: &[LabelMatcher]) -> Vec<SeriesId> {
        if matchers.is_empty() {
            let mut all: Vec<SeriesId> = self.series.keys().copied().collect();
            all.sort_unstable();
            return all;
        }

        // Positive matchers narrow the candidates. An exact one lends its
        // posting list as it stands; only a regex builds a list of its own,
        // the union over the values it matches (none, for a label name the
        // index has never seen). Every series on such a list satisfies its
        // matcher, so only the others are left to check: negative matchers,
        // and those a series without the label satisfies (`job=""`,
        // `job=~".*"`), which cannot narrow.
        let mut lists: Vec<Cow<'_, [SeriesId]>> = Vec::new();
        let mut unchecked: Vec<&LabelMatcher> = Vec::new();
        for m in matchers {
            let values = self.postings.get(&m.name);
            match m.op {
                MatchOp::Eq if m.is_exact() => lists.push(Cow::Borrowed(
                    values
                        .and_then(|values| values.get(&m.value))
                        .map_or(&[][..], Vec::as_slice),
                )),
                MatchOp::Re if !m.matches_value("") => {
                    let mut union: Vec<SeriesId> = values
                        .into_iter()
                        .flatten()
                        .filter(|(v, _)| m.matches_value(v))
                        .flat_map(|(_, ids)| ids.iter().copied())
                        .collect();
                    union.sort_unstable();
                    union.dedup();
                    lists.push(Cow::Owned(union));
                }
                _ => unchecked.push(m),
            }
        }

        // Shortest first: no intermediate result outgrows the most
        // selective matcher, whatever order the selector was written in.
        lists.sort_by_key(|list| list.len());
        let mut lists = lists.into_iter();
        let base: Cow<'_, [SeriesId]> = match lists.next() {
            Some(shortest) => lists.fold(shortest, |acc, list| {
                Cow::Owned(intersect_sorted(&acc, &list))
            }),
            None => {
                let mut all: Vec<SeriesId> = self.series.keys().copied().collect();
                all.sort_unstable();
                Cow::Owned(all)
            }
        };
        if unchecked.is_empty() {
            return base.into_owned();
        }
        base.iter()
            .copied()
            .filter(|id| {
                let labels = &self.series[id];
                unchecked.iter().all(|m| m.matches(labels))
            })
            .collect()
    }
}

/// Intersects two sorted id lists with galloping search.
///
/// The shorter list drives; each of its ids is located in the longer list by
/// doubling probes from the last match position, then a binary search over
/// the bracketed window. Cost is `O(m log(n/m))` for lists of length `m ≤ n`,
/// which beats the linear merge exactly when one matcher is far more
/// selective than the other — the common shape for
/// `{__name__="x", instance=~".+"}` style selectors.
pub fn intersect_sorted(a: &[SeriesId], b: &[SeriesId]) -> Vec<SeriesId> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(short.len());
    let mut base = 0; // everything below `base` in `long` is already consumed
    for &id in short {
        if base >= long.len() {
            break;
        }
        // Gallop: find an exponent window [base + step/2, base + step]
        // whose upper bound is >= id.
        let mut step = 1;
        while base + step < long.len() && long[base + step] < id {
            step <<= 1;
        }
        let lo = base + step / 2;
        let hi = (base + step + 1).min(long.len());
        match long[lo..hi].binary_search(&id) {
            Ok(pos) => {
                out.push(id);
                base = lo + pos + 1;
            }
            Err(pos) => {
                base = lo + pos;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;

    fn sample_index() -> LabelIndex {
        let mut idx = LabelIndex::new();
        idx.get_or_create(&labels! {"__name__" => "up", "instance" => "n1", "job" => "ceems"});
        idx.get_or_create(&labels! {"__name__" => "up", "instance" => "n2", "job" => "ceems"});
        idx.get_or_create(&labels! {"__name__" => "power", "instance" => "n1", "job" => "ceems"});
        idx.get_or_create(&labels! {"__name__" => "power", "instance" => "gpu-1", "job" => "dcgm"});
        idx
    }

    #[test]
    fn ids_stable_per_label_set() {
        let mut idx = LabelIndex::new();
        let a = idx.get_or_create(&labels! {"x" => "1"});
        let b = idx.get_or_create(&labels! {"x" => "2"});
        let a2 = idx.get_or_create(&labels! {"x" => "1"});
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(idx.series_count(), 2);
    }

    #[test]
    fn exact_select_intersects() {
        let idx = sample_index();
        let ids = idx.select(&[
            LabelMatcher::eq("__name__", "up"),
            LabelMatcher::eq("instance", "n1"),
        ]);
        assert_eq!(ids.len(), 1);
        assert_eq!(
            idx.labels(ids[0]).unwrap().get("instance"),
            Some("n1")
        );
    }

    #[test]
    fn regex_and_negative_matchers() {
        let idx = sample_index();
        let re = LabelMatcher::new("instance", MatchOp::Re, "n\\d+").unwrap();
        let ids = idx.select(&[re]);
        assert_eq!(ids.len(), 3);

        let ne = LabelMatcher::new("job", MatchOp::Ne, "dcgm").unwrap();
        let ids = idx.select(&[LabelMatcher::eq("__name__", "power"), ne]);
        assert_eq!(ids.len(), 1);

        let nre = LabelMatcher::new("instance", MatchOp::Nre, "gpu-.*").unwrap();
        let ids = idx.select(&[nre]);
        assert_eq!(ids.len(), 3);
    }

    /// Whatever mix of exact, regex, negative and absent-label matchers,
    /// in whatever order, `select` answers what filtering every series by
    /// every matcher answers, in ascending id order — also once a series
    /// the first pass returned is gone.
    #[test]
    fn select_equals_a_full_scan_in_any_matcher_order() {
        let mut idx = sample_index();
        for i in 0..40 {
            idx.get_or_create(&labels! {
                "__name__" => if i % 3 == 0 { "power" } else { "cpu" },
                "instance" => format!("n{}", i % 7),
                "uuid" => format!("slurm-{i}"),
            });
        }
        let m = |name: &str, op, value: &str| LabelMatcher::new(name, op, value).unwrap();
        let pool = [
            m("__name__", MatchOp::Eq, "power"),
            m("instance", MatchOp::Eq, "n1"),
            m("uuid", MatchOp::Eq, "slurm-15"),
            m("uuid", MatchOp::Eq, "slurm-404"),
            m("nolabel", MatchOp::Eq, "x"),
            m("instance", MatchOp::Re, "n[1-3]"),
            m("uuid", MatchOp::Re, "slurm-1.*"),
            m("nolabel", MatchOp::Re, "a|b.+"),
            m("job", MatchOp::Re, ".*"),
            m("job", MatchOp::Ne, "dcgm"),
            m("uuid", MatchOp::Ne, "slurm-15"),
            m("job", MatchOp::Eq, ""),
            m("uuid", MatchOp::Eq, ""),
            m("instance", MatchOp::Nre, "gpu-.*|n0"),
            m("uuid", MatchOp::Nre, "slurm-1.*"),
        ];
        let check_every_triple = |idx: &LabelIndex| {
            let scan = |matchers: &[LabelMatcher]| {
                let mut ids: Vec<SeriesId> = idx
                    .series
                    .iter()
                    .filter(|(_, labels)| matchers.iter().all(|m| m.matches(labels)))
                    .map(|(id, _)| *id)
                    .collect();
                ids.sort_unstable();
                ids
            };
            let mut non_empty = 0;
            for a in &pool {
                for b in &pool {
                    for c in &pool {
                        let matchers = [a.clone(), b.clone(), c.clone()];
                        let got = idx.select(&matchers);
                        assert_eq!(got, scan(&matchers), "{matchers:?}");
                        non_empty += usize::from(!got.is_empty());
                    }
                }
            }
            assert!(non_empty > 100, "the pool must not be all-empty answers");
        };
        check_every_triple(&idx);
        let gone = idx.select(&[m("uuid", MatchOp::Eq, "slurm-15")]);
        assert_eq!(gone.len(), 1);
        idx.remove(gone[0]);
        assert!(idx.select(&[pool[0].clone(), pool[5].clone()]).iter().all(|id| *id != gone[0]));
        check_every_triple(&idx);
    }

    /// Replayed ids arrive in any order and may repeat; posting lists stay
    /// sorted and the index answers as one built in id order does.
    #[test]
    fn replayed_series_in_any_order_index_as_created_ones() {
        let sets: Vec<LabelSet> = (0..30)
            .map(|i| labels! {"__name__" => "m", "instance" => format!("n{}", i % 4), "i" => format!("{i}")})
            .collect();
        let mut created = LabelIndex::new();
        for ls in &sets {
            created.get_or_create(ls);
        }
        let mut replayed = LabelIndex::new();
        for i in (0..30).rev().chain([7, 3]).chain(0..30) {
            replayed.insert_replayed(i as SeriesId, Arc::new(sets[i].clone()));
        }
        assert_eq!(replayed.postings, created.postings);
        assert_eq!(replayed.next_id(), created.next_id());
        assert_eq!(replayed.generation(), created.generation());
        assert_eq!(replayed.series_count(), 30);
        for ls in &sets {
            assert_eq!(replayed.lookup(ls), created.lookup(ls));
        }
    }

    #[test]
    fn empty_matcher_set_selects_all() {
        let idx = sample_index();
        assert_eq!(idx.select(&[]).len(), 4);
    }

    #[test]
    fn no_match_returns_empty() {
        let idx = sample_index();
        assert!(idx.select(&[LabelMatcher::eq("__name__", "nope")]).is_empty());
        assert!(idx
            .select(&[
                LabelMatcher::eq("__name__", "up"),
                LabelMatcher::eq("job", "dcgm")
            ])
            .is_empty());
    }

    #[test]
    fn label_names_and_values() {
        let idx = sample_index();
        assert_eq!(
            idx.label_names(),
            vec!["__name__".to_string(), "instance".into(), "job".into()]
        );
        assert_eq!(
            idx.label_values("__name__"),
            vec!["power".to_string(), "up".into()]
        );
        assert!(idx.label_values("none").is_empty());
    }

    #[test]
    fn remove_purges_postings() {
        let mut idx = sample_index();
        let ids = idx.select(&[LabelMatcher::eq("job", "dcgm")]);
        assert_eq!(ids.len(), 1);
        idx.remove(ids[0]);
        assert!(idx.select(&[LabelMatcher::eq("job", "dcgm")]).is_empty());
        assert_eq!(idx.series_count(), 3);
        assert!(!idx.label_values("job").contains(&"dcgm".to_string()));
        // Removing twice is a no-op.
        idx.remove(ids[0]);
        assert_eq!(idx.series_count(), 3);
    }

    #[test]
    fn intersect_sorted_works() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[2, 3, 5, 8]), vec![3, 5]);
        assert!(intersect_sorted(&[], &[1]).is_empty());
        assert_eq!(intersect_sorted(&[1, 2], &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn intersect_gallops_asymmetric_lists() {
        let long: Vec<SeriesId> = (0..10_000).collect();
        let short: Vec<SeriesId> = vec![0, 17, 4096, 9999];
        assert_eq!(intersect_sorted(&short, &long), short);
        assert_eq!(intersect_sorted(&long, &short), short);
        // Ids past the end of the long list.
        assert_eq!(intersect_sorted(&[5, 20_000], &long), vec![5]);
        // Disjoint.
        let evens: Vec<SeriesId> = (0..1000).map(|x| x * 2).collect();
        let odds: Vec<SeriesId> = (0..1000).map(|x| x * 2 + 1).collect();
        assert!(intersect_sorted(&evens, &odds).is_empty());
        // Matches a naive filter on interleaved lists.
        let a: Vec<SeriesId> = (0..500).map(|x| x * 3).collect();
        let b: Vec<SeriesId> = (0..500).map(|x| x * 5).collect();
        let expect: Vec<SeriesId> = a.iter().copied().filter(|x| b.contains(x)).collect();
        assert_eq!(intersect_sorted(&a, &b), expect);
    }

    #[test]
    fn generation_tracks_membership_changes() {
        let mut idx = LabelIndex::new();
        let g0 = idx.generation();
        let id = idx.get_or_create(&labels! {"x" => "1"});
        let g1 = idx.generation();
        assert_ne!(g0, g1, "creation must bump the generation");
        // Re-resolving an existing series is not a membership change.
        idx.get_or_create(&labels! {"x" => "1"});
        assert_eq!(idx.generation(), g1);
        idx.remove(id);
        assert_ne!(idx.generation(), g1, "removal must bump the generation");
        let g2 = idx.generation();
        // Removing a dead id is a no-op.
        idx.remove(id);
        assert_eq!(idx.generation(), g2);
    }

    #[test]
    fn absent_label_matches_empty_pattern() {
        let mut idx = LabelIndex::new();
        idx.get_or_create(&labels! {"__name__" => "m"});
        // instance="" matches series without the label.
        let ids = idx.select(&[LabelMatcher::eq("instance", "")]);
        assert_eq!(ids.len(), 1);
    }
}
