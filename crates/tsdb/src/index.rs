//! Inverted label index.
//!
//! Maps label `name → value → posting list` (sorted series ids). Selectors
//! with exact matchers intersect posting lists; regex/negative matchers
//! scan the value space of the label, which is how Prometheus' index works
//! and why high label cardinality (§II.C of the paper) hurts. The index
//! owns the label strings: one table numbers each name and value once, and
//! postings, series and checkpoints ([`LabelIndex::checkpoint`]) hold the
//! numbers.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use ceems_metrics::labels::{LabelSet, METRIC_NAME_LABEL};
use ceems_metrics::matcher::{LabelMatcher, MatchOp};

use crate::head::{IdHasher, SeriesStore};
use crate::types::SeriesId;
use crate::wal::{Checkpoint, CheckpointView};

/// Every label name and value of the live series once, numbered in the
/// order first registered. An entry counts the label pairs that use it;
/// the last to go frees its number for the next new string.
#[derive(Debug, Default)]
struct SymbolTable {
    numbers: HashMap<Arc<str>, u32>,
    /// Each number's string and uses; a free number's are empty and 0.
    entries: Vec<(Arc<str>, u32)>,
    free: Vec<u32>,
}

impl SymbolTable {
    fn number(&self, s: &str) -> Option<u32> {
        self.numbers.get(s).copied()
    }

    fn text(&self, n: u32) -> &Arc<str> {
        &self.entries[n as usize].0
    }

    /// One more use of `s`, numbered if it is new.
    fn acquire(&mut self, s: &str) -> u32 {
        if let Some(n) = self.number(s) {
            self.entries[n as usize].1 += 1;
            return n;
        }
        let text: Arc<str> = Arc::from(s);
        let n = self.free.pop().unwrap_or_else(|| {
            self.entries.push(Default::default());
            u32::try_from(self.entries.len() - 1).expect("2^32 label strings")
        });
        self.entries[n as usize] = (Arc::clone(&text), 1);
        self.numbers.insert(text, n);
        n
    }

    /// One use of `n` fewer.
    fn release(&mut self, n: u32) {
        let (text, uses) = &mut self.entries[n as usize];
        *uses -= 1;
        if *uses == 0 {
            self.numbers.remove(&**text);
            *text = Arc::default();
            self.free.push(n);
        }
    }
}

/// A registered series: its labels, made of the table's strings, and its
/// pairs' name and value numbers in the same order.
#[derive(Debug)]
struct Series {
    labels: Arc<LabelSet>,
    pairs: Box<[u32]>,
}

/// How the index fingerprints a label set it is handed without one (a
/// replayed series, a removed one): [`LabelSet::fingerprint`], what the
/// append path hands [`LabelIndex::lookup`] and [`LabelIndex::create`].
#[derive(Clone, Copy, Debug)]
struct Fingerprint(fn(&LabelSet) -> u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(LabelSet::fingerprint)
    }
}

/// The index plus the series registry.
#[derive(Debug, Default)]
pub struct LabelIndex {
    symbols: SymbolTable,
    /// Name number → value number → posting list.
    postings: HashMap<u32, HashMap<u32, Vec<SeriesId>>>,
    /// Ids are minted here or read from the leader's log, so the registry
    /// hashes them as the head's stripes do.
    series: HashMap<SeriesId, Series, BuildHasherDefault<IdHasher>>,
    /// Fingerprint → the series filed under it first, of those live.
    by_fingerprint: HashMap<u64, SeriesId>,
    /// Fingerprint → the other live series filed under it, oldest first:
    /// label sets whose fingerprints collide, empty but for those.
    collided: HashMap<u64, Vec<SeriesId>>,
    fingerprint: Fingerprint,
    next_id: SeriesId,
    /// Bumped on every series creation or removal. The labels cache tags
    /// its results with the generation they were computed at and discards
    /// them when it moves, so it never serves names across a membership
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

    /// The series id of exactly these labels; `fp` is their fingerprint,
    /// so the append path hashes a label set once across lookup and create.
    pub fn lookup(&self, labels: &LabelSet, fp: u64) -> Option<SeriesId> {
        let is = |id: &SeriesId| *self.series[id].labels == *labels;
        let first = *self.by_fingerprint.get(&fp)?;
        if is(&first) {
            return Some(first);
        }
        self.collided.get(&fp)?.iter().copied().find(is)
    }

    /// Registers labels [`Self::lookup`] did not find under the next id.
    pub fn create(&mut self, labels: &LabelSet, fp: u64) -> SeriesId {
        let id = self.next_id;
        self.register(id, labels, fp);
        id
    }

    /// Registers a series under a fixed id during WAL or checkpoint replay,
    /// so recovered ids match what logged `Samples` records reference.
    /// No-op when the id already exists. Unlike [`Self::create`], ids may
    /// arrive in any order (a follower bootstraps from a checkpoint sorted
    /// by id, then replays creates in log order).
    pub fn insert_replayed(&mut self, id: SeriesId, labels: &LabelSet) {
        if !self.series.contains_key(&id) {
            self.register(id, labels, (self.fingerprint.0)(labels));
        }
    }

    /// Enters a series the registry does not hold yet, numbering its
    /// strings; its label set is made of the table's.
    fn register(&mut self, id: SeriesId, labels: &LabelSet, fp: u64) {
        let pairs: Box<[u32]> = labels
            .iter()
            .flat_map(|(k, v)| [k, v])
            .map(|s| self.symbols.acquire(s))
            .collect();
        let text = |n: u32| Arc::clone(self.symbols.text(n));
        let shared = pairs.chunks_exact(2).map(|p| (text(p[0]), text(p[1])));
        let labels = Arc::new(LabelSet::from_shared(shared.collect()));
        self.enter(id, labels, pairs, fp);
    }

    /// Enters a series whose strings the table already counts.
    fn enter(&mut self, id: SeriesId, labels: Arc<LabelSet>, pairs: Box<[u32]>, fp: u64) {
        self.generation += 1;
        self.backfills += u64::from(id < self.next_id);
        self.next_id = self.next_id.max(id + 1);
        if let Some(&first) = self.by_fingerprint.get(&fp) {
            debug_assert_ne!(first, id, "a registered id");
            self.collided.entry(fp).or_default().push(id);
        } else {
            self.by_fingerprint.insert(fp, id);
        }
        for pair in pairs.chunks_exact(2) {
            let values = self.postings.entry(pair[0]).or_default();
            let list = values.entry(pair[1]).or_default();
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
        self.series.insert(id, Series { labels, pairs });
    }

    /// Takes a checkpoint's series into this empty index, and its clocks
    /// (recovered caches invalidate against the pre-crash generation;
    /// tombstoned series may have held ids above every live one). A `CKPT3`
    /// file's table is taken as it stands, a number no pair uses free, and
    /// each series by its pairs' numbers: no string is looked up but to
    /// index the table. An older file's strings are numbered as they come.
    pub(crate) fn restore(&mut self, view: &CheckpointView<'_>) {
        assert!(self.series.is_empty(), "restored into an empty index");
        let ckpt = &view.header;
        let table = &mut self.symbols;
        table.entries = ckpt.symbols.iter().map(|s| (Arc::clone(s), 0)).collect();
        // The parse held each number to the table, and each used string to
        // one number.
        for &n in &ckpt.pairs {
            table.entries[n as usize].1 += 1;
        }
        for (n, (text, uses)) in table.entries.iter_mut().enumerate() {
            if *uses == 0 {
                *text = Arc::default();
                table.free.push(n as u32);
            } else {
                table.numbers.insert(Arc::clone(text), n as u32);
            }
        }
        let mut pairs = ckpt.pairs.iter().copied();
        for (id, labels) in &view.series {
            if ckpt.symbols.is_empty() {
                self.insert_replayed(*id, labels);
            } else {
                let pairs = pairs.by_ref().take(2 * labels.len()).collect();
                let fp = (self.fingerprint.0)(labels);
                self.enter(*id, Arc::clone(labels), pairs, fp);
            }
        }
        self.next_id = self.next_id.max(ckpt.next_id);
        self.generation = ckpt.generation;
    }

    /// The id the next created series would get.
    pub fn next_id(&self) -> SeriesId {
        self.next_id
    }

    /// Series registered with an id below the `next_id` of the moment.
    pub fn backfills(&self) -> u64 {
        self.backfills
    }

    /// The values of label `name`, each with its posting list.
    fn values_of(&self, name: &str) -> Option<&HashMap<u32, Vec<SeriesId>>> {
        self.postings.get(&self.symbols.number(name)?)
    }

    /// The posting list of `name="value"`; empty when no series has it.
    fn posting(&self, name: &str, value: &str) -> &[SeriesId] {
        let value = self.symbols.number(value);
        let list = value.and_then(|v| self.values_of(name)?.get(&v));
        list.map_or(&[], Vec::as_slice)
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
        let list = self.posting(METRIC_NAME_LABEL, name);
        list[list.partition_point(|&id| id < from)..]
            .iter()
            .copied()
            .filter(|id| {
                let labels = &self.series[id].labels;
                matchers.iter().all(|m| m.matches(labels))
            })
            .collect()
    }

    /// What a checkpoint needs of the index at the moment it is taken: a
    /// header with its clocks, its table as it stands (the entries shared, a
    /// free number's string empty) and every live series' pairs' numbers in
    /// id order; and those series' ids with their label counts. No label
    /// set is copied.
    pub(crate) fn cut(&self) -> (Checkpoint, Vec<(SeriesId, u32)>) {
        let mut live: Vec<(SeriesId, &Series)> =
            self.series.iter().map(|(&id, s)| (id, s)).collect();
        live.sort_unstable_by_key(|(id, _)| *id);
        let mut pairs = Vec::with_capacity(live.iter().map(|(_, s)| s.pairs.len()).sum());
        pairs.extend(live.iter().flat_map(|(_, s)| s.pairs.iter().copied()));
        let counts = live.iter().map(|&(id, s)| (id, (s.pairs.len() / 2) as u32));
        let header = Checkpoint {
            generation: self.generation,
            next_id: self.next_id,
            symbols: self.symbols.entries.iter().map(|(s, _)| Arc::clone(s)).collect(),
            pairs,
            ..Checkpoint::default()
        };
        (header, counts.collect())
    }

    /// A checkpoint of the index with no samples: `Self::cut` with each
    /// series' labels, the rest of the header zero.
    pub fn checkpoint(&self) -> Checkpoint {
        let (header, live) = self.cut();
        let series = live.into_iter().map(|(id, _)| {
            let labels = Arc::clone(&self.series[&id].labels);
            (id, labels, SeriesStore::default())
        });
        Checkpoint {
            series: series.collect(),
            ..header
        }
    }

    /// Every live series as `(id, labels)`, sorted by id.
    #[cfg(test)]
    pub(crate) fn all_series(&self) -> Vec<(SeriesId, Arc<LabelSet>)> {
        let series = self.checkpoint().series.into_iter();
        series.map(|(id, labels, _)| (id, labels)).collect()
    }

    /// Removes a series entirely (tombstone purge).
    pub fn remove(&mut self, id: SeriesId) {
        let Some(series) = self.series.remove(&id) else {
            return;
        };
        self.generation += 1;
        let fp = (self.fingerprint.0)(&series.labels);
        match self.collided.get_mut(&fp) {
            None => {
                self.by_fingerprint.remove(&fp);
            }
            Some(others) => {
                match others.iter().position(|&x| x == id) {
                    Some(i) => {
                        others.remove(i);
                    }
                    // The oldest of the others moves up when the first goes.
                    None => {
                        self.by_fingerprint.insert(fp, others.remove(0));
                    }
                }
                if others.is_empty() {
                    self.collided.remove(&fp);
                }
            }
        }
        for pair in series.pairs.chunks_exact(2) {
            let values = self.postings.get_mut(&pair[0]).expect("a posted name");
            let list = values.get_mut(&pair[1]).expect("a posted value");
            list.retain(|&x| x != id);
            if list.is_empty() {
                values.remove(&pair[1]);
                if values.is_empty() {
                    self.postings.remove(&pair[0]);
                }
            }
            self.symbols.release(pair[0]);
            self.symbols.release(pair[1]);
        }
    }

    /// Labels of a series, shared with the registry (cheap to clone).
    pub fn labels(&self, id: SeriesId) -> Option<&Arc<LabelSet>> {
        self.series.get(&id).map(|s| &s.labels)
    }

    /// The strings of these numbers, sorted.
    fn sorted_texts<'a>(&self, numbers: impl Iterator<Item = &'a u32>) -> Vec<String> {
        let mut out: Vec<String> = numbers.map(|&n| self.symbols.text(n).to_string()).collect();
        out.sort_unstable();
        out
    }

    /// All label names present, sorted.
    pub fn label_names(&self) -> Vec<String> {
        self.sorted_texts(self.postings.keys())
    }

    /// All values of a label name, sorted.
    pub fn label_values(&self, name: &str) -> Vec<String> {
        self.values_of(name)
            .map_or_else(Vec::new, |values| self.sorted_texts(values.keys()))
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
            match m.op {
                MatchOp::Eq if m.is_exact() => {
                    lists.push(Cow::Borrowed(self.posting(&m.name, &m.value)))
                }
                MatchOp::Re if !m.matches_value("") => {
                    let mut union: Vec<SeriesId> = self
                        .values_of(&m.name)
                        .into_iter()
                        .flatten()
                        .filter(|(&v, _)| m.matches_value(self.symbols.text(v)))
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
                let labels = &self.series[id].labels;
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
    use crate::wal::encode_checkpoint;
    use ceems_metrics::labels;

    impl LabelIndex {
        fn get_or_create(&mut self, labels: &LabelSet) -> SeriesId {
            let fp = labels.fingerprint();
            self.lookup(labels, fp)
                .unwrap_or_else(|| self.create(labels, fp))
        }
    }

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
                    .filter(|(_, s)| matchers.iter().all(|m| m.matches(&s.labels)))
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

    type Answers = (
        Vec<Option<SeriesId>>,
        Vec<Vec<SeriesId>>,
        Vec<String>,
        Vec<Vec<String>>,
    );

    /// What an index answers: each label set's id, each matcher's
    /// selection, its label names and each name's values.
    fn answers(idx: &LabelIndex, sets: &[LabelSet], matchers: &[LabelMatcher]) -> Answers {
        let names = idx.label_names();
        let values = names.iter().map(|n| idx.label_values(n)).collect();
        (
            sets.iter()
                .map(|ls| idx.lookup(ls, ls.fingerprint()))
                .collect(),
            matchers
                .iter()
                .map(|m| idx.select(std::slice::from_ref(m)))
                .collect(),
            names,
            values,
        )
    }

    /// Replayed ids arrive in any order and may repeat; the index answers
    /// as one built in id order does (its strings may be numbered in
    /// another order).
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
            replayed.insert_replayed(i as SeriesId, &sets[i]);
        }
        let m = |name: &str, op, value: &str| LabelMatcher::new(name, op, value).unwrap();
        let matchers = [
            m("__name__", MatchOp::Eq, "m"),
            m("instance", MatchOp::Eq, "n2"),
            m("instance", MatchOp::Re, "n[13]"),
            m("i", MatchOp::Re, "1.*"),
            m("i", MatchOp::Nre, "2.*"),
        ];
        let got = answers(&replayed, &sets, &matchers);
        assert_eq!(got, answers(&created, &sets, &matchers));
        assert!(got.1.iter().all(|ids| ids.windows(2).all(|w| w[0] < w[1])));
        assert_eq!(replayed.next_id(), created.next_id());
        assert_eq!(replayed.generation(), created.generation());
        assert_eq!(replayed.series_count(), 30);
    }

    /// Three label sets filed under one fingerprint, the only way into the
    /// side map: each is found; with the first, the middle or the last
    /// removed the other two are, and the removed one comes back under a
    /// new id; replayed in another order they are found the same.
    #[test]
    fn label_sets_whose_fingerprints_collide() {
        const FP: u64 = 7;
        let colliding = || LabelIndex {
            fingerprint: Fingerprint(|_| FP),
            ..LabelIndex::default()
        };
        let sets: Vec<LabelSet> = (0..3)
            .map(|i| labels! {"__name__" => "m", "i" => format!("{i}")})
            .collect();
        let found = |idx: &LabelIndex| -> Vec<Option<SeriesId>> {
            sets.iter().map(|ls| idx.lookup(ls, FP)).collect()
        };
        for gone in 0..3 {
            let mut idx = colliding();
            let mut want: Vec<Option<SeriesId>> =
                sets.iter().map(|ls| Some(idx.create(ls, FP))).collect();
            let ids = want.clone();
            assert_eq!(found(&idx), want);
            idx.remove(ids[gone].unwrap());
            want[gone] = None;
            assert_eq!(found(&idx), want, "{gone} removed");
            let again = idx.create(&sets[gone], FP);
            assert!(!ids.contains(&Some(again)));
            want[gone] = Some(again);
            assert_eq!(found(&idx), want, "{gone} created again");

            let mut replayed = colliding();
            for (ls, id) in sets.iter().zip(&want).rev() {
                replayed.insert_replayed(id.unwrap(), ls);
            }
            assert_eq!(found(&replayed), want, "{gone} replayed");
            assert_eq!(replayed.series_count(), 3);

            // The last of them to go takes the fingerprint with it.
            for id in want {
                idx.remove(id.unwrap());
            }
            assert_eq!(found(&idx), [None; 3]);
            assert!(idx.by_fingerprint.is_empty() && idx.collided.is_empty());
        }
    }

    /// The table as it stands: each live string under one number, counted
    /// once per pair place it fills, a free number empty and unused; every
    /// series' numbers read back its labels, from the table's own copies.
    fn check_table(idx: &LabelIndex) {
        let table = &idx.symbols;
        let mut uses: HashMap<&str, u32> = HashMap::new();
        for s in idx.series.values() {
            assert_eq!(s.pairs.len(), 2 * s.labels.len());
            for (p, (k, v)) in s.pairs.chunks_exact(2).zip(s.labels.iter()) {
                assert!(
                    std::ptr::eq(k, &**table.text(p[0])),
                    "{k} is not number {}",
                    p[0]
                );
                assert!(
                    std::ptr::eq(v, &**table.text(p[1])),
                    "{v} is not number {}",
                    p[1]
                );
            }
            for &n in s.pairs.iter() {
                *uses.entry(table.text(n)).or_default() += 1;
            }
        }
        let used: Vec<(&str, u32)> = table
            .entries
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(s, n)| (&**s, *n))
            .collect();
        let mut want: Vec<(&str, u32)> = uses.into_iter().collect();
        let mut got = used.clone();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "each live string once, counted by its uses");
        assert_eq!(table.numbers.len(), used.len());
        for (n, (s, uses)) in table.entries.iter().enumerate() {
            let free = table.free.contains(&(n as u32));
            assert_eq!(free, *uses == 0, "number {n}");
            assert!(!free || s.is_empty(), "a free number holds no string");
            assert!(free || table.numbers[s] == n as u32);
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

    proptest::proptest! {
        /// Under any sequence of registrations, removals and registrations
        /// again, the table holds each live string once, counted by its
        /// uses, and every series' numbers read back its labels; `select`
        /// answers what a full scan does; and the index a checkpoint of it
        /// opens to answers the same, before and after more registrations.
        #[test]
        fn the_table_under_churn(
            pool in proptest::collection::vec(
                proptest::collection::btree_map(0u8..4, 0u8..5, 0..4),
                1..12,
            ),
            ops in proptest::collection::vec((0u8..5, 0usize..64), 0..60),
        ) {
            // A value may be a name's string, or empty.
            let sets: Vec<LabelSet> = pool
                .iter()
                .map(|set| {
                    LabelSet::from_pairs(set.iter().map(|(&k, &v)| {
                        (format!("k{k}"), ["v0", "v1", "k0", "k1", ""][usize::from(v)])
                    }))
                })
                .collect();
            let mut idx = LabelIndex::new();
            // Three registrations to two removals.
            for &(op, n) in &ops {
                if op < 3 {
                    idx.get_or_create(&sets[n % sets.len()]);
                } else {
                    let live = idx.select(&[]);
                    if !live.is_empty() {
                        idx.remove(live[n % live.len()]);
                    }
                }
                check_table(&idx);
            }

            let m = |name: &str, op, value: &str| LabelMatcher::new(name, op, value).unwrap();
            let matchers = [
                m("k0", MatchOp::Eq, "v0"),
                m("k1", MatchOp::Eq, "k1"),
                m("k2", MatchOp::Eq, ""),
                m("k3", MatchOp::Ne, "v1"),
                m("k0", MatchOp::Re, "k.*"),
                m("k1", MatchOp::Re, "v0|"),
                m("k2", MatchOp::Nre, "v.+"),
                m("k9", MatchOp::Re, ".+"),
            ];
            for a in &matchers {
                for b in &matchers {
                    let pair = [a.clone(), b.clone()];
                    let mut scan: Vec<SeriesId> = idx
                        .series
                        .iter()
                        .filter(|(_, s)| pair.iter().all(|m| m.matches(&s.labels)))
                        .map(|(id, _)| *id)
                        .collect();
                    scan.sort_unstable();
                    proptest::prop_assert_eq!(idx.select(&pair), scan, "{:?}", pair);
                }
            }

            let bytes = encode_checkpoint(&idx.checkpoint());
            let mut opened = LabelIndex::new();
            opened.restore(&CheckpointView::parse(&bytes).unwrap());
            check_table(&opened);
            proptest::prop_assert_eq!(answers(&opened, &sets, &matchers), answers(&idx, &sets, &matchers));
            for ls in &sets {
                idx.get_or_create(ls);
                opened.get_or_create(ls);
            }
            check_table(&opened);
            proptest::prop_assert_eq!(answers(&opened, &sets, &matchers), answers(&idx, &sets, &matchers));
        }
    }
}
