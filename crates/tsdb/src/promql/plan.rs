//! Prepared plans: what one evaluation of an expression keeps for the next.
//!
//! A standing query — a recording or alerting rule, an aggregate the API
//! server polls — evaluates the same expression again and again, over
//! series nearly all of which it read the time before. A [`PreparedQuery`]
//! carries that work over. Per selector window it holds the resolved series
//! and, for a range window, the samples inside it with a decode cursor after
//! the newest ([`PreparedRead`]); the source brings it up to date, reading
//! only what arrived since. Every label set the evaluation met has a number
//! in the plan's table (`Labels`): operators carry numbers, and a signature,
//! a group or a match once derived is an array read, so an evaluation whose
//! inputs gained no series derives and hashes no label set at all. The table
//! also remembers the series each recording-rule output was recorded as.
//!
//! A one-shot query runs the same evaluator with a fresh plan, so values
//! and their order are the same whichever way a query is run.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

use ceems_metrics::labels::{LabelSet, METRIC_NAME_LABEL};
use ceems_metrics::matcher::LabelMatcher;

use crate::head::TailCursor;
use crate::scrape::SeriesCache;
use crate::storage::RefToken;
use crate::types::{Sample, SeriesData, SeriesId};

use super::eval::{signature, Queryable};
use super::Grouping;

/// How a plan's reads were brought up to date, cheapest first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Refresh {
    /// Every read kept its series and read on from its cursors.
    #[default]
    Reused,
    /// Some read also took in series created since its last refresh.
    Extended,
    /// Some read was resolved again; what it had read of a series still
    /// there is kept unless the window moved back.
    Rebuilt,
}

/// What a [`crate::storage::Tsdb`] knew when it resolved a read: the read
/// can be carried over while the token holds (no series removed, same
/// database) and nothing was registered below `next_id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Basis {
    pub(crate) token: RefToken,
    pub(crate) next_id: SeriesId,
    pub(crate) backfills: u64,
}

/// One series of a [`PreparedRead`].
pub(crate) struct Followed {
    pub(crate) id: SeriesId,
    pub(crate) labels: Arc<LabelSet>,
    /// Its id in the plan's [`Labels`], while that id still holds these
    /// labels ([`Labels::id_of`]).
    label: Cell<LabelId>,
    /// A read of last samples: the last one in the window.
    pub(crate) last: Option<Sample>,
}

impl Followed {
    pub(crate) fn new(id: SeriesId, labels: Arc<LabelSet>) -> Followed {
        Followed {
            id,
            labels,
            label: Cell::new(NONE),
            last: None,
        }
    }
}

/// What a range read holds of one series. Apart from [`Followed`], so a
/// read of last samples carries none of it.
#[derive(Default)]
pub(crate) struct Window {
    /// `samples[start..]` is the window, oldest first.
    pub(crate) samples: Vec<Sample>,
    pub(crate) start: usize,
    /// A read from a [`crate::storage::Tsdb`]: after every sample up to the
    /// window's end.
    pub(crate) cursor: Option<TailCursor>,
}

impl Window {
    fn window(&self) -> &[Sample] {
        &self.samples[self.start..]
    }

    /// Forgets the samples before `tmin`; the buffer is compacted once most
    /// of it is forgotten.
    pub(crate) fn trim(&mut self, tmin: i64) {
        self.start += self.window().partition_point(|s| s.t_ms < tmin);
        if self.start * 2 > self.samples.len() {
            self.samples.drain(..self.start);
            self.start = 0;
        }
    }
}

/// One selector window of a query plan: the series its matchers resolved to
/// and what was read of each, as [`Queryable::select_prepared`] left it.
pub struct PreparedRead {
    pub(crate) matchers: Arc<[LabelMatcher]>,
    /// Read as last samples (an instant selector on a one-point grid).
    pub(crate) latest: bool,
    pub(crate) tmin: i64,
    pub(crate) tmax: i64,
    pub(crate) series: Vec<Followed>,
    /// A range read: what it holds of `series[i]`, by index.
    pub(crate) held: Vec<Window>,
    /// Set by a source that can carry the read over to a later window.
    pub(crate) basis: Option<Basis>,
}

impl PreparedRead {
    pub(super) fn new(matchers: &Arc<[LabelMatcher]>, latest: bool) -> PreparedRead {
        PreparedRead {
            matchers: matchers.clone(),
            latest,
            tmin: i64::MIN,
            tmax: i64::MIN,
            series: Vec::new(),
            held: Vec::new(),
            basis: None,
        }
    }

    /// Whether it reads `matchers` the way asked.
    pub(super) fn is_for(&self, matchers: &[LabelMatcher], latest: bool) -> bool {
        self.latest == latest && *self.matchers == *matchers
    }

    /// Whether it answers `[tmin, tmax]` of `matchers`: a range read any
    /// window inside its own, a read of last samples only its own.
    pub(super) fn answers(
        &self,
        matchers: &[LabelMatcher],
        latest: bool,
        tmin: i64,
        tmax: i64,
    ) -> bool {
        *self.matchers == *matchers
            && match self.latest {
                true => latest && (self.tmin, self.tmax) == (tmin, tmax),
                false => !latest && self.tmin <= tmin && tmax <= self.tmax,
            }
    }

    /// The value of its exact `__name__` matcher, if it has one.
    pub(crate) fn metric_name(&self) -> Option<&str> {
        self.matchers
            .iter()
            .find(|m| m.name == METRIC_NAME_LABEL && m.is_exact())
            .map(|m| m.value.as_str())
    }

    /// Follows the series `resolved` (ascending ids) from now on. One it
    /// followed before keeps its label id and, with `windows`, what was
    /// read of it: the same id with the very same `Arc` (which the old
    /// entry kept alive) is the same series of the same database, never
    /// removed in between.
    pub(crate) fn follow(&mut self, resolved: Vec<(SeriesId, Arc<LabelSet>)>, windows: bool) {
        let (old, mut held) = (
            std::mem::take(&mut self.series),
            std::mem::take(&mut self.held),
        );
        let mut at = 0;
        for (id, labels) in resolved {
            while old.get(at).is_some_and(|f| f.id < id) {
                at += 1;
            }
            let same = old
                .get(at)
                .filter(|f| f.id == id && Arc::ptr_eq(&f.labels, &labels));
            let f = Followed::new(id, labels);
            if let Some(same) = same {
                f.label.set(same.label.get());
            }
            if windows {
                let window = same.and_then(|_| held.get_mut(at)).map(std::mem::take);
                self.held.push(window.unwrap_or_default());
            }
            self.series.push(f);
        }
    }

    /// Reads the window again from scratch with `db`'s `select` or
    /// `select_instant`: the default [`Queryable::select_prepared`].
    pub(crate) fn fill<Q: Queryable + ?Sized>(&mut self, db: &Q, tmin: i64, tmax: i64) -> Refresh {
        self.series.clear();
        self.held.clear();
        if self.latest {
            let rows = db.select_instant(&self.matchers, tmin, tmax);
            self.series
                .extend(rows.into_iter().map(|(labels, s)| Followed {
                    last: Some(s),
                    ..Followed::new(0, labels)
                }));
        } else {
            for s in db.select(&self.matchers, tmin, tmax) {
                self.series.push(Followed::new(0, s.labels));
                self.held.push(Window {
                    samples: s.samples,
                    ..Window::default()
                });
            }
        }
        (self.tmin, self.tmax, self.basis) = (tmin, tmax, None);
        Refresh::Rebuilt
    }

    /// A range read's series with a sample in the window, in select order.
    pub(super) fn windows(&self) -> impl Iterator<Item = (&Followed, &[Sample])> {
        self.series
            .iter()
            .zip(&self.held)
            .map(|(f, w)| (f, w.window()))
            .filter(|(_, w)| !w.is_empty())
    }

    /// A read of last samples: each series' last sample in the window, in
    /// select order.
    pub(super) fn lasts(&self) -> impl Iterator<Item = (&Followed, Sample)> {
        self.series.iter().filter_map(|f| Some((f, f.last?)))
    }

    /// The range read as a matrix.
    pub(super) fn matrix(&self) -> Vec<SeriesData> {
        self.windows()
            .map(|(f, w)| SeriesData::new(f.labels.clone(), w.to_vec()))
            .collect()
    }
}

/// A label set's number in a plan's [`Labels`].
pub(crate) type LabelId = u32;

/// No id: a derivation not made yet, a series not recorded yet.
const NONE: u32 = u32::MAX;

/// What a [`Table`] holds for one label id.
struct Record {
    /// `None` once the id is free.
    set: Option<Arc<LabelSet>>,
    /// The operator call that last numbered it, and its number there.
    mark: (u64, u32),
    /// The series a rule last recorded it as (`NONE`: not yet).
    series: SeriesId,
    /// Numbered by content ([`Table::by_hash`]).
    key: bool,
    /// A key: the next key id with the same hash (`NONE`: the last).
    next: LabelId,
}

/// A [`Table::by_hash`] key is already a hash (of the table's own
/// `RandomState`, so no input can aim at one bucket): it is used as it is.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("by_hash keys are u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Default)]
struct Table {
    /// By id.
    ids: Vec<Record>,
    free: Vec<LabelId>,
    /// Derived keys (group keys, match signatures), by content: equal keys
    /// are one id, so operators group and match by id. A key is hashed
    /// once, with `hasher`: the hash leads to the last key id numbered with
    /// it, and `Record::next` to the others.
    by_hash: HashMap<u64, LabelId, BuildHasherDefault<Prehashed>>,
    hasher: RandomState,
    /// Per grouping, and whether the results are keys: the id of each id's
    /// [`signature`] (`NONE` until derived).
    derived: Vec<((Grouping, bool), Vec<LabelId>)>,
    /// Live ids after the last collection.
    kept: usize,
    /// Operator calls that numbered ids.
    calls: u64,
}

impl Table {
    fn insert(&mut self, labels: Arc<LabelSet>) -> LabelId {
        match self.free.pop() {
            Some(id) => {
                self.ids[id as usize].set = Some(labels);
                id
            }
            None => {
                self.ids.push(Record {
                    set: Some(labels),
                    mark: (0, 0),
                    series: NONE as SeriesId,
                    key: false,
                    next: NONE,
                });
                (self.ids.len() - 1) as LabelId
            }
        }
    }

    fn labels(&self, id: LabelId) -> &Arc<LabelSet> {
        self.ids[id as usize].set.as_ref().expect("a live label id")
    }

    /// Whether `id` numbers exactly this `Arc` (not just equal labels).
    fn holds(&self, id: LabelId, labels: &Arc<LabelSet>) -> bool {
        let set = self.ids.get(id as usize).and_then(|e| e.set.as_ref());
        set.is_some_and(|set| Arc::ptr_eq(set, labels))
    }

    /// The key id numbering `labels`, if there is one.
    fn key(&self, labels: &LabelSet, hash: u64) -> Option<LabelId> {
        let mut at = self.by_hash.get(&hash).copied().unwrap_or(NONE);
        while at != NONE {
            if **self.labels(at) == *labels {
                return Some(at);
            }
            at = self.ids[at as usize].next;
        }
        None
    }

    /// The key id numbering `labels`, numbered now if there is none.
    fn intern_content(&mut self, labels: LabelSet) -> LabelId {
        let hash = self.hasher.hash_one(&labels);
        if let Some(id) = self.key(&labels, hash) {
            return id;
        }
        let id = self.insert(Arc::new(labels));
        self.enter_key(id, hash);
        id
    }

    fn enter_key(&mut self, id: LabelId, hash: u64) {
        let next = self.by_hash.insert(hash, id).unwrap_or(NONE);
        let record = &mut self.ids[id as usize];
        (record.key, record.next) = (true, next);
    }
}

/// The label sets a plan's evaluations met, numbered densely. Operators
/// carry numbers: deriving a signature is an array read once it was made,
/// grouping is a mark by number, and no `Arc` is touched. A series a read
/// follows keeps its number on its `Followed` entry; derived keys are
/// numbered by content. Nothing is keyed by address. A number stays valid
/// until the plan's next evaluation begins, which frees the numbers its
/// reads no longer lead to once they are most of the table.
#[derive(Default)]
pub(crate) struct Labels(RefCell<Table>);

impl Labels {
    /// The id of a followed series' labels: numbered on first use and
    /// remembered on the entry for as long as the id holds its `Arc`.
    pub(super) fn id_of(&self, f: &Followed) -> LabelId {
        let t = &mut *self.0.borrow_mut();
        let id = f.label.get();
        if t.holds(id, &f.labels) {
            return id;
        }
        let id = t.insert(f.labels.clone());
        f.label.set(id);
        id
    }

    /// Makes room in an empty table (a one-shot query, a plan's first
    /// evaluation) for `series` input series and what operators derive from
    /// them, about two ids each: the table grows once, not step by step.
    pub(super) fn reserve(&self, series: usize) {
        let t = &mut *self.0.borrow_mut();
        if t.ids.is_empty() {
            t.ids.reserve(3 * series);
        }
    }

    /// The empty label set's id.
    pub(crate) fn empty(&self) -> LabelId {
        self.0.borrow_mut().intern_content(LabelSet::empty())
    }

    /// The slot of `grouping`'s derivations, made on first use. Keys are
    /// numbered by content (equal keys, one id); other results, an output
    /// series' labels, get an id of their own.
    pub(super) fn slot(&self, grouping: &Grouping, keys: bool) -> usize {
        let t = &mut *self.0.borrow_mut();
        let found = t
            .derived
            .iter()
            .position(|((g, k), _)| g == grouping && *k == keys);
        if let Some(at) = found {
            return at;
        }
        t.derived.push(((grouping.clone(), keys), Vec::new()));
        t.derived.len() - 1
    }

    /// `signature(id, grouping)` of `slot`'s grouping.
    pub(super) fn derive(&self, slot: usize, id: LabelId) -> LabelId {
        let t = &mut *self.0.borrow_mut();
        let known = t.derived[slot].1.get(id as usize).copied().unwrap_or(NONE);
        if known != NONE {
            return known;
        }
        let ((grouping, keys), _) = &t.derived[slot];
        let (derived, keys) = (signature(t.labels(id), grouping), *keys);
        let out = match keys {
            true => t.intern_content(derived),
            false => t.insert(Arc::new(derived)),
        };
        let table = &mut t.derived[slot].1;
        if table.len() <= id as usize {
            table.resize(id as usize + 1, NONE);
        }
        table[id as usize] = out;
        out
    }

    /// The label set of `id`.
    pub(crate) fn get(&self, id: LabelId) -> Arc<LabelSet> {
        self.0.borrow().labels(id).clone()
    }

    /// Starts an operator call that numbers label ids ([`Self::number`]).
    pub(super) fn call(&self) -> u64 {
        let t = &mut *self.0.borrow_mut();
        t.calls += 1;
        t.calls
    }

    /// `id`'s number in `call`: the one it got there, else `*next`, which
    /// then moves on.
    pub(super) fn number(&self, call: u64, id: LabelId, next: &mut u32) -> u32 {
        let mark = &mut self.0.borrow_mut().ids[id as usize].mark;
        if mark.0 != call {
            *mark = (call, *next);
            *next += 1;
        }
        mark.1
    }

    /// `id`'s number in `call`, if it got one there.
    pub(super) fn numbered(&self, call: u64, id: LabelId) -> Option<u32> {
        let mark = self.0.borrow().ids[id as usize].mark;
        (mark.0 == call).then_some(mark.1)
    }

    /// The series a rule recorded `id` as.
    pub(crate) fn series(&self, id: LabelId) -> Option<SeriesId> {
        let series = self.0.borrow().ids[id as usize].series;
        (series != NONE as SeriesId).then_some(series)
    }

    pub(crate) fn set_series(&self, id: LabelId, series: SeriesId) {
        self.0.borrow_mut().ids[id as usize].series = series;
    }

    /// Live ids and free ones.
    #[cfg(test)]
    pub(crate) fn live(&self) -> (usize, usize) {
        let t = self.0.borrow();
        (t.ids.len() - t.free.len(), t.free.len())
    }

    /// Forgets every recorded series (the database removed series).
    pub(crate) fn forget_series(&mut self) {
        for e in &mut self.0.get_mut().ids {
            e.series = NONE as SeriesId;
        }
    }

    /// Frees the ids neither `roots` nor anything derived from them leads
    /// to (series that stopped, finished jobs).
    fn collect(&mut self, roots: Vec<LabelId>) {
        let t = self.0.get_mut();
        let mut live = vec![false; t.ids.len()];
        for id in roots {
            live[id as usize] = true;
        }
        // Derivations chain (a signature of a signature): to a fixed point.
        let mut grew = true;
        while grew {
            grew = false;
            for (_, table) in &t.derived {
                for (from, &to) in table.iter().enumerate() {
                    if live[from] && to != NONE && !live[to as usize] {
                        live[to as usize] = true;
                        grew = true;
                    }
                }
            }
        }
        for (id, r) in t.ids.iter_mut().enumerate() {
            if r.set.is_some() && !live[id] {
                (r.set, r.series, r.key) = (None, NONE as SeriesId, false);
                t.free.push(id as LabelId);
            }
        }
        // The keys left, chained again.
        t.by_hash.clear();
        for id in 0..t.ids.len() as LabelId {
            if t.ids[id as usize].key {
                let hash = t.hasher.hash_one(&**t.labels(id));
                t.enter_key(id, hash);
            }
        }
        // What a live id derives is live: only freed ids' entries go.
        for (_, table) in &mut t.derived {
            for (from, to) in table.iter_mut().enumerate() {
                if !live[from] {
                    *to = NONE;
                }
            }
        }
        t.kept = live.iter().filter(|&&l| l).count();
    }
}

/// What evaluating one expression keeps for its next evaluation: its reads
/// and its label table. A standing query — a recording or alerting rule,
/// one of the API server's per-poll aggregates — keeps one and evaluates
/// through it ([`PreparedQuery::instant`]); a one-shot query runs the same
/// evaluator with a fresh one. Keep one per expression: another
/// expression's selectors would replace the reads (the answer stays right,
/// only the carried work is lost).
#[derive(Default)]
pub struct PreparedQuery {
    pub(super) reads: Vec<PreparedRead>,
    pub(crate) labels: Labels,
    pub(super) refresh: Refresh,
}

impl PreparedQuery {
    /// How the last evaluation brought the reads up to date.
    pub(crate) fn refresh(&self) -> Refresh {
        self.refresh
    }

    /// Starts an evaluation: ids of the last one are given up, and once the
    /// table holds more than twice what the last collection kept, those no
    /// series read with data leads to any more are freed.
    pub(super) fn next_round(&mut self) {
        let t = self.labels.0.get_mut();
        if t.ids.len() - t.free.len() <= SeriesCache::KEEP_FACTOR * t.kept.max(64) {
            return;
        }
        let empty = LabelSet::empty();
        let empty = t.key(&empty, t.hasher.hash_one(&empty));
        let read = self.reads.iter().flat_map(|r| {
            let held = r.held.iter().map(|w| !w.window().is_empty());
            r.series.iter().zip(held.chain(std::iter::repeat(false)))
        });
        let roots = read.filter_map(|(f, in_window)| {
            let id = f.label.get();
            let has_data = f.last.is_some() || in_window;
            (has_data && t.holds(id, &f.labels)).then_some(id)
        });
        let roots: Vec<LabelId> = roots.chain(empty).collect();
        self.labels.collect(roots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;

    /// A collection leaves nothing that could hand out a freed id: a key
    /// derived again gets a live id holding that key, a followed series
    /// gets an id holding its labels, and only the series of outputs that
    /// stayed live are remembered.
    #[test]
    fn collected_ids_are_never_handed_out_stale() {
        let mut plan = PreparedQuery::default();
        let by_instance = Grouping::By(vec!["instance".to_string()]);
        let mut read = PreparedRead::new(&Arc::from([]), true);
        read.series = (0..300u64)
            .map(|i| {
                let labels =
                    labels! {"__name__" => "m", "instance" => format!("n{i}"), "job" => "j"};
                Followed::new(i, Arc::new(labels))
            })
            .collect();
        plan.reads.push(read);
        let check = |plan: &PreparedQuery, round: u32| {
            let slot = plan.labels.slot(&by_instance, true);
            for f in &plan.reads[0].series {
                if f.last.is_none() {
                    continue;
                }
                let id = plan.labels.id_of(f);
                assert!(Arc::ptr_eq(&plan.labels.get(id), &f.labels));
                assert_eq!(plan.labels.series(id), None, "only keys were recorded");
                let key = plan.labels.derive(slot, id);
                assert_eq!(
                    *plan.labels.get(key),
                    f.labels.restrict_to(&["instance".into()])
                );
                let series = plan.labels.series(key);
                match round {
                    0 => plan.labels.set_series(key, 1000 + f.id),
                    _ if f.id < 10 => assert_eq!(series, Some(1000 + f.id), "kept"),
                    _ => assert_eq!(series, None, "freed with its id"),
                }
            }
        };
        let data = |plan: &mut PreparedQuery, live: &dyn Fn(u64) -> bool| {
            for f in &mut plan.reads[0].series {
                f.last = live(f.id).then_some(Sample::new(0, 1.0));
            }
        };
        data(&mut plan, &|_| true);
        plan.next_round();
        check(&plan, 0);
        // Most series stop: the next round frees their ids and keys.
        data(&mut plan, &|i| i < 10);
        plan.next_round();
        assert!(plan.labels.live().1 > 500, "{:?}", plan.labels.live());
        check(&plan, 1);
        // They come back, numbered again from the free list.
        data(&mut plan, &|_| true);
        plan.next_round();
        check(&plan, 2);
    }
}
