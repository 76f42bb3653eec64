//! Recording rules.
//!
//! The paper's §III energy-estimation formula is deployed as Prometheus
//! recording rules, with different rules per scrape-target group (Intel
//! with DRAM counters, AMD without, GPU servers of both IPMI wirings).
//! [`RuleEngine`] evaluates rule groups on their intervals and writes the
//! derived series back into the TSDB under the rule's `record` name. Each
//! rule runs from a prepared plan kept from tick to tick
//! (`crate::promql::plan::Plan`): a tick reads the samples that arrived and
//! does the rule's arithmetic, and resolves, decodes or labels again only
//! what is new.

use std::sync::Arc;

use ceems_metrics::labels::{LabelSet, LabelSetBuilder, METRIC_NAME_LABEL};
use ceems_metrics::matcher::{LabelMatcher, MatchOp};
use ceems_metrics::{Collector, Counter, Histogram, HistogramVec, MetricType, Sink};
use parking_lot::Mutex;

use crate::fan_out;
use crate::promql::eval::Evaluated;
use crate::promql::plan::{LabelId, Plan};
use crate::promql::{parse_expr, EvalError, Expr, Refresh};
use crate::storage::{RefError, RefToken, SeriesRef, Tsdb};

/// One recording rule.
#[derive(Clone, Debug)]
pub struct RecordingRule {
    /// Name the derived series is recorded under (may contain `:`).
    pub record: String,
    /// The expression source (kept for display).
    pub expr_src: String,
    /// Parsed expression.
    pub expr: Expr,
    /// Extra static labels stamped on the output.
    pub static_labels: Vec<(String, String)>,
}

impl RecordingRule {
    /// Parses a rule.
    pub fn new(
        record: impl Into<String>,
        expr: &str,
        static_labels: &[(&str, &str)],
    ) -> Result<RecordingRule, String> {
        Ok(RecordingRule {
            record: record.into(),
            expr_src: expr.to_string(),
            expr: parse_expr(expr).map_err(|e| e.to_string())?,
            static_labels: static_labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }
}

/// A group of rules sharing an evaluation interval.
#[derive(Clone, Debug)]
pub struct RuleGroup {
    /// Group name (shown in metrics/logs).
    pub name: String,
    /// Evaluation interval (ms).
    pub interval_ms: i64,
    /// Rules evaluated in order, one after another: a rule whose expression
    /// reads an earlier rule's `record` name observes the value written
    /// *this* round, which is what lets the attribution chains resolve in
    /// one evaluation. The group as a whole may run beside other groups
    /// ([`RuleEngine::with_eval_threads`]).
    pub rules: Vec<RecordingRule>,
}

/// Evaluation statistics for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Rule evaluations performed.
    pub evaluations: u64,
    /// Series written.
    pub series_written: u64,
    /// Evaluations that errored.
    pub failures: u64,
}

/// One rule's prepared plan, kept from tick to tick: its expression's
/// [`Plan`] (resolved series, decode cursors, label sets by id, each output
/// label set's series), and the token the recorded series ids are valid
/// under.
#[derive(Default)]
struct RulePlan {
    plan: Plan,
    token: Option<RefToken>,
}

/// Rule evaluations by how their plan's reads were brought up to date
/// ([`Refresh`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Every read kept its series: the evaluation was value arithmetic.
    pub reused: u64,
    /// Some read took in series created since the last tick.
    pub extended: u64,
    /// Some read was resolved again (first tick, a series removal, another
    /// database).
    pub rebuilt: u64,
}

/// The counters behind [`PlanCounts`], shared with the collector that
/// exposes them.
#[derive(Clone, Default)]
struct PlanCounters([Counter; 3]);

impl PlanCounters {
    const FAMILIES: [(&'static str, &'static str); 3] = [
        (
            "ceems_tsdb_rule_plan_reused_total",
            "Rule evaluations whose plan kept every series it read.",
        ),
        (
            "ceems_tsdb_rule_plan_extended_total",
            "Rule evaluations whose plan took in series created since its last tick.",
        ),
        (
            "ceems_tsdb_rule_plan_rebuilt_total",
            "Rule evaluations whose plan was resolved again from the index.",
        ),
    ];

    fn count(&self, refresh: Refresh) {
        self.0[refresh as usize].inc();
    }
}

impl Collector for PlanCounters {
    fn collect(&self, out: &mut dyn Sink) {
        for ((name, help), counter) in Self::FAMILIES.iter().zip(&self.0) {
            out.family(name, help, MetricType::Counter);
            out.sample("", &[], counter.get());
        }
    }
}

/// Evaluates rule groups against a TSDB on simulated time.
pub struct RuleEngine {
    groups: Vec<RuleGroup>,
    /// Metric names rule `i` of group `g` reads (`reads[g][i]`); `None`
    /// when unknowable statically.
    reads: Vec<Vec<Option<Vec<String>>>>,
    /// Group indices by level: a group sits past every earlier group it
    /// could read from or write beside ([`groups_interfere`]).
    levels: Vec<Vec<usize>>,
    last_eval_ms: Vec<i64>,
    stats: RuleStats,
    eval_threads: usize,
    group_eval_seconds: HistogramVec,
    /// Evaluations by group and rule index, for asserting that incremental
    /// ticks touch only the affected sub-DAG (S23).
    eval_counts: Vec<Vec<u64>>,
    /// Prepared plans by group and rule index (one worker per group, so the
    /// locks are never contended).
    plans: Vec<Vec<Mutex<RulePlan>>>,
    plan_counters: PlanCounters,
}

impl RuleEngine {
    /// Creates an engine (serial evaluation; see
    /// [`RuleEngine::with_eval_threads`]).
    pub fn new(groups: Vec<RuleGroup>) -> RuleEngine {
        let reads = groups.iter().map(|g| {
            let rule_reads = g.rules.iter().map(|r| {
                let mut names = Vec::new();
                referenced_names(&r.expr, &mut names).then_some(names)
            });
            rule_reads.collect()
        });
        RuleEngine {
            reads: reads.collect(),
            levels: levels_by(groups.len(), |i, j| {
                groups_interfere(&groups[i], &groups[j])
            }),
            last_eval_ms: vec![i64::MIN; groups.len()],
            stats: RuleStats::default(),
            eval_threads: 1,
            group_eval_seconds: HistogramVec::new(
                "ceems_tsdb_rule_group_eval_duration_seconds",
                "One rule-group evaluation round (all levels), by group.",
                &["group"],
                Histogram::duration_buckets(),
            ),
            eval_counts: groups.iter().map(|g| vec![0; g.rules.len()]).collect(),
            plans: groups
                .iter()
                .map(|g| g.rules.iter().map(|_| Mutex::default()).collect())
                .collect(),
            plan_counters: PlanCounters::default(),
            groups,
        }
    }

    /// The per-group evaluation-latency histogram family (shared handle;
    /// register it in a metrics registry to expose it).
    pub fn eval_histogram(&self) -> HistogramVec {
        self.group_eval_seconds.clone()
    }

    /// The `ceems_tsdb_rule_plan_{reused,extended,rebuilt}_total` counters
    /// (shared handles; register them in a metrics registry to expose them).
    pub fn plan_collector(&self) -> Arc<dyn Collector> {
        Arc::new(self.plan_counters.clone())
    }

    /// Rule evaluations so far, by how their plan was brought up to date.
    pub fn plan_counts(&self) -> PlanCounts {
        let [reused, extended, rebuilt] = self.plan_counters.0.each_ref().map(|c| c.get() as u64);
        PlanCounts {
            reused,
            extended,
            rebuilt,
        }
    }

    /// Evaluates due groups side by side on up to `threads` scoped workers
    /// ([`crate::fan_out`]), as Prometheus does: each group runs its rules
    /// in order, and groups that could see each other's records stay in
    /// order. The check is static, done once: group B runs after an earlier
    /// group A when a selector of either names a record the other writes
    /// (or names none), or both write one record, and no equality matcher
    /// contradicts a static label of the writing rule. Groups with no such
    /// tie form one level; levels run one after another at any worker
    /// count, and one worker runs a level in order on the calling thread.
    /// The attribution groups stamp `nodegroup` on every output, so the four
    /// of them are one level.
    pub fn with_eval_threads(mut self, threads: usize) -> RuleEngine {
        self.eval_threads = threads.max(1);
        self
    }

    /// Statistics so far.
    pub fn stats(&self) -> RuleStats {
        self.stats
    }

    /// Group names.
    pub fn group_names(&self) -> Vec<&str> {
        self.groups.iter().map(|g| g.name.as_str()).collect()
    }

    /// Group indices by level: the groups of one level run side by side.
    pub fn group_levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// Runs every group whose interval elapsed. Returns series written in
    /// this tick.
    pub fn tick(&mut self, db: &Tsdb, now_ms: i64) -> u64 {
        let work = (0..self.groups.len())
            .map(|gi| {
                self.due(gi, now_ms)
                    .then(|| (0..self.groups[gi].rules.len()).collect())
            })
            .collect();
        self.run_groups(db, work, now_ms)
    }

    /// Incremental evaluation (S23): runs every due group, but inside each
    /// group evaluates only the sub-DAG reachable from the metric names in
    /// `arrived` — a rule is affected when its statically-known read set
    /// intersects the arrived names or the outputs of already-affected
    /// rules (a rule with an unknowable read set is conservatively always
    /// affected). Outputs of affected rules join the arrived set for later
    /// groups, so cross-group chains re-evaluate too. With `arrived`
    /// covering every input this degenerates to [`RuleEngine::tick`];
    /// series values and timestamps are identical either way, which is what
    /// keeps push-mode ingest byte-compatible with poll mode.
    pub fn tick_incremental(
        &mut self,
        db: &Tsdb,
        now_ms: i64,
        arrived: &std::collections::HashSet<String>,
    ) -> u64 {
        // Outputs of the rules affected so far: live beside `arrived`.
        let mut produced: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut work = Vec::with_capacity(self.groups.len());
        for (gi, (group, reads)) in self.groups.iter().zip(&self.reads).enumerate() {
            if !self.due(gi, now_ms) {
                work.push(None);
                continue;
            }
            // Rules are stored in dependency order (producers before
            // consumers), so one forward pass closes the affected set.
            let mut affected: Vec<usize> = Vec::new();
            for (i, (rule, reads)) in group.rules.iter().zip(reads).enumerate() {
                let live = |r: &String| arrived.contains(r) || produced.contains(r.as_str());
                if reads.as_ref().is_none_or(|reads| reads.iter().any(live)) {
                    produced.insert(&rule.record);
                    affected.push(i);
                }
            }
            // A group none of whose inputs arrived stays quiet (and due).
            work.push((!affected.is_empty()).then_some(affected));
        }
        self.run_groups(db, work, now_ms)
    }

    fn due(&self, gi: usize, now_ms: i64) -> bool {
        now_ms.saturating_sub(self.last_eval_ms[gi]) >= self.groups[gi].interval_ms
    }

    /// One evaluation round of each group `gi` that has `work[gi]`, over the
    /// rules at those indices (ascending: the whole group, or its affected
    /// sub-DAG): level by level, the groups of a level side by side. Stamps
    /// each round and books every rule's outcome. Returns series written.
    fn run_groups(&mut self, db: &Tsdb, work: Vec<Option<Vec<usize>>>, now_ms: i64) -> u64 {
        let mut done = Vec::new();
        for level in &self.levels {
            let due: Vec<(usize, &[usize])> = level
                .iter()
                .filter_map(|&gi| Some((gi, work[gi].as_deref()?)))
                .collect();
            let per_worker = fan_out(&due, self.eval_threads, Vec::new, |done, &(gi, rules)| {
                done.push((gi, self.eval_rules(db, gi, rules, now_ms)));
            });
            done.extend(per_worker.into_iter().flatten());
        }
        let mut written = 0;
        for (gi, outcomes) in done {
            self.last_eval_ms[gi] = now_ms;
            for (i, outcome) in outcomes {
                self.stats.evaluations += 1;
                self.eval_counts[gi][i] += 1;
                match outcome {
                    Ok(n) => {
                        written += n;
                        self.stats.series_written += n;
                    }
                    Err(_) => self.stats.failures += 1,
                }
            }
        }
        written
    }

    /// Evaluates the rules at `rules` of group `gi` in order, timed as one
    /// round, each from its plan. Returns each rule's series written.
    fn eval_rules(
        &self,
        db: &Tsdb,
        gi: usize,
        rules: &[usize],
        now_ms: i64,
    ) -> Vec<(usize, Result<u64, EvalError>)> {
        let group = &self.groups[gi];
        // Tight lookback: a series that missed two evaluation rounds is
        // stale (its workload ended) and must not be re-recorded with a
        // fresh timestamp — that would keep dead jobs drawing power.
        let lookback_ms = group.interval_ms.saturating_mul(2).saturating_add(15_000);
        let _timer = self
            .group_eval_seconds
            .with_label_values(&[&group.name])
            .start_timer();
        let eval = |&i: &usize| {
            let (rule, plan) = (&group.rules[i], &mut *self.plans[gi][i].lock());
            let value = plan.plan.evaluate(db, &rule.expr, now_ms, lookback_ms);
            self.plan_counters.count(plan.plan.refresh());
            let written = value.and_then(|value| Self::record(db, rule, plan, value, now_ms));
            (i, written)
        };
        rules.iter().map(eval).collect()
    }

    /// How many times the rules recording `record` have been evaluated.
    pub fn eval_count(&self, record: &str) -> u64 {
        let counts = self.groups.iter().zip(&self.eval_counts);
        counts
            .flat_map(|(group, counts)| group.rules.iter().zip(counts))
            .filter(|(rule, _)| rule.record == record)
            .map(|(_, n)| n)
            .sum()
    }

    /// Total rule evaluations across all records (full and incremental).
    pub fn total_evals(&self) -> u64 {
        self.eval_counts.iter().flatten().sum()
    }

    /// Forces evaluation of every rule right now (used by tests/benches).
    pub fn force_eval(&mut self, db: &Tsdb, now_ms: i64) -> u64 {
        for t in self.last_eval_ms.iter_mut() {
            *t = i64::MIN;
        }
        self.tick(db, now_ms)
    }

    /// Writes one evaluation's finite outputs at `now_ms` as one group
    /// commit. An output this rule wrote recently goes by the series id it
    /// got then; only a new one has its label set built (record name and
    /// static labels stamped on). When the database removed series since,
    /// the ids are forgotten and the batch goes again by label sets. Returns
    /// series written.
    fn record(
        db: &Tsdb,
        rule: &RecordingRule,
        plan: &mut RulePlan,
        value: Evaluated,
        now_ms: i64,
    ) -> Result<u64, EvalError> {
        let labels = &mut plan.plan.labels;
        let vec = match value {
            Evaluated::Vector(v) => v,
            Evaluated::Scalar(s) => vec![(labels.empty(), s)],
            Evaluated::Matrix(_) => {
                return Err(EvalError("recording rule produced a range vector".into()))
            }
        };
        // Non-finite values (division by a zero denominator etc.) are not
        // recorded.
        let outputs: Vec<(LabelId, f64)> = vec.into_iter().filter(|(_, v)| v.is_finite()).collect();
        loop {
            let token = db.ref_token();
            if plan.token != Some(token) {
                labels.forget_series();
                plan.token = Some(token);
            }
            let mut unknown: Vec<LabelId> = Vec::new();
            let refs: Vec<(SeriesRef, i64, f64)> = outputs
                .iter()
                .map(|&(id, v)| {
                    let series = match labels.series(id) {
                        Some(series) => SeriesRef::Id(series),
                        None => {
                            unknown.push(id);
                            SeriesRef::Labels(Self::stamp(rule, &labels.get(id)))
                        }
                    };
                    (series, now_ms, v)
                })
                .collect();
            match db.commit_refs(token, &refs) {
                Ok(ids) => {
                    for (id, series) in unknown.into_iter().zip(ids) {
                        labels.set_series(id, series);
                    }
                    return Ok(refs.len() as u64);
                }
                Err(RefError::Stale) => plan.token = None,
                Err(RefError::Fenced(_)) => unreachable!("rule outputs carry no epoch"),
            }
        }
    }

    /// The series an output of `rule` is recorded as.
    fn stamp(rule: &RecordingRule, labels: &LabelSet) -> LabelSet {
        let mut b = LabelSetBuilder::from(labels.clone()).label(METRIC_NAME_LABEL, &rule.record);
        for (k, val) in &rule.static_labels {
            b = b.label(k, val);
        }
        b.build()
    }
}

/// Collects the metric names an expression's selectors read into `out`.
/// Returns `false` when any selector lacks an exact `__name__` matcher
/// (regex or nameless selectors), meaning the read set is unknowable
/// statically and an incremental tick treats the rule as always affected.
///
/// Public because the alerting service finds its meta-rules, the ones that
/// read `ALERTS`, with it.
pub fn referenced_names(expr: &Expr, out: &mut Vec<String>) -> bool {
    // No early return: `out` stays complete when one selector is opaque.
    let mut known = true;
    for sel in expr.selectors() {
        let name = sel
            .matchers
            .iter()
            .find(|m| m.name == METRIC_NAME_LABEL && m.op == MatchOp::Eq);
        match name {
            Some(m) => out.push(m.value.clone()),
            None => known = false,
        }
    }
    known
}

/// Levels items `0..n`: item `i` sits one level past every earlier item `j`
/// with `depends(i, j)`. Returns the indices by level, levels ascending.
fn levels_by(n: usize, depends: impl Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
    let mut level = vec![0usize; n];
    for i in 0..n {
        for j in (0..i).filter(|&j| depends(i, j)) {
            level[i] = level[i].max(level[j] + 1);
        }
    }
    let mut levels = vec![Vec::new(); level.iter().max().map_or(1, |&deepest| deepest + 1)];
    for (i, &lv) in level.iter().enumerate() {
        levels[lv].push(i);
    }
    levels
}

/// Whether two groups could see each other's records, so that running them
/// side by side could change what either reads or writes: a selector of
/// one, or the series a rule of one records, may touch what a rule of the
/// other records ([`may_touch`]).
fn groups_interfere(a: &RuleGroup, b: &RuleGroup) -> bool {
    let touches = |x: &RuleGroup, y: &RuleGroup| {
        x.rules.iter().any(|r| {
            let statics = r.static_labels.iter().map(|(k, v)| LabelMatcher::eq(k, v));
            let output: Vec<LabelMatcher> = statics
                .chain([LabelMatcher::eq(METRIC_NAME_LABEL, &r.record)])
                .collect();
            let selectors = r.expr.selectors().into_iter().map(|s| &s.matchers[..]);
            let touched = selectors
                .chain([&output[..]])
                .any(|ms| y.rules.iter().any(|w| may_touch(ms, w)));
            touched
        })
    };
    touches(a, b) || touches(b, a)
}

/// Whether a selector of `matchers` may read what `rule` records: it names
/// the rule's record or no name, and none of its equality matchers
/// contradicts a static label of the rule.
fn may_touch(matchers: &[LabelMatcher], rule: &RecordingRule) -> bool {
    let statics = &rule.static_labels;
    let mut eq = matchers.iter().filter(|m| m.op == MatchOp::Eq);
    eq.all(|m| match m.name.as_str() {
        METRIC_NAME_LABEL => m.value == rule.record,
        name => !statics.iter().any(|(k, v)| k == name && *v != m.value),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promql::{instant_query_with_lookback, Value};
    use ceems_metrics::labels;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn db() -> Tsdb {
        let db = Tsdb::default();
        for i in 0..41i64 {
            let t = i * 15_000;
            for (inst, rate) in [("n1", 150), ("n2", 300)] {
                db.append(
                    &labels! {"__name__" => "energy_joules_total", "instance" => inst},
                    t,
                    (i * rate) as f64,
                );
            }
        }
        db
    }

    #[test]
    fn rule_records_derived_series() {
        let db = db();
        let rule = RecordingRule::new(
            "instance:power_watts:rate2m",
            "rate(energy_joules_total[2m])",
            &[("source", "rapl")],
        )
        .unwrap();
        let mut engine = RuleEngine::new(vec![RuleGroup {
            name: "power".into(),
            interval_ms: 30_000,
            rules: vec![rule],
        }]);
        let n = engine.tick(&db, 600_000);
        assert_eq!(n, 2);

        let got = db.select(
            &[LabelMatcher::eq("__name__", "instance:power_watts:rate2m")],
            0,
            i64::MAX,
        );
        assert_eq!(got.len(), 2);
        for s in &got {
            assert_eq!(s.labels.get("source"), Some("rapl"));
            let expect = if s.labels.get("instance") == Some("n1") { 10.0 } else { 20.0 };
            assert!((s.samples[0].v - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn interval_gating() {
        let db = db();
        let rule =
            RecordingRule::new("r", "rate(energy_joules_total[2m])", &[]).unwrap();
        let mut engine = RuleEngine::new(vec![RuleGroup {
            name: "g".into(),
            interval_ms: 60_000,
            rules: vec![rule],
        }]);
        assert!(engine.tick(&db, 300_000) > 0);
        // 30s later: not due.
        assert_eq!(engine.tick(&db, 330_000), 0);
        // 60s later: due again.
        assert!(engine.tick(&db, 360_000) > 0);
        assert_eq!(engine.stats().failures, 0);
        assert_eq!(engine.group_names(), vec!["g"]);
    }

    #[test]
    fn non_finite_results_skipped() {
        let db = Tsdb::default();
        db.append(&labels! {"__name__" => "num"}, 0, 1.0);
        db.append(&labels! {"__name__" => "den"}, 0, 0.0);
        let rule = RecordingRule::new("bad", "num / on () den", &[]).unwrap();
        let mut engine = RuleEngine::new(vec![RuleGroup {
            name: "g".into(),
            interval_ms: 1,
            rules: vec![rule],
        }]);
        let n = engine.tick(&db, 1000);
        assert_eq!(n, 0); // inf skipped
        assert_eq!(engine.stats().failures, 0);
    }

    #[test]
    fn bad_expression_rejected_at_parse() {
        assert!(RecordingRule::new("x", "rate(", &[]).is_err());
    }

    #[test]
    fn parallel_group_eval_matches_serial() {
        // Six groups that read nothing of each other: one level, side by side.
        let mk_engine = |threads| {
            let groups = (1..=6).map(|m| RuleGroup {
                name: format!("g{m}"),
                interval_ms: 30_000,
                rules: vec![RecordingRule::new(
                    format!("r{m}"),
                    &format!("rate(energy_joules_total[2m]) * {m}"),
                    &[],
                )
                .unwrap()],
            });
            RuleEngine::new(groups.collect()).with_eval_threads(threads)
        };
        let serial_db = db();
        let parallel_db = db();
        let mut serial = mk_engine(1);
        let mut parallel = mk_engine(4);
        assert_eq!(parallel.levels, [(0..6).collect::<Vec<_>>()]);
        assert_eq!(
            serial.tick(&serial_db, 600_000),
            parallel.tick(&parallel_db, 600_000)
        );
        assert_eq!(serial.stats(), parallel.stats());
        for m in 1..=6 {
            let matcher = [LabelMatcher::eq("__name__", format!("r{m}"))];
            let a = serial_db.select(&matcher, 0, i64::MAX);
            let b = parallel_db.select(&matcher, 0, i64::MAX);
            assert_eq!(a.len(), 2);
            let key = |s: &crate::types::SeriesData| s.labels.get("instance").unwrap().to_string();
            let mut a = a;
            let mut b = b;
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn parallel_eval_preserves_dependent_chains() {
        // r_base feeds r_mid, which feeds r_top — the shape of the shipped
        // attribution groups (RAPL intermediates → components → totals).
        // Serial eval resolves the chain in one round; parallel eval must
        // produce identical results on the very first tick, not race a rule
        // against its producer.
        let mk_engine = |threads| {
            let rules = vec![
                RecordingRule::new("r_base", "rate(energy_joules_total[2m])", &[]).unwrap(),
                // Independent sibling that shares r_base's level.
                RecordingRule::new("r_side", "rate(energy_joules_total[2m]) * 7", &[]).unwrap(),
                RecordingRule::new("r_mid", "r_base * 2", &[]).unwrap(),
                RecordingRule::new("r_top", "r_mid + r_base", &[]).unwrap(),
            ];
            RuleEngine::new(vec![RuleGroup {
                name: "chain".into(),
                interval_ms: 30_000,
                rules,
            }])
            .with_eval_threads(threads)
        };
        let serial_db = db();
        let parallel_db = db();
        let mut serial = mk_engine(1);
        let mut parallel = mk_engine(4);
        assert_eq!(
            serial.tick(&serial_db, 600_000),
            parallel.tick(&parallel_db, 600_000)
        );
        assert_eq!(serial.stats(), parallel.stats());
        for name in ["r_base", "r_side", "r_mid", "r_top"] {
            let matcher = [LabelMatcher::eq("__name__", name)];
            let mut a = serial_db.select(&matcher, 0, i64::MAX);
            let mut b = parallel_db.select(&matcher, 0, i64::MAX);
            assert_eq!(a.len(), 2, "{name} must resolve on the first tick");
            let key = |s: &crate::types::SeriesData| s.labels.get("instance").unwrap().to_string();
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "{name} diverged under parallel eval");
        }
        // And the chain actually chained: r_top = r_base*2 + r_base.
        let top = parallel_db.select(&[LabelMatcher::eq("__name__", "r_top")], 0, i64::MAX);
        for s in &top {
            let expect = if s.labels.get("instance") == Some("n1") { 30.0 } else { 60.0 };
            assert!((s.samples[0].v - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn referenced_names_stay_complete_beside_an_opaque_selector() {
        let mut names = Vec::new();
        let e = parse_expr("a / {job=~\"x.*\"} + topk(scalar(k), rate(b[1m])) > c").unwrap();
        assert!(!referenced_names(&e, &mut names));
        assert_eq!(names, ["a", "k", "b", "c"]);
        names.clear();
        assert!(referenced_names(
            &parse_expr("sum(a) / 2").unwrap(),
            &mut names
        ));
        assert_eq!(names, ["a"]);
    }

    /// A rule's static labels.
    type Statics<'a> = &'a [(&'a str, &'a str)];

    /// A rule as `(record, expression, static labels)`.
    type Rule<'a> = (&'a str, &'a str, Statics<'a>);

    /// One group per rule.
    fn one_rule_groups(rules: &[Rule<'_>]) -> Vec<RuleGroup> {
        let group = |(i, &(record, expr, statics)): (usize, &Rule<'_>)| RuleGroup {
            name: format!("g{i}"),
            interval_ms: 30_000,
            rules: vec![RecordingRule::new(record, expr, statics).unwrap()],
        };
        rules.iter().enumerate().map(group).collect()
    }

    /// The levels the engine puts one-rule groups in.
    fn group_levels(rules: &[Rule<'_>]) -> Vec<Vec<usize>> {
        RuleEngine::new(one_rule_groups(rules)).levels
    }

    #[test]
    fn a_selector_agreeing_with_the_writers_static_labels_is_ordered_after_it() {
        let a: Statics = &[("nodegroup", "a")];
        let levels = group_levels(&[
            ("r", "rate(raw[2m])", a),
            ("s", "r{nodegroup=\"a\", instance=\"n1\"} * 2", &[]),
            ("t", "rate(other[2m])", &[]),
        ]);
        assert_eq!(levels, [vec![0, 2], vec![1]]);
        // A reader before its writer stays before it: it reads the
        // writer's output of the round before.
        let levels = group_levels(&[
            ("s", "r{nodegroup=\"a\"} * 2", &[]),
            ("r", "rate(raw[2m])", a),
        ]);
        assert_eq!(levels, [vec![0], vec![1]]);
        // Two groups writing one record they do not tell apart stay in order.
        let levels = group_levels(&[("r", "rate(raw[2m])", &[]), ("r", "rate(other[2m])", a)]);
        assert_eq!(levels, [vec![0], vec![1]]);
    }

    #[test]
    fn a_contradicting_nodegroup_shares_the_level() {
        // The attribution groups' shape: every rule stamps its group's
        // `nodegroup`, and every selector of a record names it.
        let (a, b): (Statics, Statics) = (&[("nodegroup", "a")], &[("nodegroup", "b")]);
        let levels = group_levels(&[
            ("r", "rate(raw{nodegroup=\"a\"}[2m])", a),
            ("s", "r{nodegroup=\"a\"} * 2", a),
            ("r", "rate(raw{nodegroup=\"b\"}[2m])", b),
            ("s", "r{nodegroup=\"b\"} * 2", b),
        ]);
        assert_eq!(levels, [vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn a_nameless_or_regex_named_selector_orders_its_group_after_every_earlier_group() {
        for reader in [
            "sum by (x) ({job=\"j\"})",
            "sum({__name__=~\"q|x\"})",
            "count({__name__=~\".+\", nodegroup!=\"a\"})",
        ] {
            let levels = group_levels(&[
                ("p", "rate(raw[2m])", &[("nodegroup", "a")]),
                ("q", "rate(other[2m])", &[]),
                ("r", reader, &[]),
                ("s", "rate(raw[2m])", &[]),
            ]);
            // `s` is a later group's record the reader may read.
            assert_eq!(levels, [vec![0, 1], vec![2], vec![3]], "{reader}");
        }
    }

    #[test]
    fn incremental_ticks_carry_outputs_across_group_levels() {
        let groups = || {
            one_rule_groups(&[
                ("r_base", "rate(energy_joules_total[2m])", &[]),
                ("r_side", "rate(energy_joules_total[2m]) * 7", &[]),
                ("r_mid", "r_base * 2", &[]),
                ("r_top", "r_mid + r_base", &[]),
            ])
        };
        let arrived: HashSet<String> = ["energy_joules_total".to_string()].into();
        let (serial_db, parallel_db) = (db(), db());
        let mut serial = RuleEngine::new(groups());
        let mut parallel = RuleEngine::new(groups()).with_eval_threads(2);
        assert_eq!(parallel.levels, [vec![0, 1], vec![2], vec![3]]);
        assert_eq!(
            serial.tick_incremental(&serial_db, 600_000, &arrived),
            parallel.tick_incremental(&parallel_db, 600_000, &arrived)
        );
        assert_eq!(parallel.total_evals(), 4, "a level's outputs wake the next");
        assert_eq!(serial.stats(), parallel.stats());
        let everything = [LabelMatcher::new("__name__", MatchOp::Re, ".+").unwrap()];
        assert_eq!(
            serial_db.select(&everything, 0, i64::MAX),
            parallel_db.select(&everything, 0, i64::MAX)
        );
        let top = parallel_db.select(&[LabelMatcher::eq("__name__", "r_top")], 0, i64::MAX);
        assert_eq!(top.len(), 2);
        for s in &top {
            let expect = match s.labels.get("instance") {
                Some("n1") => 30.0,
                _ => 60.0,
            };
            assert_eq!(s.samples.last().unwrap().v, expect);
        }
    }

    #[test]
    fn incremental_tick_evaluates_only_affected_subdag() {
        let db = db();
        db.append(
            &labels! {"__name__" => "other_total", "instance" => "n1"},
            300_000,
            1.0,
        );
        db.append(
            &labels! {"__name__" => "other_total", "instance" => "n1"},
            585_000,
            40.0,
        );
        let rules = vec![
            RecordingRule::new("r_base", "rate(energy_joules_total[2m])", &[]).unwrap(),
            RecordingRule::new("r_mid", "r_base * 2", &[]).unwrap(),
            RecordingRule::new("r_other", "rate(other_total[10m])", &[]).unwrap(),
        ];
        let mut engine = RuleEngine::new(vec![RuleGroup {
            name: "g".into(),
            interval_ms: 30_000,
            rules,
        }]);

        // Only energy_joules_total arrived: r_base and its dependent r_mid
        // evaluate; r_other does not.
        let arrived: std::collections::HashSet<String> =
            ["energy_joules_total".to_string()].into_iter().collect();
        let written = engine.tick_incremental(&db, 600_000, &arrived);
        assert!(written > 0);
        assert_eq!(engine.eval_count("r_base"), 1);
        assert_eq!(engine.eval_count("r_mid"), 1);
        assert_eq!(engine.eval_count("r_other"), 0, "untouched sub-DAG stays cold");
        assert!(db
            .select(&[LabelMatcher::eq("__name__", "r_other")], 0, i64::MAX)
            .is_empty());

        // Interval gating still applies to what did evaluate.
        assert_eq!(engine.tick_incremental(&db, 600_001, &arrived), 0);

        // The other input arriving later wakes only its own rule.
        let arrived2: std::collections::HashSet<String> =
            ["other_total".to_string()].into_iter().collect();
        // (group went quiet for r_other: last_eval advanced at 600_000, so
        // wait out the interval)
        let w2 = engine.tick_incremental(&db, 630_001, &arrived2);
        assert!(w2 > 0, "r_other evaluates once its input arrives");
        assert_eq!(engine.eval_count("r_other"), 1);
        assert_eq!(engine.eval_count("r_base"), 1, "r_base not re-evaluated");

        // Full-coverage arrived set matches a plain tick's behavior.
        let mut poll = RuleEngine::new(vec![RuleGroup {
            name: "g".into(),
            interval_ms: 30_000,
            rules: vec![
                RecordingRule::new("r_base", "rate(energy_joules_total[2m])", &[]).unwrap(),
                RecordingRule::new("r_mid", "r_base * 2", &[]).unwrap(),
            ],
        }]);
        let poll_db = super::tests::db();
        let n_poll = poll.tick(&poll_db, 600_000);
        let incr_db = super::tests::db();
        let mut incr = RuleEngine::new(vec![RuleGroup {
            name: "g".into(),
            interval_ms: 30_000,
            rules: vec![
                RecordingRule::new("r_base", "rate(energy_joules_total[2m])", &[]).unwrap(),
                RecordingRule::new("r_mid", "r_base * 2", &[]).unwrap(),
            ],
        }]);
        let n_incr = incr.tick_incremental(&incr_db, 600_000, &arrived);
        assert_eq!(n_poll, n_incr);
        for name in ["r_base", "r_mid"] {
            let a = poll_db.select(&[LabelMatcher::eq("__name__", name)], 0, i64::MAX);
            let b = incr_db.select(&[LabelMatcher::eq("__name__", name)], 0, i64::MAX);
            assert_eq!(a, b, "{name} identical under incremental eval");
        }
    }

    /// What falls between two ticks of the property below, besides samples.
    #[derive(Clone, Copy, Debug)]
    enum Between {
        Samples,
        /// The series of this many new instances (a job starting).
        NewSeries(usize),
        /// `delete_series` of one instance's series, rule outputs included.
        Delete(usize),
        /// `delete_series` of one rule's outputs.
        DeleteOutputs,
        /// `enforce_retention`: whole chunks of every series drop, and the
        /// series left empty.
        Retention,
        /// The plan side's database is dropped and opened again from its
        /// WAL: the same series under a new instance token.
        Reopen,
    }

    fn between() -> impl Strategy<Value = Between> {
        prop_oneof![
            4 => Just(Between::Samples),
            2 => (1usize..4).prop_map(Between::NewSeries),
            1 => (0usize..8).prop_map(Between::Delete),
            1 => Just(Between::DeleteOutputs),
            1 => Just(Between::Retention),
            1 => Just(Between::Reopen),
        ]
    }

    /// Rules over every shape a plan carries: range windows (one longer
    /// than retention keeps), instant selectors, `by` and `on` groupings,
    /// a chain through outputs, outputs that are sometimes infinite, a
    /// ranking that keeps the input's labels, and a nameless selector.
    fn equivalence_rules() -> Vec<RecordingRule> {
        let rule = |record: &str, expr: &str, statics: &[(&str, &str)]| {
            RecordingRule::new(record, expr, statics).unwrap()
        };
        vec![
            rule(
                "r_rate",
                "rate(energy_joules_total[2m])",
                &[("src", "rapl")],
            ),
            rule("r_sum", "sum by (instance) (mem_bytes)", &[]),
            rule("r_count", "count_over_time(mem_bytes[10m])", &[]),
            // Infinite for n2 (its rate is 102 J/s): never recorded.
            rule("r_inf", "r_rate / on (instance) (r_rate - 102)", &[]),
            rule(
                "r_share",
                "r_rate * on (instance) r_sum / on () sum(r_rate)",
                &[],
            ),
            rule("r_top", "topk(2, mem_bytes)", &[]),
            rule(
                "r_all",
                "scalar(count({__name__=~\"mem_bytes|energy_joules_total\"}))",
                &[],
            ),
        ]
    }

    /// Samples of instance `i` at second `s`: a counter at `100 + i` J/s
    /// and a gauge.
    fn scrape_batch(instances: &[bool], s: i64, pause: u8) -> Vec<(LabelSet, i64, f64)> {
        let live = instances
            .iter()
            .enumerate()
            .filter(|&(i, &on)| on && pause >> (i % 8) & 1 == 0);
        live.flat_map(|(i, _)| {
            let inst = format!("n{i}");
            [
                (
                    labels! {"__name__" => "energy_joules_total", "instance" => inst.clone()},
                    (s * (100 + i as i64)) as f64,
                ),
                (
                    labels! {"__name__" => "mem_bytes", "instance" => inst},
                    1000.0 * (i + 1) as f64 + (s % 7) as f64,
                ),
            ]
        })
        .map(|(labels, v)| (labels, s * 1000, v))
        .collect()
    }

    /// Runs `ticks` twice over: from the engine's kept plans, and as
    /// one-shot evaluation + `append_batch` by label set, and asserts both
    /// store the same bits after every tick. `instances` start scraped.
    fn ticks_match_append_batch(instances: usize, ticks: &[(Between, u8)]) -> RuleEngine {
        let config = crate::storage::TsdbConfig {
            retention_ms: 300_000,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!(
            "ceems-rule-plans-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = crate::wal::WalOptions {
            fsync: crate::wal::FsyncMode::Never,
            ..Default::default()
        };
        let open = || Tsdb::open(&dir, wal, config.clone()).unwrap();
        let (mut plan_db, batch_db) = (open(), Tsdb::new(config.clone()));
        let mut instances = vec![true; instances];
        for s in 0..600 {
            let batch = scrape_batch(&instances, s, 0);
            plan_db.append_batch(&batch);
            batch_db.append_batch(&batch);
        }
        let mut engine = RuleEngine::new(vec![RuleGroup {
            name: "g".into(),
            interval_ms: 30_000,
            rules: equivalence_rules(),
        }]);
        let everything = [LabelMatcher::new("__name__", MatchOp::Re, ".+").unwrap()];
        for (tick, &(between, pause)) in ticks.iter().enumerate() {
            let now = 600_000 + tick as i64 * 30_000;
            for s in (now / 1000 - 29)..=(now / 1000) {
                let batch = scrape_batch(&instances, s, pause);
                plan_db.append_batch(&batch);
                batch_db.append_batch(&batch);
            }
            match between {
                Between::Samples => {}
                Between::NewSeries(n) => instances.resize(instances.len() + n, true),
                Between::Delete(i) => {
                    let m = [LabelMatcher::eq(
                        "instance",
                        format!("n{}", i % instances.len()),
                    )];
                    assert_eq!(plan_db.delete_series(&m), batch_db.delete_series(&m));
                }
                Between::DeleteOutputs => {
                    let m = [LabelMatcher::eq("__name__", "r_sum")];
                    assert_eq!(plan_db.delete_series(&m), batch_db.delete_series(&m));
                }
                Between::Retention => {
                    assert_eq!(
                        plan_db.enforce_retention(now),
                        batch_db.enforce_retention(now)
                    );
                }
                Between::Reopen => {
                    drop(plan_db);
                    plan_db = open();
                }
            }
            let written = engine.tick(&plan_db, now);
            let mut by_batch = 0;
            for rule in equivalence_rules() {
                let value = instant_query_with_lookback(&batch_db, &rule.expr, now, 75_000).unwrap();
                let vec = match value {
                    Value::Vector(v) => v,
                    Value::Scalar(s) => vec![(LabelSet::empty(), s)],
                    Value::Matrix(_) => unreachable!(),
                };
                let batch: Vec<_> = vec
                    .into_iter()
                    .filter(|(_, v)| v.is_finite())
                    .map(|(labels, v)| (RuleEngine::stamp(&rule, &labels), now, v))
                    .collect();
                batch_db.append_batch(&batch);
                by_batch += batch.len() as u64;
            }
            assert_eq!(written, by_batch, "tick {tick} after {between:?}");
            assert_eq!(
                plan_db.select(&everything, 0, i64::MAX),
                batch_db.select(&everything, 0, i64::MAX),
                "tick {tick} after {between:?}"
            );
        }
        assert_eq!(engine.stats().failures, 0);
        drop(plan_db);
        let _ = std::fs::remove_dir_all(&dir);
        engine
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Ticks that run from kept plans (outputs by remembered series
        /// id) store, bit for bit, what evaluating each rule one-shot and
        /// `append_batch`-ing its outputs by label set stores, whatever
        /// falls between ticks: new series, deletes of inputs or outputs,
        /// retention dropping chunks under the plans' windows, series that
        /// go stale and come back (`pause` masks), a reopened database.
        #[test]
        fn outputs_by_remembered_id_match_append_batch(
            ticks in proptest::collection::vec((between(), any::<u8>(), any::<u8>()), 1..10),
        ) {
            let ticks: Vec<(Between, u8)> = ticks.into_iter().map(|(b, x, y)| (b, x & y)).collect();
            ticks_match_append_batch(3, &ticks);
        }
    }

    /// Enough series that the plans' label tables collect: most series
    /// stop, some come back, and a wave of new ones makes a table outgrow
    /// twice what it kept, so the ids of the stopped ones are freed. The
    /// answers stay those of one-shot evaluation.
    #[test]
    fn plans_free_the_labels_of_stopped_series_and_still_match() {
        let mut ticks = vec![(Between::Samples, 0u8); 3];
        ticks.extend([(Between::Samples, 0xfe); 4]);
        ticks.push((Between::NewSeries(360), 0x0f));
        ticks.extend([(Between::Samples, 0x0f); 3]);
        let engine = ticks_match_append_batch(120, &ticks);
        let live: Vec<(usize, usize)> = engine.plans[0]
            .iter()
            .map(|p| p.lock().plan.labels.live())
            .collect();
        assert!(
            live.iter().any(|&(live, free)| free > 0 && live > 0),
            "{live:?}"
        );
    }

    #[test]
    fn force_eval_reruns_everything() {
        let db = db();
        let rule = RecordingRule::new("r", "rate(energy_joules_total[2m])", &[]).unwrap();
        let mut engine = RuleEngine::new(vec![RuleGroup {
            name: "g".into(),
            interval_ms: i64::MAX / 2,
            rules: vec![rule],
        }]);
        assert!(engine.tick(&db, 600_000) > 0);
        assert_eq!(engine.tick(&db, 600_001), 0);
        assert!(engine.force_eval(&db, 600_002) > 0);
    }
}
