//! Durable alert state.
//!
//! Alert lifecycle (pending → firing → resolved), per-group notification
//! bookkeeping, and silences all persist in a `ceems-relstore` database
//! that mirrors the service's maps: [`AlertStore::save`] commits what
//! differs. Restarting the alerting service mid-incident reloads this
//! state, so a firing alert is neither re-notified (its group's
//! `last_notified_ms` survives) nor forgotten (its `active_since_ms`
//! survives, keeping `for:` holds honest across restarts), and a group's
//! `group_wait` counts from its `first_active_ms`.

use std::collections::BTreeMap;
use std::path::Path;

use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::{LabelMatcher, MatchOp};
use ceems_relstore::{Column, ColumnType, Db, Row, Schema, Table, Value};

/// Lifecycle state of one alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// Violating, but not yet past its `for:` hold.
    Pending,
    /// Violating past the hold; eligible for notification.
    Firing,
    /// Stopped violating; kept around long enough to notify resolution.
    Resolved,
}

impl AlertState {
    /// Lower-case name (stored in the DB, rendered in `alertstate`).
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    fn parse(s: &str) -> Option<AlertState> {
        Some(match s {
            "pending" => AlertState::Pending,
            "firing" => AlertState::Firing,
            "resolved" => AlertState::Resolved,
            _ => return None,
        })
    }
}

/// One alert: a rule crossed with one violating series.
#[derive(Clone, Debug)]
pub struct AlertInstance {
    /// Hex label fingerprint — the dedup key.
    pub fingerprint: String,
    /// Rule that raised it.
    pub rule: String,
    /// Full label set: series labels + `alertname` + rule static labels.
    pub labels: LabelSet,
    /// Lifecycle state.
    pub state: AlertState,
    /// When the series first started violating (ms, sim clock).
    pub active_since_ms: i64,
    /// When it crossed the `for:` hold, if it has.
    pub firing_since_ms: Option<i64>,
    /// When it stopped violating, if it has.
    pub resolved_at_ms: Option<i64>,
    /// Most recent violating sample value.
    pub value: f64,
}

impl AlertInstance {
    /// The dedup fingerprint for a label set.
    pub fn fingerprint_of(labels: &LabelSet) -> String {
        format!("{:016x}", labels.fingerprint())
    }
}

/// Per-notification-group bookkeeping.
#[derive(Clone, Debug)]
pub struct GroupState {
    /// Group key: route name + grouped label values.
    pub key: String,
    /// Sink the group routes to.
    pub sink: String,
    /// When the group first had a notifiable alert.
    pub first_active_ms: i64,
    /// Last successful delivery, if any.
    pub last_notified_ms: Option<i64>,
    /// Earliest next delivery attempt after a failure (honors
    /// `Retry-After`).
    pub next_attempt_ms: Option<i64>,
    /// Hash of the alert set last successfully delivered, for change
    /// detection.
    pub last_hash: String,
}

/// A silence: matchers plus an expiry.
#[derive(Clone, Debug)]
pub struct Silence {
    /// Identifier (deterministic hash of matchers + window).
    pub id: String,
    /// Matchers; an alert is silenced when every matcher matches.
    pub matchers: Vec<LabelMatcher>,
    /// When the silence ends (ms, sim clock).
    pub ends_ms: i64,
    /// Operator-facing note.
    pub comment: String,
}

impl Silence {
    /// Whether this silence suppresses an alert with `labels` at `now_ms`.
    pub fn matches(&self, labels: &LabelSet, now_ms: i64) -> bool {
        now_ms < self.ends_ms && self.matchers.iter().all(|m| m.matches(labels))
    }
}

fn labels_to_json(labels: &LabelSet) -> String {
    let map: BTreeMap<&str, &str> = labels.iter().collect();
    serde_json::to_string(&map).unwrap_or_else(|_| "{}".into())
}

fn labels_from_json(s: &str) -> LabelSet {
    let map: BTreeMap<String, String> = serde_json::from_str(s).unwrap_or_default();
    LabelSet::from_pairs(map)
}

/// A matcher as the store and the silences API write it.
pub(crate) fn matcher_json(m: &LabelMatcher) -> serde_json::Value {
    serde_json::json!({"name": m.name, "op": m.op.as_str(), "value": m.value})
}

/// A matcher from its JSON object (`op` defaults to `=`).
pub(crate) fn matcher_from_json(item: &serde_json::Value) -> Result<LabelMatcher, String> {
    let (Some(name), Some(value)) = (item["name"].as_str(), item["value"].as_str()) else {
        return Err("matcher needs name and value".into());
    };
    let op = match item["op"].as_str().unwrap_or("=") {
        "=" => MatchOp::Eq,
        "!=" => MatchOp::Ne,
        "=~" => MatchOp::Re,
        "!~" => MatchOp::Nre,
        other => return Err(format!("unknown matcher op {other:?}")),
    };
    LabelMatcher::new(name, op, value).map_err(|e| format!("bad matcher: {e}"))
}

/// A value the store keeps as one row of `TABLE`, keyed by the row's first
/// column (the key the service's map holds it under).
trait Stored: Sized {
    const TABLE: &'static str;
    fn to_row(&self) -> Row;
    fn from_row(row: &Row) -> Option<Self>;
}

fn text(v: &Value) -> String {
    v.as_text().unwrap_or("").to_string()
}

impl Stored for AlertInstance {
    const TABLE: &'static str = "alert_state";

    fn to_row(&self) -> Row {
        vec![
            Value::Text(self.fingerprint.clone()),
            Value::Text(self.rule.clone()),
            Value::Text(labels_to_json(&self.labels)),
            Value::Text(self.state.as_str().to_string()),
            Value::Int(self.active_since_ms),
            self.firing_since_ms.map_or(Value::Null, Value::Int),
            self.resolved_at_ms.map_or(Value::Null, Value::Int),
            Value::Real(self.value),
        ]
    }

    fn from_row(row: &Row) -> Option<AlertInstance> {
        Some(AlertInstance {
            fingerprint: text(&row[0]),
            rule: text(&row[1]),
            labels: labels_from_json(&text(&row[2])),
            state: AlertState::parse(&text(&row[3]))?,
            active_since_ms: row[4].as_int().unwrap_or(0),
            firing_since_ms: row[5].as_int(),
            resolved_at_ms: row[6].as_int(),
            value: row[7].as_real().unwrap_or(0.0),
        })
    }
}

impl Stored for GroupState {
    const TABLE: &'static str = "alert_groups";

    fn to_row(&self) -> Row {
        vec![
            Value::Text(self.key.clone()),
            Value::Text(self.sink.clone()),
            Value::Int(self.first_active_ms),
            self.last_notified_ms.map_or(Value::Null, Value::Int),
            self.next_attempt_ms.map_or(Value::Null, Value::Int),
            Value::Text(self.last_hash.clone()),
        ]
    }

    fn from_row(row: &Row) -> Option<GroupState> {
        Some(GroupState {
            key: text(&row[0]),
            sink: text(&row[1]),
            first_active_ms: row[2].as_int().unwrap_or(0),
            last_notified_ms: row[3].as_int(),
            next_attempt_ms: row[4].as_int(),
            last_hash: text(&row[5]),
        })
    }
}

impl Stored for Silence {
    const TABLE: &'static str = "alert_silences";

    fn to_row(&self) -> Row {
        let matchers = self.matchers.iter().map(matcher_json).collect();
        vec![
            Value::Text(self.id.clone()),
            Value::Text(serde_json::Value::Array(matchers).to_string()),
            Value::Int(self.ends_ms),
            Value::Text(self.comment.clone()),
        ]
    }

    fn from_row(row: &Row) -> Option<Silence> {
        Some(Silence {
            id: text(&row[0]),
            matchers: serde_json::from_str::<Vec<serde_json::Value>>(&text(&row[1]))
                .unwrap_or_default()
                .iter()
                .filter_map(|m| matcher_from_json(m).ok())
                .collect(),
            ends_ms: row[2].as_int().unwrap_or(0),
            comment: text(&row[3]),
        })
    }
}

/// Rows equal value for value, reals by their bits (`Value`'s own `==`
/// takes `-0.0` for `0.0`).
fn same_row(a: &Row, b: &Row) -> bool {
    let bits = |v: &Value| match v {
        Value::Real(x) => Value::Int(x.to_bits() as i64),
        v => v.clone(),
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// The durable store: a mirror of the service's alert, group and silence
/// maps. All mutation goes through the relstore WAL, so a crash between
/// ticks replays to the state of the last commit.
pub struct AlertStore {
    db: Db,
}

impl AlertStore {
    /// Opens (or creates) the store under `dir`.
    pub fn open(dir: &Path) -> Result<AlertStore, String> {
        use Column as C;
        use ColumnType::{Int, Real, Text};
        let err = |e: &dyn std::fmt::Display| format!("alert store: {e}");
        let mut db = Db::open(dir).map_err(|e| err(&e))?;
        let tables = [
            (
                AlertInstance::TABLE,
                vec![
                    C::required("fingerprint", Text),
                    C::required("rule", Text),
                    C::required("labels", Text),
                    C::required("state", Text),
                    C::required("active_since_ms", Int),
                    C::nullable("firing_since_ms", Int),
                    C::nullable("resolved_at_ms", Int),
                    C::required("value", Real),
                ],
                &["rule"][..],
            ),
            (
                GroupState::TABLE,
                vec![
                    C::required("key", Text),
                    C::required("sink", Text),
                    C::required("first_active_ms", Int),
                    C::nullable("last_notified_ms", Int),
                    C::nullable("next_attempt_ms", Int),
                    C::required("last_hash", Text),
                ],
                &[],
            ),
            (
                Silence::TABLE,
                vec![
                    C::required("id", Text),
                    C::required("matchers", Text),
                    C::required("ends_ms", Int),
                    C::required("comment", Text),
                ],
                &[],
            ),
        ];
        for (table, columns, indexed) in tables {
            let pk = columns[0].name.clone();
            let schema = Schema::new(columns, &pk, indexed).map_err(|e| err(&e))?;
            db.create_table(table, schema).map_err(|e| err(&e))?;
        }
        Ok(AlertStore { db })
    }

    fn load<T: Stored>(&self) -> BTreeMap<String, T> {
        let rows = self.table::<T>().scan();
        rows.filter_map(|row| Some((text(&row[0]), T::from_row(row)?)))
            .collect()
    }

    /// All persisted alerts, keyed by fingerprint.
    pub fn load_alerts(&self) -> BTreeMap<String, AlertInstance> {
        self.load()
    }

    /// All persisted group states, keyed by group key.
    pub fn load_groups(&self) -> BTreeMap<String, GroupState> {
        self.load()
    }

    /// All persisted silences, keyed by id.
    pub fn load_silences(&self) -> BTreeMap<String, Silence> {
        self.load()
    }

    /// Makes the store hold exactly these maps, as one commit: a row is
    /// written where it differs from the stored one, and a stored key the
    /// maps no longer hold is deleted. When nothing changed, nothing is
    /// written. A failed commit leaves the store as it was, so the next
    /// `save` writes the same difference again.
    pub fn save(
        &mut self,
        alerts: &BTreeMap<String, AlertInstance>,
        groups: &BTreeMap<String, GroupState>,
        silences: &BTreeMap<String, Silence>,
    ) -> Result<(), String> {
        let mut upserts = Vec::new();
        let mut deletes = Vec::new();
        self.diff(alerts, &mut upserts, &mut deletes);
        self.diff(groups, &mut upserts, &mut deletes);
        self.diff(silences, &mut upserts, &mut deletes);
        self.db
            .commit(upserts, deletes)
            .map_err(|e| format!("alert store: {e}"))
    }

    fn diff<T: Stored>(
        &self,
        map: &BTreeMap<String, T>,
        upserts: &mut Vec<(&'static str, Row)>,
        deletes: &mut Vec<(&'static str, Value)>,
    ) {
        let stored = self.table::<T>();
        let rows = map.values().map(T::to_row);
        let changed = rows.filter(|row| !stored.get(&row[0]).is_some_and(|old| same_row(old, row)));
        upserts.extend(changed.map(|row| (T::TABLE, row)));
        let gone = stored
            .scan()
            .filter(|row| !map.contains_key(row[0].as_text().unwrap_or("")));
        deletes.extend(gone.map(|row| (T::TABLE, row[0].clone())));
    }

    fn table<T: Stored>(&self) -> &Table {
        self.db.table(T::TABLE).expect("created at open")
    }

    /// Upserts one group state: the save after each delivery attempt.
    pub fn save_group(&mut self, g: &GroupState) -> Result<(), String> {
        self.db
            .upsert(GroupState::TABLE, g.to_row())
            .map_err(|e| format!("alert store: {e}"))
    }

    /// Compacts the WAL into a snapshot.
    pub fn snapshot(&mut self) -> Result<(), String> {
        self.db.snapshot().map_err(|e| format!("alert store: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;

    #[test]
    fn alerts_round_trip_through_restart() {
        let dir = tempdir();
        let ls = labels! {"alertname" => "HighPower", "instance" => "n1"};
        let a = AlertInstance {
            fingerprint: AlertInstance::fingerprint_of(&ls),
            rule: "HighPower".into(),
            labels: ls,
            state: AlertState::Firing,
            active_since_ms: 1_000,
            firing_since_ms: Some(61_000),
            resolved_at_ms: None,
            value: 912.5,
        };
        {
            let mut store = AlertStore::open(&dir).unwrap();
            let alerts = BTreeMap::from([(a.fingerprint.clone(), a.clone())]);
            store
                .save(&alerts, &BTreeMap::new(), &BTreeMap::new())
                .unwrap();
        }
        let store = AlertStore::open(&dir).unwrap();
        let loaded = store.load_alerts();
        let got = &loaded[&a.fingerprint];
        assert_eq!(got.state, AlertState::Firing);
        assert_eq!(got.labels.get("instance"), Some("n1"));
        assert_eq!(got.firing_since_ms, Some(61_000));
        assert_eq!(got.value, 912.5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn groups_and_silences_round_trip() {
        let dir = tempdir();
        let group = GroupState {
            key: "default:{alertname=\"X\"}".into(),
            sink: "webhook".into(),
            first_active_ms: 5,
            last_notified_ms: Some(100),
            next_attempt_ms: None,
            last_hash: "abc".into(),
        };
        let silence = Silence {
            id: "s1".into(),
            matchers: vec![LabelMatcher::eq("alertname", "X")],
            ends_ms: 10_000,
            comment: "maintenance".into(),
        };
        {
            let mut store = AlertStore::open(&dir).unwrap();
            let groups = BTreeMap::from([(group.key.clone(), group)]);
            let silences = BTreeMap::from([(silence.id.clone(), silence)]);
            store.save(&BTreeMap::new(), &groups, &silences).unwrap();
        }
        let mut store = AlertStore::open(&dir).unwrap();
        let groups = store.load_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups.values().next().unwrap().last_notified_ms, Some(100));
        let silences = store.load_silences();
        let s = &silences["s1"];
        assert!(s.matches(&labels! {"alertname" => "X"}, 9_999));
        assert!(!s.matches(&labels! {"alertname" => "X"}, 10_000), "expired");
        assert!(!s.matches(&labels! {"alertname" => "Y"}, 0));
        store
            .save(&BTreeMap::new(), &groups, &BTreeMap::new())
            .unwrap();
        assert!(store.load_silences().is_empty());
        assert_eq!(AlertStore::open(&dir).unwrap().load_groups().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matchers_read_back_as_the_silences_api_writes_them() {
        let m = LabelMatcher::new("instance", MatchOp::Re, "n[0-9]").unwrap();
        let back = matcher_from_json(&matcher_json(&m)).unwrap();
        assert_eq!(
            (back.name, back.op.as_str(), back.value),
            ("instance".into(), "=~", m.value)
        );
        let parse = |v: serde_json::Value| matcher_from_json(&v);
        let eq = parse(serde_json::json!({"name": "a", "value": "b"})).unwrap();
        assert_eq!(eq.op.as_str(), "=", "op defaults to =");
        let err = |v| parse(v).unwrap_err();
        assert_eq!(
            err(serde_json::json!({"name": "a"})),
            "matcher needs name and value"
        );
        let bad_op = serde_json::json!({"name": "a", "value": "b", "op": "~"});
        assert_eq!(err(bad_op), "unknown matcher op \"~\"");
        let bad_re = serde_json::json!({"name": "a", "value": "(", "op": "=~"});
        assert!(err(bad_re).starts_with("bad matcher: "));
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alertstore-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).ok();
        dir
    }
}
