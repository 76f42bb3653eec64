//! Durable alert state.
//!
//! Alert lifecycle (pending → firing → resolved), per-group notification
//! bookkeeping, and silences all persist in a `ceems-relstore` database.
//! Restarting the alerting service mid-incident reloads this state, so a
//! firing alert is neither re-notified (its group's `last_notified_ms`
//! survives) nor forgotten (its `active_since_ms` survives, keeping `for:`
//! holds honest across restarts).

use std::collections::BTreeMap;
use std::path::Path;

use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::{LabelMatcher, MatchOp};
use ceems_relstore::{Column, ColumnType, Db, Query, Schema, Value};

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

fn matchers_to_json(matchers: &[LabelMatcher]) -> String {
    let items: Vec<serde_json::Value> = matchers
        .iter()
        .map(|m| {
            serde_json::json!({
                "name": m.name,
                "op": m.op.as_str(),
                "value": m.value,
            })
        })
        .collect();
    serde_json::to_string(&items).unwrap_or_else(|_| "[]".into())
}

fn matchers_from_json(s: &str) -> Vec<LabelMatcher> {
    let Ok(items) = serde_json::from_str::<Vec<serde_json::Value>>(s) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|item| {
            let name = item["name"].as_str()?;
            let value = item["value"].as_str()?;
            let op = match item["op"].as_str()? {
                "=" => MatchOp::Eq,
                "!=" => MatchOp::Ne,
                "=~" => MatchOp::Re,
                "!~" => MatchOp::Nre,
                _ => return None,
            };
            LabelMatcher::new(name, op, value).ok()
        })
        .collect()
}

/// The durable store. All mutation goes through the relstore WAL, so a
/// crash between ticks replays to the same state.
pub struct AlertStore {
    db: Db,
}

const T_ALERTS: &str = "alert_state";
const T_GROUPS: &str = "alert_groups";
const T_SILENCES: &str = "alert_silences";

impl AlertStore {
    /// Opens (or creates) the store under `dir`.
    pub fn open(dir: &Path) -> Result<AlertStore, String> {
        let mut db = Db::open(dir).map_err(|e| format!("alert store: {e}"))?;
        db.create_table(
            T_ALERTS,
            Schema::new(
                vec![
                    Column::required("fingerprint", ColumnType::Text),
                    Column::required("rule", ColumnType::Text),
                    Column::required("labels", ColumnType::Text),
                    Column::required("state", ColumnType::Text),
                    Column::required("active_since_ms", ColumnType::Int),
                    Column::nullable("firing_since_ms", ColumnType::Int),
                    Column::nullable("resolved_at_ms", ColumnType::Int),
                    Column::required("value", ColumnType::Real),
                ],
                "fingerprint",
                &["rule"],
            )
            .map_err(|e| format!("alert store schema: {e}"))?,
        )
        .map_err(|e| format!("alert store: {e}"))?;
        db.create_table(
            T_GROUPS,
            Schema::new(
                vec![
                    Column::required("key", ColumnType::Text),
                    Column::required("sink", ColumnType::Text),
                    Column::required("first_active_ms", ColumnType::Int),
                    Column::nullable("last_notified_ms", ColumnType::Int),
                    Column::nullable("next_attempt_ms", ColumnType::Int),
                    Column::required("last_hash", ColumnType::Text),
                ],
                "key",
                &[],
            )
            .map_err(|e| format!("alert store schema: {e}"))?,
        )
        .map_err(|e| format!("alert store: {e}"))?;
        db.create_table(
            T_SILENCES,
            Schema::new(
                vec![
                    Column::required("id", ColumnType::Text),
                    Column::required("matchers", ColumnType::Text),
                    Column::required("ends_ms", ColumnType::Int),
                    Column::required("comment", ColumnType::Text),
                ],
                "id",
                &[],
            )
            .map_err(|e| format!("alert store schema: {e}"))?,
        )
        .map_err(|e| format!("alert store: {e}"))?;
        Ok(AlertStore { db })
    }

    /// All persisted alerts, keyed by fingerprint.
    pub fn load_alerts(&self) -> BTreeMap<String, AlertInstance> {
        let mut out = BTreeMap::new();
        let Ok(rows) = self.db.query(T_ALERTS, &Query::all()) else {
            return out;
        };
        for row in rows {
            let fingerprint = row[0].as_text().unwrap_or("").to_string();
            let Some(state) = AlertState::parse(row[3].as_text().unwrap_or("")) else {
                continue;
            };
            out.insert(
                fingerprint.clone(),
                AlertInstance {
                    fingerprint,
                    rule: row[1].as_text().unwrap_or("").to_string(),
                    labels: labels_from_json(row[2].as_text().unwrap_or("")),
                    state,
                    active_since_ms: row[4].as_int().unwrap_or(0),
                    firing_since_ms: row[5].as_int(),
                    resolved_at_ms: row[6].as_int(),
                    value: row[7].as_real().unwrap_or(0.0),
                },
            );
        }
        out
    }

    /// Upserts one alert.
    pub fn save_alert(&mut self, a: &AlertInstance) -> Result<(), String> {
        self.db
            .upsert(
                T_ALERTS,
                vec![
                    Value::Text(a.fingerprint.clone()),
                    Value::Text(a.rule.clone()),
                    Value::Text(labels_to_json(&a.labels)),
                    Value::Text(a.state.as_str().to_string()),
                    Value::Int(a.active_since_ms),
                    a.firing_since_ms.map_or(Value::Null, Value::Int),
                    a.resolved_at_ms.map_or(Value::Null, Value::Int),
                    Value::Real(a.value),
                ],
            )
            .map_err(|e| format!("alert store: {e}"))
    }

    /// Deletes an alert (post-resolution GC).
    pub fn delete_alert(&mut self, fingerprint: &str) {
        let _ = self.db.delete(T_ALERTS, &Value::Text(fingerprint.into()));
    }

    /// All persisted group states, keyed by group key.
    pub fn load_groups(&self) -> BTreeMap<String, GroupState> {
        let mut out = BTreeMap::new();
        let Ok(rows) = self.db.query(T_GROUPS, &Query::all()) else {
            return out;
        };
        for row in rows {
            let key = row[0].as_text().unwrap_or("").to_string();
            out.insert(
                key.clone(),
                GroupState {
                    key,
                    sink: row[1].as_text().unwrap_or("").to_string(),
                    first_active_ms: row[2].as_int().unwrap_or(0),
                    last_notified_ms: row[3].as_int(),
                    next_attempt_ms: row[4].as_int(),
                    last_hash: row[5].as_text().unwrap_or("").to_string(),
                },
            );
        }
        out
    }

    /// Upserts one group state.
    pub fn save_group(&mut self, g: &GroupState) -> Result<(), String> {
        self.db
            .upsert(
                T_GROUPS,
                vec![
                    Value::Text(g.key.clone()),
                    Value::Text(g.sink.clone()),
                    Value::Int(g.first_active_ms),
                    g.last_notified_ms.map_or(Value::Null, Value::Int),
                    g.next_attempt_ms.map_or(Value::Null, Value::Int),
                    Value::Text(g.last_hash.clone()),
                ],
            )
            .map_err(|e| format!("alert store: {e}"))
    }

    /// Deletes a group state.
    pub fn delete_group(&mut self, key: &str) {
        let _ = self.db.delete(T_GROUPS, &Value::Text(key.into()));
    }

    /// All persisted silences, keyed by id.
    pub fn load_silences(&self) -> BTreeMap<String, Silence> {
        let mut out = BTreeMap::new();
        let Ok(rows) = self.db.query(T_SILENCES, &Query::all()) else {
            return out;
        };
        for row in rows {
            let id = row[0].as_text().unwrap_or("").to_string();
            out.insert(
                id.clone(),
                Silence {
                    id,
                    matchers: matchers_from_json(row[1].as_text().unwrap_or("")),
                    ends_ms: row[2].as_int().unwrap_or(0),
                    comment: row[3].as_text().unwrap_or("").to_string(),
                },
            );
        }
        out
    }

    /// Upserts one silence.
    pub fn save_silence(&mut self, s: &Silence) -> Result<(), String> {
        self.db
            .upsert(
                T_SILENCES,
                vec![
                    Value::Text(s.id.clone()),
                    Value::Text(matchers_to_json(&s.matchers)),
                    Value::Int(s.ends_ms),
                    Value::Text(s.comment.clone()),
                ],
            )
            .map_err(|e| format!("alert store: {e}"))
    }

    /// Deletes a silence.
    pub fn delete_silence(&mut self, id: &str) -> bool {
        self.db
            .delete(T_SILENCES, &Value::Text(id.into()))
            .unwrap_or(false)
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
            store.save_alert(&a).unwrap();
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
        {
            let mut store = AlertStore::open(&dir).unwrap();
            store
                .save_group(&GroupState {
                    key: "default:{alertname=\"X\"}".into(),
                    sink: "webhook".into(),
                    first_active_ms: 5,
                    last_notified_ms: Some(100),
                    next_attempt_ms: None,
                    last_hash: "abc".into(),
                })
                .unwrap();
            store
                .save_silence(&Silence {
                    id: "s1".into(),
                    matchers: vec![LabelMatcher::eq("alertname", "X")],
                    ends_ms: 10_000,
                    comment: "maintenance".into(),
                })
                .unwrap();
        }
        let mut store = AlertStore::open(&dir).unwrap();
        let groups = store.load_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(
            groups.values().next().unwrap().last_notified_ms,
            Some(100)
        );
        let silences = store.load_silences();
        let s = &silences["s1"];
        assert!(s.matches(&labels! {"alertname" => "X"}, 9_999));
        assert!(!s.matches(&labels! {"alertname" => "X"}, 10_000), "expired");
        assert!(!s.matches(&labels! {"alertname" => "Y"}, 0));
        assert!(store.delete_silence("s1"));
        assert!(!store.delete_silence("s1"));
        std::fs::remove_dir_all(&dir).ok();
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
