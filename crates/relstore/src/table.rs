//! In-memory tables with a primary-key BTree and secondary indices.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::schema::{Schema, SchemaError};
use crate::value::{Row, Value};

/// A table: rows keyed by primary key, plus secondary indices mapping an
/// indexed column value to the set of primary keys carrying it.
///
/// Serialisation stores only the schema and rows (JSON object keys must be
/// strings, and indices are derived data anyway); indices are rebuilt on
/// deserialisation.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(from = "TableData", into = "TableData")]
pub struct Table {
    schema: Schema,
    rows: BTreeMap<Value, Row>,
    indices: BTreeMap<String, BTreeMap<Value, BTreeSet<Value>>>,
}

#[derive(Serialize, Deserialize)]
struct TableData {
    schema: Schema,
    rows: Vec<Row>,
}

impl From<Table> for TableData {
    fn from(t: Table) -> TableData {
        TableData {
            schema: t.schema,
            rows: t.rows.into_values().collect(),
        }
    }
}

impl From<TableData> for Table {
    fn from(d: TableData) -> Table {
        let mut t = Table::new(d.schema);
        for row in d.rows {
            // Rows were validated before they were stored.
            let _ = t.upsert(row);
        }
        t
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Table {
        let indices = schema
            .indexed
            .iter()
            .map(|name| (name.clone(), BTreeMap::new()))
            .collect();
        Table {
            schema,
            rows: BTreeMap::new(),
            indices,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts or replaces a row (validated against the schema). Returns the
    /// previous row if one existed.
    pub fn upsert(&mut self, row: Row) -> Result<Option<Row>, SchemaError> {
        let row = self.schema.validate(row)?;
        let pk = self.schema.pk_of(&row);
        let (row, old) = match self.rows.entry(pk.clone()) {
            Entry::Occupied(e) => {
                let slot = e.into_mut();
                let old = std::mem::replace(slot, row);
                (&*slot, Some(old))
            }
            Entry::Vacant(e) => (&*e.insert(row), None),
        };
        // A row keeps its index entries where the indexed value is unchanged.
        for (col_name, idx) in self.indices.iter_mut() {
            let ci = self
                .schema
                .col(col_name)
                .expect("index column validated at schema build");
            if let Some(old) = &old {
                if old[ci] == row[ci] {
                    continue;
                }
                drop_pk(idx, &old[ci], &pk);
            }
            idx.entry(row[ci].clone()).or_default().insert(pk.clone());
        }
        Ok(old)
    }

    /// Deletes by primary key, returning the row if present.
    pub fn delete(&mut self, pk: &Value) -> Option<Row> {
        let row = self.rows.remove(pk)?;
        self.unindex(pk, &row);
        Some(row)
    }

    /// Point lookup by primary key.
    pub fn get(&self, pk: &Value) -> Option<&Row> {
        self.rows.get(pk)
    }

    /// Iterates all rows in primary-key order.
    pub fn scan(&self) -> impl Iterator<Item = &Row> {
        self.rows.values()
    }

    /// Looks up primary keys by an indexed column value (O(log n)); falls
    /// back to `None` for non-indexed columns (the query layer scans then).
    pub fn index_lookup(&self, column: &str, value: &Value) -> Option<Vec<&Row>> {
        let idx = self.indices.get(column)?;
        Some(
            idx.get(value)
                .map(|pks| pks.iter().filter_map(|pk| self.rows.get(pk)).collect())
                .unwrap_or_default(),
        )
    }

    fn unindex(&mut self, pk: &Value, row: &Row) {
        for (col_name, idx) in self.indices.iter_mut() {
            let ci = self
                .schema
                .col(col_name)
                .expect("index column validated at schema build");
            drop_pk(idx, &row[ci], pk);
        }
    }
}

/// Removes `pk` from the index entry of `value`, and the entry once empty.
fn drop_pk(idx: &mut BTreeMap<Value, BTreeSet<Value>>, value: &Value, pk: &Value) {
    if let Some(set) = idx.get_mut(value) {
        set.remove(pk);
        if set.is_empty() {
            idx.remove(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn table() -> Table {
        Table::new(
            Schema::new(
                vec![
                    Column::required("uuid", ColumnType::Text),
                    Column::required("user", ColumnType::Text),
                    Column::required("energy", ColumnType::Real),
                ],
                "uuid",
                &["user"],
            )
            .unwrap(),
        )
    }

    fn row(uuid: &str, user: &str, energy: f64) -> Row {
        vec![uuid.into(), user.into(), energy.into()]
    }

    #[test]
    fn upsert_get_delete() {
        let mut t = table();
        assert!(t.upsert(row("j1", "alice", 1.0)).unwrap().is_none());
        assert!(t.upsert(row("j2", "bob", 2.0)).unwrap().is_none());
        assert_eq!(t.len(), 2);

        let old = t.upsert(row("j1", "alice", 5.0)).unwrap();
        assert_eq!(old.unwrap()[2], Value::Real(1.0));
        assert_eq!(t.get(&"j1".into()).unwrap()[2], Value::Real(5.0));

        assert!(t.delete(&"j1".into()).is_some());
        assert!(t.delete(&"j1".into()).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn secondary_index_tracks_mutations() {
        let mut t = table();
        t.upsert(row("j1", "alice", 1.0)).unwrap();
        t.upsert(row("j2", "alice", 2.0)).unwrap();
        t.upsert(row("j3", "bob", 3.0)).unwrap();

        let alice = t.index_lookup("user", &"alice".into()).unwrap();
        assert_eq!(alice.len(), 2);

        // Reassigning j2 to bob must move it between index buckets.
        t.upsert(row("j2", "bob", 2.0)).unwrap();
        assert_eq!(t.index_lookup("user", &"alice".into()).unwrap().len(), 1);
        assert_eq!(t.index_lookup("user", &"bob".into()).unwrap().len(), 2);
        // Rewriting j1 under the same user keeps it in its bucket.
        t.upsert(row("j1", "alice", 9.0)).unwrap();
        let alice = t.index_lookup("user", &"alice".into()).unwrap();
        assert_eq!((alice.len(), &alice[0][2]), (1, &Value::Real(9.0)));

        t.delete(&"j3".into());
        assert_eq!(t.index_lookup("user", &"bob".into()).unwrap().len(), 1);

        // Non-indexed column has no index.
        assert!(t.index_lookup("energy", &Value::Real(1.0)).is_none());
        // Missing value yields empty vec, not None.
        assert_eq!(t.index_lookup("user", &"carol".into()).unwrap().len(), 0);
    }

    #[test]
    fn scan_is_pk_ordered() {
        let mut t = table();
        t.upsert(row("c", "u", 1.0)).unwrap();
        t.upsert(row("a", "u", 2.0)).unwrap();
        t.upsert(row("b", "u", 3.0)).unwrap();
        let keys: Vec<String> = t
            .scan()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn serde_roundtrip_preserves_indices() {
        let mut t = table();
        t.upsert(row("j1", "alice", 1.0)).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.index_lookup("user", &"alice".into()).unwrap().len(), 1);
    }
}
