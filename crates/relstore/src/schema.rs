//! Table schemas.

use serde::{Deserialize, Serialize};

use crate::value::{Row, Value};

/// Declared column type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float (Ints are accepted and coerced on validation).
    Real,
    /// UTF-8 text.
    Text,
}

impl ColumnType {
    fn accepts(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Real, Value::Real(_))
                | (ColumnType::Real, Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
        )
    }
}

/// A column definition.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl Column {
    /// Non-nullable column.
    pub fn required(name: &str, ty: ColumnType) -> Column {
        Column {
            name: name.to_string(),
            ty,
            nullable: false,
        }
    }

    /// Nullable column.
    pub fn nullable(name: &str, ty: ColumnType) -> Column {
        Column {
            name: name.to_string(),
            ty,
            nullable: true,
        }
    }
}

/// A table schema: ordered columns, one primary key column, optional
/// secondary index columns.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Columns in storage order.
    pub columns: Vec<Column>,
    /// Index into `columns` of the primary key.
    pub primary_key: usize,
    /// Names of secondary-indexed columns.
    pub indexed: Vec<String>,
}

/// Schema / row validation error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

impl Schema {
    /// Builds and validates a schema. `primary_key` names the key column.
    pub fn new(
        columns: Vec<Column>,
        primary_key: &str,
        indexed: &[&str],
    ) -> Result<Schema, SchemaError> {
        let pk = columns
            .iter()
            .position(|c| c.name == primary_key)
            .ok_or_else(|| SchemaError(format!("primary key {primary_key:?} not a column")))?;
        Schema {
            columns,
            primary_key: pk,
            indexed: indexed.iter().map(|s| s.to_string()).collect(),
        }
        .checked()
    }

    /// The schema, if [`Schema::new`] could have built it: a replayed
    /// `Create` record is input the process did not write itself.
    pub(crate) fn checked(self) -> Result<Schema, SchemaError> {
        let columns = &self.columns;
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(SchemaError(format!("duplicate column {:?}", c.name)));
            }
        }
        match columns.get(self.primary_key) {
            None => return Err(SchemaError("primary key not a column".into())),
            Some(pk) if pk.nullable => {
                return Err(SchemaError("primary key must be non-nullable".into()))
            }
            Some(_) => {}
        }
        if let Some(idx) = self.indexed.iter().find(|idx| self.col(idx).is_none()) {
            return Err(SchemaError(format!("indexed column {idx:?} not a column")));
        }
        Ok(self)
    }

    /// Index of a column by name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validates a row against the schema, coercing Int→Real where declared.
    pub fn validate(&self, mut row: Row) -> Result<Row, SchemaError> {
        if row.len() != self.columns.len() {
            return Err(SchemaError(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (i, col) in self.columns.iter().enumerate() {
            let v = &mut row[i];
            if v.is_null() {
                if !col.nullable {
                    return Err(SchemaError(format!("column {:?} is not nullable", col.name)));
                }
                continue;
            }
            if !col.ty.accepts(v) {
                return Err(SchemaError(format!(
                    "column {:?} expects {:?}, got {:?}",
                    col.name, col.ty, v
                )));
            }
            if col.ty == ColumnType::Real {
                if let Value::Int(iv) = *v {
                    *v = Value::Real(iv as f64);
                }
            }
        }
        Ok(row)
    }

    /// Extracts the primary key of a validated row.
    pub fn pk_of(&self, row: &Row) -> Value {
        row[self.primary_key].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(
            vec![
                Column::required("uuid", ColumnType::Text),
                Column::required("user", ColumnType::Text),
                Column::nullable("energy_kwh", ColumnType::Real),
                Column::required("ncpus", ColumnType::Int),
            ],
            "uuid",
            &["user"],
        )
        .unwrap()
    }

    #[test]
    fn valid_rows_pass_and_coerce() {
        let s = sample();
        let row = s
            .validate(vec![
                "j1".into(),
                "alice".into(),
                Value::Int(3),
                Value::Int(8),
            ])
            .unwrap();
        // energy_kwh column coerced Int -> Real.
        assert_eq!(row[2], Value::Real(3.0));
        assert!(matches!(row[2], Value::Real(_)));
    }

    #[test]
    fn invalid_rows_rejected() {
        let s = sample();
        assert!(s.validate(vec!["j1".into(), "alice".into()]).is_err());
        assert!(s
            .validate(vec![Value::Null, "a".into(), Value::Null, Value::Int(1)])
            .is_err());
        assert!(s
            .validate(vec!["j".into(), "a".into(), Value::Null, "x".into()])
            .is_err());
    }

    #[test]
    fn bad_schemas_rejected() {
        assert!(Schema::new(vec![], "x", &[]).is_err());
        assert!(Schema::new(
            vec![Column::required("a", ColumnType::Int)],
            "missing",
            &[]
        )
        .is_err());
        assert!(Schema::new(
            vec![Column::nullable("a", ColumnType::Int)],
            "a",
            &[]
        )
        .is_err());
        assert!(Schema::new(
            vec![
                Column::required("a", ColumnType::Int),
                Column::required("a", ColumnType::Int)
            ],
            "a",
            &[]
        )
        .is_err());
        assert!(Schema::new(
            vec![Column::required("a", ColumnType::Int)],
            "a",
            &["nope"]
        )
        .is_err());
    }

    #[test]
    fn pk_extraction() {
        let s = sample();
        let row = s
            .validate(vec!["j9".into(), "bob".into(), Value::Null, Value::Int(1)])
            .unwrap();
        assert_eq!(s.pk_of(&row), Value::Text("j9".into()));
    }
}
