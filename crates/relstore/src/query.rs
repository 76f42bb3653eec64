//! Filters and queries.
//!
//! This is the slice of SQL the CEEMS API server actually issues: filtered
//! selects over one table and ordered/limited listings (Fig. 2b). The usage
//! rollups behind Fig. 2a are one pass over `Table::scan` in the updater.

use crate::table::Table;
use crate::value::{Row, Value};

/// A row predicate.
#[derive(Clone, Debug)]
pub enum Filter {
    /// Always true.
    True,
    /// `col = v`
    Eq(String, Value),
    /// `col < v`
    Lt(String, Value),
    /// `col > v`
    Gt(String, Value),
    /// `col >= v`
    Ge(String, Value),
    /// Conjunction.
    And(Vec<Filter>),
}

impl Filter {
    /// Evaluates the predicate against a row of `table`'s schema. Unknown
    /// columns never match (comparisons against a missing column are false).
    pub fn eval(&self, table: &Table, row: &Row) -> bool {
        match self {
            Filter::True => true,
            Filter::Eq(c, v) => cmp(table, row, c, |o| o == std::cmp::Ordering::Equal, v),
            Filter::Lt(c, v) => cmp(table, row, c, |o| o == std::cmp::Ordering::Less, v),
            Filter::Gt(c, v) => cmp(table, row, c, |o| o == std::cmp::Ordering::Greater, v),
            Filter::Ge(c, v) => cmp(table, row, c, |o| o != std::cmp::Ordering::Less, v),
            Filter::And(fs) => fs.iter().all(|f| f.eval(table, row)),
        }
    }

    /// If the filter pins an indexed column to an exact value, returns it so
    /// the executor can use the index instead of a scan.
    fn index_hint<'f>(&'f self, table: &Table) -> Option<(&'f str, &'f Value)> {
        match self {
            Filter::Eq(c, v) if table.schema().indexed.iter().any(|i| i == c) => {
                Some((c.as_str(), v))
            }
            Filter::And(fs) => fs.iter().find_map(|f| f.index_hint(table)),
            _ => None,
        }
    }
}

fn cmp(
    table: &Table,
    row: &Row,
    col: &str,
    pred: impl Fn(std::cmp::Ordering) -> bool,
    v: &Value,
) -> bool {
    match table.schema().col(col) {
        Some(i) => pred(row[i].cmp(v)),
        None => false,
    }
}

/// Sort direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// A select query against one table.
#[derive(Clone, Debug)]
pub struct Query {
    /// Row predicate.
    pub filter: Filter,
    /// Optional `(column, direction)` sort.
    pub order_by: Option<(String, Order)>,
    /// Optional row limit (applied after sorting).
    pub limit: Option<usize>,
}

impl Default for Query {
    fn default() -> Self {
        Query {
            filter: Filter::True,
            order_by: None,
            limit: None,
        }
    }
}

impl Query {
    /// A query returning everything.
    pub fn all() -> Query {
        Query::default()
    }

    /// Sets the filter.
    pub fn filter(mut self, f: Filter) -> Query {
        self.filter = f;
        self
    }

    /// Sets the ordering.
    pub fn order_by(mut self, col: &str, order: Order) -> Query {
        self.order_by = Some((col.to_string(), order));
        self
    }

    /// Sets the limit.
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// Executes against a table.
    pub fn run(&self, table: &Table) -> Vec<Row> {
        // Use a secondary index when the filter pins one.
        let candidates: Vec<&Row> = match self.filter.index_hint(table) {
            Some((col, v)) => table
                .index_lookup(col, v)
                .expect("index_hint only returns indexed columns"),
            None => table.scan().collect(),
        };
        let mut rows: Vec<Row> = candidates
            .into_iter()
            .filter(|r| self.filter.eval(table, r))
            .cloned()
            .collect();

        if let Some((col, order)) = &self.order_by {
            if let Some(i) = table.schema().col(col) {
                rows.sort_by(|a, b| {
                    let o = a[i].cmp(&b[i]);
                    match order {
                        Order::Asc => o,
                        Order::Desc => o.reverse(),
                    }
                });
            }
        }
        if let Some(n) = self.limit {
            rows.truncate(n);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType, Schema};

    fn jobs_table() -> Table {
        let mut t = Table::new(
            Schema::new(
                vec![
                    Column::required("uuid", ColumnType::Text),
                    Column::required("user", ColumnType::Text),
                    Column::required("energy", ColumnType::Real),
                    Column::required("ncpus", ColumnType::Int),
                ],
                "uuid",
                &["user"],
            )
            .unwrap(),
        );
        for (uuid, user, energy, ncpus) in [
            ("j1", "alice", 10.0, 4),
            ("j2", "alice", 20.0, 8),
            ("j3", "bob", 5.0, 2),
            ("j4", "bob", 15.0, 16),
            ("j5", "carol", 50.0, 32),
        ] {
            t.upsert(vec![
                uuid.into(),
                user.into(),
                energy.into(),
                Value::Int(ncpus),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn filtered_select_with_index() {
        let t = jobs_table();
        let rows = Query::all()
            .filter(Filter::Eq("user".into(), "alice".into()))
            .run(&t);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn compound_filters() {
        let t = jobs_table();
        let rows = Query::all()
            .filter(Filter::And(vec![
                Filter::Ge("energy".into(), Value::Real(10.0)),
                Filter::Lt("ncpus".into(), Value::Int(32)),
            ]))
            .run(&t);
        assert_eq!(rows.len(), 3); // j1, j2, j4

        let rows = Query::all()
            .filter(Filter::And(vec![
                Filter::Gt("ncpus".into(), Value::Int(2)),
                Filter::Lt("ncpus".into(), Value::Int(16)),
            ]))
            .run(&t);
        assert_eq!(rows.len(), 2); // j1, j2
    }

    #[test]
    fn order_limit_project() {
        let t = jobs_table();
        let rows = Query::all()
            .order_by("energy", Order::Desc)
            .limit(2)
            .run(&t);
        let top: Vec<(&Value, &Value)> = rows.iter().map(|r| (&r[0], &r[2])).collect();
        assert_eq!(
            top,
            [
                (&Value::Text("j5".into()), &Value::Real(50.0)),
                (&Value::Text("j2".into()), &Value::Real(20.0)),
            ]
        );
    }

    #[test]
    fn unknown_columns_are_safe() {
        let t = jobs_table();
        let rows = Query::all()
            .filter(Filter::Eq("nope".into(), Value::Int(1)))
            .run(&t);
        assert!(rows.is_empty());
        let rows = Query::all().order_by("nope", Order::Asc).run(&t);
        assert_eq!(rows.len(), 5);
    }
}
