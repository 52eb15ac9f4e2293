//! In-memory tables and databases.

use crate::schema::{Column, ColumnType, ForeignKey, TableSchema};
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// A row-oriented in-memory table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    pub schema: TableSchema,
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Table {
        Table { schema, rows: Vec::new() }
    }

    /// Build a table, validating that every row has the schema's arity.
    pub fn with_rows(schema: TableSchema, rows: Vec<Vec<Value>>) -> Result<Table, String> {
        let arity = schema.columns.len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != arity {
                return Err(format!(
                    "row {i} of table '{}' has {} values, schema has {arity} columns",
                    schema.name,
                    r.len()
                ));
            }
        }
        Ok(Table { schema, rows })
    }

    pub fn name(&self) -> &str {
        &self.schema.name
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn n_cols(&self) -> usize {
        self.schema.columns.len()
    }

    pub fn push_row(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.n_cols());
        self.rows.push(row);
    }

    /// All values of one column, by index.
    pub fn column_values(&self, idx: usize) -> Vec<Value> {
        self.rows.iter().map(|r| r[idx].clone()).collect()
    }

    /// All values of one column, by name.
    pub fn column_values_by_name(&self, name: &str) -> Option<Vec<Value>> {
        self.schema.column_index(name).map(|i| self.column_values(i))
    }

    /// Re-infer every column's C/T/Q class from the stored data.
    pub fn infer_column_types(&mut self) {
        for i in 0..self.n_cols() {
            let vals = self.column_values(i);
            self.schema.columns[i].ctype = ColumnType::infer(&vals);
        }
    }
}

/// A named database: a set of tables, foreign keys and a domain tag
/// (nvBench groups its 153 databases into 105 domains).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Database {
    pub name: String,
    pub domain: String,
    pub tables: Vec<Table>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl Database {
    pub fn new(name: impl Into<String>, domain: impl Into<String>) -> Database {
        Database {
            name: name.into(),
            domain: domain.into(),
            tables: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find(|t| t.name().eq_ignore_ascii_case(name))
    }

    pub fn add_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    pub fn add_foreign_key(
        &mut self,
        from_table: &str,
        from_column: &str,
        to_table: &str,
        to_column: &str,
    ) {
        self.foreign_keys.push(ForeignKey {
            from_table: from_table.into(),
            from_column: from_column.into(),
            to_table: to_table.into(),
            to_column: to_column.into(),
        });
    }

    /// Resolve a column's class; `*` counts as categorical.
    pub fn column_type(&self, table: &str, column: &str) -> Option<ColumnType> {
        if column == "*" {
            return Some(ColumnType::Categorical);
        }
        self.table(table)?.schema.column(column).map(|c| c.ctype)
    }

    /// The flat list of (table, column) pairs — the schema sequence the
    /// seq2vis encoder appends to the NL input.
    pub fn schema_tokens(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.tables {
            for c in &t.schema.columns {
                out.push(format!("{}.{}", t.name(), c.name));
            }
        }
        out
    }
}

/// Convenience builder for tests and examples.
pub fn table_from(
    name: &str,
    cols: &[(&str, ColumnType)],
    rows: Vec<Vec<Value>>,
) -> Table {
    let schema = TableSchema::new(
        name,
        cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
    );
    Table::with_rows(schema, rows).expect("row arity")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        table_from(
            "people",
            &[
                ("name", ColumnType::Categorical),
                ("age", ColumnType::Quantitative),
            ],
            vec![
                vec![Value::text("ann"), Value::Int(30)],
                vec![Value::text("bob"), Value::Int(41)],
                vec![Value::text("cat"), Value::Int(30)],
            ],
        )
    }

    #[test]
    fn arity_validation() {
        let schema = TableSchema::new("t", vec![Column::categorical("a")]);
        let err = Table::with_rows(schema, vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(err.is_err());
    }

    #[test]
    fn distinct_and_columns() {
        let t = people();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(
            t.column_values_by_name("age").unwrap(),
            vec![Value::Int(30), Value::Int(41), Value::Int(30)]
        );
        assert!(t.column_values_by_name("ghost").is_none());
    }

    #[test]
    fn infer_types_updates_schema() {
        let mut t = table_from(
            "t",
            &[("x", ColumnType::Categorical)],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        t.infer_column_types();
        assert_eq!(t.schema.columns[0].ctype, ColumnType::Quantitative);
    }

    #[test]
    fn database_lookup_and_fk() {
        let mut db = Database::new("uni", "College");
        db.add_table(people());
        db.add_table(table_from(
            "dept",
            &[("id", ColumnType::Quantitative)],
            vec![vec![Value::Int(1)]],
        ));
        db.add_foreign_key("people", "dept_id", "dept", "id");
        assert_eq!(db.foreign_keys[0].to_table, "dept");
        assert!(db.table("PEOPLE").is_some());
        assert_eq!(db.column_type("people", "age"), Some(ColumnType::Quantitative));
        assert_eq!(db.column_type("people", "*"), Some(ColumnType::Categorical));
        assert_eq!(db.schema_tokens()[0], "people.name");
    }
}
