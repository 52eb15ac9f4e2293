//! # nv-data — relational engine substrate
//!
//! An in-memory relational database with typed values (including a
//! from-scratch calendar type), C/T/Q column classification, and a query
//! executor for the unified SQL/VIS AST of [`nv_ast`].
//!
//! The nvBench paper executes SQL and VIS queries against the Spider
//! databases in order to (a) render chart data, (b) extract DeepEye features
//! for chart-quality filtering, and (c) compute "result matching accuracy"
//! for the seq2vis evaluation. This crate provides all three capabilities.
//!
//! ```
//! use nv_data::{table_from, Database, ColumnType, Value, execute};
//! use nv_ast::tokens::parse_vql_str;
//!
//! let mut db = Database::new("demo", "Demo");
//! db.add_table(table_from(
//!     "faculty",
//!     &[("name", ColumnType::Categorical), ("sex", ColumnType::Categorical)],
//!     vec![
//!         vec![Value::text("ann"), Value::text("F")],
//!         vec![Value::text("bob"), Value::text("M")],
//!         vec![Value::text("cat"), Value::text("F")],
//!     ],
//! ));
//! let q = parse_vql_str(
//!     "visualize pie select faculty.sex , count ( faculty.* ) from faculty \
//!      group by faculty.sex",
//! ).unwrap();
//! let rs = execute(&db, &q).unwrap();
//! assert_eq!(rs.rows.len(), 2);
//! ```

pub mod csv;
pub mod exec;
pub mod schema;
pub mod table;
pub mod value;

pub use csv::{table_from_csv, CsvError};
pub use exec::{
    execute, execute_with, CacheStats, ExecBudget, ExecCache, ExecError, ExecOptions, ExecSpend,
    ResultSet,
};
pub use schema::{Column, ColumnType, ForeignKey, TableSchema};
pub use table::{table_from, Database, Table};
pub use value::{Timestamp, Value};
