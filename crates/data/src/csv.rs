//! Minimal CSV ingestion so downstream users can run the synthesizer over
//! their own data (the paper's pipeline, applied beyond Spider).
//!
//! Supports RFC-4180-style quoting (`"…"` fields with `""` escapes),
//! configurable delimiters, automatic value typing (int / float / timestamp
//! / text) and C/T/Q column-class inference.

use crate::schema::{Column, ColumnType, TableSchema};
use crate::table::Table;
use crate::value::{Timestamp, Value};

/// CSV parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CSV error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Parse one CSV record (quote-aware). Returns the fields.
fn split_record(line: &str, delim: char, line_no: usize) -> Result<Vec<String>, CsvError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else if c == '"' {
            if cur.is_empty() {
                in_quotes = true;
            } else {
                return Err(CsvError {
                    line: line_no,
                    message: "quote inside unquoted field".into(),
                });
            }
        } else if c == delim {
            fields.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    if in_quotes {
        return Err(CsvError { line: line_no, message: "unterminated quote".into() });
    }
    fields.push(cur);
    Ok(fields)
}

/// Type a raw CSV field: empty → null; else int, float, timestamp, text.
fn type_field(raw: &str) -> Value {
    let t = raw.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("null") || t.eq_ignore_ascii_case("na") {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        return Value::Float(f);
    }
    if let Some(ts) = Timestamp::parse(t) {
        return Value::Time(ts);
    }
    Value::Text(t.to_string())
}

/// Load a table from CSV text. The first record is the header; column
/// classes are inferred from the data.
pub fn table_from_csv(name: &str, csv: &str, delim: char) -> Result<Table, CsvError> {
    let mut lines = csv
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (hline, header) = lines
        .next()
        .ok_or(CsvError { line: 0, message: "empty input".into() })?;
    let names = split_record(header, delim, hline + 1)?;
    if names.iter().any(|n| n.trim().is_empty()) {
        return Err(CsvError { line: hline + 1, message: "empty column name".into() });
    }
    let arity = names.len();

    let mut rows: Vec<Vec<Value>> = Vec::new();
    for (i, line) in lines {
        let fields = split_record(line, delim, i + 1)?;
        if fields.len() != arity {
            return Err(CsvError {
                line: i + 1,
                message: format!("expected {arity} fields, found {}", fields.len()),
            });
        }
        rows.push(fields.iter().map(|f| type_field(f)).collect());
    }

    let schema = TableSchema {
        name: name.to_string(),
        columns: names
            .iter()
            .map(|n| Column::new(n.trim().replace(' ', "_"), ColumnType::Categorical))
            .collect(),
        primary_key: None,
    };
    let mut table = Table { schema, rows };
    table.infer_column_types();
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
name,age,city,joined,score
Ann,34,Boston,2020-01-05,91.5
Bob,28,\"New York, NY\",2019-11-20,78
\"O\"\"Hare\",41,Chicago,2021-06-30,
";

    #[test]
    fn loads_and_types_columns() {
        let t = table_from_csv("people", SAMPLE, ',').unwrap();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 5);
        assert_eq!(t.schema.column("age").unwrap().ctype, ColumnType::Quantitative);
        assert_eq!(t.schema.column("joined").unwrap().ctype, ColumnType::Temporal);
        assert_eq!(t.schema.column("city").unwrap().ctype, ColumnType::Categorical);
        assert_eq!(t.rows[1][2], Value::text("New York, NY"));
        assert_eq!(t.rows[2][0], Value::text("O\"Hare"));
        assert!(t.rows[2][4].is_null());
    }

    #[test]
    fn loaded_table_is_queryable() {
        use nv_ast::tokens::parse_vql_str;
        let t = table_from_csv("people", SAMPLE, ',').unwrap();
        let mut db = crate::table::Database::new("d", "Demo");
        db.add_table(t);
        let q = parse_vql_str("select people.name from people where people.age > 30").unwrap();
        let rs = crate::exec::execute(&db, &q).unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn alternative_delimiter() {
        let t = table_from_csv("t", "a;b\n1;x\n2;y\n", ';').unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.schema.columns[0].ctype, ColumnType::Quantitative);
    }

    #[test]
    fn header_spaces_become_underscores() {
        let t = table_from_csv("t", "first name,last name\na,b\n", ',').unwrap();
        assert_eq!(t.schema.columns[0].name, "first_name");
    }

    #[test]
    fn errors() {
        assert!(table_from_csv("t", "", ',').is_err());
        let e = table_from_csv("t", "a,b\n1\n", ',').unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        assert!(table_from_csv("t", "a,b\n\"open,2\n", ',').is_err());
        assert!(table_from_csv("t", "a,\n1,2\n", ',').is_err());
        assert!(table_from_csv("t", "a,b\nx\"y,2\n", ',').is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let t = table_from_csv("t", "a\n\n1\n\n2\n", ',').unwrap();
        assert_eq!(t.n_rows(), 2);
    }
}
