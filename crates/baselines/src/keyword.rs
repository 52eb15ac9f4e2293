//! Shared keyword machinery for the rule-based baselines: column/table
//! mention detection, chart-type phrase detection, aggregate words and
//! simple comparative-filter patterns.

use nv_ast::{AggFunc, ChartType, CmpOp};
use nv_data::{ColumnType, Database, Table};

/// A column mentioned in the NL, with its match position (for ordering).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMention {
    pub table: String,
    pub column: String,
    pub ctype: ColumnType,
    pub position: usize,
}

/// Find columns whose display name ("credit limit" for `credit_limit`)
/// occurs in the NL. When several tables match, the table with the most
/// matches wins (keyword systems cannot join).
pub fn match_columns(nl: &str, db: &Database) -> Vec<ColumnMention> {
    let nl_lower = format!(" {} ", nl.to_lowercase());
    let mut per_table: Vec<(usize, Vec<ColumnMention>)> = Vec::new();
    for table in &db.tables {
        let mentions = table_mentions(&nl_lower, table);
        let table_named = nl_lower.contains(&display(table.name()));
        let score = mentions.len() * 2 + usize::from(table_named);
        per_table.push((score, mentions));
    }
    per_table
        .into_iter()
        .max_by_key(|(score, m)| (*score, m.len()))
        .map(|(_, mut m)| {
            m.sort_by_key(|c| c.position);
            m
        })
        .unwrap_or_default()
}

fn table_mentions(nl_lower: &str, table: &Table) -> Vec<ColumnMention> {
    let mut out = Vec::new();
    for col in &table.schema.columns {
        let name = display(&col.name);
        // Short generic names ("id") match too eagerly; require length ≥ 3.
        if name.len() < 3 {
            continue;
        }
        if let Some(pos) = nl_lower.find(&name) {
            out.push(ColumnMention {
                table: table.name().to_string(),
                column: col.name.clone(),
                ctype: col.ctype,
                position: pos,
            });
        }
    }
    out
}

fn display(ident: &str) -> String {
    ident.replace('_', " ").to_lowercase()
}

/// Detect an explicitly requested chart type, or infer one from implicit
/// phrases ("proportion" ⇒ pie, "trend" ⇒ line, "correlation" ⇒ scatter).
pub fn detect_chart(nl: &str) -> Option<ChartType> {
    let s = nl.to_lowercase();
    let has = |p: &str| s.contains(p);
    if has("stacked bar") {
        return Some(ChartType::StackedBar);
    }
    if has("grouping line") {
        return Some(ChartType::GroupingLine);
    }
    if has("grouping scatter") {
        return Some(ChartType::GroupingScatter);
    }
    if has("pie") || has("proportion") || has("share of") || has("percentage") {
        return Some(ChartType::Pie);
    }
    if has("line chart") || has("line graph") || has("trend") || has("over time") {
        return Some(ChartType::Line);
    }
    if has("scatter") || has("correlation") || has("relationship between") {
        return Some(ChartType::Scatter);
    }
    if has("bar") || has("histogram") {
        return Some(ChartType::Bar);
    }
    None
}

/// Detect an aggregate request.
pub fn detect_agg(nl: &str) -> Option<AggFunc> {
    let s = nl.to_lowercase();
    if s.contains("average") || s.contains("mean ") {
        Some(AggFunc::Avg)
    } else if s.contains("total") || s.contains("sum of") || s.contains("overall") {
        Some(AggFunc::Sum)
    } else if s.contains("maximum") || s.contains("highest") || s.contains("largest") {
        Some(AggFunc::Max)
    } else if s.contains("minimum") || s.contains("lowest") || s.contains("smallest") {
        Some(AggFunc::Min)
    } else if s.contains("how many") || s.contains("number of") || s.contains("count") {
        Some(AggFunc::Count)
    } else {
        None
    }
}

/// Detect a simple comparative filter: "(above|greater than|more than|below|
/// less than|under) \<number>" against a quantitative mention.
pub fn detect_numeric_filter(nl: &str) -> Option<(CmpOp, f64)> {
    let s = nl.to_lowercase();
    let words: Vec<&str> = s.split_whitespace().collect();
    for (i, w) in words.iter().enumerate() {
        let op = match *w {
            "above" | "over" | "exceeding" => Some(CmpOp::Gt),
            "below" | "under" => Some(CmpOp::Lt),
            "than" if i > 0 && (words[i - 1] == "greater" || words[i - 1] == "more") => {
                Some(CmpOp::Gt)
            }
            "than" if i > 0 && (words[i - 1] == "less" || words[i - 1] == "fewer") => {
                Some(CmpOp::Lt)
            }
            _ => None,
        };
        if let Some(op) = op {
            // The next number-shaped word is the operand.
            for w2 in &words[i + 1..] {
                let t = w2.trim_matches(|c: char| !c.is_ascii_digit() && c != '.' && c != '-');
                if let Ok(n) = t.parse::<f64>() {
                    return Some((op, n));
                }
            }
        }
    }
    None
}

/// Detect an explicit sort request.
pub fn detect_order_desc(nl: &str) -> Option<bool> {
    let s = nl.to_lowercase();
    if s.contains("descending") || s.contains("high to low") || s.contains("decreasing") {
        Some(true)
    } else if s.contains("ascending") || s.contains("low to high") || s.contains("increasing") {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_data::{table_from, Value};

    fn db() -> Database {
        let mut db = Database::new("d", "Demo");
        db.add_table(table_from(
            "employee",
            &[
                ("employee_name", ColumnType::Categorical),
                ("salary", ColumnType::Quantitative),
                ("title", ColumnType::Categorical),
                ("id", ColumnType::Categorical),
            ],
            vec![vec![
                Value::text("a"),
                Value::Int(100),
                Value::text("engineer"),
                Value::Int(1),
            ]],
        ));
        db.add_table(table_from(
            "company",
            &[
                ("company_name", ColumnType::Categorical),
                ("revenue", ColumnType::Quantitative),
            ],
            vec![vec![Value::text("x"), Value::Int(5)]],
        ));
        db
    }

    #[test]
    fn matches_columns_of_best_table() {
        let m = match_columns("What is the average salary for each title?", &db());
        assert_eq!(m.len(), 2);
        assert!(m.iter().all(|c| c.table == "employee"));
        // Sorted by position: salary appears before title.
        assert_eq!(m[0].column, "salary");
        assert_eq!(m[1].column, "title");
    }

    #[test]
    fn short_names_ignored() {
        let m = match_columns("the id of things", &db());
        assert!(m.iter().all(|c| c.column != "id"));
    }

    #[test]
    fn chart_detection() {
        assert_eq!(detect_chart("show a pie chart"), Some(ChartType::Pie));
        assert_eq!(detect_chart("the proportion of users"), Some(ChartType::Pie));
        assert_eq!(detect_chart("trend of sales"), Some(ChartType::Line));
        assert_eq!(detect_chart("correlation between x and y"), Some(ChartType::Scatter));
        assert_eq!(detect_chart("a stacked bar of sales"), Some(ChartType::StackedBar));
        assert_eq!(detect_chart("draw a bar graph"), Some(ChartType::Bar));
        assert_eq!(detect_chart("just the data"), None);
    }

    #[test]
    fn agg_detection() {
        assert_eq!(detect_agg("average salary"), Some(AggFunc::Avg));
        assert_eq!(detect_agg("the total revenue"), Some(AggFunc::Sum));
        assert_eq!(detect_agg("how many employees"), Some(AggFunc::Count));
        assert_eq!(detect_agg("highest gpa"), Some(AggFunc::Max));
        assert_eq!(detect_agg("the smallest budget"), Some(AggFunc::Min));
        assert_eq!(detect_agg("plain listing"), None);
    }

    #[test]
    fn numeric_filter_detection() {
        assert_eq!(
            detect_numeric_filter("salary greater than 1000 dollars"),
            Some((CmpOp::Gt, 1000.0))
        );
        assert_eq!(detect_numeric_filter("price under 3.5"), Some((CmpOp::Lt, 3.5)));
        assert_eq!(detect_numeric_filter("above 70,"), Some((CmpOp::Gt, 70.0)));
        assert_eq!(detect_numeric_filter("nothing to see"), None);
    }

    #[test]
    fn order_detection() {
        assert_eq!(detect_order_desc("sorted in descending order"), Some(true));
        assert_eq!(detect_order_desc("from low to high"), Some(false));
        assert_eq!(detect_order_desc("unsorted"), None);
    }
}
