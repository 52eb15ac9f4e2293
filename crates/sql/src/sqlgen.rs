//! Render a unified AST back to a SQL string.
//!
//! Used by the synthetic Spider generator (`nv-spider`) to emit the SQL half
//! of each (NL, SQL) pair, and in tests to establish the round-trip property
//! `parse_sql(to_sql(q)) == q` for SQL trees.

use nv_ast::*;

/// Render a query (the `Visualize` node, if present, is ignored — SQL has no
/// chart clause).
pub fn to_sql(q: &VisQuery) -> String {
    set_query_sql(&q.query)
}

fn set_query_sql(q: &SetQuery) -> String {
    match q {
        SetQuery::Simple(b) => body_sql(b),
        SetQuery::Compound { op, left, right } => format!(
            "{} {} {}",
            body_sql(left),
            op.keyword().to_uppercase(),
            body_sql(right)
        ),
    }
}

fn body_sql(b: &QueryBody) -> String {
    let mut s = String::from("SELECT ");
    s.push_str(
        &b.select
            .iter()
            .map(attr_sql)
            .collect::<Vec<_>>()
            .join(", "),
    );
    s.push_str(" FROM ");
    s.push_str(b.from.first().map(String::as_str).unwrap_or(""));
    for j in &b.joins {
        s.push_str(&format!(
            " JOIN {} ON {} = {}",
            j.right.table,
            colref_sql(&j.left),
            colref_sql(&j.right)
        ));
    }

    // Split the merged filter back into WHERE and HAVING for valid SQL.
    let (where_p, having_p) = match &b.filter {
        Some(p) => p.split_where_having(),
        None => (None, None),
    };
    if let Some(p) = where_p {
        s.push_str(" WHERE ");
        s.push_str(&pred_sql(&p, false));
    }
    if let Some(g) = &b.group {
        if !g.group_by.is_empty() {
            s.push_str(" GROUP BY ");
            s.push_str(
                &g.group_by
                    .iter()
                    .map(colref_sql)
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        // A bin has no SQL spelling; the SQL projection of a binned VIS tree
        // groups by the raw column instead.
        if let (Some(bin), true) = (&g.bin, g.group_by.is_empty()) {
            s.push_str(" GROUP BY ");
            s.push_str(&colref_sql(&bin.col));
        }
    }
    if let Some(p) = having_p {
        s.push_str(" HAVING ");
        s.push_str(&pred_sql(&p, false));
    }
    if let Some(o) = &b.order {
        s.push_str(&format!(
            " ORDER BY {} {}",
            attr_sql(&o.attr),
            o.dir.keyword().to_uppercase()
        ));
    }
    if let Some(sup) = &b.superlative {
        let dir = match sup.dir {
            SuperDir::Most => "DESC",
            SuperDir::Least => "ASC",
        };
        s.push_str(&format!(" ORDER BY {} {} LIMIT {}", attr_sql(&sup.attr), dir, sup.k));
    }
    s
}

fn attr_sql(a: &Attr) -> String {
    if a.agg == AggFunc::None {
        colref_sql(&a.col)
    } else {
        let inner = if a.col.is_star() {
            "*".to_string()
        } else {
            colref_sql(&a.col)
        };
        let inner = if a.distinct { format!("DISTINCT {inner}") } else { inner };
        format!("{}({inner})", a.agg.keyword().to_uppercase())
    }
}

fn colref_sql(c: &ColumnRef) -> String {
    if c.is_star() {
        format!("{}.*", c.table)
    } else {
        format!("{}.{}", c.table, c.column)
    }
}

fn lit_sql(l: &Literal) -> String {
    match l {
        Literal::Null => "NULL".into(),
        Literal::Bool(b) => b.to_string().to_uppercase(),
        Literal::Int(i) => i.to_string(),
        Literal::Float(f) => format!("{f}"),
        Literal::Text(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

fn operand_sql(o: &Operand) -> String {
    match o {
        Operand::Lit(l) => lit_sql(l),
        Operand::List(ls) => format!(
            "({})",
            ls.iter().map(lit_sql).collect::<Vec<_>>().join(", ")
        ),
        Operand::Subquery(q) => format!("({})", set_query_sql(q)),
    }
}

fn pred_sql(p: &Predicate, parenthesize: bool) -> String {
    let s = match p {
        Predicate::And(l, r) => {
            format!("{} AND {}", pred_sql(l, true), pred_sql(r, true))
        }
        Predicate::Or(l, r) => format!("{} OR {}", pred_sql(l, true), pred_sql(r, true)),
        Predicate::Cmp { op, attr, rhs } => {
            format!("{} {} {}", attr_sql(attr), op.symbol(), operand_sql(rhs))
        }
        Predicate::Between { attr, low, high } => format!(
            "{} BETWEEN {} AND {}",
            attr_sql(attr),
            operand_sql(low),
            operand_sql(high)
        ),
        Predicate::Like { attr, pattern, negated } => format!(
            "{} {}LIKE '{}'",
            attr_sql(attr),
            if *negated { "NOT " } else { "" },
            pattern.replace('\'', "''")
        ),
        Predicate::In { attr, rhs, negated } => format!(
            "{} {}IN {}",
            attr_sql(attr),
            if *negated { "NOT " } else { "" },
            operand_sql(rhs)
        ),
    };
    if parenthesize && matches!(p, Predicate::And(..) | Predicate::Or(..)) {
        format!("({s})")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use nv_data::{table_from, ColumnType, Database, Value};

    fn db() -> Database {
        let mut db = Database::new("shop", "Shop");
        db.add_table(table_from(
            "orders",
            &[
                ("id", ColumnType::Quantitative),
                ("item", ColumnType::Categorical),
                ("price", ColumnType::Quantitative),
                ("placed", ColumnType::Temporal),
                ("cust_id", ColumnType::Quantitative),
            ],
            vec![vec![
                Value::Int(1),
                Value::text("pen"),
                Value::Int(2),
                Value::text("2020-02-02"),
                Value::Int(7),
            ]],
        ));
        db.add_table(table_from(
            "customer",
            &[
                ("cid", ColumnType::Quantitative),
                ("city", ColumnType::Categorical),
            ],
            vec![vec![Value::Int(7), Value::text("Doha")]],
        ));
        db
    }

    #[test]
    fn render_group_count() {
        let d = db();
        let q = parse_sql(&d, "SELECT item, COUNT(*) FROM orders GROUP BY item").unwrap();
        assert_eq!(
            to_sql(&q),
            "SELECT orders.item, COUNT(*) FROM orders GROUP BY orders.item"
        );
    }

    #[test]
    fn sql_round_trip_property() {
        let d = db();
        for sql in [
            "SELECT item, COUNT(*) FROM orders GROUP BY item",
            "SELECT orders.item FROM orders JOIN customer ON orders.cust_id = customer.cid WHERE customer.city = 'Doha'",
            "SELECT item FROM orders WHERE price BETWEEN 1 AND 10 ORDER BY price DESC LIMIT 2",
            "SELECT item FROM orders WHERE item NOT IN ('pen', 'ink') OR price > 5",
            "SELECT item FROM orders INTERSECT SELECT item FROM orders WHERE price < 3",
            "SELECT item, AVG(price) FROM orders GROUP BY item HAVING COUNT(*) > 1",
        ] {
            let ast = parse_sql(&d, sql).unwrap();
            let rendered = to_sql(&ast);
            let back = parse_sql(&d, &rendered)
                .unwrap_or_else(|e| panic!("re-parse of `{rendered}` failed: {e}"));
            assert_eq!(back, ast, "{sql} → {rendered}");
        }
    }

    #[test]
    fn having_split_back_out() {
        let d = db();
        let ast = parse_sql(
            &d,
            "SELECT item, COUNT(*) FROM orders WHERE price > 1 GROUP BY item HAVING COUNT(*) > 2",
        )
        .unwrap();
        let s = to_sql(&ast);
        assert!(s.contains("WHERE orders.price > 1"), "{s}");
        assert!(s.contains("HAVING COUNT(*) > 2"), "{s}");
        let i_where = s.find("WHERE").unwrap();
        let i_group = s.find("GROUP BY").unwrap();
        let i_having = s.find("HAVING").unwrap();
        assert!(i_where < i_group && i_group < i_having);
    }

    #[test]
    fn superlative_renders_order_limit() {
        let d = db();
        let ast = parse_sql(&d, "SELECT item FROM orders ORDER BY price ASC LIMIT 1").unwrap();
        let s = to_sql(&ast);
        assert!(s.ends_with("ORDER BY orders.price ASC LIMIT 1"), "{s}");
    }

    #[test]
    fn literals_escape() {
        assert_eq!(lit_sql(&Literal::Text("O'Hare".into())), "'O''Hare'");
        assert_eq!(lit_sql(&Literal::Null), "NULL");
        assert_eq!(lit_sql(&Literal::Bool(true)), "TRUE");
        assert_eq!(lit_sql(&Literal::Float(1.5)), "1.5");
    }
}
