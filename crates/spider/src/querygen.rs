//! Generate Spider-style (NL, SQL) pairs over a populated database.
//!
//! Spider's pairs are human-written; ours are synthesized from compositional
//! NL templates with seeded lexical variation, spanning the same SQL clause
//! space (aggregation, grouping, filtering, ordering, superlatives, joins,
//! nesting, set ops) and the same four-level difficulty spread. Every
//! emitted SQL string round-trips through `nv-sql` and executes on the
//! database it was generated from.

use nv_ast::*;
use nv_data::{ColumnType, Database, Table, Value};
use nv_sql::{parse_sql, to_sql};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One synthesized benchmark input pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SpiderPair {
    /// Unique id within the corpus.
    pub id: usize,
    pub db_name: String,
    /// The natural-language question.
    pub nl: String,
    /// The SQL query (parseable by `nv_sql::parse_sql`).
    pub sql: String,
}

// Query-shape weights, chosen for a Spider-like difficulty mix.
/// Probability of a two-table join (when a FK exists).
const P_JOIN: f64 = 0.28;
/// Probability of attaching a WHERE filter.
const P_FILTER: f64 = 0.45;
/// Probability of an ORDER BY / LIMIT tail on detail queries.
const P_ORDER: f64 = 0.30;
/// Probability of a set-operation query.
const P_SETOP: f64 = 0.06;
/// Probability of a nested IN-subquery filter.
const P_NESTED: f64 = 0.08;

/// Generator configuration: how many pairs to emit.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    pub n_pairs: usize,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig { n_pairs: 40 }
    }
}

/// Generator over one database.
pub struct QueryGen<'a> {
    db: &'a Database,
    rng: StdRng,
    cfg: QueryGenConfig,
}

impl<'a> QueryGen<'a> {
    pub fn new(db: &'a Database, seed: u64, cfg: QueryGenConfig) -> Self {
        QueryGen { db, rng: StdRng::seed_from_u64(seed), cfg }
    }

    /// Generate the configured number of pairs. Shapes that fail validation
    /// (unparseable/unexecutable — shouldn't happen, but guarded) are
    /// skipped and retried.
    pub fn generate(&mut self, id_base: usize) -> Vec<SpiderPair> {
        let mut out = Vec::with_capacity(self.cfg.n_pairs);
        let mut attempts = 0;
        while out.len() < self.cfg.n_pairs && attempts < self.cfg.n_pairs * 8 {
            attempts += 1;
            if let Some((nl, ast)) = self.one_query() {
                let sql = to_sql(&ast);
                // Validation: the emitted SQL must parse back and execute.
                match parse_sql(self.db, &sql) {
                    Ok(parsed) if nv_data::execute(self.db, &parsed).is_ok() => {
                        out.push(SpiderPair {
                            id: id_base + out.len(),
                            db_name: self.db.name.clone(),
                            nl,
                            sql,
                        });
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn one_query(&mut self) -> Option<(String, VisQuery)> {
        let roll: f64 = self.rng.random();
        if roll < P_SETOP {
            self.setop_query()
        } else if roll < P_SETOP + P_NESTED {
            self.nested_query()
        } else {
            let shape: f64 = self.rng.random();
            if shape < 0.45 {
                self.agg_group_query()
            } else if shape < 0.62 {
                self.global_agg_query()
            } else {
                self.detail_query()
            }
        }
    }

    // ---- table/column pickers ----

    fn pick_table(&mut self) -> &'a Table {
        let i = self.rng.random_range(0..self.db.tables.len());
        &self.db.tables[i]
    }

    fn cols_of(&self, table: &Table, ctype: ColumnType) -> Vec<String> {
        table
            .schema
            .columns
            .iter()
            .filter(|c| c.ctype == ctype)
            .filter(|c| !self.is_key(table, &c.name))
            .map(|c| c.name.clone())
            .collect()
    }

    fn is_key(&self, table: &Table, col: &str) -> bool {
        let is_pk = table
            .schema
            .primary_key
            .is_some_and(|i| table.schema.columns[i].name == col);
        let is_fk = self.db.foreign_keys.iter().any(|fk| {
            fk.from_table.eq_ignore_ascii_case(table.name()) && fk.from_column == col
        });
        is_pk || is_fk
    }

    fn pick_from<T: Clone>(&mut self, v: &[T]) -> Option<T> {
        if v.is_empty() {
            None
        } else {
            Some(v[self.rng.random_range(0..v.len())].clone())
        }
    }

    /// A non-null value actually present in the column.
    fn sample_value(&mut self, table: &Table, col: &str) -> Option<Value> {
        let idx = table.schema.column_index(col)?;
        let non_null: Vec<&Value> = table
            .rows
            .iter()
            .map(|r| &r[idx])
            .filter(|v| !v.is_null())
            .collect();
        if non_null.is_empty() {
            return None;
        }
        Some(non_null[self.rng.random_range(0..non_null.len())].clone())
    }

    // ---- query shapes ----

    /// `SELECT c1[, c2] FROM t [WHERE …] [ORDER BY q LIMIT k]`
    fn detail_query(&mut self) -> Option<(String, VisQuery)> {
        let table = self.pick_table();
        let mut cols: Vec<String> = Vec::new();
        let cats = self.cols_of(table, ColumnType::Categorical);
        let quants = self.cols_of(table, ColumnType::Quantitative);
        let temps = self.cols_of(table, ColumnType::Temporal);
        cols.extend(self.pick_from(&cats));
        if self.rng.random::<f64>() < 0.8 {
            cols.extend(self.pick_from(&quants));
        }
        if self.rng.random::<f64>() < 0.35 {
            cols.extend(self.pick_from(&temps));
        }
        if self.rng.random::<f64>() < 0.45 {
            if let Some(q2) = self.pick_from(&quants) {
                if !cols.contains(&q2) {
                    cols.push(q2);
                }
            }
        }
        // A second categorical feeds the three-variable chart shapes
        // (stacked bar, grouping line/scatter).
        if self.rng.random::<f64>() < 0.3 {
            if let Some(c2) = self.pick_from(&cats) {
                if !cols.contains(&c2) {
                    cols.push(c2);
                }
            }
        }
        if cols.len() < 2 {
            return None;
        }
        let tname = table.name().to_string();
        let mut body = QueryBody::simple(
            tname.clone(),
            cols.iter().map(|c| Attr::col(tname.clone(), c.clone())).collect(),
        );
        let mut phrases: Vec<String> = Vec::new();

        if self.rng.random::<f64>() < P_FILTER {
            if let Some((pred, phrase)) = self.make_filter(table) {
                body.filter = Some(pred);
                phrases.push(phrase);
            }
        }
        let mut tail = String::new();
        if self.rng.random::<f64>() < P_ORDER {
            if let Some(ocol) = self.pick_from(&quants) {
                if self.rng.random::<f64>() < 0.5 {
                    let dir = if self.rng.random::<f64>() < 0.5 {
                        OrderDir::Desc
                    } else {
                        OrderDir::Asc
                    };
                    body.order = Some(OrderSpec {
                        attr: Attr::col(tname.clone(), ocol.clone()),
                        dir,
                    });
                    tail = format!(
                        ", sorted by {} in {} order",
                        display(&ocol),
                        if dir == OrderDir::Desc { "descending" } else { "ascending" }
                    );
                } else {
                    let k = self.rng.random_range(3..=10);
                    let dir = if self.rng.random::<f64>() < 0.6 {
                        SuperDir::Most
                    } else {
                        SuperDir::Least
                    };
                    body.superlative = Some(Superlative {
                        dir,
                        k,
                        attr: Attr::col(tname.clone(), ocol.clone()),
                    });
                    tail = format!(
                        ", for the {k} records with the {} {}",
                        if dir == SuperDir::Most { "highest" } else { "lowest" },
                        display(&ocol)
                    );
                }
            }
        }

        let verb = self.pick_from(&["Show", "List", "Give me", "What are", "Return"]).unwrap();
        let col_names = cols.iter().map(|c| display(c)).collect::<Vec<_>>().join(" and ");
        let nl = format!(
            "{verb} the {col_names} of all {}{}{}{}",
            plural(&display(&tname)),
            join_phrases(&phrases),
            tail,
            if verb.starts_with("What") { "?" } else { "." }
        );
        Some((nl, VisQuery::sql(SetQuery::simple(body))))
    }

    /// `SELECT g, AGG(q) FROM t [JOIN p] [WHERE …] GROUP BY g`
    fn agg_group_query(&mut self) -> Option<(String, VisQuery)> {
        let (table, join_info) = self.maybe_join()?;
        let tname = table.name().to_string();
        let cats = self.cols_of(table, ColumnType::Categorical);
        let group_col = self.pick_from(&cats)?;
        let quants = self.cols_of(table, ColumnType::Quantitative);

        let (agg, agg_attr, agg_phrase): (AggFunc, Attr, String) =
            if quants.is_empty() || self.rng.random::<f64>() < 0.4 {
                (
                    AggFunc::Count,
                    Attr::agg(AggFunc::Count, tname.clone(), "*"),
                    format!("the number of {}", plural(&display(&tname))),
                )
            } else {
                let q = self.pick_from(&quants)?;
                let agg = self
                    .pick_from(&[AggFunc::Avg, AggFunc::Sum, AggFunc::Max, AggFunc::Min])
                    .unwrap();
                let word = match agg {
                    AggFunc::Avg => "average",
                    AggFunc::Sum => "total",
                    AggFunc::Max => "maximum",
                    AggFunc::Min => "minimum",
                    _ => unreachable!(),
                };
                (
                    agg,
                    Attr::agg(agg, tname.clone(), q.clone()),
                    format!("the {word} {}", display(&q)),
                )
            };
        let _ = agg;

        let mut body = QueryBody::simple(
            tname.clone(),
            vec![Attr::col(tname.clone(), group_col.clone()), agg_attr.clone()],
        );
        body.group = Some(GroupSpec::by(ColumnRef::new(tname.clone(), group_col.clone())));

        let mut phrases = Vec::new();
        if let Some((ptable, jc, pfilter)) = join_info {
            body.from.push(ptable.clone());
            body.joins.push(jc);
            if let Some((pred, phrase)) = pfilter {
                body.filter = Predicate::and_opt(body.filter.take(), Some(pred));
                phrases.push(phrase);
            }
        }
        if self.rng.random::<f64>() < P_FILTER {
            if let Some((pred, phrase)) = self.make_filter(table) {
                body.filter = Predicate::and_opt(body.filter.take(), Some(pred));
                phrases.push(phrase);
            }
        }
        // Occasionally order the groups by the aggregate.
        let mut tail = String::new();
        if self.rng.random::<f64>() < 0.35 {
            let dir = if self.rng.random::<f64>() < 0.6 { OrderDir::Desc } else { OrderDir::Asc };
            body.order = Some(OrderSpec { attr: agg_attr, dir });
            tail = format!(
                ", ordered from {}",
                if dir == OrderDir::Desc { "most to least" } else { "least to most" }
            );
        }

        let opener = self
            .pick_from(&["What is", "Find", "Compute", "Tell me"])
            .unwrap();
        let nl = format!(
            "{opener} {agg_phrase} for each {} {}{}{}{}",
            display(&group_col),
            if body.from.len() > 1 {
                format!("of the {} records", display(&tname))
            } else {
                format!("in {}", display(&tname))
            },
            join_phrases(&phrases),
            tail,
            if opener.starts_with("What") { "?" } else { "." }
        );
        Some((nl, VisQuery::sql(SetQuery::simple(body))))
    }

    /// `SELECT AGG(q)[, AGG(q2)] FROM t [WHERE …]`
    fn global_agg_query(&mut self) -> Option<(String, VisQuery)> {
        let table = self.pick_table();
        let tname = table.name().to_string();
        let quants = self.cols_of(table, ColumnType::Quantitative);
        let q = self.pick_from(&quants)?;
        let agg = self
            .pick_from(&[AggFunc::Avg, AggFunc::Sum, AggFunc::Max, AggFunc::Min, AggFunc::Count])
            .unwrap();
        let mut select = vec![Attr::agg(agg, tname.clone(), q.clone())];
        let mut extra_phrase = String::new();
        if self.rng.random::<f64>() < 0.4 {
            if let Some(q2) = self.pick_from(&quants) {
                let agg2 = self.pick_from(&[AggFunc::Avg, AggFunc::Max, AggFunc::Min]).unwrap();
                select.push(Attr::agg(agg2, tname.clone(), q2.clone()));
                extra_phrase = format!(" and the {} {}", agg2.nl_word(), display(&q2));
            }
        }
        let mut body = QueryBody::simple(tname.clone(), select);
        let mut phrases = Vec::new();
        if self.rng.random::<f64>() < P_FILTER {
            if let Some((pred, phrase)) = self.make_filter(table) {
                body.filter = Some(pred);
                phrases.push(phrase);
            }
        }
        let nl = format!(
            "What is the {} {}{} across all {}{}?",
            agg.nl_word(),
            display(&q),
            extra_phrase,
            plural(&display(&tname)),
            join_phrases(&phrases),
        );
        Some((nl, VisQuery::sql(SetQuery::simple(body))))
    }

    /// `SELECT c, COUNT(*) … UNION/INTERSECT/EXCEPT SELECT c, COUNT(*) …`
    fn setop_query(&mut self) -> Option<(String, VisQuery)> {
        let table = self.pick_table();
        let tname = table.name().to_string();
        let cats = self.cols_of(table, ColumnType::Categorical);
        let col = self.pick_from(&cats)?;
        let (f1, p1) = self.make_filter(table)?;
        let (f2, p2) = self.make_filter(table)?;
        if p1 == p2 {
            return None;
        }
        let mk = |f: Predicate| {
            let mut b = QueryBody::simple(tname.clone(), vec![Attr::col(tname.clone(), col.clone())]);
            b.filter = Some(f);
            b
        };
        let op = self
            .pick_from(&[SetOp::Union, SetOp::Intersect, SetOp::Except])
            .unwrap();
        let connective = match op {
            SetOp::Union => format!("{p1}, together with those {}", p2.trim_start()),
            SetOp::Intersect => format!("{p1} that also are records {}", p2.trim_start()),
            SetOp::Except => format!("{p1}, excluding those {}", p2.trim_start()),
        };
        let nl = format!(
            "List the {} of {}{}.",
            display(&col),
            plural(&display(&tname)),
            connective
        );
        let q = VisQuery::sql(SetQuery::Compound {
            op,
            left: Box::new(mk(f1)),
            right: Box::new(mk(f2)),
        });
        Some((nl, q))
    }

    /// `SELECT … FROM child WHERE fk IN (SELECT pk FROM parent WHERE …)`
    fn nested_query(&mut self) -> Option<(String, VisQuery)> {
        let fk = self.pick_from(&self.db.foreign_keys.clone())?;
        let child = self.db.table(&fk.from_table)?;
        let parent = self.db.table(&fk.to_table)?;
        let (ppred, pphrase) = self.make_filter(parent)?;
        let cname = child.name().to_string();
        let cats = self.cols_of(child, ColumnType::Categorical);
        let quants = self.cols_of(child, ColumnType::Quantitative);
        let mut select = Vec::new();
        select.extend(self.pick_from(&cats).map(|c| Attr::col(cname.clone(), c)));
        select.extend(self.pick_from(&quants).map(|c| Attr::col(cname.clone(), c)));
        if select.is_empty() {
            return None;
        }
        let mut sub = QueryBody::simple(
            parent.name().to_string(),
            vec![Attr::col(parent.name().to_string(), fk.to_column.clone())],
        );
        sub.filter = Some(ppred);
        let mut body = QueryBody::simple(cname.clone(), select.clone());
        body.filter = Some(Predicate::In {
            attr: Attr::col(cname.clone(), fk.from_column.clone()),
            rhs: Operand::Subquery(Box::new(SetQuery::simple(sub))),
            negated: false,
        });
        let col_names = select
            .iter()
            .map(|a| display(&a.col.column))
            .collect::<Vec<_>>()
            .join(" and ");
        let nl = format!(
            "Show the {col_names} of {} linked to {}{}.",
            plural(&display(&cname)),
            plural(&display(parent.name())),
            pphrase
        );
        Some((nl, VisQuery::sql(SetQuery::simple(body))))
    }

    /// Maybe pick a (child table, parent join) pair; otherwise a bare table.
    /// When joining, a parent-side filter (predicate + NL phrase) may ride
    /// along — valid on the child body because filters are evaluated
    /// post-join.
    #[allow(clippy::type_complexity)]
    fn maybe_join(
        &mut self,
    ) -> Option<(&'a Table, Option<(String, JoinCond, Option<(Predicate, String)>)>)> {
        if self.rng.random::<f64>() < P_JOIN && !self.db.foreign_keys.is_empty() {
            let fk = self.pick_from(&self.db.foreign_keys.clone())?;
            let child = self.db.table(&fk.from_table)?;
            let jc = JoinCond {
                left: ColumnRef::new(fk.from_table.clone(), fk.from_column.clone()),
                right: ColumnRef::new(fk.to_table.clone(), fk.to_column.clone()),
            };
            let parent = self.db.table(&fk.to_table)?;
            let pfilter = if self.rng.random::<f64>() < 0.5 {
                self.make_filter(parent)
            } else {
                None
            };
            Some((child, Some((fk.to_table.clone(), jc, pfilter))))
        } else {
            Some((self.pick_table(), None))
        }
    }

    /// Build a one- or two-leaf filter over a table, with its NL phrase.
    fn make_filter(&mut self, table: &Table) -> Option<(Predicate, String)> {
        let (mut pred, mut phrase) = self.one_condition(table)?;
        if self.rng.random::<f64>() < 0.22 {
            if let Some((p2, ph2)) = self.one_condition(table) {
                if ph2 != phrase {
                    let use_or = self.rng.random::<f64>() < 0.3;
                    phrase = format!(
                        "{phrase} {} {}",
                        if use_or { "or" } else { "and" },
                        ph2.trim_start_matches(' ')
                    );
                    pred = if use_or {
                        Predicate::Or(Box::new(pred), Box::new(p2))
                    } else {
                        Predicate::And(Box::new(pred), Box::new(p2))
                    };
                }
            }
        }
        Some((pred, phrase))
    }

    fn one_condition(&mut self, table: &Table) -> Option<(Predicate, String)> {
        let tname = table.name().to_string();
        let candidates: Vec<(String, ColumnType)> = table
            .schema
            .columns
            .iter()
            .filter(|c| !self.is_key(table, &c.name))
            .map(|c| (c.name.clone(), c.ctype))
            .collect();
        let (col, ctype) = self.pick_from(&candidates)?;
        let value = self.sample_value(table, &col)?;
        let attr = Attr::col(tname, col.clone());
        let dcol = display(&col);
        match ctype {
            ColumnType::Categorical => {
                let lit = value_literal(&value);
                if self.rng.random::<f64>() < 0.15 {
                    if let Literal::Text(s) = &lit {
                        if s.len() > 3 {
                            let prefix = &s[..s.len().min(4)];
                            return Some((
                                Predicate::Like {
                                    attr,
                                    pattern: format!("{prefix}%"),
                                    negated: false,
                                },
                                format!(" whose {dcol} starts with '{prefix}'"),
                            ));
                        }
                    }
                }
                let neg = self.rng.random::<f64>() < 0.12;
                let op = if neg { CmpOp::Ne } else { CmpOp::Eq };
                let word = if neg { "is not" } else { "is" };
                Some((
                    Predicate::Cmp { op, attr, rhs: Operand::Lit(lit.clone()) },
                    format!(" whose {dcol} {word} {}", lit_phrase(&lit)),
                ))
            }
            ColumnType::Quantitative => {
                let lit = value_literal(&value);
                if self.rng.random::<f64>() < 0.18 {
                    let v = value.as_f64().unwrap_or(0.0);
                    let lo = Literal::Float((v * 0.5 * 100.0).round() / 100.0);
                    let hi = Literal::Float((v * 1.5 * 100.0).round() / 100.0 + 1.0);
                    return Some((
                        Predicate::Between {
                            attr,
                            low: Operand::Lit(lo.clone()),
                            high: Operand::Lit(hi.clone()),
                        },
                        format!(
                            " whose {dcol} is between {} and {}",
                            lit_phrase(&lo),
                            lit_phrase(&hi)
                        ),
                    ));
                }
                let gt = self.rng.random::<f64>() < 0.5;
                let (op, word) = if gt {
                    (CmpOp::Gt, self.pick_from(&["greater than", "above", "more than"]).unwrap())
                } else {
                    (CmpOp::Lt, self.pick_from(&["less than", "below", "under"]).unwrap())
                };
                Some((
                    Predicate::Cmp { op, attr, rhs: Operand::Lit(lit.clone()) },
                    format!(" whose {dcol} is {word} {}", lit_phrase(&lit)),
                ))
            }
            ColumnType::Temporal => {
                let lit = Literal::Text(value.label());
                let after = self.rng.random::<f64>() < 0.5;
                let op = if after { CmpOp::Ge } else { CmpOp::Le };
                Some((
                    Predicate::Cmp { op, attr, rhs: Operand::Lit(lit.clone()) },
                    format!(
                        " whose {dcol} is {} {}",
                        if after { "on or after" } else { "on or before" },
                        lit_phrase(&lit)
                    ),
                ))
            }
        }
    }
}

fn value_literal(v: &Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Bool(b) => Literal::Bool(*b),
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Text(s) => Literal::Text(s.clone()),
        Value::Time(t) => Literal::Text(t.to_string()),
    }
}

fn lit_phrase(l: &Literal) -> String {
    // Delegate to `to_token`: it quotes text and doubles embedded quotes,
    // keeping generated NL spans parseable by the V-slot extractor.
    l.to_token()
}

/// Human display name of an identifier: underscores become spaces.
pub fn display(ident: &str) -> String {
    ident.replace('_', " ")
}

/// Naive pluralizer for table names in NL.
pub fn plural(word: &str) -> String {
    if word.ends_with('s') {
        word.to_string()
    } else if let Some(stem) = word.strip_suffix('y') {
        format!("{stem}ies")
    } else {
        format!("{word}s")
    }
}

fn join_phrases(phrases: &[String]) -> String {
    phrases.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::generate_database;
    use crate::template::domain_templates;

    fn db() -> Database {
        generate_database(&domain_templates()[0], 0, 42)
    }

    #[test]
    fn generates_requested_count() {
        let d = db();
        let mut g = QueryGen::new(&d, 1, QueryGenConfig { n_pairs: 30 });
        let pairs = g.generate(100);
        assert_eq!(pairs.len(), 30);
        assert_eq!(pairs[0].id, 100);
        assert_eq!(pairs[29].id, 129);
    }

    #[test]
    fn pairs_parse_and_execute() {
        let d = db();
        let mut g = QueryGen::new(&d, 2, QueryGenConfig { n_pairs: 50 });
        for p in g.generate(0) {
            let ast = parse_sql(&d, &p.sql).unwrap_or_else(|e| panic!("{}: {e}", p.sql));
            nv_data::execute(&d, &ast).unwrap_or_else(|e| panic!("{}: {e}", p.sql));
            assert!(!p.nl.is_empty());
            assert!(p.nl.len() > 15, "too-short NL: {}", p.nl);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let d = db();
        let cfg = QueryGenConfig { n_pairs: 10 };
        let a = QueryGen::new(&d, 7, cfg.clone()).generate(0);
        let b = QueryGen::new(&d, 7, cfg.clone()).generate(0);
        assert_eq!(a, b);
        let c = QueryGen::new(&d, 8, cfg).generate(0);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_covers_clause_space() {
        let d = db();
        let cfg = QueryGenConfig { n_pairs: 120 };
        let pairs = QueryGen::new(&d, 3, cfg).generate(0);
        let any = |f: &dyn Fn(&str) -> bool| pairs.iter().any(|p| f(&p.sql));
        assert!(any(&|s| s.contains("GROUP BY")), "no grouping");
        assert!(any(&|s| s.contains("WHERE")), "no filters");
        assert!(any(&|s| s.contains("ORDER BY")), "no ordering");
        assert!(any(&|s| s.contains("LIMIT")), "no superlative");
        assert!(any(&|s| s.contains("JOIN")), "no joins");
        assert!(
            any(&|s| s.contains("UNION") || s.contains("INTERSECT") || s.contains("EXCEPT")),
            "no set ops"
        );
        assert!(any(&|s| s.contains("IN (SELECT")), "no nesting");
        assert!(any(&|s| s.contains("AVG(") || s.contains("SUM(")), "no numeric aggs");
    }

    #[test]
    fn nl_mentions_aggregation_words() {
        let d = db();
        let cfg = QueryGenConfig { n_pairs: 60 };
        let pairs = QueryGen::new(&d, 4, cfg).generate(0);
        let with_group: Vec<&SpiderPair> =
            pairs.iter().filter(|p| p.sql.contains("GROUP BY")).collect();
        assert!(!with_group.is_empty());
        for p in with_group {
            let nl = p.nl.to_lowercase();
            assert!(
                nl.contains("each") || nl.contains("per") || nl.contains("number of"),
                "grouping not verbalized: {}",
                p.nl
            );
        }
    }

    #[test]
    fn helpers() {
        assert_eq!(display("credit_limit"), "credit limit");
        assert_eq!(plural("player"), "players");
        assert_eq!(plural("class"), "class");
        assert_eq!(plural("company"), "companies");
    }
}
