//! Canonical VQL linearization of the unified AST, and its inverse parser.
//!
//! The linear form is what the `seq2vis` neural translator consumes and
//! produces (paper Figure 15 shows the output sequence
//! `[Visualize, pie, Select, …]`). The encoding here is designed so that
//!
//! * every AST serializes to a unique token sequence ([`VisQuery::to_tokens`]),
//! * the sequence parses back to an identical AST ([`parse_vql`]) — the
//!   round-trip property is enforced by unit + property tests, and
//! * multi-word concepts are single tokens (`stacked_bar`, `flight.price`,
//!   `'New York'`), keeping the output vocabulary small and unambiguous.
//!
//! Grammar of the linear form (lowercase words are literal keywords):
//!
//! ```text
//! vql    := [ "visualize" chart ] body [ setop body ]
//! body   := "select" attr ( "," attr )*
//!           "from" table ( "join" table "on" col "=" col )*
//!           [ "where" pred ]
//!           [ "group" "by" col ( "," col )* ]
//!           [ "bin" col "by" unit ]
//!           [ "order" "by" attr dir ]
//!           [ ( "top" | "bottom" ) k "by" attr ]
//! attr   := col | agg "(" [ "distinct" ] col ")"
//! pred   := cond | "(" pred ( "and" | "or" ) pred ")"
//! cond   := attr cmp operand
//!         | attr "between" literal "and" literal
//!         | attr [ "not" ] "like" literal
//!         | attr [ "not" ] "in" operand
//! operand:= literal | "(" literal ( "," literal )* ")" | "(" vql ")"
//! ```

use crate::query::*;

impl VisQuery {
    /// Linearize to the canonical VQL token sequence.
    pub fn to_tokens(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(24);
        if let Some(chart) = self.chart {
            out.push("visualize".into());
            out.push(chart.keyword().into());
        }
        push_set_query(&self.query, &mut out);
        out
    }

    /// The token sequence joined with single spaces — a stable textual key.
    pub fn to_vql(&self) -> String {
        self.to_tokens().join(" ")
    }
}

fn push_set_query(q: &SetQuery, out: &mut Vec<String>) {
    match q {
        SetQuery::Simple(b) => push_body(b, out),
        SetQuery::Compound { op, left, right } => {
            push_body(left, out);
            out.push(op.keyword().into());
            push_body(right, out);
        }
    }
}

fn push_body(b: &QueryBody, out: &mut Vec<String>) {
    out.push("select".into());
    for (i, a) in b.select.iter().enumerate() {
        if i > 0 {
            out.push(",".into());
        }
        push_attr(a, out);
    }
    out.push("from".into());
    out.push(b.from.first().cloned().unwrap_or_default());
    for j in &b.joins {
        // The joined table is the side not yet introduced; serialize the
        // right table of the condition (the SQL lowering orients joins so
        // that `right` references the newly joined table).
        out.push("join".into());
        out.push(j.right.table.clone());
        out.push("on".into());
        out.push(j.left.to_token());
        out.push("=".into());
        out.push(j.right.to_token());
    }
    if let Some(p) = &b.filter {
        out.push("where".into());
        push_pred(p, out);
    }
    if let Some(g) = &b.group {
        if !g.group_by.is_empty() {
            out.push("group".into());
            out.push("by".into());
            for (i, c) in g.group_by.iter().enumerate() {
                if i > 0 {
                    out.push(",".into());
                }
                out.push(c.to_token());
            }
        }
        if let Some(bin) = &g.bin {
            out.push("bin".into());
            out.push(bin.col.to_token());
            out.push("by".into());
            out.push(bin.unit.keyword());
        }
    }
    if let Some(o) = &b.order {
        out.push("order".into());
        out.push("by".into());
        push_attr(&o.attr, out);
        out.push(o.dir.keyword().into());
    }
    if let Some(s) = &b.superlative {
        out.push(match s.dir {
            SuperDir::Most => "top".into(),
            SuperDir::Least => "bottom".into(),
        });
        out.push(s.k.to_string());
        out.push("by".into());
        push_attr(&s.attr, out);
    }
}

fn push_attr(a: &Attr, out: &mut Vec<String>) {
    if a.agg == AggFunc::None {
        out.push(a.col.to_token());
    } else {
        out.push(a.agg.keyword().into());
        out.push("(".into());
        if a.distinct {
            out.push("distinct".into());
        }
        out.push(a.col.to_token());
        out.push(")".into());
    }
}

fn push_pred(p: &Predicate, out: &mut Vec<String>) {
    match p {
        Predicate::And(l, r) | Predicate::Or(l, r) => {
            out.push("(".into());
            push_pred(l, out);
            out.push(if matches!(p, Predicate::And(..)) { "and" } else { "or" }.into());
            push_pred(r, out);
            out.push(")".into());
        }
        Predicate::Cmp { op, attr, rhs } => {
            push_attr(attr, out);
            out.push(op.symbol().into());
            push_operand(rhs, out);
        }
        Predicate::Between { attr, low, high } => {
            push_attr(attr, out);
            out.push("between".into());
            push_operand(low, out);
            out.push("and".into());
            push_operand(high, out);
        }
        Predicate::Like { attr, pattern, negated } => {
            push_attr(attr, out);
            if *negated {
                out.push("not".into());
            }
            out.push("like".into());
            out.push(Literal::Text(pattern.clone()).to_token());
        }
        Predicate::In { attr, rhs, negated } => {
            push_attr(attr, out);
            if *negated {
                out.push("not".into());
            }
            out.push("in".into());
            push_operand(rhs, out);
        }
    }
}

fn push_operand(o: &Operand, out: &mut Vec<String>) {
    match o {
        Operand::Lit(l) => out.push(l.to_token()),
        Operand::List(ls) => {
            out.push("(".into());
            for (i, l) in ls.iter().enumerate() {
                if i > 0 {
                    out.push(",".into());
                }
                out.push(l.to_token());
            }
            out.push(")".into());
        }
        Operand::Subquery(q) => {
            out.push("(".into());
            push_set_query(q, out);
            out.push(")".into());
        }
    }
}

/// Split a VQL string into tokens, keeping single-quoted text (which may
/// contain spaces) as one token.
pub fn tokenize_vql(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            // Quoted literal: consume through the closing quote, honoring
            // doubled-quote escapes.
            cur.push('\'');
            while let Some(&n) = chars.peek() {
                chars.next();
                cur.push(n);
                if n == '\'' {
                    if chars.peek() == Some(&'\'') {
                        chars.next();
                        cur.push('\'');
                    } else {
                        break;
                    }
                }
            }
        } else if c.is_whitespace() {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        } else {
            cur.push(c);
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Error produced when a token sequence is not valid VQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Index of the offending token (== token count if input ended early).
    pub at: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VQL parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Max combined nesting depth (parenthesized predicates + subqueries), the
/// same limit as `nv-sql`'s parser. Deep enough for any real query, shallow
/// enough that recursive descent can never overflow the stack — an overflow
/// aborts the process, which no `catch_unwind` downstream could contain.
const MAX_DEPTH: usize = 64;

/// Parse a VQL token sequence back into a [`VisQuery`].
///
/// Accepts anything [`VisQuery::to_tokens`] produces; used both to decode
/// neural-model output and to round-trip stored benchmarks. Nesting deeper
/// than 64 levels (parenthesized predicates plus subqueries) is a
/// [`ParseError`].
pub fn parse_vql<S: AsRef<str>>(tokens: &[S]) -> Result<VisQuery, ParseError> {
    let toks: Vec<&str> = tokens.iter().map(|s| s.as_ref()).collect();
    let mut p = Parser { toks: &toks, pos: 0, depth: 0 };
    let q = p.parse_root()?;
    if p.pos != p.toks.len() {
        return Err(p.err(format!("trailing tokens starting with '{}'", p.toks[p.pos])));
    }
    Ok(q)
}

/// Parse a VQL string (convenience wrapper over [`tokenize_vql`] +
/// [`parse_vql`]).
pub fn parse_vql_str(s: &str) -> Result<VisQuery, ParseError> {
    parse_vql(&tokenize_vql(s))
}

struct Parser<'a> {
    toks: &'a [&'a str],
    pos: usize,
    /// Current nesting depth (parens + subqueries), bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { at: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<&'a str> {
        self.toks.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<&'a str> {
        self.toks.get(self.pos + off).copied()
    }

    fn next(&mut self) -> Result<&'a str, ParseError> {
        let t = self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, kw: &str) -> Result<(), ParseError> {
        let t = self.next()?;
        if t == kw {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected '{kw}', found '{t}'")))
        }
    }

    fn eat(&mut self, kw: &str) -> bool {
        if self.peek() == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_root(&mut self) -> Result<VisQuery, ParseError> {
        let chart = if self.eat("visualize") {
            let t = self.next()?;
            Some(
                ChartType::from_keyword(t)
                    .ok_or_else(|| self.err(format!("unknown chart type '{t}'")))?,
            )
        } else {
            None
        };
        let query = self.parse_set_query()?;
        Ok(VisQuery { chart, query })
    }

    /// Bump the nesting depth; errors instead of risking a stack overflow.
    /// Callers decrement on the success path; on error the whole parse is
    /// abandoned, so a stale count is harmless.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn parse_set_query(&mut self) -> Result<SetQuery, ParseError> {
        self.descend()?;
        let out = self.parse_set_query_inner();
        self.depth -= 1;
        out
    }

    fn parse_set_query_inner(&mut self) -> Result<SetQuery, ParseError> {
        let left = self.parse_body()?;
        let op = match self.peek() {
            Some("intersect") => Some(SetOp::Intersect),
            Some("union") => Some(SetOp::Union),
            Some("except") => Some(SetOp::Except),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_body()?;
            Ok(SetQuery::Compound { op, left: Box::new(left), right: Box::new(right) })
        } else {
            Ok(SetQuery::Simple(Box::new(left)))
        }
    }

    fn parse_body(&mut self) -> Result<QueryBody, ParseError> {
        self.expect("select")?;
        let mut select = vec![self.parse_attr()?];
        while self.eat(",") {
            select.push(self.parse_attr()?);
        }
        self.expect("from")?;
        let first = self.next()?.to_string();
        let mut from = vec![first];
        let mut joins = Vec::new();
        while self.eat("join") {
            let table = self.next()?.to_string();
            self.expect("on")?;
            let left = self.parse_colref()?;
            self.expect("=")?;
            let right = self.parse_colref()?;
            from.push(table);
            joins.push(JoinCond { left, right });
        }
        let filter = if self.eat("where") { Some(self.parse_pred()?) } else { None };
        let mut group: Option<GroupSpec> = None;
        if self.peek() == Some("group") && self.peek_at(1) == Some("by") {
            self.pos += 2;
            let mut cols = vec![self.parse_colref()?];
            while self.eat(",") {
                cols.push(self.parse_colref()?);
            }
            group = Some(GroupSpec { group_by: cols, bin: None });
        }
        if self.eat("bin") {
            let col = self.parse_colref()?;
            self.expect("by")?;
            let t = self.next()?;
            let unit = BinUnit::from_keyword(t)
                .ok_or_else(|| self.err(format!("unknown bin unit '{t}'")))?;
            group
                .get_or_insert_with(GroupSpec::default)
                .bin = Some(BinSpec { col, unit });
        }
        let order = if self.peek() == Some("order") && self.peek_at(1) == Some("by") {
            self.pos += 2;
            let attr = self.parse_attr()?;
            let dir = match self.next()? {
                "asc" => OrderDir::Asc,
                "desc" => OrderDir::Desc,
                t => {
                    self.pos -= 1;
                    return Err(self.err(format!("expected asc/desc, found '{t}'")));
                }
            };
            Some(OrderSpec { attr, dir })
        } else {
            None
        };
        let superlative = match self.peek() {
            Some(d @ ("top" | "bottom")) => {
                let dir = if d == "top" { SuperDir::Most } else { SuperDir::Least };
                self.pos += 1;
                let kt = self.next()?;
                let k = kt
                    .parse::<u64>()
                    .map_err(|_| self.err(format!("expected LIMIT count, found '{kt}'")))?;
                self.expect("by")?;
                let attr = self.parse_attr()?;
                Some(Superlative { dir, k, attr })
            }
            _ => None,
        };
        Ok(QueryBody { select, from, joins, filter, group, order, superlative })
    }

    fn parse_colref(&mut self) -> Result<ColumnRef, ParseError> {
        let t = self.next()?;
        let (table, column) = t
            .split_once('.')
            .ok_or_else(|| self.err(format!("expected table.column, found '{t}'")))?;
        if table.is_empty() || column.is_empty() {
            return Err(self.err(format!("malformed column reference '{t}'")));
        }
        Ok(ColumnRef::new(table, column))
    }

    fn parse_attr(&mut self) -> Result<Attr, ParseError> {
        if let Some(t) = self.peek() {
            if let Some(agg) = AggFunc::from_keyword(t) {
                if self.peek_at(1) == Some("(") {
                    self.pos += 2;
                    let distinct = self.eat("distinct");
                    let col = self.parse_colref()?;
                    self.expect(")")?;
                    return Ok(Attr { agg, col, distinct });
                }
            }
        }
        let col = self.parse_colref()?;
        Ok(Attr { agg: AggFunc::None, col, distinct: false })
    }

    fn parse_pred(&mut self) -> Result<Predicate, ParseError> {
        if self.eat("(") {
            self.descend()?;
            let left = self.parse_pred()?;
            let op = self.next()?;
            let is_and = match op {
                "and" => true,
                "or" => false,
                t => {
                    self.pos -= 1;
                    return Err(self.err(format!("expected and/or, found '{t}'")));
                }
            };
            let right = self.parse_pred()?;
            self.expect(")")?;
            self.depth -= 1;
            Ok(if is_and {
                Predicate::And(Box::new(left), Box::new(right))
            } else {
                Predicate::Or(Box::new(left), Box::new(right))
            })
        } else {
            self.parse_cond()
        }
    }

    fn parse_cond(&mut self) -> Result<Predicate, ParseError> {
        let attr = self.parse_attr()?;
        let negated = self.eat("not");
        let t = self.next()?;
        if let Some(op) = CmpOp::from_symbol(t) {
            if negated {
                self.pos -= 1;
                return Err(self.err("'not' is only valid before like/in"));
            }
            let rhs = self.parse_operand()?;
            return Ok(Predicate::Cmp { op, attr, rhs });
        }
        match t {
            "between" => {
                if negated {
                    self.pos -= 1;
                    return Err(self.err("'not between' is not supported"));
                }
                let low = self.parse_operand()?;
                self.expect("and")?;
                let high = self.parse_operand()?;
                Ok(Predicate::Between { attr, low, high })
            }
            "like" => {
                let lt = self.next()?;
                match parse_literal(lt) {
                    Some(Literal::Text(pattern)) => Ok(Predicate::Like { attr, pattern, negated }),
                    _ => {
                        self.pos -= 1;
                        Err(self.err(format!("expected quoted LIKE pattern, found '{lt}'")))
                    }
                }
            }
            "in" => {
                let rhs = self.parse_operand()?;
                Ok(Predicate::In { attr, rhs, negated })
            }
            _ => {
                self.pos -= 1;
                Err(self.err(format!("expected comparison operator, found '{t}'")))
            }
        }
    }

    fn parse_operand(&mut self) -> Result<Operand, ParseError> {
        if self.eat("(") {
            if self.peek() == Some("select") {
                let q = self.parse_set_query()?;
                self.expect(")")?;
                return Ok(Operand::Subquery(Box::new(q)));
            }
            let mut lits = Vec::new();
            loop {
                let t = self.next()?;
                let lit = parse_literal(t).ok_or_else(|| {
                    ParseError { at: self.pos - 1, message: format!("expected literal, found '{t}'") }
                })?;
                lits.push(lit);
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")")?;
            return Ok(Operand::List(lits));
        }
        let t = self.next()?;
        parse_literal(t)
            .map(Operand::Lit)
            .ok_or_else(|| ParseError { at: self.pos - 1, message: format!("expected literal, found '{t}'") })
    }
}

/// Parse one token as a literal value, if it is one.
pub fn parse_literal(t: &str) -> Option<Literal> {
    if t == "null" {
        return Some(Literal::Null);
    }
    if t == "true" {
        return Some(Literal::Bool(true));
    }
    if t == "false" {
        return Some(Literal::Bool(false));
    }
    if let Some(inner) = t.strip_prefix('\'') {
        let inner = inner.strip_suffix('\'')?;
        return Some(Literal::Text(inner.replace("''", "'")));
    }
    if t.contains('.') || t.contains('e') || t.contains('E') {
        if let Ok(f) = t.parse::<f64>() {
            return Some(Literal::Float(f));
        }
    }
    if let Ok(i) = t.parse::<i64>() {
        return Some(Literal::Int(i));
    }
    if let Ok(f) = t.parse::<f64>() {
        return Some(Literal::Float(f));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight_body() -> QueryBody {
        QueryBody {
            select: vec![
                Attr::col("flight", "destination"),
                Attr::agg(AggFunc::Count, "flight", "*"),
            ],
            from: vec!["flight".into()],
            joins: vec![],
            filter: None,
            group: Some(GroupSpec::by(ColumnRef::new("flight", "destination"))),
            order: None,
            superlative: None,
        }
    }

    #[test]
    fn serialize_simple_vis() {
        let q = VisQuery::vis(ChartType::Pie, SetQuery::simple(flight_body()));
        assert_eq!(
            q.to_vql(),
            "visualize pie select flight.destination , count ( flight.* ) \
             from flight group by flight.destination"
        );
    }

    #[test]
    fn round_trip_simple() {
        let q = VisQuery::vis(ChartType::Pie, SetQuery::simple(flight_body()));
        let back = parse_vql(&q.to_tokens()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn round_trip_full_clauses() {
        let mut b = flight_body();
        b.from.push("airport".into());
        b.joins.push(JoinCond {
            left: ColumnRef::new("flight", "src"),
            right: ColumnRef::new("airport", "id"),
        });
        b.filter = Some(Predicate::And(
            Box::new(Predicate::Cmp {
                op: CmpOp::Gt,
                attr: Attr::col("flight", "price"),
                rhs: Operand::int(500),
            }),
            Box::new(Predicate::Or(
                Box::new(Predicate::Like {
                    attr: Attr::col("airport", "name"),
                    pattern: "Inter%".into(),
                    negated: true,
                }),
                Box::new(Predicate::Between {
                    attr: Attr::col("flight", "distance"),
                    low: Operand::int(100),
                    high: Operand::int(2000),
                }),
            )),
        ));
        b.group = Some(GroupSpec {
            group_by: vec![ColumnRef::new("flight", "destination")],
            bin: Some(BinSpec { col: ColumnRef::new("flight", "departure"), unit: BinUnit::Year }),
        });
        b.order = Some(OrderSpec {
            attr: Attr::agg(AggFunc::Count, "flight", "*"),
            dir: OrderDir::Desc,
        });
        b.superlative = Some(Superlative {
            dir: SuperDir::Most,
            k: 5,
            attr: Attr::agg(AggFunc::Count, "flight", "*"),
        });
        let q = VisQuery::vis(ChartType::Bar, SetQuery::simple(b));
        let toks = q.to_tokens();
        let back = parse_vql(&toks).unwrap();
        assert_eq!(back, q, "vql was: {}", q.to_vql());
    }

    #[test]
    fn round_trip_set_op_and_subquery() {
        let sub = SetQuery::simple(QueryBody::simple(
            "airport",
            vec![Attr::col("airport", "id")],
        ));
        let mut left = flight_body();
        left.filter = Some(Predicate::In {
            attr: Attr::col("flight", "src"),
            rhs: Operand::Subquery(Box::new(sub)),
            negated: false,
        });
        let right = flight_body();
        let q = VisQuery::sql(SetQuery::Compound {
            op: SetOp::Except,
            left: Box::new(left),
            right: Box::new(right),
        });
        let back = parse_vql(&q.to_tokens()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn round_trip_in_list_and_distinct() {
        let mut b = flight_body();
        b.select[1].distinct = true;
        b.select[1].col = ColumnRef::new("flight", "carrier");
        b.filter = Some(Predicate::In {
            attr: Attr::col("flight", "destination"),
            rhs: Operand::List(vec![
                Literal::Text("New York".into()),
                Literal::Text("LA".into()),
            ]),
            negated: true,
        });
        let q = VisQuery::sql(SetQuery::simple(b));
        let back = parse_vql(&q.to_tokens()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn tokenize_respects_quotes() {
        let toks = tokenize_vql("where t.city = 'New  York' and x");
        assert_eq!(toks, vec!["where", "t.city", "=", "'New  York'", "and", "x"]);
        let toks = tokenize_vql("t.name like 'O''Hare'");
        assert_eq!(toks[2], "'O''Hare'");
    }

    #[test]
    fn parse_str_convenience() {
        let q = parse_vql_str(
            "visualize bar select t.a , count ( t.* ) from t \
             where t.city = 'New York' group by t.a",
        )
        .unwrap();
        assert_eq!(q.chart, Some(ChartType::Bar));
        match q.query.primary().filter.as_ref().unwrap() {
            Predicate::Cmp { rhs: Operand::Lit(Literal::Text(s)), .. } => {
                assert_eq!(s, "New York")
            }
            other => panic!("unexpected filter {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_positioned() {
        let e = parse_vql(&["select"]).unwrap_err();
        assert_eq!(e.at, 1);
        let e = parse_vql(&["visualize", "heatmap"]).unwrap_err();
        assert!(e.message.contains("heatmap"));
        let e = parse_vql(&["select", "t.a", "from", "t", "zzz"]).unwrap_err();
        assert!(e.message.contains("trailing"));
        assert!(parse_vql(&["select", "noDot", "from", "t"]).is_err());
        assert!(e.to_string().contains("token"));
    }

    #[test]
    fn parse_literal_kinds() {
        assert_eq!(parse_literal("42"), Some(Literal::Int(42)));
        assert_eq!(parse_literal("-3"), Some(Literal::Int(-3)));
        assert_eq!(parse_literal("2.5"), Some(Literal::Float(2.5)));
        assert_eq!(parse_literal("1e3"), Some(Literal::Float(1000.0)));
        assert_eq!(parse_literal("'x'"), Some(Literal::Text("x".into())));
        assert_eq!(parse_literal("null"), Some(Literal::Null));
        assert_eq!(parse_literal("false"), Some(Literal::Bool(false)));
        assert_eq!(parse_literal("t.c"), None);
        assert_eq!(parse_literal("'unterminated"), None);
    }

    #[test]
    fn superlative_directions() {
        for (kw, dir) in [("top", SuperDir::Most), ("bottom", SuperDir::Least)] {
            let s = format!("select t.a from t {kw} 3 by t.a");
            let q = parse_vql_str(&s).unwrap();
            let sup = q.query.primary().superlative.clone().unwrap();
            assert_eq!(sup.dir, dir);
            assert_eq!(sup.k, 3);
        }
    }
}
