//! Tree node types for the unified SQL/VIS grammar (paper Figure 5).
//!
//! ```text
//! Root        ::= Q | Visualize Q
//! Q           ::= intersect R R | union R R | except R R | R
//! R           ::= Select [Group] [Order] [Superlative] [Filter]
//! Visualize   ::= bar | pie | line | scatter | stacked bar
//!               | grouping line | grouping scatter
//! Select      ::= A | A A | A A A | A ... A
//! Order       ::= asc A | desc A
//! Superlative ::= most V A | least V A
//! Group       ::= grouping A | binning A
//! Filter      ::= and/or Filter Filter | cmp A (V|R) | between | like | in ...
//! A           ::= max C T | min C T | count C T | sum C T | avg C T | C T
//! ```
//!
//! Two pragmatic extensions over the literal grammar, both needed by the
//! paper's own evaluation: explicit **join conditions** (Table 4 scores a
//! "Join" component) and a `Group` that can carry *both* `grouping` and
//! `binning` (Table 1 three-variable rule `T+Q+C: grouping + binning + agg`).

use serde::{Deserialize, Serialize};

/// The seven chart types supported by nvBench (`Visualize` production).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ChartType {
    Bar,
    Pie,
    Line,
    Scatter,
    StackedBar,
    GroupingLine,
    GroupingScatter,
}

impl ChartType {
    /// All chart types, in the canonical paper order (Table 3 row order).
    pub const ALL: [ChartType; 7] = [
        ChartType::Bar,
        ChartType::Pie,
        ChartType::Line,
        ChartType::Scatter,
        ChartType::StackedBar,
        ChartType::GroupingLine,
        ChartType::GroupingScatter,
    ];

    /// The canonical single-token VQL keyword for the chart type.
    pub fn keyword(self) -> &'static str {
        match self {
            ChartType::Bar => "bar",
            ChartType::Pie => "pie",
            ChartType::Line => "line",
            ChartType::Scatter => "scatter",
            ChartType::StackedBar => "stacked_bar",
            ChartType::GroupingLine => "grouping_line",
            ChartType::GroupingScatter => "grouping_scatter",
        }
    }

    /// Parse the VQL keyword back to a chart type.
    pub fn from_keyword(s: &str) -> Option<ChartType> {
        Some(match s {
            "bar" => ChartType::Bar,
            "pie" => ChartType::Pie,
            "line" => ChartType::Line,
            "scatter" => ChartType::Scatter,
            "stacked_bar" => ChartType::StackedBar,
            "grouping_line" => ChartType::GroupingLine,
            "grouping_scatter" => ChartType::GroupingScatter,
            _ => return None,
        })
    }

    /// Human-readable name used in synthesized natural language
    /// ("stacked bar chart", …).
    pub fn display_name(self) -> &'static str {
        match self {
            ChartType::Bar => "bar chart",
            ChartType::Pie => "pie chart",
            ChartType::Line => "line chart",
            ChartType::Scatter => "scatter chart",
            ChartType::StackedBar => "stacked bar chart",
            ChartType::GroupingLine => "grouping line chart",
            ChartType::GroupingScatter => "grouping scatter chart",
        }
    }

    /// True for the multi-series chart types that encode a third (color)
    /// variable.
    pub fn is_grouped(self) -> bool {
        matches!(
            self,
            ChartType::StackedBar | ChartType::GroupingLine | ChartType::GroupingScatter
        )
    }
}

/// A literal value appearing in filters (`V` production).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
}

impl Literal {
    /// Canonical single-token VQL spelling. Text literals are quoted so they
    /// survive tokenization as one token.
    pub fn to_token(&self) -> String {
        match self {
            Literal::Null => "null".into(),
            Literal::Bool(b) => b.to_string(),
            Literal::Int(i) => i.to_string(),
            Literal::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            Literal::Text(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_token())
    }
}

/// A (table, column) reference. `column == "*"` denotes the SQL star.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnRef {
    pub table: String,
    pub column: String,
}

impl ColumnRef {
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef { table: table.into(), column: column.into() }
    }

    pub fn is_star(&self) -> bool {
        self.column == "*"
    }

    /// Canonical `table.column` token.
    pub fn to_token(&self) -> String {
        format!("{}.{}", self.table, self.column)
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// Aggregate function of the `A` production (`None` = bare column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    None,
    Max,
    Min,
    Count,
    Sum,
    Avg,
}

impl AggFunc {
    pub fn keyword(self) -> &'static str {
        match self {
            AggFunc::None => "",
            AggFunc::Max => "max",
            AggFunc::Min => "min",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
        }
    }

    /// The aggregate as an English phrase for generated questions
    /// ("the average price", "the number of orders").
    pub fn nl_word(self) -> &'static str {
        match self {
            AggFunc::Avg => "average",
            AggFunc::Sum => "total",
            AggFunc::Max => "maximum",
            AggFunc::Min => "minimum",
            AggFunc::Count => "number of",
            AggFunc::None => "",
        }
    }

    pub fn from_keyword(s: &str) -> Option<AggFunc> {
        Some(match s {
            "max" => AggFunc::Max,
            "min" => AggFunc::Min,
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// The `A` production: an optionally aggregated column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attr {
    pub agg: AggFunc,
    pub col: ColumnRef,
    pub distinct: bool,
}

impl Attr {
    /// A bare (unaggregated) column.
    pub fn col(table: impl Into<String>, column: impl Into<String>) -> Self {
        Attr { agg: AggFunc::None, col: ColumnRef::new(table, column), distinct: false }
    }

    /// An aggregated column.
    pub fn agg(agg: AggFunc, table: impl Into<String>, column: impl Into<String>) -> Self {
        Attr { agg, col: ColumnRef::new(table, column), distinct: false }
    }

    pub fn is_aggregated(&self) -> bool {
        self.agg != AggFunc::None
    }
}

impl std::fmt::Display for Attr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.agg == AggFunc::None {
            write!(f, "{}", self.col)
        } else if self.distinct {
            write!(f, "{} ( distinct {} )", self.agg.keyword(), self.col)
        } else {
            write!(f, "{} ( {} )", self.agg.keyword(), self.col)
        }
    }
}

/// An equi-join condition between two tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinCond {
    pub left: ColumnRef,
    pub right: ColumnRef,
}

/// Comparison operators of the `Filter` production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    pub fn from_symbol(s: &str) -> Option<CmpOp> {
        Some(match s {
            "=" | "==" => CmpOp::Eq,
            "!=" | "<>" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// Right-hand side of a comparison: a literal (`V`), a literal list
/// (SQL `IN (…)`), or a nested subquery (`R`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    Lit(Literal),
    List(Vec<Literal>),
    Subquery(Box<SetQuery>),
}

impl Operand {
    pub fn int(v: i64) -> Self {
        Operand::Lit(Literal::Int(v))
    }
    pub fn text(v: impl Into<String>) -> Self {
        Operand::Lit(Literal::Text(v.into()))
    }
    pub fn is_subquery(&self) -> bool {
        matches!(self, Operand::Subquery(_))
    }
}

/// The `Filter` production.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Cmp { op: CmpOp, attr: Attr, rhs: Operand },
    Between { attr: Attr, low: Operand, high: Operand },
    Like { attr: Attr, pattern: String, negated: bool },
    In { attr: Attr, rhs: Operand, negated: bool },
}

impl Predicate {
    /// Number of leaf (non-and/or) conditions — the paper's
    /// "number of Filter-subtrees".
    pub fn leaf_count(&self) -> usize {
        match self {
            Predicate::And(l, r) | Predicate::Or(l, r) => l.leaf_count() + r.leaf_count(),
            _ => 1,
        }
    }

    /// True if any leaf condition compares against a nested subquery.
    pub fn has_subquery(&self) -> bool {
        match self {
            Predicate::And(l, r) | Predicate::Or(l, r) => l.has_subquery() || r.has_subquery(),
            Predicate::Cmp { rhs, .. } => rhs.is_subquery(),
            Predicate::Between { low, high, .. } => low.is_subquery() || high.is_subquery(),
            Predicate::Like { .. } => false,
            Predicate::In { rhs, .. } => rhs.is_subquery(),
        }
    }

    /// Visit every leaf condition.
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(&'a Predicate)) {
        match self {
            Predicate::And(l, r) | Predicate::Or(l, r) => {
                l.for_each_leaf(f);
                r.for_each_leaf(f);
            }
            leaf => f(leaf),
        }
    }

    /// Conjoin two optional predicates.
    pub fn and_opt(a: Option<Predicate>, b: Option<Predicate>) -> Option<Predicate> {
        match (a, b) {
            (Some(a), Some(b)) => Some(Predicate::And(Box::new(a), Box::new(b))),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Split the merged Filter subtree back into (pre-group WHERE,
    /// post-group HAVING) by walking the top-level AND chain: a conjunct
    /// goes to HAVING iff any of its leaves compares an aggregated
    /// attribute.
    pub fn split_where_having(&self) -> (Option<Predicate>, Option<Predicate>) {
        match self {
            Predicate::And(l, r) => {
                let (lw, lh) = l.split_where_having();
                let (rw, rh) = r.split_where_having();
                (Predicate::and_opt(lw, rw), Predicate::and_opt(lh, rh))
            }
            conjunct => {
                let mut aggregated = false;
                conjunct.for_each_leaf(&mut |leaf| match leaf {
                    Predicate::Cmp { attr, .. }
                    | Predicate::Between { attr, .. }
                    | Predicate::Like { attr, .. }
                    | Predicate::In { attr, .. } => aggregated |= attr.is_aggregated(),
                    Predicate::And(..) | Predicate::Or(..) => {}
                });
                if aggregated {
                    (None, Some(conjunct.clone()))
                } else {
                    (Some(conjunct.clone()), None)
                }
            }
        }
    }
}

/// Temporal or numeric binning unit (`binning A`).
///
/// Paper §2.3: temporal columns bin by minute, hour, day-of-week, month,
/// quarter or year; numeric columns bin into equal-width buckets with
/// `bin_size = ceil((max - min) / n_bins)`, default `n_bins = 10`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinUnit {
    Minute,
    Hour,
    Weekday,
    Month,
    Quarter,
    Year,
    /// Equal-width numeric binning into `n_bins` buckets.
    Numeric { n_bins: u32 },
}

impl BinUnit {
    pub const DEFAULT_NUMERIC_BINS: u32 = 10;

    pub fn keyword(self) -> String {
        match self {
            BinUnit::Minute => "minute".into(),
            BinUnit::Hour => "hour".into(),
            BinUnit::Weekday => "weekday".into(),
            BinUnit::Month => "month".into(),
            BinUnit::Quarter => "quarter".into(),
            BinUnit::Year => "year".into(),
            BinUnit::Numeric { n_bins } => format!("bucket_{n_bins}"),
        }
    }

    pub fn from_keyword(s: &str) -> Option<BinUnit> {
        Some(match s {
            "minute" => BinUnit::Minute,
            "hour" => BinUnit::Hour,
            "weekday" => BinUnit::Weekday,
            "month" => BinUnit::Month,
            "quarter" => BinUnit::Quarter,
            "year" => BinUnit::Year,
            _ => {
                let n = s.strip_prefix("bucket_")?.parse().ok()?;
                BinUnit::Numeric { n_bins: n }
            }
        })
    }
}

/// A binning operation on one column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BinSpec {
    pub col: ColumnRef,
    pub unit: BinUnit,
}

/// The `Group` production, extended so that `grouping` and `binning` may
/// co-occur (needed by the Table-1 rule for `T+Q+C` charts).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct GroupSpec {
    /// `grouping A` columns (one or two; two for stacked-bar style charts).
    pub group_by: Vec<ColumnRef>,
    /// Optional `binning A`.
    pub bin: Option<BinSpec>,
}

impl GroupSpec {
    pub fn by(col: ColumnRef) -> Self {
        GroupSpec { group_by: vec![col], bin: None }
    }

    pub fn is_empty(&self) -> bool {
        self.group_by.is_empty() && self.bin.is_none()
    }

    /// Total number of grouping keys (group-by columns + bin column).
    pub fn key_count(&self) -> usize {
        self.group_by.len() + usize::from(self.bin.is_some())
    }
}

/// Sort direction of the `Order` production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OrderDir {
    Asc,
    Desc,
}

impl OrderDir {
    pub fn keyword(self) -> &'static str {
        match self {
            OrderDir::Asc => "asc",
            OrderDir::Desc => "desc",
        }
    }
}

/// The `Order` production: `asc A | desc A`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OrderSpec {
    pub attr: Attr,
    pub dir: OrderDir,
}

/// Direction of the `Superlative` production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SuperDir {
    /// `most V A` — the top `k` rows by `A` descending.
    Most,
    /// `least V A` — the bottom `k` rows by `A` ascending.
    Least,
}

/// The `Superlative` production: `most V A | least V A` (SQL
/// `ORDER BY A DESC/ASC LIMIT k`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Superlative {
    pub dir: SuperDir,
    pub k: u64,
    pub attr: Attr,
}

/// The `R` production: one select block with optional clauses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryBody {
    /// Projection attributes, ordered: x-axis, y-axis, (z/color).
    pub select: Vec<Attr>,
    /// Tables in the FROM clause (first is the driving table).
    pub from: Vec<String>,
    /// Equi-join conditions connecting the FROM tables.
    pub joins: Vec<JoinCond>,
    pub filter: Option<Predicate>,
    pub group: Option<GroupSpec>,
    pub order: Option<OrderSpec>,
    pub superlative: Option<Superlative>,
}

impl QueryBody {
    /// A minimal body projecting `select` from a single `table`.
    pub fn simple(table: impl Into<String>, select: Vec<Attr>) -> Self {
        QueryBody {
            select,
            from: vec![table.into()],
            joins: vec![],
            filter: None,
            group: None,
            order: None,
            superlative: None,
        }
    }

    pub fn has_join(&self) -> bool {
        !self.joins.is_empty() || self.from.len() > 1
    }
}

/// Set-operation kinds of the `Q` production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SetOp {
    Intersect,
    Union,
    Except,
}

impl SetOp {
    pub fn keyword(self) -> &'static str {
        match self {
            SetOp::Intersect => "intersect",
            SetOp::Union => "union",
            SetOp::Except => "except",
        }
    }
}

/// The `Q` production: a single body or a set-combination of two bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SetQuery {
    Simple(Box<QueryBody>),
    Compound { op: SetOp, left: Box<QueryBody>, right: Box<QueryBody> },
}

impl SetQuery {
    pub fn simple(body: QueryBody) -> Self {
        SetQuery::Simple(Box::new(body))
    }

    /// The primary (left-most) body — the one tree edits operate on.
    pub fn primary(&self) -> &QueryBody {
        match self {
            SetQuery::Simple(b) => b,
            SetQuery::Compound { left, .. } => left,
        }
    }

    pub fn primary_mut(&mut self) -> &mut QueryBody {
        match self {
            SetQuery::Simple(b) => b,
            SetQuery::Compound { left, .. } => left,
        }
    }

    pub fn set_op(&self) -> Option<SetOp> {
        match self {
            SetQuery::Simple(_) => None,
            SetQuery::Compound { op, .. } => Some(*op),
        }
    }

    /// Both bodies (one for simple queries).
    pub fn bodies(&self) -> Vec<&QueryBody> {
        match self {
            SetQuery::Simple(b) => vec![b],
            SetQuery::Compound { left, right, .. } => vec![left, right],
        }
    }

    pub fn bodies_mut(&mut self) -> Vec<&mut QueryBody> {
        match self {
            SetQuery::Simple(b) => vec![b],
            SetQuery::Compound { left, right, .. } => vec![left, right],
        }
    }

    /// True if any filter anywhere in the query nests a subquery.
    pub fn has_subquery(&self) -> bool {
        self.bodies()
            .iter()
            .any(|b| b.filter.as_ref().is_some_and(|p| p.has_subquery()))
    }
}

/// The `Root` production: an optional `Visualize` plus a query.
///
/// A tree with `chart == None` is an **SQL tree** (*t_Q* in the paper); a
/// tree with `chart == Some(_)` is a **VIS tree** (*t_i*).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VisQuery {
    pub chart: Option<ChartType>,
    pub query: SetQuery,
}

impl VisQuery {
    /// An SQL tree (no visualization).
    pub fn sql(query: SetQuery) -> Self {
        VisQuery { chart: None, query }
    }

    /// A VIS tree.
    pub fn vis(chart: ChartType, query: SetQuery) -> Self {
        VisQuery { chart: Some(chart), query }
    }

    pub fn is_vis(&self) -> bool {
        self.chart.is_some()
    }

    /// Lowercased names of every table this query can read: FROM lists of
    /// all bodies, recursively including subqueries in filters. Qualifier
    /// tables of column references are *not* included — execution resolves
    /// columns against the FROM relation only, so a database restricted to
    /// these tables behaves identically (used by the differential-test
    /// shrinker to drop irrelevant tables from counterexamples).
    pub fn referenced_tables(&self) -> Vec<String> {
        fn walk_set(q: &SetQuery, out: &mut Vec<String>) {
            for body in q.bodies() {
                for t in &body.from {
                    let t = t.to_lowercase();
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
                if let Some(p) = &body.filter {
                    p.for_each_leaf(&mut |leaf| {
                        let operands: Vec<&Operand> = match leaf {
                            Predicate::Cmp { rhs, .. } | Predicate::In { rhs, .. } => vec![rhs],
                            Predicate::Between { low, high, .. } => vec![low, high],
                            _ => vec![],
                        };
                        for o in operands {
                            if let Operand::Subquery(sub) = o {
                                walk_set(sub, out);
                            }
                        }
                    });
                }
            }
        }
        let mut out = Vec::new();
        walk_set(&self.query, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> QueryBody {
        QueryBody::simple(
            "flight",
            vec![Attr::col("flight", "destination"), Attr::agg(AggFunc::Count, "flight", "*")],
        )
    }

    #[test]
    fn chart_keyword_round_trip() {
        for c in ChartType::ALL {
            assert_eq!(ChartType::from_keyword(c.keyword()), Some(c), "{c:?}");
        }
        assert_eq!(ChartType::from_keyword("heatmap"), None);
    }

    #[test]
    fn agg_keyword_round_trip() {
        for a in [AggFunc::Max, AggFunc::Min, AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            assert_eq!(AggFunc::from_keyword(a.keyword()), Some(a));
        }
        assert_eq!(AggFunc::from_keyword(""), None);
    }

    #[test]
    fn literal_tokens() {
        assert_eq!(Literal::Int(5).to_token(), "5");
        assert_eq!(Literal::Float(2.0).to_token(), "2.0");
        assert_eq!(Literal::Float(2.5).to_token(), "2.5");
        assert_eq!(Literal::Text("O'Hare".into()).to_token(), "'O''Hare'");
        assert_eq!(Literal::Null.to_token(), "null");
        assert_eq!(Literal::Bool(true).to_token(), "true");
    }

    #[test]
    fn attr_display() {
        assert_eq!(Attr::col("t", "c").to_string(), "t.c");
        assert_eq!(Attr::agg(AggFunc::Count, "t", "*").to_string(), "count ( t.* )");
        let mut d = Attr::agg(AggFunc::Count, "t", "c");
        d.distinct = true;
        assert_eq!(d.to_string(), "count ( distinct t.c )");
    }

    #[test]
    fn predicate_leaf_count_and_subquery() {
        let leaf = Predicate::Cmp {
            op: CmpOp::Gt,
            attr: Attr::col("t", "price"),
            rhs: Operand::int(100),
        };
        let sub = Predicate::In {
            attr: Attr::col("t", "id"),
            rhs: Operand::Subquery(Box::new(SetQuery::simple(body()))),
            negated: false,
        };
        let both = Predicate::And(Box::new(leaf.clone()), Box::new(sub));
        assert_eq!(leaf.leaf_count(), 1);
        assert_eq!(both.leaf_count(), 2);
        assert!(!leaf.has_subquery());
        assert!(both.has_subquery());
    }

    #[test]
    fn and_opt_combinations() {
        let p = || Predicate::Cmp {
            op: CmpOp::Eq,
            attr: Attr::col("t", "c"),
            rhs: Operand::int(1),
        };
        assert!(Predicate::and_opt(None, None).is_none());
        assert_eq!(Predicate::and_opt(Some(p()), None), Some(p()));
        assert_eq!(Predicate::and_opt(None, Some(p())), Some(p()));
        assert_eq!(
            Predicate::and_opt(Some(p()), Some(p())).unwrap().leaf_count(),
            2
        );
    }

    #[test]
    fn bin_unit_round_trip() {
        let units = [
            BinUnit::Minute,
            BinUnit::Hour,
            BinUnit::Weekday,
            BinUnit::Month,
            BinUnit::Quarter,
            BinUnit::Year,
            BinUnit::Numeric { n_bins: 10 },
            BinUnit::Numeric { n_bins: 25 },
        ];
        for u in units {
            assert_eq!(BinUnit::from_keyword(&u.keyword()), Some(u), "{u:?}");
        }
        assert_eq!(BinUnit::from_keyword("bucket_x"), None);
    }

    #[test]
    fn set_query_accessors() {
        let simple = SetQuery::simple(body());
        assert!(simple.set_op().is_none());
        assert_eq!(simple.bodies().len(), 1);

        let comp = SetQuery::Compound {
            op: SetOp::Union,
            left: Box::new(body()),
            right: Box::new(body()),
        };
        assert_eq!(comp.set_op(), Some(SetOp::Union));
        assert_eq!(comp.bodies().len(), 2);
        assert_eq!(comp.primary().from, vec!["flight".to_string()]);
    }

    #[test]
    fn vis_query_flags() {
        let q = VisQuery::sql(SetQuery::simple(body()));
        assert!(!q.is_vis());
        let v = VisQuery::vis(ChartType::Pie, SetQuery::simple(body()));
        assert!(v.is_vis());
    }

    #[test]
    fn group_spec_counts() {
        let mut g = GroupSpec::by(ColumnRef::new("t", "c"));
        assert_eq!(g.key_count(), 1);
        g.bin = Some(BinSpec { col: ColumnRef::new("t", "d"), unit: BinUnit::Year });
        assert_eq!(g.key_count(), 2);
        assert!(!g.is_empty());
        assert!(GroupSpec::default().is_empty());
    }
}
