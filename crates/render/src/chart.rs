//! Chart data: the bridge between a VIS tree's query result and a concrete
//! visualization spec.

use nv_ast::{ChartType, VisQuery};
use nv_data::{
    execute_with, ColumnType, Database, ExecBudget, ExecCache, ExecError, ExecOptions, ResultSet,
    Value,
};

/// Error producing chart data.
#[derive(Debug, Clone, PartialEq)]
pub enum RenderError {
    /// The underlying query failed.
    Exec(ExecError),
    /// The tree has no `Visualize` node.
    NotAVisQuery,
    /// The result shape does not fit the chart type (arity / channel types).
    Shape(String),
}

impl std::fmt::Display for RenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderError::Exec(e) => write!(f, "{e}"),
            RenderError::NotAVisQuery => write!(f, "tree has no Visualize node"),
            RenderError::Shape(m) => write!(f, "chart shape error: {m}"),
        }
    }
}

impl std::error::Error for RenderError {}

impl From<ExecError> for RenderError {
    fn from(e: ExecError) -> Self {
        RenderError::Exec(e)
    }
}

/// One data point of a chart.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartRow {
    pub x: Value,
    pub y: Value,
    /// The color/series value for grouped chart types.
    pub series: Option<Value>,
}

/// Executed, channel-mapped chart data.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartData {
    pub chart: ChartType,
    pub x_name: String,
    pub y_name: String,
    pub series_name: Option<String>,
    pub x_type: ColumnType,
    pub y_type: ColumnType,
    pub rows: Vec<ChartRow>,
}

impl ChartData {
    /// Distinct x values.
    pub fn n_categories(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.rows.iter().filter(|r| seen.insert(&r.x)).count()
    }

    /// Distinct series values (0 when ungrouped).
    pub fn n_series(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.rows
            .iter()
            .filter_map(|r| r.series.as_ref())
            .filter(|s| seen.insert(*s))
            .count()
    }
}

/// Execute a VIS tree and map its result columns onto chart channels, with
/// no cache and the default executor budget.
///
/// Channel convention (established by the synthesizer's select ordering):
/// column 0 → x, column 1 → y, column 2 (grouped charts) → color/series.
/// For `GroupingScatter` the third select attribute is the categorical
/// series even though x and y are both quantitative.
pub fn chart_data(db: &Database, q: &VisQuery) -> Result<ChartData, RenderError> {
    chart_data_with(db, q, ExecOptions::default())
}

/// [`chart_data`] executed under explicit [`ExecOptions`]: a per-database
/// [`ExecCache`] lets sibling candidates sharing a FROM/WHERE/GROUP
/// fragment reuse work, and the budget bounds the executor.
pub fn chart_data_with(
    db: &Database,
    q: &VisQuery,
    opts: ExecOptions,
) -> Result<ChartData, RenderError> {
    let chart = q.chart.ok_or(RenderError::NotAVisQuery)?;
    let (rs, _) = execute_with(db, q, opts)?;
    chart_data_from_result(chart, &rs)
}

/// [`chart_data_with`] through `cache` under `budget`. Kept only because
/// the `nvperf` benchmark (`nvperf/src/synth.rs`) calls it.
pub fn chart_data_cached_budgeted(
    db: &Database,
    q: &VisQuery,
    cache: &mut ExecCache,
    budget: ExecBudget,
) -> Result<ChartData, RenderError> {
    chart_data_with(db, q, ExecOptions { cache: Some(cache), budget })
}

/// Channel-map an already-executed result set.
fn chart_data_from_result(chart: ChartType, rs: &ResultSet) -> Result<ChartData, RenderError> {
    let need = if chart.is_grouped() { 3 } else { 2 };
    if rs.columns.len() != need {
        return Err(RenderError::Shape(format!(
            "{} chart needs {need} result columns, got {}",
            chart.keyword(),
            rs.columns.len()
        )));
    }
    let (xi, yi, si) = (0usize, 1usize, if chart.is_grouped() { Some(2usize) } else { None });

    let rows: Vec<ChartRow> = rs
        .rows
        .iter()
        .map(|r| ChartRow {
            x: r[xi].clone(),
            y: r[yi].clone(),
            series: si.map(|i| r[i].clone()),
        })
        .collect();

    Ok(ChartData {
        chart,
        x_name: rs.columns[xi].clone(),
        y_name: rs.columns[yi].clone(),
        series_name: si.map(|i| rs.columns[i].clone()),
        x_type: rs.types[xi],
        y_type: rs.types[yi],
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_ast::tokens::parse_vql_str;
    use nv_data::table_from;

    fn db() -> Database {
        let mut db = Database::new("d", "Demo");
        db.add_table(table_from(
            "sales",
            &[
                ("region", ColumnType::Categorical),
                ("amount", ColumnType::Quantitative),
                ("year", ColumnType::Quantitative),
            ],
            vec![
                vec![Value::text("east"), Value::Int(10), Value::Int(2020)],
                vec![Value::text("east"), Value::Int(20), Value::Int(2021)],
                vec![Value::text("west"), Value::Int(5), Value::Int(2020)],
            ],
        ));
        db
    }

    #[test]
    fn bar_chart_channels() {
        let q = parse_vql_str(
            "visualize bar select sales.region , sum ( sales.amount ) from sales \
             group by sales.region",
        )
        .unwrap();
        let cd = chart_data(&db(), &q).unwrap();
        assert_eq!(cd.chart, ChartType::Bar);
        assert_eq!(cd.n_categories(), 2);
        assert_eq!(cd.n_series(), 0);
        assert_eq!(cd.x_name, "sales.region");
        assert_eq!(cd.y_type, ColumnType::Quantitative);
        let east = cd.rows.iter().find(|r| r.x == Value::text("east")).unwrap();
        assert_eq!(east.y, Value::Int(30));
    }

    #[test]
    fn grouped_chart_has_series() {
        let q = parse_vql_str(
            "visualize stacked_bar select sales.region , sum ( sales.amount ) , sales.year \
             from sales group by sales.region , sales.year",
        )
        .unwrap();
        let cd = chart_data(&db(), &q).unwrap();
        assert_eq!(cd.n_series(), 2);
        assert_eq!(cd.series_name.as_deref(), Some("sales.year"));
    }

    #[test]
    fn wrong_arity_is_shape_error() {
        let q = parse_vql_str("visualize bar select sales.region from sales").unwrap();
        let e = chart_data(&db(), &q).unwrap_err();
        assert!(matches!(e, RenderError::Shape(_)), "{e}");
        let q = parse_vql_str(
            "visualize stacked_bar select sales.region , sum ( sales.amount ) from sales \
             group by sales.region",
        )
        .unwrap();
        assert!(matches!(chart_data(&db(), &q), Err(RenderError::Shape(_))));
    }

    #[test]
    fn sql_tree_is_rejected() {
        let q = parse_vql_str("select sales.region from sales").unwrap();
        assert_eq!(chart_data(&db(), &q), Err(RenderError::NotAVisQuery));
    }

    #[test]
    fn exec_errors_propagate() {
        let q = parse_vql_str(
            "visualize bar select ghost.a , count ( ghost.* ) from ghost group by ghost.a",
        )
        .unwrap();
        assert!(matches!(chart_data(&db(), &q), Err(RenderError::Exec(_))));
    }
}
