//! # nv-render — from VIS trees to visualizations (§2.6)
//!
//! Executes a VIS tree against a database and maps the result onto chart
//! channels ([`chart_data`]), then hard-codes the translation into two
//! target visualization languages, matching the paper: **Vega-Lite**
//! ([`to_vega_lite`]) and **ECharts** ([`to_echarts`]).
//!
//! ```
//! use nv_ast::tokens::parse_vql_str;
//! use nv_data::{table_from, ColumnType, Database, Value};
//! use nv_render::{chart_data, to_echarts, to_vega_lite};
//!
//! let mut db = Database::new("d", "Demo");
//! db.add_table(table_from(
//!     "sales",
//!     &[("region", ColumnType::Categorical), ("amount", ColumnType::Quantitative)],
//!     vec![
//!         vec![Value::text("east"), Value::Int(10)],
//!         vec![Value::text("west"), Value::Int(20)],
//!     ],
//! ));
//! let tree = parse_vql_str(
//!     "visualize bar select sales.region , sum ( sales.amount ) from sales \
//!      group by sales.region",
//! ).unwrap();
//! let cd = chart_data(&db, &tree).unwrap();
//! assert_eq!(to_vega_lite(&cd)["mark"], serde_json::json!("bar"));
//! assert_eq!(to_echarts(&cd)["series"][0]["type"], serde_json::json!("bar"));
//! ```

pub mod chart;
pub mod echarts;
pub mod vegalite;

pub use chart::{
    chart_data, chart_data_cached_budgeted, chart_data_with, ChartData, ChartRow, RenderError,
};
pub use echarts::to_echarts;
pub use vegalite::to_vega_lite;
