//! Bring-your-own-data: load a CSV, write one SQL query, and get
//! visualizations + NL descriptions out — the synthesizer applied beyond
//! any benchmark.
//!
//! ```text
//! cargo run --release --example custom_data [path/to/file.csv]
//! ```
//! Without an argument, a bundled sales CSV is used.

use nvbench::data::table_from_csv;
use nvbench::prelude::*;

const BUNDLED: &str = "\
region,product,units,revenue,sold_on
north,widget,12,340.5,2021-01-10
north,gadget,7,155.0,2021-01-22
south,widget,19,512.0,2021-02-03
south,sprocket,4,98.25,2021-02-14
east,gadget,22,610.75,2021-03-01
east,widget,9,255.0,2021-03-18
west,sprocket,16,402.0,2021-04-02
west,gadget,11,305.5,2021-04-25
north,sprocket,6,150.0,2021-05-07
south,gadget,14,391.0,2021-05-19
east,sprocket,8,210.0,2021-06-11
west,widget,21,577.5,2021-06-28
north,widget,10,280.0,2021-07-04
south,widget,13,365.0,2021-07-21
east,gadget,18,495.0,2021-08-09
west,gadget,5,137.5,2021-08-30
";

fn main() {
    let csv = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).expect("readable CSV file"),
        None => BUNDLED.to_string(),
    };
    let table = match table_from_csv("sales", &csv, ',') {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not load CSV: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "loaded table 'sales': {} rows × {} columns",
        table.n_rows(),
        table.n_cols()
    );
    for c in &table.schema.columns {
        println!("  {} ({})", c.name, c.ctype);
    }

    // Build the demo SQL from whatever schema the CSV actually has: the
    // first categorical, quantitative and temporal columns found.
    let pick = |ct: ColumnType| {
        table
            .schema
            .columns
            .iter()
            .find(|c| c.ctype == ct)
            .map(|c| c.name.clone())
    };
    let mut cols: Vec<String> = Vec::new();
    cols.extend(pick(ColumnType::Categorical));
    cols.extend(pick(ColumnType::Quantitative));
    cols.extend(pick(ColumnType::Temporal));
    if cols.is_empty() {
        eprintln!("the CSV needs at least one categorical or quantitative column");
        std::process::exit(1);
    }

    let mut db = Database::new("custom", "UserData");
    db.add_table(table);

    // One ordinary SQL query over the data…
    let sql = format!("SELECT {} FROM sales", cols.join(", "));
    let nl = format!(
        "Show the {} of all sales.",
        cols.iter().map(|c| c.replace('_', " ")).collect::<Vec<_>>().join(" and ")
    );
    println!("\ninput SQL: {sql}");

    // …and the synthesizer turns it into charts with NL descriptions.
    let synth = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
    let result = synth.synthesize_pair(&db, &nl, &sql, 11).expect("synthesis");
    println!(
        "{} candidates generated, {} kept\n",
        result.filter_stats.total,
        result.outputs.len()
    );
    for (good, variants, _) in &result.outputs {
        let tree = &good.candidate.tree;
        println!("• {}", tree.to_vql());
        println!("  e.g. \"{}\"", variants.first().map(String::as_str).unwrap_or(""));
        let cd = chart_data(&db, tree).unwrap();
        let spec = to_vega_lite(&cd);
        println!(
            "  {} → {} points, Vega-Lite mark {}\n",
            tree.chart.unwrap().display_name(),
            cd.rows.len(),
            spec["mark"]
        );
    }

    // Write the first chart's spec for pasting into the Vega editor.
    if let Some((good, _, _)) = result.outputs.first() {
        let cd = chart_data(&db, &good.candidate.tree).unwrap();
        std::fs::write(
            "custom_chart.vl.json",
            serde_json::to_string_pretty(&to_vega_lite(&cd)).unwrap(),
        )
        .unwrap();
        println!("wrote custom_chart.vl.json (paste into https://vega.github.io/editor)");
    }
}
