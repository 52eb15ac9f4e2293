//! Step 2 — NL synthesis (§2.5): revise the SQL pair's NL query to reflect
//! the tree edits Δ, producing several NL variants per VIS tree.
//!
//! * **Insertions** are verbalized with phrase rules (the paper extracts
//!   these from Ask Data / NL4DV; the rule table of §2.5 is reproduced in
//!   the private `chart_phrase`, `grouping_phrase`, `binning_phrase` and
//!   `order_phrase` helpers and the aggregate wording).
//! * **Deletions** cannot be rewritten automatically (the deleted clause may
//!   be implicit in the original NL); the paper had two PhD students revise
//!   those by hand (~1 min each). We simulate that manual pass by
//!   regenerating the data-description from the (fully known) VIS tree —
//!   see [`describe_data_part`] — and flag the pair via
//!   [`NlResult::needs_manual_revision`] so the cost model (§3.1) can count
//!   it.
//! * Every variant is then smoothed (back-translation substitute,
//!   [`crate::smoother`]).

use crate::edits::VisCandidate;
use crate::smoother::{normalize, smooth};
use nv_ast::*;
use nv_data::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Output of NL synthesis for one VIS tree.
#[derive(Debug, Clone, PartialEq)]
pub struct NlResult {
    pub variants: Vec<String>,
    /// True when the edit contained deletions (§2.5: manually revised; here
    /// simulated and counted by the man-hour model).
    pub needs_manual_revision: bool,
}

/// Variants to produce per vis (paper averages 3.75 per vis).
const VARIANTS_PER_VIS: std::ops::RangeInclusive<usize> = 3..=5;
/// Smoother strength.
const SMOOTHING: f64 = 0.45;

/// The NL synthesizer. Seeded: same input ⇒ same variants.
pub struct NlSynthesizer {
    rng: StdRng,
}

impl NlSynthesizer {
    pub fn new(seed: u64) -> NlSynthesizer {
        NlSynthesizer { rng: StdRng::seed_from_u64(seed) }
    }

    /// Produce NL variants for one filtered candidate.
    pub fn synthesize(
        &mut self,
        db: &Database,
        original_nl: &str,
        vis: &VisCandidate,
    ) -> NlResult {
        let needs_manual = vis.edit.needs_manual_nl_revision();
        // Core data description: the original NL when it still covers the
        // query; a regenerated description after deletions.
        let core = if needs_manual {
            describe_data_part(db, &vis.tree)
        } else {
            trim_terminal(original_nl)
        };

        let n = self.rng.random_range(VARIANTS_PER_VIS);
        let mut variants = Vec::with_capacity(n);
        let mut guard = 0;
        while variants.len() < n && guard < n * 6 {
            guard += 1;
            let raw = self.one_variant(&core, vis);
            let smoothed = smooth(&mut self.rng, &raw, SMOOTHING);
            if !variants.contains(&smoothed) {
                variants.push(smoothed);
            }
        }
        NlResult { variants, needs_manual_revision: needs_manual }
    }

    /// One raw (pre-smoothing) variant: wrap the core with the chart phrase
    /// and append insertion phrases.
    fn one_variant(&mut self, core: &str, vis: &VisCandidate) -> String {
        // Candidates are always VIS trees; fall back to Bar rather than
        // panic if a caller ever hands in an unvisualized tree.
        let chart = vis.tree.chart.unwrap_or(ChartType::Bar);
        let mut tail_phrases: Vec<String> = Vec::new();
        for op in vis.edit.insertions() {
            match op {
                EditOp::InsertGrouping(col)
                    // Skip when the grouping is already implied by a count
                    // phrase mentioning the column (avoids "for each x for
                    // each x").
                    if !core.to_lowercase().contains(&display(&col.column)) => {
                        tail_phrases.push(self.grouping_phrase(col));
                    }
                EditOp::InsertBinning(spec) => tail_phrases.push(self.binning_phrase(spec)),
                EditOp::InsertOrder(spec) => tail_phrases.push(self.order_phrase(spec)),
                EditOp::InsertAgg { .. } | EditOp::InsertVisualize(_) => {}
                _ => {}
            }
        }
        // The count/agg insertion is verbalized as part of the y phrase when
        // the core was regenerated; when the core is the original NL, a
        // count phrase is prefixed.
        let count_inserted = vis
            .edit
            .insertions()
            .any(|op| matches!(op, EditOp::InsertAgg { agg: AggFunc::Count, .. }));
        let mut body = core.to_string();
        if count_inserted && !body.to_lowercase().contains("how many")
            && !body.to_lowercase().contains("number of")
        {
            let lead = pick(&mut self.rng, &["the number of records of", "a count of"]);
            body = format!("{lead} {body}");
        }

        let tail = if tail_phrases.is_empty() {
            String::new()
        } else {
            format!(" {}", tail_phrases.join(", "))
        };
        let phrase = self.chart_phrase(chart);
        match phrase {
            ChartPhrase::Prefix(p) => normalize(&format!("{p} {body}{tail}")),
            ChartPhrase::Suffix(sfx) => normalize(&format!("{body}{tail}{sfx}")),
        }
    }

    fn chart_phrase(&mut self, chart: ChartType) -> ChartPhrase {
        let name = chart.display_name();
        // Pie charts get the implicit "proportion" phrasing sometimes
        // (paper Example 5).
        if chart == ChartType::Pie && self.rng.random::<f64>() < 0.35 {
            return ChartPhrase::Prefix("show the proportion about".into());
        }
        if self.rng.random::<f64>() < 0.5 {
            let verb = pick(&mut self.rng, &["show", "visualize", "draw", "plot", "give me"]);
            ChartPhrase::Prefix(format!("{verb} a {name} about"))
        } else {
            let link = pick(&mut self.rng, &[", as a", ", in a", ", using a", ", with a"]);
            ChartPhrase::Suffix(format!("{link} {name}"))
        }
    }

    fn grouping_phrase(&mut self, col: &ColumnRef) -> String {
        let c = display(&col.column);
        match self.rng.random_range(0..3) {
            0 => format!("for each {c}"),
            1 => format!("grouped by {c}"),
            _ => format!("by each {c}"),
        }
    }

    fn binning_phrase(&mut self, spec: &BinSpec) -> String {
        let c = display(&spec.col.column);
        match spec.unit {
            BinUnit::Numeric { .. } => {
                format!("with {c} divided into buckets")
            }
            unit => {
                let u = unit.keyword();
                match self.rng.random_range(0..3) {
                    0 => format!("with a bin of {u} on {c}"),
                    1 => format!("binned by {u}"),
                    _ => format!("in a bucket of {u}"),
                }
            }
        }
    }

    fn order_phrase(&mut self, spec: &OrderSpec) -> String {
        let target = if spec.attr.agg == AggFunc::Count {
            "the count".to_string()
        } else {
            format!("the {}", display(&spec.attr.col.column))
        };
        let dir = match spec.dir {
            OrderDir::Asc => "ascending",
            OrderDir::Desc => "descending",
        };
        match self.rng.random_range(0..2) {
            0 => format!("sorted by {target} in {dir} order"),
            _ => format!("ordered by {target} from {}", if dir == "descending" { "high to low" } else { "low to high" }),
        }
    }
}

enum ChartPhrase {
    Prefix(String),
    Suffix(String),
}

/// Regenerate the *what data* description from a VIS tree — the simulated
/// "manual revision" used when deletions invalidated the original NL.
pub fn describe_data_part(db: &Database, tree: &VisQuery) -> String {
    let _ = db;
    let body = tree.query.primary();
    let table = display(body.from.first().map(String::as_str).unwrap_or("data"));
    // x / y description.
    let x = body.select.first();
    let y = body.select.get(1);
    let y_phrase = match y {
        Some(a) if a.agg == AggFunc::Count => format!("how many {table} records"),
        Some(a) if a.agg != AggFunc::None => {
            format!("the {} {}", a.agg.nl_word(), display(&a.col.column))
        }
        Some(a) => format!("the {}", display(&a.col.column)),
        None => format!("the {table} records"),
    };
    let x_phrase = match x {
        Some(a) => format!(" across {}", display(&a.col.column)),
        None => String::new(),
    };
    let series_phrase = body
        .select
        .get(2)
        .map(|a| format!(", colored by {}", display(&a.col.column)))
        .unwrap_or_default();

    let mut filters = Vec::new();
    if let Some(p) = &body.filter {
        p.for_each_leaf(&mut |leaf| filters.push(filter_phrase(leaf)));
    }
    let filter_phrase = if filters.is_empty() {
        String::new()
    } else {
        format!(" for records {}", filters.join(" and "))
    };
    let sup_phrase = body
        .superlative
        .as_ref()
        .map(|s| {
            format!(
                ", keeping the {} {} by {}",
                s.k,
                if s.dir == SuperDir::Most { "largest" } else { "smallest" },
                display(&s.attr.col.column)
            )
        })
        .unwrap_or_default();

    format!("{y_phrase}{x_phrase} of {table}{series_phrase}{filter_phrase}{sup_phrase}")
}

fn filter_phrase(p: &Predicate) -> String {
    match p {
        Predicate::Cmp { op, attr, rhs } => {
            let word = match op {
                CmpOp::Eq => "is",
                CmpOp::Ne => "is not",
                CmpOp::Lt => "is below",
                CmpOp::Le => "is at most",
                CmpOp::Gt => "is above",
                CmpOp::Ge => "is at least",
            };
            format!("whose {} {word} {}", display(&attr.col.column), operand_phrase(rhs))
        }
        Predicate::Between { attr, low, high } => format!(
            "whose {} is between {} and {}",
            display(&attr.col.column),
            operand_phrase(low),
            operand_phrase(high)
        ),
        Predicate::Like { attr, pattern, negated } => format!(
            "whose {} {} like {}",
            display(&attr.col.column),
            if *negated { "does not look" } else { "looks" },
            pattern.replace('%', "")
        ),
        Predicate::In { attr, negated, .. } => format!(
            "whose {} is {}in the related set",
            display(&attr.col.column),
            if *negated { "not " } else { "" }
        ),
        Predicate::And(..) | Predicate::Or(..) => unreachable!("leaf visitor"),
    }
}

fn operand_phrase(o: &Operand) -> String {
    match o {
        // `to_token` doubles embedded quotes, so the quoted span in the NL
        // stays parseable by the V-slot extractor even for values like
        // `O'Hare` (serialize → extract must be the identity on text).
        Operand::Lit(l) => l.to_token(),
        Operand::List(ls) => ls
            .iter()
            .map(Literal::to_token)
            .collect::<Vec<_>>()
            .join(" or "),
        Operand::Subquery(_) => "the matching subset".into(),
    }
}

fn display(ident: &str) -> String {
    ident.replace('_', " ")
}

fn trim_terminal(s: &str) -> String {
    s.trim().trim_end_matches(['.', '?', '!']).to_string()
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.random_range(0..options.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edits::generate_candidates;
    use nv_data::{table_from, ColumnType, Value};

    fn db() -> Database {
        let mut db = Database::new("d", "College");
        db.add_table(table_from(
            "faculty",
            &[
                ("sex", ColumnType::Categorical),
                ("salary", ColumnType::Quantitative),
                ("rank", ColumnType::Categorical),
            ],
            vec![
                vec![Value::text("male"), Value::Int(100), Value::text("full")],
                vec![Value::text("female"), Value::Int(120), Value::text("full")],
                vec![Value::text("female"), Value::Int(90), Value::text("assistant")],
            ],
        ));
        db
    }

    fn pie_candidate() -> VisCandidate {
        let d = db();
        let cands = generate_candidates(
            &d,
            &nv_ast::tokens::parse_vql_str("select faculty.sex from faculty").unwrap(),
        );
        cands
            .into_iter()
            .find(|c| c.tree.chart == Some(ChartType::Pie))
            .unwrap()
    }

    #[test]
    fn variants_mention_chart_and_keep_core() {
        let d = db();
        let mut synth = NlSynthesizer::new(42);
        let original = "How many male and female faculties do we have?";
        let res = synth.synthesize(&d, original, &pie_candidate());
        assert!((3..=5).contains(&res.variants.len()));
        for v in &res.variants {
            let lv = v.to_lowercase();
            assert!(
                lv.contains("pie") || lv.contains("proportion") || lv.contains("share")
                    || lv.contains("percentage"),
                "no pie signal in: {v}"
            );
            assert!(lv.contains("male") || lv.contains("facult"), "core lost: {v}");
        }
        assert!(!res.needs_manual_revision);
    }

    #[test]
    fn variants_are_distinct_and_normalized() {
        let d = db();
        let mut synth = NlSynthesizer::new(1);
        let res = synth.synthesize(&d, "How many faculties per sex?", &pie_candidate());
        let set: std::collections::HashSet<&String> = res.variants.iter().collect();
        assert_eq!(set.len(), res.variants.len());
        for v in &res.variants {
            assert!(v.ends_with('.') || v.ends_with('?'), "{v}");
            assert!(!v.contains("  "), "{v}");
            assert!(v.chars().next().unwrap().is_uppercase());
        }
    }

    #[test]
    fn deletion_triggers_regenerated_core() {
        let d = db();
        let cands = generate_candidates(
            &d,
            &nv_ast::tokens::parse_vql_str(
                "select faculty.sex , faculty.salary , faculty.rank from faculty",
            )
            .unwrap(),
        );
        let deleted = cands
            .iter()
            .find(|c| c.edit.deletion_count() >= 2 && c.tree.chart == Some(ChartType::Bar))
            .expect("a heavily-deleted bar candidate");
        let mut synth = NlSynthesizer::new(7);
        let res = synth.synthesize(&d, "Show sex, salary, and rank of all faculty.", deleted);
        assert!(res.needs_manual_revision);
        // The regenerated core should NOT parrot the original sentence.
        for v in &res.variants {
            assert!(!v.contains("sex, salary, and rank"), "{v}");
        }
    }

    #[test]
    fn grouping_and_order_phrases_appear() {
        let d = db();
        let cands = generate_candidates(
            &d,
            &nv_ast::tokens::parse_vql_str("select faculty.rank , faculty.salary from faculty")
                .unwrap(),
        );
        let ordered = cands
            .iter()
            .find(|c| c.tree.query.primary().order.is_some())
            .expect("ordered variant");
        let mut synth = NlSynthesizer::new(3);
        let res = synth.synthesize(&d, "What is the salary for each rank?", ordered);
        let any_order = res.variants.iter().any(|v| {
            let lv = v.to_lowercase();
            lv.contains("sort") || lv.contains("order") || lv.contains("rank")
                || lv.contains("high to low") || lv.contains("descending") || lv.contains("decreasing")
        });
        assert!(any_order, "{:?}", res.variants);
    }

    #[test]
    fn describe_data_part_covers_clauses() {
        let d = db();
        let tree = nv_ast::tokens::parse_vql_str(
            "visualize bar select faculty.rank , avg ( faculty.salary ) from faculty \
             where faculty.sex = 'female' group by faculty.rank top 3 by avg ( faculty.salary )",
        )
        .unwrap();
        let s = describe_data_part(&d, &tree);
        assert!(s.contains("average salary"), "{s}");
        assert!(s.contains("rank"), "{s}");
        assert!(s.contains("female"), "{s}");
        assert!(s.contains("3 largest"), "{s}");
    }

    #[test]
    fn seeded_determinism() {
        let d = db();
        let c = pie_candidate();
        let a = NlSynthesizer::new(9).synthesize(&d, "How many per sex?", &c);
        let b = NlSynthesizer::new(9).synthesize(&d, "How many per sex?", &c);
        assert_eq!(a, b);
    }
}
