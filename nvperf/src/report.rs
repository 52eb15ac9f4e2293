//! Metric catalog and the result line.
//!
//! Every run prints the whole catalog for its mode: the end-to-end metrics
//! for an untraced run, the per-layer metrics for a traced one. A per-layer
//! metric of a layer the workload does not call reads 0, which is how the
//! report shows that a workload bypasses a layer.

use crate::stats::Dist;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Whether lower or higher values are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: (name, unit, better, regression bound).
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.2),
    ("items_per_s", "1/s", Higher, 0.25),
];

/// Per-layer metrics: (name, unit, better).
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // synth: outside-in per-pair layer timings on one thread.
    ("sql.parse_us.p50", "us", Lower),
    ("sql.parse_us.p99", "us", Lower),
    ("sql.parse.share", "frac", Lower),
    ("synth.edits_us.p50", "us", Lower),
    ("synth.edits_us.p99", "us", Lower),
    ("synth.edits.share", "frac", Lower),
    ("synth.candidates_per_pair", "count", Lower),
    ("synth.filter_us.p50", "us", Lower),
    ("synth.filter_us.p99", "us", Lower),
    ("synth.filter.share", "frac", Lower),
    ("render.chart_data_us.p50", "us", Lower),
    ("render.chart_data_us.p99", "us", Lower),
    ("render.chart_data.share", "frac", Lower),
    ("render.chart_data.samples", "count", Higher),
    ("quality.evaluate_us.p50", "us", Lower),
    ("quality.evaluate.share", "frac", Lower),
    ("synth.filter_keep_ratio", "frac", Higher),
    ("synth.nledit_us.p50", "us", Lower),
    ("synth.nledit_us.p99", "us", Lower),
    ("synth.nledit.share", "frac", Lower),
    ("synth.layer_pairs", "count", Higher),
    ("synth.attributed_frac", "frac", Higher),
    // synth: executor counters from the traced passes.
    ("data.cache.scan.hit_rate", "frac", Higher),
    ("data.cache.group.hit_rate", "frac", Higher),
    ("data.cache.result.hit_rate", "frac", Higher),
    ("data.exec.fuel_per_pair", "count", Lower),
    ("data.exec.scan_rows_per_pair", "count", Lower),
    ("core.par_efficiency", "frac", Higher),
    // train
    ("nn.step_us.p50", "us", Lower),
    ("nn.step_us.p90", "us", Lower),
    ("nn.step.share", "frac", Lower),
    ("nn.step.samples", "count", Higher),
    ("nn.val_loss_ms", "ms", Lower),
    ("nn.val_loss.share", "frac", Lower),
    ("nn.gemm_gflops", "GFLOP/s", Higher),
    ("nn.tape_nodes_per_token", "count", Lower),
    ("nn.par_efficiency", "frac", Higher),
    ("nn.val_loss", "nats", Lower),
    ("seq2vis.prepare_ms", "ms", Lower),
    ("seq2vis.prepare.share", "frac", Lower),
    // predict
    ("nn.decode_us_per_token.basic", "us", Lower),
    ("nn.decode_us_per_token.attention", "us", Lower),
    ("nn.decode_us_per_token.copy", "us", Lower),
    ("nn.decode.share", "frac", Lower),
    ("seq2vis.postprocess_us.p50", "us", Lower),
    ("seq2vis.postprocess.share", "frac", Lower),
    ("predict.decoded_tokens", "count", Lower),
    ("predict.seq2vis_tokens_per_s", "1/s", Higher),
    ("predict.baseline_pairs_per_s", "1/s", Higher),
    ("baselines.deepeye_us.p50", "us", Lower),
    ("baselines.deepeye_us.p90", "us", Lower),
    ("baselines.deepeye.share", "frac", Lower),
    ("baselines.deepeye.samples", "count", Higher),
    ("baselines.nl4dv_us.p50", "us", Lower),
    ("baselines.nl4dv.share", "frac", Lower),
    // every workload
    ("trace.overhead_frac", "frac", Lower),
];

/// Unit of a catalogued metric.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Collects the metrics of one run by catalog name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Record `value` under the catalogued `name`. An uncatalogued name is a
    /// bug in the workload code.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        debug_assert!(valid_name(name));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Record a timing distribution in microseconds: `<base>.p50` and, when
    /// the sample supports it, the tail level `<base>.p90`/`.p99`. A level
    /// the catalog does not list is skipped (tiny runs have fewer samples).
    pub fn set_dist_us(&mut self, base: &str, dist: &Dist) {
        self.set(&format!("{base}.p50"), dist.p50);
        if let Some((label, v)) = dist.tail {
            let name = format!("{base}.{label}");
            if unit_of(&name).is_some() {
                self.set(&name, v);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The catalog section for this mode, in catalog order; metrics the
    /// workload did not set read 0. Metrics of the other mode are dropped.
    pub fn for_mode(&self, traced: bool) -> Vec<Metric> {
        let names: Vec<(&str, &'static str)> = if traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| Metric {
                name: name.to_string(),
                unit,
                value: self.get(name).unwrap_or(0.0),
            })
            .collect()
    }
}

/// A metric, unit or workload name the report may use: 1–64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Quote a string as JSON (the report only ever holds printable ASCII
/// names, but escape the two characters JSON requires anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": …, "unit": …}` with every digit
/// of the measurement.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogued_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
    }

    #[test]
    fn name_rule_rejects_other_characters() {
        for bad in ["", ".x", "a b", "a/b", "é", "x:y", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        for good in ["a", "9.x-y_z", "sql.parse_us.p50"] {
            assert!(valid_name(good), "{good:?} rejected");
        }
    }

    /// BENCHMARK.json at the repository root lists exactly this catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = text.matches("\"name\":").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json_str(name),
                json_str(unit),
                json_str(better.label())
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better.label())
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": {}, \"why\":", json_str(w))),
                "workload {w}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        let line = result_line(true, 10, 0, &m.for_mode(false));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn modes_select_their_catalog_section() {
        let mut m = Metrics::default();
        m.set("items_per_s", 5.0);
        m.set("trace.overhead_frac", 0.01);
        let plain = m.for_mode(false);
        let traced = m.for_mode(true);
        assert_eq!(plain.len(), END_TO_END.len());
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(plain
            .iter()
            .any(|x| x.name == "items_per_s" && x.value == 5.0));
        assert!(traced.iter().all(|x| x.name != "items_per_s"));
        assert!(traced
            .iter()
            .any(|x| x.name == "trace.overhead_frac" && x.value == 0.01));
    }
}
