//! The man-hour cost model (§3.1 and §3.3 / Figure 14).
//!
//! The paper's accounting:
//!
//! * NL edits after tree **deletions** need a human pass — the two PhD
//!   students spent ~1 minute per revised NL variant (3,500 variants for
//!   1,838 vis objects ⇒ ~2.4 days);
//! * building nvBench **from scratch** would take the measured average T3
//!   writing time, 140 seconds, per (NL, VIS) pair
//!   (140 s × 25,750 ⇒ ~1,001 hours ≈ 42 days);
//! * hence the synthesizer needs 5.7% of the from-scratch man-hours
//!   ("building from scratch takes 17.5× of our method").

use crate::benchmark::NvBench;

/// Seconds to manually revise one NL variant after deletions (§3.1).
pub const SECONDS_PER_MANUAL_EDIT: f64 = 60.0;
/// Average seconds for an expert to write one NL query from scratch
/// (measured in task T3, Figure 14).
pub const SECONDS_PER_SCRATCH_QUERY: f64 = 140.0;

/// The cost comparison for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Vis objects whose NL required manual revision.
    pub manual_vis_objects: usize,
    /// NL variants belonging to those vis objects.
    pub manual_nl_variants: usize,
    /// Total (NL, VIS) pairs.
    pub total_pairs: usize,
    /// Man-hours with the synthesizer (manual revisions only).
    pub synthesizer_hours: f64,
    /// Man-hours to write every NL query from scratch.
    pub scratch_hours: f64,
}

impl CostReport {
    pub fn of(bench: &NvBench) -> CostReport {
        let manual_vis: Vec<usize> = bench
            .vis_objects
            .iter()
            .filter(|v| v.needed_manual_nl)
            .map(|v| v.vis_id)
            .collect();
        let manual_set: std::collections::HashSet<usize> = manual_vis.iter().copied().collect();
        let manual_nl_variants = bench
            .pairs
            .iter()
            .filter(|p| manual_set.contains(&p.vis_id))
            .count();
        CostReport::from_counts(manual_vis.len(), manual_nl_variants, bench.pairs.len())
    }

    /// Price the counts with the paper's time constants.
    fn from_counts(
        manual_vis_objects: usize,
        manual_nl_variants: usize,
        total_pairs: usize,
    ) -> CostReport {
        CostReport {
            manual_vis_objects,
            manual_nl_variants,
            total_pairs,
            synthesizer_hours: manual_nl_variants as f64 * SECONDS_PER_MANUAL_EDIT / 3600.0,
            scratch_hours: total_pairs as f64 * SECONDS_PER_SCRATCH_QUERY / 3600.0,
        }
    }

    /// Synthesizer cost as a fraction of from-scratch cost (the paper's
    /// 5.7%).
    pub fn cost_ratio(&self) -> f64 {
        if self.scratch_hours <= 0.0 {
            return 0.0;
        }
        self.synthesizer_hours / self.scratch_hours
    }

    /// From-scratch cost as a multiple of the synthesizer cost (the paper's
    /// 17.5×).
    pub fn speedup(&self) -> f64 {
        if self.synthesizer_hours <= 0.0 {
            return f64::INFINITY;
        }
        self.scratch_hours / self.synthesizer_hours
    }

    /// Man-days at 24 h/day, matching the paper's "2.4 days"/"42 days"
    /// arithmetic (3500 min ÷ 60 ÷ 24 ≈ 2.4).
    pub fn synthesizer_days(&self) -> f64 {
        self.synthesizer_hours / 24.0
    }

    pub fn scratch_days(&self) -> f64 {
        self.scratch_hours / 24.0
    }
}

/// Reproduce the paper's own arithmetic with its published constants —
/// 1,838 manual vis objects / 3,500 variants / 25,750 pairs.
pub fn paper_reference_report() -> CostReport {
    CostReport::from_counts(1838, 3500, 25_750)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::{NlVisPair, VisObject};
    use nv_ast::{ChartType, Hardness, TreeEdit};

    #[test]
    fn paper_numbers_reproduce() {
        let r = paper_reference_report();
        // ~2.4 days and ~42 days, 5.7% ratio, 17.5× speedup.
        assert!((r.synthesizer_days() - 2.43).abs() < 0.05, "{}", r.synthesizer_days());
        assert!((r.scratch_days() - 41.7).abs() < 0.5, "{}", r.scratch_days());
        assert!((r.cost_ratio() - 0.057).abs() < 0.003, "{}", r.cost_ratio());
        assert!((r.speedup() - 17.2).abs() < 0.6, "{}", r.speedup());
    }

    #[test]
    fn report_counts_manual_variants() {
        let tree = nv_ast::tokens::parse_vql_str(
            "visualize bar select t.a , count ( t.* ) from t group by t.a",
        )
        .unwrap();
        let mk_vis = |id: usize, manual: bool| VisObject {
            vis_id: id,
            db_name: "d".into(),
            source_pair_id: 0,
            vql: tree.to_vql(),
            chart: ChartType::Bar,
            hardness: Hardness::Easy,
            tree: tree.clone(),
            edit: TreeEdit::default(),
            needed_manual_nl: manual,
        };
        let bench = crate::benchmark::NvBench {
            databases: vec![],
            vis_objects: vec![mk_vis(0, true), mk_vis(1, false)],
            pairs: (0..6)
                .map(|i| NlVisPair { pair_id: i, vis_id: i % 2, nl: "q".into() })
                .collect(),
        };
        let r = CostReport::of(&bench);
        assert_eq!(r.manual_vis_objects, 1);
        assert_eq!(r.manual_nl_variants, 3);
        assert_eq!(r.total_pairs, 6);
        assert!(r.cost_ratio() < 1.0);
        assert!(r.speedup() > 1.0);
    }

    #[test]
    fn zero_manual_cost() {
        let bench = crate::benchmark::NvBench {
            databases: vec![],
            vis_objects: vec![],
            pairs: vec![],
        };
        let r = CostReport::of(&bench);
        assert_eq!(r.cost_ratio(), 0.0);
        assert_eq!(r.speedup(), f64::INFINITY);
    }
}
