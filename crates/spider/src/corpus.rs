//! Assemble a full synthetic NL2SQL corpus: many databases across domains,
//! each with generated (NL, SQL) pairs — the drop-in Spider substitute that
//! feeds the nl2sql-to-nl2vis synthesizer.

use crate::datagen::generate_database;
use crate::querygen::{QueryGen, QueryGenConfig, SpiderPair};
use crate::template::domain_templates;
use nv_data::Database;

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of databases (templates are cycled; nvBench has 153).
    pub n_databases: usize,
    /// (NL, SQL) pairs per database (Spider averages ~50/db).
    pub pairs_per_db: usize,
    pub seed: u64,
    pub query_cfg: QueryGenConfig,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            n_databases: 30,
            pairs_per_db: 40,
            seed: 42,
            query_cfg: QueryGenConfig::default(),
        }
    }
}

impl CorpusConfig {
    /// A small configuration for unit tests and examples.
    pub fn small(seed: u64) -> CorpusConfig {
        CorpusConfig {
            n_databases: 4,
            pairs_per_db: 12,
            seed,
            query_cfg: QueryGenConfig { n_pairs: 12, ..Default::default() },
        }
    }
}

/// The generated corpus.
#[derive(Debug, Clone)]
pub struct SpiderCorpus {
    pub databases: Vec<Database>,
    pub pairs: Vec<SpiderPair>,
}

impl SpiderCorpus {
    /// Generate deterministically from the configuration.
    pub fn generate(cfg: &CorpusConfig) -> SpiderCorpus {
        let templates = domain_templates();
        let mut databases = Vec::with_capacity(cfg.n_databases);
        let mut pairs = Vec::with_capacity(cfg.n_databases * cfg.pairs_per_db);
        for i in 0..cfg.n_databases {
            let tpl = &templates[i % templates.len()];
            let db = generate_database(tpl, i, cfg.seed);
            let mut qcfg = cfg.query_cfg.clone();
            qcfg.n_pairs = cfg.pairs_per_db;
            let mut qg = QueryGen::new(&db, cfg.seed ^ (i as u64 + 1), qcfg);
            pairs.extend(qg.generate(pairs.len()));
            databases.push(db);
        }
        SpiderCorpus { databases, pairs }
    }

    pub fn database(&self, name: &str) -> Option<&Database> {
        self.databases
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
    }

    /// Number of distinct domains represented.
    pub fn n_domains(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        self.databases.iter().for_each(|d| {
            set.insert(d.domain.as_str());
        });
        set.len()
    }

    /// Total table count across all databases.
    pub fn n_tables(&self) -> usize {
        self.databases.iter().map(|d| d.tables.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_sql::parse_sql;

    #[test]
    fn small_corpus_generates() {
        let c = SpiderCorpus::generate(&CorpusConfig::small(1));
        assert_eq!(c.databases.len(), 4);
        assert_eq!(c.pairs.len(), 48);
        assert!(c.n_domains() >= 4);
        assert!(c.n_tables() >= 12);
    }

    #[test]
    fn pair_ids_are_dense_and_unique() {
        let c = SpiderCorpus::generate(&CorpusConfig::small(2));
        for (i, p) in c.pairs.iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn every_pair_resolves_against_its_database() {
        let c = SpiderCorpus::generate(&CorpusConfig::small(3));
        for p in &c.pairs {
            let db = c.database(&p.db_name).expect("db exists");
            parse_sql(db, &p.sql).unwrap_or_else(|e| panic!("{}: {e}", p.sql));
        }
    }

    #[test]
    fn deterministic() {
        let a = SpiderCorpus::generate(&CorpusConfig::small(5));
        let b = SpiderCorpus::generate(&CorpusConfig::small(5));
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn templates_cycle_past_library_size() {
        let cfg = CorpusConfig {
            n_databases: 20,
            pairs_per_db: 2,
            seed: 9,
            query_cfg: QueryGenConfig { n_pairs: 2, ..Default::default() },
        };
        let c = SpiderCorpus::generate(&cfg);
        assert_eq!(c.databases.len(), 20);
        // Same template instantiated twice must differ in name and data.
        let names: std::collections::HashSet<&str> =
            c.databases.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), 20);
    }
}
