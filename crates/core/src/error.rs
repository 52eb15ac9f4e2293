//! The workspace-wide error taxonomy.
//!
//! Every fallible layer of the synthesis stack keeps its own precise error
//! type (`SqlError`, `ExecError`, `CsvError`, `RenderError`,
//! `PipelineError`) — those are the types to match on near the failure.
//! [`NvErrorKind`] is the one classification above them: a broad failure
//! family per quarantined pair, assigned by
//! [`PipelineError::kind`](crate::PipelineError::kind), so corpus-scale
//! tooling (the quarantine ledger, trace counters) can aggregate failures
//! without knowing every crate's enum.

use serde::Serialize;

/// The failure family of a quarantined pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum NvErrorKind {
    /// Malformed input text: lexing or parsing failed.
    Parse,
    /// Query execution failed (type errors, unsupported shapes).
    Exec,
    /// Name resolution failed: unknown table, column, or database.
    Schema,
    /// An executor budget was hit: rows, subquery depth, or fuel.
    ResourceExhausted,
    /// Invariant violation, caught panic, or injected fault.
    Internal,
}

impl NvErrorKind {
    /// Stable lower-snake-case label (what quarantine.json records).
    pub fn label(self) -> &'static str {
        match self {
            NvErrorKind::Parse => "parse",
            NvErrorKind::Exec => "exec",
            NvErrorKind::Schema => "schema",
            NvErrorKind::ResourceExhausted => "resource_exhausted",
            NvErrorKind::Internal => "internal",
        }
    }
}

impl std::fmt::Display for NvErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        for (k, l) in [
            (NvErrorKind::Parse, "parse"),
            (NvErrorKind::ResourceExhausted, "resource_exhausted"),
            (NvErrorKind::Internal, "internal"),
        ] {
            assert_eq!(k.label(), l);
            assert_eq!(k.to_string(), l);
        }
    }
}
