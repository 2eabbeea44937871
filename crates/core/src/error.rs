//! Compiler error types.

use std::error::Error;
use std::fmt;

/// Errors produced while validating specifications or compiling them to
/// hardware designs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The functionality specification is structurally ill-formed.
    Malformed(String),
    /// A variable has recurrences with conflicting difference vectors.
    InconsistentRecurrence {
        /// The offending variable's name.
        var: String,
    },
    /// The space-time transform is singular or has the wrong shape.
    InvalidTransform(String),
    /// The transform maps two iteration points to the same space-time
    /// coordinate (a physical collision).
    SpaceTimeCollision {
        /// The colliding space-time coordinate.
        coord: Vec<i64>,
    },
    /// A connection would require data to arrive before it is produced
    /// (negative Δt under the chosen transform).
    CausalityViolation {
        /// The offending variable's name.
        var: String,
        /// The space-time delta of the connection.
        delta: Vec<i64>,
    },
    /// A specification refers to an index outside the iteration space.
    UnknownIndex(String),
    /// The memory specification is inconsistent with the tensor it stores.
    BadMemorySpec(String),
    /// The iteration space has more points than the elaborator or the
    /// interpreter will build — the watchdog against runaway (or
    /// adversarially huge) iteration spaces.
    BudgetExhausted {
        /// The point budget that was exhausted.
        budget: u64,
    },
    /// A dataflow-search worker panicked while scanning its shard. The
    /// panic is caught at the shard boundary and surfaced here so one bad
    /// candidate cannot tear down the whole search process.
    WorkerPanicked {
        /// The panic message extracted from the worker's payload.
        message: String,
    },
    /// The dataflow search's analytical scoring tier and the exact fold
    /// oracle disagreed about a ranked survivor's structure — a bug in
    /// one of the tiers, surfaced instead of silently mis-ranking.
    AnalyticDivergence {
        /// What diverged: the transform plus both structure summaries.
        detail: String,
    },
    /// The dataflow search's candidate space `choices^entries` does not
    /// fit in `usize` — the enumeration cannot even be indexed, let alone
    /// scanned.
    SearchSpaceTooLarge {
        /// Coefficient choices per matrix entry (`2·max_coeff + 1`).
        choices: usize,
        /// Matrix entries to enumerate (`rank²`).
        entries: u32,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Malformed(msg) => write!(f, "malformed functionality: {msg}"),
            CompileError::InconsistentRecurrence { var } => {
                write!(
                    f,
                    "variable '{var}' has inconsistent recurrence difference vectors"
                )
            }
            CompileError::InvalidTransform(msg) => write!(f, "invalid space-time transform: {msg}"),
            CompileError::SpaceTimeCollision { coord } => {
                write!(
                    f,
                    "two iteration points map to the same space-time coordinate {coord:?}"
                )
            }
            CompileError::CausalityViolation { var, delta } => write!(
                f,
                "connection for '{var}' has negative time delta {delta:?} under the transform"
            ),
            CompileError::UnknownIndex(name) => write!(f, "unknown iteration index '{name}'"),
            CompileError::BadMemorySpec(msg) => write!(f, "bad memory specification: {msg}"),
            CompileError::BudgetExhausted { budget } => {
                write!(f, "iteration space exceeds the budget of {budget} points")
            }
            CompileError::WorkerPanicked { message } => {
                write!(f, "dataflow search worker panicked: {message}")
            }
            CompileError::AnalyticDivergence { detail } => {
                write!(
                    f,
                    "analytical scoring tier diverged from the fold oracle: {detail}"
                )
            }
            CompileError::SearchSpaceTooLarge { choices, entries } => {
                write!(
                    f,
                    "dataflow search space {choices}^{entries} exceeds the enumerable \
                     limit of usize::MAX ({}); reduce max_coeff or the iteration rank",
                    usize::MAX
                )
            }
        }
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CompileError::Malformed("x".into());
        assert!(e.to_string().contains("malformed"));
        let e = CompileError::CausalityViolation {
            var: "c".into(),
            delta: vec![1, 0, -1],
        };
        assert!(e.to_string().contains("negative time delta"));
        let e = CompileError::SpaceTimeCollision {
            coord: vec![0, 0, 0],
        };
        assert!(e.to_string().contains("same space-time"));
        let e = CompileError::BudgetExhausted { budget: 17 };
        assert!(e.to_string().contains("budget of 17"));
        let e = CompileError::SearchSpaceTooLarge {
            choices: 7,
            entries: 25,
        };
        assert!(e.to_string().contains("7^25"));
        assert!(e.to_string().contains(&usize::MAX.to_string()));
        let e = CompileError::WorkerPanicked {
            message: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("worker panicked"));
        assert!(e.to_string().contains("index out of bounds"));
        let e = CompileError::AnalyticDivergence {
            detail: "[1 0 0] pes 4 vs 5".into(),
        };
        assert!(e.to_string().contains("diverged from the fold oracle"));
        assert!(e.to_string().contains("pes 4 vs 5"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: Error + Send + Sync>(_: E) {}
        takes_err(CompileError::UnknownIndex("q".into()));
    }
}
