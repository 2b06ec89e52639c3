use std::fmt;

/// Errors from analysis entry points.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An input probability vector has the wrong length for the circuit.
    ProbsLength {
        /// Probabilities supplied.
        got: usize,
        /// Primary inputs of the circuit.
        expected: usize,
    },
    /// A probability is outside `[0, 1]` or not finite.
    ProbRange {
        /// The offending value.
        value: f64,
    },
    /// An exact method was asked for on a circuit too large for it.
    ExactTooLarge {
        /// Primary input count.
        inputs: usize,
        /// The method's limit.
        limit: usize,
    },
    /// BDD construction exceeded its node budget.
    BddOverflow {
        /// The budget that was exceeded.
        limit: usize,
    },
    /// [`AnalyzerParams::maxvers`](crate::AnalyzerParams::maxvers) is
    /// above [`MAXVERS_LIMIT`](crate::MAXVERS_LIMIT).
    MaxversTooLarge {
        /// The requested `maxvers`.
        maxvers: usize,
        /// The largest accepted value.
        limit: usize,
    },
    /// The analysis was cancelled through a
    /// [`CancelToken`](crate::CancelToken) before completing.
    Cancelled,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ProbsLength { got, expected } => write!(
                f,
                "input probability vector has {got} entries, circuit has {expected} inputs"
            ),
            CoreError::ProbRange { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            CoreError::ExactTooLarge { inputs, limit } => write!(
                f,
                "exact method limited to {limit} inputs, circuit has {inputs}"
            ),
            CoreError::BddOverflow { limit } => {
                write!(f, "BDD node budget of {limit} exceeded")
            }
            CoreError::MaxversTooLarge { maxvers, limit } => {
                write!(f, "maxvers {maxvers} exceeds the limit of {limit}")
            }
            CoreError::Cancelled => write!(f, "analysis cancelled"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<protest_bdd::BddError> for CoreError {
    fn from(e: protest_bdd::BddError) -> Self {
        #[allow(unreachable_patterns)] // BddError is non_exhaustive
        match e {
            protest_bdd::BddError::NodeLimit { limit } => CoreError::BddOverflow { limit },
            _ => CoreError::BddOverflow { limit: 0 },
        }
    }
}
