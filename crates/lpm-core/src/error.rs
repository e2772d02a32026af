//! The unified error type for the LPM control layer.
//!
//! The online controller sits between the simulator (which can reject
//! configurations or deadlock) and the analytical model (which can reject
//! degenerate counter windows). [`LpmError`] folds both into one currency
//! so the CLI and embedders handle a single error type at the crate
//! boundary.

use std::fmt;

use lpm_model::ModelError;
use lpm_sim::SimError;

/// Everything that can go wrong in the LPM control layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LpmError {
    /// The simulator failed (deadlock, invalid configuration, divergence).
    Sim(SimError),
    /// The analytical model rejected a measurement.
    Model(ModelError),
    /// The controller was configured with a measurement interval too
    /// short to carry statistically meaningful counters.
    InvalidInterval {
        /// The requested interval, in cycles.
        got: u64,
        /// The minimum accepted interval, in cycles.
        min: u64,
    },
    /// A run of `cycles` more cycles from cycle `now` would end past the
    /// largest cycle the simulator's 64-bit clock can hold.
    CycleOverflow {
        /// The requested run length, in cycles.
        cycles: u64,
        /// The cycle the run would have started from.
        now: u64,
    },
}

impl fmt::Display for LpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpmError::Sim(e) => write!(f, "{e}"),
            LpmError::Model(e) => write!(f, "model error: {e}"),
            LpmError::InvalidInterval { got, min } => write!(
                f,
                "intervals need enough samples: got {got} cycles, need at least {min}"
            ),
            LpmError::CycleOverflow { cycles, now } => write!(
                f,
                "a run of {cycles} cycles from cycle {now} overflows the simulated clock"
            ),
        }
    }
}

impl std::error::Error for LpmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LpmError::Sim(e) => Some(e),
            LpmError::Model(e) => Some(e),
            LpmError::InvalidInterval { .. } | LpmError::CycleOverflow { .. } => None,
        }
    }
}

impl From<SimError> for LpmError {
    fn from(e: SimError) -> Self {
        LpmError::Sim(e)
    }
}

impl From<ModelError> for LpmError {
    fn from(e: ModelError) -> Self {
        LpmError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_error_names_both_bounds() {
        let e = LpmError::InvalidInterval { got: 10, min: 100 };
        let s = e.to_string();
        assert!(s.contains("intervals need enough samples"));
        assert!(s.contains("got 10"));
        assert!(s.contains("at least 100"));
    }

    #[test]
    fn sim_errors_pass_through_their_message() {
        let e: LpmError = SimError::InvalidConfig("need at least one core".into()).into();
        assert!(e.to_string().contains("need at least one core"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn model_errors_convert() {
        let m = ModelError::NonPositive {
            name: "H",
            value: 0.0,
        };
        let e: LpmError = m.clone().into();
        assert_eq!(e, LpmError::Model(m));
    }
}
