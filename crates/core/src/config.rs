//! Protocol parameters.

use serde::{Deserialize, Serialize};

/// Which paths the value flood uses.
///
/// The paper floods state values along **redundant** paths (Appendix E);
/// [`FloodMode::SimpleOnly`] is an ablation that restricts flooding (and
/// the fullness requirement) to simple paths, quantifying what the
/// redundant-path machinery buys (experiment E11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FloodMode {
    /// RedundantFlood as in the paper (Appendix E).
    #[default]
    Redundant,
    /// Ablation: flood and require simple paths only.
    SimpleOnly,
}

/// Static protocol parameters shared by every node.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Upper bound on the number of Byzantine nodes.
    pub f: usize,
    /// Agreement parameter: honest outputs must be within `ε`.
    pub epsilon: f64,
    /// A-priori known input range `[lo, hi]` (the paper's `[0, K]`).
    pub range: (f64, f64),
    /// Number of asynchronous rounds to execute; derived from `range` and
    /// `epsilon` via [`num_rounds`] unless overridden.
    pub rounds: u32,
}

impl ProtocolConfig {
    /// Builds a configuration running exactly the number of rounds the
    /// paper's termination rule prescribes: the first `r > log₂(K/ε)`
    /// (Section 4.6).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ≤ 0`, the range is empty, or either bound is not
    /// finite.
    #[must_use]
    pub fn new(f: usize, epsilon: f64, range: (f64, f64)) -> Self {
        assert!(epsilon > 0.0 && epsilon.is_finite(), "epsilon must be positive and finite");
        assert!(
            range.0.is_finite() && range.1.is_finite() && range.0 <= range.1,
            "input range must be a finite non-empty interval"
        );
        let rounds = num_rounds(range.1 - range.0, epsilon);
        ProtocolConfig { f, epsilon, range, rounds }
    }

    /// Overrides the round count (used by convergence-curve experiments).
    #[must_use]
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }
}

/// The paper's termination bound (Section 4.6): the smallest round count
/// `R` such that `K / 2^R < ε`, i.e. the first `R > log₂(K/ε)`. Repeated
/// halving (Lemma 15) then guarantees ε-agreement.
///
/// # Example
///
/// ```
/// use dbac_core::config::num_rounds;
/// assert_eq!(num_rounds(10.0, 0.5), 5);   // 10/2⁵ = 0.3125 < 0.5
/// assert_eq!(num_rounds(8.0, 1.0), 4);    // strict: 8/2³ = 1 is not < 1
/// assert_eq!(num_rounds(0.25, 1.0), 0);   // K < ε: inputs already agree
/// ```
#[must_use]
pub fn num_rounds(width: f64, epsilon: f64) -> u32 {
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(width >= 0.0 && width.is_finite(), "width must be non-negative and finite");
    let mut r = 0u32;
    let mut spread = width;
    while spread >= epsilon {
        spread /= 2.0;
        r += 1;
        assert!(r < 4_096, "unreasonable round count; check epsilon");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_counts() {
        assert_eq!(num_rounds(10.0, 0.5), 5);
        assert_eq!(num_rounds(1.0, 1.0), 1, "strict inequality: need 0.5 < 1");
        assert_eq!(num_rounds(0.0, 0.1), 0);
        assert_eq!(num_rounds(100.0, 1.0), 7);
    }

    #[test]
    fn config_derives_rounds() {
        let c = ProtocolConfig::new(1, 0.5, (0.0, 10.0));
        assert_eq!(c.rounds, 5);
        let c = c.with_rounds(2);
        assert_eq!(c.rounds, 2);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_bad_epsilon() {
        let _ = ProtocolConfig::new(1, 0.0, (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "finite non-empty interval")]
    fn rejects_bad_range() {
        let _ = ProtocolConfig::new(1, 0.5, (2.0, 1.0));
    }
}
