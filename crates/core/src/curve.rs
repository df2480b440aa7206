//! NOP-insertion probability strategies (paper §3 and §3.1).
//!
//! The uniform strategy is the paper's baseline ("blind insertion"); the
//! profile-guided strategies map a basic block's execution count `x` into
//! a probability from the range `[p_min, p_max]`: hot blocks get the
//! minimum, cold blocks the maximum. Two interpolation curves are
//! provided:
//!
//! * **linear** — `p(x) = pmax − (pmax − pmin)·x/x_max`, the paper's first
//!   candidate, which "polarizes the probabilities toward either the
//!   maximum or the minimum" because counts are exponentially distributed;
//! * **log** — `p(x) = pmax − (pmax − pmin)·log(1+x)/log(1+x_max)`, the
//!   paper's chosen heuristic.

use std::fmt;

/// Interpolation curve between `p_min` and `p_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Curve {
    /// Linear in the raw execution count.
    Linear,
    /// Linear in `log(1 + count)` — the paper's heuristic.
    Log,
}

/// A NOP-insertion probability strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// The same probability at every instruction (paper's Algorithm 1
    /// without profiling).
    Uniform {
        /// Insertion probability in `[0, 1]`.
        p: f64,
    },
    /// Profile-guided: per-block probability from the execution count.
    Profiled {
        /// Probability assigned to the hottest block.
        p_min: f64,
        /// Probability assigned to never-executed blocks.
        p_max: f64,
        /// Interpolation curve.
        curve: Curve,
    },
}

/// The paper's headline configuration, pNOP = 0–30% on the log curve:
/// the strategy a `pgsd` request gets when it names none.
impl Default for Strategy {
    fn default() -> Strategy {
        Strategy::range(0.0, 0.30)
    }
}

impl Strategy {
    /// The paper's `pNOP = 50%` configuration (maximum diversity).
    pub fn uniform(p: f64) -> Strategy {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        Strategy::Uniform { p }
    }

    /// A profile-guided range with the paper's log curve, e.g.
    /// `Strategy::range(0.10, 0.50)` for "pNOP = 10–50%".
    pub fn range(p_min: f64, p_max: f64) -> Strategy {
        Strategy::with_curve(p_min, p_max, Curve::Log)
    }

    /// A profile-guided range with an explicit curve.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are outside `[0, 1]` or inverted.
    pub fn with_curve(p_min: f64, p_max: f64, curve: Curve) -> Strategy {
        assert!((0.0..=1.0).contains(&p_min), "p_min {p_min} out of range");
        assert!((0.0..=1.0).contains(&p_max), "p_max {p_max} out of range");
        assert!(p_min <= p_max, "p_min must not exceed p_max");
        Strategy::Profiled {
            p_min,
            p_max,
            curve,
        }
    }

    /// `true` if this strategy needs profile data.
    pub fn needs_profile(&self) -> bool {
        matches!(self, Strategy::Profiled { .. })
    }

    /// The insertion probability for a block executed `count` times in a
    /// program whose hottest block executed `x_max` times.
    pub fn probability(&self, count: u64, x_max: u64) -> f64 {
        match *self {
            Strategy::Uniform { p } => p,
            Strategy::Profiled {
                p_min,
                p_max,
                curve,
            } => {
                if x_max == 0 {
                    // No profile signal at all: everything is "cold".
                    return p_max;
                }
                let frac = match curve {
                    Curve::Linear => count.min(x_max) as f64 / x_max as f64,
                    Curve::Log => ((1.0 + count as f64).ln()) / ((1.0 + x_max as f64).ln()),
                };
                (p_max - (p_max - p_min) * frac.clamp(0.0, 1.0)).clamp(p_min, p_max)
            }
        }
    }

    /// Parses a command-line / wire spec: a single probability
    /// (`"0.5"` → uniform) or a `min-max` range (`"0.0-0.3"` → the
    /// profile-guided log curve). Shared by the `pgsd` CLI and the
    /// serve daemon so both sides accept identical specs.
    ///
    /// # Errors
    ///
    /// A human-readable message for unparsable numbers, probabilities
    /// outside `[0, 1]`, or an inverted range.
    pub fn parse(spec: &str) -> Result<Strategy, String> {
        let parse_p = |s: &str| -> Result<f64, String> {
            let v: f64 = s
                .parse()
                .map_err(|e| format!("bad probability `{s}`: {e}"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("probability {v} outside [0, 1]"));
            }
            Ok(v)
        };
        match spec.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi) = (parse_p(lo)?, parse_p(hi)?);
                if lo > hi {
                    return Err(format!("range {lo}-{hi} is inverted"));
                }
                Ok(Strategy::range(lo, hi))
            }
            None => Ok(Strategy::uniform(parse_p(spec)?)),
        }
    }

    /// The five configurations evaluated in the paper's Figure 4 and
    /// Tables 2–3, in presentation order: `50%`, `25–50%`, `10–50%`,
    /// `30%`, `0–30%`.
    pub fn paper_configs() -> Vec<(&'static str, Strategy)> {
        vec![
            ("pNOP=50%", Strategy::uniform(0.50)),
            ("pNOP=25-50%", Strategy::range(0.25, 0.50)),
            ("pNOP=10-50%", Strategy::range(0.10, 0.50)),
            ("pNOP=30%", Strategy::uniform(0.30)),
            ("pNOP=0-30%", Strategy::range(0.0, 0.30)),
        ]
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Strategy::Uniform { p } => write!(f, "pNOP={:.0}%", p * 100.0),
            Strategy::Profiled {
                p_min,
                p_max,
                curve,
            } => {
                write!(f, "pNOP={:.0}-{:.0}%", p_min * 100.0, p_max * 100.0)?;
                if curve == Curve::Linear {
                    write!(f, " (linear)")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_ignores_counts() {
        let s = Strategy::uniform(0.3);
        assert_eq!(s.probability(0, 100), 0.3);
        assert_eq!(s.probability(100, 100), 0.3);
    }

    #[test]
    fn extremes_hit_the_range_ends() {
        let s = Strategy::range(0.10, 0.50);
        assert!((s.probability(0, 1_000_000) - 0.50).abs() < 1e-9);
        assert!((s.probability(1_000_000, 1_000_000) - 0.10).abs() < 1e-9);
    }

    #[test]
    fn paper_worked_example_astar_median() {
        // Paper §3.1: with x_max ≈ 2·10⁹ and the 473.astar median count of
        // 117,635, the log curve gives p ≈ 30% for the range [10%, 50%]
        // (the paper's back-of-envelope: 50 − 40·5/10 = 30).
        let s = Strategy::range(0.10, 0.50);
        let p = s.probability(117_635, 2_000_000_000);
        assert!((p - 0.30).abs() < 0.03, "p = {p}");
        // …whereas the linear curve polarizes it to ≈ p_max (the paper's
        // 50 − 40·10⁵/10¹⁰ ≈ 50% argument).
        let lin = Strategy::with_curve(0.10, 0.50, Curve::Linear);
        let p_lin = lin.probability(117_635, 2_000_000_000);
        assert!(p_lin > 0.49, "p_lin = {p_lin}");
    }

    #[test]
    fn log_is_monotonically_decreasing_in_count() {
        let s = Strategy::range(0.0, 0.30);
        let mut last = f64::INFINITY;
        for count in [0u64, 1, 10, 1_000, 100_000, 10_000_000] {
            let p = s.probability(count, 10_000_000);
            assert!(p <= last + 1e-12);
            last = p;
        }
    }

    #[test]
    fn missing_profile_defaults_to_cold() {
        let s = Strategy::range(0.10, 0.50);
        assert_eq!(s.probability(0, 0), 0.50);
    }

    #[test]
    fn counts_above_xmax_clamp() {
        let s = Strategy::with_curve(0.10, 0.50, Curve::Linear);
        assert!((s.probability(200, 100) - 0.10).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_panics() {
        Strategy::uniform(1.5);
    }

    #[test]
    fn display_matches_paper_labels() {
        let labels: Vec<String> = Strategy::paper_configs()
            .iter()
            .map(|(_, s)| s.to_string())
            .collect();
        assert_eq!(
            labels,
            vec![
                "pNOP=50%",
                "pNOP=25-50%",
                "pNOP=10-50%",
                "pNOP=30%",
                "pNOP=0-30%"
            ]
        );
    }
}
