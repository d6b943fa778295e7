//! The ACO parameter set of §5.1.

use serde::{Deserialize, Serialize};

/// Every tunable of the exploration algorithm, with the experimental
/// defaults of §5.1:
///
/// * `alpha = 0.25` — relative influence of trail vs merit (Eqs. 1/3);
/// * `lambda` — relative influence of the scheduling priority in the
///   chosen-probability (Eq. 1). The thesis lists λ among its parameters
///   without printing a value; `0.5` is used here and exposed for the
///   ablation bench;
/// * `rho1..rho5 = 4, 2, 2, 2, 0.4` — trail reinforcement/evaporation
///   deltas of Fig. 4.3.5;
/// * `beta_cp = 0.9`, `beta_size = 0.7`, `beta_io = 0.8`,
///   `beta_convex = 0.4` — the merit-function penalties of Fig. 4.3.7;
/// * `p_end = 0.99` — the convergence threshold `P_END`;
/// * initial merit `100` (software) / `200` (hardware), initial trail `0`.
///
/// # Example
///
/// ```
/// use isex_aco::AcoParams;
///
/// let p = AcoParams { alpha: 0.5, ..AcoParams::default() };
/// assert_eq!(p.rho1, 4.0);
/// p.validate().expect("paper defaults are valid");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AcoParams {
    /// Relative influence of trail (vs merit): `α`.
    pub alpha: f64,
    /// Relative influence of the scheduling priority: `λ`.
    pub lambda: f64,
    /// Trail gain when the iteration improved and the option was chosen.
    pub rho1: f64,
    /// Trail loss when the iteration improved and the option was not chosen.
    pub rho2: f64,
    /// Trail loss when the iteration regressed and the option was chosen.
    pub rho3: f64,
    /// Trail gain when the iteration regressed and the option was not chosen.
    pub rho4: f64,
    /// Extra trail loss for operations scheduled earlier than before in a
    /// regressed iteration.
    pub rho5: f64,
    /// Merit boost divisor for critical-path operations: `β_CP`.
    pub beta_cp: f64,
    /// Merit penalty for size-1 virtual subgraphs: `β_Size`.
    pub beta_size: f64,
    /// Merit penalty for I/O-port-violating subgraphs: `β_IO`.
    pub beta_io: f64,
    /// Merit penalty for convexity-violating subgraphs: `β_Convex`.
    pub beta_convex: f64,
    /// Convergence threshold on the selected-probability: `P_END`.
    pub p_end: f64,
    /// Initial merit of every software implementation option.
    pub init_merit_sw: f64,
    /// Initial merit of every hardware implementation option.
    pub init_merit_hw: f64,
    /// Initial trail of every implementation option.
    pub init_trail: f64,
    /// Safety valve: maximum iterations per exploration round before the
    /// round is declared converged by fiat (the thesis notes convergence
    /// time is unbounded in theory, §4.4).
    pub max_iterations: usize,
    /// Deterministic round budget per block, binding both explorers (MI
    /// and SI share one round loop): when non-zero, exploration stops
    /// after this many rounds even if further ISEs would commit, and the
    /// result is marked degraded. `0` (the default) means unbudgeted —
    /// only the explorers' hard safety cap applies. This is the
    /// reproducible twin of the wall-clock deadline cut: a test can pin the
    /// exact partial result a deadline would have produced.
    #[serde(default)]
    pub max_rounds: usize,
}

impl Default for AcoParams {
    fn default() -> Self {
        AcoParams {
            alpha: 0.25,
            lambda: 0.5,
            rho1: 4.0,
            rho2: 2.0,
            rho3: 2.0,
            rho4: 2.0,
            rho5: 0.4,
            beta_cp: 0.9,
            beta_size: 0.7,
            beta_io: 0.8,
            beta_convex: 0.4,
            p_end: 0.99,
            init_merit_sw: 100.0,
            init_merit_hw: 200.0,
            init_trail: 0.0,
            max_iterations: 400,
            max_rounds: 0,
        }
    }
}

impl AcoParams {
    /// Checks the parameter ranges the formulas assume.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first out-of-range
    /// parameter. Every value must be finite: `alpha` in `[0, 1]`, the βs
    /// in `(0, 1]`, `p_end` in `(0, 1)`, `lambda`, the ρs and `init_trail`
    /// non-negative, the initial merits positive, and `max_iterations`
    /// positive. A non-finite or out-of-range trail, merit or `lambda`
    /// would make every Eq. 1 weight non-finite or zero, silently turning
    /// each walk into uniform picks.
    pub fn validate(&self) -> Result<(), String> {
        let in01 = |v: f64| v > 0.0 && v <= 1.0;
        if !(self.alpha >= 0.0 && self.alpha <= 1.0) {
            return Err(format!("alpha must be in [0,1], got {}", self.alpha));
        }
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(format!(
                "lambda must be a non-negative number, got {}",
                self.lambda
            ));
        }
        for (name, v) in [
            ("rho1", self.rho1),
            ("rho2", self.rho2),
            ("rho3", self.rho3),
            ("rho4", self.rho4),
            ("rho5", self.rho5),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} must be a non-negative number, got {v}"));
            }
        }
        for (name, v) in [
            ("beta_cp", self.beta_cp),
            ("beta_size", self.beta_size),
            ("beta_io", self.beta_io),
            ("beta_convex", self.beta_convex),
        ] {
            if !in01(v) {
                return Err(format!("{name} must be in (0,1], got {v}"));
            }
        }
        if !(self.p_end > 0.0 && self.p_end < 1.0) {
            return Err(format!("p_end must be in (0,1), got {}", self.p_end));
        }
        for (name, v) in [
            ("init_merit_sw", self.init_merit_sw),
            ("init_merit_hw", self.init_merit_hw),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} must be a positive number, got {v}"));
            }
        }
        if !(self.init_trail >= 0.0 && self.init_trail.is_finite()) {
            return Err(format!(
                "init_trail must be a non-negative number, got {}",
                self.init_trail
            ));
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_5_1() {
        let p = AcoParams::default();
        assert_eq!(p.alpha, 0.25);
        assert_eq!(
            (p.rho1, p.rho2, p.rho3, p.rho4, p.rho5),
            (4.0, 2.0, 2.0, 2.0, 0.4)
        );
        assert_eq!(
            (p.beta_cp, p.beta_size, p.beta_io, p.beta_convex),
            (0.9, 0.7, 0.8, 0.4)
        );
        assert_eq!(p.p_end, 0.99);
        assert_eq!(
            (p.init_merit_sw, p.init_merit_hw, p.init_trail),
            (100.0, 200.0, 0.0)
        );
        p.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = AcoParams {
            alpha: 1.5,
            ..AcoParams::default()
        };
        assert!(bad.validate().unwrap_err().contains("alpha"));
        let bad = AcoParams {
            beta_io: 0.0,
            ..AcoParams::default()
        };
        assert!(bad.validate().unwrap_err().contains("beta_io"));
        let bad = AcoParams {
            p_end: 1.0,
            ..AcoParams::default()
        };
        assert!(bad.validate().unwrap_err().contains("p_end"));
        let bad = AcoParams {
            rho3: -1.0,
            ..AcoParams::default()
        };
        assert!(bad.validate().unwrap_err().contains("rho3"));
        let bad = AcoParams {
            max_iterations: 0,
            ..AcoParams::default()
        };
        assert!(bad.validate().unwrap_err().contains("max_iterations"));
        // Values that pass a plain `<= 0.0` test but break every Eq. 1
        // weight.
        for (name, bad) in [
            (
                "init_merit_sw",
                AcoParams {
                    init_merit_sw: f64::NAN,
                    ..AcoParams::default()
                },
            ),
            (
                "init_merit_hw",
                AcoParams {
                    init_merit_hw: f64::INFINITY,
                    ..AcoParams::default()
                },
            ),
            (
                "init_trail",
                AcoParams {
                    init_trail: -1.0,
                    ..AcoParams::default()
                },
            ),
            (
                "init_trail",
                AcoParams {
                    init_trail: f64::NAN,
                    ..AcoParams::default()
                },
            ),
            (
                "init_trail",
                AcoParams {
                    init_trail: f64::INFINITY,
                    ..AcoParams::default()
                },
            ),
            (
                "lambda",
                AcoParams {
                    lambda: f64::INFINITY,
                    ..AcoParams::default()
                },
            ),
            (
                "lambda",
                AcoParams {
                    lambda: f64::NAN,
                    ..AcoParams::default()
                },
            ),
        ] {
            let err = bad.validate().expect_err(name);
            assert!(err.contains(name), "{name}: {err}");
        }
    }
}
