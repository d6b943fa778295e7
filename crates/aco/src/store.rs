//! Per-(operation, option) trail and merit storage with the probability
//! formulas of Eqs. 1–4.

use serde::{Deserialize, Serialize};

use crate::params::AcoParams;

/// One implementation option of one operation: the `j`-th software or
/// hardware entry of its IO table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ImplChoice {
    /// Software option `j` (execute on the core).
    Sw(usize),
    /// Hardware option `j` (execute inside the ASFU).
    Hw(usize),
}

impl ImplChoice {
    /// Returns `true` for a hardware option.
    pub fn is_hardware(self) -> bool {
        matches!(self, ImplChoice::Hw(_))
    }
}

impl std::fmt::Display for ImplChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImplChoice::Sw(j) => write!(f, "SW-{}", j + 1),
            ImplChoice::Hw(j) => write!(f, "HW-{}", j + 1),
        }
    }
}

/// Trail (pheromone) and merit values for every implementation option of
/// every operation of one DFG.
///
/// The *trail* is "the number of valid chosen times of an implementation
/// option in previous iterations"; the *merit* is "the benefit of one
/// implementation option being selected" (§4.3). Both feed the
/// chosen-probability (Eq. 1) and the selected-probability (Eq. 3).
///
/// Every option of every operation has one *flat index*: operation `i`'s
/// options occupy [`PheromoneStore::options`]`(i)`, software options
/// first, and `trail` and `merit` are one array each over those indices.
/// The `(node, ImplChoice)` methods translate to a flat index (panicking on
/// an option the operation does not have); the `*_at` methods take the
/// flat index directly, for loops that visit every option in order.
///
/// # Example
///
/// ```
/// use isex_aco::{AcoParams, ImplChoice, PheromoneStore};
///
/// // one op with 1 software and 1 hardware option
/// let mut s = PheromoneStore::new(&[(1, 1)], &AcoParams::default());
/// let before = s.selected_probability(0, ImplChoice::Hw(0));
/// s.set_merit(0, ImplChoice::Hw(0), 1000.0);
/// assert!(s.selected_probability(0, ImplChoice::Hw(0)) > before);
/// let hw = s.options(0).last().unwrap();
/// assert_eq!(s.choice_at(0, hw), ImplChoice::Hw(0));
/// ```
#[derive(Clone, Debug)]
pub struct PheromoneStore {
    /// `off[i]..off[i + 1]` are operation `i`'s flat indices.
    off: Vec<u32>,
    /// `sw_end[i]`: the first flat index past operation `i`'s software
    /// options (its first hardware option, if any).
    sw_end: Vec<u32>,
    trail: Vec<f64>,
    merit: Vec<f64>,
    alpha: f64,
}

impl PheromoneStore {
    /// Creates a store for `shape[i] = (sw_options, hw_options)` of each
    /// operation `i`, initialised per `params`.
    pub fn new(shape: &[(usize, usize)], params: &AcoParams) -> Self {
        let mut off = Vec::with_capacity(shape.len() + 1);
        let mut sw_end = Vec::with_capacity(shape.len());
        let mut merit = Vec::new();
        off.push(0);
        for &(sw, hw) in shape {
            assert!(sw > 0, "every operation needs a software option");
            merit.extend(std::iter::repeat_n(params.init_merit_sw, sw));
            sw_end.push(merit.len() as u32);
            merit.extend(std::iter::repeat_n(params.init_merit_hw, hw));
            off.push(merit.len() as u32);
        }
        PheromoneStore {
            off,
            sw_end,
            trail: vec![params.init_trail; merit.len()],
            merit,
            alpha: params.alpha,
        }
    }

    /// Number of operations tracked.
    pub fn len(&self) -> usize {
        self.sw_end.len()
    }

    /// Returns `true` if no operations are tracked.
    pub fn is_empty(&self) -> bool {
        self.sw_end.is_empty()
    }

    /// The flat indices of operation `node`'s options, software first.
    pub fn options(&self, node: usize) -> std::ops::Range<usize> {
        self.off[node] as usize..self.off[node + 1] as usize
    }

    /// The option of `node` at flat index `i` (one of
    /// [`PheromoneStore::options`]`(node)`).
    pub fn choice_at(&self, node: usize, i: usize) -> ImplChoice {
        debug_assert!(
            self.options(node).contains(&i),
            "index {i} is not node {node}'s"
        );
        let sw_end = self.sw_end[node] as usize;
        if i < sw_end {
            ImplChoice::Sw(i - self.off[node] as usize)
        } else {
            ImplChoice::Hw(i - sw_end)
        }
    }

    /// The flat index of option `c` of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` has no option `c`.
    fn index(&self, node: usize, c: ImplChoice) -> usize {
        let (lo, hi) = match c {
            ImplChoice::Sw(j) => (self.off[node] as usize + j, self.sw_end[node] as usize),
            ImplChoice::Hw(j) => (self.sw_end[node] as usize + j, self.off[node + 1] as usize),
        };
        assert!(lo < hi, "operation {node} has no option {c}");
        lo
    }

    /// All options of operation `node`.
    pub fn choices(&self, node: usize) -> Vec<ImplChoice> {
        self.choice_iter(node).collect()
    }

    /// All options of operation `node`, without allocating, in the same
    /// order as [`PheromoneStore::choices`] (software options first).
    pub fn choice_iter(&self, node: usize) -> impl Iterator<Item = ImplChoice> + '_ {
        self.options(node).map(move |i| self.choice_at(node, i))
    }

    /// Current trail of an option.
    pub fn trail(&self, node: usize, c: ImplChoice) -> f64 {
        self.trail[self.index(node, c)]
    }

    /// Current merit of an option.
    pub fn merit(&self, node: usize, c: ImplChoice) -> f64 {
        self.merit[self.index(node, c)]
    }

    /// Adds `delta` (may be negative) to an option's trail, clamping at
    /// zero so probabilities stay well-formed.
    pub fn add_trail(&mut self, node: usize, c: ImplChoice, delta: f64) {
        self.add_trail_at(self.index(node, c), delta);
    }

    /// [`PheromoneStore::add_trail`] on the option at flat index `i`.
    pub fn add_trail_at(&mut self, i: usize, delta: f64) {
        let v = &mut self.trail[i];
        *v = (*v + delta).max(0.0);
    }

    /// Overwrites an option's merit (clamped to a tiny positive floor so
    /// roulette weights never vanish entirely).
    pub fn set_merit(&mut self, node: usize, c: ImplChoice, merit: f64) {
        let i = self.index(node, c);
        self.merit[i] = if merit.is_finite() {
            merit.max(f64::MIN_POSITIVE)
        } else {
            f64::MIN_POSITIVE
        };
    }

    /// Multiplies an option's merit by `factor` (Fig. 4.3.7 penalties work
    /// multiplicatively).
    pub fn scale_merit(&mut self, node: usize, c: ImplChoice, factor: f64) {
        let m = self.merit(node, c);
        self.set_merit(node, c, m * factor);
    }

    /// The un-normalised attraction of an option:
    /// `α·trail + (1−α)·merit` — the shared numerator core of Eqs. 1 and 3.
    pub fn attraction(&self, node: usize, c: ImplChoice) -> f64 {
        self.attraction_at(self.index(node, c))
    }

    /// [`PheromoneStore::attraction`] of the option at flat index `i`.
    pub fn attraction_at(&self, i: usize) -> f64 {
        self.alpha * self.trail[i] + (1.0 - self.alpha) * self.merit[i]
    }

    /// The sum of `node`'s attractions, in option order: Eq. 3's
    /// denominator.
    fn attraction_total(&self, node: usize) -> f64 {
        self.options(node).map(|i| self.attraction_at(i)).sum()
    }

    /// Eq. 3: the selected-probability of option `c` *within its own
    /// operation* (denominator sums over that operation's options only).
    pub fn selected_probability(&self, node: usize, c: ImplChoice) -> f64 {
        let total = self.attraction_total(node);
        if total <= 0.0 {
            return 1.0 / self.options(node).len() as f64;
        }
        self.attraction(node, c) / total
    }

    /// The option of `node` with the highest selected-probability, and that
    /// probability. Ties resolve to the earliest option (software first).
    pub fn best_option(&self, node: usize) -> (ImplChoice, f64) {
        let options = self.options(node);
        let total = self.attraction_total(node);
        let mut best = None::<(usize, f64)>;
        for i in options.clone() {
            let p = if total <= 0.0 {
                1.0 / options.len() as f64
            } else {
                self.attraction_at(i) / total
            };
            match best {
                Some((_, bp)) if bp >= p => {}
                _ => best = Some((i, p)),
            }
        }
        let (i, p) = best.expect("every operation has at least one option");
        (self.choice_at(node, i), p)
    }

    /// Returns `true` once every operation has an option whose
    /// selected-probability reaches `p_end` (the paper's end condition).
    pub fn converged(&self, p_end: f64) -> bool {
        (0..self.len()).all(|n| self.best_option(n).1 >= p_end)
    }

    /// Normalises the merit values of every operation so they sum to 1
    /// (§4.3: "the merit values of operation must be normalized after
    /// performing merit computation", keeping the cross-operation pick in
    /// the Ready-Matrix fair).
    ///
    /// Each option's share is floored at 1% (MAX–MIN-ant-system style lower
    /// bound) so repeated penalties can never starve an option out of the
    /// search entirely.
    pub fn normalize_merits(&mut self) {
        const FLOOR: f64 = 0.01;
        for w in self.off.windows(2) {
            let merits = &mut self.merit[w[0] as usize..w[1] as usize];
            let total: f64 = merits.iter().sum();
            if total > 0.0 && total.is_finite() {
                for v in merits {
                    *v = (*v / total).max(FLOOR);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PheromoneStore {
        PheromoneStore::new(&[(2, 2), (1, 0)], &AcoParams::default())
    }

    #[test]
    fn initial_values_follow_params() {
        let s = store();
        assert_eq!(s.trail(0, ImplChoice::Sw(0)), 0.0);
        assert_eq!(s.merit(0, ImplChoice::Sw(1)), 100.0);
        assert_eq!(s.merit(0, ImplChoice::Hw(0)), 200.0);
        assert_eq!(s.choices(0).len(), 4);
        assert_eq!(s.choices(1).len(), 1);
        assert_eq!(s.choice_iter(0).collect::<Vec<_>>(), s.choices(0));
        assert_eq!(s.choice_iter(1).collect::<Vec<_>>(), s.choices(1));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut s = store();
        s.add_trail(0, ImplChoice::Hw(1), 10.0);
        s.set_merit(0, ImplChoice::Sw(0), 50.0);
        let sum: f64 = s
            .choices(0)
            .into_iter()
            .map(|c| s.selected_probability(0, c))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trail_clamped_at_zero() {
        let mut s = store();
        s.add_trail(0, ImplChoice::Sw(0), -100.0);
        assert_eq!(s.trail(0, ImplChoice::Sw(0)), 0.0);
    }

    #[test]
    fn single_option_operation_is_always_converged() {
        let s = store();
        assert_eq!(s.best_option(1).1, 1.0);
    }

    #[test]
    fn convergence_requires_domination() {
        let mut s = PheromoneStore::new(&[(1, 1)], &AcoParams::default());
        assert!(!s.converged(0.99));
        // Pump one option hard.
        for _ in 0..200 {
            s.add_trail(0, ImplChoice::Hw(0), 50.0);
        }
        s.set_merit(0, ImplChoice::Sw(0), 1e-6);
        s.set_merit(0, ImplChoice::Hw(0), 1e6);
        assert!(s.converged(0.99));
    }

    #[test]
    fn normalize_keeps_ratios() {
        let mut s = store();
        s.set_merit(0, ImplChoice::Sw(0), 300.0);
        s.set_merit(0, ImplChoice::Sw(1), 100.0);
        s.set_merit(0, ImplChoice::Hw(0), 400.0);
        s.set_merit(0, ImplChoice::Hw(1), 200.0);
        s.normalize_merits();
        let total: f64 = s.choices(0).into_iter().map(|c| s.merit(0, c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((s.merit(0, ImplChoice::Hw(0)) / s.merit(0, ImplChoice::Sw(1)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn merit_floor_prevents_dead_options() {
        let mut s = store();
        s.set_merit(0, ImplChoice::Sw(0), -5.0);
        assert!(s.merit(0, ImplChoice::Sw(0)) > 0.0);
        s.set_merit(0, ImplChoice::Sw(0), f64::NAN);
        assert!(s.merit(0, ImplChoice::Sw(0)) > 0.0);
    }

    #[test]
    #[should_panic(expected = "software option")]
    fn zero_software_options_rejected() {
        PheromoneStore::new(&[(0, 2)], &AcoParams::default());
    }
}
