//! The trail-update policy of Fig. 4.3.5.
//!
//! "If the execution time is shorter than or equal to previous iteration …
//! the trail value of the chosen implementation option is raised
//! (increasing ρ₁) while those of others are reduced (decreasing ρ₂). …
//! if the execution time is larger … the trail values of selected
//! implementation options have to be decreased with ρ₃, while those of
//! others are increased with ρ₄. In addition, … all implementation options
//! of the operation which has [a different] execution order than previous
//! iteration are also reduced (subtract ρ₅)."

use isex_aco::{AcoParams, PheromoneStore};

use crate::ant::Walk;

/// Round-persistent state of the trail update.
#[derive(Clone, Debug, Default)]
pub(crate) struct TrailState {
    /// `TET_old`: best-known execution time (`None` before the first
    /// iteration — the first result always counts as an improvement).
    pub tet_old: Option<u32>,
    /// Issue cycles of the previous iteration (empty before the first;
    /// overwritten in place by every update).
    pub prev_issue: Vec<u32>,
}

/// Applies Fig. 4.3.5 for one iteration's walk.
pub(crate) fn update<const W: usize>(
    store: &mut PheromoneStore,
    walk: &Walk<W>,
    state: &mut TrailState,
    params: &AcoParams,
) {
    let improved = match state.tet_old {
        None => true,
        Some(old) => walk.tet <= old,
    };
    for n in 0..store.len() {
        let reordered = state
            .prev_issue
            .get(n)
            .is_some_and(|&prev| walk.issue[n] < prev);
        for i in store.options(n) {
            let selected = store.choice_at(n, i) == walk.choice[n];
            let mut delta = if improved {
                if selected {
                    params.rho1
                } else {
                    -params.rho2
                }
            } else {
                if reordered {
                    // The longer execution time may stem from an unfit
                    // execution order: damp all of this operation's options.
                    if selected {
                        -params.rho3 - params.rho5
                    } else {
                        params.rho4 - params.rho5
                    }
                } else if selected {
                    -params.rho3
                } else {
                    params.rho4
                }
            };
            if !delta.is_finite() {
                delta = 0.0;
            }
            store.add_trail_at(i, delta);
        }
    }
    if improved {
        state.tet_old = Some(walk.tet);
    }
    state.prev_issue.clear();
    state.prev_issue.extend_from_slice(&walk.issue);
}

#[cfg(test)]
mod tests {
    use super::*;
    use isex_aco::ImplChoice;

    fn walk(tet: u32, choice: ImplChoice, issue: u32) -> Walk<1> {
        Walk {
            choice: vec![choice],
            issue: vec![issue],
            finish: vec![issue + 1],
            group_of: vec![None],
            groups: Vec::new(),
            tet,
        }
    }

    #[test]
    fn improvement_rewards_chosen_option() {
        let params = AcoParams::default();
        let mut store = PheromoneStore::new(&[(1, 1)], &params);
        let mut state = TrailState::default();
        update(
            &mut store,
            &walk(5, ImplChoice::Hw(0), 0),
            &mut state,
            &params,
        );
        assert_eq!(store.trail(0, ImplChoice::Hw(0)), params.rho1);
        assert_eq!(store.trail(0, ImplChoice::Sw(0)), 0.0, "clamped at zero");
        assert_eq!(state.tet_old, Some(5));
    }

    #[test]
    fn regression_punishes_chosen_option() {
        let params = AcoParams::default();
        let mut store = PheromoneStore::new(&[(1, 1)], &params);
        let mut state = TrailState::default();
        update(
            &mut store,
            &walk(5, ImplChoice::Hw(0), 1),
            &mut state,
            &params,
        );
        // Worse iteration: chosen loses ρ3, others gain ρ4.
        update(
            &mut store,
            &walk(9, ImplChoice::Hw(0), 1),
            &mut state,
            &params,
        );
        assert_eq!(store.trail(0, ImplChoice::Hw(0)), params.rho1 - params.rho3);
        assert_eq!(store.trail(0, ImplChoice::Sw(0)), params.rho4);
        assert_eq!(
            state.tet_old,
            Some(5),
            "TET_old only advances on improvement"
        );
    }

    #[test]
    fn reorder_penalty_applies_on_regression() {
        let params = AcoParams::default();
        let mut store = PheromoneStore::new(&[(1, 1)], &params);
        let mut state = TrailState::default();
        update(
            &mut store,
            &walk(5, ImplChoice::Hw(0), 3),
            &mut state,
            &params,
        );
        // Regression AND earlier issue cycle (3 → 1): extra ρ5 on all options.
        update(
            &mut store,
            &walk(9, ImplChoice::Sw(0), 1),
            &mut state,
            &params,
        );
        let sw = store.trail(0, ImplChoice::Sw(0));
        let hw = store.trail(0, ImplChoice::Hw(0));
        assert_eq!(sw, 0.0f64.max(0.0 - params.rho3 - params.rho5));
        assert_eq!(hw, params.rho1 + params.rho4 - params.rho5);
    }

    #[test]
    fn equal_time_counts_as_improvement() {
        let params = AcoParams::default();
        let mut store = PheromoneStore::new(&[(1, 0)], &params);
        let mut state = TrailState::default();
        update(
            &mut store,
            &walk(4, ImplChoice::Sw(0), 0),
            &mut state,
            &params,
        );
        update(
            &mut store,
            &walk(4, ImplChoice::Sw(0), 0),
            &mut state,
            &params,
        );
        assert_eq!(store.trail(0, ImplChoice::Sw(0)), 2.0 * params.rho1);
    }
}
