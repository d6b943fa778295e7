//! Property tests on the probability machinery of Eqs. 1–4.

use isex_aco::{roulette, AcoParams, ImplChoice, PheromoneStore};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_shape() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((1usize..3, 0usize..3), 1..10)
}

#[derive(Clone, Debug)]
struct Mutation {
    node_frac: f64,
    hw: bool,
    idx_frac: f64,
    trail_delta: f64,
    merit: f64,
}

fn arb_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec(
        (
            0.0f64..1.0,
            any::<bool>(),
            0.0f64..1.0,
            -50.0f64..50.0,
            -10.0f64..1e6,
        )
            .prop_map(|(node_frac, hw, idx_frac, trail_delta, merit)| Mutation {
                node_frac,
                hw,
                idx_frac,
                trail_delta,
                merit,
            }),
        0..60,
    )
}

fn mutate(store: &mut PheromoneStore, shape: &[(usize, usize)], m: &Mutation) {
    let node = ((m.node_frac * shape.len() as f64) as usize).min(shape.len() - 1);
    let (sw, hw) = shape[node];
    let choice = if m.hw && hw > 0 {
        ImplChoice::Hw(((m.idx_frac * hw as f64) as usize).min(hw - 1))
    } else {
        ImplChoice::Sw(((m.idx_frac * sw as f64) as usize).min(sw - 1))
    };
    store.add_trail(node, choice, m.trail_delta);
    store.set_merit(node, choice, m.merit);
}

proptest! {
    #[test]
    fn selected_probabilities_form_a_distribution(
        shape in arb_shape(),
        muts in arb_mutations(),
    ) {
        let params = AcoParams::default();
        let mut store = PheromoneStore::new(&shape, &params);
        for m in &muts {
            mutate(&mut store, &shape, m);
        }
        for n in 0..shape.len() {
            let probs: Vec<f64> = store
                .choices(n)
                .into_iter()
                .map(|c| store.selected_probability(n, c))
                .collect();
            let sum: f64 = probs.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "node {n}: sum {sum}");
            for p in &probs {
                prop_assert!((0.0..=1.0 + 1e-12).contains(p));
            }
            let (best, bp) = store.best_option(n);
            for c in store.choices(n) {
                prop_assert!(store.selected_probability(n, c) <= bp + 1e-12);
            }
            let _ = best;
        }
    }

    /// The flat accessors address exactly the options the `(node, choice)`
    /// API does: each node's index range follows the previous one's, maps
    /// onto `choice_iter` in order, and reads and writes the same trail,
    /// merit and attraction bits. `best_option` equals the first maximum of
    /// `selected_probability`.
    #[test]
    fn flat_accessors_agree_with_the_option_api(
        shape in arb_shape(),
        muts in arb_mutations(),
        alpha in 0.0f64..1.0,
        delta in -50.0f64..50.0,
    ) {
        let params = AcoParams { alpha, ..AcoParams::default() };
        let mut store = PheromoneStore::new(&shape, &params);
        for m in &muts {
            mutate(&mut store, &shape, m);
        }
        let mut next = 0;
        for (n, &(sw, hw)) in shape.iter().enumerate() {
            let range = store.options(n);
            prop_assert_eq!(range.clone(), next..next + sw + hw, "node {}", n);
            next = range.end;
            let flat: Vec<ImplChoice> = range.clone().map(|i| store.choice_at(n, i)).collect();
            prop_assert_eq!(&flat, &store.choice_iter(n).collect::<Vec<_>>());
            for i in range {
                let c = store.choice_at(n, i);
                let expect = alpha * store.trail(n, c) + (1.0 - alpha) * store.merit(n, c);
                prop_assert_eq!(store.attraction_at(i).to_bits(), expect.to_bits());
                prop_assert_eq!(store.attraction_at(i).to_bits(), store.attraction(n, c).to_bits());
                let (mut by_index, mut by_choice) = (store.clone(), store.clone());
                by_index.add_trail_at(i, delta);
                by_choice.add_trail(n, c, delta);
                for m in 0..shape.len() {
                    for d in store.choice_iter(m) {
                        prop_assert_eq!(
                            by_index.trail(m, d).to_bits(),
                            by_choice.trail(m, d).to_bits(),
                            "add_trail_at({}) touched node {} {}", i, m, d
                        );
                    }
                }
            }
            let mut first_max = None::<(ImplChoice, f64)>;
            for c in store.choice_iter(n) {
                let p = store.selected_probability(n, c);
                if first_max.is_none_or(|(_, bp)| p > bp) {
                    first_max = Some((c, p));
                }
            }
            let (bc, bp) = store.best_option(n);
            let (fc, fp) = first_max.unwrap();
            prop_assert_eq!((bc, bp.to_bits()), (fc, fp.to_bits()));
        }
        prop_assert_eq!(next, store.options(shape.len() - 1).end);
    }

    #[test]
    fn trails_never_go_negative(shape in arb_shape(), muts in arb_mutations()) {
        let params = AcoParams::default();
        let mut store = PheromoneStore::new(&shape, &params);
        for m in &muts {
            mutate(&mut store, &shape, m);
        }
        for n in 0..shape.len() {
            for c in store.choices(n) {
                prop_assert!(store.trail(n, c) >= 0.0);
                prop_assert!(store.merit(n, c) > 0.0, "merit floor holds");
            }
        }
    }

    #[test]
    fn normalisation_preserves_ordering(shape in arb_shape(), muts in arb_mutations()) {
        let params = AcoParams::default();
        let mut store = PheromoneStore::new(&shape, &params);
        for m in &muts {
            mutate(&mut store, &shape, m);
        }
        // Record merit order per node, normalise, re-check order (up to the
        // 1% floor clamping genuinely tiny values together).
        let order_before: Vec<Vec<(ImplChoice, f64)>> = (0..shape.len())
            .map(|n| store.choices(n).into_iter().map(|c| (c, store.merit(n, c))).collect())
            .collect();
        store.normalize_merits();
        for (n, before) in order_before.iter().enumerate() {
            for (c1, m1) in before {
                for (c2, m2) in before {
                    if m1 > m2 {
                        let a = store.merit(n, *c1);
                        let b = store.merit(n, *c2);
                        prop_assert!(a >= b - 1e-12, "order inverted after normalise");
                    }
                }
            }
        }
    }

    #[test]
    fn roulette_picks_follow_weights(weights in prop::collection::vec(0.0f64..10.0, 1..6), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let total: f64 = weights.iter().sum();
        let mut counts = vec![0usize; weights.len()];
        let n = 2000;
        for _ in 0..n {
            counts[roulette(&mut rng, &weights)] += 1;
        }
        if total > 0.0 {
            for (i, w) in weights.iter().enumerate() {
                let expected = w / total;
                let observed = counts[i] as f64 / n as f64;
                prop_assert!(
                    (observed - expected).abs() < 0.08,
                    "option {i}: expected {expected:.3}, observed {observed:.3}"
                );
            }
        }
    }
}

/// Node 0 of `[(1, 2), (2, 0), (1, 1)]`: a naive flat index for one option
/// past its last would silently read the next option slot.
fn three_nodes() -> PheromoneStore {
    PheromoneStore::new(&[(1, 2), (2, 0), (1, 1)], &AcoParams::default())
}

#[test]
#[should_panic(expected = "operation 0 has no option HW-3")]
fn hardware_option_past_the_last_panics() {
    three_nodes().trail(0, ImplChoice::Hw(2));
}

#[test]
#[should_panic(expected = "operation 0 has no option SW-2")]
fn software_option_past_the_last_panics() {
    three_nodes().merit(0, ImplChoice::Sw(1));
}

#[test]
#[should_panic(expected = "operation 1 has no option SW-3")]
fn software_option_past_a_software_only_node_panics() {
    three_nodes().add_trail(1, ImplChoice::Sw(2), 1.0);
}
