//! The best-of-N reduction: one block's repeat outcomes to its kept result.
//!
//! Every path that explores a block — a local run, the checkpointed run,
//! and a cluster coordinator folding per-repeat results off the wire —
//! collects one [`RepeatOutcome`] per repeat and hands them here **in
//! repeat order**. Arrival order never reaches the reduction,
//! so where or when a repeat ran cannot show in the kept result.

use isex_core::Exploration;
use serde::{Deserialize, Serialize};

use crate::engine::BlockResult;
use crate::metrics::{BlockFailure, BlockSpread};

/// What one `(block, repeat)` job produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RepeatOutcome {
    /// The job ran; a job cut mid-rounds is flagged
    /// [`Exploration::degraded`].
    Explored(Exploration),
    /// The job panicked and pool supervision caught it; the payload,
    /// stringified.
    Panicked(String),
    /// A tripped token kept the job from starting.
    Skipped,
}

/// What the reduction made of one block's repeats.
#[derive(Clone, Debug)]
pub enum BlockReduction {
    /// At least one repeat explored: the kept (best) result.
    Kept(BlockResult),
    /// No repeat explored and at least one panicked.
    Failed(BlockFailure),
    /// Every repeat was skipped: nothing ran, nothing failed.
    Skipped,
}

/// Reduces one block's repeat outcomes, given in repeat order, to its kept
/// result.
///
/// The kept exploration has the fewest cycles, ties broken by the smaller
/// [`Exploration::total_area`], then first-seen in repeat order — except
/// that on a full tie a non-degraded exploration beats a degraded one, so
/// partial work never shadows an equally good canonical repeat. The block
/// is degraded when any surviving exploration is — a repeat cut mid-rounds
/// might have won had it run on — or when any repeat was skipped. The
/// spread counts every planned repeat (`outcomes.len()`).
pub fn reduce_repeats(
    block: &str,
    block_index: usize,
    outcomes: &[RepeatOutcome],
) -> BlockReduction {
    let repeats = outcomes.len();
    let survivors: Vec<&Exploration> = outcomes
        .iter()
        .filter_map(|o| match o {
            RepeatOutcome::Explored(e) => Some(e),
            _ => None,
        })
        .collect();
    let mut best: Option<&Exploration> = None;
    for &e in &survivors {
        let better = match best {
            None => true,
            Some(b) => {
                e.cycles_with_ises < b.cycles_with_ises
                    || (e.cycles_with_ises == b.cycles_with_ises && e.total_area() < b.total_area())
                    || (e.cycles_with_ises == b.cycles_with_ises
                        && e.total_area() == b.total_area()
                        && b.degraded
                        && !e.degraded)
            }
        };
        if better {
            best = Some(e);
        }
    }
    let Some(best) = best else {
        let first_panic = outcomes.iter().find_map(|o| match o {
            RepeatOutcome::Panicked(payload) => Some(payload.clone()),
            _ => None,
        });
        return match first_panic {
            Some(error) => BlockReduction::Failed(BlockFailure {
                block: block.to_string(),
                block_index,
                repeats_failed: repeats,
                error,
            }),
            None => BlockReduction::Skipped,
        };
    };
    let cut = survivors.iter().any(|e| e.degraded)
        || outcomes.iter().any(|o| matches!(o, RepeatOutcome::Skipped));
    BlockReduction::Kept(BlockResult {
        block_index,
        best: best.clone(),
        iterations: survivors.iter().map(|e| e.iterations).sum(),
        spread: BlockSpread {
            block: block.to_string(),
            repeats,
            baseline_cycles: best.baseline_cycles,
            best_cycles: best.cycles_with_ises,
            worst_cycles: survivors
                .iter()
                .map(|e| e.cycles_with_ises)
                .max()
                .expect("at least one survivor"),
        },
        repeats_completed: survivors.len(),
        degraded: cut,
    })
}

/// Per-job outcomes of a run, slotted by `(block, repeat)`: whatever order
/// they are filled in, a block's outcomes come out in repeat order — the
/// order [`reduce_repeats`] takes. The first outcome for a job wins; a
/// duplicate is dropped.
#[derive(Clone, Debug)]
pub struct RepeatSlots {
    repeats: usize,
    outcomes: Vec<Option<RepeatOutcome>>,
}

impl RepeatSlots {
    /// Empty slots for `blocks` blocks of `repeats` repeats each.
    pub fn new(blocks: usize, repeats: usize) -> RepeatSlots {
        RepeatSlots {
            repeats,
            outcomes: vec![None; blocks * repeats],
        }
    }

    fn index(&self, block: usize, repeat: usize) -> usize {
        assert!(repeat < self.repeats, "repeat {repeat} of {}", self.repeats);
        block * self.repeats + repeat
    }

    /// The outcome of `(block, repeat)`, if it is in.
    pub fn get(&self, block: usize, repeat: usize) -> Option<&RepeatOutcome> {
        self.outcomes[self.index(block, repeat)].as_ref()
    }

    /// Stores the outcome of `(block, repeat)` unless one is already in;
    /// returns whether it was stored.
    ///
    /// # Panics
    ///
    /// Panics if the block or repeat is out of range.
    pub fn fill(&mut self, block: usize, repeat: usize, outcome: RepeatOutcome) -> bool {
        let index = self.index(block, repeat);
        let slot = &mut self.outcomes[index];
        if slot.is_some() {
            return false;
        }
        *slot = Some(outcome);
        true
    }

    fn block(&self, block: usize) -> &[Option<RepeatOutcome>] {
        &self.outcomes[block * self.repeats..(block + 1) * self.repeats]
    }

    /// The block's outcomes in repeat order, once every repeat is in.
    pub fn complete(&self, block: usize) -> Option<Vec<RepeatOutcome>> {
        self.block(block).iter().cloned().collect()
    }

    /// The block's outcomes in repeat order with every missing repeat
    /// [`RepeatOutcome::Skipped`]: a block cut short reduces from the
    /// repeats it has, as the pool reduces a run its token cut.
    pub fn cut(&self, block: usize) -> Vec<RepeatOutcome> {
        self.block(block)
            .iter()
            .map(|o| o.clone().unwrap_or(RepeatOutcome::Skipped))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exploration(cycles: u32, areas: &[f64], degraded: bool) -> Exploration {
        Exploration {
            candidates: areas
                .iter()
                .map(|&area_um2| isex_core::IseCandidate {
                    nodes: isex_dfg::NodeSet::new(4),
                    choices: Vec::new(),
                    delay_ns: 1.0,
                    latency: 1,
                    area_um2,
                    inputs: 2,
                    outputs: 1,
                    saved_cycles: 1,
                })
                .collect(),
            baseline_cycles: 20,
            cycles_with_ises: cycles,
            rounds: 3,
            iterations: 10,
            degraded,
        }
    }

    fn kept(outcomes: &[RepeatOutcome]) -> BlockResult {
        match reduce_repeats("b", 0, outcomes) {
            BlockReduction::Kept(r) => r,
            other => panic!("expected a kept result, got {other:?}"),
        }
    }

    #[test]
    fn fewer_cycles_then_smaller_area_then_first_seen_wins() {
        use RepeatOutcome::Explored;
        let r = kept(&[
            Explored(exploration(12, &[5.0], false)),
            Explored(exploration(10, &[9.0], false)),
            Explored(exploration(10, &[4.0, 3.0], false)),
            Explored(exploration(10, &[7.0], false)),
        ]);
        assert_eq!(r.best.cycles_with_ises, 10);
        assert_eq!(
            r.best.candidates.len(),
            2,
            "7.0 = 4.0 + 3.0: the first wins"
        );
        assert_eq!(r.spread.worst_cycles, 12);
        assert_eq!(r.iterations, 40);
        assert!(!r.degraded);
    }

    #[test]
    fn a_canonical_repeat_beats_an_equal_degraded_one() {
        use RepeatOutcome::Explored;
        let r = kept(&[
            Explored(exploration(10, &[5.0], true)),
            Explored(exploration(10, &[5.0], false)),
        ]);
        assert!(!r.best.degraded);
        assert!(r.degraded, "the cut repeat might have won had it run on");
    }

    #[test]
    fn a_worse_degraded_repeat_still_degrades_the_block() {
        use RepeatOutcome::Explored;
        let r = kept(&[
            Explored(exploration(10, &[5.0], false)),
            Explored(exploration(14, &[2.0], true)),
        ]);
        assert!(!r.best.degraded, "the canonical repeat is kept");
        assert!(
            r.degraded,
            "a repeat was cut, so the block is not canonical"
        );
    }

    #[test]
    fn a_skipped_repeat_degrades_the_block_and_a_panic_does_not() {
        let e = RepeatOutcome::Explored(exploration(10, &[1.0], false));
        let r = kept(&[e.clone(), RepeatOutcome::Panicked("boom".into())]);
        assert!(!r.degraded);
        assert_eq!(r.repeats_completed, 1);
        assert_eq!(r.spread.repeats, 2);
        let r = kept(&[RepeatOutcome::Skipped, e]);
        assert!(r.degraded);
    }

    #[test]
    fn a_duplicate_outcome_is_dropped_and_the_first_kept() {
        let mut slots = RepeatSlots::new(2, 2);
        let first = RepeatOutcome::Panicked("first".into());
        assert!(slots.fill(1, 0, first.clone()));
        assert!(
            !slots.fill(1, 0, RepeatOutcome::Skipped),
            "duplicate refused"
        );
        assert_eq!(slots.get(1, 0), Some(&first));
        assert!(slots.complete(1).is_none(), "repeat 1 still out");
        assert_eq!(slots.cut(1), vec![first.clone(), RepeatOutcome::Skipped]);
        assert!(slots.fill(1, 1, RepeatOutcome::Skipped));
        assert_eq!(slots.complete(1), Some(vec![first, RepeatOutcome::Skipped]));
        assert!(slots.complete(0).is_none(), "block 0 untouched");
    }

    #[test]
    fn no_survivor_is_a_failure_with_the_first_payload_or_a_skip() {
        let failed = reduce_repeats(
            "b",
            3,
            &[
                RepeatOutcome::Skipped,
                RepeatOutcome::Panicked("first".into()),
                RepeatOutcome::Panicked("second".into()),
            ],
        );
        match failed {
            BlockReduction::Failed(f) => {
                assert_eq!(f.error, "first");
                assert_eq!(f.block_index, 3);
                assert_eq!(f.repeats_failed, 3);
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        assert!(matches!(
            reduce_repeats("b", 0, &[RepeatOutcome::Skipped, RepeatOutcome::Skipped]),
            BlockReduction::Skipped
        ));
    }
}
