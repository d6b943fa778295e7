//! The unit of engine work.

use crate::seed::derive_seed;

/// One exploration to run: a block, a repeat index, and the seed both imply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreJob {
    /// Index of the block in the engine's task list.
    pub block_index: usize,
    /// Which of the block's repeated explorations this is (0-based).
    pub repeat: usize,
    /// Derived RNG seed; see [`derive_seed`].
    pub seed: u64,
}

impl ExploreJob {
    /// Job `repeat` of the block at canonical index `block_index`, seeded
    /// from `(master_seed, block_index, repeat)` alone.
    pub fn new(block_index: usize, repeat: usize, master_seed: u64) -> ExploreJob {
        ExploreJob {
            block_index,
            repeat,
            seed: derive_seed(master_seed, block_index as u64, repeat as u64),
        }
    }

    /// Plans the jobs of the blocks at canonical indices `indices` in the
    /// run's hot list, `repeats` per block, in block-major order. The order
    /// is part of the determinism contract: outcomes are committed by job
    /// index, so the reduction over repeats sees them in this order
    /// regardless of which worker ran what. Seeds derive from the canonical
    /// indices, so exploring any subset of a run's blocks — one block at a
    /// time, on resume, in any grouping — yields the jobs an all-blocks
    /// plan assigns the same blocks.
    pub fn plan_subset(indices: &[usize], repeats: usize, master_seed: u64) -> Vec<ExploreJob> {
        let repeats = repeats.max(1);
        indices
            .iter()
            .flat_map(|&block_index| {
                (0..repeats).map(move |repeat| ExploreJob::new(block_index, repeat, master_seed))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_block_major_and_seeded() {
        let jobs = ExploreJob::plan_subset(&[0, 1], 3, 99);
        assert_eq!(jobs.len(), 6);
        assert_eq!(
            jobs.iter()
                .map(|j| (j.block_index, j.repeat))
                .collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
        for j in &jobs {
            assert_eq!(
                j.seed,
                derive_seed(99, j.block_index as u64, j.repeat as u64)
            );
        }
    }

    #[test]
    fn zero_repeats_still_runs_once() {
        assert_eq!(ExploreJob::plan_subset(&[0, 1, 2], 0, 1).len(), 3);
    }
}
