//! The unit of engine work.

use crate::seed::derive_seed;

/// One exploration to run: a block, a repeat index, and the seed both imply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreJob {
    /// The block's canonical index in the run's hot list.
    pub block_index: usize,
    /// Which of the block's repeated explorations this is (0-based).
    pub repeat: usize,
    /// Derived RNG seed; see [`derive_seed`].
    pub seed: u64,
}

impl ExploreJob {
    /// Job `repeat` of the block at canonical index `block_index`, seeded
    /// from `(master_seed, block_index, repeat)` alone — so a job is the
    /// same whichever list, run or node it is explored in.
    pub fn new(block_index: usize, repeat: usize, master_seed: u64) -> ExploreJob {
        ExploreJob {
            block_index,
            repeat,
            seed: derive_seed(master_seed, block_index as u64, repeat as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_is_seeded_from_its_coordinates_alone() {
        for (block, repeat) in [(0, 0), (0, 2), (1, 0), (3, 1)] {
            let job = ExploreJob::new(block, repeat, 99);
            assert_eq!((job.block_index, job.repeat), (block, repeat));
            assert_eq!(job.seed, derive_seed(99, block as u64, repeat as u64));
        }
        assert_ne!(
            ExploreJob::new(0, 1, 99).seed,
            ExploreJob::new(1, 0, 99).seed
        );
    }
}
