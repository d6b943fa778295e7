//! ACO convergence trace: how the sampled schedule length evolves across
//! iterations and rounds (the dynamics behind thesis Fig. 2.2.1's ant
//! story, measured on a real kernel).
//!
//! Consumes the engine's event stream: one `(block, repeat)` job goes
//! through [`isex::engine::Engine::explore_jobs`] with a
//! [`isex::engine::VecSink`], and every printed round is a `RoundSummary`
//! event. Prints a per-round ASCII
//! sparkline of the walk TETs and the best-so-far trajectory.
//!
//! Run with: `cargo run --release --example convergence_trace [bench]`

use isex::engine::{
    BlockTask, CancelToken, Engine, ExploreJob, ExploreSpec, RepeatOutcome, RunEvent, VecSink,
};
use isex::prelude::*;

fn sparkline(values: &[u32]) -> String {
    const GLYPHS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().min().copied().unwrap_or(0);
    let hi = values.iter().max().copied().unwrap_or(1).max(lo + 1);
    values
        .iter()
        .map(|v| {
            let idx = ((v - lo) as usize * (GLYPHS.len() - 1)) / (hi - lo) as usize;
            GLYPHS[idx]
        })
        .collect()
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bitcount".into());
    let bench = Benchmark::ALL
        .iter()
        .find(|b| b.name() == name)
        .copied()
        .unwrap_or(Benchmark::Bitcount);
    let program = bench.program(OptLevel::O3);
    let block = program.hottest();
    let machine = MachineConfig::preset_2issue_4r2w();
    let params = AcoParams {
        max_iterations: 120,
        ..AcoParams::default()
    };
    let engine = Engine::new(ExploreSpec {
        machine,
        constraints: Constraints::from_machine(&machine),
        params,
        algorithm: Algorithm::MultiIssue,
        repeats: 1,
        jobs: 1,
        fault_plan: None,
        tracer: Default::default(),
    });
    let sink = VecSink::new();
    let task = BlockTask {
        name: &block.name,
        dfg: &block.dfg,
    };
    let job = (task, ExploreJob::new(0, 0, 0x7ace));
    let outcome = engine
        .explore_jobs(&[job], &sink, &CancelToken::new())
        .pop()
        .expect("one job, one outcome");
    let RepeatOutcome::Explored(result) = outcome else {
        panic!("{}: exploration failed: {outcome:?}", program.name);
    };
    println!(
        "{}: {} ops, {} -> {} cycles over {} rounds / {} iterations\n",
        program.name,
        block.dfg.len(),
        result.baseline_cycles,
        result.cycles_with_ises,
        result.rounds,
        result.iterations
    );
    for event in sink.into_events() {
        let RunEvent::RoundSummary {
            round,
            best_tet,
            tets,
            ..
        } = event
        else {
            continue;
        };
        let first = tets.first().copied().unwrap_or(0);
        println!(
            "round {round}: {} iterations, first sampled TET {first}, best {best_tet}",
            tets.len()
        );
        // Chunk the sparkline to 60 columns.
        for chunk in tets.chunks(60) {
            println!("  {}", sparkline(chunk));
        }
    }
    println!("\n(lower is better; each round explores the graph left after the previous commit)");
}
