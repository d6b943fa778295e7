//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every binary regenerates one artefact of the paper's evaluation
//! (Table 5.1.1, Figs. 5.2.1–5.2.3, the headline numbers) and prints the
//! same rows/series the paper reports. Absolute values depend on the
//! synthetic workload substrate; the *shape* (who wins, by roughly what
//! factor, where the curves saturate) is the reproduction target — see
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use isex_engine::Flags;
use isex_flow::experiment::SweepEffort;
use isex_workloads::{registry, Benchmark};

/// Everything the figure binaries take from the command line: an effort
/// level and the benchmark subset to regenerate.
pub struct HarnessArgs {
    /// Repeats / iteration cap / worker threads.
    pub effort: SweepEffort,
    /// Benchmarks to run; defaults to the full evaluation set. `--bench`
    /// flags (repeatable) narrow it, resolved through the central
    /// [`registry`] so a typo lists the valid names instead of silently
    /// running nothing.
    pub benches: Vec<Benchmark>,
}

/// Command-line parsing shared by the figure binaries:
/// `--quick` (1 repeat, 40 iterations — smoke test),
/// `--paper` (5 repeats, 200 iterations — default),
/// `--repeats N --iters M`, `--jobs N` exploration worker threads
/// (0 = one per core; results are identical for every value), and
/// `--bench NAME` (repeatable) to regenerate a benchmark subset. A missing
/// or bad value, an unknown flag or an unknown benchmark is an error that
/// names it.
pub fn harness_from_args() -> Result<HarnessArgs, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    harness_from(&args)
}

fn harness_from(args: &[String]) -> Result<HarnessArgs, String> {
    let mut effort = SweepEffort::paper();
    let mut jobs = 0;
    let mut benches: Vec<Benchmark> = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--quick" => effort = SweepEffort::quick(),
            "--paper" => effort = SweepEffort::paper(),
            "--repeats" => effort.repeats = flags.parse(flag)?,
            "--iters" => effort.max_iterations = flags.parse(flag)?,
            "--jobs" => jobs = flags.parse(flag)?,
            "--bench" => {
                let b = registry::resolve(&flags.value(flag)?).map_err(|e| e.to_string())?;
                if !benches.contains(&b) {
                    benches.push(b);
                }
            }
            other => {
                return Err(format!(
                    "unknown argument {other}; use --quick/--paper/--repeats N/--iters M/\
                     --jobs N/--bench NAME"
                ))
            }
        }
    }
    if benches.is_empty() {
        benches = Benchmark::ALL.to_vec();
    }
    Ok(HarnessArgs {
        effort: effort.with_jobs(jobs),
        benches,
    })
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// A minimal fixed-width text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = line(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
        let lens: Vec<usize> = s.lines().map(str::len).collect();
        assert_eq!(lens[0], lens[2], "rows align with header");
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn bad_harness_flags_are_errors_that_name_the_flag() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            harness_from(&args).err()
        };
        assert_eq!(parse("--quick --jobs").unwrap(), "--jobs needs a value");
        assert_eq!(parse("--iters many").unwrap(), "bad --iters");
        assert!(parse("--fast")
            .unwrap()
            .starts_with("unknown argument --fast"));
        assert!(parse("--bench nosuch").is_some());
        let args = harness_from(&["--bench".into(), "crc32".into()]).unwrap();
        assert_eq!(args.benches, vec![Benchmark::Crc32]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1479), "14.79%");
    }
}
