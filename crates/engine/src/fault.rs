//! Deterministic fault injection for exploration runs.
//!
//! A [`FaultPlan`] decides, as a pure function of a job's `(block, repeat)`
//! coordinates, whether that job panics, stalls, or spuriously cancels the
//! run. Decisions use the same SplitMix64 derivation as job seeds
//! ([`crate::derive_seed`]), so a plan is bitwise reproducible: the same
//! plan string always faults the same jobs, at any worker count. That is
//! what makes the supervision and resume paths *testable* — CI can inject
//! a panic into exactly one job and assert every other result is
//! untouched.
//!
//! # Grammar
//!
//! A plan is a whitespace- or comma-separated list of rules:
//!
//! ```text
//! rule    := KIND selector [":" DURATION "ms"]
//! KIND    := "panic" | "delay" | "cancel" | "drop"
//! selector:= ":" NUM "/" DEN     probabilistic, decided per (block, repeat)
//!          | "@" BLOCK "." REPEAT  exactly one job
//! seed    := "seed:" N           decision seed (default 0), one per plan
//! ```
//!
//! Examples: `panic:1/3` (every job panics with probability 1/3),
//! `delay:1/5:20ms` (1 in 5 jobs sleeps 20 ms), `panic@2.0` (block 2,
//! repeat 0 panics), `cancel:1/8 seed:7`, `drop@1.0` (sever the worker
//! connection carrying the first dispatch of each of block 1's jobs).
//!
//! The `drop` kind is a *network* fault: it is a no-op inside the engine
//! (a single process has no connection to sever) and takes effect at the
//! cluster transport layer, where the coordinator consults
//! [`FaultPlan::drops`] with `(block, dispatch attempt)` coordinates —
//! the attempt counted per `(block, repeat)` job, so `drop@B.A` severs
//! the A-th dispatch of every repeat of block B — and severs the chosen
//! worker's connection instead of sending the job, making partition
//! drills as reproducible as the in-process kinds.

use crate::cancel::CancelToken;
use crate::seed::derive_seed;

/// What an injected fault does to a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The job panics (`panic!`) — exercises panic isolation and worker
    /// supervision.
    Panic,
    /// The job sleeps for the given milliseconds before running —
    /// exercises deadline and backpressure paths without changing results.
    Delay(u64),
    /// The run's [`CancelToken`] trips at the job's start — exercises
    /// cooperative-cancellation handling end to end.
    Cancel,
    /// The cluster transport severs the worker connection chosen for this
    /// `(block, attempt)` instead of dispatching the job — exercises
    /// partition detection and re-dispatch. Ignored by the in-process
    /// engine ([`FaultPlan::apply`] treats it as a no-op).
    Drop,
}

/// Which jobs a rule applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Selector {
    /// Fault with probability `num/den`, decided by seeded SplitMix64 over
    /// the job coordinates.
    Ratio { num: u64, den: u64 },
    /// Fault exactly the job at `(block, repeat)`.
    Exact { block: usize, repeat: usize },
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultRule {
    kind: FaultKind,
    selector: Selector,
}

/// A parsed, deterministic fault-injection plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
    source: String,
}

/// Per-kind salt folded into the decision seed so `panic:1/2 delay:1/2`
/// faults *different* halves of the job space.
fn kind_salt(kind: FaultKind) -> u64 {
    match kind {
        FaultKind::Panic => 0x70616e6963,    // "panic"
        FaultKind::Delay(_) => 0x64656c6179, // "delay"
        FaultKind::Cancel => 0x63616e63656c, // "cancel"
        FaultKind::Drop => 0x64726f70,       // "drop"
    }
}

impl FaultPlan {
    /// Parses a plan string; see the module docs for the grammar.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        let mut seed = 0u64;
        for token in spec.split([' ', ',', '\t']).filter(|t| !t.is_empty()) {
            if let Some(value) = token.strip_prefix("seed:") {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad seed `{value}` in `{token}`"))?;
                continue;
            }
            rules.push(parse_rule(token)?);
        }
        if rules.is_empty() {
            return Err(format!("fault plan `{spec}` contains no rules"));
        }
        Ok(FaultPlan {
            rules,
            seed,
            source: spec.to_string(),
        })
    }

    /// The plan string this was parsed from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The faults that hit the job at `(block, repeat)`, in rule order.
    /// Pure: same plan, same coordinates, same answer — on every machine.
    pub fn decide(&self, block: usize, repeat: usize) -> Vec<FaultKind> {
        self.rules
            .iter()
            .filter(|rule| match rule.selector {
                Selector::Exact {
                    block: b,
                    repeat: r,
                } => b == block && r == repeat,
                Selector::Ratio { num, den } => {
                    let roll = derive_seed(
                        self.seed ^ kind_salt(rule.kind),
                        block as u64,
                        repeat as u64,
                    );
                    roll % den < num
                }
            })
            .map(|rule| rule.kind)
            .collect()
    }

    /// Whether the cluster transport should sever the connection carrying
    /// dispatch `attempt` of a job of `block` (attempts count per
    /// `(block, repeat)` job) instead of delivering it. Pure in
    /// `(plan seed ⊕ drop salt, block, attempt)`, so a partition drill
    /// severs the same dispatches on every run — the engine-level kinds
    /// never alias it (distinct salt).
    pub fn drops(&self, block: usize, attempt: usize) -> bool {
        self.decide(block, attempt).contains(&FaultKind::Drop)
    }

    /// Applies the job's faults in rule order: delays sleep, cancels trip
    /// `cancel`, and a panic fault panics with a structured message naming
    /// the job. Called by the engine inside pool supervision, so an
    /// injected panic travels the exact path a real one would. `drop`
    /// rules are transport-layer faults and do nothing here.
    pub fn apply(&self, block: usize, repeat: usize, cancel: &CancelToken) {
        for kind in self.decide(block, repeat) {
            match kind {
                FaultKind::Delay(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
                FaultKind::Cancel => cancel.cancel(),
                FaultKind::Panic => panic!(
                    "injected fault: panic at block={block} repeat={repeat} (plan `{}`)",
                    self.source
                ),
                FaultKind::Drop => {}
            }
        }
    }
}

fn parse_rule(token: &str) -> Result<FaultRule, String> {
    let (kind_name, rest) = match token.find(['@', ':']) {
        Some(i) => (&token[..i], &token[i..]),
        None => {
            return Err(format!(
                "rule `{token}` needs a selector (`:N/D` or `@BLOCK.REPEAT`)"
            ))
        }
    };
    let bad = |what: &str| format!("{what} in rule `{token}`");

    // Split the selector from an optional trailing `:Nms` duration.
    let (selector_text, duration_ms) = match rest
        .rfind(':')
        .filter(|&i| i > 0 && rest[i + 1..].ends_with("ms"))
    {
        Some(i) => {
            let digits = &rest[i + 1..rest.len() - 2];
            let ms = digits
                .parse::<u64>()
                .map_err(|_| bad(&format!("bad duration `{digits}ms`")))?;
            (&rest[..i], Some(ms))
        }
        None => (rest, None),
    };

    let selector = if let Some(at) = selector_text.strip_prefix('@') {
        let (block, repeat) = at
            .split_once('.')
            .ok_or_else(|| bad("exact selector must be `@BLOCK.REPEAT`"))?;
        Selector::Exact {
            block: block.parse().map_err(|_| bad("bad block index"))?,
            repeat: repeat.parse().map_err(|_| bad("bad repeat index"))?,
        }
    } else if let Some(ratio) = selector_text.strip_prefix(':') {
        let (num, den) = ratio
            .split_once('/')
            .ok_or_else(|| bad("ratio selector must be `:NUM/DEN`"))?;
        let num = num.parse().map_err(|_| bad("bad ratio numerator"))?;
        let den: u64 = den.parse().map_err(|_| bad("bad ratio denominator"))?;
        if den == 0 {
            return Err(bad("ratio denominator must be nonzero"));
        }
        Selector::Ratio { num, den }
    } else {
        return Err(bad("unrecognised selector"));
    };

    let kind = match kind_name {
        "panic" => FaultKind::Panic,
        "delay" => FaultKind::Delay(duration_ms.unwrap_or(10)),
        "cancel" => FaultKind::Cancel,
        "drop" => FaultKind::Drop,
        other => return Err(format!("unknown fault kind `{other}` in `{token}`")),
    };
    if duration_ms.is_some() && !matches!(kind, FaultKind::Delay(_)) {
        return Err(bad("only `delay` takes a duration"));
    }
    Ok(FaultRule { kind, selector })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_examples() {
        for spec in [
            "panic:1/3",
            "delay:1/5:20ms",
            "panic@2.0",
            "cancel:1/8 seed:7",
            "panic:1/3 delay:1/5",
            "panic:1/3,delay:1/5:5ms",
            "drop:1/4",
            "drop@1.0",
            "drop:1/2 panic:1/8",
        ] {
            let plan = FaultPlan::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(plan.source(), spec);
        }
    }

    #[test]
    fn rejects_malformed_plans() {
        for spec in [
            "",
            "panic",
            "panic:1/0",
            "panic:x/3",
            "explode:1/2",
            "panic@3",
            "panic@a.b",
            "panic:1/2:10ms", // duration on a non-delay rule
            "drop:1/2:10ms",  // drop takes no duration either
            "seed:abc panic:1/2",
            "seed:1",
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "`{spec}` should not parse");
        }
    }

    #[test]
    fn exact_selector_hits_exactly_one_job() {
        let plan = FaultPlan::parse("panic@2.1").unwrap();
        for block in 0..4 {
            for repeat in 0..3 {
                let hits = plan.decide(block, repeat);
                if (block, repeat) == (2, 1) {
                    assert_eq!(hits, vec![FaultKind::Panic]);
                } else {
                    assert!(hits.is_empty(), "({block},{repeat}) should be clean");
                }
            }
        }
    }

    #[test]
    fn ratio_decisions_are_deterministic_and_roughly_proportional() {
        let plan = FaultPlan::parse("panic:1/3").unwrap();
        let again = FaultPlan::parse("panic:1/3").unwrap();
        let mut faulted = 0usize;
        for block in 0..40 {
            for repeat in 0..25 {
                let a = plan.decide(block, repeat);
                assert_eq!(a, again.decide(block, repeat), "must be pure");
                faulted += usize::from(!a.is_empty());
            }
        }
        // 1000 trials at p = 1/3: far from zero and far from all.
        assert!((150..=550).contains(&faulted), "{faulted}/1000 faulted");
    }

    #[test]
    fn seed_and_kind_decorrelate_decisions() {
        let a = FaultPlan::parse("panic:1/2").unwrap();
        let b = FaultPlan::parse("panic:1/2 seed:9").unwrap();
        let c = FaultPlan::parse("delay:1/2").unwrap();
        let differs = |x: &FaultPlan, y: &FaultPlan| {
            (0..100).any(|i| x.decide(i, 0).is_empty() != y.decide(i, 0).is_empty())
        };
        assert!(differs(&a, &b), "seed must matter");
        assert!(differs(&a, &c), "kind salt must matter");
    }

    #[test]
    fn cancel_fault_trips_the_token() {
        let plan = FaultPlan::parse("cancel@0.0").unwrap();
        let token = CancelToken::new();
        plan.apply(1, 1, &token);
        assert!(!token.is_cancelled());
        plan.apply(0, 0, &token);
        assert!(token.is_cancelled());
    }

    #[test]
    fn drop_is_a_transport_fault_only() {
        let plan = FaultPlan::parse("drop@2.0").unwrap();
        assert!(plan.drops(2, 0));
        assert!(!plan.drops(2, 1), "second dispatch attempt goes through");
        assert!(!plan.drops(0, 0));
        // The engine-level apply ignores drop rules entirely: no panic, no
        // cancel, no delay.
        let token = CancelToken::new();
        plan.apply(2, 0, &token);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn drop_salt_decorrelates_from_engine_kinds() {
        let drop = FaultPlan::parse("drop:1/2").unwrap();
        let panic = FaultPlan::parse("panic:1/2").unwrap();
        assert!(
            (0..100).any(|b| drop.drops(b, 0) == panic.decide(b, 0).is_empty()),
            "drop decisions must not mirror panic decisions"
        );
    }

    #[test]
    fn panic_fault_panics_with_job_coordinates() {
        let plan = FaultPlan::parse("panic@1.2").unwrap();
        let token = CancelToken::new();
        let err = std::panic::catch_unwind(|| plan.apply(1, 2, &token)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("block=1 repeat=2"), "{msg}");
    }
}
