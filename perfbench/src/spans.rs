//! Span arithmetic over `isex_trace` records: per-name self time and the
//! share of a window that a set of spans covers.

use std::collections::{BTreeMap, HashMap};

use isex_trace::SpanRecord;

/// Length of the union of `intervals` (ns), each clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per span name: `(self time ns, span count)`. A span's self time is its
/// duration minus the part of it that its child spans cover.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for r in records {
        if let Some(parent) = r.parent {
            children
                .entry(parent)
                .or_default()
                .push((r.start_ns, r.start_ns + r.dur_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for r in records {
        let end = r.start_ns + r.dur_ns;
        let covered = children
            .get(&r.id)
            .map_or(0, |c| union_len(c.clone(), r.start_ns, end));
        let slot = out.entry(r.name).or_default();
        slot.0 += r.dur_ns - covered.min(r.dur_ns);
        slot.1 += 1;
    }
    out
}

/// Nanoseconds of `[lo, hi)` covered by spans whose name starts with
/// `prefix`.
pub fn covered_ns(records: &[SpanRecord], prefix: &str, lo: u64, hi: u64) -> u64 {
    let intervals = records
        .iter()
        .filter(|r| r.name.starts_with(prefix))
        .map(|r| (r.start_ns, r.start_ns + r.dur_ns))
        .collect();
    union_len(intervals, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns: start,
            dur_ns: dur,
            tid: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let recs = vec![
            rec(1, None, "outer", 0, 100),
            rec(2, Some(1), "inner", 10, 30),
            rec(3, Some(1), "inner", 20, 30),
            rec(4, Some(1), "inner", 90, 30),
        ];
        let st = self_times(&recs);
        assert_eq!(st["outer"], (100 - 40 - 10, 1));
        assert_eq!(st["inner"], (90, 3));
        assert_eq!(covered_ns(&recs, "inn", 0, 100), 50);
    }
}
