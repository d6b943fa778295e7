//! The in-memory aggregate exporter: per-span-name count / total / max.

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Aggregate cost of one span name across a run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Span name, e.g. `"aco.construct"`.
    pub name: String,
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Longest single span, milliseconds.
    pub max_ms: f64,
}

impl PhaseStat {
    /// A counter-only stat: `count` events under `name`, no time.
    pub fn counter(name: &str, count: u64) -> PhaseStat {
        PhaseStat {
            name: name.to_string(),
            count,
            total_ms: 0.0,
            max_ms: 0.0,
        }
    }
}

/// A run's per-phase profile: one [`PhaseStat`] per span name, sorted by
/// name. Lives in `RunMetrics` as `phase_profile`.
///
/// Serializes as a plain array; a *missing or null* field deserializes as
/// empty, so metrics records written before tracing existed still parse.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseProfile(pub Vec<PhaseStat>);

impl PhaseProfile {
    /// The stat for `name`, if the profile saw it.
    pub fn get(&self, name: &str) -> Option<&PhaseStat> {
        self.0.iter().find(|s| s.name == name)
    }

    /// Summed `total_ms` over the given span names (absent names count 0).
    pub fn total_ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.get(n))
            .map(|s| s.total_ms)
            .sum()
    }

    /// Folds one closed span of `dur_ns` under `name` into the profile,
    /// keeping it name-sorted.
    pub(crate) fn record(&mut self, name: &str, dur_ns: u64) {
        let ms = dur_ns as f64 / 1e6;
        match self.0.binary_search_by(|s| s.name.as_str().cmp(name)) {
            Ok(i) => {
                let s = &mut self.0[i];
                s.count += 1;
                s.total_ms += ms;
                s.max_ms = s.max_ms.max(ms);
            }
            Err(i) => self.0.insert(
                i,
                PhaseStat {
                    name: name.to_string(),
                    count: 1,
                    total_ms: ms,
                    max_ms: ms,
                },
            ),
        }
    }

    /// Folds `stats` into the profile, *merging* same-named entries
    /// (counts and totals sum, maxes max) instead of appending duplicates,
    /// and keeps the result name-sorted. This is the only correct way to
    /// combine profiles from different sources — a flat `extend` grows the
    /// profile by one duplicate entry per source per fold.
    pub fn absorb<I: IntoIterator<Item = PhaseStat>>(&mut self, stats: I) {
        for stat in stats {
            match self.0.iter_mut().find(|s| s.name == stat.name) {
                Some(existing) => {
                    existing.count += stat.count;
                    existing.total_ms += stat.total_ms;
                    existing.max_ms = existing.max_ms.max(stat.max_ms);
                }
                None => self.0.push(stat),
            }
        }
        self.0.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

impl Serialize for PhaseProfile {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for PhaseProfile {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            serde::Value::Null => Ok(PhaseProfile::default()),
            v => serde::de::from_value(&v).map(PhaseProfile),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(spans: &[(&str, u64)]) -> PhaseProfile {
        let mut p = PhaseProfile::default();
        for &(name, dur_ns) in spans {
            p.record(name, dur_ns);
        }
        p
    }

    #[test]
    fn aggregates_count_total_and_max_per_name() {
        let p = profile(&[("b", 2_000_000), ("a", 1_000_000), ("b", 4_000_000)]);
        assert_eq!(p.0.len(), 2);
        assert_eq!(p.0[0].name, "a"); // sorted
        let b = p.get("b").unwrap();
        assert_eq!(b.count, 2);
        assert!((b.total_ms - 6.0).abs() < 1e-9);
        assert!((b.max_ms - 4.0).abs() < 1e-9);
        assert!((p.total_ms(&["a", "b"]) - 7.0).abs() < 1e-9);
        assert_eq!(p.total_ms(&["absent"]), 0.0);
    }

    #[test]
    fn absorb_merges_same_named_entries_instead_of_appending() {
        let mut p = profile(&[("a", 1_000_000), ("b", 2_000_000)]);
        p.absorb(vec![
            PhaseStat {
                name: "b".to_string(),
                count: 3,
                total_ms: 5.0,
                max_ms: 4.0,
            },
            PhaseStat {
                name: "c".to_string(),
                count: 1,
                total_ms: 1.0,
                max_ms: 1.0,
            },
        ]);
        assert_eq!(p.0.len(), 3, "no duplicate entries: {:?}", p.0);
        let b = p.get("b").unwrap();
        assert_eq!(b.count, 4);
        assert!((b.total_ms - 7.0).abs() < 1e-9);
        assert!((b.max_ms - 4.0).abs() < 1e-9);
        // Absorbing again must not grow the profile.
        let again: Vec<PhaseStat> = p.0.clone();
        p.absorb(again);
        assert_eq!(p.0.len(), 3);
        assert_eq!(p.get("b").unwrap().count, 8);
        // Still name-sorted.
        let names: Vec<&str> = p.0.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn profile_round_trips_and_tolerates_null() {
        let p = profile(&[("x", 5_000_000)]);
        let text = serde_json::to_string(&p).unwrap();
        let back: PhaseProfile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, p);
        // Pre-tracing metrics records have no phase_profile field at all;
        // the vendored serde hands such fields a null.
        let empty: PhaseProfile = serde_json::from_str("null").unwrap();
        assert!(empty.0.is_empty());
    }
}
