//! The Chrome trace-event exporter.
//!
//! Emits the JSON-array flavour of the trace-event format: complete events
//! (`"ph":"X"`) with microsecond `ts`/`dur`, one `pid` per process (a
//! local-only run is one process, pid 1) and one `tid` per worker thread,
//! plus `"M"` metadata events naming the processes and threads. The output
//! loads in Perfetto and `chrome://tracing` as-is.

use serde::Value;

use crate::OwnedSpan;

/// The single process id stamped on every event (one trace = one run).
/// Multi-process exports keep this pid for the local process and number
/// remote processes from `TRACE_PID + 1`.
pub const TRACE_PID: u64 = 1;

/// One process's contribution to a multi-process trace: its display name,
/// its closed spans (already remapped into one shared id space) and its
/// thread names.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessSpans {
    /// Chrome `process_name` for this lane, e.g. `"isex worker w0"`.
    pub name: String,
    /// The process's closed spans.
    pub spans: Vec<OwnedSpan>,
    /// `(tid, thread name)` pairs, tids local to this process.
    pub threads: Vec<(u64, String)>,
}

fn metadata_event(kind: &str, pid: u64, tid: u64, name: &str) -> Value {
    Value::Object(vec![
        ("name".into(), Value::String(kind.to_string())),
        ("ph".into(), Value::String("M".into())),
        ("pid".into(), Value::U64(pid)),
        ("tid".into(), Value::U64(tid)),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::String(name.to_string()))]),
        ),
    ])
}

/// Renders several processes' spans as ONE Chrome trace-event JSON array:
/// the first entry keeps `TRACE_PID`, every further process gets the
/// next pid, and each lane carries its own `process_name`/`thread_name`
/// metadata. Span ids are emitted as args verbatim — callers remap them
/// into one shared id space first (see `Tracer::inject_remote`), so a
/// `parent` arg on one lane can point at a span on another: the
/// cross-process parent link.
pub fn chrome_trace_multi_json(
    local: &ProcessSpans,
    remote: &[ProcessSpans],
    trace_id: Option<&str>,
) -> String {
    let mut events = Vec::new();
    for (index, process) in std::iter::once(local).chain(remote.iter()).enumerate() {
        let pid = TRACE_PID + index as u64;
        events.push(metadata_event("process_name", pid, 0, &process.name));
        for (tid, name) in &process.threads {
            events.push(metadata_event("thread_name", pid, *tid, name));
        }
        for span in &process.spans {
            let mut args: Vec<(String, Value)> = vec![("id".into(), Value::U64(span.id))];
            if let Some(parent) = span.parent {
                args.push(("parent".into(), Value::U64(parent)));
            }
            if let Some(id) = trace_id {
                args.push(("trace".into(), Value::String(id.to_string())));
            }
            for (k, v) in &span.args {
                args.push((k.clone(), Value::String(v.clone())));
            }
            events.push(Value::Object(vec![
                ("name".into(), Value::String(span.name.clone())),
                ("cat".into(), Value::String("isex".into())),
                ("ph".into(), Value::String("X".into())),
                ("ts".into(), Value::F64(span.start_ns as f64 / 1e3)),
                ("dur".into(), Value::F64(span.dur_ns as f64 / 1e3)),
                ("pid".into(), Value::U64(pid)),
                ("tid".into(), Value::U64(span.tid)),
                ("args".into(), Value::Object(args)),
            ]));
        }
    }
    serde_json::value_to_string(&Value::Array(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::SpanRecord;

    /// A local-only export: one process of `records`, named like
    /// `Tracer::chrome_trace` names it.
    fn local_only(
        records: &[SpanRecord],
        threads: &[(u64, &str)],
        trace_id: Option<&str>,
    ) -> String {
        let local = ProcessSpans {
            name: match trace_id {
                Some(id) => format!("isex run {id}"),
                None => "isex run".to_string(),
            },
            spans: records.iter().map(OwnedSpan::from).collect(),
            threads: threads.iter().map(|&(t, n)| (t, n.to_string())).collect(),
        };
        chrome_trace_multi_json(&local, &[], trace_id)
    }

    #[test]
    fn local_only_export_keeps_the_single_process_bytes() {
        let spans = [
            SpanRecord {
                id: 1,
                parent: None,
                name: "flow.explore",
                start_ns: 1_000,
                dur_ns: 250_500,
                tid: 1,
                args: vec![("block", "0".to_string())],
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "aco.round",
                start_ns: 2_250,
                dur_ns: 1_750,
                tid: 2,
                args: Vec::new(),
            },
        ];
        let threads = [(1, "main"), (2, "engine-worker-0")];
        // Captured from the single-process exporter this one replaced.
        let meta = |process: &str| {
            format!(
                r#"{{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{{"name":"{process}"}}}},{{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{{"name":"main"}}}},{{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{{"name":"engine-worker-0"}}}}"#
            )
        };
        assert_eq!(
            local_only(&spans, &threads, Some("t-9")),
            format!(
                r#"[{},{{"name":"flow.explore","cat":"isex","ph":"X","ts":1,"dur":250.5,"pid":1,"tid":1,"args":{{"id":1,"trace":"t-9","block":"0"}}}},{{"name":"aco.round","cat":"isex","ph":"X","ts":2.25,"dur":1.75,"pid":1,"tid":2,"args":{{"id":2,"parent":1,"trace":"t-9"}}}}]"#,
                meta("isex run t-9")
            )
        );
        assert_eq!(
            local_only(&spans, &threads, None),
            format!(
                r#"[{},{{"name":"flow.explore","cat":"isex","ph":"X","ts":1,"dur":250.5,"pid":1,"tid":1,"args":{{"id":1,"block":"0"}}}},{{"name":"aco.round","cat":"isex","ph":"X","ts":2.25,"dur":1.75,"pid":1,"tid":2,"args":{{"id":2,"parent":1}}}}]"#,
                meta("isex run")
            )
        );
    }

    #[test]
    fn export_is_valid_json_and_round_trips_fields() {
        let spans = vec![SpanRecord {
            id: 7,
            parent: Some(3),
            name: "flow.select",
            start_ns: 1_500,
            dur_ns: 2_500,
            tid: 2,
            args: vec![("k", "v".to_string())],
        }];
        let text = local_only(&spans, &[(2, "worker-0")], Some("t-1"));
        let parsed = serde_json::parse(&text).expect("valid JSON");
        let events = parsed.as_array().expect("trace-event array");
        // process_name + thread_name + 1 span.
        assert_eq!(events.len(), 3);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("one complete event");
        assert_eq!(
            span.get("name").and_then(Value::as_str),
            Some("flow.select")
        );
        assert_eq!(span.get("ts").and_then(Value::as_f64), Some(1.5));
        assert_eq!(span.get("dur").and_then(Value::as_f64), Some(2.5));
        assert_eq!(span.get("tid").and_then(Value::as_u64), Some(2));
        assert_eq!(span.get("pid").and_then(Value::as_u64), Some(TRACE_PID));
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Value::as_str),
            Some("t-1")
        );
    }

    #[test]
    fn multi_process_export_gives_each_process_its_own_pid_lane() {
        let local = ProcessSpans {
            name: "isex run t-2".to_string(),
            spans: vec![OwnedSpan {
                id: 1,
                parent: None,
                name: "job.dispatch".to_string(),
                start_ns: 1_000,
                dur_ns: 9_000,
                tid: 1,
                args: Vec::new(),
            }],
            threads: vec![(1, "coord".to_string())],
        };
        let remote = vec![ProcessSpans {
            name: "isex worker w0".to_string(),
            spans: vec![OwnedSpan {
                id: 2,
                parent: Some(1), // cross-process parent: the dispatch span
                name: "worker.block".to_string(),
                start_ns: 2_000,
                dur_ns: 5_000,
                tid: 1,
                args: vec![("worker".to_string(), "w0".to_string())],
            }],
            threads: vec![(1, "session".to_string())],
        }];
        let text = chrome_trace_multi_json(&local, &remote, Some("t-2"));
        let parsed = serde_json::parse(&text).expect("valid JSON");
        let events = parsed.as_array().expect("trace-event array");
        // 2 process_name + 2 thread_name + 2 spans.
        assert_eq!(events.len(), 6);
        let pids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(Value::as_u64))
            .collect();
        assert_eq!(pids.len(), 2, "one pid lane per process");
        let worker_span = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("worker.block"))
            .expect("worker span present");
        assert_ne!(
            worker_span.get("pid").and_then(Value::as_u64),
            Some(TRACE_PID),
            "remote spans must not share the local pid"
        );
        assert_eq!(
            worker_span
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64),
            Some(1),
            "cross-process parent link preserved"
        );
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
            .collect();
        assert_eq!(names, vec!["isex run t-2", "isex worker w0"]);
    }
}
