//! `isex` — command-line front-end to the ISE exploration tool-chain.
//!
//! ```text
//! isex list                                   # benchmarks and machine presets
//! isex explore --bench crc32 [options]        # run the design flow on a benchmark
//! isex asm <file.s> [options]                 # explore a basic block from assembly
//! isex serve [isexd options]                  # run the isexd exploration service
//! isex store <ls|stats|gc|clear> [options]    # inspect/maintain a result store
//! isex coordinator [options]                  # isexd fronting a worker cluster
//! isex worker --connect HOST:PORT [options]   # cluster exploration worker
//! isex top --server HOST:PORT [options]       # live one-screen run inspector
//!
//! options:
//!   --opt O0|O3            workload fidelity            (default O3)
//!   --machine PRESET       see `isex list`              (default 2is-4r2w)
//!   --algorithm mi|si      explorer                     (default mi)
//!   --seed N               RNG seed                     (default 2008)
//!   --repeats N            explorations per block       (default 3)
//!   --iters N              ACO iteration cap per round  (default 150)
//!   --area UM2             silicon-area budget
//!   --max-ises N           ISE-count budget
//!   --jobs N               exploration worker threads (0 = all cores)
//!   --bench NAME           benchmark to explore (alias for the positional)
//!   --server HOST:PORT     submit to a running isexd instead of exploring
//!                          locally (explore only; budgets/events are local)
//!   --retries N            --server only: retries on 503/connection reset
//!                          with capped exponential backoff   (default 4)
//!   --async                --server only: submit via POST /v1/jobs and
//!                          long-poll the job instead of one blocking call
//!   --checkpoint DIR       save each finished block in the result store at
//!                          DIR and resume a matching interrupted run from
//!                          it (local explore only)
//!   --fault-plan SPEC      deterministic fault injection, e.g.
//!                          "panic:1/8 delay:1/4:10ms" (local explore only)
//!   --metrics PATH         write RunMetrics JSON to PATH
//!   --events PATH          stream JSONL run events to PATH
//!   --trace PATH           write a Chrome-trace JSON of the run — load it
//!                          in Perfetto or chrome://tracing (local only)
//!   --profile              print the per-phase span profile after the run
//!   --verilog              emit Verilog for the selected ISEs
//!   --timeline             print the hot block's schedule before/after
//!
//! serve options (see also `isexd --help` header):
//!   --addr HOST:PORT  --workers N  --queue-cap N  --cache-cap N  --timeout-ms N
//!   --trace-dir DIR  --trace-keep N  --store-dir DIR  --store-max-bytes N
//!   --jobs-keep N
//!
//! store options:
//!   --store-dir DIR        the store to operate on (required)
//!   --max-bytes N          gc only: evict LRU entries beyond N bytes
//!
//! coordinator options (every serve option, plus):
//!   --cluster-addr HOST:PORT  --heartbeat-ms N  --heartbeat-misses N
//!   --breaker-threshold N  --breaker-cooloff-ms N
//!   (with --store-dir, completed blocks are saved there and resumed)
//!
//! worker options:
//!   --connect HOST:PORT  --name NAME  --capacity N  --die-after-jobs N
//!   --no-reconnect  --retry-ms N  --dial-attempts N
//!   (a worker writes no trace files: a traced run's worker spans go into
//!   the coordinator's one merged trace)
//!
//! top options:
//!   --server HOST:PORT     the isexd (or coordinator) to watch (required)
//!   --interval-ms N        refresh period                    (default 2000)
//!   --once                 print one snapshot and exit (no screen clearing)
//! ```

use std::process::ExitCode;

use isex::engine::Flags;
use isex::flow::select::Budgets;
use isex::prelude::*;
use isex::serve::protocol::ExploreRequest;
use isex::workloads::registry;

fn machine_presets() -> Vec<(&'static str, MachineConfig)> {
    MachineConfig::named_presets()
}

struct Options {
    opt: OptLevel,
    machine: MachineConfig,
    machine_name: String,
    algorithm: Algorithm,
    seed: u64,
    repeats: usize,
    iters: usize,
    area: Option<f64>,
    max_ises: Option<usize>,
    jobs: usize,
    bench: Option<String>,
    server: Option<String>,
    retries: usize,
    async_jobs: bool,
    checkpoint: Option<String>,
    fault_plan: Option<isex::flow::FaultPlan>,
    metrics: Option<String>,
    events: Option<String>,
    trace: Option<String>,
    profile: bool,
    verilog: bool,
    timeline: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            opt: OptLevel::O3,
            machine: MachineConfig::preset_2issue_4r2w(),
            machine_name: "2is-4r2w".to_string(),
            algorithm: Algorithm::MultiIssue,
            seed: 2008,
            repeats: 3,
            iters: 150,
            area: None,
            max_ises: None,
            jobs: 0,
            bench: None,
            server: None,
            retries: 4,
            async_jobs: false,
            checkpoint: None,
            fault_plan: None,
            metrics: None,
            events: None,
            trace: None,
            profile: false,
            verilog: false,
            timeline: false,
        }
    }
}

fn parse_options(args: &[String]) -> Result<(Options, Vec<String>), String> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--opt" => {
                opts.opt = match flags.value(flag)?.as_str() {
                    "O0" | "o0" => OptLevel::O0,
                    "O3" | "o3" => OptLevel::O3,
                    other => return Err(format!("unknown opt level `{other}`")),
                }
            }
            "--machine" => {
                let name = flags.value(flag)?;
                opts.machine = MachineConfig::by_name(&name)
                    .ok_or_else(|| format!("unknown machine `{name}` (try `isex list`)"))?;
                opts.machine_name = name.to_ascii_lowercase();
            }
            "--algorithm" => {
                opts.algorithm = match flags.value(flag)?.as_str() {
                    "mi" | "MI" => Algorithm::MultiIssue,
                    "si" | "SI" => Algorithm::SingleIssue,
                    other => return Err(format!("unknown algorithm `{other}`")),
                }
            }
            "--seed" => opts.seed = flags.parse(flag)?,
            "--repeats" => opts.repeats = flags.parse(flag)?,
            "--iters" => opts.iters = flags.parse(flag)?,
            "--area" => opts.area = Some(flags.parse(flag)?),
            "--max-ises" => opts.max_ises = Some(flags.parse(flag)?),
            "--jobs" => opts.jobs = flags.parse(flag)?,
            "--bench" => opts.bench = Some(flags.value(flag)?),
            "--server" => opts.server = Some(flags.value(flag)?),
            "--retries" => opts.retries = flags.parse(flag)?,
            "--checkpoint" => opts.checkpoint = Some(flags.value(flag)?),
            "--fault-plan" => {
                opts.fault_plan = Some(
                    isex::flow::FaultPlan::parse(&flags.value(flag)?)
                        .map_err(|e| format!("bad --fault-plan: {e}"))?,
                )
            }
            "--metrics" => opts.metrics = Some(flags.value(flag)?),
            "--events" => opts.events = Some(flags.value(flag)?),
            "--trace" => opts.trace = Some(flags.value(flag)?),
            "--async" => opts.async_jobs = true,
            "--profile" => opts.profile = true,
            "--verilog" => opts.verilog = true,
            "--timeline" => opts.timeline = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            pos => positional.push(pos.to_string()),
        }
    }
    Ok((opts, positional))
}

fn flow_config(opts: &Options) -> FlowConfig {
    let mut cfg = FlowConfig::for_machine(opts.algorithm, opts.machine);
    cfg.repeats = opts.repeats;
    cfg.params.max_iterations = opts.iters;
    cfg.jobs = opts.jobs;
    cfg.budgets = Budgets {
        area_um2: opts.area,
        max_ises: opts.max_ises,
    };
    cfg.fault_plan = opts.fault_plan.clone();
    // Tracing only observes: with or without it the report is bitwise
    // identical, so flipping --trace/--profile never changes results.
    if opts.trace.is_some() || opts.profile {
        cfg.tracer = Tracer::new();
    }
    cfg
}

/// Runs the flow with whatever observability the options ask for: an
/// optional JSONL event stream, RunMetrics JSON file, Chrome-trace export
/// and per-phase profile.
fn run_observed(opts: &Options, program: &Program) -> Result<(FlowReport, RunMetrics), String> {
    let cfg = flow_config(opts);
    let sink: Box<dyn EventSink> = match &opts.events {
        Some(path) => Box::new(JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?),
        None => Box::new(NullSink),
    };
    let (report, metrics) = match &opts.checkpoint {
        Some(path) => isex::flow::run_flow_checkpointed(
            &cfg,
            program,
            opts.seed,
            sink.as_ref(),
            &isex::flow::CancelToken::new(),
            std::path::Path::new(path),
        )
        .map_err(|e| format!("{path}: {e}"))?,
        None => run_flow_observed(&cfg, program, opts.seed, sink.as_ref()),
    };
    if let Some(path) = &opts.metrics {
        let json = serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &opts.trace {
        std::fs::write(path, cfg.tracer.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (load in Perfetto or chrome://tracing)");
    }
    let dropped = cfg.tracer.dropped();
    if dropped > 0 {
        eprintln!(
            "the Chrome trace dropped {dropped} spans past its {}-span buffer; \
             the profile counts every span",
            isex::trace::DEFAULT_CAPACITY
        );
    }
    Ok((report, metrics))
}

/// Prints the per-span-name aggregate collected by the run's tracer.
fn print_profile(profile: &isex::engine::PhaseProfile) {
    if profile.0.is_empty() {
        println!("\n(no phase profile recorded — the run was not traced)");
        return;
    }
    println!("\nphase profile:");
    println!(
        "  {:<20} {:>8} {:>12} {:>10}",
        "span", "count", "total ms", "max ms"
    );
    for s in &profile.0 {
        println!(
            "  {:<20} {:>8} {:>12.3} {:>10.3}",
            s.name, s.count, s.total_ms, s.max_ms
        );
    }
}

fn cmd_list() {
    println!("benchmarks:");
    for &b in Benchmark::ALL {
        println!("  {b}");
    }
    println!("\nmachine presets:");
    for (name, m) in machine_presets() {
        println!("  {name:<10} {m}");
    }
}

fn print_report(report: &FlowReport, opts: &Options) {
    print!("{}", isex::flow::report::render_text(report));
    if opts.verilog {
        for (i, sel) in report.selected.iter().enumerate() {
            println!(
                "\n{}",
                isex::flow::emit::to_verilog(&sel.pattern, &format!("asfu{i}"))
            );
        }
    }
}

fn cmd_explore(opts: &Options, positional: &[String]) -> Result<(), String> {
    let name = opts
        .bench
        .as_deref()
        .or_else(|| positional.first().map(String::as_str))
        .ok_or("explore needs a benchmark name (positional or --bench)")?;
    let bench = registry::resolve(name).map_err(|e| e.to_string())?;
    if opts.async_jobs && opts.server.is_none() {
        return Err("--async requires --server (it drives the /v1/jobs API)".to_string());
    }
    let program = bench.program(opts.opt);
    let (report, metrics) = match &opts.server {
        Some(addr) => explore_remote(addr, bench, opts)?,
        None => run_observed(opts, &program)?,
    };
    print_report(&report, opts);
    if opts.profile {
        print_profile(&metrics.phase_profile);
    }
    if opts.timeline {
        print_timeline(&program.hottest().dfg, &report, opts);
    }
    Ok(())
}

/// Submits the exploration to a running `isexd` instead of running it
/// locally. Budgets and event streams are local-only concerns; requesting
/// them alongside `--server` is an error, not a silent downgrade.
fn explore_remote(
    addr: &str,
    bench: Benchmark,
    opts: &Options,
) -> Result<(FlowReport, RunMetrics), String> {
    if opts.area.is_some() || opts.max_ises.is_some() {
        return Err(
            "--area/--max-ises are not supported with --server (the service \
                    explores with default budgets)"
                .to_string(),
        );
    }
    if opts.events.is_some() {
        return Err("--events is not supported with --server".to_string());
    }
    if opts.trace.is_some() {
        return Err("--trace is not supported with --server (start isexd with \
                    --trace-dir instead; --profile still works when the \
                    server traces its runs)"
            .to_string());
    }
    if opts.checkpoint.is_some() {
        return Err("--checkpoint is not supported with --server".to_string());
    }
    if opts.fault_plan.is_some() {
        return Err(
            "--fault-plan is not supported with --server (start isexd with \
                    --fault-plan instead)"
                .to_string(),
        );
    }
    let request = ExploreRequest {
        bench,
        opt: opts.opt,
        machine_name: opts.machine_name.clone(),
        machine: opts.machine,
        algorithm: opts.algorithm,
        seed: opts.seed,
        repeats: opts.repeats,
        effort: opts.iters,
        jobs: opts.jobs,
        timeout_ms: None,
    };
    let response = if opts.async_jobs {
        // Async path: the job survives this client's network blips — each
        // poll is a fresh bounded exchange against the same job ID.
        isex::serve::client::explore_async(addr, &request, 600_000).map_err(|e| e.to_string())?
    } else {
        let policy = isex::serve::client::RetryPolicy {
            max_retries: opts.retries,
            seed: opts.seed,
            ..Default::default()
        };
        isex::serve::client::explore_with_retry(addr, &request, &policy)
            .map_err(|e| e.to_string())?
    };
    eprintln!(
        "{} answered from {} ({})",
        addr, response.source, response.key
    );
    if let Some(path) = &opts.metrics {
        let json = serde_json::to_string_pretty(&response.metrics).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok((response.report, response.metrics))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    isex::serve::run_from_args(args)
}

/// `isex store <ls|stats|gc|clear> --store-dir DIR [--max-bytes N]`:
/// offline inspection and maintenance of a result store — the same format
/// the server reads, so it is safe to point at a live server's directory
/// (writes are the same atomic renames, and the directory is the only
/// record). `ls` lists entries least recently used first, each with its
/// last use (the entry file's mtime) in Unix seconds; `gc` evicts in that
/// order.
fn cmd_store(args: &[String]) -> Result<(), String> {
    let action = args
        .first()
        .map(String::as_str)
        .ok_or("store needs an action: ls, stats, gc, clear")?;
    let mut dir: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut flags = Flags::new(&args[1..]);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--store-dir" => dir = Some(flags.value(flag)?),
            "--max-bytes" => max_bytes = Some(flags.parse(flag)?),
            other => return Err(format!("unknown store flag `{other}`")),
        }
    }
    let dir = dir.ok_or("store needs --store-dir DIR")?;
    // Open with no budget: maintenance must never evict as a side effect —
    // only an explicit `gc` shrinks the store.
    let store = isex::store::Store::open(std::path::Path::new(&dir), 0)
        .map_err(|e| format!("{dir}: {e}"))?;
    match action {
        "ls" => {
            println!("{:>12}  {:>14}  key", "bytes", "last-used");
            for e in store.entries() {
                let used = e.last_used.duration_since(std::time::UNIX_EPOCH);
                let used = used.unwrap_or_default().as_secs_f64();
                println!("{:>12}  {used:>14.3}  {}", e.bytes, e.key);
            }
        }
        "stats" => {
            let s = store.stats();
            println!("dir:              {dir}");
            println!("entries:          {}", s.entries);
            println!("bytes:            {}", s.bytes);
        }
        "gc" => {
            let target = max_bytes.ok_or("gc needs --max-bytes N")?;
            let evicted = store.gc_to(target).map_err(|e| e.to_string())?;
            for key in &evicted {
                println!("evicted: {key}");
            }
            let s = store.stats();
            println!(
                "{} entr{} evicted; {} entr{} / {} bytes remain",
                evicted.len(),
                if evicted.len() == 1 { "y" } else { "ies" },
                s.entries,
                if s.entries == 1 { "y" } else { "ies" },
                s.bytes
            );
        }
        "clear" => {
            let removed = store.clear().map_err(|e| e.to_string())?;
            println!("removed {removed} entries");
        }
        other => {
            return Err(format!(
                "unknown store action `{other}` (ls, stats, gc, clear)"
            ))
        }
    }
    Ok(())
}

/// `isex top --server HOST:PORT [--interval-ms N] [--once]`: a live,
/// refreshing one-screen view of a running `isexd` (plain server or
/// cluster coordinator), rendered from the same `GET /metrics` JSON
/// document a Prometheus scrape sees. Strictly read-only.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut server: Option<String> = None;
    let mut interval_ms: u64 = 2_000;
    let mut once = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--server" => server = Some(flags.value(flag)?),
            "--interval-ms" => interval_ms = flags.parse(flag)?,
            "--once" => once = true,
            other => return Err(format!("unknown top flag `{other}`")),
        }
    }
    let addr = server.ok_or("top needs --server HOST:PORT")?;
    loop {
        let raw =
            isex::serve::client::get(&addr, "/metrics").map_err(|e| format!("{addr}: {e}"))?;
        if raw.status != 200 {
            return Err(format!("{addr}: /metrics answered {}", raw.status));
        }
        let doc =
            serde_json::parse(&raw.body).map_err(|e| format!("{addr}: bad metrics JSON: {e}"))?;
        if !once {
            // Home the cursor and repaint over the previous frame.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&addr, &doc, interval_ms, once));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

fn top_walk<'v>(doc: &'v serde::Value, path: &[&str]) -> Option<&'v serde::Value> {
    let mut v = doc;
    for p in path {
        v = v.get(p)?;
    }
    Some(v)
}

fn top_num(doc: &serde::Value, path: &[&str]) -> f64 {
    match top_walk(doc, path) {
        Some(serde::Value::U64(x)) => *x as f64,
        Some(serde::Value::I64(x)) => *x as f64,
        Some(serde::Value::F64(x)) => *x,
        _ => 0.0,
    }
}

/// One frame of `isex top`. Every field is optional-tolerant: a plain
/// `isexd` has no `cluster` section, an idle one has empty latency, and
/// the screen must survive both.
fn render_top(addr: &str, doc: &serde::Value, interval_ms: u64, once: bool) -> String {
    use std::fmt::Write as _;
    let n = |path: &[&str]| top_num(doc, path);
    let mut out = String::new();
    let refresh = if once {
        String::new()
    } else {
        format!(
            "   (refresh {:.1}s, Ctrl-C to quit)",
            interval_ms as f64 / 1000.0
        )
    };
    let _ = writeln!(
        out,
        "isexd {addr} — up {:.0}s{refresh}",
        n(&["uptime_ms"]) / 1000.0
    );
    let _ = writeln!(
        out,
        "\nqueue    depth {:.0}/{:.0}   in-flight {:.0}   completed {:.0}   failed {:.0}",
        n(&["queue", "depth"]),
        n(&["queue", "capacity"]),
        n(&["queue", "in_flight"]),
        n(&["queue", "jobs_completed"]),
        n(&["queue", "jobs_failed"]),
    );
    let _ = writeln!(
        out,
        "jobs     submitted {:.0}   active {:.0}   coalesced {:.0}   waiters {:.0}",
        n(&["jobs", "submitted"]),
        n(&["jobs", "active"]),
        n(&["jobs", "coalesced"]),
        n(&["jobs", "coalesced_waiters"]),
    );
    let _ = writeln!(
        out,
        "cache    hits {:.0}   misses {:.0}   hit-rate {:.1}%",
        n(&["cache", "hits"]),
        n(&["cache", "misses"]),
        100.0 * n(&["cache", "hit_rate"]),
    );
    if top_walk(doc, &["store"]).is_some() {
        let _ = writeln!(
            out,
            "store    entries {:.0}   bytes {:.0}   inserts {:.0}   evictions {:.0}",
            n(&["store", "entries"]),
            n(&["store", "bytes"]),
            n(&["store", "inserts"]),
            n(&["store", "evictions"]),
        );
    }
    let _ = writeln!(
        out,
        "latency  explore p50 {:.1}ms  p95 {:.1}ms  ({:.0} requests)",
        n(&["latency", "explore", "p50_ms"]),
        n(&["latency", "explore", "p95_ms"]),
        n(&["latency", "explore", "count"]),
    );
    if let Some(cluster) = top_walk(doc, &["cluster"]) {
        let _ = writeln!(
            out,
            "\ncluster  {:.0} worker(s) alive",
            top_num(cluster, &["workers_alive"]),
        );
        if let Some(serde::Value::Object(workers)) = cluster.get("worker") {
            let _ = writeln!(
                out,
                "  {:<14} {:<6} {:<8} {:>9} {:>9} {:>6} {:>7}",
                "worker", "alive", "breaker", "p50 ms", "p95 ms", "jobs", "failed"
            );
            for (name, w) in workers {
                let alive = top_num(w, &["alive"]) > 0.0;
                let open = top_num(w, &["breaker_open"]) > 0.0;
                let _ = writeln!(
                    out,
                    "  {:<14} {:<6} {:<8} {:>9.1} {:>9.1} {:>6.0} {:>7.0}",
                    name,
                    if alive { "yes" } else { "DEAD" },
                    if open { "OPEN" } else { "closed" },
                    top_num(w, &["latency_p50_ms"]),
                    top_num(w, &["latency_p95_ms"]),
                    top_num(w, &["jobs_completed"]),
                    top_num(w, &["jobs_failed"]),
                );
            }
        }
    }
    out
}

fn cmd_asm(opts: &Options, positional: &[String]) -> Result<(), String> {
    let path = positional.first().ok_or("asm needs a file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let dfg = isex::isa::parse::parse_block(&text).map_err(|e| e.to_string())?;
    let program = Program::new(
        format!("asm:{path}"),
        vec![isex::workloads::BasicBlock::new("block", dfg, 1)],
    );
    let (report, metrics) = run_observed(opts, &program)?;
    print_report(&report, opts);
    if opts.profile {
        print_profile(&metrics.phase_profile);
    }
    if opts.timeline {
        print_timeline(&program.hottest().dfg, &report, opts);
    }
    Ok(())
}

fn print_timeline(dfg: &ProgramDfg, report: &FlowReport, opts: &Options) {
    use isex::sched::{display, unit};
    let sched_dfg = unit::lower(dfg);
    let before = list_schedule(&sched_dfg, &opts.machine, Priority::Height);
    println!("\nhot block, before ISEs:");
    print!(
        "{}",
        display::render(&sched_dfg, &before, |id, _| dfg
            .node(id)
            .payload()
            .opcode()
            .mnemonic()
            .to_string())
    );
    let r = isex::flow::replace::replace_in_block(dfg, &report.selected, &opts.machine);
    println!(
        "after replacement: {} -> {} cycles, {} ISE instance(s)",
        r.cycles_before,
        r.cycles_after,
        r.matches.len()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: isex <list|explore|asm|serve|store|coordinator|worker|top> [options]  \
             (see src/main.rs header)"
        );
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "explore" => parse_options(rest).and_then(|(o, p)| cmd_explore(&o, &p)),
        "asm" => parse_options(rest).and_then(|(o, p)| cmd_asm(&o, &p)),
        "serve" => cmd_serve(rest),
        "store" => cmd_store(rest),
        "coordinator" => isex::cluster::coordinator_main(rest),
        "worker" => isex::cluster::worker_main(rest),
        "top" => cmd_top(rest),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
