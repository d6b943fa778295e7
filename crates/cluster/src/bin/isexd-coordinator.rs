//! `isexd-coordinator` — an `isexd` HTTP server whose explorations run on
//! the cluster (see the `isex-cluster` crate docs for the quickstart).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "isexd-coordinator: distributed isexd\n\
             cluster flags: --cluster-addr HOST:PORT  --heartbeat-ms N\n\
             \x20              --heartbeat-misses N      --breaker-threshold N\n\
             \x20              --breaker-cooloff-ms N\n\
             plus every isexd flag (--addr, --workers, --queue-cap, ...);\n\
             with --store-dir DIR, completed blocks are saved in that store\n\
             and a restarted coordinator resumes from them"
        );
        return;
    }
    if let Err(e) = isex_cluster::coordinator_main(&args) {
        eprintln!("isexd-coordinator: {e}");
        std::process::exit(2);
    }
}
