//! `isexd-worker` — a cluster exploration worker that dials an
//! `isexd-coordinator` and explores assigned blocks.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "isexd-worker: cluster exploration worker\n\
             flags: --connect HOST:PORT  --name NAME  --capacity N\n\
             \x20      --die-after-jobs N  --no-reconnect  --retry-ms N\n\
             \x20      --dial-attempts N\n\
             spans are collected only for traced runs and shipped to the\n\
             coordinator's merged trace"
        );
        return;
    }
    if let Err(e) = isex_cluster::worker_main(&args) {
        eprintln!("isexd-worker: {e}");
        std::process::exit(2);
    }
}
