//! `waso-serve` — serve one WASO instance to many tenants over TCP.
//!
//! ```text
//! waso-serve --graph FILE --k N --tenant NAME=QUOTA [options]
//!
//!   --graph FILE          input in the waso-graph v1 text format
//!   --k N                 group size every solve uses
//!   --tenant NAME=QUOTA   register a tenant with an inflight-job quota
//!                         (repeatable; at least one required)
//!   --listen ADDR         bind address (default 127.0.0.1:7878;
//!                         use port 0 for an ephemeral port)
//!   --seed N              the session seed (default 42)
//!   --pool-threads N      shared-pool worker count (default: available
//!                         parallelism); all tenants share this pool
//!   --max-running N       concurrent dispatch width (default 2)
//!   --shed-queued N       refuse SUBMITs once N jobs are queued
//!                         (default 16)
//! ```
//!
//! The server prints `listening on <addr>` to stdout once bound —
//! scripts using an ephemeral port scrape it from there — and serves
//! until killed. See the crate docs for the protocol.

use std::process::ExitCode;
use std::sync::Arc;

use waso::prelude::*;
use waso_serve::{ServeConfig, Server, TenantConfig};

struct Args {
    graph: std::path::PathBuf,
    k: usize,
    listen: String,
    seed: u64,
    pool_threads: Option<usize>,
    config: ServeConfig,
}

const USAGE: &str = "usage: waso-serve --graph FILE --k N --tenant NAME=QUOTA... \
     [--listen ADDR] [--seed N] [--pool-threads N] [--max-running N] \
     [--shed-queued N]";

/// Parses a numeric flag **at its native type**: a negative or
/// overflowing value is the usual typed usage error, never a silent
/// two's-complement wrap (`--k -1` used to become k = 2^64 - 1 via an
/// `as usize` cast).
fn parse_num<T: std::str::FromStr>(v: String, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} '{v}'"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut graph = None;
    let mut k = None;
    let mut listen = "127.0.0.1:7878".to_string();
    let mut seed = 42;
    let mut pool_threads = None;
    let mut tenants = Vec::new();
    let mut max_running = None;
    let mut shed_queued = None;

    let mut i = 0;
    while let Some(arg) = argv.get(i).cloned() {
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--graph" | "-g" => graph = Some(std::path::PathBuf::from(value("--graph")?)),
            "--k" | "-k" => k = Some(parse_num(value("--k")?, "k")?),
            "--listen" => listen = value("--listen")?,
            "--seed" => seed = parse_num(value("--seed")?, "seed")?,
            "--pool-threads" => {
                pool_threads = Some(parse_num(value("--pool-threads")?, "pool-threads")?)
            }
            "--tenant" => tenants.push(TenantConfig::parse(&value("--tenant")?)?),
            "--max-running" => {
                max_running = Some(parse_num(value("--max-running")?, "max-running")?)
            }
            "--shed-queued" => {
                shed_queued = Some(parse_num(value("--shed-queued")?, "shed-queued")?)
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 1;
    }

    if tenants.is_empty() {
        return Err(format!("at least one --tenant is required\n{USAGE}"));
    }
    for (i, tenant) in tenants.iter().enumerate() {
        if tenants.iter().take(i).any(|t| t.name == tenant.name) {
            return Err(format!(
                "duplicate --tenant {:?}: each tenant may be configured once",
                tenant.name
            ));
        }
    }
    let mut config = ServeConfig::new(tenants);
    if let Some(n) = max_running {
        config = config.max_running(n);
    }
    if let Some(n) = shed_queued {
        config = config.shed_queued_jobs(n);
    }
    Ok(Args {
        graph: graph.ok_or_else(|| format!("--graph is required\n{USAGE}"))?,
        k: k.ok_or_else(|| format!("--k is required\n{USAGE}"))?,
        listen,
        seed,
        pool_threads,
        config,
    })
}

fn run(args: Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.graph)
        .map_err(|e| format!("cannot read {}: {e}", args.graph.display()))?;
    let graph = waso_graph::io::from_str(&text).map_err(|e| format!("parse error: {e}"))?;
    eprintln!(
        "loaded {} nodes, {} edges from {}",
        graph.num_nodes(),
        graph.num_edges(),
        args.graph.display()
    );

    // All tenants share one process-wide pool, attached up front so its
    // width is a deployment choice, not whatever the first spec asks.
    let threads = args.pool_threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(2)
    });
    let session = WasoSession::new(graph)
        .k(args.k)
        .seed(args.seed)
        .attach_pool(Arc::new(SharedPool::new(threads)));

    for tenant in &args.config.tenants {
        eprintln!(
            "tenant {} (quota {} inflight)",
            tenant.name, tenant.max_inflight
        );
    }
    let mut server = Server::start(session, args.config);
    let addr = server
        .listen(&args.listen)
        .map_err(|e| format!("cannot bind {}: {e}", args.listen))?;
    // Machine-scrapable (the CI smoke test reads this line).
    println!("listening on {addr}");

    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn numeric_flags_parse_at_native_types() {
        let args = parse_args(&argv(&[
            "--graph",
            "g.waso",
            "--k",
            "4",
            "--tenant",
            "acme=2",
            "--pool-threads",
            "3",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(args.k, 4);
        assert_eq!(args.pool_threads, Some(3));
        assert_eq!(args.seed, 9);
    }

    #[test]
    fn negative_values_are_typed_errors_not_wraps() {
        // `--k -1` used to wrap to 2^64 - 1 via `parse::<u64>() as usize`.
        for (flag, what) in [
            ("--k", "k"),
            ("--pool-threads", "pool-threads"),
            ("--max-running", "max-running"),
            ("--shed-queued", "shed-queued"),
        ] {
            let err = parse_args(&argv(&[
                "--graph", "g.waso", "--k", "4", "--tenant", "acme=2", flag, "-1",
            ]))
            .err()
            .unwrap();
            assert_eq!(err, format!("bad {what} '-1'"), "flag {flag}");
        }
    }

    #[test]
    fn overflowing_values_are_typed_errors_not_truncations() {
        let err = parse_args(&argv(&[
            "--graph",
            "g.waso",
            "--k",
            "99999999999999999999",
            "--tenant",
            "acme=2",
        ]))
        .err()
        .unwrap();
        assert_eq!(err, "bad k '99999999999999999999'");
    }
}
