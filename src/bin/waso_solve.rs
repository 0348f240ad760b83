//! `waso-solve` — solve a WASO instance from a graph file.
//!
//! ```text
//! waso-solve --graph network.waso --k 8 [options]
//!
//!   --graph FILE          input in the waso-graph v1 text format
//!   --k N                 group size
//!   --algorithm SPEC      a solver spec: NAME[:key=value,...]
//!                         (names and options come from the solver
//!                         registry; see --list-algorithms)
//!   --budget T            shorthand for the budget= spec option
//!   --stages R            shorthand for the stages= spec option
//!                         (default 10 for staged solvers)
//!   --start-nodes M       shorthand for the start-nodes= spec option
//!   --threads N           shorthand for the threads= spec option
//!   --deadline-ms MS      shorthand for the deadline_ms= spec option:
//!                         stop within one sample once the wall-clock
//!                         budget elapses, returning the incumbent of the
//!                         last completed stage (anytime solvers)
//!   --patience N          shorthand for the patience= spec option: stop
//!                         after N consecutive non-improving stages
//!   --require ID          required attendee (repeatable; enforced for
//!                         every solver or rejected loudly)
//!   --lambda X            uniform interest/tightness weight in [0,1]
//!   --disconnected        drop the connectivity constraint (WASO-dis)
//!   --seed N              RNG seed (default 42)
//!   --list-algorithms     print the registered solvers and exit
//!
//!   --server ADDR         submit to a running `waso-serve` instead of
//!                         solving locally (the server holds the graph,
//!                         k, and seed; --graph/--k do not apply)
//!   --tenant NAME         the tenant to submit as (required with
//!                         --server)
//! ```
//!
//! Everything algorithm-shaped is derived from the [`waso::registry`]:
//! `--algorithm` validation, the name list in the usage string, and the
//! `--list-algorithms` help text. Adding a solver to the registry makes it
//! reachable here with zero CLI changes.
//!
//! In `--server` mode the spec (with all shorthand flags folded in) is
//! sent as one `SUBMIT`, followed by a blocking `WAIT`; the result is
//! printed in the same shape as a local solve. The wire client is a
//! self-contained ~40 lines of the `waso-serve` framing protocol, kept
//! inline so this binary needs no serve-crate dependency.

use std::path::PathBuf;
use std::process::ExitCode;

use waso::prelude::*;

#[derive(Debug)]
struct Args {
    mode: Mode,
    spec: SolverSpec,
    require: Vec<u32>,
    lambda: Option<f64>,
    disconnected: bool,
    seed: u64,
}

#[derive(Debug)]
enum Mode {
    /// Load the graph and solve in-process.
    Local { graph: PathBuf, k: usize },
    /// Submit the spec to a running `waso-serve`.
    Remote { server: String, tenant: String },
}

fn usage(registry: &SolverRegistry) -> String {
    format!(
        "usage: waso-solve --graph FILE --k N [--algorithm {}] \
         [--budget T] [--stages R] [--start-nodes M] [--threads N] \
         [--deadline-ms MS] [--patience N] [--require ID]... \
         [--lambda X] [--disconnected] [--seed N] [--list-algorithms] \
         [--server ADDR --tenant NAME]",
        registry.name_list()
    )
}

/// Parses a numeric flag **at its native type**: a negative or
/// overflowing value is the usual typed usage error, never a silent
/// two's-complement wrap (`--k -1` used to become k = 2^64 - 1 via an
/// `as usize` cast).
fn parse_num<T: std::str::FromStr>(v: String, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} '{v}'"))
}

fn parse_args(argv: &[String], registry: &SolverRegistry) -> Result<Args, String> {
    let mut graph: Option<PathBuf> = None;
    let mut k: Option<usize> = None;
    let mut algorithm = "cbas-nd".to_string();
    let mut budget: Option<u64> = None;
    let mut stages: Option<u32> = None;
    let mut start_nodes: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut patience: Option<u32> = None;
    let mut require: Vec<u32> = Vec::new();
    let mut lambda: Option<f64> = None;
    let mut disconnected = false;
    let mut seed: u64 = 42;
    let mut server: Option<String> = None;
    let mut tenant: Option<String> = None;

    let usage = || usage(registry);
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].clone();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--graph" | "-g" => graph = Some(PathBuf::from(value("--graph")?)),
            "--k" | "-k" => k = Some(parse_num(value("--k")?, "k")?),
            "--algorithm" | "-a" => algorithm = value("--algorithm")?,
            "--budget" | "-T" => budget = Some(parse_num(value("--budget")?, "budget")?),
            "--stages" | "-r" => stages = Some(parse_num(value("--stages")?, "stages")?),
            "--start-nodes" | "-m" => {
                start_nodes = Some(parse_num(value("--start-nodes")?, "start-nodes")?)
            }
            "--threads" => threads = Some(parse_num(value("--threads")?, "threads")?),
            "--deadline-ms" => {
                deadline_ms = Some(parse_num(value("--deadline-ms")?, "deadline-ms")?)
            }
            "--patience" => patience = Some(parse_num(value("--patience")?, "patience")?),
            "--require" => require.push(parse_num(value("--require")?, "node id")?),
            "--lambda" => {
                let v = value("--lambda")?;
                lambda = Some(v.parse().map_err(|_| format!("bad lambda '{v}'"))?);
            }
            "--disconnected" => disconnected = true,
            "--seed" => seed = parse_num(value("--seed")?, "seed")?,
            "--server" => server = Some(value("--server")?),
            "--tenant" => tenant = Some(value("--tenant")?),
            "--list-algorithms" => {
                return Err(format!("registered solvers:\n{}", registry.help_text()))
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
        i += 1;
    }

    // The --algorithm string is a full solver spec; the shorthand flags
    // layer on top of whatever it already carries.
    let mut spec = registry
        .parse(&algorithm)
        .map_err(|e| format!("{e}\n{}", usage()))?;
    if let Some(t) = budget {
        spec = spec.budget(t);
    }
    if let Some(r) = stages {
        spec = spec.stages(r);
    } else if spec.stages.is_none() {
        // The CLI's historical default: 10 stages for the staged solvers
        // (the paper's derivation formula degenerates to r = 1 at
        // realistic sizes). Solvers without a stage knob keep a bare spec.
        let entry = registry.resolve(&spec).expect("parse resolved the name");
        if entry.options.contains(&"stages") {
            spec = spec.stages(10);
        }
    }
    if let Some(m) = start_nodes {
        spec = spec.start_nodes(m);
    }
    if let Some(t) = threads {
        spec = spec.threads(t);
    }
    if let Some(ms) = deadline_ms {
        spec = spec.deadline_ms(ms);
    }
    if let Some(p) = patience {
        spec = spec.patience(p);
    }

    let mode = match server {
        Some(server) => {
            // The server holds the instance: graph, k, seed, and any
            // instance transforms are its deployment configuration.
            if graph.is_some() || k.is_some() || !require.is_empty() || lambda.is_some() {
                return Err(format!(
                    "--graph/--k/--require/--lambda are the server's configuration \
                     in --server mode\n{}",
                    usage()
                ));
            }
            Mode::Remote {
                server,
                tenant: tenant
                    .ok_or_else(|| format!("--server requires --tenant NAME\n{}", usage()))?,
            }
        }
        None => {
            if tenant.is_some() {
                return Err(format!("--tenant only applies with --server\n{}", usage()));
            }
            Mode::Local {
                graph: graph.ok_or_else(|| format!("--graph is required\n{}", usage()))?,
                k: k.ok_or_else(|| format!("--k is required\n{}", usage()))?,
            }
        }
    };

    Ok(Args {
        mode,
        spec,
        require,
        lambda,
        disconnected,
        seed,
    })
}

fn run(args: &Args) -> Result<(), String> {
    match &args.mode {
        Mode::Local { graph, k } => run_local(graph, *k, args),
        Mode::Remote { server, tenant } => run_remote(server, tenant, &args.spec),
    }
}

fn run_local(graph: &PathBuf, k: usize, args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(graph)
        .map_err(|e| format!("cannot read {}: {e}", graph.display()))?;
    let parsed = waso::graph::io::from_str(&text).map_err(|e| format!("parse error: {e}"))?;
    eprintln!(
        "loaded {} nodes, {} edges from {}",
        parsed.num_nodes(),
        parsed.num_edges(),
        graph.display()
    );

    let mut session = WasoSession::new(parsed)
        .k(k)
        .seed(args.seed)
        .require(args.require.iter().map(|&v| NodeId(v)));
    if let Some(l) = args.lambda {
        session = session.lambda_uniform(l);
        eprintln!("applied uniform lambda {l}");
    }
    if args.disconnected {
        session = session.disconnected();
    }

    let result = session.solve(&args.spec).map_err(|e| e.to_string())?;
    match result.stats.termination {
        waso::algos::Termination::Completed if result.stats.truncated => {
            eprintln!("warning: work cap hit — result may be suboptimal")
        }
        waso::algos::Termination::Completed => {}
        reason => eprintln!(
            "warning: solve stopped early ({reason}) — best incumbent after {} stages",
            result.stats.stages
        ),
    }
    println!("group: {}", result.group);
    println!("members:");
    for &v in result.group.nodes() {
        println!("  {}", v.0);
    }
    println!("willingness: {}", result.group.willingness());
    eprintln!("solved with {}: {}", args.spec, result.stats);
    Ok(())
}

/// One `SUBMIT` + blocking `WAIT` against a running `waso-serve`,
/// speaking its length-prefixed frame protocol directly (see the
/// `waso-serve` crate docs for the grammar).
/// The largest reply frame accepted: the server's own frame cap
/// (`waso_serve::protocol::MAX_FRAME`, restated because this binary has
/// no serve dependency). A longer declared length is refused before any
/// buffer is allocated.
const MAX_FRAME: usize = 64 * 1024;

/// The most bytes read while looking for a reply's length line; a valid
/// one is far shorter, so a peer that never sends a newline is refused
/// after this many bytes instead of buffered without limit.
const MAX_LEN_LINE: u64 = 32;

/// Reads one reply frame: decimal length, newline, that many UTF-8 bytes.
fn read_reply(reader: &mut impl std::io::BufRead) -> Result<String, String> {
    use std::io::{BufRead, Read};

    let mut raw = Vec::new();
    let n = Read::take(&mut *reader, MAX_LEN_LINE)
        .read_until(b'\n', &mut raw)
        .map_err(|e| e.to_string())?;
    if n == 0 {
        return Err("server closed the connection".to_string());
    }
    let line = String::from_utf8_lossy(&raw);
    let len: usize = line
        .strip_suffix('\n')
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| format!("bad frame length {line:?} from server"))?;
    if len > MAX_FRAME {
        return Err(format!(
            "reply frame of {len} bytes from server exceeds the {MAX_FRAME}-byte cap"
        ));
    }
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf).map_err(|e| e.to_string())?;
    String::from_utf8(buf).map_err(|_| "non-UTF-8 reply from server".to_string())
}

/// Sends one request frame (decimal length, newline, payload) in a
/// single write, so the payload never waits behind a partial frame for
/// the server's delayed ACK.
fn send_frame(writer: &mut impl std::io::Write, payload: &str) -> std::io::Result<()> {
    writer.write_all(format!("{}\n{payload}", payload.len()).as_bytes())?;
    writer.flush()
}

fn run_remote(server: &str, tenant: &str, spec: &SolverSpec) -> Result<(), String> {
    use std::io::BufReader;

    let stream = std::net::TcpStream::connect(server)
        .map_err(|e| format!("cannot connect to {server}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut call = move |payload: String| -> Result<String, String> {
        send_frame(&mut writer, &payload).map_err(|e| e.to_string())?;
        read_reply(&mut reader)
    };

    let reply = call(format!("SUBMIT {tenant} {spec}"))?;
    let job = match reply.split_once(' ') {
        Some(("JOB", id)) => id
            .parse::<u64>()
            .map_err(|_| format!("bad job id in {reply:?}"))?,
        _ => return Err(format!("submission refused: {reply}")),
    };
    eprintln!("job {job} accepted by {server} for tenant {tenant}");

    let reply = call(format!("WAIT {job}"))?;
    let fields: Vec<&str> = reply.split(' ').collect();
    match fields.as_slice() {
        // DONE <termination> <willingness> <node,node,...> <samples>
        ["DONE", termination, willingness, nodes, samples] => {
            if *termination != "completed" {
                eprintln!("warning: solve stopped early ({termination}) — best incumbent");
            }
            println!("members:");
            for id in nodes.split(',').filter(|n| *n != "-") {
                println!("  {id}");
            }
            println!("willingness: {willingness}");
            eprintln!("solved remotely with {spec}: {samples} samples ({termination})");
            Ok(())
        }
        ["CANCELLED"] => Err("job was cancelled before producing a group".to_string()),
        _ => Err(format!("solve failed: {reply}")),
    }
}

fn main() -> ExitCode {
    let registry = waso::registry();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, &registry) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
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
        let registry = waso::registry();
        let args = parse_args(
            &argv(&[
                "--graph",
                "g.waso",
                "--k",
                "5",
                "--stages",
                "7",
                "--threads",
                "3",
                "--require",
                "9",
                "--seed",
                "11",
            ]),
            &registry,
        )
        .unwrap();
        assert!(matches!(args.mode, Mode::Local { k: 5, .. }));
        assert_eq!(args.spec.stages, Some(7));
        assert_eq!(args.spec.threads, Some(3));
        assert_eq!(args.require, vec![9]);
        assert_eq!(args.seed, 11);
    }

    #[test]
    fn negative_values_are_typed_errors_not_wraps() {
        let registry = waso::registry();
        // `--k -1` used to wrap to 2^64 - 1 via `parse::<u64>() as usize`.
        for (flag, what) in [
            ("--k", "k"),
            ("--stages", "stages"),
            ("--start-nodes", "start-nodes"),
            ("--threads", "threads"),
            ("--patience", "patience"),
            ("--require", "node id"),
        ] {
            let err = parse_args(
                &argv(&["--graph", "g.waso", "--k", "3", flag, "-1"]),
                &registry,
            )
            .unwrap_err();
            assert_eq!(err, format!("bad {what} '-1'"), "flag {flag}");
        }
    }

    #[test]
    fn overflowing_values_are_typed_errors_not_truncations() {
        let registry = waso::registry();
        // Larger than u32::MAX: would have truncated through `as u32`.
        let err = parse_args(
            &argv(&["--graph", "g.waso", "--k", "3", "--stages", "4294967296"]),
            &registry,
        )
        .unwrap_err();
        assert_eq!(err, "bad stages '4294967296'");
        // Larger than u64::MAX: rejected for u64-typed flags too.
        let err = parse_args(
            &argv(&[
                "--graph",
                "g.waso",
                "--k",
                "3",
                "--budget",
                "99999999999999999999",
            ]),
            &registry,
        )
        .unwrap_err();
        assert_eq!(err, "bad budget '99999999999999999999'");
    }

    /// Runs `run_remote` against a one-shot local peer that reads the
    /// `SUBMIT` frame and answers it with `answer`, raw.
    fn remote_error(answer: Vec<u8>) -> String {
        use std::io::{BufRead, BufReader, Read, Write};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut payload = vec![0u8; line.trim_end().parse().unwrap()];
            reader.read_exact(&mut payload).unwrap();
            // A client that refuses the answer hangs up mid-write, so
            // write errors are expected. Closing our half makes a client
            // that waits for more bytes fail instead of hang.
            let _ = (&stream).write_all(&answer);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = reader.read_to_end(&mut Vec::new());
        });
        let spec = waso::registry().parse("dgreedy").unwrap();
        let err = run_remote(&addr, "alice", &spec).unwrap_err();
        peer.join().unwrap();
        err
    }

    /// Counts `write` calls and keeps the bytes written.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_frame_is_one_write() {
        let mut w = CountingWriter::default();
        send_frame(&mut w, "WAIT 42").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"7\nWAIT 42");
    }

    #[test]
    fn oversized_reply_length_is_refused_before_allocating() {
        let err = remote_error(b"70000\n".to_vec());
        assert!(err.contains("70000"), "{err}");
        assert!(err.contains("65536-byte cap"), "{err}");
    }

    #[test]
    fn newline_free_reply_length_is_refused_after_32_bytes() {
        let err = remote_error(vec![b'1'; 1 << 20]);
        let quoted = err
            .strip_prefix("bad frame length \"")
            .and_then(|rest| rest.strip_suffix("\" from server"))
            .unwrap_or_else(|| panic!("unexpected error: {err}"));
        assert!(quoted.len() <= 32, "quoted {} bytes", quoted.len());
    }
}
