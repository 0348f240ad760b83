//! The wire protocol `waso-serve` speaks: length-prefixed text frames
//! carrying one typed [`Request`] or [`Response`] each.
//!
//! # Framing
//!
//! A frame is the payload's byte length in ASCII decimal, a newline,
//! then exactly that many payload bytes (UTF-8 text):
//!
//! ```text
//! 23
//! SUBMIT alice cbas-nd:budget=200
//! ```
//!
//! Length-prefixing makes message boundaries explicit — payloads may
//! contain newlines (error messages do) — and lets the reader reject
//! oversized or corrupt frames *before* buffering them
//! ([`FrameError`], surfaced to clients as an `ERR BAD_FRAME`).
//! Frames are capped at [`MAX_FRAME`] bytes.
//!
//! # Request grammar
//!
//! ```text
//! SUBMIT <tenant> <spec>     enqueue a solve for <tenant>; replies JOB <id>
//! POLL <id>                  non-blocking job state
//! WAIT <id>                  block until the job reaches a terminal state
//! CANCEL <id>                cancel a queued or running job
//! STATS                      server-wide counters
//! ```
//!
//! # Response grammar
//!
//! ```text
//! JOB <id>
//! QUEUED
//! RUNNING <stages> <samples> [<willingness> <node,node,...>]
//! DONE <termination> <willingness> <node,node,...> <samples>
//! CANCELLED
//! STATS queued=N running=N finished=N shed=N tenants=N pool_workers=N memo_hits=N memo_misses=N memo_invalidated=N memo_evicted=N
//! ERR <CODE> [<message>]
//! ```
//!
//! Every variant round-trips through its text form bit-exactly (floats
//! use Rust's shortest round-trip formatting) — pinned by the proptests
//! in `tests/protocol_props.rs`.

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use waso::algos::Termination;

/// Hard cap on a frame's payload size. Large enough for any response the
/// server produces (a `DONE` line grows with `k`, not with the graph);
/// small enough that a garbage length prefix cannot make the reader
/// allocate unbounded memory.
pub const MAX_FRAME: usize = 64 * 1024;

/// Why a frame could not be decoded. The framing layer cannot resync
/// after any of these (the stream position is ambiguous), so servers
/// reply `ERR BAD_FRAME` and close the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length line was not a bare ASCII decimal.
    BadLength(String),
    /// The declared length exceeds [`MAX_FRAME`].
    Oversize(usize),
    /// The payload bytes were not UTF-8.
    BadUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadLength(line) => write!(f, "bad frame length {line:?}"),
            FrameError::Oversize(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: decimal length, newline, payload.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME, "outbound frame exceeds cap");
    write!(w, "{}\n{payload}", payload.len())?;
    w.flush()
}

/// Hard cap on the length *prefix* line. A valid prefix is at most the
/// digits of [`MAX_FRAME`] plus the newline; anything longer is garbage,
/// and without this bound a client streaming bytes that never contain a
/// newline would make the reader buffer them without limit.
const MAX_LEN_LINE: u64 = 32;

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); an EOF *inside* a frame is an
/// [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Result<String, FrameError>>> {
    let mut raw = Vec::new();
    let n = Read::take(&mut *r, MAX_LEN_LINE).read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Ok(None);
    }
    // Lossy, not strict: a non-UTF-8 prefix is garbage like any other
    // and fails the parse below (the peer gets `ERR BAD_FRAME`), where a
    // strict decode would be an I/O error that drops the connection.
    let line = String::from_utf8_lossy(&raw);
    if !line.ends_with('\n') && n as u64 == MAX_LEN_LINE {
        return Ok(Some(Err(FrameError::BadLength(line.into_owned()))));
    }
    let trimmed = line.trim_end_matches('\n');
    let len: usize = match trimmed.parse() {
        Ok(n) => n,
        Err(_) => return Ok(Some(Err(FrameError::BadLength(trimmed.to_string())))),
    };
    if len > MAX_FRAME {
        return Ok(Some(Err(FrameError::Oversize(len))));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(match String::from_utf8(buf) {
        Ok(s) => Ok(s),
        Err(_) => Err(FrameError::BadUtf8),
    }))
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue a solve of `spec` on behalf of `tenant`.
    Submit { tenant: String, spec: String },
    /// Non-blocking state of a job.
    Poll { job: u64 },
    /// Block until the job reaches a terminal state, then return it.
    Wait { job: u64 },
    /// Cancel a queued or running job (idempotent).
    Cancel { job: u64 },
    /// Server-wide counters.
    Stats,
}

impl Request {
    /// Parses one request payload. The error string is the human half of
    /// the `ERR BAD_REQUEST` the server replies with.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut parts = text.splitn(3, ' ');
        let verb = parts.next().unwrap_or("");
        match verb {
            "SUBMIT" => {
                let tenant = parts
                    .next()
                    .filter(|t| !t.is_empty())
                    .ok_or("SUBMIT needs a tenant name")?;
                if tenant.chars().any(char::is_whitespace) {
                    return Err(format!("bad tenant name {tenant:?}"));
                }
                let spec = parts.next().filter(|s| !s.is_empty()).ok_or_else(|| {
                    "SUBMIT needs a solver spec (NAME[:key=value,...])".to_string()
                })?;
                Ok(Request::Submit {
                    tenant: tenant.to_string(),
                    spec: spec.to_string(),
                })
            }
            "POLL" | "WAIT" | "CANCEL" => {
                let id = parts
                    .next()
                    .ok_or_else(|| format!("{verb} needs a job id"))?;
                if parts.next().is_some() {
                    return Err(format!("{verb} takes exactly one argument"));
                }
                let job: u64 = id.parse().map_err(|_| format!("bad job id {id:?}"))?;
                Ok(match verb {
                    "POLL" => Request::Poll { job },
                    "WAIT" => Request::Wait { job },
                    _ => Request::Cancel { job },
                })
            }
            "STATS" => {
                if parts.next().is_some() {
                    return Err("STATS takes no arguments".to_string());
                }
                Ok(Request::Stats)
            }
            other => Err(format!("unknown request verb {other:?}")),
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Submit { tenant, spec } => write!(f, "SUBMIT {tenant} {spec}"),
            Request::Poll { job } => write!(f, "POLL {job}"),
            Request::Wait { job } => write!(f, "WAIT {job}"),
            Request::Cancel { job } => write!(f, "CANCEL {job}"),
            Request::Stats => write!(f, "STATS"),
        }
    }
}

/// Why a request was refused — the typed half of an `ERR` response.
/// Distinct codes let clients react programmatically: back off on
/// [`ErrCode::Shed`], fix the spec on [`ErrCode::BadSpec`], give up on
/// [`ErrCode::UnknownTenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The frame itself was undecodable; the connection is closed after
    /// this reply (the stream cannot be resynced).
    BadFrame,
    /// The frame decoded but was not a well-formed request.
    BadRequest,
    /// `SUBMIT` named a tenant the server was not configured with.
    UnknownTenant,
    /// The tenant is at its `max_inflight` quota; retry after one of its
    /// jobs finishes.
    Quota,
    /// The server is load-shedding: its queue crossed the configured
    /// depth. Retry with backoff.
    Shed,
    /// The spec did not resolve to a buildable solver.
    BadSpec,
    /// `POLL`/`WAIT`/`CANCEL` named a job this server never issued.
    UnknownJob,
    /// The solve itself failed (infeasible instance, constraint the
    /// solver cannot honour, deadline with no incumbent, solver panic).
    Failed,
}

impl ErrCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::BadFrame => "BAD_FRAME",
            ErrCode::BadRequest => "BAD_REQUEST",
            ErrCode::UnknownTenant => "UNKNOWN_TENANT",
            ErrCode::Quota => "QUOTA",
            ErrCode::Shed => "SHED",
            ErrCode::BadSpec => "BAD_SPEC",
            ErrCode::UnknownJob => "UNKNOWN_JOB",
            ErrCode::Failed => "FAILED",
        }
    }

    /// Parses a wire token.
    pub fn parse(token: &str) -> Option<Self> {
        Some(match token {
            "BAD_FRAME" => ErrCode::BadFrame,
            "BAD_REQUEST" => ErrCode::BadRequest,
            "UNKNOWN_TENANT" => ErrCode::UnknownTenant,
            "QUOTA" => ErrCode::Quota,
            "SHED" => ErrCode::Shed,
            "BAD_SPEC" => ErrCode::BadSpec,
            "UNKNOWN_JOB" => ErrCode::UnknownJob,
            "FAILED" => ErrCode::Failed,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The `STATS` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Jobs admitted and not yet dispatched.
    pub queued: u64,
    /// Jobs dispatched and not yet finished.
    pub running: u64,
    /// Jobs in a terminal state (done, failed, or cancelled).
    pub finished: u64,
    /// Submissions refused with [`ErrCode::Shed`] since startup.
    pub shed: u64,
    /// Configured tenants.
    pub tenants: u64,
    /// The shared pool's worker count.
    pub pool_workers: u64,
    /// Solves the session answered from its memo (no solver ran).
    pub memo_hits: u64,
    /// Cacheable solves that had to run.
    pub memo_misses: u64,
    /// Memo entries dropped by graph deltas and configuration changes.
    pub memo_invalidated: u64,
    /// Memo entries evicted to keep the memo at its capacity.
    pub memo_evicted: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `SUBMIT` accepted; poll/wait/cancel with this id.
    Job(u64),
    /// The job is admitted and waiting for a dispatch slot.
    Queued,
    /// The job is solving. `incumbent` is the latest-only watch view of
    /// its best-so-far group (`None` before the first completed stage).
    Running {
        stages: u32,
        samples: u64,
        incumbent: Option<(f64, Vec<u32>)>,
    },
    /// Terminal: the solve produced a group.
    Done {
        termination: Termination,
        willingness: f64,
        nodes: Vec<u32>,
        samples: u64,
    },
    /// Terminal: the job was cancelled before producing a group.
    Cancelled,
    /// The `STATS` counters.
    Stats(StatsReply),
    /// The request was refused; see [`ErrCode`].
    Error { code: ErrCode, message: String },
}

/// `1,2,3`, or `-` for an empty list.
fn encode_nodes(nodes: &[u32]) -> String {
    if nodes.is_empty() {
        return "-".to_string();
    }
    nodes
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_nodes(text: &str) -> Result<Vec<u32>, String> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|t| t.parse().map_err(|_| format!("bad node id {t:?}")))
        .collect()
}

fn parse_termination(token: &str) -> Result<Termination, String> {
    Ok(match token {
        "completed" => Termination::Completed,
        "deadline" => Termination::Deadline,
        "cancelled" => Termination::Cancelled,
        other => return Err(format!("unknown termination {other:?}")),
    })
}

impl Response {
    /// Parses one response payload (the client half; servers only encode).
    pub fn parse(text: &str) -> Result<Self, String> {
        let (verb, rest) = match text.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (text, ""),
        };
        let fields: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(' ').collect()
        };
        // Slice patterns (not indexing) so a short field list is a parse
        // error, never a panic — this runs on the serve reply path.
        match verb {
            "JOB" => match fields[..] {
                [id] => Ok(Response::Job(
                    id.parse().map_err(|_| format!("bad job id {id:?}"))?,
                )),
                _ => Err(format!("JOB takes 1 field, got {}", fields.len())),
            },
            "QUEUED" => match fields[..] {
                [] => Ok(Response::Queued),
                _ => Err(format!("QUEUED takes 0 fields, got {}", fields.len())),
            },
            "RUNNING" => {
                let (head, incumbent_fields) = match fields[..] {
                    [s, n] => ((s, n), None),
                    [s, n, w, nodes] => ((s, n), Some((w, nodes))),
                    _ => {
                        return Err(format!("RUNNING takes 2 or 4 fields, got {}", fields.len()));
                    }
                };
                let stages = head
                    .0
                    .parse()
                    .map_err(|_| format!("bad stage count {:?}", head.0))?;
                let samples = head
                    .1
                    .parse()
                    .map_err(|_| format!("bad sample count {:?}", head.1))?;
                let incumbent = match incumbent_fields {
                    Some((w, nodes)) => {
                        let w = w.parse().map_err(|_| format!("bad willingness {w:?}"))?;
                        Some((w, parse_nodes(nodes)?))
                    }
                    None => None,
                };
                Ok(Response::Running {
                    stages,
                    samples,
                    incumbent,
                })
            }
            "DONE" => match fields[..] {
                [termination, willingness, nodes, samples] => Ok(Response::Done {
                    termination: parse_termination(termination)?,
                    willingness: willingness
                        .parse()
                        .map_err(|_| format!("bad willingness {willingness:?}"))?,
                    nodes: parse_nodes(nodes)?,
                    samples: samples
                        .parse()
                        .map_err(|_| format!("bad sample count {samples:?}"))?,
                }),
                _ => Err(format!("DONE takes 4 fields, got {}", fields.len())),
            },
            "CANCELLED" => match fields[..] {
                [] => Ok(Response::Cancelled),
                _ => Err(format!("CANCELLED takes 0 fields, got {}", fields.len())),
            },
            "STATS" => {
                let mut stats = StatsReply::default();
                for field in &fields {
                    let (key, value) = field
                        .split_once('=')
                        .ok_or_else(|| format!("bad stats field {field:?}"))?;
                    let value: u64 = value
                        .parse()
                        .map_err(|_| format!("bad stats value {field:?}"))?;
                    match key {
                        "queued" => stats.queued = value,
                        "running" => stats.running = value,
                        "finished" => stats.finished = value,
                        "shed" => stats.shed = value,
                        "tenants" => stats.tenants = value,
                        "pool_workers" => stats.pool_workers = value,
                        "memo_hits" => stats.memo_hits = value,
                        "memo_misses" => stats.memo_misses = value,
                        "memo_invalidated" => stats.memo_invalidated = value,
                        "memo_evicted" => stats.memo_evicted = value,
                        other => return Err(format!("unknown stats key {other:?}")),
                    }
                }
                Ok(Response::Stats(stats))
            }
            "ERR" => {
                // The message is everything after the code, verbatim —
                // it may contain spaces and newlines.
                let (code, message) = match rest.split_once(' ') {
                    Some((c, m)) => (c, m),
                    None => (rest, ""),
                };
                let code =
                    ErrCode::parse(code).ok_or_else(|| format!("unknown ERR code {code:?}"))?;
                Ok(Response::Error {
                    code,
                    message: message.to_string(),
                })
            }
            other => Err(format!("unknown response verb {other:?}")),
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Job(id) => write!(f, "JOB {id}"),
            Response::Queued => write!(f, "QUEUED"),
            Response::Running {
                stages,
                samples,
                incumbent,
            } => {
                write!(f, "RUNNING {stages} {samples}")?;
                if let Some((w, nodes)) = incumbent {
                    write!(f, " {w} {}", encode_nodes(nodes))?;
                }
                Ok(())
            }
            Response::Done {
                termination,
                willingness,
                nodes,
                samples,
            } => write!(
                f,
                "DONE {termination} {willingness} {} {samples}",
                encode_nodes(nodes)
            ),
            Response::Cancelled => write!(f, "CANCELLED"),
            Response::Stats(s) => write!(
                f,
                "STATS queued={} running={} finished={} shed={} tenants={} \
                 pool_workers={} memo_hits={} memo_misses={} \
                 memo_invalidated={} memo_evicted={}",
                s.queued,
                s.running,
                s.finished,
                s.shed,
                s.tenants,
                s.pool_workers,
                s.memo_hits,
                s.memo_misses,
                s.memo_invalidated,
                s.memo_evicted
            ),
            Response::Error { code, message } => {
                if message.is_empty() {
                    write!(f, "ERR {code}")
                } else {
                    write!(f, "ERR {code} {message}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "SUBMIT alice cbas-nd:budget=200").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "multi\nline\npayload").unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().unwrap(),
            "SUBMIT alice cbas-nd:budget=200"
        );
        assert_eq!(read_frame(&mut r).unwrap().unwrap().unwrap(), "");
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().unwrap(),
            "multi\nline\npayload"
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn bad_frames_are_typed_not_io_errors() {
        let mut r = io::BufReader::new(&b"x9\nzzzzzzzzz"[..]);
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().unwrap_err(),
            FrameError::BadLength("x9".to_string())
        );
        let huge = format!("{}\n", MAX_FRAME + 1);
        let mut r = io::BufReader::new(huge.as_bytes());
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().unwrap_err(),
            FrameError::Oversize(MAX_FRAME + 1)
        );
        let mut r = io::BufReader::new(&b"2\n\xff\xfe"[..]);
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().unwrap_err(),
            FrameError::BadUtf8
        );
        // A non-UTF-8 length line is a bad length too, not an io error.
        let mut r = io::BufReader::new(&b"\xff\n"[..]);
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().unwrap_err(),
            FrameError::BadLength("\u{FFFD}".to_string())
        );
        // EOF mid-payload is an io error, not a clean close.
        let mut r = io::BufReader::new(&b"10\nshort"[..]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn newline_free_length_prefix_is_rejected_without_buffering_it() {
        // A peer streaming digits with no newline must hit BadLength at
        // the prefix bound, not make the reader buffer the whole stream.
        let garbage = vec![b'1'; 1 << 20];
        let mut r = io::BufReader::new(&garbage[..]);
        match read_frame(&mut r).unwrap().unwrap().unwrap_err() {
            FrameError::BadLength(line) => assert!(line.len() <= 32, "buffered {}", line.len()),
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn requests_parse_and_reject() {
        assert_eq!(
            Request::parse("SUBMIT alice cbas-nd:budget=200").unwrap(),
            Request::Submit {
                tenant: "alice".into(),
                spec: "cbas-nd:budget=200".into()
            }
        );
        assert_eq!(Request::parse("POLL 7").unwrap(), Request::Poll { job: 7 });
        assert_eq!(Request::parse("STATS").unwrap(), Request::Stats);
        for bad in [
            "",
            "NOPE",
            "SUBMIT",
            "SUBMIT alice",
            "POLL",
            "POLL x",
            "POLL 1 2",
            "STATS now",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn error_messages_survive_spaces_and_emptiness() {
        for resp in [
            Response::Error {
                code: ErrCode::Quota,
                message: "tenant alice is at 4 inflight jobs".into(),
            },
            Response::Error {
                code: ErrCode::Shed,
                message: String::new(),
            },
        ] {
            assert_eq!(Response::parse(&resp.to_string()).unwrap(), resp);
        }
    }
}
