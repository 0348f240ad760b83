//! Property tests: every protocol message round-trips through its wire
//! form bit-exactly, and framing survives arbitrary payloads.

use proptest::collection;
use proptest::prelude::*;

use waso::algos::Termination;
use waso_serve::protocol::{read_frame, write_frame, ErrCode, Request, Response, StatsReply};

/// A lowercase identifier-ish token (tenant names).
fn token(seed: &[u8]) -> String {
    seed.iter().map(|&b| (b'a' + (b % 26)) as char).collect()
}

/// A spec-shaped token: the characters `SolverSpec` grammar uses, never
/// whitespace.
fn spec_token(seed: &[u8]) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:=,.-_";
    seed.iter()
        .map(|&b| CHARS[b as usize % CHARS.len()] as char)
        .collect()
}

/// Arbitrary printable text with spaces and newlines (error messages).
fn message(seed: &[u8]) -> String {
    seed.iter()
        .map(|&b| match b % 12 {
            0 => ' ',
            1 => '\n',
            v => (b'a' + v) as char,
        })
        .collect()
}

const CODES: [ErrCode; 8] = [
    ErrCode::BadFrame,
    ErrCode::BadRequest,
    ErrCode::UnknownTenant,
    ErrCode::Quota,
    ErrCode::Shed,
    ErrCode::BadSpec,
    ErrCode::UnknownJob,
    ErrCode::Failed,
];

const TERMINATIONS: [Termination; 3] = [
    Termination::Completed,
    Termination::Deadline,
    Termination::Cancelled,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn requests_round_trip(
        kind in 0u8..5,
        tenant_seed in collection::vec(0u8..=255, 1..10),
        spec_seed in collection::vec(0u8..=255, 1..24),
        job in any::<u64>(),
    ) {
        let request = match kind {
            0 => Request::Submit {
                tenant: token(&tenant_seed),
                spec: spec_token(&spec_seed),
            },
            1 => Request::Poll { job },
            2 => Request::Wait { job },
            3 => Request::Cancel { job },
            _ => Request::Stats,
        };
        let wire = request.to_string();
        prop_assert_eq!(Request::parse(&wire).unwrap(), request);
    }

    #[test]
    fn responses_round_trip(
        kind in 0u8..7,
        job in any::<u64>(),
        stages in any::<u32>(),
        samples in any::<u64>(),
        willingness in -1.0e15..1.0e15f64,
        nodes in collection::vec(0u32..2_000_000, 0..12),
        has_incumbent: bool,
        counters in collection::vec(0u64..10_000_000, 10),
        code_pick in 0u8..8,
        msg_seed in collection::vec(0u8..=255, 0..48),
        term_pick in 0u8..3,
    ) {
        let response = match kind {
            0 => Response::Job(job),
            1 => Response::Queued,
            2 => Response::Running {
                stages,
                samples,
                incumbent: has_incumbent.then(|| (willingness, nodes.clone())),
            },
            3 => Response::Done {
                termination: TERMINATIONS[term_pick as usize],
                willingness,
                nodes: nodes.clone(),
                samples,
            },
            4 => Response::Cancelled,
            5 => Response::Stats(StatsReply {
                queued: counters[0],
                running: counters[1],
                finished: counters[2],
                shed: counters[3],
                tenants: counters[4],
                pool_workers: counters[5],
                memo_hits: counters[6],
                memo_misses: counters[7],
                memo_invalidated: counters[8],
                memo_evicted: counters[9],
            }),
            _ => Response::Error {
                code: CODES[code_pick as usize],
                message: message(&msg_seed),
            },
        };
        let wire = response.to_string();
        prop_assert_eq!(Response::parse(&wire).unwrap(), response);
    }

    #[test]
    fn frames_round_trip_arbitrary_payloads(
        payload_seed in collection::vec(0u8..=255, 0..256),
        extra_seed in collection::vec(0u8..=255, 0..64),
    ) {
        // Payloads with spaces, newlines, and multi-byte characters —
        // the length prefix, not content, must delimit them.
        let payloads = [message(&payload_seed), format!("ü{}", message(&extra_seed))];
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut reader = std::io::BufReader::new(&buf[..]);
        for p in &payloads {
            let got = read_frame(&mut reader).unwrap().unwrap().unwrap();
            prop_assert_eq!(&got, p);
        }
        prop_assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn parsers_never_panic_on_garbage(garbage_seed in collection::vec(0u8..=255, 0..64)) {
        // Totality: arbitrary text must produce Ok or Err, never a panic.
        let text = message(&garbage_seed);
        let _ = Request::parse(&text);
        let _ = Response::parse(&text);
    }
}
