//! Integration tests for the serving front door: multi-tenant e2e over
//! a real socket, quota enforcement, round-robin fairness, load
//! shedding against a saturated width-1 pool, and the typed error
//! codes.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use waso::prelude::*;
use waso_serve::protocol::{ErrCode, Request, Response};
use waso_serve::{Client, ServeConfig, Server, TenantConfig};

fn test_graph(n: usize) -> SocialGraph {
    waso_datasets::synthetic::facebook_like_n(n, 3)
}

fn session(n: usize, k: usize, seed: u64, pool: &Arc<SharedPool>) -> WasoSession {
    WasoSession::new(test_graph(n))
        .k(k)
        .seed(seed)
        .attach_pool(Arc::clone(pool))
}

fn submit(server: &Server, tenant: &str, spec: &str) -> Response {
    server.handle(Request::Submit {
        tenant: tenant.to_string(),
        spec: spec.to_string(),
    })
}

fn job_id(response: Response) -> u64 {
    match response {
        Response::Job(id) => id,
        other => panic!("expected JOB, got {other}"),
    }
}

/// Polls until `job` leaves the queue (running or terminal).
fn await_dispatch(server: &Server, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match server.handle(Request::Poll { job }) {
            Response::Queued => {
                assert!(Instant::now() < deadline, "job {job} never dispatched");
                std::thread::sleep(Duration::from_millis(1));
            }
            _ => return,
        }
    }
}

/// A spec whose solve runs until cancelled (or for a very long time):
/// one huge stage, so it can only stop via the chunk-granular checks.
fn blocker_spec() -> &'static str {
    "cbas-nd:budget=40000000,stages=1,threads=2"
}

// ---------------------------------------------------------------------
// Acceptance e2e: ≥ 2 tenants, ≥ 8 concurrent requests, one SharedPool,
// results identical to direct WasoSession::solve.
// ---------------------------------------------------------------------

#[test]
fn two_tenants_eight_concurrent_requests_match_direct_solves() {
    const N: usize = 120;
    const K: usize = 5;
    const SEED: u64 = 7;
    let pool = Arc::new(SharedPool::new(3));
    let config = ServeConfig::new(vec![
        TenantConfig::new("alice", 8),
        TenantConfig::new("bob", 8),
    ])
    .max_running(4)
    .shed_queued_jobs(64);
    let mut server = Server::start(session(N, K, SEED, &pool), config);
    let addr = server.listen("127.0.0.1:0").unwrap();

    let requests: Vec<(&str, &str)> = vec![
        ("alice", "cbas-nd:budget=400,stages=4,threads=2"),
        ("bob", "cbas:budget=300,stages=3,threads=2"),
        ("alice", "cbas-nd:budget=500,stages=5"),
        ("bob", "dgreedy"),
        ("alice", "cbas-nd-g:budget=300,stages=3,threads=2"),
        ("bob", "cbas-nd:budget=400,stages=4,threads=2"),
        ("alice", "cbas:budget=200,stages=2"),
        ("bob", "cbas-nd:budget=250,stages=5,patience=3"),
    ];

    // All eight in flight at once, each over its own connection.
    let outcomes: Vec<(usize, Response)> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, (tenant, spec))| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let job = match client.submit(tenant, spec).unwrap() {
                        Response::Job(id) => id,
                        other => panic!("{tenant}/{spec} refused: {other}"),
                    };
                    (i, client.wait(job).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, response) in outcomes {
        let (tenant, spec) = requests[i];
        let Response::Done {
            termination,
            willingness,
            nodes,
            samples,
        } = response
        else {
            panic!("{tenant}/{spec}: expected DONE, got weird response");
        };
        assert_eq!(termination, Termination::Completed, "{spec}");
        // The ground truth: the same solve made directly on an
        // identically-configured session (fresh pool — the shared pool
        // must be unobservable in results).
        let direct = WasoSession::new(test_graph(N))
            .k(K)
            .seed(SEED)
            .solve_str(spec)
            .unwrap();
        let mut direct_nodes: Vec<u32> = direct.group.nodes().iter().map(|v| v.0).collect();
        direct_nodes.sort_unstable();
        assert_eq!(nodes, direct_nodes, "{tenant}/{spec}: groups differ");
        assert_eq!(samples, direct.stats.samples_drawn, "{tenant}/{spec}");
        assert!(
            (willingness - direct.group.willingness()).abs() < 1e-9,
            "{tenant}/{spec}: willingness drifted"
        );
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Quota
// ---------------------------------------------------------------------

#[test]
fn quota_violations_are_typed_and_clear_when_jobs_finish() {
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![
        TenantConfig::new("alice", 2),
        TenantConfig::new("bob", 1),
    ])
    .max_running(1)
    .shed_queued_jobs(32);
    let server = Server::start(session(60, 4, 3, &pool), config);

    // Alice fills her quota: one running (max_running = 1), one queued.
    let a1 = job_id(submit(&server, "alice", blocker_spec()));
    let a2 = job_id(submit(&server, "alice", "cbas-nd:budget=100,stages=2"));
    // The third is refused with the typed code — and the message names
    // the tenant, not just "error".
    match submit(&server, "alice", "dgreedy") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrCode::Quota);
            assert!(message.contains("alice"), "{message}");
        }
        other => panic!("expected ERR QUOTA, got {other}"),
    }
    // Quotas are per tenant: bob is unaffected by alice's backlog.
    let b1 = job_id(submit(&server, "bob", "cbas-nd:budget=100,stages=2"));

    // Freeing a slot readmits alice: cancel the blocker, wait for her
    // queued job to finish, then submit again.
    server.handle(Request::Cancel { job: a1 });
    server.handle(Request::Wait { job: a1 });
    server.handle(Request::Wait { job: a2 });
    let a3 = job_id(submit(&server, "alice", "dgreedy"));
    for job in [b1, a3] {
        match server.handle(Request::Wait { job }) {
            Response::Done { .. } => {}
            other => panic!("job {job}: expected DONE, got {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Fairness
// ---------------------------------------------------------------------

#[test]
fn dispatch_is_round_robin_across_tenants() {
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![
        TenantConfig::new("alice", 10),
        TenantConfig::new("bob", 10),
    ])
    .max_running(1)
    .shed_queued_jobs(32);
    let server = Server::start(session(60, 4, 3, &pool), config);

    // A blocker occupies the only running slot...
    let blocker = job_id(submit(&server, "alice", blocker_spec()));
    await_dispatch(&server, blocker);
    // ...then alice floods the queue and bob submits one job, last.
    // Every queued job is itself long-running (serial, so the pool
    // stays out of the picture): with max_running = 1 each holds the
    // slot until cancelled, which makes the dispatch order observable
    // without racing the solves.
    let slow = "cbas-nd:budget=40000000,stages=1";
    let a_jobs: Vec<u64> = (0..3)
        .map(|_| job_id(submit(&server, "alice", slow)))
        .collect();
    let b_job = job_id(submit(&server, "bob", slow));

    // Release the slot and watch dispatch order: record each job as it
    // first leaves the queue, then cancel it to admit the next.
    server.handle(Request::Cancel { job: blocker });
    let mut order = Vec::new();
    let watched: Vec<u64> = a_jobs.iter().copied().chain([b_job]).collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while order.len() < watched.len() {
        assert!(Instant::now() < deadline, "jobs never dispatched");
        for &job in &watched {
            if order.contains(&job) {
                continue;
            }
            if !matches!(server.handle(Request::Poll { job }), Response::Queued) {
                order.push(job);
                server.handle(Request::Cancel { job });
            }
        }
        std::thread::yield_now();
    }
    // The blocker consumed alice's round-robin turn, so bob's job —
    // submitted after alice's entire flood — is dispatched first.
    assert_eq!(
        order[0], b_job,
        "bob's job should pre-empt alice's flood (order {order:?})"
    );
    assert_eq!(
        &order[1..],
        &a_jobs[..],
        "alice keeps FIFO within her queue"
    );
}

// ---------------------------------------------------------------------
// Load shedding against a saturated width-1 pool
// ---------------------------------------------------------------------

#[test]
fn saturation_sheds_submissions_until_the_backlog_drains() {
    // A width-1 pool: one worker serves every tenant, so a single huge
    // pooled job keeps an in-flight chunk backlog the whole time.
    let pool = Arc::new(SharedPool::new(1));
    let config = ServeConfig::new(vec![TenantConfig::new("alice", 10)])
        .max_running(1)
        .shed_queued_jobs(64)
        .shed_pool_depth(0);
    let server = Server::start(session(60, 4, 3, &pool), config);

    let blocker = job_id(submit(&server, "alice", blocker_spec()));
    await_dispatch(&server, blocker);
    // Wait until the pool reports in-flight chunks — the saturation
    // signal the admission check reads.
    let deadline = Instant::now() + Duration::from_secs(20);
    while pool.stats().total_queued() == 0 {
        assert!(Instant::now() < deadline, "pool never saturated");
        std::thread::yield_now();
    }
    match submit(&server, "alice", "dgreedy") {
        Response::Error { code, .. } => assert_eq!(code, ErrCode::Shed),
        other => panic!("expected ERR SHED, got {other}"),
    }
    // The refusal is counted.
    match server.handle(Request::Stats) {
        Response::Stats(stats) => assert_eq!(stats.shed, 1),
        other => panic!("expected STATS, got {other}"),
    }

    // Draining the backlog reopens admission.
    server.handle(Request::Cancel { job: blocker });
    server.handle(Request::Wait { job: blocker });
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match submit(&server, "alice", "dgreedy") {
            Response::Job(job) => {
                server.handle(Request::Wait { job });
                break;
            }
            Response::Error {
                code: ErrCode::Shed,
                ..
            } => {
                // The pool backlog drains asynchronously after cancel.
                assert!(Instant::now() < deadline, "admission never reopened");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("expected JOB or ERR SHED, got {other}"),
        }
    }
}

#[test]
fn queue_depth_alone_sheds_independently_of_the_pool() {
    // No shed_pool_depth here, and the blocker plus queued jobs are all
    // serial — the deterministic queue-depth bound is what trips.
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![TenantConfig::new("alice", 10)])
        .max_running(1)
        .shed_queued_jobs(2);
    let server = Server::start(session(60, 4, 3, &pool), config);

    let blocker = job_id(submit(&server, "alice", "cbas-nd:budget=40000000,stages=1"));
    await_dispatch(&server, blocker);
    let q1 = job_id(submit(&server, "alice", "cbas-nd:budget=60,stages=2"));
    let q2 = job_id(submit(&server, "alice", "cbas-nd:budget=60,stages=2"));
    match submit(&server, "alice", "cbas-nd:budget=60,stages=2") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrCode::Shed);
            assert!(message.contains("queued"), "{message}");
        }
        other => panic!("expected ERR SHED, got {other}"),
    }

    // The queue drains once the slot frees; admission reopens.
    server.handle(Request::Cancel { job: blocker });
    for job in [blocker, q1, q2] {
        server.handle(Request::Wait { job });
    }
    let reopened = job_id(submit(&server, "alice", "dgreedy"));
    match server.handle(Request::Wait { job: reopened }) {
        Response::Done { .. } => {}
        other => panic!("expected DONE after drain, got {other}"),
    }
}

// ---------------------------------------------------------------------
// deadline_from_submit counts queue wait
// ---------------------------------------------------------------------

#[test]
fn deadline_from_submit_counts_time_spent_queued() {
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![TenantConfig::new("alice", 10)])
        .max_running(1)
        .shed_queued_jobs(32);
    let server = Server::start(session(60, 4, 3, &pool), config);

    let blocker = job_id(submit(&server, "alice", blocker_spec()));
    await_dispatch(&server, blocker);
    // This job's 50 ms SLA burns entirely in the queue behind the
    // blocker; its single huge stage can never finish in time.
    let sla = job_id(submit(
        &server,
        "alice",
        "cbas-nd:budget=40000000,stages=1,deadline_from_submit=50",
    ));
    std::thread::sleep(Duration::from_millis(150));
    server.handle(Request::Cancel { job: blocker });
    server.handle(Request::Wait { job: blocker });

    // Once dispatched, the already-expired deadline stops the job at
    // its first chunk check — quickly, and with the typed outcome.
    let dispatched = Instant::now();
    let outcome = server.handle(Request::Wait { job: sla });
    assert!(
        dispatched.elapsed() < Duration::from_secs(10),
        "expired deadline did not stop the job promptly"
    );
    match outcome {
        Response::Error { code, message } => {
            assert_eq!(code, ErrCode::Failed);
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected ERR FAILED (deadline), got {other}"),
    }
}

// ---------------------------------------------------------------------
// Typed protocol errors over a real socket
// ---------------------------------------------------------------------

#[test]
fn protocol_errors_carry_distinct_codes_over_tcp() {
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![TenantConfig::new("alice", 2)]);
    let mut server = Server::start(session(60, 4, 3, &pool), config);
    let addr = server.listen("127.0.0.1:0").unwrap();
    let mut client = Client::connect(addr).unwrap();

    let expect_err = |response: Response, want: ErrCode| match response {
        Response::Error { code, .. } => assert_eq!(code, want),
        other => panic!("expected ERR {}, got {other}", want.as_str()),
    };
    expect_err(
        client.submit("mallory", "dgreedy").unwrap(),
        ErrCode::UnknownTenant,
    );
    expect_err(
        client.submit("alice", "no-such-solver").unwrap(),
        ErrCode::BadSpec,
    );
    expect_err(
        client.submit("alice", "dgreedy:budget=5").unwrap(),
        ErrCode::BadSpec,
    );
    // The retired `pool=` knob is refused at admission.
    expect_err(
        client
            .submit("alice", "cbas-nd:threads=2,pool=private")
            .unwrap(),
        ErrCode::BadSpec,
    );
    expect_err(client.poll(999).unwrap(), ErrCode::UnknownJob);
    expect_err(client.cancel(999).unwrap(), ErrCode::UnknownJob);

    // A malformed request keeps the connection alive...
    use std::io::Write;
    let raw = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut writer = raw;
    waso_serve::protocol::write_frame(&mut writer, "FLY ME").unwrap();
    let reply = waso_serve::protocol::read_frame(&mut reader)
        .unwrap()
        .unwrap()
        .unwrap();
    match Response::parse(&reply).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrCode::BadRequest),
        other => panic!("expected ERR BAD_REQUEST, got {other}"),
    }
    // ...and the same connection still serves well-formed requests.
    waso_serve::protocol::write_frame(&mut writer, "STATS").unwrap();
    let reply = waso_serve::protocol::read_frame(&mut reader)
        .unwrap()
        .unwrap()
        .unwrap();
    assert!(matches!(
        Response::parse(&reply).unwrap(),
        Response::Stats(_)
    ));

    // A broken frame gets ERR BAD_FRAME and the connection closes (the
    // stream cannot be resynced).
    let raw = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut writer = raw;
    writer.write_all(b"not-a-length\ngarbage").unwrap();
    writer.flush().unwrap();
    let reply = waso_serve::protocol::read_frame(&mut reader)
        .unwrap()
        .unwrap()
        .unwrap();
    match Response::parse(&reply).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrCode::BadFrame),
        other => panic!("expected ERR BAD_FRAME, got {other}"),
    }
    assert!(
        waso_serve::protocol::read_frame(&mut reader)
            .unwrap()
            .is_none(),
        "connection should close after a frame error"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "duplicate tenant")]
fn duplicate_tenant_names_are_rejected() {
    // SUBMIT resolves tenants by name: a second "alice" could never be
    // addressed, so her quota would be silently dead configuration.
    let _ = ServeConfig::new(vec![
        TenantConfig::new("alice", 2),
        TenantConfig::new("alice", 5),
    ]);
}

// ---------------------------------------------------------------------
// Finished-job retention
// ---------------------------------------------------------------------

#[test]
fn finished_jobs_are_evicted_past_the_retention_cap() {
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![TenantConfig::new("alice", 4)]).retain_finished(2);
    let server = Server::start(session(60, 4, 3, &pool), config);

    // Four jobs run to completion one at a time, so their terminal
    // order (and therefore eviction order) is the submission order.
    let jobs: Vec<u64> = (0..4)
        .map(|_| {
            let job = job_id(submit(&server, "alice", "dgreedy"));
            match server.handle(Request::Wait { job }) {
                Response::Done { .. } => job,
                other => panic!("job {job}: expected DONE, got {other}"),
            }
        })
        .collect();

    // The oldest two fell off the retention window...
    for &job in &jobs[..2] {
        match server.handle(Request::Poll { job }) {
            Response::Error { code, .. } => assert_eq!(code, ErrCode::UnknownJob),
            other => panic!("evicted job {job}: expected ERR UNKNOWN_JOB, got {other}"),
        }
    }
    // ...the newest two still answer, and the counter saw all four.
    for &job in &jobs[2..] {
        match server.handle(Request::Poll { job }) {
            Response::Done { .. } => {}
            other => panic!("retained job {job}: expected DONE, got {other}"),
        }
    }
    match server.handle(Request::Stats) {
        Response::Stats(stats) => assert_eq!(stats.finished, 4),
        other => panic!("expected STATS, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Cancel racing the dispatch window
// ---------------------------------------------------------------------

#[test]
fn cancel_racing_dispatch_never_corrupts_the_accounting() {
    // Submit-then-immediately-cancel repeatedly: with an empty queue and
    // a free slot the dispatcher pops the job at once, so many cancels
    // land in the window between the pop and the Running transition.
    // Quota 1 makes any accounting corruption observable: a leaked
    // inflight slot (or an underflowed one) turns the next SUBMIT into
    // ERR QUOTA, failing `job_id`.
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![TenantConfig::new("alice", 1)]).max_running(1);
    let server = Server::start(session(60, 4, 3, &pool), config);

    for round in 0..50 {
        let job = job_id(submit(&server, "alice", "cbas-nd:budget=60,stages=2"));
        server.handle(Request::Cancel { job });
        match server.handle(Request::Wait { job }) {
            Response::Done { .. } | Response::Cancelled => {}
            other => panic!("round {round}: expected a terminal state, got {other}"),
        }
    }
    match server.handle(Request::Stats) {
        Response::Stats(stats) => {
            assert_eq!(stats.queued, 0);
            assert_eq!(stats.running, 0);
            assert_eq!(stats.finished, 50);
        }
        other => panic!("expected STATS, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Cancel + latest-incumbent watch view through the wire
// ---------------------------------------------------------------------

#[test]
fn polls_expose_the_latest_incumbent_and_cancel_returns_best_so_far() {
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![TenantConfig::new("alice", 4)]).max_running(2);
    let server = Server::start(session(80, 4, 5, &pool), config);

    // Many small stages: incumbents publish often enough that a poll
    // can catch one mid-run on any machine; if the solve wins the race
    // we still verify the terminal state.
    let job = job_id(submit(
        &server,
        "alice",
        "cbas-nd:budget=2000000,stages=400,threads=2",
    ));
    let saw_incumbent = Arc::new(Mutex::new(None::<(f64, Vec<u32>)>));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.handle(Request::Poll { job }) {
            Response::Running { incumbent, .. } => {
                if let Some(snapshot) = incumbent {
                    *saw_incumbent.lock().unwrap() = Some(snapshot);
                    break;
                }
            }
            Response::Queued => {}
            // Never observed running — absurdly fast machine; give up
            // on the mid-run half, the cancel half still runs.
            _ => break,
        }
        assert!(Instant::now() < deadline, "job never progressed");
        std::thread::yield_now();
    }
    server.handle(Request::Cancel { job });
    match server.handle(Request::Wait { job }) {
        // Cancelled mid-run with at least one completed stage: the
        // best-so-far group, tagged cancelled.
        Response::Done {
            termination,
            willingness,
            nodes,
            ..
        } => {
            assert_eq!(termination, Termination::Cancelled);
            assert!(!nodes.is_empty());
            if let Some((seen_w, _)) = saw_incumbent.lock().unwrap().clone() {
                assert!(
                    willingness >= seen_w - 1e-9,
                    "final best {willingness} below a mid-run incumbent {seen_w}"
                );
            }
        }
        // The solve stopped before any stage completed.
        Response::Cancelled => {}
        other => panic!("expected DONE or CANCELLED, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Regression: a job that passes admission but fails at dispatch must
// answer a typed error — never panic the dispatcher or kill the
// connection — and the server must keep dispatching afterwards.
// ---------------------------------------------------------------------

#[test]
fn dispatch_time_failure_answers_typed_error_and_server_lives_on() {
    let pool = Arc::new(SharedPool::new(2));
    let config = ServeConfig::new(vec![TenantConfig::new("alice", 4)]).max_running(1);
    // The session requires attendee 0; `cbas` cannot guarantee required
    // attendees, and admission's build dry-run cannot see session-level
    // constraints — so the job is admitted and fails at dispatch.
    let session = session(80, 4, 3, &pool).require([NodeId(0)]);
    let mut server = Server::start(session, config);
    let addr = server.listen("127.0.0.1:0").unwrap();
    let mut client = Client::connect(addr).unwrap();

    let job = job_id(client.submit("alice", "cbas:budget=200,stages=2").unwrap());
    match client.wait(job).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrCode::Failed);
            assert!(!message.is_empty(), "the failure carries its cause");
        }
        other => panic!("expected ERR FAILED, got {other}"),
    }

    // Same wire, and with max_running=1 the next dispatch only happens
    // if the failed job released its running slot: a capable solver
    // completes end-to-end.
    let job = job_id(client.submit("alice", "dgreedy").unwrap());
    match client.wait(job).unwrap() {
        Response::Done { nodes, .. } => {
            assert!(nodes.contains(&0), "required attendee in the answer")
        }
        other => panic!("expected DONE, got {other}"),
    }
    server.shutdown();
}
