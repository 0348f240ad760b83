//! The serving front door: admission control, fair dispatch, and the
//! thread-per-connection TCP loop.
//!
//! A [`Server`] multiplexes many tenants onto **one** [`WasoSession`]
//! (and therefore one process-wide `SharedPool`). Its lifecycle:
//!
//! 1. **Admission** ([`Server::handle`] on a `SUBMIT`): the tenant must
//!    be configured (`ERR UNKNOWN_TENANT`), the spec must build
//!    (`ERR BAD_SPEC`), the server must not be load-shedding
//!    (`ERR SHED`), and the tenant must be under its inflight quota
//!    (`ERR QUOTA`). Admitted jobs get an id, a slot in the tenant's
//!    FIFO, and their [`JobControl`]: the one handle `POLL` reads and
//!    `CANCEL` and shutdown stop the job through, from admission to
//!    completion. A spec carrying `deadline_from_submit=` has its
//!    deadline armed on it here, so time spent queued behind other
//!    tenants counts against the SLA.
//! 2. **Dispatch** (the dispatch crew: [`ServeConfig::max_running`]
//!    threads started with the server): an idle crew member picks the
//!    next job **round-robin across tenants** — a flooding tenant cannot
//!    starve the others — marks it running, and solves it on its own
//!    thread under the job's control (`WasoSession::solve_with`). The
//!    crew is the only thread budget for jobs, so at most
//!    `max_running` run, and every job reported running is solving.
//! 3. **Completion** (the same crew member, when the solve returns; a
//!    solver panic comes back as `SessionError::Panicked` and answers
//!    `ERR FAILED`): the result is parked in the job table for
//!    `POLL`/`WAIT`, the tenant's quota slot frees, and the crew member
//!    goes back for the next job. The table retains the newest
//!    [`ServeConfig::retain_finished`] terminal responses; older ones
//!    are evicted and answer `ERR UNKNOWN_JOB`, so a long-running
//!    server's memory is bounded by its retention cap, not by the total
//!    jobs it has ever served.
//!
//! Load shedding is admission-time: a `SUBMIT` is refused with
//! `ERR SHED` when the server-wide queue reaches
//! [`ServeConfig::shed_queued_jobs`]. The pool needs no bound of its
//! own: each running job keeps at most one chunk per pool worker in
//! flight, so `max_running` × pool workers bounds the chunks this
//! server's jobs queue on it.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use waso::prelude::*;

use crate::protocol::{read_frame, write_frame, ErrCode, Request, Response, StatsReply};
use crate::tenant::{FairQueue, TenantConfig};

/// Server-side policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The tenants `SUBMIT` will accept, each with its inflight quota.
    pub tenants: Vec<TenantConfig>,
    /// Dispatch width: the number of dispatch threads. Each solves the
    /// job it took on its own thread, so at most this many jobs run at
    /// once and every running job is solving; the rest wait in the fair
    /// queue. Clamped to ≥ 1.
    pub max_running: usize,
    /// Load-shed bound: refuse `SUBMIT`s while this many jobs are
    /// already queued (waiting for a dispatch slot). Clamped to ≥ 1.
    pub shed_queued_jobs: usize,
    /// Finished-job retention: the server keeps at most this many
    /// terminal jobs' responses around for later `POLL`/`WAIT`; beyond
    /// it the oldest are evicted and answer `ERR UNKNOWN_JOB`. Bounds
    /// the job table on a long-running server. Clamped to ≥ 1.
    pub retain_finished: usize,
}

impl ServeConfig {
    /// Builds a config over `tenants` with default policy knobs.
    ///
    /// # Panics
    ///
    /// If two tenants share a name: `SUBMIT` resolves tenants by name,
    /// so a duplicate's quota would be silently dead configuration.
    pub fn new(tenants: Vec<TenantConfig>) -> Self {
        for (i, tenant) in tenants.iter().enumerate() {
            assert!(
                !tenants.iter().take(i).any(|t| t.name == tenant.name),
                "duplicate tenant {:?}: tenants are resolved by name, so each may be configured once",
                tenant.name
            );
        }
        Self {
            tenants,
            max_running: 2,
            shed_queued_jobs: 16,
            retain_finished: 1024,
        }
    }

    pub fn max_running(mut self, n: usize) -> Self {
        self.max_running = n.max(1);
        self
    }

    pub fn shed_queued_jobs(mut self, n: usize) -> Self {
        self.shed_queued_jobs = n.max(1);
        self
    }

    pub fn retain_finished(mut self, n: usize) -> Self {
        self.retain_finished = n.max(1);
        self
    }
}

/// Where a job is in its lifecycle.
enum JobState {
    /// Admitted, waiting for a dispatch slot.
    Queued,
    /// Taken by a dispatch thread, which is solving it.
    Running,
    /// Terminal; the parked response answers every later `POLL`/`WAIT`.
    Finished(Response),
}

struct JobEntry {
    tenant: usize,
    spec: SolverSpec,
    /// Made at admission and solved under at dispatch: the job's
    /// progress, cancel and deadline surface for its whole life.
    control: Arc<JobControl>,
    state: JobState,
}

/// Everything the mutex guards.
struct State {
    jobs: HashMap<u64, JobEntry>,
    queue: FairQueue,
    /// Per-tenant inflight (queued + running) job counts, indexed like
    /// `config.tenants`.
    inflight: Vec<usize>,
    /// Terminal jobs, oldest first — the eviction order once the table
    /// holds more than `retain_finished` of them.
    finished_order: VecDeque<u64>,
    running: usize,
    finished: u64,
    shed: u64,
    next_job: u64,
    shutdown: bool,
}

impl State {
    /// Marks `job` terminal with `response`, then evicts the oldest
    /// finished entries past the retention cap so the table stays
    /// bounded however long the server runs.
    fn park_finished(&mut self, job: u64, response: Response, retain: usize) {
        // The entry can be gone if the job was already evicted past the
        // retention cap; parking is then a no-op rather than a panic
        // that would poison every connection sharing this mutex.
        if let Some(entry) = self.jobs.get_mut(&job) {
            entry.state = JobState::Finished(response);
            self.finished += 1;
            self.finished_order.push_back(job);
        }
        while self.finished_order.len() > retain {
            match self.finished_order.pop_front() {
                Some(evicted) => {
                    self.jobs.remove(&evicted);
                }
                None => break,
            }
        }
    }

    /// Pops the next job that still has a table entry and marks it
    /// running. Queue ids whose entry has vanished are drained and
    /// skipped — an orphaned id must not occupy a dispatch thread.
    fn pop_dispatchable(&mut self) -> Option<(u64, SolverSpec, Arc<JobControl>)> {
        while let Some(job) = self.queue.pop() {
            if let Some(entry) = self.jobs.get_mut(&job) {
                entry.state = JobState::Running;
                self.running += 1;
                return Some((job, entry.spec.clone(), Arc::clone(&entry.control)));
            }
        }
        None
    }
}

struct Inner {
    session: WasoSession,
    config: ServeConfig,
    state: Mutex<State>,
    /// Notified on admission (dispatch crew), completion (`WAIT`ers),
    /// and shutdown (everyone).
    wake: Condvar,
}

/// The multi-tenant serving front door. See the module docs for the
/// request lifecycle; construct with [`Server::start`], expose over TCP
/// with [`Server::listen`], or drive in-process via [`Server::handle`].
pub struct Server {
    inner: Arc<Inner>,
    crew: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    addr: Option<SocketAddr>,
}

impl Server {
    /// Starts the dispatch crew over `session`. The session's graph, group
    /// size, seed, and attached pool are fixed for the server's lifetime
    /// — every tenant solves the same instance, so identical
    /// `(spec, seed)` submissions return identical groups no matter how
    /// they interleave.
    pub fn start(session: WasoSession, config: ServeConfig) -> Self {
        // Build and cache the session's instance on this thread.
        // Otherwise whichever dispatch thread takes the first job would
        // build it: that job would pay for it, and the graph-sized copy
        // would land in that thread's allocator arena. A session that
        // cannot build an instance (no `k`) still fails each job at
        // dispatch, with the typed error.
        let _ = session.instance();
        let tenants = config.tenants.len();
        let inner = Arc::new(Inner {
            session,
            config,
            state: Mutex::new(State {
                jobs: HashMap::new(),
                queue: FairQueue::new(tenants),
                inflight: vec![0; tenants],
                finished_order: VecDeque::new(),
                running: 0,
                finished: 0,
                shed: 0,
                next_job: 1,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let crew = (0..inner.config.max_running.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name("waso-serve-dispatch".into())
                    .spawn(move || inner.dispatch_loop())
                    // audit:allow(P2): startup-time, before any connection exists — a server short of its dispatch crew cannot honour max_running, so fail fast
                    .expect("spawning a dispatch thread")
            })
            .collect();
        Self {
            inner,
            crew,
            acceptor: None,
            addr: None,
        }
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// thread-per-connection accept loop. Returns the bound address.
    pub fn listen(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::clone(&self.inner);
        let acceptor = std::thread::Builder::new()
            .name("waso-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if inner.locked().shutdown {
                        return;
                    }
                    if let Ok(stream) = stream {
                        let inner = Arc::clone(&inner);
                        let _ = std::thread::Builder::new()
                            .name("waso-serve-conn".into())
                            .spawn(move || serve_connection(&inner, stream));
                    }
                }
            })?;
        self.acceptor = Some(acceptor);
        self.addr = Some(local);
        Ok(local)
    }

    /// The bound address, once [`Server::listen`] has been called.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Handles one request in-process — the same entry point the TCP
    /// loop uses, so in-process and over-the-wire behavior cannot drift.
    pub fn handle(&self, request: Request) -> Response {
        self.inner.handle(request)
    }

    /// Stops accepting, cancels every job, and joins the server's own
    /// threads — each dispatch thread once its cancelled job has
    /// stopped. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.inner.locked();
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            for entry in st.jobs.values() {
                entry.control.cancel();
            }
        }
        self.inner.wake.notify_all();
        // Unblock the accept loop: it only re-checks the shutdown flag
        // when a connection arrives.
        if let Some(addr) = self.addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
        for h in self.crew.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn locked(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn handle(&self, request: Request) -> Response {
        match request {
            Request::Submit { tenant, spec } => self.submit(&tenant, &spec),
            Request::Poll { job } => self.poll(job),
            Request::Wait { job } => self.wait(job),
            Request::Cancel { job } => self.cancel(job),
            Request::Stats => Response::Stats(self.stats()),
        }
    }

    fn submit(&self, tenant: &str, spec: &str) -> Response {
        let Some(tidx) = self.config.tenants.iter().position(|t| t.name == tenant) else {
            return err(
                ErrCode::UnknownTenant,
                format!("tenant {tenant:?} is not configured on this server"),
            );
        };
        // Resolve the spec before taking the lock — parse + registry
        // lookup needs no server state. A build dry-run catches the
        // per-solver key checks (e.g. `dgreedy:budget=` is a parseable
        // spec that no solver accepts), so invalid work is refused at
        // admission instead of failing asynchronously after dispatch.
        let spec = match self.session.registry().parse(spec) {
            Ok(spec) => spec,
            Err(e) => return err(ErrCode::BadSpec, e.to_string()),
        };
        if let Err(e) = self.session.registry().build(&spec) {
            return err(ErrCode::BadSpec, e.to_string());
        }
        let mut st = self.locked();
        if st.shutdown {
            return err(ErrCode::Failed, "server is shutting down".to_string());
        }
        if st.queue.len() >= self.config.shed_queued_jobs {
            st.shed += 1;
            return err(
                ErrCode::Shed,
                format!(
                    "{} jobs queued (bound {})",
                    st.queue.len(),
                    self.config.shed_queued_jobs
                ),
            );
        }
        // `tidx` comes from the name lookup above, so these lookups cannot
        // miss; `get` keeps the connection path panic-free regardless.
        let quota = self.config.tenants.get(tidx).map_or(0, |t| t.max_inflight);
        if st.inflight.get(tidx).is_none_or(|&n| n >= quota) {
            return err(
                ErrCode::Quota,
                format!("tenant {tenant:?} is at its quota of {quota} inflight jobs"),
            );
        }
        let control = Arc::new(JobControl::new());
        if let Some(ms) = spec.deadline_from_submit {
            control.arm_deadline(Duration::from_millis(ms));
        }
        let job = st.next_job;
        st.next_job += 1;
        st.jobs.insert(
            job,
            JobEntry {
                tenant: tidx,
                spec,
                control,
                state: JobState::Queued,
            },
        );
        st.queue.push(tidx, job);
        if let Some(n) = st.inflight.get_mut(tidx) {
            *n += 1;
        }
        drop(st);
        self.wake.notify_all();
        Response::Job(job)
    }

    fn poll(&self, job: u64) -> Response {
        let st = self.locked();
        match st.jobs.get(&job) {
            None => unknown_job(job),
            Some(entry) => match &entry.state {
                JobState::Queued => Response::Queued,
                JobState::Running => {
                    let control = &entry.control;
                    let progress = control.progress();
                    Response::Running {
                        stages: progress.stages_done,
                        samples: progress.samples_spent,
                        // The latest-only watch view: reading it can
                        // neither block the solve nor miss the newest
                        // value, no matter how rarely clients poll.
                        incumbent: control
                            .latest_incumbent()
                            .map(|i| (i.willingness, node_ids(&i.nodes))),
                    }
                }
                JobState::Finished(response) => response.clone(),
            },
        }
    }

    fn wait(&self, job: u64) -> Response {
        let mut st = self.locked();
        loop {
            match st.jobs.get(&job) {
                None => return unknown_job(job),
                Some(entry) => match &entry.state {
                    JobState::Finished(response) => return response.clone(),
                    _ if st.shutdown => {
                        return err(ErrCode::Failed, "server is shutting down".to_string())
                    }
                    _ => {}
                },
            }
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn cancel(&self, job: u64) -> Response {
        let mut st = self.locked();
        let Some(entry) = st.jobs.get(&job) else {
            return unknown_job(job);
        };
        match &entry.state {
            // A queued job is still ours: it leaves the queue (a pop
            // marks a job running under this same lock) and ends here.
            JobState::Queued => {
                let tenant = entry.tenant;
                st.queue.remove(job);
                st.park_finished(job, Response::Cancelled, self.config.retain_finished);
                if let Some(n) = st.inflight.get_mut(tenant) {
                    *n -= 1;
                }
                drop(st);
                // A WAITer of this job is parked on the condvar.
                self.wake.notify_all();
            }
            // The solve stops at its next per-sample stop check; its
            // dispatch thread parks the (cancelled) outcome as usual.
            JobState::Running => entry.control.cancel(),
            JobState::Finished(_) => {}
        }
        Response::Cancelled
    }

    fn stats(&self) -> StatsReply {
        let pool = self.session.pool_stats();
        let memo = self.session.memo_stats();
        let st = self.locked();
        StatsReply {
            queued: st.queue.len() as u64,
            running: st.running as u64,
            finished: st.finished,
            shed: st.shed,
            tenants: self.config.tenants.len() as u64,
            pool_workers: pool.map_or(0, |p| p.threads as u64),
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_invalidated: memo.invalidated,
            memo_evicted: memo.evicted,
        }
    }

    /// One dispatch crew member: until shutdown, picks the next queued
    /// job round-robin across tenants, solves it on this thread under
    /// its control, and parks its response. The solve runs outside the
    /// lock, so POLL/SUBMIT stay responsive under dispatch.
    fn dispatch_loop(&self) {
        loop {
            let (job, spec, control) = {
                let mut st = self.locked();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if let Some(popped) = st.pop_dispatchable() {
                        break popped;
                    }
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Build failures (a constraint the solver cannot honour) and
            // solver panics (`SessionError::Panicked`) surface as this
            // job's terminal state.
            let response = match self.session.solve_with(&spec, control) {
                Ok(result) => done_response(&result),
                Err(e) => solve_error_response(&e),
            };
            self.finish_dispatched(job, response);
        }
    }

    /// Parks a dispatched job's terminal response and frees its slots.
    fn finish_dispatched(&self, job: u64, response: Response) {
        {
            let mut st = self.locked();
            if let Some(entry) = st.jobs.get(&job) {
                let tenant = entry.tenant;
                st.park_finished(job, response, self.config.retain_finished);
                if let Some(n) = st.inflight.get_mut(tenant) {
                    *n -= 1;
                }
            }
            // The running count drops even if the entry is gone, so
            // STATS never reports a finished job as running.
            st.running -= 1;
        }
        self.wake.notify_all();
    }
}

fn err(code: ErrCode, message: String) -> Response {
    Response::Error { code, message }
}

fn unknown_job(job: u64) -> Response {
    err(ErrCode::UnknownJob, format!("no job {job} on this server"))
}

/// Sorted ids — a canonical encoding, so clients can compare groups
/// across responses (and against direct solves) bytewise.
fn node_ids(nodes: &[NodeId]) -> Vec<u32> {
    let mut ids: Vec<u32> = nodes.iter().map(|v| v.0).collect();
    ids.sort_unstable();
    ids
}

fn done_response(result: &SolveResult) -> Response {
    Response::Done {
        termination: result.stats.termination,
        willingness: result.group.willingness(),
        nodes: node_ids(result.group.nodes()),
        samples: result.stats.samples_drawn,
    }
}

/// A cancelled job with no incumbent reports `CANCELLED`; every other
/// solve failure is an `ERR FAILED` carrying the session's message.
fn solve_error_response(error: &SessionError) -> Response {
    if let SessionError::Solve(SolveError::NoIncumbent {
        reason: Termination::Cancelled,
    }) = error
    {
        return Response::Cancelled;
    }
    err(ErrCode::Failed, error.to_string())
}

/// One connection: read a frame, handle, reply, repeat. An undecodable
/// frame gets `ERR BAD_FRAME` and the connection closes (the stream
/// cannot be resynced); a malformed request gets `ERR BAD_REQUEST` and
/// the connection lives on.
fn serve_connection(inner: &Inner, stream: TcpStream) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(None) | Err(_) => return,
            Ok(Some(Ok(payload))) => {
                let response = match Request::parse(&payload) {
                    Ok(request) => inner.handle(request),
                    Err(message) => err(ErrCode::BadRequest, message),
                };
                if write_frame(&mut writer, &response.to_string()).is_err() {
                    return;
                }
            }
            Ok(Some(Err(frame_error))) => {
                let response = err(ErrCode::BadFrame, frame_error.to_string());
                let _ = write_frame(&mut writer, &response.to_string());
                return;
            }
        }
    }
}

/// A blocking client for the `waso-serve` protocol — used by the tests,
/// the CI smoke script, and `waso-solve --server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One request/response round trip. Protocol-level refusals come
    /// back as [`Response::Error`]; an `Err` here is transport failure.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &request.to_string())?;
        match read_frame(&mut self.reader)? {
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Some(Err(e)) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Some(Ok(payload)) => {
                Response::parse(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
        }
    }

    pub fn submit(&mut self, tenant: &str, spec: &str) -> io::Result<Response> {
        self.call(&Request::Submit {
            tenant: tenant.to_string(),
            spec: spec.to_string(),
        })
    }

    pub fn poll(&mut self, job: u64) -> io::Result<Response> {
        self.call(&Request::Poll { job })
    }

    pub fn wait(&mut self, job: u64) -> io::Result<Response> {
        self.call(&Request::Wait { job })
    }

    pub fn cancel(&mut self, job: u64) -> io::Result<Response> {
        self.call(&Request::Cancel { job })
    }

    pub fn stats(&mut self) -> io::Result<Response> {
        self.call(&Request::Stats)
    }
}
