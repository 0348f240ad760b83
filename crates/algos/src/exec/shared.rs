//! [`SharedPool`] — the process-wide, self-healing worker pool.
//!
//! One set of owned worker threads serves **any number of concurrent
//! solves** ("jobs"): every `WasoSession` of a process can attach to the
//! same pool, and independent jobs of a `solve_batch` run over it at the
//! same time. Three ideas make that safe and fast:
//!
//! * **Job-level scheduling.** Every solve submits itself as a job with a
//!   unique id. Per stage, the job's coordinator deals the stage's item
//!   list across the workers ([`Deal::Striped`] round-robin or
//!   [`Deal::Chunked`] contiguous ranges) and tags each chunk with its
//!   job id and stage number (the job's *epoch*). Workers interleave
//!   chunks of different jobs in FIFO order, so a light job's chunks flow
//!   between a heavy job's chunks instead of queueing behind the heavy
//!   job as a whole.
//! * **Per-(job, worker) reply channels.** Each job attaches to each
//!   worker with its own reply channel. A worker that panics unwinds its
//!   job table, dropping every reply sender it held — so *every* attached
//!   job observes the death as a disconnect on its own result channel,
//!   never as a hang. `std::sync::mpsc` delivers all sent messages before
//!   reporting disconnection, so a reply that was actually produced is
//!   never re-drawn.
//! * **Generation-tagged slots.** Each worker slot carries a generation
//!   counter. The first coordinator to observe a death respawns the
//!   worker under the slot's lock and bumps the generation; coordinators
//!   that observed the same dead generation find it already healed,
//!   re-attach, and re-issue exactly the chunks whose replies never
//!   arrived. The pool never poisons: a panicked worker costs one respawn
//!   and a re-draw of its in-flight samples, nothing else.
//!
//! Determinism is untouched by any of this: samples draw from per-item
//! RNG streams and merge by item index, so *which* worker (or its
//! replacement) draws a sample — and in what deal pattern — is invisible
//! in results. A solve over a shared pool is bit-identical to the same
//! solve run serially, regardless of how many other jobs or sessions
//! share the pool (`tests/properties.rs` pins this down; the
//! failure-injection suite pins the healing path).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use waso_graph::NodeId;

use super::{draw_span, SolveCtx, Span, StageExec};
use crate::sampler::{Sample, Sampler};

/// How many consecutive instant worker deaths a coordinator tolerates
/// while healing one slot before concluding the failure is deterministic
/// (e.g. a sampler bug that kills every replacement too) and panicking
/// loudly instead of respawning forever.
const MAX_HEALS_PER_CHUNK: usize = 16;

/// How a job's stage items are dealt across the pool's workers. Both
/// deals cover every item exactly once and merge by item index, so they
/// produce **bit-identical results** — only the schedule differs.
/// Chunked deals keep each worker's items contiguous, which matters for
/// heavy-tailed per-sample costs (see the ROADMAP's work-stealing item).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Deal {
    /// Worker `w` of `T` draws items `w, w+T, w+2T, …` (the historical
    /// round-robin stripe).
    #[default]
    Striped,
    /// Worker `w` draws the contiguous range `[w·c, (w+1)·c)` with
    /// `c = ⌈items/T⌉`.
    Chunked,
}

/// The per-slot deal of one stage: which workers get which [`Span`]s.
/// Empty spans are skipped (no message, no reply).
fn deal_spans(deal: Deal, n_items: usize, workers: usize) -> Vec<(usize, Span)> {
    let workers = workers.max(1);
    match deal {
        Deal::Striped => (0..workers.min(n_items))
            .map(|w| (w, Span::stripe(w, workers)))
            .collect(),
        Deal::Chunked => {
            let c = n_items.div_ceil(workers).max(1);
            (0..workers)
                .map(|w| {
                    (
                        w,
                        Span {
                            offset: w * c,
                            stride: 1,
                            limit: c,
                        },
                    )
                })
                .filter(|&(_, span)| span.offset < n_items)
                .collect()
        }
    }
}

/// A message to a shared-pool worker. Every variant names the job it
/// belongs to; `Chunk` additionally carries the job's stage number — the
/// epoch tag the failure-injection hook keys on.
enum WorkerMsg {
    /// Start serving a job: build a sampler for its instance, hold its
    /// context and reply sender until `Detach`.
    Attach {
        job: u64,
        ctx: Arc<SolveCtx>,
        reply: Sender<ChunkReply>,
    },
    /// Draw one span of the job's current stage.
    Chunk {
        job: u64,
        stage: u64,
        span: Span,
        buf: Vec<(usize, Option<Sample>)>,
        recycled: Vec<Vec<NodeId>>,
    },
    /// The job is over; drop its context, sampler and reply sender.
    Detach { job: u64 },
}

/// One chunk's answer: the drawn `(item index, sample)` pairs plus the
/// emptied recycling container going back to the job's spares.
struct ChunkReply {
    buf: Vec<(usize, Option<Sample>)>,
    empties: Vec<Vec<NodeId>>,
    /// Whether the span was drawn in full (`false`: the job's stop signal
    /// tripped mid-span; the engine abandons the stage).
    complete: bool,
}

/// Worker-side state for one attached job.
struct WorkerJob {
    ctx: Arc<SolveCtx>,
    sampler: Sampler,
    reply: Sender<ChunkReply>,
}

/// The test-only failure hook: arms one `(slot, stage)` pair; the worker
/// in that slot panics on the first chunk it receives for that stage.
/// Fires once, then disarms itself.
#[derive(Default)]
struct FailPoint {
    armed: AtomicBool,
    plan: Mutex<Option<(usize, u64)>>,
}

impl FailPoint {
    fn arm(&self, slot: usize, stage: u64) {
        *self.plan.lock().unwrap_or_else(PoisonError::into_inner) = Some((slot, stage));
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Panics iff the armed plan matches; called by workers per chunk.
    fn check(&self, slot: usize, stage: u64) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let mut plan = self.plan.lock().unwrap_or_else(PoisonError::into_inner);
        if *plan == Some((slot, stage)) {
            *plan = None;
            self.armed.store(false, Ordering::SeqCst);
            drop(plan); // release before unwinding — don't poison the hook
                        // audit:allow(P2): test-only fault-injection hook — panicking on cue is its entire purpose, and it only fires when a test arms it
            panic!("injected failure: shared-pool worker {slot} at stage {stage}");
        }
    }
}

/// One worker slot of the pool. The generation counter distinguishes a
/// slot's successive incarnations, so concurrent coordinators that saw
/// the same death respawn at most one replacement.
struct Slot {
    generation: u64,
    tx: Sender<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
}

/// Per-slot utilization gauge, shared between the pool (snapshot reads)
/// and the slot's current worker thread (writes). The gauge belongs to
/// the *slot*, not the thread: a respawned replacement inherits it, so
/// `chunks_processed` counts the slot's lifetime work.
#[derive(Debug, Default)]
struct WorkerGauge {
    /// `true` while the worker is drawing a chunk (between dequeue and
    /// reply), `false` while parked on its inbox.
    busy: AtomicBool,
    /// Chunks the slot has fully processed over its lifetime.
    chunks: AtomicU64,
}

/// A point-in-time utilization snapshot of one worker slot
/// (see [`SharedPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Whether the worker was mid-chunk when the snapshot was taken.
    pub busy: bool,
    /// Chunks the slot has processed over the pool's lifetime.
    pub chunks_processed: u64,
}

/// A point-in-time health snapshot of a [`SharedPool`] — the
/// observability surface a serving deployment scrapes (and the
/// `--figure pool` bench driver prints). All numbers are racy by nature:
/// they describe the instant of the call, not a consistent cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker count (fixed at construction).
    pub threads: usize,
    /// Jobs currently attached (submitted, not yet finished/dropped).
    pub active_jobs: usize,
    /// Per-job queue depth: chunks dispatched to workers and not yet
    /// collected, keyed by job id. A consistently deep entry is a job
    /// whose coordinator is falling behind (or a saturated pool).
    pub queued_chunks: Vec<(u64, u64)>,
    /// Per-slot busy/idle flags and lifetime chunk counters.
    pub workers: Vec<WorkerStats>,
    /// Workers respawned after a panic ([`SharedPool::respawned_workers`]).
    pub respawned_workers: u64,
}

impl PoolStats {
    /// Total in-flight chunks across every active job.
    pub fn total_queued(&self) -> u64 {
        self.queued_chunks.iter().map(|&(_, d)| d).sum()
    }

    /// Workers busy at snapshot time.
    pub fn busy_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.busy).count()
    }
}

impl std::fmt::Display for PoolStats {
    /// One line for logs/benches: `3 workers (1 busy), 2 jobs, 5 queued
    /// chunks, 0 respawns`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} workers ({} busy), {} jobs, {} queued chunks, {} respawns",
            self.threads,
            self.busy_workers(),
            self.active_jobs,
            self.total_queued(),
            self.respawned_workers
        )
    }
}

/// The process-wide, self-healing worker pool. See the module docs for
/// the scheduling and recovery model; construction is [`SharedPool::new`]
/// (round-robin deal) or [`SharedPool::with_deal`]. Share one across
/// sessions with `Arc<SharedPool>` — every method takes `&self`.
pub struct SharedPool {
    slots: Vec<Mutex<Slot>>,
    /// Slot-lifetime utilization gauges; replacements inherit their
    /// slot's gauge.
    gauges: Vec<Arc<WorkerGauge>>,
    threads: usize,
    deal: Deal,
    next_job: AtomicU64,
    respawns: AtomicU64,
    /// In-flight chunk counts per active job (dispatched, not collected).
    job_depths: Mutex<BTreeMap<u64, u64>>,
    fail: Arc<FailPoint>,
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool")
            .field("threads", &self.threads)
            .field("deal", &self.deal)
            .field("respawns", &self.respawns.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn spawn_worker(
    slot: usize,
    fail: Arc<FailPoint>,
    gauge: Arc<WorkerGauge>,
) -> (Sender<WorkerMsg>, JoinHandle<()>) {
    let (tx, rx) = channel::<WorkerMsg>();
    let handle = std::thread::Builder::new()
        .name(format!("waso-pool-{slot}"))
        .spawn(move || worker_loop(slot, rx, fail, gauge))
        // audit:allow(P2): thread exhaustion at pool construction/heal — a pool that cannot run workers cannot make progress, so fail fast
        .expect("spawning a shared-pool worker thread");
    (tx, handle)
}

/// The worker body: a job table keyed by job id, chunks drawn with the
/// job's own sampler and answered on the job's own reply channel. A chunk
/// for an unknown job id is stale (the job detached or its coordinator
/// died) and is dropped; a reply that cannot be delivered detaches the
/// job explicitly — teardown never depends on channel-drop ordering.
fn worker_loop(
    slot: usize,
    rx: Receiver<WorkerMsg>,
    fail: Arc<FailPoint>,
    gauge: Arc<WorkerGauge>,
) {
    let mut jobs: BTreeMap<u64, WorkerJob> = BTreeMap::new();
    // A replacement inherits its slot's gauge; clear the busy flag its
    // panicked predecessor may have left set.
    gauge.busy.store(false, Ordering::Relaxed);
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Attach { job, ctx, reply } => {
                let mut sampler = Sampler::for_instance(&ctx.instance);
                sampler.set_blocked(ctx.blocked.clone());
                jobs.insert(
                    job,
                    WorkerJob {
                        ctx,
                        sampler,
                        reply,
                    },
                );
            }
            WorkerMsg::Detach { job } => {
                jobs.remove(&job);
            }
            WorkerMsg::Chunk {
                job,
                stage,
                span,
                mut buf,
                mut recycled,
            } => {
                gauge.busy.store(true, Ordering::Relaxed);
                fail.check(slot, stage);
                let Some(entry) = jobs.get_mut(&job) else {
                    gauge.busy.store(false, Ordering::Relaxed);
                    continue; // stale chunk of a detached job
                };
                buf.clear();
                for spent in recycled.drain(..) {
                    entry.sampler.recycle(spent);
                }
                let complete = draw_span(
                    &mut entry.sampler,
                    &entry.ctx.instance,
                    &entry.ctx.shared,
                    entry.ctx.partial.as_deref(),
                    stage,
                    entry.ctx.seed,
                    span,
                    entry.ctx.stop.as_deref(),
                    &mut buf,
                );
                // Gauge updates precede the reply send: the channel's
                // synchronization publishes them, so a coordinator that
                // has collected every reply observes an idle pool.
                gauge.chunks.fetch_add(1, Ordering::Relaxed);
                gauge.busy.store(false, Ordering::Relaxed);
                let gone = entry
                    .reply
                    .send(ChunkReply {
                        buf,
                        empties: recycled,
                        complete,
                    })
                    .is_err();
                if gone {
                    jobs.remove(&job); // coordinator gone: explicit detach
                }
            }
        }
    }
}

impl SharedPool {
    /// A pool of `threads` owned workers (clamped to ≥ 1), round-robin
    /// deal.
    pub fn new(threads: usize) -> Self {
        Self::with_deal(threads, Deal::Striped)
    }

    /// A pool with an explicit [`Deal`]. The deal affects scheduling
    /// only — results are bit-identical either way.
    pub fn with_deal(threads: usize, deal: Deal) -> Self {
        let threads = threads.max(1);
        let fail = Arc::new(FailPoint::default());
        let gauges: Vec<Arc<WorkerGauge>> = (0..threads)
            .map(|_| Arc::new(WorkerGauge::default()))
            .collect();
        let slots = gauges
            .iter()
            .enumerate()
            .map(|(s, gauge)| {
                let (tx, handle) = spawn_worker(s, Arc::clone(&fail), Arc::clone(gauge));
                Mutex::new(Slot {
                    generation: 0,
                    tx,
                    handle: Some(handle),
                })
            })
            .collect();
        Self {
            slots,
            gauges,
            threads,
            deal,
            next_job: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            job_depths: Mutex::new(BTreeMap::new()),
            fail,
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The deal pattern jobs are scheduled with.
    pub fn deal(&self) -> Deal {
        self.deal
    }

    /// How many workers have been respawned after a panic over the pool's
    /// lifetime. Zero on a healthy pool; observability for the
    /// failure-injection suite and for serving-side health checks.
    pub fn respawned_workers(&self) -> u64 {
        self.respawns.load(Ordering::SeqCst)
    }

    /// A point-in-time health snapshot: active jobs, per-job queue
    /// depths (chunks dispatched but not yet collected), per-worker
    /// busy/idle flags and lifetime chunk counters, and the respawn
    /// count. Cheap — a handful of relaxed atomic loads plus one short
    /// lock — so serving deployments can scrape it on every health poll.
    pub fn stats(&self) -> PoolStats {
        let queued_chunks: Vec<(u64, u64)> = self
            .job_depths
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&job, &depth)| (job, depth))
            .collect();
        PoolStats {
            threads: self.threads,
            active_jobs: queued_chunks.len(),
            queued_chunks,
            workers: self
                .gauges
                .iter()
                .map(|g| WorkerStats {
                    busy: g.busy.load(Ordering::Relaxed),
                    chunks_processed: g.chunks.load(Ordering::Relaxed),
                })
                .collect(),
            respawned_workers: self.respawned_workers(),
        }
    }

    /// Adjusts one job's in-flight chunk gauge (`None` removes the job).
    fn track_depth(&self, job: u64, delta: Option<i64>) {
        let mut depths = self
            .job_depths
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match delta {
            None => {
                depths.remove(&job);
            }
            Some(d) => {
                let slot = depths.entry(job).or_insert(0);
                *slot = slot.saturating_add_signed(d);
            }
        }
    }

    /// Test-only failure injection: the worker in `slot` panics on the
    /// next chunk it receives for stage `stage` (of any job). Fires once.
    /// The pool detects the death, respawns the worker and re-issues the
    /// lost samples — results are unchanged; see the failure-injection
    /// test suite. A `slot >= threads()` never fires. Hidden from the
    /// documented API: this exists for the cross-crate test suites and
    /// chaos drills, not for production callers (when disarmed — always,
    /// outside those suites — it costs one relaxed atomic load per
    /// chunk).
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, slot: usize, stage: u64) {
        self.fail.arm(slot, stage);
    }

    /// Submits one solve as a job: attaches it to every worker and
    /// returns its coordinator handle (the solve's [`StageExec`]).
    /// Dropping the handle detaches the job.
    pub(crate) fn submit(&self, ctx: Arc<SolveCtx>) -> PoolJob<'_> {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.track_depth(id, Some(0)); // job is now visible in stats()
        let mut job = PoolJob {
            pool: self,
            ctx,
            id,
            links: Vec::with_capacity(self.threads),
            spare_bufs: Vec::new(),
            spare_containers: Vec::new(),
        };
        for s in 0..self.threads {
            job.relink(s, None);
        }
        job
    }

    /// The current `(sender, generation)` of `slot`, respawning its
    /// worker first when the caller observed generation `seen_dead` fail.
    /// Slot locks serialize respawns: whichever coordinator gets there
    /// first replaces the thread, everyone else sees the bumped
    /// generation and just re-attaches. `None` for an out-of-range slot
    /// — callers treat that like a dead worker they cannot heal.
    fn live_slot(&self, slot: usize, seen_dead: Option<u64>) -> Option<(Sender<WorkerMsg>, u64)> {
        let mut guard = self
            .slots
            .get(slot)?
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if seen_dead == Some(guard.generation) {
            if let Some(handle) = guard.handle.take() {
                // The thread has panicked (or is unwinding); join returns
                // its Err payload, which the respawn supersedes.
                let _ = handle.join();
            }
            let gauge = self.gauges.get(slot).map(Arc::clone).unwrap_or_default();
            let (tx, handle) = spawn_worker(slot, Arc::clone(&self.fail), gauge);
            guard.tx = tx;
            guard.handle = Some(handle);
            guard.generation += 1;
            self.respawns.fetch_add(1, Ordering::SeqCst);
        }
        Some((guard.tx.clone(), guard.generation))
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        // Explicit shutdown: close every worker's inbox first (all
        // workers start exiting concurrently), then join. Jobs cannot be
        // in flight here — a live job borrows the pool.
        for slot in &mut self.slots {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            let (dead_tx, _) = channel();
            slot.tx = dead_tx;
        }
        for slot in &mut self.slots {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if let Some(handle) = slot.handle.take() {
                // A worker that panicked already surfaced the failure to
                // its coordinators; the join result adds nothing here.
                let _ = handle.join();
            }
        }
    }
}

/// A job's link to one worker slot: the slot's sender as of the
/// generation the job last attached at, plus the job's private reply
/// channel for that worker.
struct Link {
    tx: Sender<WorkerMsg>,
    generation: u64,
    reply_rx: Receiver<ChunkReply>,
}

/// One solve's coordinator handle over a [`SharedPool`]: submits a chunk
/// per worker per stage, collects and merges the replies, and heals dead
/// workers as it finds them. Detaches the job from every worker on drop.
pub(crate) struct PoolJob<'p> {
    pool: &'p SharedPool,
    ctx: Arc<SolveCtx>,
    id: u64,
    links: Vec<Link>,
    /// Result buffers returned by collected chunks, reused by the next
    /// stage's dispatches.
    spare_bufs: Vec<Vec<(usize, Option<Sample>)>>,
    /// Emptied node-buffer containers, refilled from the slab on dispatch.
    spare_containers: Vec<Vec<Vec<NodeId>>>,
}

impl PoolJob<'_> {
    /// (Re-)attaches this job to `slot`. `seen_dead` carries the
    /// generation the caller observed failing (None on first attach);
    /// the pool respawns the worker if nobody else has yet.
    fn relink(&mut self, slot: usize, seen_dead: Option<u64>) {
        let mut seen = seen_dead;
        for _ in 0..MAX_HEALS_PER_CHUNK {
            // An out-of-range slot cannot be healed; fall through to the
            // give-up abort below instead of indexing out of bounds.
            let Some((tx, generation)) = self.pool.live_slot(slot, seen) else {
                break;
            };
            let (reply_tx, reply_rx) = channel();
            let attached = tx
                .send(WorkerMsg::Attach {
                    job: self.id,
                    ctx: Arc::clone(&self.ctx),
                    reply: reply_tx,
                })
                .is_ok();
            if attached {
                let link = Link {
                    tx,
                    generation,
                    reply_rx,
                };
                if let Some(l) = self.links.get_mut(slot) {
                    *l = link;
                } else {
                    debug_assert_eq!(slot, self.links.len());
                    self.links.push(link);
                }
                return;
            }
            // The replacement died before taking the attach — treat this
            // generation as dead too and try again.
            seen = Some(generation);
        }
        // audit:allow(P2): designed abort — after MAX_HEALS_PER_CHUNK consecutive respawn failures the host is too sick to solve; the serve waiter thread shields jobs with catch_unwind
        panic!("shared-pool worker {slot} died {MAX_HEALS_PER_CHUNK} times in a row; giving up");
    }

    /// Sends one chunk to `slot`, healing (respawn + re-attach) on a dead
    /// worker until the send lands.
    fn dispatch(
        &mut self,
        slot: usize,
        stage: u64,
        span: Span,
        slab: &mut Vec<Vec<NodeId>>,
        per_worker: usize,
    ) {
        let buf = self.spare_bufs.pop().unwrap_or_default();
        // Up to `per_worker` spent node buffers ride along to the worker.
        let mut recycled = self.spare_containers.pop().unwrap_or_default();
        let cut = slab.len().saturating_sub(per_worker);
        recycled.extend(slab.drain(cut..));
        let mut msg = WorkerMsg::Chunk {
            job: self.id,
            stage,
            span,
            buf,
            recycled,
        };
        loop {
            // deal_spans only produces slots in 0..links.len(), so a
            // missing link is unreachable; drop the chunk over panicking.
            let Some(link) = self.links.get(slot) else {
                debug_assert!(false, "dispatch to unlinked slot {slot}");
                return;
            };
            match link.tx.send(msg) {
                Ok(()) => {
                    self.pool.track_depth(self.id, Some(1));
                    return;
                }
                Err(std::sync::mpsc::SendError(undelivered)) => {
                    // Dead worker noticed at dispatch: heal, then re-send
                    // the identical chunk. relink panics if replacements
                    // keep dying, so this loop terminates.
                    let seen = link.generation;
                    self.relink(slot, Some(seen));
                    msg = undelivered;
                }
            }
        }
    }

    /// Collects `slot`'s reply for the given chunk, healing and
    /// re-issuing the chunk when the worker died with it in flight.
    /// Returns whether the chunk was drawn in full (`false`: the job's
    /// stop signal tripped mid-span).
    fn collect(
        &mut self,
        slot: usize,
        stage: u64,
        span: Span,
        results: &mut [Option<Sample>],
    ) -> bool {
        for _ in 0..MAX_HEALS_PER_CHUNK {
            // Same invariant as dispatch: every dealt slot has a link.
            let Some(link) = self.links.get(slot) else {
                debug_assert!(false, "collect from unlinked slot {slot}");
                return false;
            };
            match link.reply_rx.recv() {
                Ok(ChunkReply {
                    mut buf,
                    empties,
                    complete,
                }) => {
                    for (j, s) in buf.drain(..) {
                        if let Some(r) = results.get_mut(j) {
                            *r = s;
                        }
                    }
                    self.spare_bufs.push(buf);
                    self.spare_containers.push(empties);
                    self.pool.track_depth(self.id, Some(-1));
                    return complete;
                }
                Err(_) => {
                    // The worker died before answering: its in-flight
                    // samples were never drawn (mpsc delivers every sent
                    // reply before disconnecting), so re-issuing the span
                    // draws each exactly once. The dead worker's buffers
                    // are gone; the replacement starts with fresh ones.
                    let seen = link.generation;
                    self.relink(slot, Some(seen));
                    if let Some(link) = self.links.get(slot) {
                        let _ = link.tx.send(WorkerMsg::Chunk {
                            job: self.id,
                            stage,
                            span,
                            buf: Vec::new(),
                            recycled: Vec::new(),
                        });
                    }
                    // A failed re-send means the replacement died too; the
                    // next recv errors immediately and we heal again.
                }
            }
        }
        // audit:allow(P2): designed abort — after MAX_HEALS_PER_CHUNK consecutive worker deaths on one chunk the host is too sick to solve; the serve waiter thread shields jobs with catch_unwind
        panic!(
            "shared-pool worker {slot} died {MAX_HEALS_PER_CHUNK} times re-drawing one chunk; giving up"
        );
    }
}

impl StageExec for PoolJob<'_> {
    fn run_stage(
        &mut self,
        stage: u64,
        results: &mut [Option<Sample>],
        slab: &mut Vec<Vec<NodeId>>,
    ) -> bool {
        let spans = deal_spans(self.pool.deal, results.len(), self.links.len());
        let per_worker = slab.len().div_ceil(spans.len().max(1));
        for &(slot, span) in &spans {
            self.dispatch(slot, stage, span, slab, per_worker);
        }
        // Every dispatched chunk is collected even after one comes back
        // incomplete — workers answer in order, and leaving a reply in
        // flight would corrupt the next stage.
        let mut all_complete = true;
        for &(slot, span) in &spans {
            all_complete &= self.collect(slot, stage, span, results);
        }
        all_complete
    }
}

impl Drop for PoolJob<'_> {
    fn drop(&mut self) {
        self.pool.track_depth(self.id, None);
        for link in &self.links {
            // Explicit detach; a dead worker (send error) holds no state
            // for this job anyway, and replies still in flight are
            // dropped with our receiver — teardown is ordering-free.
            let _ = link.tx.send(WorkerMsg::Detach { job: self.id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{StageShared, WorkItem};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waso_core::WasoInstance;
    use waso_graph::{generate, ScoreModel};

    fn instance(n: usize, k: usize, seed: u64) -> Arc<WasoInstance> {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate::barabasi_albert(n, 3, &mut rng);
        let g = ScoreModel::paper_default().realize(&topo, &mut rng);
        Arc::new(WasoInstance::new(g, k).unwrap())
    }

    /// A fresh one-stage context: `samples` draws of start node 0.
    fn ctx_with_items(inst: &Arc<WasoInstance>, samples: usize, seed: u64) -> Arc<SolveCtx> {
        let shared = StageShared::new(Vec::new(), 1);
        {
            let mut items = shared.write_items();
            for q in 0..samples {
                items.push(WorkItem {
                    start_index: 0,
                    start: waso_graph::NodeId(0),
                    q: q as u64,
                });
            }
        }
        Arc::new(SolveCtx {
            instance: Arc::clone(inst),
            blocked: None,
            shared,
            seed,
            partial: None,
            stop: None,
        })
    }

    fn stage_results(pool: &SharedPool, ctx: &Arc<SolveCtx>, samples: usize) -> Vec<Option<f64>> {
        let mut job = pool.submit(Arc::clone(ctx));
        let mut results: Vec<Option<Sample>> = vec![None; samples];
        let mut slab = Vec::new();
        job.run_stage(0, &mut results, &mut slab);
        results
            .into_iter()
            .map(|s| s.map(|s| s.willingness))
            .collect()
    }

    #[test]
    fn deals_cover_every_item_exactly_once() {
        for deal in [Deal::Striped, Deal::Chunked] {
            for n in [0usize, 1, 3, 7, 8, 23] {
                for workers in [1usize, 2, 4, 8] {
                    let spans = deal_spans(deal, n, workers);
                    let mut seen = vec![0u32; n];
                    for &(_, span) in &spans {
                        let mut j = span.offset;
                        let mut left = span.limit;
                        while j < n && left > 0 {
                            seen[j] += 1;
                            j += span.stride;
                            left -= 1;
                        }
                    }
                    assert!(
                        seen.iter().all(|&c| c == 1),
                        "{deal:?} n={n} workers={workers}: {seen:?}"
                    );
                    // No empty assignments are dealt.
                    assert!(spans.iter().all(|&(_, s)| s.offset < n || n == 0));
                }
            }
        }
    }

    #[test]
    fn striped_and_chunked_deals_agree() {
        let inst = instance(40, 4, 1);
        for threads in [1usize, 2, 3, 8] {
            let striped = SharedPool::with_deal(threads, Deal::Striped);
            let chunked = SharedPool::with_deal(threads, Deal::Chunked);
            let a = stage_results(&striped, &ctx_with_items(&inst, 17, 7), 17);
            let b = stage_results(&chunked, &ctx_with_items(&inst, 17, 7), 17);
            assert_eq!(a, b, "threads={threads}");
            assert!(a.iter().any(|s| s.is_some()));
        }
    }

    #[test]
    fn concurrent_jobs_from_many_threads_are_independent() {
        let pool = SharedPool::new(3);
        let inst = instance(50, 5, 2);
        // Baseline: each job alone.
        let baselines: Vec<_> = (0..4u64)
            .map(|seed| stage_results(&pool, &ctx_with_items(&inst, 12, seed), 12))
            .collect();
        // The same four jobs raced from four OS threads.
        let raced: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|seed| {
                    let pool = &pool;
                    let inst = &inst;
                    scope.spawn(move || stage_results(pool, &ctx_with_items(inst, 12, seed), 12))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(baselines, raced);
        assert_eq!(pool.respawned_workers(), 0);
    }

    #[test]
    fn injected_panic_heals_and_redraws_in_flight_samples() {
        let inst = instance(40, 4, 3);
        let healthy = {
            let pool = SharedPool::new(2);
            stage_results(&pool, &ctx_with_items(&inst, 10, 5), 10)
        };
        for slot in 0..2 {
            let pool = SharedPool::new(2);
            pool.inject_worker_panic(slot, 0);
            let wounded = stage_results(&pool, &ctx_with_items(&inst, 10, 5), 10);
            assert_eq!(wounded, healthy, "slot={slot}");
            assert_eq!(pool.respawned_workers(), 1, "slot={slot}");
            // The healed pool keeps serving new jobs.
            let again = stage_results(&pool, &ctx_with_items(&inst, 10, 5), 10);
            assert_eq!(again, healthy, "slot={slot}");
            assert_eq!(pool.respawned_workers(), 1, "slot={slot}");
        }
    }

    #[test]
    fn job_drop_with_chunk_in_flight_neither_hangs_nor_wedges_the_pool() {
        // The regression for relying on channel-drop ordering: a job is
        // dropped with a dispatched, uncollected chunk. The worker's
        // reply send fails (our receiver is gone) and it must detach the
        // job explicitly; the pool then serves the next job normally and
        // drops without hanging.
        let inst = instance(30, 3, 4);
        let pool = SharedPool::new(2);
        {
            let ctx = ctx_with_items(&inst, 8, 9);
            let mut job = pool.submit(Arc::clone(&ctx));
            let mut slab = Vec::new();
            job.dispatch(0, 0, Span::stripe(0, 2), &mut slab, 0);
            // Dropped here: detach overtakes (or trails) the in-flight
            // reply — either order must be harmless.
        }
        let ctx = ctx_with_items(&inst, 8, 9);
        let results = stage_results(&pool, &ctx, 8);
        assert!(results.iter().any(|s| s.is_some()));
        assert_eq!(pool.respawned_workers(), 0);
        drop(pool); // must join cleanly — a hang fails the test by timeout
    }

    #[test]
    fn stats_track_jobs_chunks_and_workers() {
        let inst = instance(40, 4, 8);
        let pool = SharedPool::new(2);
        // Idle pool: no jobs, nothing queued, nobody busy, no work done.
        let idle = pool.stats();
        assert_eq!(idle.threads, 2);
        assert_eq!(idle.active_jobs, 0);
        assert_eq!(idle.total_queued(), 0);
        assert_eq!(idle.busy_workers(), 0);
        assert_eq!(idle.workers.len(), 2);

        // A job with one dispatched, uncollected chunk shows up in the
        // per-job queue depths.
        let ctx = ctx_with_items(&inst, 8, 3);
        let mut job = pool.submit(Arc::clone(&ctx));
        let mut slab = Vec::new();
        let mid = pool.stats();
        assert_eq!(mid.active_jobs, 1);
        job.dispatch(0, 0, Span::stripe(0, 2), &mut slab, 0);
        let busy = pool.stats();
        assert_eq!(busy.queued_chunks.len(), 1);
        assert_eq!(busy.total_queued(), 1);
        job.collect(0, 0, Span::stripe(0, 2), &mut vec![None; 8]);
        let collected = pool.stats();
        assert_eq!(collected.total_queued(), 0);
        assert_eq!(collected.active_jobs, 1, "job still attached");
        drop(job);

        // After a full stage the job is gone and the workers have
        // processed its chunks.
        let _ = stage_results(&pool, &ctx_with_items(&inst, 8, 3), 8);
        let done = pool.stats();
        assert_eq!(done.active_jobs, 0);
        assert_eq!(done.busy_workers(), 0);
        let total: u64 = done.workers.iter().map(|w| w.chunks_processed).sum();
        assert!(total >= 3, "both stages' chunks counted: {total}");
        assert_eq!(done.respawned_workers, 0);
        // The one-liner renders every gauge.
        let line = done.to_string();
        assert!(line.contains("2 workers"), "{line}");
        assert!(line.contains("0 jobs"), "{line}");
    }

    #[test]
    fn stale_links_heal_at_dispatch_after_another_jobs_panic() {
        // Two jobs share a one-worker pool. Job A's chunk triggers the
        // injected panic and A heals at collect; job B's link predates
        // the death, so B's next dispatch hits the send-error path and
        // must re-attach to the replacement — without a second respawn.
        let inst = instance(30, 3, 6);
        let healthy = {
            let p = SharedPool::new(1);
            stage_results(&p, &ctx_with_items(&inst, 6, 1), 6)
        };
        let pool = SharedPool::new(1);
        let ctx_b = ctx_with_items(&inst, 6, 1);
        let mut job_b = pool.submit(Arc::clone(&ctx_b));
        pool.inject_worker_panic(0, 0);
        let a = stage_results(&pool, &ctx_with_items(&inst, 6, 1), 6);
        assert_eq!(a, healthy);
        assert_eq!(pool.respawned_workers(), 1);
        let mut results: Vec<Option<Sample>> = vec![None; 6];
        let mut slab = Vec::new();
        job_b.run_stage(0, &mut results, &mut slab);
        let b: Vec<_> = results
            .into_iter()
            .map(|s| s.map(|s| s.willingness))
            .collect();
        assert_eq!(b, healthy);
        assert_eq!(pool.respawned_workers(), 1, "no spurious second respawn");
    }
}
