//! [`SharedPool`] — the process-wide worker pool.
//!
//! One set of owned worker threads serves **any number of concurrent
//! solves** ("jobs"): every `WasoSession` of a process can attach to the
//! same pool, and independent jobs of a `solve_batch` run over it at the
//! same time. Three ideas make that safe and fast:
//!
//! * **Stateless workers.** Per stage, a job deals its item list
//!   round-robin across the workers. Each chunk carries everything a
//!   worker needs: the job's context, the stage number (the epoch tag
//!   the failure-injection hook keys on), the span, and a sender on the
//!   stage's own reply channel. Workers interleave chunks of different
//!   jobs in FIFO order, so a light job's chunks flow between a heavy
//!   job's chunks instead of queueing behind the heavy job as a whole.
//!   A worker's only state is one scratch `Sampler`, sized to the
//!   largest graph it has served: a sampler draws any graph of at most
//!   its node count, every draw resets its workspace, and the chunk's
//!   blocked set is applied before each chunk.
//! * **One reply channel per stage.** The job holds the only receiver
//!   and drops its own sender once the stage's chunks are sent, so the
//!   reply senders live only inside chunks. A worker that somehow exits
//!   drops the chunks queued for it, the stage's channel disconnects
//!   before all replies arrive, and the job panics loudly — never a hang.
//! * **Re-draw in place.** A worker draws each chunk under
//!   `catch_unwind`. A panicking draw costs the worker its sampler (its
//!   workspace may be mid-update): the worker builds a fresh one and
//!   draws the whole span again. The thread never dies, so no job ever
//!   loses its worker. After `MAX_REDRAWS_PER_CHUNK` panics in a row
//!   the failure is deterministic (a sampler bug, not a fluke): the
//!   worker answers "gave up" and the job's coordinator panics.
//!
//! Determinism is untouched by any of this: samples draw from per-item
//! RNG streams and merge by item index, so *which* worker draws a
//! sample, in which order the replies arrive, and how many times a
//! chunk is drawn are invisible in results. A solve over a shared pool
//! is bit-identical to the same solve run serially, regardless of how
//! many other jobs or sessions share the pool (`tests/properties.rs`
//! pins this down; the failure-injection suite pins the re-draw path).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use super::{draw_span, SolveCtx, Span, StageExec};
use crate::sampler::{Sample, Sampler};

/// How many panics in a row a worker tolerates while drawing one chunk
/// before concluding the failure is deterministic (e.g. a sampler bug
/// that every fresh sampler hits too) and giving the chunk up.
const MAX_REDRAWS_PER_CHUNK: u32 = 16;

/// The per-slot deal of one stage: worker `w` of `T` draws items
/// `w, w+T, w+2T, …`. Every item is dealt exactly once and results merge
/// by item index, so the deal affects only the schedule. Empty spans are
/// skipped (no message, no reply).
fn deal_spans(n_items: usize, workers: usize) -> Vec<(usize, Span)> {
    let workers = workers.max(1);
    (0..workers.min(n_items))
        .map(|w| (w, Span::stripe(w, workers)))
        .collect()
}

/// One span of one job's stage, for one worker to draw.
struct Chunk {
    ctx: Arc<SolveCtx>,
    stage: u64,
    span: Span,
    /// A sender on the stage's reply channel.
    reply: Sender<ChunkReply>,
}

/// One chunk's answer: the drawn `(item index, sample)` pairs.
struct ChunkReply {
    buf: Vec<(usize, Option<Sample>)>,
    /// Whether the span was drawn in full (`false`: the job's stop signal
    /// tripped mid-span; the engine abandons the stage). `None`: every
    /// one of [`MAX_REDRAWS_PER_CHUNK`] draws panicked and the worker
    /// gave the chunk up.
    complete: Option<bool>,
}

/// The test-only failure hook: arms one `(slot, stage)` pair with a
/// number of fires; the worker in that slot panics on that many draws
/// of that stage's chunks, then the hook disarms itself.
#[derive(Default)]
struct FailPoint {
    armed: AtomicBool,
    plan: Mutex<Option<(usize, u64, u32)>>,
}

impl FailPoint {
    fn arm(&self, slot: usize, stage: u64, fires: u32) {
        *self.plan.lock().unwrap_or_else(PoisonError::into_inner) = Some((slot, stage, fires));
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Panics iff the armed plan matches; called by workers per draw,
    /// inside the draw's `catch_unwind`.
    fn check(&self, slot: usize, stage: u64) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let mut plan = self.plan.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, fires)) = plan.filter(|&(s, st, _)| (s, st) == (slot, stage)) {
            *plan = (fires > 1).then(|| (slot, stage, fires - 1));
            self.armed.store(plan.is_some(), Ordering::SeqCst);
            drop(plan); // release before unwinding — don't poison the hook
            panic!("injected failure: shared-pool worker {slot} at stage {stage}");
        }
    }
}

/// State every worker shares with the pool: the failure hook and the
/// re-draw counter.
#[derive(Default)]
struct PoolShared {
    fail: FailPoint,
    redraws: AtomicU64,
}

/// Per-slot utilization gauge, shared between the pool (snapshot reads)
/// and the slot's worker thread (writes).
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
/// observability surface a serving deployment scrapes. All numbers are
/// racy by nature: they describe the instant of the call, not a
/// consistent cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker count (fixed at construction).
    pub threads: usize,
    /// Jobs submitted and not yet dropped.
    pub active_jobs: usize,
    /// Per-slot busy/idle flags and lifetime chunk counters.
    pub workers: Vec<WorkerStats>,
    /// Chunk draws that panicked and were discarded
    /// ([`SharedPool::redrawn_chunks`]).
    pub redrawn_chunks: u64,
}

impl PoolStats {
    /// Workers busy at snapshot time.
    pub fn busy_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.busy).count()
    }
}

impl std::fmt::Display for PoolStats {
    /// One line for logs/benches: `3 workers (1 busy), 2 jobs, 0 re-draws`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} workers ({} busy), {} jobs, {} re-draws",
            self.threads,
            self.busy_workers(),
            self.active_jobs,
            self.redrawn_chunks
        )
    }
}

/// The process-wide worker pool. See the module docs for the scheduling
/// and panic model; construction is [`SharedPool::new`]. Share one
/// across sessions with `Arc<SharedPool>` — every method takes `&self`.
pub struct SharedPool {
    /// Each worker's inbox, by slot.
    inboxes: Vec<Sender<Chunk>>,
    workers: Vec<JoinHandle<()>>,
    gauges: Vec<Arc<WorkerGauge>>,
    /// Jobs submitted and not yet dropped.
    active_jobs: AtomicUsize,
    shared: Arc<PoolShared>,
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool")
            .field("threads", &self.threads())
            .field("redrawn_chunks", &self.redrawn_chunks())
            .finish_non_exhaustive()
    }
}

/// The worker body: draw each chunk with the worker's scratch sampler and
/// answer on the chunk's own reply sender. A job that stopped listening
/// (its receiver is gone) just loses the reply.
fn worker_loop(slot: usize, rx: Receiver<Chunk>, shared: &PoolShared, gauge: &WorkerGauge) {
    // The worker's one sampler and the node count it was built for.
    let mut scratch: Option<(usize, Sampler)> = None;
    while let Ok(chunk) = rx.recv() {
        gauge.busy.store(true, Ordering::Relaxed);
        let mut buf = Vec::new();
        let complete = draw_chunk(slot, shared, &mut scratch, &chunk, &mut buf);
        // Gauge updates precede the reply send: the channel's
        // synchronization publishes them, so a coordinator that has
        // collected every reply observes an idle pool.
        gauge.chunks.fetch_add(1, Ordering::Relaxed);
        gauge.busy.store(false, Ordering::Relaxed);
        let _ = chunk.reply.send(ChunkReply { buf, complete });
    }
}

/// Draws `chunk` into `buf`, catching panics. The scratch sampler is
/// rebuilt for the chunk's instance when it holds fewer nodes than the
/// chunk's graph, and after a panicked draw (its workspace may be
/// mid-update); the whole span is then drawn again, bit-identically,
/// since every item has its own RNG stream. `None` after
/// [`MAX_REDRAWS_PER_CHUNK`] panics in a row.
fn draw_chunk(
    slot: usize,
    shared: &PoolShared,
    scratch: &mut Option<(usize, Sampler)>,
    chunk: &Chunk,
    buf: &mut Vec<(usize, Option<Sample>)>,
) -> Option<bool> {
    let ctx = &chunk.ctx;
    let nodes = ctx.instance.graph().num_nodes();
    for _ in 0..MAX_REDRAWS_PER_CHUNK {
        buf.clear();
        let kept = scratch.take().filter(|&(held, _)| held >= nodes);
        let (_, sampler) =
            scratch.insert(kept.unwrap_or_else(|| (nodes, Sampler::for_instance(&ctx.instance))));
        sampler.set_blocked(ctx.blocked.clone());
        let drawn = catch_unwind(AssertUnwindSafe(|| {
            shared.fail.check(slot, chunk.stage);
            draw_span(sampler, ctx, chunk.stage, chunk.span, buf)
        }));
        match drawn {
            Ok(complete) => return Some(complete),
            Err(_) => {
                shared.redraws.fetch_add(1, Ordering::SeqCst);
                *scratch = None;
            }
        }
    }
    None
}

impl SharedPool {
    /// A pool of `threads` owned workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared::default());
        let gauges: Vec<Arc<WorkerGauge>> = (0..threads)
            .map(|_| Arc::new(WorkerGauge::default()))
            .collect();
        let (inboxes, workers) = gauges
            .iter()
            .enumerate()
            .map(|(slot, gauge)| {
                let (tx, rx) = channel::<Chunk>();
                let (shared, gauge) = (Arc::clone(&shared), Arc::clone(gauge));
                let handle = std::thread::Builder::new()
                    .name(format!("waso-pool-{slot}"))
                    .spawn(move || worker_loop(slot, rx, &shared, &gauge))
                    // audit:allow(P2): thread exhaustion at pool construction — a pool that cannot run workers cannot make progress, so fail fast
                    .expect("spawning a shared-pool worker thread");
                (tx, handle)
            })
            .unzip();
        Self {
            inboxes,
            workers,
            gauges,
            active_jobs: AtomicUsize::new(0),
            shared,
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.inboxes.len()
    }

    /// How many chunk draws panicked and were discarded over the pool's
    /// lifetime — each one re-drawn in place, or, for the last of
    /// `MAX_REDRAWS_PER_CHUNK` in a row, given up. Zero on a healthy
    /// pool; observability for the failure-injection suite and for
    /// serving-side health checks.
    pub fn redrawn_chunks(&self) -> u64 {
        self.shared.redraws.load(Ordering::SeqCst)
    }

    /// A point-in-time health snapshot: active jobs, per-worker
    /// busy/idle flags and lifetime chunk counters, and the re-draw
    /// count. Cheap — a handful of atomic loads, no lock — so serving
    /// deployments can scrape it on every health poll.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads(),
            active_jobs: self.active_jobs.load(Ordering::SeqCst),
            workers: self
                .gauges
                .iter()
                .map(|g| WorkerStats {
                    busy: g.busy.load(Ordering::Relaxed),
                    chunks_processed: g.chunks.load(Ordering::Relaxed),
                })
                .collect(),
            redrawn_chunks: self.redrawn_chunks(),
        }
    }

    /// Test-only failure injection: the worker in `slot` panics on the
    /// next chunk draw for stage `stage` (of any job). Fires once. The
    /// worker catches the panic and re-draws the chunk in place —
    /// results are unchanged; see the failure-injection test suite. A
    /// `slot >= threads()` never fires. Hidden from the documented API:
    /// this exists for the cross-crate test suites and chaos drills, not
    /// for production callers (when disarmed — always, outside those
    /// suites — it costs one relaxed atomic load per chunk).
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, slot: usize, stage: u64) {
        self.shared.fail.arm(slot, stage, 1);
    }

    /// Submits one solve as a job and returns its coordinator handle
    /// (the solve's [`StageExec`]). The job counts as active until the
    /// handle drops.
    pub(crate) fn submit(&self, ctx: Arc<SolveCtx>) -> PoolJob<'_> {
        self.active_jobs.fetch_add(1, Ordering::SeqCst);
        PoolJob { pool: self, ctx }
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        // Explicit shutdown: close every worker's inbox first (all
        // workers start exiting concurrently), then join. Jobs cannot be
        // in flight here: a live job borrows the pool.
        self.inboxes.clear();
        for handle in self.workers.drain(..) {
            // Workers catch their draws' panics, so a join error adds
            // nothing a coordinator has not already reported.
            let _ = handle.join();
        }
    }
}

/// One solve's coordinator handle over a [`SharedPool`]: per stage,
/// sends a chunk per worker and merges the replies.
pub(crate) struct PoolJob<'p> {
    pool: &'p SharedPool,
    ctx: Arc<SolveCtx>,
}

impl StageExec for PoolJob<'_> {
    fn run_stage(&mut self, stage: u64, results: &mut [Option<Sample>]) -> bool {
        let spans = deal_spans(results.len(), self.pool.threads());
        let (reply, replies) = channel();
        for &(slot, span) in &spans {
            // A chunk that cannot be sent (its worker exited) drops its
            // reply sender, so the stage's channel disconnects below.
            if let Some(inbox) = self.pool.inboxes.get(slot) {
                let _ = inbox.send(Chunk {
                    ctx: Arc::clone(&self.ctx),
                    stage,
                    span,
                    reply: reply.clone(),
                });
            }
        }
        drop(reply);
        // Every chunk's reply is merged, in arrival order, even after one
        // comes back incomplete: results merge by item index.
        let mut all_complete = true;
        for _ in &spans {
            let Ok(ChunkReply {
                buf,
                complete: Some(complete),
            }) = replies.recv()
            else {
                // Designed abort: a worker gave its chunk up after
                // MAX_REDRAWS_PER_CHUNK panics in a row (or exited), so no
                // answer exists; the session hands the panic to the waiter
                // as `SessionError::Panicked`.
                panic!(
                    "a shared-pool worker could not draw its stage-{stage} chunk: \
                     {MAX_REDRAWS_PER_CHUNK} panics in a row, or the worker exited; giving up"
                );
            };
            for (j, s) in buf {
                if let Some(r) = results.get_mut(j) {
                    *r = s;
                }
            }
            all_complete &= complete;
        }
        all_complete
    }
}

impl Drop for PoolJob<'_> {
    fn drop(&mut self) {
        self.pool.active_jobs.fetch_sub(1, Ordering::SeqCst);
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
        job.run_stage(0, &mut results);
        results
            .into_iter()
            .map(|s| s.map(|s| s.willingness))
            .collect()
    }

    #[test]
    fn deals_cover_every_item_exactly_once() {
        for n in [0usize, 1, 3, 7, 8, 23] {
            for workers in [1usize, 2, 4, 8] {
                let spans = deal_spans(n, workers);
                let mut seen = vec![0u32; n];
                for &(_, span) in &spans {
                    for j in (span.offset..n).step_by(span.stride) {
                        seen[j] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "n={n} workers={workers}: {seen:?}"
                );
                // No empty assignments are dealt.
                assert!(spans.iter().all(|&(_, s)| s.offset < n || n == 0));
            }
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
        assert_eq!(pool.redrawn_chunks(), 0);
    }

    #[test]
    fn injected_panic_is_redrawn_in_place() {
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
            assert_eq!(pool.redrawn_chunks(), 1, "slot={slot}");
            // The pool keeps serving new jobs, with no further re-draws.
            let again = stage_results(&pool, &ctx_with_items(&inst, 10, 5), 10);
            assert_eq!(again, healthy, "slot={slot}");
            assert_eq!(pool.redrawn_chunks(), 1, "slot={slot}");
        }
    }

    #[test]
    fn job_drop_with_chunk_in_flight_neither_hangs_nor_wedges_the_pool() {
        // A job is dropped with a chunk in flight whose reply receiver
        // is already gone. The worker's reply send fails and is ignored;
        // the pool then serves the next job normally and drops without
        // hanging.
        let inst = instance(30, 3, 4);
        let pool = SharedPool::new(2);
        {
            let ctx = ctx_with_items(&inst, 8, 9);
            let _job = pool.submit(Arc::clone(&ctx));
            let (reply, replies) = channel();
            drop(replies);
            pool.inboxes[0]
                .send(Chunk {
                    ctx,
                    stage: 0,
                    span: Span::stripe(0, 2),
                    reply,
                })
                .unwrap();
        }
        assert_eq!(pool.stats().active_jobs, 0, "the dropped job is gone");
        let ctx = ctx_with_items(&inst, 8, 9);
        let results = stage_results(&pool, &ctx, 8);
        assert!(results.iter().any(|s| s.is_some()));
        assert_eq!(pool.redrawn_chunks(), 0);
        drop(pool); // must join cleanly — a hang fails the test by timeout
    }

    #[test]
    fn stats_track_jobs_chunks_and_workers() {
        let inst = instance(40, 4, 8);
        let pool = SharedPool::new(2);
        // Idle pool: no jobs, nobody busy, no work done.
        let idle = pool.stats();
        assert_eq!(idle.threads, 2);
        assert_eq!(idle.active_jobs, 0);
        assert_eq!(idle.busy_workers(), 0);
        assert_eq!(idle.workers.len(), 2);

        // A submitted job counts as active until it is dropped, also
        // after its stage is merged.
        let ctx = ctx_with_items(&inst, 8, 3);
        let mut job = pool.submit(Arc::clone(&ctx));
        assert_eq!(pool.stats().active_jobs, 1);
        job.run_stage(0, &mut vec![None; 8]);
        assert_eq!(pool.stats().active_jobs, 1, "job still active");
        drop(job);

        // After a full stage the job is gone and the workers have
        // processed its chunks.
        let _ = stage_results(&pool, &ctx_with_items(&inst, 8, 3), 8);
        let done = pool.stats();
        assert_eq!(done.active_jobs, 0);
        assert_eq!(done.busy_workers(), 0);
        let total: u64 = done.workers.iter().map(|w| w.chunks_processed).sum();
        assert!(total >= 3, "both stages' chunks counted: {total}");
        assert_eq!(done.redrawn_chunks, 0);
        // The one-liner renders every gauge.
        let line = done.to_string();
        assert!(line.contains("2 workers"), "{line}");
        assert!(line.contains("0 jobs"), "{line}");
    }

    #[test]
    fn a_job_attached_before_another_jobs_panic_is_unaffected() {
        // Two jobs share a one-worker pool. Job B attaches first; job A's
        // chunk then triggers the injected panic and is re-drawn in
        // place. The worker never died, so B's link stays good: B's
        // stage matches the healthy baseline with no further re-draw.
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
        assert_eq!(pool.redrawn_chunks(), 1);
        let mut results: Vec<Option<Sample>> = vec![None; 6];
        job_b.run_stage(0, &mut results);
        let b: Vec<_> = results
            .into_iter()
            .map(|s| s.map(|s| s.willingness))
            .collect();
        assert_eq!(b, healthy);
        assert_eq!(pool.redrawn_chunks(), 1, "one panic, one re-draw");
    }

    #[test]
    fn a_chunk_that_keeps_panicking_is_given_up_and_the_pool_lives_on() {
        let inst = instance(30, 3, 7);
        let healthy = {
            let p = SharedPool::new(2);
            stage_results(&p, &ctx_with_items(&inst, 8, 2), 8)
        };
        let pool = SharedPool::new(2);
        pool.shared.fail.arm(1, 0, MAX_REDRAWS_PER_CHUNK);
        let gave_up = std::panic::catch_unwind(AssertUnwindSafe(|| {
            stage_results(&pool, &ctx_with_items(&inst, 8, 2), 8)
        }));
        assert!(gave_up.is_err(), "the coordinator must abort the stage");
        assert_eq!(pool.redrawn_chunks(), u64::from(MAX_REDRAWS_PER_CHUNK));
        // The hook is spent and the worker survived its give-up: a later
        // job on the same pool draws the healthy answer.
        let again = stage_results(&pool, &ctx_with_items(&inst, 8, 2), 8);
        assert_eq!(again, healthy);
        assert_eq!(pool.redrawn_chunks(), u64::from(MAX_REDRAWS_PER_CHUNK));
    }
}
