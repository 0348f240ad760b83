//! Stage executors for the [`crate::engine::StagedEngine`].
//!
//! The engine's stage loop is executor-agnostic: it describes one stage as
//! a flat list of `WorkItem`s (one per sample to draw) and asks an
//! executor to fill a result slot per item. Two executors exist:
//!
//! * `SerialExec` — one reusable [`Sampler`] on the calling thread
//!   (engines without a `threads` count);
//! * a job of a [`SharedPool`] — a pool of owned
//!   threads that any number of sessions and solves attach to
//!   concurrently, with a job-level scheduler and self-healing workers.
//!   A threaded solve that is handed no pool creates a `SharedPool` of
//!   its own and drops it when the solve ends.
//!
//! The pooled path serves required-attendee (partial) solves too: a
//! partial solve's samples are independent draws growing from the same
//! seed set, so they deal across workers exactly like fresh samples.
//!
//! Each worker owns one `Sampler` (and thus its `GrowthWorkspace` and
//! weight buffer) per attached job, result buffers are recycled through
//! the chunk messages, and the per-sample `Vec<NodeId>` node lists flow
//! coordinator → worker → coordinator through a slab (chunk messages
//! carry spent buffers back; see `StageExec::run_stage`) — steady-state
//! stages allocate nothing.
//!
//! Determinism: every `(start node, stage, sample)` triple draws from its
//! own RNG stream (`sample_seed`), and results are keyed by item
//! index, so *which* worker draws a sample — and in *what deal pattern*
//! ([`Deal`]) — is irrelevant: any pool width (and the serial executor)
//! produces bit-identical solves.
//!
//! Stall cutoff: a failed draw means the start's component is smaller than
//! `k` (or the seed set cannot be completed), so every other draw of that
//! start fails too (deterministically). Both executors publish stalls in
//! `StageShared::stalled` and skip the start's remaining items — their
//! result slots stay `None`, which is exactly what drawing them would
//! produce, so the cutoff is invisible to the merge. This keeps the
//! historical break-on-first-stall cost profile and keeps serial/pooled
//! wall-clock comparable on stall-heavy graphs.

mod shared;

pub use shared::{Deal, PoolStats, SharedPool, WorkerStats};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;
use waso_core::WasoInstance;
use waso_graph::{BitSet, NodeId};

use crate::cross_entropy::ProbabilityVector;
use crate::job::StopState;
use crate::sampler::{Sample, Sampler};

/// One unit of stage work: draw sample `q` of start node `start_index`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkItem {
    /// Index into the engine's start-node roster.
    pub start_index: u32,
    /// The start node itself.
    pub start: NodeId,
    /// Sample number within this `(start, stage)` pair — the RNG stream id.
    pub q: u64,
}

/// Read-mostly state shared between the engine (coordinator) and pool
/// workers. The coordinator mutates the locked fields only *between*
/// stages — while every worker is parked on its job channel — under a
/// write lock; workers hold read locks for the duration of one stage. The
/// serial executor reads the same structure (uncontended, one lock per
/// stage) so the engine has a single code path.
///
/// Lock poisoning is deliberately ignored (`PoisonError::into_inner`):
/// workers only ever *read* these fields, so a worker that panics while
/// holding a read guard leaves the data untouched — treating that as
/// poison would let one injected (or real) worker panic wedge every other
/// job sharing the state, defeating the pool's self-healing.
pub(crate) struct StageShared {
    /// The current stage's flattened work list (reused across stages).
    pub items: RwLock<Vec<WorkItem>>,
    /// Per-start-node selection vectors; empty for the uniform
    /// distribution (CBAS).
    pub vectors: RwLock<Vec<ProbabilityVector>>,
    /// One flag per start node, set (never cleared — a stall is a
    /// permanent property of the start's component) on the first failed
    /// draw. Relaxed ordering suffices: the flags only avoid provably
    /// futile work, results are identical whether a racing worker sees
    /// them or not.
    pub stalled: Vec<AtomicBool>,
}

impl StageShared {
    pub fn new(vectors: Vec<ProbabilityVector>, num_starts: usize) -> Self {
        Self {
            items: RwLock::new(Vec::new()),
            vectors: RwLock::new(vectors),
            stalled: (0..num_starts).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Read access that shrugs off poisoning (see the type docs).
    pub fn read_items(&self) -> RwLockReadGuard<'_, Vec<WorkItem>> {
        self.items.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read access that shrugs off poisoning (see the type docs).
    pub fn read_vectors(&self) -> RwLockReadGuard<'_, Vec<ProbabilityVector>> {
        self.vectors.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Coordinator-side write access; poisoning recovery as above.
    pub fn write_items(&self) -> RwLockWriteGuard<'_, Vec<WorkItem>> {
        self.items.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Coordinator-side write access; poisoning recovery as above.
    pub fn write_vectors(&self) -> RwLockWriteGuard<'_, Vec<ProbabilityVector>> {
        self.vectors.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Out-of-range start indices read as "stalled": a worker holding a
    /// stale index must not draw from it, and certainly must not panic
    /// on the solve path.
    #[inline]
    fn is_stalled(&self, start_index: u32) -> bool {
        self.stalled
            .get(start_index as usize)
            .is_none_or(|s| s.load(Ordering::Relaxed))
    }

    #[inline]
    fn mark_stalled(&self, start_index: u32) {
        if let Some(s) = self.stalled.get(start_index as usize) {
            s.store(true, Ordering::Relaxed);
        }
    }
}

/// Everything one solve shares with the workers of a [`SharedPool`].
/// Owned (`Arc`ed instance, owned seed list) because the pool's threads
/// outlive any borrow a single solve could offer.
pub(crate) struct SolveCtx {
    /// The validated instance, cloned into an `Arc` once per solve (or
    /// once per *batch* — the session facade reuses one `Arc` across a
    /// whole `solve_batch`).
    pub instance: Arc<WasoInstance>,
    /// Blocked nodes (declined invitees, §4.4.1).
    pub blocked: Option<BitSet>,
    /// The stage state this solve's coordinator and workers share.
    pub shared: StageShared,
    /// The solve's master seed.
    pub seed: u64,
    /// [`crate::engine::StartMode::Partial`] seed set; `None` for fresh
    /// solves.
    pub partial: Option<Vec<NodeId>>,
    /// The job's cancel/deadline signal, checked between samples so a
    /// trip abandons the in-flight chunk instead of riding the stage out.
    /// `None` for uncontrolled solves (no check, no overhead).
    pub stop: Option<Arc<StopState>>,
}

/// Draws one work item with the given sampler. `vectors` is empty for the
/// uniform distribution; otherwise it holds one vector per start node. In
/// partial mode (`seeds` present) the sample grows from the whole seed set
/// instead of the item's start node — same RNG stream either way, so
/// partial solves stripe across workers exactly like fresh ones.
#[inline]
fn draw_item(
    sampler: &mut Sampler,
    instance: &WasoInstance,
    item: WorkItem,
    vectors: &[ProbabilityVector],
    stage: u64,
    seed: u64,
    partial: Option<&[NodeId]>,
) -> Option<Sample> {
    let mut rng = StdRng::seed_from_u64(crate::sample_seed(
        seed,
        item.start_index as u64,
        stage,
        item.q,
    ));
    let probs = vectors.get(item.start_index as usize);
    match partial {
        Some(seeds) => sampler.sample_from_partial(instance, seeds, probs, &mut rng),
        None => sampler.sample(instance, item.start, probs, &mut rng),
    }
}

/// One worker's share of a stage's item list: up to `limit` items starting
/// at `offset`, `stride` apart. A round-robin stripe for worker `w` of `T`
/// is `Span { offset: w, stride: T, limit: MAX }`; a contiguous chunk
/// `[lo, hi)` is `Span { offset: lo, stride: 1, limit: hi - lo }`. Results
/// are keyed by item index, so the deal pattern cannot affect the answer —
/// only the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub offset: usize,
    pub stride: usize,
    pub limit: usize,
}

impl Span {
    /// Worker `w`'s round-robin stripe in a deal over `stride` workers.
    pub fn stripe(w: usize, stride: usize) -> Self {
        Self {
            offset: w,
            stride,
            limit: usize::MAX,
        }
    }
}

/// Draws one span of the current stage into `buf` (a shared-pool
/// worker's share of one chunk).
///
/// Returns `false` when `stop` tripped before the span finished: the
/// partial draws in `buf` belong to a stage the engine will abandon
/// wholesale (stopping "at the previous stage boundary"), so an early
/// exit here can never change a merged result — it only bounds how long
/// a cancel or deadline overshoots.
#[allow(clippy::too_many_arguments)]
fn draw_span(
    sampler: &mut Sampler,
    instance: &WasoInstance,
    shared: &StageShared,
    partial: Option<&[NodeId]>,
    stage: u64,
    seed: u64,
    span: Span,
    stop: Option<&StopState>,
    buf: &mut Vec<(usize, Option<Sample>)>,
) -> bool {
    let items = shared.read_items();
    let vectors = shared.read_vectors();
    let mut j = span.offset;
    let mut left = span.limit;
    while left > 0 {
        if stop.is_some_and(|s| s.stop_requested()) {
            return false;
        }
        let Some(&item) = items.get(j) else { break };
        if !shared.is_stalled(item.start_index) {
            let s = draw_item(sampler, instance, item, &vectors, stage, seed, partial);
            if s.is_none() {
                shared.mark_stalled(item.start_index);
            }
            buf.push((j, s));
        }
        // Skipped items' result slots stay None — the outcome a draw
        // would have produced.
        j += span.stride;
        left -= 1;
    }
    true
}

/// A stage executor: fills `results[j]` with the outcome of item `j`.
/// `slab` carries the node buffers of already-consumed samples *into* the
/// call (the executor hands them to its samplers for reuse); executors
/// take what they need and leave the rest.
///
/// Returns whether the stage ran to completion: `false` means the job's
/// stop signal tripped mid-stage, some result slots were never drawn,
/// and the engine must abandon the stage unmerged.
pub(crate) trait StageExec {
    fn run_stage(
        &mut self,
        stage: u64,
        results: &mut [Option<Sample>],
        slab: &mut Vec<Vec<NodeId>>,
    ) -> bool;
}

/// The calling-thread executor: one sampler, items drawn in order.
pub(crate) struct SerialExec<'a> {
    pub instance: &'a WasoInstance,
    pub shared: &'a StageShared,
    pub sampler: Sampler,
    pub seed: u64,
    /// Online-replanning / required-attendee mode: grow every sample from
    /// this partial solution instead of the item's start node (§4.4.1).
    pub partial: Option<&'a [NodeId]>,
    /// The job's stop signal, checked between samples like pool workers
    /// do.
    pub stop: Option<Arc<StopState>>,
}

impl StageExec for SerialExec<'_> {
    fn run_stage(
        &mut self,
        stage: u64,
        results: &mut [Option<Sample>],
        slab: &mut Vec<Vec<NodeId>>,
    ) -> bool {
        for buf in slab.drain(..) {
            self.sampler.recycle(buf);
        }
        let items = self.shared.read_items();
        let vectors = self.shared.read_vectors();
        for (j, &item) in items.iter().enumerate() {
            if self.stop.as_deref().is_some_and(StopState::stop_requested) {
                return false;
            }
            if self.shared.is_stalled(item.start_index) {
                continue; // slot stays None, as a draw would produce
            }
            results[j] = draw_item(
                &mut self.sampler,
                self.instance,
                item,
                &vectors,
                stage,
                self.seed,
                self.partial,
            );
            if results[j].is_none() {
                self.shared.mark_stalled(item.start_index);
            }
        }
        true
    }
}
