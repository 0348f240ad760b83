//! [`WasoSession`] — the one-stop facade for solving WASO instances.
//!
//! A session owns everything around the solver that callers used to
//! hand-roll: instance validation (group size, λ weights, connectivity
//! mode), the seed policy, constraint enforcement (required attendees are
//! guaranteed or the combination is *rejected* — never silently dropped),
//! and result reporting. Solvers are chosen by [`SolverSpec`] and built
//! through the [`SolverRegistry`], so a session works identically for
//! every registered algorithm, including ones registered after the fact.
//!
//! Under the hood the staged specs (`cbas`, `cbas-nd`, `cbas-nd-g`,
//! `cbas-nd-par`, and any `threads=N` variant) all resolve to the single
//! `waso_algos::engine::StagedEngine`; a spec's `threads` knob runs the
//! engine as a job of the session's [`SharedPool`] without changing the
//! answer — solves are bit-identical for every thread count, so the
//! session's reproducibility guarantee (same `(instance, spec, seed)` →
//! same group) holds regardless of parallelism.
//!
//! Pooled solves share one [`SharedPool`]: worker threads are spawned on
//! first use (or attached via [`WasoSession::attach_pool`], in which case
//! any number of sessions share one process-wide pool) and reused by
//! every later solve; the validated instance is cloned once and shared.
//! For many solves in one go, [`WasoSession::solve_batch`] /
//! [`WasoSession::solve_many`] run a slice of spec jobs **concurrently**
//! over that shared state with per-job error reporting — bit-identical
//! to solving each spec alone, in the slice's order.
//!
//! Every job, batched or not, goes onto one session-held FIFO drained by
//! at most [`WasoSession::batch_width`] coordinator threads. A
//! coordinator exits when it finds the FIFO empty, so the thread count
//! follows that width, never the number of submitted jobs, and an idle
//! session holds no threads at all.
//!
//! The solve surface itself is built on **job handles**:
//! [`WasoSession::submit`] / [`WasoSession::submit_batch`] return
//! [`SolveHandle`]s that poll ([`SolveHandle::try_result`]), block
//! ([`SolveHandle::wait`]), cancel ([`SolveHandle::cancel`] — the job
//! stops within one sample and returns the best group of its last
//! completed stage),
//! report progress, and stream improving incumbents
//! ([`SolveHandle::incumbents`]); the spec knobs `deadline_ms=` and
//! `patience=` bound a job's latency declaratively. The blocking calls
//! are thin wrappers (`solve` *is* submit+wait), so handle-based and
//! blocking results are bit-identical by construction.
//!
//! ```
//! use waso::prelude::*;
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(0.8);
//! let c = b.add_node(0.5);
//! let d = b.add_node(0.9);
//! b.add_edge_symmetric(a, c, 0.7).unwrap();
//! b.add_edge_symmetric(c, d, 0.4).unwrap();
//!
//! let session = WasoSession::new(b.build()).k(2).seed(42);
//!
//! // Blocking call…
//! let spec = SolverSpec::cbas_nd().budget(200).stages(4);
//! let result = session.solve(&spec).unwrap();
//! assert_eq!(result.group.len(), 2);
//! assert!((result.group.willingness() - 2.7).abs() < 1e-9);
//!
//! // …and the same solve as a job handle: submit, watch, wait.
//! let handle = session.submit(&spec).unwrap();
//! let _progress = handle.progress(); // stages done, samples, incumbent
//! let handled = handle.wait().unwrap(); // bit-identical to `result`
//! assert_eq!(handled.group, result.group);
//!
//! // Anytime serving: bound latency with a deadline and early-stop
//! // patience; the result reports how the solve terminated.
//! let bounded = session
//!     .solve(&spec.clone().deadline_ms(10_000).patience(2))
//!     .unwrap();
//! assert!(bounded.group.willingness() > 0.0);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};

use waso_algos::{
    Incumbent, JobControl, JobProgress, SharedPool, SolveError, SolveRequest, SolveResult, Solver,
    SolverRegistry, SolverSpec, SpecError, Termination,
};
use waso_core::{CoreError, WasoInstance};
use waso_graph::{DeltaError, GraphDelta, NodeId, SocialGraph};

/// The session's default seed — solves are reproducible out of the box,
/// and explicitly seeded when exploration is wanted.
pub const DEFAULT_SEED: u64 = 42;

/// The most results a session memo holds. Past it, the oldest entry is
/// evicted ([`MemoStats::evicted`]), so a client that keeps sending
/// distinct specs cannot grow the memo without bound. The same count as
/// `waso-serve`'s default finished-job retention.
const MEMO_CAPACITY: usize = 1024;

/// The fully-populated solver registry: the `waso-algos` family
/// ([`SolverRegistry::builtin`]) plus `waso-exact`'s branch-and-bound.
/// This is the table behind every [`WasoSession`], the `waso-solve` CLI,
/// and the `waso-bench` figure drivers.
pub fn registry() -> SolverRegistry {
    let mut r = SolverRegistry::builtin();
    waso_exact::register_exact(&mut r);
    r
}

/// Why a session could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// [`WasoSession::k`] was never called.
    GroupSizeNotSet,
    /// Instance construction or validation failed (bad `k`, bad λ,
    /// unknown/duplicate required attendee).
    Core(CoreError),
    /// The spec did not resolve to a buildable solver.
    Spec(SpecError),
    /// The solver ran and failed (infeasible, or a constraint it cannot
    /// honour).
    Solve(SolveError),
    /// A [`GraphDelta`] could not be applied to the session's graph
    /// (unknown node, self-loop, adding an existing edge, removing a
    /// missing one).
    Delta(DeltaError),
    /// The solver panicked (a solver bug). The job's control is finished
    /// and its coordinator lives on to run the session's next job.
    Panicked,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::GroupSizeNotSet => {
                write!(
                    f,
                    "group size not set — call WasoSession::k(...) before solving"
                )
            }
            SessionError::Core(e) => write!(f, "invalid instance: {e}"),
            SessionError::Spec(e) => write!(f, "unusable solver spec: {e}"),
            SessionError::Solve(e) => write!(f, "solve failed: {e}"),
            SessionError::Delta(e) => write!(f, "delta rejected: {e}"),
            SessionError::Panicked => write!(f, "solver panicked"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> Self {
        SessionError::Core(e)
    }
}

impl From<SpecError> for SessionError {
    fn from(e: SpecError) -> Self {
        SessionError::Spec(e)
    }
}

impl From<SolveError> for SessionError {
    fn from(e: SolveError) -> Self {
        SessionError::Solve(e)
    }
}

impl From<DeltaError> for SessionError {
    fn from(e: DeltaError) -> Self {
        SessionError::Delta(e)
    }
}

/// Counters of the session's solve memo (see
/// [`WasoSession::memo_stats`]). Monotone over the session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Solves answered from the memo — no solver ran, the cached
    /// [`SolveResult`] was returned bit-identically in O(1).
    pub hits: u64,
    /// Cacheable solves that had to run (and, when they completed,
    /// populated the memo). Wall-clock-bounded specs (`deadline_ms=`,
    /// `deadline_from_submit=`) bypass the memo and count as neither.
    pub misses: u64,
    /// Cached entries dropped because a new memo generation started:
    /// by [`WasoSession::apply`] (a delta drops every entry solved on the
    /// pre-delta graph) or by a result-relevant configuration change
    /// (`k`, connectivity, λ, seed, registry). The next matching solve
    /// runs from scratch.
    pub invalidated: u64,
    /// Cached entries dropped, oldest first, to keep the memo at its
    /// capacity of 1024 results.
    pub evicted: u64,
}

/// Memo key: what a cached result's bits depend on *within* one memo
/// generation — the canonical spec rendering and the sorted merged
/// (session ∪ spec) required-attendee set. Everything session-wide
/// (graph, `k`, λ, connectivity, seed, registry) is the generation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MemoKey {
    spec: String,
    required: Vec<u32>,
}

impl MemoKey {
    /// The key of a solve, or `None` when the solve is not cacheable:
    /// wall-clock-bounded specs (`deadline_ms=`, `deadline_from_submit=`)
    /// can stop anywhere, so their results are not a pure function of
    /// the key.
    fn of(spec: &SolverSpec, required: &[NodeId]) -> Option<Self> {
        if spec.deadline_ms.is_some() || spec.deadline_from_submit.is_some() {
            return None;
        }
        let mut required: Vec<u32> = required.iter().map(|v| v.0).collect();
        required.sort_unstable();
        Some(Self {
            spec: spec.to_string(),
            required,
        })
    }
}

/// The session's solve memo: the completed results of the current
/// **generation**, keyed by [`MemoKey`], at most [`MEMO_CAPACITY`] of
/// them. Shared (`Arc`) with job coordinators so finished solves insert
/// their results.
#[derive(Debug, Default)]
struct SolveMemo {
    /// Bumped by [`WasoSession::invalidate_instance`], which also clears
    /// `entries`: every entry was solved under the current one.
    generation: u64,
    entries: BTreeMap<MemoKey, SolveResult>,
    /// The keys of `entries` in insertion order — the eviction order.
    order: VecDeque<MemoKey>,
    stats: MemoStats,
}

impl SolveMemo {
    /// Caches `result` — unless a new generation started since the job
    /// read `generation`: a solve that began before a delta and finished
    /// after it must not answer for the post-delta graph. Evicts the
    /// oldest entry past [`MEMO_CAPACITY`].
    fn insert(&mut self, generation: u64, key: MemoKey, result: SolveResult) {
        if generation != self.generation {
            return;
        }
        // Two concurrent misses of one key both insert the same result;
        // the key is queued once.
        if self.entries.insert(key.clone(), result).is_none() {
            self.order.push_back(key);
        }
        if self.entries.len() > MEMO_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
                self.stats.evicted += 1;
            }
        }
    }
}

/// A configured solving context: graph + constraints + seed policy +
/// registry. Build once, solve with as many specs as you like.
///
/// Sessions hold three solve-to-solve caches:
///
/// * the **validated instance** (`Arc`) — built on the first solve and
///   shared by every later one (and by every job of a
///   [`WasoSession::solve_batch`]), so the graph is validated and cloned
///   once per session instead of once per solve;
/// * the **worker pool** ([`SharedPool`]) — attached up front
///   ([`WasoSession::attach_pool`], possibly shared with other sessions
///   of the process) or spawned on the first solve whose spec asks for
///   threads, and reused by every pooled solve after it, amortizing
///   thread creation across the session (§5.3.1 at serving scale). The
///   pool's workers survive panics (a panicked chunk is re-drawn in
///   place by a fresh sampler) and its scheduler runs jobs from any
///   number of sessions concurrently. The determinism contract makes all
///   of that unobservable in results: solves are bit-identical for every
///   worker count and tenant mix, so the session guarantee (same
///   `(instance, spec, seed)` → same group) is unaffected;
/// * the **solve memo** — completed results of the current
///   configuration and graph, replayed bit-identically to a repeat
///   request (see [`WasoSession::memo_stats`]).
#[derive(Debug)]
pub struct WasoSession {
    graph: SocialGraph,
    k: Option<usize>,
    required: Vec<NodeId>,
    connectivity: bool,
    lambda: Option<Vec<f64>>,
    seed: u64,
    registry: SolverRegistry,
    /// Pinned coordinator-crew width; `None` means
    /// `max(2, available_parallelism)`.
    batch_width: Option<usize>,
    /// The job FIFO every submission feeds, and its coordinator count.
    /// `Arc`-shared with the coordinators draining it.
    jobs: Arc<Mutex<JobQueue>>,
    /// The validated instance, built once per session configuration.
    instance_cache: Mutex<Option<Arc<WasoInstance>>>,
    /// The worker pool every pooled solve of this session runs over —
    /// attached, or spawned on first pooled use.
    pool: Mutex<Option<Arc<SharedPool>>>,
    /// The solve memo. `Arc`-shared with job coordinators so completed
    /// solves insert their results after `submit` has returned.
    memo: Arc<Mutex<SolveMemo>>,
}

impl WasoSession {
    /// A session over `graph` with the full [`registry`], connectivity
    /// required, no constraints, and the [`DEFAULT_SEED`].
    pub fn new(graph: SocialGraph) -> Self {
        Self {
            graph,
            k: None,
            required: Vec::new(),
            connectivity: true,
            lambda: None,
            seed: DEFAULT_SEED,
            registry: registry(),
            batch_width: None,
            jobs: Arc::default(),
            instance_cache: Mutex::new(None),
            pool: Mutex::new(None),
            memo: Arc::new(Mutex::new(SolveMemo::default())),
        }
    }

    /// The one memo invalidation point, called by every delta and every
    /// result-relevant configuration change: drops the cached instance
    /// (the next solve rebuilds it) and starts a new memo generation,
    /// dropping every cached entry ([`MemoStats::invalidated`]). A job
    /// still running from the old generation does not cache its result.
    /// Changing the configuration back does not revive old entries.
    fn invalidate_instance(&mut self) {
        // Poison-tolerant: a cache is plain data, valid even if a panic
        // elsewhere poisoned the mutex.
        *self
            .instance_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        memo.generation += 1;
        memo.stats.invalidated += memo.entries.len() as u64;
        memo.entries.clear();
        memo.order.clear();
    }

    /// Sets the group size `k` (mandatory).
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self.invalidate_instance();
        self
    }

    /// Adds attendees that must appear in every answer. Enforced
    /// *uniformly*: solvers that cannot guarantee membership reject the
    /// solve ([`SolveError::RequiredUnsupported`]) instead of ignoring the
    /// constraint.
    pub fn require(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.required.extend(nodes);
        self
    }

    /// Drops the connectivity constraint (the §2.2 WASO-dis variant).
    pub fn disconnected(mut self) -> Self {
        self.connectivity = false;
        self.invalidate_instance();
        self
    }

    /// Applies per-node λ weights (footnote 7): `η̃ = λη`,
    /// `τ̃_{i,·} = (1-λ_i)τ_{i,·}`. Validated at solve time.
    pub fn lambda(mut self, lambda: Vec<f64>) -> Self {
        self.lambda = Some(lambda);
        self.invalidate_instance();
        self
    }

    /// Applies one λ to every node.
    pub fn lambda_uniform(mut self, l: f64) -> Self {
        self.lambda = Some(vec![l; self.graph.num_nodes()]);
        self.invalidate_instance();
        self
    }

    /// Sets the seed every solve derives its randomness from. Starts a
    /// new memo generation: no cached result of another seed is served.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.invalidate_instance();
        self
    }

    /// Pins the coordinator-crew width: at most `n` of this session's
    /// jobs run concurrently, however they were submitted
    /// ([`WasoSession::submit`], [`WasoSession::submit_batch`], the
    /// blocking wrappers); the rest wait in the session's FIFO. Each
    /// coordinator drives whole jobs; per-sample parallelism lives in
    /// the worker pool the jobs share. Clamped to ≥ 1.
    ///
    /// The default is `max(2, available_parallelism)` — **at least two**
    /// coordinators, so jobs genuinely overlap even on a 1-core box
    /// (where `available_parallelism` alone would serialize them and make
    /// the concurrency-equivalence tests vacuous). The width is a pure
    /// scheduling knob: results are bit-identical for every value.
    pub fn batch_width(mut self, width: usize) -> Self {
        self.batch_width = Some(width.max(1));
        self
    }

    /// Attaches a (possibly process-wide) [`SharedPool`]: every pooled
    /// solve of this session runs as a job of `pool` instead of a
    /// session-private one. Hand clones of the same `Arc` to any number
    /// of sessions — the pool's scheduler runs their jobs concurrently,
    /// and results stay bit-identical to solving each alone.
    pub fn attach_pool(mut self, pool: Arc<SharedPool>) -> Self {
        *self.pool.get_mut().unwrap_or_else(PoisonError::into_inner) = Some(pool);
        self
    }

    /// Replaces the solver registry (to add custom solvers or restrict
    /// the available set). Starts a new memo generation: the new registry
    /// can map a cached spec name to another solver.
    pub fn with_registry(mut self, registry: SolverRegistry) -> Self {
        self.registry = registry;
        self.invalidate_instance();
        self
    }

    /// The registry this session resolves specs against.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// The graph under optimization (λ not yet applied).
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// Builds and validates the [`WasoInstance`] this session describes.
    pub fn instance(&self) -> Result<WasoInstance, SessionError> {
        let k = self.k.ok_or(SessionError::GroupSizeNotSet)?;
        let graph = match &self.lambda {
            Some(l) => waso_core::instance::apply_lambda(&self.graph, l)?,
            None => self.graph.clone(),
        };
        let instance = if self.connectivity {
            WasoInstance::new(graph, k)?
        } else {
            WasoInstance::without_connectivity(graph, k)?
        };
        validate_required(&instance, &self.required)?;
        Ok(instance)
    }

    /// The session's validated instance, built and cloned **once** and
    /// shared by every solve (the batch API's "validate once" half).
    fn shared_instance(&self) -> Result<Arc<WasoInstance>, SessionError> {
        let mut cache = self
            .instance_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(instance) = cache.as_ref() {
            return Ok(Arc::clone(instance));
        }
        let instance = Arc::new(self.instance()?);
        *cache = Some(Arc::clone(&instance));
        Ok(instance)
    }

    /// Solves with the given spec: validates the instance (cached across
    /// solves), merges the session's and the spec's required attendees,
    /// rejects spec/solver combinations that cannot honour them, and runs
    /// the solver under the session's seed policy — over the session-held
    /// worker pool when the spec asks for threads.
    ///
    /// A thin wrapper over [`WasoSession::submit`] + [`SolveHandle::wait`]
    /// — the blocking and handle-based paths are one code path, so their
    /// bit-identical results are structural, not coincidental.
    pub fn solve(&self, spec: &SolverSpec) -> Result<SolveResult, SessionError> {
        self.submit(spec)?.wait()
    }

    /// [`WasoSession::solve`] from a spec string (`"cbas-nd:budget=500"`),
    /// resolved and canonicalized against the session's registry.
    pub fn solve_str(&self, spec: &str) -> Result<SolveResult, SessionError> {
        let spec = self.registry.parse(spec)?;
        self.solve(&spec)
    }

    /// Submits a solve as a background **job** and returns its
    /// [`SolveHandle`] immediately. The handle can [`SolveHandle::wait`]
    /// for the result, [`SolveHandle::try_result`] without blocking,
    /// [`SolveHandle::cancel`] the job (it stops within one sample,
    /// returning the incumbent of its last completed stage tagged
    /// [`waso_algos::Termination::Cancelled`]), watch
    /// [`SolveHandle::progress`], and stream each improving incumbent via
    /// [`SolveHandle::incumbents`]. The spec's `deadline_ms=` /
    /// `patience=` knobs bound the job's latency without any handle
    /// interaction.
    ///
    /// The job waits in the session's FIFO until one of the
    /// [`WasoSession::batch_width`] coordinators takes it. Spec-level
    /// failures (unknown algorithm, unusable option, unsatisfiable
    /// constraints) surface here, before it is queued. The job's result
    /// is **bit-identical** to [`WasoSession::solve`] with the same spec
    /// — `solve` *is* submit+wait.
    pub fn submit(&self, spec: &SolverSpec) -> Result<SolveHandle, SessionError> {
        let instance = self.shared_instance()?;
        let (task, handle) = self.prepare_job(&instance, spec)?;
        self.enqueue(task);
        Ok(handle)
    }

    /// Submits a slice of solve jobs and returns one [`SolveHandle`] per
    /// spec, in spec order. The instance is validated and cloned
    /// **once**; every pooled job runs over the **same** shared worker
    /// pool (no per-solve thread spawns, no per-solve graph clones); and
    /// up to [`WasoSession::batch_width`] jobs run concurrently — the
    /// pool's scheduler deals their stages across its workers, so a light
    /// job is never stuck behind a heavy one. Each job carries its own
    /// constraints via [`SolverSpec::require`], merged with the
    /// session's.
    ///
    /// Per-job failures (unbuildable spec, infeasible constraints) land
    /// in that job's handle; an instance-level failure fails the whole
    /// submission. Cancelling one handle never affects the others, and
    /// dropping a handle without waiting cancels its job (workers are
    /// pool-owned, so nothing leaks). A job's `deadline_ms=` clock starts
    /// when a coordinator picks it up, not at submit time — use
    /// `deadline_from_submit=`, which this call arms the moment it
    /// accepts the job (so queue wait counts against the SLA), or arm
    /// [`SolveHandle::control`] yourself.
    pub fn submit_batch(&self, specs: &[SolverSpec]) -> Result<Vec<SolveHandle>, SessionError> {
        self.submit_each(specs.iter().map(Ok))
    }

    /// The loop behind [`WasoSession::submit_batch`] and
    /// [`WasoSession::solve_many`]: one handle per spec, in order, with a
    /// spec that failed upstream (a parse error) failing its own slot.
    fn submit_each<S: std::borrow::Borrow<SolverSpec>>(
        &self,
        specs: impl IntoIterator<Item = Result<S, SessionError>>,
    ) -> Result<Vec<SolveHandle>, SessionError> {
        let instance = self.shared_instance()?;
        // Jobs are prepared in slice order on the caller's thread, so the
        // lazily-sized session pool always takes its worker count from
        // the *first* pooled spec — exactly as sequential solves would —
        // and never from whichever concurrent job wins a race.
        let mut tasks = Vec::new();
        let mut handles = Vec::new();
        for spec in specs {
            match spec.and_then(|s| self.prepare_job(&instance, s.borrow())) {
                // A memo hit yields no task: the handle is pre-loaded.
                Ok((task, handle)) => {
                    tasks.extend(task);
                    handles.push(handle);
                }
                Err(e) => handles.push(SolveHandle::failed(e)),
            }
        }
        self.enqueue(tasks);
        Ok(handles)
    }

    /// Runs a slice of solve jobs to completion:
    /// [`WasoSession::submit_batch`] + [`SolveHandle::wait`] per handle.
    /// Results are returned in spec order and are bit-identical to
    /// calling [`WasoSession::solve`] once per spec — per-job RNG streams
    /// make the concurrency unobservable.
    pub fn solve_batch(
        &self,
        specs: &[SolverSpec],
    ) -> Result<Vec<Result<SolveResult, SessionError>>, SessionError> {
        Ok(self
            .submit_batch(specs)?
            .into_iter()
            .map(SolveHandle::wait)
            .collect())
    }

    /// [`WasoSession::solve_batch`] from spec strings; a string that does
    /// not parse fails its own slot, not the batch.
    pub fn solve_many<'a>(
        &self,
        specs: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<Result<SolveResult, SessionError>>, SessionError> {
        let specs = specs
            .into_iter()
            .map(|spec| self.registry.parse(spec).map_err(SessionError::from));
        Ok(self
            .submit_each(specs)?
            .into_iter()
            .map(SolveHandle::wait)
            .collect())
    }

    /// Builds one ready-to-run job: merges and validates constraints,
    /// resolves and builds the solver, binds the (lazily spawned) worker
    /// pool, and wires up the control/result/incumbent plumbing shared
    /// with the job's [`SolveHandle`].
    ///
    /// A memo hit short-circuits everything after validation: the
    /// returned task is `None` and the handle is pre-loaded with the
    /// cached result — bit-identical to the solve that produced it.
    fn prepare_job(
        &self,
        instance: &Arc<WasoInstance>,
        spec: &SolverSpec,
    ) -> Result<(Option<JobTask>, SolveHandle), SessionError> {
        // Union of session-level and spec-level required attendees,
        // first-mention order. The merged set is re-validated: the spec
        // half never went through `instance()`.
        let mut required = self.required.clone();
        for &v in &spec.required {
            if !required.contains(&v) {
                required.push(v);
            }
        }
        validate_required(instance, &required)?;

        let entry = self.registry.resolve(spec)?;
        if !required.is_empty() && !entry.capabilities.required_attendees {
            // Rejected up front, before paying for construction — and
            // re-checked by the solver itself as a backstop.
            return Err(SolveError::RequiredUnsupported { solver: entry.name }.into());
        }

        // Memo consult — after spec resolution (an entry can only exist
        // for a spec that once built, but the cheap capability checks
        // should fail loudly either way), before solver construction.
        // A miss records the generation it read, under the same lock.
        let mut memo_slot = None;
        if let Some(key) = MemoKey::of(spec, &required) {
            let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(result) = memo.entries.get(&key).cloned() {
                memo.stats.hits += 1;
                drop(memo);
                return Ok((None, SolveHandle::cached(result)));
            }
            memo.stats.misses += 1;
            memo_slot = Some((Arc::clone(&self.memo), key, memo.generation));
        }

        let solver = self.registry.build(spec)?;
        // Pooled solve: run as a job of the session pool (attached, or
        // spawned on first use), so worker threads outlive — and are
        // shared by — every pooled solve, of this session and of any
        // other session attached to the same pool. The lock guards only
        // the Arc, never a solve: concurrent jobs proceed in parallel.
        let pool = solver.pool_threads().map(|t| self.session_pool(t));

        let control = Arc::new(JobControl::new());
        // `deadline_from_submit=` is armed *here*, the moment the job is
        // accepted — time spent queued behind other jobs counts against
        // it, unlike `deadline_ms=`, whose clock starts at solve start.
        // (The builder also folds the knob into the solver's own deadline
        // by earliest-wins, so direct `registry.build` users get it too;
        // this earlier arming strictly tightens that.)
        if let Some(ms) = spec.deadline_from_submit {
            control.arm_deadline(std::time::Duration::from_millis(ms));
        }
        let incumbents = control.take_incumbents();
        let (result_tx, result_rx) = channel();
        let task = JobTask {
            solver,
            instance: Arc::clone(instance),
            required,
            seed: self.seed,
            pool,
            control: Arc::clone(&control),
            result_tx,
            memo: memo_slot,
        };
        let handle = SolveHandle {
            control,
            incumbents,
            result_rx,
            result: None,
        };
        Ok((Some(task), handle))
    }

    /// A snapshot of the session's memo counters (hits, misses,
    /// invalidations, evictions).
    pub fn memo_stats(&self) -> MemoStats {
        self.memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }

    /// Applies a [`GraphDelta`] to the session's graph **in place** and
    /// starts a new memo generation: every entry solved on the pre-delta
    /// graph is dropped, and the next solve rebuilds the instance and
    /// runs from scratch. A session's answer therefore depends only on
    /// `(instance, spec, seed)`, never on its history.
    ///
    /// No entry survives a delta, however far from its group the delta
    /// lands: a staged solve's start nodes are the top `η + Σ τ` scores
    /// of the *whole* graph, so any edit can move the sample stream and
    /// with it the answer.
    ///
    /// The delta is validated first and a rejected delta
    /// ([`SessionError::Delta`]) changes nothing. Node count and
    /// identity never change: a cached group means the same attendees
    /// before and after any number of deltas.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<(), SessionError> {
        self.graph = delta.apply(&self.graph)?;
        self.invalidate_instance();
        Ok(())
    }

    /// The session's pool, spawning a private one sized by the first
    /// pooled spec's `threads` value on first pooled use. The count only
    /// affects wall-clock: answers are bit-identical at any width.
    fn session_pool(&self, spec_threads: usize) -> Arc<SharedPool> {
        let mut guard = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(guard.get_or_insert_with(|| Arc::new(SharedPool::new(spec_threads))))
    }

    /// A [`waso_algos::PoolStats`] health snapshot of the session's
    /// worker pool (attached or lazily spawned), or `None` before any
    /// pooled solve has needed one.
    pub fn pool_stats(&self) -> Option<waso_algos::PoolStats> {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|p| p.stats())
    }

    /// Queues `tasks` on the session's FIFO and starts coordinators for
    /// them, so that at most [`WasoSession::batch_width`] run in all —
    /// and never more than there are queued jobs to take.
    fn enqueue(&self, tasks: impl IntoIterator<Item = JobTask>) {
        let width = self.batch_width.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(1, |c| c.get())
                .max(2)
        });
        let spawn = {
            let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            jobs.tasks.extend(tasks);
            let spawn = width
                .saturating_sub(jobs.coordinators)
                .min(jobs.tasks.len());
            jobs.coordinators += spawn;
            spawn
        };
        for started in 0..spawn {
            let jobs = Arc::clone(&self.jobs);
            let spawned = std::thread::Builder::new()
                .name("waso-job".into())
                .spawn(move || drain_jobs(&jobs));
            if spawned.is_err() {
                // Thread exhaustion. The queued jobs still have waiters,
                // so they must run: this thread stands in for every
                // counted coordinator that did not start, draining the
                // FIFO inline instead of aborting the process.
                for _ in started..spawn {
                    drain_jobs(&self.jobs);
                }
                return;
            }
        }
    }
}

/// The session's job FIFO and the number of coordinators draining it.
#[derive(Default)]
struct JobQueue {
    tasks: VecDeque<JobTask>,
    coordinators: usize,
}

impl fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobQueue")
            .field("queued", &self.tasks.len())
            .field("coordinators", &self.coordinators)
            .finish()
    }
}

/// One prepared solve job: everything its coordinator thread needs, fully
/// owned (the thread outlives the `submit` call's borrows).
struct JobTask {
    solver: Box<dyn Solver + Send>,
    instance: Arc<WasoInstance>,
    required: Vec<NodeId>,
    seed: u64,
    /// The shared pool the solve runs over, when its spec asks for one.
    pool: Option<Arc<SharedPool>>,
    control: Arc<JobControl>,
    result_tx: Sender<Result<SolveResult, SessionError>>,
    /// Memo insertion slot of a cacheable miss: the memo, the key, and
    /// the generation the miss read. A cleanly-completed result is
    /// cached only if that generation is still current.
    memo: Option<(Arc<Mutex<SolveMemo>>, MemoKey, u64)>,
}

impl JobTask {
    /// Runs the solve and reports through the job's channels. A panic
    /// unwinds out of here; [`drain_jobs`] answers it.
    fn run(mut self) {
        let req = SolveRequest::new(&self.instance, self.seed)
            .required(&self.required)
            .pool(self.pool.as_deref())
            .control(&self.control);
        let outcome = self.solver.solve(&req).map_err(SessionError::from);
        if let Ok(result) = &outcome {
            debug_assert!(
                self.required.iter().all(|&v| result.group.contains(v)),
                "solver {} violated the required-attendee contract",
                self.solver.name()
            );
        }
        // Memoize clean completions only: a cancelled or deadline-cut
        // result is whatever the job had when it was stopped, not a pure
        // function of (instance, spec, seed) — serving it to a later
        // uninterrupted solve would break the bit-identity contract.
        if let (Some((memo, key, generation)), Ok(result)) = (self.memo.take(), &outcome) {
            if result.stats.termination == Termination::Completed {
                memo.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    generation,
                    key,
                    result.clone(),
                );
            }
        }
        // Release the job's resources — above all its pool Arc — BEFORE
        // publishing the result: a caller that has observed the outcome
        // must also observe the job's references gone (e.g. a session
        // dropped right after a batch asserts the pool was released).
        self.pool = None;
        drop(self.solver);
        self.control.finish();
        let _ = self.result_tx.send(outcome);
    }
}

/// One coordinator's work loop: pop and run jobs in FIFO order until
/// the queue is empty, then leave the crew. Deciding to leave and
/// uncounting itself happen under the queue lock, so a job enqueued at
/// that moment sees the freed place and starts a new coordinator.
///
/// A panicking job (a solver bug) is contained: its control is
/// finished, its waiter receives [`SessionError::Panicked`], and the
/// coordinator moves on to the next queued job — one bad job cannot
/// starve the rest.
fn drain_jobs(jobs: &Mutex<JobQueue>) {
    loop {
        let task = {
            let mut jobs = jobs.lock().unwrap_or_else(PoisonError::into_inner);
            match jobs.tasks.pop_front() {
                Some(task) => task,
                None => {
                    jobs.coordinators -= 1;
                    return;
                }
            }
        };
        // The control must still be finished on the unwind path, or
        // incumbents() iterators would block forever and progress()
        // would report the dead job as running.
        let control = Arc::clone(&task.control);
        let result_tx = task.result_tx.clone();
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run())).is_err() {
            control.finish();
            let _ = result_tx.send(Err(SessionError::Panicked));
        }
    }
}

/// A submitted solve job: the caller's half of the submit/poll/cancel
/// surface (see [`WasoSession::submit`]).
///
/// Dropping a handle without waiting **cancels** its job — a handle is
/// the only way to receive the result, so an abandoned job would be pure
/// waste (the serving analogy: the client hung up). The cancel stops the
/// job within one sample; worker threads belong to the session's pool
/// and are never leaked either way.
#[derive(Debug)]
pub struct SolveHandle {
    control: Arc<JobControl>,
    incumbents: Receiver<Incumbent>,
    result_rx: Receiver<Result<SolveResult, SessionError>>,
    /// The received outcome, cached so `try_result` + `wait` compose.
    result: Option<Result<SolveResult, SessionError>>,
}

impl SolveHandle {
    /// A handle whose job failed before it could start (spec-level batch
    /// errors): the result is pre-loaded, the control already finished.
    fn failed(error: SessionError) -> Self {
        let control = Arc::new(JobControl::new());
        let incumbents = control.take_incumbents();
        control.finish();
        let (result_tx, result_rx) = channel();
        let _ = result_tx.send(Err(error));
        Self {
            control,
            incumbents,
            result_rx,
            result: None,
        }
    }

    /// A handle whose job was answered from the session memo: the cached
    /// result is pre-loaded (bit-identical to the solve that produced
    /// it), the control reports the original solve's final progress, and
    /// no thread is spawned — `wait`/`try_result` return in O(1).
    fn cached(result: SolveResult) -> Self {
        let control = Arc::new(JobControl::new());
        let incumbents = control.take_incumbents();
        control.publish_stage(
            result.stats.stages,
            result.stats.samples_drawn,
            Some((result.group.willingness(), result.group.nodes())),
        );
        control.finish();
        let (result_tx, result_rx) = channel();
        let _ = result_tx.send(Ok(result));
        Self {
            control,
            incumbents,
            result_rx,
            result: None,
        }
    }

    /// Blocks until the job finishes and returns its result. Bit-identical
    /// to what the blocking [`WasoSession::solve`] returns — `solve` *is*
    /// this call. A solver that panicked answers
    /// [`SessionError::Panicked`].
    pub fn wait(mut self) -> Result<SolveResult, SessionError> {
        match self.result.take() {
            Some(outcome) => outcome,
            None => self.result_rx.recv().unwrap_or(Err(SessionError::Panicked)),
        }
    }

    /// Non-blocking poll: the job's result if it has finished, `None`
    /// while it is still running. Repeatable; composes with a later
    /// [`SolveHandle::wait`]. A solver that panicked answers
    /// [`SessionError::Panicked`].
    pub fn try_result(&mut self) -> Option<Result<SolveResult, SessionError>> {
        if self.result.is_none() {
            match self.result_rx.try_recv() {
                Ok(outcome) => self.result = Some(outcome),
                Err(std::sync::mpsc::TryRecvError::Empty) => {}
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    self.result = Some(Err(SessionError::Panicked));
                }
            }
        }
        self.result.clone()
    }

    /// Requests cancellation: the job stops within one sample, abandons
    /// its in-flight stage, and its result becomes the incumbent of the
    /// last completed stage, tagged [`waso_algos::Termination::Cancelled`]
    /// (or [`SolveError::NoIncumbent`] if no stage had completed).
    /// Idempotent; a no-op once the job finished.
    pub fn cancel(&self) {
        self.control.cancel();
    }

    /// A point-in-time progress snapshot: stages done, samples spent,
    /// current incumbent willingness, finished flag.
    pub fn progress(&self) -> JobProgress {
        self.control.progress()
    }

    /// The job's [`JobControl`] — for arming an extra deadline
    /// ([`JobControl::arm_deadline`] covers queue wait too, unlike the
    /// spec's `deadline_ms=`, whose clock starts at solve start) or for
    /// sharing cancellation with other owners.
    pub fn control(&self) -> &Arc<JobControl> {
        &self.control
    }

    /// Streams the job's improving incumbents: one [`Incumbent`] per
    /// stage that raised the best-so-far willingness, strictly
    /// increasing. The iterator **blocks** between stages and ends when
    /// the job finishes — drain it from the thread that watches the
    /// solve, and call [`SolveHandle::wait`] afterwards for the final
    /// result.
    pub fn incumbents(&self) -> std::sync::mpsc::Iter<'_, Incumbent> {
        self.incumbents.iter()
    }

    /// The best incumbent published so far — a **latest-only watch
    /// view**. Unlike [`SolveHandle::incumbents`], which queues every
    /// improvement until someone drains it, this is a single overwritten
    /// cell: a slow poller (a serving front door relaying progress to a
    /// remote client) always reads the current best and can never back
    /// the job up or miss the final value. `None` until the first stage
    /// completes with a feasible group.
    pub fn latest_incumbent(&self) -> Option<Incumbent> {
        self.control.latest_incumbent()
    }
}

impl Drop for SolveHandle {
    /// Abandoning a handle cancels its job (see the type docs). A
    /// finished job — including one just consumed by
    /// [`SolveHandle::wait`] — is left untouched.
    fn drop(&mut self) {
        if !self.control.progress().finished {
            self.control.cancel();
        }
    }
}

/// Bounds, duplicate and size checks for a required-attendee list.
fn validate_required(instance: &WasoInstance, required: &[NodeId]) -> Result<(), SessionError> {
    let n = instance.graph().num_nodes() as u32;
    let mut seen = std::collections::BTreeSet::new();
    for &v in required {
        if v.0 >= n {
            return Err(CoreError::UnknownNode(v.0).into());
        }
        if !seen.insert(v.0) {
            return Err(CoreError::DuplicateMember(v.0).into());
        }
    }
    if required.len() > instance.k() {
        return Err(CoreError::WrongSize {
            got: required.len(),
            want: instance.k(),
        }
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_graph::GraphBuilder;

    fn path4() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let v1 = b.add_node(8.0);
        let v2 = b.add_node(7.0);
        let v3 = b.add_node(6.0);
        let v4 = b.add_node(5.0);
        b.add_edge_symmetric(v1, v2, 1.0).unwrap();
        b.add_edge_symmetric(v2, v3, 2.0).unwrap();
        b.add_edge_symmetric(v3, v4, 4.0).unwrap();
        b.build()
    }

    #[test]
    fn session_solves_with_any_registered_spec() {
        let session = WasoSession::new(path4()).k(3);
        for spec in ["dgreedy", "cbas:budget=60,stages=2", "exact"] {
            let res = session.solve_str(spec).unwrap();
            assert_eq!(res.group.len(), 3, "{spec}");
        }
    }

    #[test]
    fn a_rejected_delta_leaves_graph_and_memo_untouched() {
        let mut session = WasoSession::new(path4()).k(3);
        let spec = "cbas-nd:budget=60,stages=2";
        let first = session.solve_str(spec).unwrap();
        let generation = session.memo.lock().unwrap().generation;
        let err = session
            .apply(&GraphDelta::SetInterest {
                v: NodeId(1),
                interest: f64::NAN,
            })
            .unwrap_err();
        assert_eq!(err, SessionError::Delta(DeltaError::NonFiniteScore));
        assert_eq!(session.graph(), &path4());
        assert_eq!(session.memo.lock().unwrap().generation, generation);
        // The cached entry survived: the repeat solve is a hit.
        let again = session.solve_str(spec).unwrap();
        assert_eq!(again.group, first.group);
        let stats = session.memo_stats();
        assert_eq!((stats.hits, stats.invalidated), (1, 0));
    }

    #[test]
    fn missing_k_is_an_error() {
        let err = WasoSession::new(path4()).solve_str("dgreedy").unwrap_err();
        assert_eq!(err, SessionError::GroupSizeNotSet);
    }

    #[test]
    fn required_attendees_are_enforced_or_rejected() {
        let session = WasoSession::new(path4()).k(3).require([NodeId(0)]);
        // CBAS-ND honours the requirement.
        let res = session.solve_str("cbas-nd:budget=60,stages=2").unwrap();
        assert!(res.group.contains(NodeId(0)));
        // CBAS cannot guarantee it — rejected, not ignored.
        let err = session.solve_str("cbas:budget=60").unwrap_err();
        assert_eq!(
            err,
            SessionError::Solve(SolveError::RequiredUnsupported { solver: "cbas" })
        );
    }

    #[test]
    fn spec_level_requirements_merge_with_session_ones() {
        let session = WasoSession::new(path4()).k(3).require([NodeId(0)]);
        let res = session
            .solve(
                &SolverSpec::cbas_nd()
                    .budget(80)
                    .stages(2)
                    .require([NodeId(2)]),
            )
            .unwrap();
        assert!(res.group.contains(NodeId(0)));
        assert!(res.group.contains(NodeId(2)));
    }

    #[test]
    fn invalid_required_sets_fail_validation() {
        let g = path4();
        let err = WasoSession::new(g.clone())
            .k(2)
            .require([NodeId(99)])
            .solve_str("cbas-nd")
            .unwrap_err();
        assert_eq!(err, SessionError::Core(CoreError::UnknownNode(99)));

        let err = WasoSession::new(g.clone())
            .k(2)
            .require([NodeId(1), NodeId(1)])
            .solve_str("cbas-nd")
            .unwrap_err();
        assert_eq!(err, SessionError::Core(CoreError::DuplicateMember(1)));

        let err = WasoSession::new(g)
            .k(2)
            .require([NodeId(0), NodeId(1), NodeId(2)])
            .solve_str("cbas-nd")
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Core(CoreError::WrongSize { got: 3, want: 2 })
        );
    }

    #[test]
    fn disconnected_mode_reaches_separated_optima() {
        // Two components; the best pair straddles them.
        let mut b = GraphBuilder::new();
        let a = b.add_node(10.0);
        let c = b.add_node(9.0);
        let d = b.add_node(1.0);
        b.add_edge_symmetric(a, d, 0.1).unwrap();
        let _ = c;
        let session = WasoSession::new(b.build()).k(2).disconnected();
        let res = session.solve_str("dgreedy").unwrap();
        assert_eq!(res.group.willingness(), 19.0);
    }

    #[test]
    fn lambda_rescores_the_instance() {
        let session = WasoSession::new(path4()).k(3).lambda_uniform(1.0);
        // λ = 1 everywhere: tightness vanishes, best trio is {v1,v2,v3}
        // by pure interest (8+7+6).
        let res = session.solve_str("exact").unwrap();
        assert_eq!(res.group.willingness(), 21.0);

        let err = WasoSession::new(path4())
            .k(3)
            .lambda(vec![0.5; 3])
            .solve_str("dgreedy")
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Core(CoreError::BadParameterLength { got: 3, want: 4 })
        );
    }

    #[test]
    fn seed_policy_is_deterministic_and_overridable() {
        let g = waso_datasets::synthetic::facebook_like_n(120, 3);
        let session = WasoSession::new(g.clone()).k(6);
        let a = session.solve_str("cbas-nd:budget=80,stages=3").unwrap();
        let b = session.solve_str("cbas-nd:budget=80,stages=3").unwrap();
        assert_eq!(a.group, b.group, "default seed is fixed");

        let reseeded = WasoSession::new(g).k(6).seed(7);
        let c = reseeded.solve_str("cbas-nd:budget=80,stages=3").unwrap();
        // Different seed explores differently (stats differ even if the
        // answer coincides).
        assert!(c.group.validate(&reseeded.instance().unwrap()).is_ok());
    }

    #[test]
    fn out_of_range_spec_strings_error_instead_of_panicking() {
        // A user-supplied `cbas-nd:rho=0` used to assert inside the
        // engine; it must surface as a typed spec error.
        let session = WasoSession::new(path4()).k(3);
        for (spec, key) in [
            ("cbas-nd:rho=0", "rho"),
            ("cbas-nd:budget=60,rho=1.5", "rho"),
            ("cbas-nd-g:smoothing=-0.5", "smoothing"),
            ("cbas-nd-par:threads=2,smoothing=1.5", "smoothing"),
        ] {
            match session.solve_str(spec) {
                Err(SessionError::Spec(SpecError::OutOfRange { key: k, .. })) => {
                    assert_eq!(k, key, "{spec}")
                }
                other => panic!("{spec}: expected OutOfRange, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn batch_solves_match_sequential_solves() {
        let g = waso_datasets::synthetic::facebook_like_n(100, 3);
        let specs = vec![
            SolverSpec::cbas_nd().budget(60).stages(3).threads(2),
            SolverSpec::cbas().budget(60).stages(2).threads(3),
            SolverSpec::dgreedy(),
            SolverSpec::cbas_nd()
                .budget(60)
                .stages(3)
                .threads(4)
                .require([NodeId(0)]),
        ];
        let batch_session = WasoSession::new(g.clone()).k(5).seed(3);
        let batch = batch_session.solve_batch(&specs).unwrap();
        assert_eq!(batch.len(), specs.len());
        for (spec, outcome) in specs.iter().zip(&batch) {
            // Fresh session per spec: the per-solve baseline the batch
            // must be bit-identical to.
            let alone = WasoSession::new(g.clone())
                .k(5)
                .seed(3)
                .solve(spec)
                .unwrap();
            let batched = outcome.as_ref().unwrap();
            assert_eq!(batched.group, alone.group, "{spec}");
            assert_eq!(batched.stats.samples_drawn, alone.stats.samples_drawn);
        }
        let constrained = batch[3].as_ref().unwrap();
        assert!(constrained.group.contains(NodeId(0)));
    }

    #[test]
    fn batch_jobs_fail_individually_not_collectively() {
        let session = WasoSession::new(path4()).k(3);
        let results = session
            .solve_many(["dgreedy", "nope-nope", "cbas:budget=40,rho=1", "exact"])
            .unwrap();
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(SessionError::Spec(SpecError::UnknownAlgorithm { .. }))
        ));
        assert!(matches!(
            results[2],
            Err(SessionError::Spec(SpecError::UnsupportedOption { .. }))
        ));
        assert!(results[3].is_ok());
    }

    #[test]
    fn session_pool_is_reused_across_solves() {
        // Many pooled solves through one session: all must succeed and
        // match a fresh session's answers (the pool and the cached
        // instance are invisible in results).
        let g = waso_datasets::synthetic::facebook_like_n(80, 3);
        let session = WasoSession::new(g.clone()).k(4).seed(9);
        let spec_a = SolverSpec::cbas_nd().budget(50).stages(2).threads(8);
        let spec_b = SolverSpec::cbas().budget(50).stages(2).threads(1);
        for _ in 0..3 {
            let a = session.solve(&spec_a).unwrap();
            let b = session.solve(&spec_b).unwrap();
            let fresh = WasoSession::new(g.clone()).k(4).seed(9);
            assert_eq!(a.group, fresh.solve(&spec_a).unwrap().group);
            assert_eq!(b.group, fresh.solve(&spec_b).unwrap().group);
        }
    }

    #[test]
    fn sessions_share_one_pool_across_different_graphs() {
        // Two sessions over *different* instances attached to one
        // process-wide pool: every solve matches a fresh
        // session bit-for-bit, and no chunk is ever re-drawn.
        let pool = Arc::new(SharedPool::new(2));
        let g1 = waso_datasets::synthetic::facebook_like_n(60, 3);
        let g2 = waso_datasets::synthetic::facebook_like_n(90, 3);
        let s1 = WasoSession::new(g1.clone())
            .k(4)
            .seed(5)
            .attach_pool(Arc::clone(&pool));
        let s2 = WasoSession::new(g2.clone())
            .k(5)
            .seed(6)
            .attach_pool(Arc::clone(&pool));
        let spec = SolverSpec::cbas_nd().budget(50).stages(2).threads(3);
        for _ in 0..2 {
            let a = s1.solve(&spec).unwrap();
            let b = s2.solve(&spec).unwrap();
            let fresh1 = WasoSession::new(g1.clone()).k(4).seed(5);
            let fresh2 = WasoSession::new(g2.clone()).k(5).seed(6);
            assert_eq!(a.group, fresh1.solve(&spec).unwrap().group);
            assert_eq!(b.group, fresh2.solve(&spec).unwrap().group);
        }
        assert_eq!(pool.redrawn_chunks(), 0);
        drop((s1, s2));
        assert_eq!(Arc::strong_count(&pool), 1, "sessions release the pool");
    }

    #[test]
    fn concurrent_batches_on_one_attached_pool_match_sequential_solves() {
        let pool = Arc::new(SharedPool::new(3));
        let g = waso_datasets::synthetic::facebook_like_n(80, 3);
        let specs = vec![
            SolverSpec::cbas_nd().budget(60).stages(3).threads(2),
            SolverSpec::cbas().budget(60).stages(2).threads(4),
            SolverSpec::dgreedy(),
            SolverSpec::cbas_nd()
                .budget(40)
                .stages(2)
                .threads(1)
                .require([NodeId(0)]),
        ];
        let session = WasoSession::new(g.clone())
            .k(5)
            .seed(11)
            .attach_pool(Arc::clone(&pool));
        let batch = session.solve_batch(&specs).unwrap();
        for (spec, outcome) in specs.iter().zip(&batch) {
            let alone = WasoSession::new(g.clone())
                .k(5)
                .seed(11)
                .solve(spec)
                .unwrap();
            let batched = outcome.as_ref().unwrap();
            assert_eq!(batched.group, alone.group, "{spec}");
            assert_eq!(batched.stats.samples_drawn, alone.stats.samples_drawn);
        }
    }

    #[test]
    fn deadline_from_submit_is_armed_at_submit_and_bounds_the_job() {
        // A solve whose budget would take far longer than the deadline:
        // the submit-anchored clock must stop it well before the budget
        // is spent, even though no handle interaction ever happens.
        let g = waso_datasets::synthetic::facebook_like_n(150, 3);
        let session = WasoSession::new(g).k(6);
        let spec = SolverSpec::cbas_nd()
            .budget(3_000_000)
            .stages(1)
            .deadline_from_submit(40);
        let t0 = std::time::Instant::now();
        let outcome = session.solve(&spec);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "deadline_from_submit did not bound the solve ({:?})",
            t0.elapsed()
        );
        // A 40 ms deadline on a 3M-sample stage trips mid-stage; the
        // abandoned stage never merges, so there is no incumbent.
        match outcome {
            Err(SessionError::Solve(SolveError::NoIncumbent { reason })) => {
                assert_eq!(reason, waso_algos::Termination::Deadline)
            }
            other => panic!("expected a deadline stop, got {other:?}"),
        }
    }

    #[test]
    fn latest_incumbent_is_readable_without_draining_the_stream() {
        let g = waso_datasets::synthetic::facebook_like_n(100, 3);
        let session = WasoSession::new(g).k(5).seed(3);
        let mut handle = session
            .submit(&SolverSpec::cbas_nd().budget(400).stages(4))
            .unwrap();
        // Never touch `incumbents()` — the queue fills, the watch view
        // must still hold the final best.
        let result = loop {
            if let Some(outcome) = handle.try_result() {
                break outcome.unwrap();
            }
            std::thread::yield_now();
        };
        let latest = handle.latest_incumbent().expect("stages published");
        // The incumbent carries the engine's running score; the group
        // recomputes from scratch — equal up to summation order.
        assert!((latest.willingness - result.group.willingness()).abs() < 1e-9);
        assert_eq!(latest.nodes.len(), result.group.len());
        assert!(latest.nodes.iter().all(|&v| result.group.contains(v)));
    }

    #[test]
    fn unknown_algorithms_name_the_known_set() {
        let err = WasoSession::new(path4())
            .k(2)
            .solve_str("magic")
            .unwrap_err();
        match err {
            SessionError::Spec(SpecError::UnknownAlgorithm { known, .. }) => {
                assert!(known.contains(&"exact"), "exact is registered");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
