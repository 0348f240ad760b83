//! Shared measurement machinery for the figure drivers.
//!
//! Solvers are obtained exclusively through [`SolverSpec`] → the
//! [`SolverRegistry`] (`waso::registry()`): the per-figure rosters, their
//! table columns, and the cost caps all derive from registry metadata, so
//! registering a new solver puts it in every figure without touching a
//! driver.

use std::sync::Arc;
use std::time::Instant;

use waso_algos::{RegistryEntry, SolveError, SolveRequest, Solver, SolverRegistry, SolverSpec};
use waso_core::WasoInstance;
use waso_datasets::Scale;

/// A timed solver run: quality, wall-clock seconds and sampling stats.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Willingness of the returned group (`None` when infeasible).
    pub quality: Option<f64>,
    /// Wall-clock seconds of the solve call.
    pub seconds: f64,
    /// Samples the solver reports having drawn.
    pub samples: u64,
    /// Whether the solver reported hitting a work cap (best-found result).
    pub truncated: bool,
    /// Sampling throughput: total samples over total wall-clock time
    /// (the [`waso_algos::SolverStats::samples_per_sec`] figure,
    /// aggregated across repeats for averaged measurements).
    pub samples_per_sec: f64,
}

/// `samples / seconds` guarded against empty or untimeable runs.
fn throughput(samples: u64, seconds: f64) -> f64 {
    if seconds > 0.0 && samples > 0 {
        samples as f64 / seconds
    } else {
        0.0
    }
}

/// Runs `solver` on `req` and measures it. Infeasibility is recorded,
/// other solver errors (validation bugs) propagate loudly.
pub fn measure<S: Solver + ?Sized>(solver: &mut S, req: &SolveRequest<'_>) -> Measurement {
    let t0 = Instant::now();
    let outcome = solver.solve(req);
    let seconds = t0.elapsed().as_secs_f64();
    match outcome {
        Ok(res) => Measurement {
            quality: Some(res.group.willingness()),
            seconds,
            samples: res.stats.samples_drawn,
            truncated: res.stats.truncated,
            samples_per_sec: throughput(res.stats.samples_drawn, seconds),
        },
        Err(SolveError::NoFeasibleGroup) => Measurement {
            quality: None,
            seconds,
            samples: 0,
            truncated: false,
            samples_per_sec: 0.0,
        },
        Err(e) => panic!("solver {} misbehaved: {e}", solver.name()),
    }
}

/// Averages `measure` over `repeats` seeds (quality mean over feasible
/// runs; time mean over all runs).
pub fn measure_avg<S: Solver + ?Sized>(
    solver: &mut S,
    instance: &Arc<WasoInstance>,
    base_seed: u64,
    repeats: u32,
) -> Measurement {
    assert!(repeats >= 1);
    let mut q_sum = 0.0;
    let mut q_count = 0u32;
    let mut t_sum = 0.0;
    let mut samples = 0u64;
    let mut truncated = false;
    for r in 0..repeats {
        let m = measure(
            solver,
            &SolveRequest::new(instance, base_seed.wrapping_add(r as u64)),
        );
        if let Some(q) = m.quality {
            q_sum += q;
            q_count += 1;
        }
        t_sum += m.seconds;
        samples += m.samples;
        truncated |= m.truncated;
    }
    Measurement {
        quality: (q_count > 0).then(|| q_sum / q_count as f64),
        seconds: t_sum / repeats as f64,
        samples,
        truncated,
        samples_per_sec: throughput(samples, t_sum),
    }
}

/// One roster member: the registry entry plus the harness's spec for it.
#[derive(Debug)]
pub struct RosterSolver<'r> {
    /// The registry entry (label, capabilities, cost metadata).
    pub entry: &'r RegistryEntry,
    /// The spec the harness solves with.
    pub spec: SolverSpec,
}

impl RosterSolver<'_> {
    /// Repeats a measurement deserves: deterministic solvers are measured
    /// once, randomized ones averaged over the context's repeat count.
    pub fn repeats(&self, ctx: &ExperimentContext) -> u32 {
        if self.entry.capabilities.randomized {
            ctx.repeats
        } else {
            1
        }
    }
}

/// The paper's standard comparison roster at the harness's standard
/// settings: every registry entry with a roster rank, each with budget /
/// stages / start-node knobs applied *if the solver supports them* (the
/// supported-option lists come from the registry, not from per-solver
/// knowledge here).
pub fn roster_specs<'r>(
    registry: &'r SolverRegistry,
    budget: u64,
    stages: u32,
    m: Option<usize>,
) -> Vec<RosterSolver<'r>> {
    registry
        .roster()
        .into_iter()
        .map(|entry| RosterSolver {
            spec: harness_spec(entry, budget, stages, m),
            entry,
        })
        .collect()
}

/// The harness's standard spec for one registry entry (see
/// [`roster_specs`]).
pub fn harness_spec(
    entry: &RegistryEntry,
    budget: u64,
    stages: u32,
    m: Option<usize>,
) -> SolverSpec {
    let mut spec = SolverSpec::new(entry.name);
    if entry.options.contains(&"budget") {
        spec = spec.budget(budget);
    }
    if entry.options.contains(&"stages") {
        spec = spec.stages(stages);
    }
    if let Some(m) = m {
        if entry.options.contains(&"start-nodes") {
            spec = spec.start_nodes(m);
        }
    }
    spec
}

/// Builds the spec's solver from the registry and measures it.
/// Construction failures are bugs in the harness's spec derivation and
/// panic loudly.
pub fn measure_spec(
    registry: &SolverRegistry,
    spec: &SolverSpec,
    instance: &Arc<WasoInstance>,
    seed: u64,
) -> Measurement {
    let mut solver = registry
        .build(spec)
        .unwrap_or_else(|e| panic!("harness built an unusable spec '{spec}': {e}"));
    measure(solver.as_mut(), &SolveRequest::new(instance, seed))
}

/// The per-solve-spawn baseline for batch comparisons: one solve per
/// spec, each building the solver anew and (for pooled specs) spawning a
/// fresh worker pool — exactly what a caller without a session pays.
/// Quality is the mean over feasible jobs, `seconds` the mean per job,
/// `samples_per_sec` the aggregate throughput.
pub fn measure_spec_batch_baseline(
    registry: &SolverRegistry,
    specs: &[SolverSpec],
    instance: &Arc<WasoInstance>,
    seed: u64,
) -> Measurement {
    assert!(!specs.is_empty());
    let mut q_sum = 0.0;
    let mut q_count = 0u32;
    let mut t_sum = 0.0;
    let mut samples = 0u64;
    let mut truncated = false;
    for spec in specs {
        let m = measure_spec(registry, spec, instance, seed);
        if let Some(q) = m.quality {
            q_sum += q;
            q_count += 1;
        }
        t_sum += m.seconds;
        samples += m.samples;
        truncated |= m.truncated;
    }
    Measurement {
        quality: (q_count > 0).then(|| q_sum / q_count as f64),
        seconds: t_sum / specs.len() as f64,
        samples,
        truncated,
        samples_per_sec: throughput(samples, t_sum),
    }
}

/// Runs `jobs` on `session` and times them, panicking if any job was
/// answered from the session memo: a memo hit replays a cached result in
/// O(1), so a measurement that includes one times a lookup, not a solve.
fn time_real_solves<T>(session: &waso::WasoSession, jobs: impl FnOnce() -> T) -> (T, f64) {
    let hits = session.memo_stats().hits;
    let t0 = Instant::now();
    let out = jobs();
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(
        session.memo_stats().hits,
        hits,
        "a measured job was a memo hit — give every job a distinct spec"
    );
    (out, seconds)
}

/// Aggregates a slice of per-job session outcomes measured over
/// `seconds` of wall clock: quality mean over feasible jobs, `seconds`
/// the mean per job, `samples_per_sec` the aggregate throughput.
/// Spec-level failures are harness bugs and panic loudly; infeasible
/// jobs are recorded, like [`measure`].
fn aggregate_session_jobs(
    specs: &[SolverSpec],
    outcomes: Vec<Result<waso::algos::SolveResult, waso::SessionError>>,
    seconds: f64,
) -> Measurement {
    let mut q_sum = 0.0;
    let mut q_count = 0u32;
    let mut samples = 0u64;
    let mut truncated = false;
    for (spec, outcome) in specs.iter().zip(outcomes) {
        match outcome {
            Ok(res) => {
                q_sum += res.group.willingness();
                q_count += 1;
                samples += res.stats.samples_drawn;
                truncated |= res.stats.truncated;
            }
            Err(waso::SessionError::Solve(SolveError::NoFeasibleGroup)) => {}
            Err(e) => panic!("batch job '{spec}' misbehaved: {e}"),
        }
    }
    Measurement {
        quality: (q_count > 0).then(|| q_sum / q_count as f64),
        seconds: seconds / specs.len() as f64,
        samples,
        truncated,
        samples_per_sec: throughput(samples, seconds),
    }
}

/// Runs `specs` through one [`waso::WasoSession::solve_batch`] — the
/// instance validated and cloned once, every pooled job sharing the
/// session's worker pool, independent jobs running **concurrently** over
/// its scheduler — and measures the whole batch.
pub fn measure_session_batch(session: &waso::WasoSession, specs: &[SolverSpec]) -> Measurement {
    assert!(!specs.is_empty());
    let (outcomes, seconds) = time_real_solves(session, || {
        session
            .solve_batch(specs)
            .unwrap_or_else(|e| panic!("harness built an unusable batch session: {e}"))
    });
    aggregate_session_jobs(specs, outcomes, seconds)
}

/// Runs `specs` through one session **one job at a time** — the
/// sequential counterpart of [`measure_session_batch`]: same shared
/// instance and worker pool, no job-level concurrency. The gap between
/// the two rows is what the concurrent scheduler buys.
pub fn measure_session_each(session: &waso::WasoSession, specs: &[SolverSpec]) -> Measurement {
    assert!(!specs.is_empty());
    let (outcomes, seconds) = time_real_solves(session, || {
        specs.iter().map(|spec| session.solve(spec)).collect()
    });
    aggregate_session_jobs(specs, outcomes, seconds)
}

/// Runs `specs` through explicit job handles, one at a time:
/// `submit(spec)` + `wait()` per job. Since the blocking
/// `WasoSession::solve` *is* submit+wait, the gap between this row and
/// [`measure_session_each`] is pure noise — the record exists so a future
/// divergence between the two paths (or a regression in the handle
/// plumbing: thread spawn, channels, control publishing) shows up in the
/// committed BENCH_engine.json trajectory.
pub fn measure_session_submit_wait(
    session: &waso::WasoSession,
    specs: &[SolverSpec],
) -> Measurement {
    assert!(!specs.is_empty());
    let (outcomes, seconds) = time_real_solves(session, || {
        specs
            .iter()
            .map(|spec| session.submit(spec).and_then(|handle| handle.wait()))
            .collect()
    });
    aggregate_session_jobs(specs, outcomes, seconds)
}

/// [`measure_spec`] averaged over `repeats` seeds.
pub fn measure_spec_avg(
    registry: &SolverRegistry,
    spec: &SolverSpec,
    instance: &Arc<WasoInstance>,
    base_seed: u64,
    repeats: u32,
) -> Measurement {
    let mut solver = registry
        .build(spec)
        .unwrap_or_else(|e| panic!("harness built an unusable spec '{spec}': {e}"));
    measure_avg(solver.as_mut(), instance, base_seed, repeats)
}

/// Scale-dependent experiment parameters shared across figure drivers.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Dataset / workload scale.
    pub scale: Scale,
    /// Master seed; every generated graph and solver run derives from it.
    pub seed: u64,
    /// Repetitions for averaged quality measurements.
    pub repeats: u32,
}

impl ExperimentContext {
    /// Context at a scale with the default seed.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            seed: 0xCAFE,
            repeats: match scale {
                Scale::Smoke => 1,
                Scale::Small => 3,
                Scale::Paper => 3,
            },
        }
    }

    /// The default total budget `T` at this scale.
    ///
    /// The paper's pseudo-code sets the *per-stage* budget
    /// `T₁ = m·ln(2(1-P_b)/(m-1))/ln α ≈ 500·m` at its defaults — orders of
    /// magnitude above the T axis of Figures 5(e,f). We use budgets that
    /// finish on a laptop and report the T-dependence explicitly in the
    /// budget-sweep figures.
    pub fn budget(&self) -> u64 {
        match self.scale {
            Scale::Smoke => 500,
            Scale::Small => 2000,
            Scale::Paper => 5000,
        }
    }

    /// The fixed start-node count used by the harness quality figures.
    ///
    /// §5.3.1 finds quality saturates at m = 500 on the 90k-node Facebook
    /// graph (m ≈ n/180, far below the n/k default); we keep the same
    /// proportionality, clamped for small graphs.
    pub fn harness_m(&self, n: usize) -> usize {
        (n / 180).clamp(8, 64)
    }

    /// Stage count used by the harness (the paper's r-derivation formula
    /// degenerates to r = 1 at realistic sizes; see
    /// `waso_algos::ocba::derive_stages`).
    pub fn stages(&self) -> u32 {
        10
    }

    /// Group-size sweep for the Facebook figures (5a/5b, 9c/9d).
    pub fn k_sweep_facebook(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![10, 20],
            _ => vec![20, 40, 60, 80, 100],
        }
    }

    /// Group-size sweep for the DBLP/Flickr figures (7a/7b, 8a/8b).
    pub fn k_sweep_sparse(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![10, 20],
            _ => vec![10, 20, 30, 40, 50],
        }
    }

    /// Network-size sweep for Figure 5(c).
    pub fn n_sweep(&self) -> Vec<usize> {
        match self.scale {
            Scale::Smoke => vec![500, 1000],
            Scale::Small => vec![500, 1000, 5000, 10_000],
            Scale::Paper => vec![500, 1000, 5000, 10_000, 50_000],
        }
    }

    /// Budget sweep for Figures 5(e/f), 7(e/f).
    pub fn t_sweep(&self) -> Vec<u64> {
        match self.scale {
            Scale::Smoke => vec![50, 100],
            _ => vec![200, 500, 1000, 2000, 5000],
        }
    }

    /// Start-node-count sweep for Figures 5(i/j), 7(c/d), scaled from the
    /// paper's {100, 200, 500, 1000, 2000} to the dataset size in use.
    pub fn m_sweep(&self, n: usize, k: usize) -> Vec<usize> {
        let cap = (n / k).max(2);
        let raw = match self.scale {
            Scale::Smoke => vec![5, 10, 20],
            _ => vec![10, 25, 50, 100, 200],
        };
        let mut out: Vec<usize> = raw.into_iter().map(|m| m.min(cap)).collect();
        out.dedup();
        out
    }

    /// The largest `k` at which *costly* solvers (per-candidate pricing,
    /// [`RegistryEntry::costly`] — RGreedy in the paper's roster) are
    /// still run: the paper aborts them beyond small groups — 12-hour
    /// timeouts on Facebook, §5.3.1.
    pub fn costly_k_limit(&self) -> usize {
        match self.scale {
            Scale::Smoke => 20,
            Scale::Small => 40,
            Scale::Paper => 20,
        }
    }

    /// Number of simulated participants per configuration in the §5.2
    /// study figures.
    pub fn study_participants(&self) -> u32 {
        match self.scale {
            Scale::Smoke => 4,
            Scale::Small => 20,
            Scale::Paper => 137,
        }
    }

    /// Branch-and-bound expansion cap for the Figure 9 IP runs.
    pub fn exact_cap(&self) -> u64 {
        match self.scale {
            Scale::Smoke => 2_000_000,
            Scale::Small => 20_000_000,
            Scale::Paper => 200_000_000,
        }
    }
}

/// Parses a scale name.
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "smoke" => Some(Scale::Smoke),
        "small" => Some(Scale::Small),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_algos::DGreedy;
    use waso_graph::GraphBuilder;

    fn tiny_instance() -> Arc<WasoInstance> {
        let mut b = GraphBuilder::new();
        let u = b.add_node(1.0);
        let v = b.add_node(2.0);
        b.add_edge_symmetric(u, v, 0.5).unwrap();
        Arc::new(WasoInstance::new(b.build(), 2).unwrap())
    }

    #[test]
    fn measure_reports_quality_and_time() {
        let m = measure(&mut DGreedy::new(), &SolveRequest::new(&tiny_instance(), 0));
        assert_eq!(m.quality, Some(4.0));
        assert!(m.seconds >= 0.0);
        assert_eq!(m.samples, 1);
    }

    #[test]
    fn measure_records_infeasibility() {
        let mut b = GraphBuilder::new();
        b.add_node(1.0);
        b.add_node(1.0);
        let inst = Arc::new(WasoInstance::new(b.build(), 2).unwrap());
        let m = measure(&mut DGreedy::new(), &SolveRequest::new(&inst, 0));
        assert_eq!(m.quality, None);
    }

    #[test]
    fn average_over_repeats() {
        let m = measure_avg(&mut DGreedy::new(), &tiny_instance(), 0, 3);
        assert_eq!(m.quality, Some(4.0));
        assert_eq!(m.samples, 3);
    }

    #[test]
    fn throughput_aggregates_over_total_time() {
        assert_eq!(throughput(0, 1.0), 0.0);
        assert_eq!(throughput(10, 0.0), 0.0);
        assert_eq!(throughput(100, 0.5), 200.0);
        // Averaged measurements report total samples / total seconds, not
        // total samples / mean seconds.
        let m = measure_avg(&mut DGreedy::new(), &tiny_instance(), 0, 4);
        if m.seconds > 0.0 {
            let expect = m.samples as f64 / (m.seconds * 4.0);
            assert!(
                (m.samples_per_sec - expect).abs() < 1e-6 * expect.max(1.0),
                "{} vs {expect}",
                m.samples_per_sec
            );
        }
    }

    #[test]
    fn sweeps_scale_sanely() {
        let smoke = ExperimentContext::new(Scale::Smoke);
        let small = ExperimentContext::new(Scale::Small);
        assert!(smoke.budget() < small.budget());
        assert!(smoke.k_sweep_facebook().len() < small.k_sweep_facebook().len());
        // m sweep never exceeds n/k.
        let ms = small.m_sweep(100, 10);
        assert!(ms.iter().all(|&m| m <= 10));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("smoke"), Some(Scale::Smoke));
        assert_eq!(parse_scale("small"), Some(Scale::Small));
        assert_eq!(parse_scale("paper"), Some(Scale::Paper));
        assert_eq!(parse_scale("huge"), None);
    }
}
