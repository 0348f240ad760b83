//! Cross-crate property-based tests: solver outputs are always feasible,
//! never beat the exact optimum, and algebraic identities hold on random
//! instances.

use std::sync::Arc;

use proptest::prelude::*;
use waso::prelude::*;
use waso_exact::{exhaustive_optimum, BranchBound};
use waso_graph::{generate, InterestModel, ScoreModel, TightnessModel};

fn random_instance(
    seed: u64,
    n: usize,
    extra_edges: usize,
    k: usize,
    connected: bool,
) -> WasoInstance {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    // A spanning path plus random extra edges: always connected, arbitrary
    // density.
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    let extra = generate::erdos_renyi_gnm(n, extra_edges.min(n * (n - 1) / 2), &mut rng);
    edges.extend(extra.edges);
    let topo = generate::GraphTopology::new(n, edges);
    let model = ScoreModel {
        interest: InterestModel::Uniform { lo: -0.5, hi: 1.5 },
        tightness: TightnessModel::Uniform { lo: -0.3, hi: 1.0 },
    };
    let g = model.realize(&topo, &mut rng);
    if connected {
        WasoInstance::new(g, k).unwrap()
    } else {
        WasoInstance::without_connectivity(g, k).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn solvers_always_return_feasible_groups(
        seed in 0u64..10_000,
        n in 8usize..20,
        extra in 0usize..25,
        k in 2usize..6,
        connected: bool,
    ) {
        let inst = Arc::new(random_instance(seed, n, extra, k.min(n), connected));
        let mut cfg = CbasNdConfig::with_budget(60);
        cfg.base.stages = Some(3);
        let mut solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(DGreedy::new()),
            Box::new(RGreedy::new(RGreedyConfig::with_budget(30))),
            Box::new(StagedEngine::from_cbasnd(&cfg)),
        ];
        for s in solvers.iter_mut() {
            if let Ok(res) = s.solve(&SolveRequest::new(&inst, seed)) {
                prop_assert!(res.group.validate(&inst).is_ok(), "{} invalid", s.name());
            }
        }
    }

    /// The staged engine's determinism contract, generalized from the
    /// hand-picked cases in `cbasnd.rs`: for random instances, budgets
    /// and stage counts, a threaded solve — on its own pool or as a job
    /// of an attached one — is bit-identical to the serial solver at
    /// every thread count: same group, same samples drawn, same
    /// pruned-start and backtrack counts.
    #[test]
    fn parallel_engine_is_bit_identical_to_serial(
        seed in 0u64..10_000,
        n in 12usize..48,
        extra in 0usize..40,
        k in 2usize..7,
        budget in 8u64..160,
        stages in 1u32..6,
        backtrack: bool,
    ) {
        let inst = random_instance(seed, n, extra, k.min(n), true);
        let mut cfg = CbasNdConfig::with_budget(budget);
        cfg.base.stages = Some(stages);
        if backtrack {
            cfg = cfg.with_backtracking(0.05);
        }
        let inst = Arc::new(inst);
        let serial = StagedEngine::from_cbasnd(&cfg).solve(&SolveRequest::new(&inst, seed));
        let pool = SharedPool::new(3);
        for (threads, attached) in [(1usize, None), (2, None), (4, None), (8, None), (2, Some(&pool))] {
            cfg.base.threads = Some(threads);
            let par = StagedEngine::from_cbasnd(&cfg)
                .solve(&SolveRequest::new(&inst, seed).pool(attached));
            match (&serial, &par) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(&s.group, &p.group, "threads={}", threads);
                    prop_assert_eq!(s.stats.samples_drawn, p.stats.samples_drawn);
                    prop_assert_eq!(s.stats.pruned_start_nodes, p.stats.pruned_start_nodes);
                    prop_assert_eq!(s.stats.backtracks, p.stats.backtracks);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (s, p) => prop_assert!(
                    false,
                    "feasibility diverged at threads={}: serial ok={}, parallel ok={}",
                    threads, s.is_ok(), p.is_ok()
                ),
            }
        }
    }

    /// The same contract for **partial-mode** (required-attendee) solves:
    /// the pool serves them too, growing every sample from the seed set,
    /// and must match the serial path bit-for-bit at every thread count —
    /// including agreeing on infeasibility.
    #[test]
    fn pooled_partial_mode_is_bit_identical_to_serial(
        seed in 0u64..10_000,
        n in 12usize..40,
        extra in 0usize..30,
        k in 3usize..7,
        budget in 8u64..120,
        stages in 1u32..5,
        req_count in 1usize..3,
    ) {
        let inst = random_instance(seed, n, extra, k, true);
        // The spanning path makes low-id nodes mutually reachable; any
        // subset of them is a valid (connected-completable) requirement.
        let required: Vec<NodeId> = (0..req_count as u32).map(NodeId).collect();
        let mut cfg = CbasNdConfig::with_budget(budget);
        cfg.base.stages = Some(stages);
        let inst = Arc::new(inst);
        let req = SolveRequest::new(&inst, seed).required(&required);
        let serial = StagedEngine::from_cbasnd(&cfg).solve(&req);
        let pool = SharedPool::new(3);
        for (threads, attached) in [(1usize, None), (2, None), (4, None), (8, None), (2, Some(&pool))] {
            cfg.base.threads = Some(threads);
            let par = StagedEngine::from_cbasnd(&cfg).solve(&req.pool(attached));
            match (&serial, &par) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(&s.group, &p.group, "threads={}", threads);
                    prop_assert_eq!(s.stats.samples_drawn, p.stats.samples_drawn);
                    prop_assert_eq!(s.stats.backtracks, p.stats.backtracks);
                    for &v in &required {
                        prop_assert!(p.group.contains(v));
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (s, p) => prop_assert!(
                    false,
                    "feasibility diverged at threads={}: serial ok={}, parallel ok={}",
                    threads, s.is_ok(), p.is_ok()
                ),
            }
        }
    }

    /// Batch-API determinism: one `solve_batch` over a session's shared
    /// instance and held worker pool returns exactly what solving each
    /// spec in its own fresh session would.
    #[test]
    fn batch_solves_are_identical_to_per_spec_solves(
        seed in 0u64..10_000,
        n in 12usize..40,
        extra in 0usize..30,
        k in 2usize..6,
        budget in 8u64..100,
        threads in 1usize..5,
    ) {
        let inst = random_instance(seed, n, extra, k, true);
        let graph = inst.graph().clone();
        let specs = vec![
            SolverSpec::cbas_nd().budget(budget).stages(3).threads(threads),
            SolverSpec::cbas().budget(budget).stages(2).threads(threads),
            SolverSpec::cbas_nd().budget(budget).stages(2).threads(threads).require([NodeId(0)]),
            SolverSpec::dgreedy(),
        ];
        let session = WasoSession::new(graph.clone()).k(k).seed(seed);
        let batch = session.solve_batch(&specs).unwrap();
        for (spec, outcome) in specs.iter().zip(&batch) {
            let alone = WasoSession::new(graph.clone()).k(k).seed(seed).solve(spec);
            match (outcome, &alone) {
                (Ok(b), Ok(a)) => {
                    prop_assert_eq!(&b.group, &a.group, "{}", spec);
                    prop_assert_eq!(b.stats.samples_drawn, a.stats.samples_drawn);
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "batch/sequential feasibility diverged for {}: batch ok={}, alone ok={}",
                    spec, outcome.is_ok(), alone.is_ok()
                ),
            }
        }
    }

    /// The SharedPool concurrency contract: random instances and specs
    /// run as (a) sequential per-spec solves in fresh sessions, (b) one
    /// concurrent shared-pool `solve_batch`, and (c) two sessions
    /// attached to the same pool, each batching from its own OS thread —
    /// all three bit-identical per job, for pool sizes 1–8.
    #[test]
    fn shared_pool_concurrency_is_bit_identical(
        seed in 0u64..10_000,
        n in 12usize..36,
        extra in 0usize..25,
        k in 2usize..6,
        budget in 8u64..80,
        pool_threads in 1usize..9,
    ) {
        use waso::algos::SharedPool;

        let inst = random_instance(seed, n, extra, k, true);
        let graph = inst.graph().clone();
        let specs = vec![
            SolverSpec::cbas_nd().budget(budget).stages(3).threads(2),
            SolverSpec::cbas().budget(budget).stages(2).threads(5),
            SolverSpec::cbas_nd().budget(budget).stages(2).threads(1).require([NodeId(0)]),
            SolverSpec::dgreedy(),
        ];

        // (a) the sequential baseline: each spec alone in a fresh session.
        let alone: Vec<_> = specs
            .iter()
            .map(|s| WasoSession::new(graph.clone()).k(k).seed(seed).solve(s))
            .collect();

        let check = |batch: &[Result<waso::algos::SolveResult, SessionError>], tag: &str| {
            for ((spec, a), b) in specs.iter().zip(&alone).zip(batch) {
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.group, &b.group, "{}: {}", tag, spec);
                        prop_assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
                        prop_assert_eq!(a.stats.backtracks, b.stats.backtracks);
                    }
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(
                        false,
                        "{}: feasibility diverged for {}: alone ok={}, pooled ok={}",
                        tag, spec, a.is_ok(), b.is_ok()
                    ),
                }
            }
        };

        // (b) one concurrent batch over a shared pool.
        let pool = Arc::new(SharedPool::new(pool_threads));
        let session = WasoSession::new(graph.clone())
            .k(k)
            .seed(seed)
            .attach_pool(Arc::clone(&pool));
        check(&session.solve_batch(&specs).unwrap(), "batch");

        // (c) two sessions sharing the pool, racing from two OS threads.
        let s1 = WasoSession::new(graph.clone()).k(k).seed(seed).attach_pool(Arc::clone(&pool));
        let s2 = WasoSession::new(graph.clone()).k(k).seed(seed).attach_pool(Arc::clone(&pool));
        let (b1, b2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| s1.solve_batch(&specs).unwrap());
            let h2 = scope.spawn(|| s2.solve_batch(&specs).unwrap());
            (h1.join().unwrap(), h2.join().unwrap())
        });
        check(&b1, "two-sessions/1");
        check(&b2, "two-sessions/2");
        // Healthy runs never respawn a worker.
        prop_assert_eq!(pool.respawned_workers(), 0);
    }

    /// Round-robin vs chunked deals are pure scheduling choices: the same
    /// solves over `Deal::Striped` and `Deal::Chunked` pools are
    /// bit-identical (pinning the ROADMAP "work stealing / chunked
    /// striping" item's determinism audit down in advance).
    #[test]
    fn chunked_deal_is_bit_identical_to_striped(
        seed in 0u64..10_000,
        n in 12usize..36,
        extra in 0usize..25,
        k in 2usize..6,
        budget in 8u64..80,
        stages in 1u32..5,
        pool_threads in 1usize..9,
    ) {
        use waso::algos::{Deal, SharedPool};

        let inst = random_instance(seed, n, extra, k, true);
        let graph = inst.graph().clone();
        let spec = SolverSpec::cbas_nd().budget(budget).stages(stages).threads(3);
        let serial = WasoSession::new(graph.clone()).k(k).seed(seed)
            .solve(&SolverSpec::cbas_nd().budget(budget).stages(stages));
        for deal in [Deal::Striped, Deal::Chunked] {
            let pool = Arc::new(SharedPool::with_deal(pool_threads, deal));
            let session = WasoSession::new(graph.clone()).k(k).seed(seed).attach_pool(pool);
            let dealt = session.solve(&spec);
            match (&serial, &dealt) {
                (Ok(s), Ok(d)) => {
                    prop_assert_eq!(&s.group, &d.group, "{:?}", deal);
                    prop_assert_eq!(s.stats.samples_drawn, d.stats.samples_drawn);
                    prop_assert_eq!(s.stats.backtracks, d.stats.backtracks);
                    prop_assert_eq!(s.stats.pruned_start_nodes, d.stats.pruned_start_nodes);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(
                    false,
                    "feasibility diverged for {:?}: serial ok={}, dealt ok={}",
                    deal, serial.is_ok(), dealt.is_ok()
                ),
            }
        }
    }

    /// The tentpole determinism pin: `submit` + `wait` is bit-identical
    /// to the blocking `solve` — and both to a direct registry-built
    /// solver run with no session machinery at all — for random
    /// instances, thread counts 1–8, and both pool sources (a pool the
    /// session spawns on first use, or one attached up front with a
    /// different width; the direct solve runs on a pool of its own). The
    /// handle plumbing (job thread, channels, control) must be invisible
    /// in results.
    #[test]
    fn submit_wait_is_bit_identical_to_blocking_solve(
        seed in 0u64..10_000,
        n in 12usize..40,
        extra in 0usize..30,
        k in 2usize..6,
        budget in 8u64..100,
        threads in 1usize..9,
        attach_pool: bool,
    ) {

        let inst = random_instance(seed, n, extra, k, true);
        let graph = inst.graph().clone();
        let spec = SolverSpec::cbas_nd().budget(budget).stages(3).threads(threads);
        let pool = Arc::new(SharedPool::new(threads % 3 + 1));
        let session = || {
            let s = WasoSession::new(graph.clone()).k(k).seed(seed);
            if attach_pool { s.attach_pool(Arc::clone(&pool)) } else { s }
        };

        // Ground truth: the raw solver, no session, no threads spawned
        // by the harness.
        let registry = waso::registry();
        let direct = registry.build(&spec).unwrap()
            .solve(&SolveRequest::new(&Arc::new(inst), seed));

        let blocking = session().solve(&spec);
        let handled = session().submit(&spec).and_then(SolveHandle::wait);
        match (&direct, &blocking, &handled) {
            (Ok(d), Ok(b), Ok(h)) => {
                prop_assert_eq!(&d.group, &b.group, "direct vs blocking");
                prop_assert_eq!(&b.group, &h.group, "blocking vs submit+wait");
                prop_assert_eq!(d.stats.samples_drawn, b.stats.samples_drawn);
                prop_assert_eq!(b.stats.samples_drawn, h.stats.samples_drawn);
                prop_assert_eq!(b.stats.backtracks, h.stats.backtracks);
                prop_assert_eq!(h.stats.termination, waso::algos::Termination::Completed);
                prop_assert!(!h.stats.truncated);
            }
            (Err(_), Err(_), Err(_)) => {}
            _ => prop_assert!(
                false,
                "feasibility diverged: direct ok={}, blocking ok={}, handle ok={}",
                direct.is_ok(), blocking.is_ok(), handled.is_ok()
            ),
        }
    }

    /// The anytime contract under early termination: a cancelled or
    /// deadline-stopped solve returns a **valid feasible incumbent**
    /// tagged with the correct `Termination` reason, and a cancel
    /// observably stops sampling (strictly below budget on a long
    /// solve). Cancel-before-incumbent surfaces as the typed
    /// `NoIncumbent` error, never as a bogus "infeasible".
    #[test]
    fn early_termination_returns_a_valid_incumbent_with_the_right_reason(
        seed in 0u64..10_000,
        n in 16usize..40,
        extra in 0usize..30,
        k in 2usize..6,
        threads in 0usize..5,
        by_deadline: bool,
    ) {
        use waso::algos::{SolveError, Termination};

        let inst = random_instance(seed, n, extra, k, true);
        let graph = inst.graph().clone();
        // Long solve: many cheap stages, so the stop lands mid-run.
        let mut spec = SolverSpec::cbas_nd().budget(40_000).stages(80);
        if threads > 0 {
            spec = spec.threads(threads);
        }
        let expect = if by_deadline { Termination::Deadline } else { Termination::Cancelled };
        let session = WasoSession::new(graph).k(k).seed(seed);
        let outcome = if by_deadline {
            session.solve(&spec.deadline_ms(2))
        } else {
            let handle = session.submit(&spec).expect("spec is buildable");
            // Cancel the moment the first incumbent lands (or, rarely,
            // right after the job finished — both must be handled).
            let _ = handle.incumbents().next();
            handle.cancel();
            handle.wait()
        };
        match outcome {
            Ok(res) => {
                if res.stats.termination == Termination::Completed {
                    // The stop raced the solve's natural end and lost —
                    // legal, but then the budget must be fully spent.
                    prop_assert_eq!(res.stats.samples_drawn, 40_000);
                } else {
                    prop_assert_eq!(res.stats.termination, expect);
                    prop_assert!(res.stats.truncated);
                    prop_assert!(res.stats.samples_drawn < 40_000,
                        "stop must leave budget unspent (drew {})", res.stats.samples_drawn);
                }
                prop_assert!(res.group.validate(&inst).is_ok(), "incumbent must be feasible");
            }
            // Stopped before any incumbent existed — typed, not
            // mislabelled as infeasible.
            Err(SessionError::Solve(SolveError::NoIncumbent { reason })) => {
                prop_assert_eq!(reason, expect);
            }
            // The instance has a spanning path and n ≥ k: always
            // feasible, so "no feasible group" is never a correct answer
            // here — and neither is any other error.
            Err(e) => prop_assert!(false, "unexpected error: {}", e),
        }
    }

    #[test]
    fn branch_and_bound_is_never_beaten(
        seed in 0u64..10_000,
        n in 8usize..14,
        extra in 0usize..15,
        k in 2usize..5,
    ) {
        let inst = Arc::new(random_instance(seed, n, extra, k, true));
        let exact = BranchBound::new().solve(&inst, None);
        let brute = exhaustive_optimum(&inst);
        match (exact, brute) {
            (Some(a), Some(b)) => {
                prop_assert!((a.group.willingness() - b.willingness()).abs() < 1e-9);
                // No heuristic may exceed it.
                let heur = DGreedy::new().solve(&SolveRequest::new(&inst, 0));
                if let Ok(h) = heur {
                    prop_assert!(h.group.willingness() <= a.group.willingness() + 1e-9);
                }
            }
            (None, None) => {}
            other => prop_assert!(false, "feasibility mismatch {:?}", other.0.is_some()),
        }
    }

    #[test]
    fn lambda_interpolates_between_scenarios(
        seed in 0u64..10_000,
        n in 6usize..14,
        lambda in 0.0..1.0f64,
    ) {
        // W_λ(F) = λ·W_interest(F) + (1-λ)·W_tightness(F) for uniform λ.
        let inst = random_instance(seed, n, 10, 3, true);
        let g = inst.graph().clone();
        let nodes: Vec<NodeId> = (0..3).map(|i| NodeId(i as u32)).collect();

        let weighted = waso::core::instance::apply_lambda(&g, &vec![lambda; n]).unwrap();
        let interest_only = waso::core::instance::apply_lambda(&g, &vec![1.0; n]).unwrap();
        let tight_only = waso::core::instance::apply_lambda(&g, &vec![0.0; n]).unwrap();

        let w = waso::core::willingness(&weighted, &nodes);
        let wi = waso::core::willingness(&interest_only, &nodes);
        let wt = waso::core::willingness(&tight_only, &nodes);
        prop_assert!((w - (lambda * wi + (1.0 - lambda) * wt)).abs() < 1e-9);
    }

    #[test]
    fn group_willingness_is_permutation_invariant(
        seed in 0u64..10_000,
        n in 6usize..16,
    ) {
        let inst = random_instance(seed, n, 12, 4, false);
        let g = inst.graph();
        let forward: Vec<NodeId> = (0..4u32).map(NodeId).collect();
        let backward: Vec<NodeId> = (0..4u32).rev().map(NodeId).collect();
        // Summation order differs, so compare up to float associativity.
        let a = waso::core::willingness(g, &forward);
        let b = waso::core::willingness(g, &backward);
        prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
    }
}

/// A planted-partition instance with strong intra-community density and a
/// sprinkling of cross edges — the workload the decomposition solver is
/// built for.
fn clustered_instance(seed: u64, blocks: usize, size: usize, k: usize) -> WasoInstance {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = generate::planted_partition(blocks * size, blocks, 0.7, 0.02, &mut rng);
    let g = ScoreModel::paper_default().realize(&topo, &mut rng);
    WasoInstance::new(g, k).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The decomposition solver's determinism contract: a fixed
    /// `(spec, seed)` yields one answer — the serial no-pool composition
    /// and a shared-pool session are bit-identical at every pool width
    /// 1–8 — and every answer is feasible.
    #[test]
    fn decomp_is_bit_identical_across_pool_widths(
        seed in 0u64..10_000,
        blocks in 2usize..5,
        size in 6usize..13,
        k in 2usize..6,
        budget in 20u64..120,
    ) {
        use waso::algos::SharedPool;

        let inst = clustered_instance(seed, blocks, size, k);
        let graph = inst.graph().clone();
        let spec = SolverSpec::new("decomp")
            .budget(budget)
            .stages(2)
            .threads(2)
            .top(3);

        // Serial composition: no pool attached, communities solved in turn.
        let base = WasoSession::new(graph.clone()).k(k).seed(seed).solve(&spec);
        if let Ok(res) = &base {
            prop_assert!(res.group.validate(&inst).is_ok(), "infeasible decomp group");
        }
        for width in 1usize..=8 {
            let pool = Arc::new(SharedPool::new(width));
            let pooled = WasoSession::new(graph.clone())
                .k(k)
                .seed(seed)
                .attach_pool(pool)
                .solve(&spec);
            match (&base, &pooled) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.group, &b.group, "pool width {}", width);
                    prop_assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "feasibility diverged at pool width {}: serial ok={}, pooled ok={}",
                    width, base.is_ok(), pooled.is_ok()
                ),
            }
        }
    }

    /// Required attendees survive decomposition end to end: whether they
    /// land inside one community (decomposed path) or straddle a boundary
    /// (whole-graph fallback), the answer contains them or the solve
    /// fails loudly.
    #[test]
    fn decomp_honours_required_attendees(
        seed in 0u64..10_000,
        blocks in 2usize..4,
        size in 6usize..12,
        k in 3usize..6,
        pick in 0usize..1000,
    ) {
        let inst = clustered_instance(seed, blocks, size, k);
        let n = inst.graph().num_nodes();
        let a = NodeId((pick % n) as u32);
        let b = NodeId(((pick * 7 + 1) % n) as u32);
        let b = if a == b { NodeId((b.0 + 1) % n as u32) } else { b };
        let spec = SolverSpec::new("decomp").budget(60).stages(2).require([a, b]);
        let session = WasoSession::new(inst.graph().clone()).k(k).seed(seed);
        if let Ok(res) = session.solve(&spec) {
            prop_assert!(res.group.contains(a) && res.group.contains(b));
            prop_assert!(res.group.validate(&inst).is_ok());
        }
    }
}
