//! Integration tests of the unified solver API: registry completeness,
//! spec string round-trips, uniform constraint enforcement, and the one
//! `Solver::solve(&SolveRequest)` entry point.

use std::sync::Arc;
use std::time::Duration;

use waso::prelude::*;

/// The crate-docs quickstart graph: a–c–d path, k = 2, optimum {a, c}
/// with W = 0.8 + 0.5 + 2·0.7 = 2.7.
fn quickstart_graph() -> SocialGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_node(0.8);
    let c = b.add_node(0.5);
    let d = b.add_node(0.9);
    b.add_edge_symmetric(a, c, 0.7).unwrap();
    b.add_edge_symmetric(c, d, 0.4).unwrap();
    b.build()
}

/// A workable spec for any registry entry at test-sized budgets.
fn test_spec(entry: &waso_algos::RegistryEntry) -> SolverSpec {
    let mut spec = SolverSpec::new(entry.name);
    if entry.options.contains(&"budget") {
        spec = spec.budget(120);
    }
    if entry.options.contains(&"stages") {
        spec = spec.stages(3);
    }
    if entry.options.contains(&"cap") {
        // Keep the exact solver anytime-sized on the larger test graphs.
        spec = spec.cap(200_000);
    }
    spec
}

#[test]
fn registry_is_complete_every_spec_solves_the_quickstart_graph() {
    let registry = waso::registry();
    // The full family is registered: the four roster solvers, both
    // CBAS-ND variants, cbas-nd-par, and the exact solver.
    let names = registry.names();
    for expected in [
        "dgreedy",
        "rgreedy",
        "cbas",
        "cbas-nd",
        "cbas-nd-g",
        "cbas-nd-par",
        "decomp",
        "exact",
    ] {
        assert!(names.contains(&expected), "{expected} not registered");
    }

    let session = WasoSession::new(quickstart_graph()).k(2);
    for entry in registry.entries() {
        let res = session
            .solve(&test_spec(entry))
            .unwrap_or_else(|e| panic!("{} failed the quickstart: {e}", entry.name));
        assert_eq!(res.group.len(), 2, "{}", entry.name);
        // Sampling and exact solvers all find the optimum on a graph this
        // small; plain greedy may not (that miss is the paper's §1
        // motivating example), so it is only held to feasibility.
        if entry.capabilities.randomized || entry.capabilities.exact {
            assert!(
                (res.group.willingness() - 2.7).abs() < 1e-9,
                "{} returned {} instead of the optimum 2.7",
                entry.name,
                res.group.willingness()
            );
        }
    }
}

#[test]
fn every_registered_spec_is_deterministic_for_a_fixed_seed() {
    let registry = waso::registry();
    let graph = waso::datasets::synthetic::facebook_like_n(150, 11);
    let session = WasoSession::new(graph).k(6).seed(123);
    for entry in registry.entries() {
        let spec = test_spec(entry);
        let a = session
            .solve(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let b = session
            .solve(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(
            a.group, b.group,
            "{} is not deterministic for a fixed seed",
            entry.name
        );
        assert_eq!(
            a.stats.samples_drawn, b.stats.samples_drawn,
            "{}",
            entry.name
        );
    }
}

#[test]
fn spec_strings_round_trip_through_parse_and_display() {
    let registry = waso::registry();
    let specs = [
        "dgreedy",
        "dgreedy:starts=3",
        "rgreedy:budget=500",
        "cbas:budget=1000,stages=5,start-nodes=32",
        "cbas-nd:budget=2000,stages=10,rho=0.3,smoothing=0.9",
        "cbas-nd:threads=8,backtrack=0.05",
        "cbas-nd-g:budget=250",
        "cbas-nd-par:budget=400,threads=4",
        "cbas-nd:require=1+2+5",
        "exact:cap=1000000",
        "decomp:inner=cbas-nd,communities=auto,top=4",
        "decomp:budget=800,threads=2,communities=8",
    ];
    for text in specs {
        let spec = registry.parse(text).expect(text);
        let reparsed = registry.parse(&spec.to_string()).expect(text);
        assert_eq!(spec, reparsed, "round-trip changed '{text}'");
        // And the canonical string is stable (fixed point).
        assert_eq!(spec.to_string(), reparsed.to_string());
    }
}

#[test]
fn aliases_canonicalize_to_the_same_solver() {
    let registry = waso::registry();
    for (alias, canonical) in [
        ("greedy", "dgreedy"),
        ("cbasnd", "cbas-nd"),
        ("gaussian", "cbas-nd-g"),
        ("parallel", "cbas-nd-par"),
        ("ip", "exact"),
        ("bb", "exact"),
    ] {
        assert_eq!(
            registry.parse(alias).unwrap().algorithm(),
            canonical,
            "{alias}"
        );
    }
}

#[test]
fn required_attendee_specs_are_rejected_by_incapable_solvers() {
    let registry = waso::registry();
    let session = WasoSession::new(quickstart_graph())
        .k(2)
        .require([NodeId(2)]);

    let mut honoured = 0;
    let mut rejected = 0;
    for entry in registry.entries() {
        let outcome = session.solve(&test_spec(entry));
        if entry.capabilities.required_attendees {
            let res = outcome.unwrap_or_else(|e| panic!("{} should honour: {e}", entry.name));
            assert!(
                res.group.contains(NodeId(2)),
                "{} dropped the required attendee",
                entry.name
            );
            honoured += 1;
        } else {
            assert_eq!(
                outcome.unwrap_err(),
                SessionError::Solve(SolveError::RequiredUnsupported { solver: entry.name }),
                "{} must reject, not ignore",
                entry.name
            );
            rejected += 1;
        }
    }
    // Both behaviours are actually exercised.
    assert!(
        honoured >= 4,
        "dgreedy, cbas-nd, cbas-nd-g, cbas-nd-par honour"
    );
    assert!(rejected >= 3, "cbas, rgreedy, exact reject");
}

#[test]
fn dgreedy_honours_one_required_attendee_but_rejects_two() {
    let session = WasoSession::new(quickstart_graph()).k(2);
    let one = session
        .registry()
        .parse("dgreedy:starts=2")
        .and_then(|_| session.registry().parse("dgreedy"))
        .unwrap();
    let res = WasoSession::new(quickstart_graph())
        .k(2)
        .require([NodeId(2)])
        .solve(&one)
        .unwrap();
    assert!(res.group.contains(NodeId(2)));

    let err = WasoSession::new(quickstart_graph())
        .k(2)
        .require([NodeId(0), NodeId(2)])
        .solve_str("dgreedy")
        .unwrap_err();
    assert_eq!(
        err,
        SessionError::Solve(SolveError::RequiredUnsupported { solver: "dgreedy" })
    );
}

#[test]
fn solve_errors_are_eq_and_results_display() {
    // `Eq` on SolveError (satellite): usable in match tables and sets.
    let e1 = SolveError::NoFeasibleGroup;
    let e2 = SolveError::NoFeasibleGroup;
    assert_eq!(e1, e2);
    let set: std::collections::BTreeMap<String, SolveError> =
        [("a".to_string(), e1)].into_iter().collect();
    assert_eq!(set["a"], e2);

    // `Display` on SolveResult (satellite): group + willingness + stats
    // one-liner, so CLIs and examples stop formatting by hand.
    let res = WasoSession::new(quickstart_graph())
        .k(2)
        .solve_str("cbas:budget=60,stages=2")
        .unwrap();
    let text = res.to_string();
    assert!(text.contains("willingness"), "{text}");
    assert!(text.contains("samples"), "{text}");
    assert!(text.contains("stages"), "{text}");
}

#[test]
fn parallel_spec_is_bit_identical_to_serial_through_the_session() {
    let graph = waso::datasets::synthetic::facebook_like_n(200, 4);
    let session = WasoSession::new(graph).k(8).seed(9);
    let serial = session.solve_str("cbas-nd:budget=160,stages=4").unwrap();
    for threads in [1usize, 2, 4] {
        let par = session
            .solve_str(&format!("cbas-nd:budget=160,stages=4,threads={threads}"))
            .unwrap();
        assert_eq!(par.group, serial.group, "threads={threads}");
    }
    // `cbas-nd-par` is `cbas-nd` with threads= defaulted to the cores.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let par = session
        .solve_str("cbas-nd-par:budget=160,stages=4")
        .unwrap();
    let explicit = session
        .solve_str(&format!("cbas-nd:budget=160,stages=4,threads={cores}"))
        .unwrap();
    assert_eq!(par.group.nodes(), explicit.group.nodes());
    assert_eq!(
        par.group.willingness().to_bits(),
        explicit.group.willingness().to_bits()
    );
    assert_eq!(par.stats.samples_drawn, explicit.stats.samples_drawn);
    assert_eq!(par.stats.backtracks, explicit.stats.backtracks);
    assert_eq!(par.group, serial.group);
}

#[test]
fn sessions_reject_unknown_options_and_algorithms() {
    let session = WasoSession::new(quickstart_graph()).k(2);
    assert!(matches!(
        session.solve_str("cbas-nd:warp=9"),
        Err(SessionError::Spec(SpecError::UnknownOption(_)))
    ));
    assert!(matches!(
        session.solve_str("dgreedy:budget=5"),
        Err(SessionError::Spec(SpecError::UnsupportedOption { .. }))
    ));
    assert!(matches!(
        session.solve_str("annealing"),
        Err(SessionError::Spec(SpecError::UnknownAlgorithm { .. }))
    ));
    // The retired per-solve pool knob is an unknown option, not ignored.
    for spec in [
        "cbas-nd:threads=2,pool=private",
        "cbas:threads=2,pool=shared",
    ] {
        assert_eq!(
            session.solve_str(spec).unwrap_err(),
            SessionError::Spec(SpecError::UnknownOption("pool".into())),
            "{spec}"
        );
    }
}

/// Every threaded registry entry answers identically on every executor:
/// a solve with no pool and no control, one under a control that never
/// trips, `threads=3` on a pool of its own, and a job of an attached
/// `SharedPool::new(3)` give the same group bits, `samples_drawn` and
/// `stages` — for fresh solves and, where the entry honours them,
/// required-attendee solves.
#[test]
fn every_threaded_entry_is_executor_invariant() {
    let registry = waso::registry();
    let graph = waso::datasets::synthetic::facebook_like_n(120, 5);
    let inst = Arc::new(WasoInstance::new(graph, 6).unwrap());
    let pool = SharedPool::new(3);
    let mut checked = Vec::new();
    for entry in registry.entries() {
        if !entry.options.contains(&"threads") {
            continue;
        }
        let required_sets: &[&[NodeId]] = if entry.capabilities.required_attendees {
            &[&[], &[NodeId(0)]]
        } else {
            &[&[]]
        };
        for &required in required_sets {
            let run = |spec: &SolverSpec, pool: Option<&SharedPool>, watched: bool| {
                let control = JobControl::new();
                control.arm_deadline(Duration::from_secs(3600));
                let req = SolveRequest::new(&inst, 17).required(required).pool(pool);
                let req = if watched { req.control(&control) } else { req };
                let res = registry.build(spec).unwrap().solve(&req);
                res.unwrap_or_else(|e| panic!("{spec} required={required:?}: {e}"))
            };
            let spec = test_spec(entry);
            let threaded = spec.clone().threads(3);
            let base = run(&spec, None, false);
            for (label, other) in [
                ("untripped control", run(&spec, None, true)),
                ("own pool", run(&threaded, None, false)),
                ("attached pool", run(&threaded, Some(&pool), false)),
            ] {
                let what = format!("{} {label} required={required:?}", entry.name);
                assert_eq!(other.group.nodes(), base.group.nodes(), "{what}");
                assert_eq!(
                    other.group.willingness().to_bits(),
                    base.group.willingness().to_bits(),
                    "{what}"
                );
                assert_eq!(
                    other.stats.samples_drawn, base.stats.samples_drawn,
                    "{what}"
                );
                assert_eq!(other.stats.stages, base.stats.stages, "{what}");
            }
        }
        checked.push(entry.name);
    }
    for name in ["cbas", "cbas-nd", "cbas-nd-g", "cbas-nd-par"] {
        assert!(checked.contains(&name), "{name} not checked");
    }
    assert_eq!(pool.stats().active_jobs, 0, "every job detached");
}

/// A one-worker pool serves blocked and unblocked CBAS-ND solves on
/// graphs of two sizes, in turn. Its worker reuses one sampler across
/// them all, so each solve must still see exactly its own blocked set:
/// group, `samples_drawn` and pruned starts match the serial solve.
#[test]
fn a_pooled_blocked_set_applies_to_its_own_solve_only() {
    let small =
        Arc::new(WasoInstance::new(waso::datasets::synthetic::facebook_like_n(120, 3), 6).unwrap());
    let large =
        Arc::new(WasoInstance::new(waso::datasets::synthetic::facebook_like_n(300, 3), 6).unwrap());
    let config = |blocked: Option<waso::graph::BitSet>, threads: Option<usize>| {
        let mut cfg = CbasNdConfig::with_budget(300);
        cfg.base.stages = Some(4);
        cfg.base.blocked = blocked;
        cfg.base.threads = threads;
        StagedEngine::from_cbasnd(&cfg)
    };
    let serial = |inst: &Arc<WasoInstance>, blocked: &Option<waso::graph::BitSet>| {
        config(blocked.clone(), None)
            .solve(&SolveRequest::new(inst, 5))
            .unwrap()
    };
    let unblocked_answer = serial(&small, &None);
    let mut members = waso::graph::BitSet::new(small.graph().num_nodes());
    for v in unblocked_answer.group.nodes().iter().take(3) {
        members.insert(v.index());
    }
    let blocked = Some(members);

    let pool = SharedPool::new(1);
    for (label, inst, blocked) in [
        ("small blocked", &small, &blocked),
        ("small unblocked", &small, &None),
        ("large unblocked", &large, &None),
        ("small blocked again", &small, &blocked),
        ("small unblocked again", &small, &None),
    ] {
        let want = serial(inst, blocked);
        let got = config(blocked.clone(), Some(1))
            .solve(&SolveRequest::new(inst, 5).pool(&pool))
            .unwrap();
        assert_eq!(got.group.nodes(), want.group.nodes(), "{label}");
        assert_eq!(
            got.group.willingness().to_bits(),
            want.group.willingness().to_bits(),
            "{label}"
        );
        assert_eq!(got.stats.samples_drawn, want.stats.samples_drawn, "{label}");
        assert_eq!(
            got.stats.pruned_start_nodes, want.stats.pruned_start_nodes,
            "{label}"
        );
        // A stale sampler (the wrong blocked set, too few nodes) can
        // make a draw panic, and the rebuild and re-draw would then hide
        // it: a healthy pool never re-draws.
        assert_eq!(pool.redrawn_chunks(), 0, "{label}");
        if let Some(b) = blocked {
            assert!(
                got.group.nodes().iter().all(|v| !b.contains(v.index())),
                "{label}: a blocked node was selected"
            );
        }
    }
    assert_ne!(
        serial(&small, &blocked).group.nodes(),
        unblocked_answer.group.nodes(),
        "the blocked set must change the answer"
    );
    assert_eq!(pool.stats().active_jobs, 0);
}

/// The staged entries all build one `StagedEngine`, whose name comes
/// from its axes; the uniform (CBAS) engine rejects required attendees
/// under that name.
#[test]
fn staged_engine_names_come_from_its_axes() {
    let registry = waso::registry();
    for (spec, name) in [
        ("cbas", "cbas"),
        ("cbas-nd", "cbas-nd"),
        ("cbas-nd-g", "cbas-nd-g"),
        ("cbas-nd-par", "cbas-nd"),
    ] {
        let solver = registry.build(&registry.parse(spec).unwrap()).unwrap();
        assert_eq!(solver.name(), name, "{spec}");
    }
    let cbas = || StagedEngine::new(CbasConfig::fast(), Distribution::Uniform);
    assert_eq!(cbas().name(), "cbas");
    assert_eq!(
        StagedEngine::from_cbasnd(&CbasNdConfig::fast()).name(),
        "cbas-nd"
    );
    assert_eq!(
        StagedEngine::from_cbasnd(&CbasNdConfig::fast().gaussian()).name(),
        "cbas-nd-g"
    );

    let inst = Arc::new(WasoInstance::new(quickstart_graph(), 2).unwrap());
    let err = cbas()
        .solve(&SolveRequest::new(&inst, 0).required(&[NodeId(0)]))
        .unwrap_err();
    assert_eq!(err, SolveError::RequiredUnsupported { solver: "cbas" });
}
