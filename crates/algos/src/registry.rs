//! `SolverRegistry` — the single place specs become solvers.
//!
//! Every caller that used to hand-maintain a `match` over algorithm names
//! (the CLI, each figure driver, the examples) now resolves a
//! [`SolverSpec`] here. The registry owns:
//!
//! * the **name space**: canonical names plus aliases, so `--algorithm`
//!   validation and help text are derived, never hand-written;
//! * the **construction path**: one `fn(&SolverSpec) -> Box<dyn Solver + Send>`
//!   per entry, each of which *rejects* options the solver cannot honour
//!   ([`SpecError::UnsupportedOption`]) instead of ignoring them;
//! * the **metadata** other layers derive UI from: capability flags (the
//!   one place a solver declares what it honours), the paper's
//!   comparison-roster order, and cost warnings.
//!
//! [`SolverRegistry::builtin`] registers the `waso-algos` family
//! (DGreedy, RGreedy, CBAS, CBAS-ND, CBAS-ND-G, decomposition, and
//! `cbas-nd-par` — CBAS-ND with `threads` defaulted to the core count).
//! The staged entries all build the one [`crate::engine::StagedEngine`],
//! differing only in its axes; a spec's `threads` knob runs it on a
//! [`crate::SharedPool`] without changing the answer.
//! Downstream crates append their own entries — `waso-exact` registers
//! the branch-and-bound under `exact`, and the `waso` facade exposes the
//! fully-populated registry via `waso::registry()`.

use crate::spec::{Capabilities, SolverSpec, SpecError};
use crate::{
    CbasConfig, CbasNdConfig, DGreedy, Distribution, RGreedy, RGreedyConfig, Solver, StagedEngine,
};

/// Builds a solver from a spec, or explains why the spec is unusable.
/// Built solvers are `Send` so sessions can run them on job threads
/// (the submit/handle API).
pub type BuildFn = fn(&SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError>;

/// One registered solver.
pub struct RegistryEntry {
    /// Canonical spec name (`"cbas-nd"`).
    pub name: &'static str,
    /// Accepted aliases (`"cbasnd"`), canonicalized by [`SolverRegistry::parse`].
    pub aliases: &'static [&'static str],
    /// Human label for tables and figures (`"CBAS-ND"`).
    pub label: &'static str,
    /// One-line description for derived help text.
    pub summary: &'static str,
    /// What the built solver can honour.
    pub capabilities: Capabilities,
    /// Position in the paper's standard comparison roster
    /// (Figures 5/7/8/9); `None` keeps the solver out of those sweeps.
    pub roster_rank: Option<u8>,
    /// Prices every candidate at every step — harnesses cap its group
    /// sizes (the paper aborts RGreedy past small `k`, §5.3.1).
    pub costly: bool,
    /// The spec option keys this solver's builder honours. Everything
    /// else is rejected by the builder; harnesses use this to set only
    /// supported knobs without per-solver knowledge.
    pub options: &'static [&'static str],
    /// The construction function.
    pub build: BuildFn,
}

impl std::fmt::Debug for RegistryEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryEntry")
            .field("name", &self.name)
            .field("aliases", &self.aliases)
            .field("label", &self.label)
            .field("capabilities", &self.capabilities)
            .field("roster_rank", &self.roster_rank)
            .field("costly", &self.costly)
            .finish_non_exhaustive()
    }
}

/// The spec → solver resolution table.
#[derive(Debug, Default)]
pub struct SolverRegistry {
    entries: Vec<RegistryEntry>,
}

impl SolverRegistry {
    /// An empty registry (compose your own).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The `waso-algos` solver family. Exact solving lives in
    /// `waso-exact`, which appends itself via its `register_exact`;
    /// use `waso::registry()` for the fully-populated table.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register(RegistryEntry {
            name: "dgreedy",
            aliases: &["greedy"],
            label: "DGreedy",
            summary: "deterministic greedy from the max-interest start (§1, §3)",
            capabilities: Capabilities {
                required_attendees: true, // a single attendee, as the pinned start
                ..Capabilities::default()
            },
            roster_rank: Some(0),
            costly: false,
            options: DGREEDY_KEYS,
            build: build_dgreedy,
        });
        r.register(RegistryEntry {
            name: "cbas",
            aliases: &[],
            label: "CBAS",
            summary: "budget-allocated uniform random sampling (§3)",
            capabilities: Capabilities {
                randomized: true,
                anytime: true,
                ..Capabilities::default()
            },
            roster_rank: Some(1),
            costly: false,
            options: CBAS_KEYS,
            build: build_cbas,
        });
        r.register(RegistryEntry {
            name: "rgreedy",
            aliases: &[],
            label: "RGreedy",
            summary: "randomized greedy, Δ-proportional selection (§4.1)",
            capabilities: Capabilities {
                randomized: true,
                ..Capabilities::default()
            },
            roster_rank: Some(2),
            costly: true,
            options: RGREEDY_KEYS,
            build: build_rgreedy,
        });
        r.register(RegistryEntry {
            name: "cbas-nd",
            aliases: &["cbasnd"],
            label: "CBAS-ND",
            summary: "CBAS with cross-entropy neighbour differentiation (§4)",
            capabilities: Capabilities {
                required_attendees: true,
                randomized: true,
                anytime: true,
                ..Capabilities::default()
            },
            roster_rank: Some(3),
            costly: false,
            options: CBASND_KEYS,
            build: build_cbasnd,
        });
        r.register(RegistryEntry {
            name: "cbas-nd-g",
            aliases: &["cbasnd-g", "gaussian"],
            label: "CBAS-ND-G",
            summary: "CBAS-ND with the Gaussian budget allocation (Appendix A)",
            capabilities: Capabilities {
                required_attendees: true,
                randomized: true,
                anytime: true,
                ..Capabilities::default()
            },
            roster_rank: None,
            costly: false,
            options: CBASND_KEYS,
            build: build_cbasnd_g,
        });
        r.register(RegistryEntry {
            name: "decomp",
            aliases: &["decompose"],
            label: "Decomp",
            summary: "community-partitioned solve: label propagation, top communities via inner=, boundary repair",
            capabilities: Capabilities {
                required_attendees: true,
                randomized: true,
                anytime: true,
                ..Capabilities::default()
            },
            roster_rank: None,
            costly: false,
            options: DECOMP_KEYS,
            build: build_decomp,
        });
        r.register(RegistryEntry {
            name: "cbas-nd-par",
            aliases: &["parallel"],
            label: "CBAS-ND (parallel)",
            summary: "CBAS-ND with threads= defaulted to the core count, bit-identical to serial (§5.3.1)",
            capabilities: Capabilities {
                required_attendees: true, // partial-mode growth on the pool
                randomized: true,
                anytime: true,
                ..Capabilities::default()
            },
            roster_rank: None,
            costly: false,
            options: CBASND_KEYS,
            build: build_parallel,
        });
        r
    }

    /// Appends an entry. Panics on a name or alias collision — registries
    /// are composed at startup, so a collision is a programming error.
    pub fn register(&mut self, entry: RegistryEntry) {
        let mut names = vec![entry.name];
        names.extend(entry.aliases);
        for n in names {
            assert!(self.get(n).is_none(), "solver name '{n}' registered twice");
        }
        self.entries.push(entry);
    }

    /// Looks up a canonical name or alias.
    pub fn get(&self, name: &str) -> Option<&RegistryEntry> {
        self.entries
            .iter()
            .find(|e| e.name == name || e.aliases.contains(&name))
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }

    /// Canonical names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// The paper's standard comparison roster (Figures 5/7/8/9), ordered
    /// by `roster_rank`. Figure drivers derive their solver lists — and
    /// their table columns — from this instead of hand-maintaining them.
    pub fn roster(&self) -> Vec<&RegistryEntry> {
        let mut r: Vec<&RegistryEntry> = self
            .entries
            .iter()
            .filter(|e| e.roster_rank.is_some())
            .collect();
        r.sort_by_key(|e| e.roster_rank);
        r
    }

    /// Resolves the entry a spec names.
    pub fn resolve(&self, spec: &SolverSpec) -> Result<&RegistryEntry, SpecError> {
        self.get(spec.algorithm())
            .ok_or_else(|| SpecError::UnknownAlgorithm {
                name: spec.algorithm().to_string(),
                known: self.names(),
            })
    }

    /// Parses a spec string and canonicalizes its algorithm name, erroring
    /// on names no registered solver answers to.
    pub fn parse(&self, s: &str) -> Result<SolverSpec, SpecError> {
        let spec = SolverSpec::parse(s)?;
        let entry = self.resolve(&spec)?;
        Ok(spec.with_algorithm(entry.name))
    }

    /// Builds the solver a spec describes.
    pub fn build(&self, spec: &SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError> {
        (self.resolve(spec)?.build)(spec)
    }

    /// Derived one-line-per-solver help text for CLIs.
    pub fn help_text(&self) -> String {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        self.entries
            .iter()
            .map(|e| format!("  {:width$}  {}", e.name, e.summary))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Derived `a|b|c` list of canonical names for usage strings.
    pub fn name_list(&self) -> String {
        self.names().join("|")
    }
}

const DGREEDY_KEYS: &[&str] = &["starts"];
const RGREEDY_KEYS: &[&str] = &["budget", "start-nodes", "starts"];
const CBAS_KEYS: &[&str] = &[
    "budget",
    "stages",
    "start-nodes",
    "starts",
    "threads",
    "deadline_ms",
    "deadline_from_submit",
    "patience",
];

fn build_dgreedy(spec: &SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError> {
    spec.ensure_only("dgreedy", DGREEDY_KEYS)?;
    let solver = match spec.starts.as_ref().and_then(|s| s.first()) {
        Some(&v) => DGreedy::from_start(v),
        None => DGreedy::new(),
    };
    Ok(Box::new(solver))
}

fn build_rgreedy(spec: &SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError> {
    spec.ensure_only("rgreedy", RGREEDY_KEYS)?;
    Ok(Box::new(RGreedy::new(RGreedyConfig::from_spec(spec))))
}

fn build_cbas(spec: &SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError> {
    spec.ensure_only("cbas", CBAS_KEYS)?;
    Ok(Box::new(StagedEngine::new(
        CbasConfig::from_spec(spec),
        Distribution::Uniform,
    )))
}

const CBASND_KEYS: &[&str] = &[
    "budget",
    "stages",
    "start-nodes",
    "starts",
    "threads",
    "rho",
    "smoothing",
    "backtrack",
    "deadline_ms",
    "deadline_from_submit",
    "patience",
];

fn build_cbasnd(spec: &SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError> {
    spec.ensure_only("cbas-nd", CBASND_KEYS)?;
    spec.ensure_ce_ranges()?;
    Ok(Box::new(StagedEngine::from_cbasnd(
        &CbasNdConfig::from_spec(spec),
    )))
}

fn build_cbasnd_g(spec: &SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError> {
    spec.ensure_only("cbas-nd-g", CBASND_KEYS)?;
    spec.ensure_ce_ranges()?;
    Ok(Box::new(StagedEngine::from_cbasnd(
        &CbasNdConfig::from_spec(spec).gaussian(),
    )))
}

const DECOMP_KEYS: &[&str] = &[
    "budget",
    "stages",
    "start-nodes",
    "threads",
    "rho",
    "smoothing",
    "backtrack",
    "inner",
    "communities",
    "top",
    "deadline_ms",
    "deadline_from_submit",
    "patience",
];

fn build_decomp(spec: &SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError> {
    spec.ensure_only("decomp", DECOMP_KEYS)?;
    Ok(Box::new(crate::Decomp::from_spec(spec)?))
}

/// `cbas-nd-par`: the `cbas-nd` builder with `threads` defaulted to the
/// machine's available parallelism.
fn build_parallel(spec: &SolverSpec) -> Result<Box<dyn Solver + Send>, SpecError> {
    // Checked here too so a rejection names the entry the caller asked for.
    spec.ensure_only("cbas-nd-par", CBASND_KEYS)?;
    let mut spec = spec.clone();
    spec.threads.get_or_insert_with(default_threads);
    build_cbasnd(&spec)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveError, SolveRequest, SolveResult};
    use std::sync::Arc;
    use waso_core::WasoInstance;
    use waso_graph::{GraphBuilder, NodeId};

    fn figure1_instance() -> Arc<WasoInstance> {
        let mut b = GraphBuilder::new();
        let v1 = b.add_node(8.0);
        let v2 = b.add_node(7.0);
        let v3 = b.add_node(6.0);
        let v4 = b.add_node(5.0);
        b.add_edge_symmetric(v1, v2, 1.0).unwrap();
        b.add_edge_symmetric(v2, v3, 2.0).unwrap();
        b.add_edge_symmetric(v3, v4, 4.0).unwrap();
        Arc::new(WasoInstance::new(b.build(), 3).unwrap())
    }

    /// Builds `spec` and solves the Figure-1 instance under `seed`.
    fn solve_figure1(
        registry: &SolverRegistry,
        spec: &SolverSpec,
        seed: u64,
    ) -> Result<SolveResult, SolveError> {
        registry
            .build(spec)
            .unwrap()
            .solve(&SolveRequest::new(&figure1_instance(), seed))
    }

    #[test]
    fn every_builtin_entry_builds_and_solves() {
        let registry = SolverRegistry::builtin();
        assert!(registry.entries().len() >= 6);
        for entry in registry.entries() {
            let spec = match entry.name {
                "dgreedy" => SolverSpec::dgreedy(), // takes no budget knobs
                "rgreedy" => SolverSpec::rgreedy().budget(60), // single-stage
                name => SolverSpec::new(name).budget(60).stages(2),
            };
            let res = solve_figure1(&registry, &spec, 7)
                .unwrap_or_else(|e| panic!("{} failed: {e}", entry.name));
            assert_eq!(res.group.len(), 3, "{}", entry.name);
        }
    }

    #[test]
    fn aliases_canonicalize() {
        let registry = SolverRegistry::builtin();
        let spec = registry.parse("cbasnd:budget=100").unwrap();
        assert_eq!(spec.algorithm(), "cbas-nd");
        assert_eq!(spec.budget, Some(100));
        assert_eq!(registry.parse("greedy").unwrap().algorithm(), "dgreedy");
    }

    #[test]
    fn unknown_names_report_the_known_set() {
        let registry = SolverRegistry::builtin();
        match registry.parse("simulated-annealing") {
            Err(SpecError::UnknownAlgorithm { name, known }) => {
                assert_eq!(name, "simulated-annealing");
                assert!(known.contains(&"cbas-nd"));
            }
            other => panic!("expected UnknownAlgorithm, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_options_are_rejected_not_ignored() {
        let registry = SolverRegistry::builtin();
        // dgreedy has no sampling budget.
        let err = registry
            .build(&SolverSpec::dgreedy().budget(100))
            .err()
            .unwrap();
        assert_eq!(
            err,
            SpecError::UnsupportedOption {
                algorithm: "dgreedy",
                key: "budget"
            }
        );
        // cbas has no cross-entropy smoothing weight.
        let err = registry
            .build(&SolverSpec::cbas().smoothing(0.5))
            .err()
            .unwrap();
        assert_eq!(
            err,
            SpecError::UnsupportedOption {
                algorithm: "cbas",
                key: "smoothing"
            }
        );
    }

    #[test]
    fn cbas_threads_knob_is_bit_identical_to_serial() {
        // The registry-level pin of CBAS on a SharedPool.
        let registry = SolverRegistry::builtin();
        let serial = solve_figure1(&registry, &SolverSpec::cbas().budget(90).stages(3), 5).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let spec = SolverSpec::cbas().budget(90).stages(3).threads(threads);
            let pooled = solve_figure1(&registry, &spec, 5).unwrap();
            assert_eq!(pooled.group, serial.group, "threads={threads}");
            assert_eq!(pooled.stats.samples_drawn, serial.stats.samples_drawn);
        }
    }

    #[test]
    fn cbas_nd_par_is_cbas_nd_with_threads_defaulted_to_the_core_count() {
        let registry = SolverRegistry::builtin();
        let cores = default_threads();
        let par = registry
            .build(&SolverSpec::new("cbas-nd-par").budget(80).stages(3))
            .unwrap();
        assert_eq!(par.pool_threads(), Some(cores));
        let explicit = registry
            .build(&SolverSpec::cbas_nd().budget(80).stages(3).threads(cores))
            .unwrap();
        assert_eq!(explicit.pool_threads(), Some(cores));
        // An explicit threads= wins over the default.
        let pinned = registry
            .build(&SolverSpec::new("cbas-nd-par").threads(2))
            .unwrap();
        assert_eq!(pinned.pool_threads(), Some(2));
        // Serial specs ask for no pool.
        let serial = registry.build(&SolverSpec::cbas_nd()).unwrap();
        assert_eq!(serial.pool_threads(), None);
    }

    #[test]
    fn out_of_range_ce_parameters_are_rejected_at_build_time() {
        // A user-supplied `cbas-nd:rho=0` must be a typed error, never a
        // panic inside a solve.
        let registry = SolverRegistry::builtin();
        for (spec, key) in [
            (SolverSpec::cbas_nd().rho(0.0), "rho"),
            (SolverSpec::cbas_nd().rho(1.5), "rho"),
            (SolverSpec::cbas_nd_g().rho(-0.2), "rho"),
            (SolverSpec::cbas_nd().smoothing(-0.1), "smoothing"),
            (SolverSpec::new("cbas-nd-par").smoothing(2.0), "smoothing"),
        ] {
            match registry.build(&spec) {
                Err(SpecError::OutOfRange { key: k, .. }) => assert_eq!(k, key),
                other => panic!("{spec}: expected OutOfRange, got {:?}", other.err()),
            }
        }
        // Boundary values stay legal: ρ = 1, w ∈ {0, 1}.
        assert!(registry
            .build(&SolverSpec::cbas_nd().rho(1.0).smoothing(0.0))
            .is_ok());
        assert!(registry
            .build(&SolverSpec::cbas_nd().smoothing(1.0))
            .is_ok());
    }

    #[test]
    fn threads_run_cbas_nd_on_a_pool_bit_identically() {
        let registry = SolverRegistry::builtin();
        let serial =
            solve_figure1(&registry, &SolverSpec::cbas_nd().budget(80).stages(3), 9).unwrap();
        let spec = SolverSpec::cbas_nd().budget(80).stages(3).threads(3);
        let par = solve_figure1(&registry, &spec, 9).unwrap();
        assert_eq!(serial.group, par.group);
    }

    #[test]
    fn anytime_knobs_are_registry_enforced_per_capability() {
        let registry = SolverRegistry::builtin();
        // Every anytime entry accepts them (and only anytime entries
        // list them).
        for entry in registry.entries() {
            let lists = entry.options.contains(&"deadline_ms");
            assert_eq!(
                lists, entry.capabilities.anytime,
                "{}: deadline_ms listing must match the anytime capability",
                entry.name
            );
            assert_eq!(
                entry.options.contains(&"patience"),
                entry.capabilities.anytime
            );
            assert_eq!(
                entry.options.contains(&"deadline_from_submit"),
                entry.capabilities.anytime,
                "{}: deadline_from_submit listing must match the anytime capability",
                entry.name
            );
        }
        assert!(registry
            .build(&SolverSpec::cbas().budget(50).deadline_ms(100).patience(2))
            .is_ok());
        // Non-anytime solvers reject them instead of silently ignoring.
        let err = registry
            .build(&SolverSpec::dgreedy().deadline_ms(5))
            .err()
            .unwrap();
        assert_eq!(
            err,
            SpecError::UnsupportedOption {
                algorithm: "dgreedy",
                key: "deadline_ms"
            }
        );
        let err = registry
            .build(&SolverSpec::rgreedy().budget(10).patience(1))
            .err()
            .unwrap();
        assert_eq!(
            err,
            SpecError::UnsupportedOption {
                algorithm: "rgreedy",
                key: "patience"
            }
        );
    }

    #[test]
    fn roster_is_in_paper_order() {
        let registry = SolverRegistry::builtin();
        let labels: Vec<&str> = registry.roster().iter().map(|e| e.label).collect();
        assert_eq!(labels, vec!["DGreedy", "CBAS", "RGreedy", "CBAS-ND"]);
    }

    #[test]
    fn help_text_mentions_every_canonical_name() {
        let registry = SolverRegistry::builtin();
        let help = registry.help_text();
        for name in registry.names() {
            assert!(help.contains(name), "help text misses {name}");
        }
        assert!(registry.name_list().contains("dgreedy|cbas"));
    }

    #[test]
    fn pinned_starts_flow_through_specs() {
        let registry = SolverRegistry::builtin();
        let spec = SolverSpec::dgreedy().starts([NodeId(2)]);
        let res = solve_figure1(&registry, &spec, 0).unwrap();
        // Starting from v3 escapes the Figure-1 trap.
        assert_eq!(res.group.willingness(), 30.0);
    }
}
