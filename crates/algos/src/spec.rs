//! `SolverSpec` — one serializable description of *which* solver with
//! *what* settings.
//!
//! Every way of obtaining a solver in this workspace goes through a spec:
//! the `waso-solve` CLI parses its `--algorithm` string into one, the
//! figure drivers of `waso-bench` build their rosters from them, and the
//! `WasoSession` facade accepts them directly. A spec is both
//! *serializable* (a compact `name:key=value,...` string with a loss-free
//! round-trip through [`SolverSpec::parse`] / `Display`) and
//! *programmatic* (a builder: `SolverSpec::cbas_nd().budget(2000)`).
//!
//! The string grammar:
//!
//! ```text
//! spec       := name [ ":" option ("," option)* ]
//! option     := key "=" value
//! key        := budget | stages | start-nodes | starts | threads
//!             | require | rho | smoothing | backtrack | cap
//!             | inner | communities | top
//!             | deadline_ms | deadline_from_submit | patience
//! value      := integer | float
//!             | name                                 (solver name for inner)
//!             | "auto"                               (communities)
//!             | id ("+" id)*                        (ids for starts/require)
//! ```
//!
//! Examples: `dgreedy`, `cbas-nd:budget=2000,stages=10`,
//! `cbas-nd:threads=8`, `cbas-nd:require=3+17`, `exact:cap=1000000`,
//! `cbas-nd:budget=100000,stages=50,deadline_ms=250,patience=5`,
//! `decomp:inner=cbas-nd,communities=auto,top=4`.
//!
//! Which names exist, and which options each solver honours, is owned by
//! the [`crate::registry::SolverRegistry`]; parsing here is purely
//! syntactic so specs can be constructed, stored and shipped without a
//! registry in scope.

use std::fmt;
use std::time::Duration;

use waso_graph::NodeId;

/// Default sampling budget `T` when a spec does not set one (the
/// `waso-solve` CLI default since the first release).
pub const DEFAULT_BUDGET: u64 = 2000;

/// What a solver can honour, declared once per registry entry
/// ([`crate::RegistryEntry::capabilities`]); the session facade uses these
/// to *reject* spec/solver combinations that cannot be honoured instead of
/// silently ignoring a constraint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// Can guarantee a set of required attendees appears in the answer
    /// (§4.4.1 / the §6 future-work item).
    pub required_attendees: bool,
    /// Proves optimality when run to completion.
    pub exact: bool,
    /// Consumes the seed — reruns with different seeds explore differently.
    pub randomized: bool,
    /// Anytime: maintains a feasible incumbent throughout the solve and
    /// honours stage-granular control — `deadline_ms=`, `patience=`,
    /// cancellation, and incumbent streaming through a request's
    /// [`crate::JobControl`] ([`crate::SolveRequest::control`]).
    /// Solvers without this flag reject the `deadline_ms`/`patience` spec
    /// options at build time.
    pub anytime: bool,
}

/// Why a spec string or a spec/solver combination was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string was empty.
    Empty,
    /// No registered solver under this name ([`crate::SolverRegistry`]
    /// lookup failure). Carries the known names for the error message.
    UnknownAlgorithm {
        /// The name that failed to resolve.
        name: String,
        /// The registered names, for the message.
        known: Vec<&'static str>,
    },
    /// An option key that no solver understands.
    UnknownOption(String),
    /// An option value that did not parse.
    BadValue {
        /// The offending key.
        key: &'static str,
        /// The offending raw value.
        value: String,
    },
    /// An option that this particular solver does not honour. Surfaced
    /// instead of silently ignoring the setting.
    UnsupportedOption {
        /// The solver that rejected the option.
        algorithm: &'static str,
        /// The rejected key.
        key: &'static str,
    },
    /// An option value outside its valid range (e.g. `rho=0`). Rejected
    /// at build time so a malformed spec string can never reach — let
    /// alone panic — a running solver.
    OutOfRange {
        /// The offending key.
        key: &'static str,
        /// The rejected value, rendered.
        value: String,
        /// The accepted range, rendered (`"in (0, 1]"`).
        expected: &'static str,
    },
    /// A syntactically malformed option (`missing '='`).
    Malformed(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty solver spec"),
            SpecError::UnknownAlgorithm { name, known } => {
                write!(
                    f,
                    "unknown algorithm '{name}' (known: {})",
                    known.join(", ")
                )
            }
            SpecError::UnknownOption(k) => write!(f, "unknown solver option '{k}'"),
            SpecError::BadValue { key, value } => {
                write!(f, "bad value '{value}' for solver option '{key}'")
            }
            SpecError::UnsupportedOption { algorithm, key } => {
                write!(f, "solver '{algorithm}' does not honour option '{key}'")
            }
            SpecError::OutOfRange {
                key,
                value,
                expected,
            } => {
                write!(
                    f,
                    "solver option {key}={value} is invalid (must be {expected})"
                )
            }
            SpecError::Malformed(opt) => {
                write!(f, "malformed solver option '{opt}' (expected key=value)")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete, serializable description of a solver configuration.
///
/// ```
/// use waso_algos::SolverSpec;
///
/// let spec = SolverSpec::cbas_nd().budget(500).stages(5);
/// assert_eq!(spec.to_string(), "cbas-nd:budget=500,stages=5");
/// assert_eq!(SolverSpec::parse("cbas-nd:budget=500,stages=5").unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSpec {
    algorithm: String,
    /// Sampling budget `T` (randomized solvers).
    pub budget: Option<u64>,
    /// Stage count `r` (staged solvers); `None` derives it per the paper.
    pub stages: Option<u32>,
    /// Number of start nodes `m`; `None` uses the paper's `⌈n/k⌉`.
    pub start_nodes: Option<usize>,
    /// Pinned start nodes (the user-study "-i" mode); overrides phase 1.
    pub starts: Option<Vec<NodeId>>,
    /// Worker threads (parallel solvers).
    pub threads: Option<usize>,
    /// Attendees that must appear in the answer.
    pub required: Vec<NodeId>,
    /// Elite fraction ρ of the cross-entropy update (CBAS-ND).
    pub rho: Option<f64>,
    /// Smoothing weight `w` of the vector update (CBAS-ND).
    pub smoothing: Option<f64>,
    /// Backtracking threshold `z_t` of §4.4.2 (CBAS-ND).
    pub backtrack: Option<f64>,
    /// Search-tree expansion cap (exact branch-and-bound).
    pub cap: Option<u64>,
    /// Inner solver name for composite solvers (`decomp:inner=cbas-nd`).
    /// A bare solver name — the grammar has no nesting, so the inner
    /// solver inherits its knobs (budget share, stages, …) from this spec.
    pub inner: Option<String>,
    /// Community count for the decomposition solver: `Some(0)` (spelled
    /// `communities=auto`) lets label propagation decide, any other value
    /// coarsens the partition to at most that many communities.
    pub communities: Option<usize>,
    /// How many top-scored communities the decomposition solver solves.
    pub top: Option<usize>,
    /// Wall-clock deadline in milliseconds, measured from solve start:
    /// sampling stops (mid-chunk; the in-flight stage is abandoned) once
    /// it elapses and the current incumbent is returned with
    /// [`crate::Termination::Deadline`] (anytime solvers).
    pub deadline_ms: Option<u64>,
    /// Wall-clock deadline in milliseconds measured from **submission**
    /// rather than solve start, so time spent queued (behind a batch, a
    /// coordinator, or a serving tenant queue) counts against the SLA.
    /// The session facade arms it the moment `submit` accepts the job;
    /// for a plain blocking solve the two clocks coincide. Combines with
    /// `deadline_ms` by earliest-deadline-wins (anytime solvers).
    pub deadline_from_submit: Option<u64>,
    /// Early-stop patience: stop after this many consecutive
    /// non-improving stages, returning the incumbent as a
    /// [`crate::Termination::Completed`]-but-truncated result (anytime
    /// solvers).
    pub patience: Option<u32>,
}

impl SolverSpec {
    /// A spec for the named algorithm with every setting at its default.
    pub fn new(algorithm: impl Into<String>) -> Self {
        Self {
            algorithm: algorithm.into(),
            budget: None,
            stages: None,
            start_nodes: None,
            starts: None,
            threads: None,
            required: Vec::new(),
            rho: None,
            smoothing: None,
            backtrack: None,
            cap: None,
            inner: None,
            communities: None,
            top: None,
            deadline_ms: None,
            deadline_from_submit: None,
            patience: None,
        }
    }

    /// The deterministic greedy baseline (§1, §3).
    pub fn dgreedy() -> Self {
        Self::new("dgreedy")
    }

    /// Randomized greedy (§4.1).
    pub fn rgreedy() -> Self {
        Self::new("rgreedy")
    }

    /// Budget-allocated random sampling (§3).
    pub fn cbas() -> Self {
        Self::new("cbas")
    }

    /// CBAS with neighbour differentiation (§4) — the paper's flagship.
    pub fn cbas_nd() -> Self {
        Self::new("cbas-nd")
    }

    /// CBAS-ND with the Gaussian allocation of Appendix A.
    pub fn cbas_nd_g() -> Self {
        Self::new("cbas-nd-g")
    }

    /// Exact branch-and-bound (the paper's CPLEX ground-truth role).
    pub fn exact() -> Self {
        Self::new("exact")
    }

    /// The algorithm name this spec asks for.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Renames the algorithm, keeping every option (used by the registry to
    /// canonicalize aliases).
    pub(crate) fn with_algorithm(mut self, name: &str) -> Self {
        self.algorithm = name.to_string();
        self
    }

    /// Sets the sampling budget `T`.
    pub fn budget(mut self, t: u64) -> Self {
        self.budget = Some(t);
        self
    }

    /// Sets the stage count `r`.
    pub fn stages(mut self, r: u32) -> Self {
        self.stages = Some(r);
        self
    }

    /// Sets the number of start nodes `m`.
    pub fn start_nodes(mut self, m: usize) -> Self {
        self.start_nodes = Some(m);
        self
    }

    /// Pins the start nodes.
    pub fn starts(mut self, starts: impl IntoIterator<Item = NodeId>) -> Self {
        self.starts = Some(starts.into_iter().collect());
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = Some(t);
        self
    }

    /// Adds required attendees.
    pub fn require(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.required.extend(nodes);
        self
    }

    /// Sets the elite fraction ρ.
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = Some(rho);
        self
    }

    /// Sets the smoothing weight `w`.
    pub fn smoothing(mut self, w: f64) -> Self {
        self.smoothing = Some(w);
        self
    }

    /// Enables §4.4.2 backtracking with threshold `z_t`.
    pub fn backtrack(mut self, z_t: f64) -> Self {
        self.backtrack = Some(z_t);
        self
    }

    /// Sets the exact solver's expansion cap.
    pub fn cap(mut self, cap: u64) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Sets the inner solver of a composite solver (`decomp`).
    pub fn inner(mut self, name: impl Into<String>) -> Self {
        self.inner = Some(name.into());
        self
    }

    /// Sets the decomposition community target (0 = `auto`).
    pub fn communities(mut self, c: usize) -> Self {
        self.communities = Some(c);
        self
    }

    /// Sets how many top-scored communities the decomposition solves.
    pub fn top(mut self, t: usize) -> Self {
        self.top = Some(t);
        self
    }

    /// Sets the wall-clock deadline (milliseconds from solve start).
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the submission-relative wall-clock deadline (milliseconds
    /// from `submit`; queue wait counts).
    pub fn deadline_from_submit(mut self, ms: u64) -> Self {
        self.deadline_from_submit = Some(ms);
        self
    }

    /// Sets the early-stop patience (consecutive non-improving stages).
    pub fn patience(mut self, stages: u32) -> Self {
        self.patience = Some(stages);
        self
    }

    /// The budget, or the workspace default.
    pub fn budget_or_default(&self) -> u64 {
        self.budget.unwrap_or(DEFAULT_BUDGET)
    }

    /// The solve's start-relative deadline: the earlier of `deadline_ms=`
    /// and `deadline_from_submit=`. A session also arms the latter from
    /// the submit instant (so queue wait counts); for a direct
    /// `registry.build` caller, where submit and start coincide, reading
    /// it as start-relative keeps the knob from being silently inert.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline_ms
            .into_iter()
            .chain(self.deadline_from_submit)
            .min()
            .map(Duration::from_millis)
    }

    /// Parses the `name[:key=value,...]` grammar (see the module docs).
    ///
    /// Purely syntactic: any algorithm name is accepted here; resolving it
    /// against the registered solvers happens in
    /// [`crate::SolverRegistry::parse`].
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Empty);
        }
        let (name, opts) = match s.split_once(':') {
            Some((n, o)) => (n, Some(o)),
            None => (s, None),
        };
        if name.is_empty() {
            return Err(SpecError::Empty);
        }
        let mut spec = Self::new(name);
        if let Some(opts) = opts {
            for opt in opts.split(',').filter(|o| !o.is_empty()) {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| SpecError::Malformed(opt.to_string()))?;
                spec.set_option(key.trim(), value.trim())?;
            }
        }
        Ok(spec)
    }

    fn set_option(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        fn num<T: std::str::FromStr>(key: &'static str, v: &str) -> Result<T, SpecError> {
            v.parse().map_err(|_| SpecError::BadValue {
                key,
                value: v.to_string(),
            })
        }
        fn ids(key: &'static str, v: &str) -> Result<Vec<NodeId>, SpecError> {
            v.split('+')
                .map(|x| num::<u32>(key, x).map(NodeId))
                .collect()
        }
        match key {
            "budget" => self.budget = Some(num("budget", value)?),
            "stages" => self.stages = Some(num("stages", value)?),
            "start-nodes" => self.start_nodes = Some(num("start-nodes", value)?),
            "starts" => self.starts = Some(ids("starts", value)?),
            "threads" => self.threads = Some(num("threads", value)?),
            "require" => self.required = ids("require", value)?,
            "rho" => self.rho = Some(num("rho", value)?),
            "smoothing" => self.smoothing = Some(num("smoothing", value)?),
            "backtrack" => self.backtrack = Some(num("backtrack", value)?),
            "cap" => self.cap = Some(num("cap", value)?),
            "inner" => {
                if value.is_empty() {
                    return Err(SpecError::BadValue {
                        key: "inner",
                        value: value.to_string(),
                    });
                }
                self.inner = Some(value.to_string());
            }
            "communities" => {
                self.communities = Some(if value == "auto" {
                    0
                } else {
                    num("communities", value)?
                })
            }
            "top" => self.top = Some(num("top", value)?),
            "deadline_ms" => self.deadline_ms = Some(num("deadline_ms", value)?),
            "deadline_from_submit" => {
                self.deadline_from_submit = Some(num("deadline_from_submit", value)?)
            }
            "patience" => self.patience = Some(num("patience", value)?),
            other => return Err(SpecError::UnknownOption(other.to_string())),
        }
        Ok(())
    }

    /// The `(key, set?)` table behind [`SolverSpec::ensure_only`] and
    /// `Display`, in canonical serialization order.
    fn set_keys(&self) -> Vec<&'static str> {
        let mut keys = Vec::new();
        if self.budget.is_some() {
            keys.push("budget");
        }
        if self.stages.is_some() {
            keys.push("stages");
        }
        if self.start_nodes.is_some() {
            keys.push("start-nodes");
        }
        if self.starts.is_some() {
            keys.push("starts");
        }
        if self.threads.is_some() {
            keys.push("threads");
        }
        if !self.required.is_empty() {
            keys.push("require");
        }
        if self.rho.is_some() {
            keys.push("rho");
        }
        if self.smoothing.is_some() {
            keys.push("smoothing");
        }
        if self.backtrack.is_some() {
            keys.push("backtrack");
        }
        if self.cap.is_some() {
            keys.push("cap");
        }
        if self.inner.is_some() {
            keys.push("inner");
        }
        if self.communities.is_some() {
            keys.push("communities");
        }
        if self.top.is_some() {
            keys.push("top");
        }
        if self.deadline_ms.is_some() {
            keys.push("deadline_ms");
        }
        if self.deadline_from_submit.is_some() {
            keys.push("deadline_from_submit");
        }
        if self.patience.is_some() {
            keys.push("patience");
        }
        keys
    }

    /// Rejects cross-entropy parameters outside their valid ranges —
    /// ρ ∈ (0, 1], smoothing `w` ∈ [0, 1] — at build time, so a bad spec
    /// string (`cbas-nd:rho=0`) is a typed error, never a panic inside a
    /// solve. The engine re-checks the same ranges as a backstop
    /// ([`crate::SolveError::BadParameter`]).
    pub(crate) fn ensure_ce_ranges(&self) -> Result<(), SpecError> {
        if let Some(rho) = self.rho {
            if !(rho > 0.0 && rho <= 1.0) {
                return Err(SpecError::OutOfRange {
                    key: "rho",
                    value: rho.to_string(),
                    expected: "in (0, 1]",
                });
            }
        }
        if let Some(w) = self.smoothing {
            if !(0.0..=1.0).contains(&w) {
                return Err(SpecError::OutOfRange {
                    key: "smoothing",
                    value: w.to_string(),
                    expected: "in [0, 1]",
                });
            }
        }
        Ok(())
    }

    /// Rejects any set option that is not in `allowed` — the mechanism
    /// behind "reject instead of silently ignore". `require` is always
    /// allowed at the spec level: whether the *solver* honours it is
    /// enforced by the entry's capabilities and by [`crate::Solver::solve`],
    /// so that the error can name the solver and the session can route
    /// around it.
    pub fn ensure_only(
        &self,
        algorithm: &'static str,
        allowed: &[&'static str],
    ) -> Result<(), SpecError> {
        for key in self.set_keys() {
            if key == "require" {
                continue;
            }
            if !allowed.contains(&key) {
                return Err(SpecError::UnsupportedOption { algorithm, key });
            }
        }
        Ok(())
    }
}

impl fmt::Display for SolverSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ids(list: &[NodeId]) -> String {
            list.iter()
                .map(|v| v.0.to_string())
                .collect::<Vec<_>>()
                .join("+")
        }
        write!(f, "{}", self.algorithm)?;
        let mut sep = ':';
        let mut emit = |f: &mut fmt::Formatter<'_>, key: &str, value: String| {
            let r = write!(f, "{sep}{key}={value}");
            sep = ',';
            r
        };
        if let Some(t) = self.budget {
            emit(f, "budget", t.to_string())?;
        }
        if let Some(r) = self.stages {
            emit(f, "stages", r.to_string())?;
        }
        if let Some(m) = self.start_nodes {
            emit(f, "start-nodes", m.to_string())?;
        }
        if let Some(s) = &self.starts {
            emit(f, "starts", ids(s))?;
        }
        if let Some(t) = self.threads {
            emit(f, "threads", t.to_string())?;
        }
        if !self.required.is_empty() {
            emit(f, "require", ids(&self.required))?;
        }
        if let Some(x) = self.rho {
            emit(f, "rho", x.to_string())?;
        }
        if let Some(x) = self.smoothing {
            emit(f, "smoothing", x.to_string())?;
        }
        if let Some(x) = self.backtrack {
            emit(f, "backtrack", x.to_string())?;
        }
        if let Some(c) = self.cap {
            emit(f, "cap", c.to_string())?;
        }
        if let Some(name) = &self.inner {
            emit(f, "inner", name.clone())?;
        }
        if let Some(c) = self.communities {
            let rendered = if c == 0 {
                "auto".to_string()
            } else {
                c.to_string()
            };
            emit(f, "communities", rendered)?;
        }
        if let Some(t) = self.top {
            emit(f, "top", t.to_string())?;
        }
        if let Some(ms) = self.deadline_ms {
            emit(f, "deadline_ms", ms.to_string())?;
        }
        if let Some(ms) = self.deadline_from_submit {
            emit(f, "deadline_from_submit", ms.to_string())?;
        }
        if let Some(p) = self.patience {
            emit(f, "patience", p.to_string())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_name_round_trips() {
        let spec = SolverSpec::parse("dgreedy").unwrap();
        assert_eq!(spec.algorithm(), "dgreedy");
        assert_eq!(spec.to_string(), "dgreedy");
        assert_eq!(SolverSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn every_option_round_trips() {
        let spec = SolverSpec::cbas_nd()
            .budget(500)
            .stages(5)
            .start_nodes(16)
            .starts([NodeId(3), NodeId(9)])
            .threads(4)
            .require([NodeId(1), NodeId(2)])
            .rho(0.3)
            .smoothing(0.9)
            .backtrack(0.05)
            .cap(1_000_000)
            .inner("cbas-nd")
            .communities(0)
            .top(4)
            .deadline_ms(250)
            .deadline_from_submit(400)
            .patience(5);
        let text = spec.to_string();
        assert_eq!(SolverSpec::parse(&text).unwrap(), spec);
        assert!(text.starts_with("cbas-nd:budget=500,"), "{text}");
        assert!(
            text.ends_with("deadline_ms=250,deadline_from_submit=400,patience=5"),
            "{text}"
        );
        // communities=0 is the `auto` sentinel and must print as such.
        assert!(
            text.contains("inner=cbas-nd,communities=auto,top=4"),
            "{text}"
        );
    }

    #[test]
    fn decomp_keys_parse_and_round_trip() {
        let spec = SolverSpec::parse("decomp:inner=cbas-nd,communities=auto,top=4").unwrap();
        assert_eq!(spec.inner.as_deref(), Some("cbas-nd"));
        assert_eq!(spec.communities, Some(0));
        assert_eq!(spec.top, Some(4));
        assert_eq!(
            spec.to_string(),
            "decomp:inner=cbas-nd,communities=auto,top=4"
        );

        let explicit = SolverSpec::parse("decomp:communities=8").unwrap();
        assert_eq!(explicit.communities, Some(8));
        assert_eq!(explicit.to_string(), "decomp:communities=8");

        assert_eq!(
            SolverSpec::parse("decomp:communities=lots"),
            Err(SpecError::BadValue {
                key: "communities",
                value: "lots".into()
            })
        );
        assert_eq!(
            SolverSpec::parse("decomp:inner="),
            Err(SpecError::BadValue {
                key: "inner",
                value: String::new()
            })
        );
    }

    #[test]
    fn anytime_knobs_parse_and_reject_garbage() {
        let spec = SolverSpec::parse("cbas-nd:deadline_ms=0,patience=3").unwrap();
        assert_eq!(spec.deadline_ms, Some(0));
        assert_eq!(spec.patience, Some(3));
        assert_eq!(spec.to_string(), "cbas-nd:deadline_ms=0,patience=3");
        assert_eq!(
            SolverSpec::parse("cbas-nd:deadline_ms=soon"),
            Err(SpecError::BadValue {
                key: "deadline_ms",
                value: "soon".into()
            })
        );
        assert_eq!(
            SolverSpec::parse("cbas-nd:patience=-1"),
            Err(SpecError::BadValue {
                key: "patience",
                value: "-1".into()
            })
        );
    }

    #[test]
    fn float_values_round_trip_exactly() {
        for x in [0.1, 0.3, 1e-9, 123.456, 0.7000000000000001] {
            let spec = SolverSpec::cbas_nd().rho(x);
            let back = SolverSpec::parse(&spec.to_string()).unwrap();
            assert_eq!(back.rho, Some(x));
        }
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert_eq!(SolverSpec::parse("  "), Err(SpecError::Empty));
        assert!(matches!(
            SolverSpec::parse("cbas:wat=1"),
            Err(SpecError::UnknownOption(_))
        ));
        assert!(matches!(
            SolverSpec::parse("cbas:budget"),
            Err(SpecError::Malformed(_))
        ));
        assert_eq!(
            SolverSpec::parse("cbas:budget=abc"),
            Err(SpecError::BadValue {
                key: "budget",
                value: "abc".into()
            })
        );
    }

    #[test]
    fn ensure_only_rejects_foreign_options() {
        let spec = SolverSpec::dgreedy().budget(10);
        let err = spec.ensure_only("dgreedy", &["starts"]).unwrap_err();
        assert_eq!(
            err,
            SpecError::UnsupportedOption {
                algorithm: "dgreedy",
                key: "budget"
            }
        );
        // `require` is solver-enforced, never a spec-level error.
        let spec = SolverSpec::dgreedy().require([NodeId(1)]);
        assert!(spec.ensure_only("dgreedy", &["starts"]).is_ok());
    }

    #[test]
    fn the_retired_pool_key_is_an_unknown_option() {
        // `pool=shared|private` once picked a per-solve pool; threaded
        // solves now always run on a SharedPool, so the key is gone.
        for text in ["cbas-nd:threads=4,pool=private", "cbas-nd:pool=shared"] {
            assert_eq!(
                SolverSpec::parse(text),
                Err(SpecError::UnknownOption("pool".into())),
                "{text}"
            );
        }
    }

    #[test]
    fn id_lists_parse_and_reject_garbage() {
        let spec = SolverSpec::parse("cbas-nd:require=1+2+3").unwrap();
        assert_eq!(spec.required, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(SolverSpec::parse("cbas-nd:require=1+x").is_err());
    }
}
