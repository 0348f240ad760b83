//! Plain-text interchange format for scored social graphs.
//!
//! The paper's datasets ship as edge lists; this module defines the
//! equivalent for scored WASO inputs so instances can be saved, diffed and
//! reloaded by the experiment harness:
//!
//! ```text
//! # anything after '#' is a comment
//! waso-graph v1
//! n 3
//! v 0 0.8
//! v 1 0.5
//! e 0 1 0.7 0.6      # u v tau_uv tau_vu
//! ```
//!
//! Unlisted nodes default to interest 0, letting raw `e`-only edge lists
//! load directly.

use std::io::{BufRead, Write};

use crate::builder::{GraphBuilder, GraphError};
use crate::csr::{NodeId, SocialGraph};

/// Errors while reading the text format.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// Structurally invalid graph (duplicate edge, self-loop, bad id).
    Graph(GraphError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
            ReadError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<GraphError> for ReadError {
    fn from(e: GraphError) -> Self {
        ReadError::Graph(e)
    }
}

/// Writes `g` in the `waso-graph v1` text format. All I/O failure
/// surfaces through the returned `Result` — this path never panics.
pub fn write_graph<W: Write>(g: &SocialGraph, mut out: W) -> std::io::Result<()> {
    out.write_all(to_string(g).as_bytes())
}

/// Serializes `g` to a `String` in the text format. Rendering into
/// memory is infallible, so this returns the text directly.
pub fn to_string(g: &SocialGraph) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "waso-graph v1");
    let _ = writeln!(s, "n {}", g.num_nodes());
    for v in g.node_ids() {
        let eta = g.interest(v);
        if eta != 0.0 {
            let _ = writeln!(s, "v {} {}", v.0, eta);
        }
    }
    for (u, v, tau_uv, tau_vu) in g.undirected_edges() {
        let _ = writeln!(s, "e {} {} {} {}", u.0, v.0, tau_uv, tau_vu);
    }
    s
}

/// Reads a graph in the `waso-graph v1` text format.
pub fn read_graph<R: BufRead>(input: R) -> Result<SocialGraph, ReadError> {
    let mut n: Option<usize> = None;
    let mut interests: Vec<(u32, f64)> = Vec::new();
    let mut edges: Vec<(u32, u32, f64, f64)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut saw_any = false;

    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut tok = body.split_whitespace();
        // A non-empty body always yields a token; the fallback keeps
        // this path statically panic-free for the audit.
        let Some(head) = tok.next() else { continue };
        let parse_err = |message: String| ReadError::Parse {
            line: line_no,
            message,
        };
        match head {
            "waso-graph" => {
                let ver = tok.next().unwrap_or("");
                if ver != "v1" {
                    return Err(parse_err(format!("unsupported version '{ver}'")));
                }
            }
            "n" => {
                let v = tok
                    .next()
                    .ok_or_else(|| parse_err("missing node count".into()))?;
                n = Some(
                    v.parse()
                        .map_err(|_| parse_err(format!("bad node count '{v}'")))?,
                );
            }
            "v" => {
                let id: u32 = next_num(&mut tok, "node id", line_no)?;
                let eta = next_score(&mut tok, "interest", line_no)?;
                max_id = max_id.max(id);
                saw_any = true;
                interests.push((id, eta));
            }
            "e" => {
                let u: u32 = next_num(&mut tok, "edge endpoint", line_no)?;
                let v: u32 = next_num(&mut tok, "edge endpoint", line_no)?;
                let tau_uv = next_score(&mut tok, "tightness", line_no)?;
                let tau_vu = next_score(&mut tok, "tightness", line_no)?;
                max_id = max_id.max(u).max(v);
                saw_any = true;
                edges.push((u, v, tau_uv, tau_vu));
            }
            other => {
                return Err(parse_err(format!("unknown record '{other}'")));
            }
        }
    }

    let n = n.unwrap_or(if saw_any { max_id as usize + 1 } else { 0 });
    if saw_any && max_id as usize >= n {
        return Err(ReadError::Parse {
            line: 0,
            message: format!("node id {max_id} exceeds declared n {n}"),
        });
    }

    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.add_nodes(n, 0.0);
    for (id, eta) in interests {
        b.set_interest(NodeId(id), eta)?;
    }
    for (u, v, tau_uv, tau_vu) in edges {
        b.add_edge(NodeId(u), NodeId(v), tau_uv, tau_vu)?;
    }
    Ok(b.try_build()?)
}

/// Parses a graph from an in-memory string.
pub fn from_str(s: &str) -> Result<SocialGraph, ReadError> {
    read_graph(s.as_bytes())
}

fn next_num<T: std::str::FromStr>(
    tok: &mut std::str::SplitWhitespace<'_>,
    what: &str,
    line: usize,
) -> Result<T, ReadError> {
    let raw = tok.next().ok_or_else(|| ReadError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    raw.parse().map_err(|_| ReadError::Parse {
        line,
        message: format!("bad {what} '{raw}'"),
    })
}

/// [`next_num`] for an interest or tightness score, which must be
/// finite: a NaN or ±∞ score would poison every willingness sum and the
/// start-node ranking of the loaded graph.
fn next_score(
    tok: &mut std::str::SplitWhitespace<'_>,
    what: &str,
    line: usize,
) -> Result<f64, ReadError> {
    let score: f64 = next_num(tok, what, line)?;
    if score.is_finite() {
        Ok(score)
    } else {
        Err(ReadError::Parse {
            line,
            message: format!("non-finite {what} '{score}'"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::scores::ScoreModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = generate::barabasi_albert(40, 3, &mut rng);
        let g = ScoreModel::paper_asymmetric().realize(&topo, &mut rng);
        let text = to_string(&g);
        let back = from_str(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn reads_minimal_edge_list() {
        let g = from_str("e 0 1 0.5 0.5\ne 1 2 1.0 2.0\n").unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.interest(NodeId(0)), 0.0);
        assert_eq!(g.tightness(NodeId(2), NodeId(1)), Some(2.0));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nwaso-graph v1\nn 2\nv 0 0.25 # inline\ne 0 1 1 1\n";
        let g = from_str(text).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.interest(NodeId(0)), 0.25);
    }

    #[test]
    fn isolated_nodes_survive_roundtrip() {
        let g = from_str("n 5\nv 4 0.9\n").unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.interest(NodeId(4)), 0.9);
        let back = from_str(&to_string(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = from_str("e 0 1 0.5\n").unwrap_err();
        match err {
            ReadError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("missing tightness"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }

        let err = from_str("x 1 2\n").unwrap_err();
        assert!(err.to_string().contains("unknown record"));
    }

    /// The line number and message of a text that must not load.
    fn parse_error(text: &str) -> (usize, String) {
        match from_str(text).unwrap_err() {
            ReadError::Parse { line, message } => (line, message),
            other => panic!("{text:?}: expected a parse error, got {other}"),
        }
    }

    #[test]
    fn nan_interest_is_a_parse_error() {
        let (line, message) = parse_error("n 2\nv 0 nan\n");
        assert_eq!((line, message.as_str()), (2, "non-finite interest 'NaN'"));
    }

    #[test]
    fn infinite_interest_is_a_parse_error() {
        let (line, message) = parse_error("v 0 1.5\nv 1 inf\n");
        assert_eq!((line, message.as_str()), (2, "non-finite interest 'inf'"));
    }

    #[test]
    fn negative_infinite_interest_is_a_parse_error() {
        let (line, message) = parse_error("v 1 -infinity\n");
        assert_eq!((line, message.as_str()), (1, "non-finite interest '-inf'"));
    }

    #[test]
    fn nan_tightness_is_a_parse_error() {
        let (line, message) = parse_error("e 0 1 1.0 1.0\ne 1 2 NaN 1.0\n");
        assert_eq!((line, message.as_str()), (2, "non-finite tightness 'NaN'"));
    }

    #[test]
    fn infinite_tightness_is_a_parse_error() {
        let (line, message) = parse_error("# header\ne 0 1 1.0 inf\n");
        assert_eq!((line, message.as_str()), (2, "non-finite tightness 'inf'"));
    }

    #[test]
    fn negative_infinite_tightness_is_a_parse_error() {
        let (line, message) = parse_error("e 0 1 -inf 2.0\n");
        assert_eq!((line, message.as_str()), (1, "non-finite tightness '-inf'"));
    }

    #[test]
    fn id_beyond_declared_n_is_rejected() {
        let err = from_str("n 2\ne 0 5 1 1\n").unwrap_err();
        assert!(err.to_string().contains("exceeds declared n"));
    }

    #[test]
    fn structural_errors_propagate() {
        let err = from_str("e 0 1 1 1\ne 1 0 2 2\n").unwrap_err();
        assert!(matches!(err, ReadError::Graph(_)), "{err}");
        let err = from_str("e 3 3 1 1\n").unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
    }

    #[test]
    fn version_mismatch_is_reported() {
        let err = from_str("waso-graph v9\n").unwrap_err();
        assert!(err.to_string().contains("unsupported version"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn arbitrary_graphs_roundtrip(
                n in 1usize..30,
                edge_seeds in proptest::collection::vec(
                    (0u32..30, 0u32..30, -2.0..2.0f64, -2.0..2.0f64), 0..60),
                interests in proptest::collection::vec(-3.0..3.0f64, 30),
            ) {
                let mut b = crate::GraphBuilder::new();
                #[allow(clippy::needless_range_loop)] // i is the node id
                for i in 0..n {
                    b.add_node(interests[i]);
                }
                let mut seen = std::collections::HashSet::new();
                for (a, c, t1, t2) in edge_seeds {
                    let (u, v) = (a % n as u32, c % n as u32);
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    if seen.insert(key) {
                        b.add_edge(NodeId(u), NodeId(v), t1, t2).unwrap();
                    }
                }
                let g = b.build();
                let back = from_str(&to_string(&g)).unwrap();
                prop_assert_eq!(g, back);
            }
        }
    }
}
