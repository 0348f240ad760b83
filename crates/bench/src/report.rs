//! Result tables and perf records: the harness's output formats.
//!
//! Every figure driver returns [`Table`]s whose rows are the series the
//! paper plots (x value + one column per algorithm). Tables render as
//! GitHub markdown (for EXPERIMENTS.md) and CSV (for replotting).
//!
//! The Figure 5(d) thread sweep and the `decomp` ladder additionally emit
//! machine-readable [`BenchRecord`]s (workload, solver spec, thread
//! count, repeats, cores, quality, median wall seconds with its
//! interquartile range, samples/sec) rendered as JSON — the committed
//! `BENCH_engine.json`.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A cell value: text, number, or absent ("the paper could not run this
/// configuration either").
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text.
    Text(String),
    /// A number rendered with sensible precision.
    Num(f64),
    /// Missing / not applicable.
    Missing,
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(x) => format_num(*x),
            Cell::Missing => "—".to_string(),
        }
    }

    fn render_csv(&self) -> String {
        match self {
            Cell::Text(s) => {
                if s.contains(',') || s.contains('"') {
                    format!("\"{}\"", s.replace('"', "\"\""))
                } else {
                    s.clone()
                }
            }
            Cell::Num(x) => format_num(*x),
            Cell::Missing => String::new(),
        }
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Self {
        Cell::Num(x)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<usize> for Cell {
    fn from(x: usize) -> Self {
        Cell::Num(x as f64)
    }
}

impl From<u64> for Cell {
    fn from(x: u64) -> Self {
        Cell::Num(x as f64)
    }
}

/// Compact numeric formatting: integers plain, large values with few
/// decimals, small values with more.
fn format_num(x: f64) -> String {
    if !x.is_finite() {
        return x.to_string();
    }
    if x == x.trunc() && x.abs() < 1e12 {
        return format!("{}", x as i64);
    }
    let ax = x.abs();
    if ax >= 100.0 {
        format!("{x:.1}")
    } else if ax >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.5}")
    }
}

/// One result table (≈ one figure panel).
#[derive(Debug, Clone)]
pub struct Table {
    /// Stable identifier, e.g. `fig5b`.
    pub id: String,
    /// Human title, e.g. `Figure 5(b): solution quality vs k (Facebook)`.
    pub title: String,
    /// Column headers; the first column is the x-axis.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the arity does not match the header.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "table {}: row arity {} != {} columns",
            self.id,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Renders as a GitHub markdown table with a title line.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::render).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Renders as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::render_csv).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Writes `<dir>/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }
}

/// A batch of tables produced by one figure driver.
#[derive(Debug, Clone, Default)]
pub struct TableSet {
    /// The tables, in presentation order.
    pub tables: Vec<Table>,
}

impl TableSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table.
    pub fn push(&mut self, t: Table) {
        self.tables.push(t);
    }

    /// Concatenated markdown of every table.
    pub fn to_markdown(&self) -> String {
        self.tables
            .iter()
            .map(Table::to_markdown)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Writes every table's CSV into `dir`.
    pub fn write_csvs(&self, dir: &Path) -> io::Result<()> {
        for t in &self.tables {
            t.write_csv(dir)?;
        }
        Ok(())
    }

    /// Merges another set into this one.
    pub fn extend(&mut self, other: TableSet) {
        self.tables.extend(other.tables);
    }
}

/// One machine-readable measurement: one solver spec on one workload,
/// solved `repeats` times with seeds `seed`, `seed + 1`, ….
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload identifier, e.g. `facebook-like/n=300/k=10`.
    pub workload: String,
    /// The solver spec string the run was built from.
    pub solver: String,
    /// Worker threads (0 = the solver's serial path).
    pub threads: usize,
    /// Solves measured.
    pub repeats: u32,
    /// Cores available to the measuring process.
    pub cores: usize,
    /// Mean willingness over the feasible repeats (`null` when every
    /// repeat was infeasible).
    pub mean_quality: Option<f64>,
    /// Median wall-clock seconds per solve.
    pub wall_seconds: f64,
    /// 25th percentile of the per-solve wall-clock seconds.
    pub wall_seconds_p25: f64,
    /// 75th percentile of the per-solve wall-clock seconds.
    pub wall_seconds_p75: f64,
    /// Median per-solve sampling throughput.
    pub samples_per_sec: f64,
}

/// Minimal JSON string escaping (the only string fields are workload and
/// spec names, but quotes/backslashes must not corrupt the file).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string() // JSON has no Inf/NaN
    }
}

/// Renders the records as a pretty-printed JSON array (stable field
/// order, one record per object) — hand-rolled, the workspace vendors no
/// serde.
pub fn records_to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"workload\": \"{}\", \"solver\": \"{}\", \"threads\": {}, \
             \"repeats\": {}, \"cores\": {}, \"mean_quality\": {}, \"wall_seconds\": {}, \
             \"wall_seconds_p25\": {}, \"wall_seconds_p75\": {}, \"samples_per_sec\": {}}}",
            json_escape(&r.workload),
            json_escape(&r.solver),
            r.threads,
            r.repeats,
            r.cores,
            r.mean_quality.map_or("null".to_string(), json_num),
            json_num(r.wall_seconds),
            json_num(r.wall_seconds_p25),
            json_num(r.wall_seconds_p75),
            json_num(r.samples_per_sec),
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Writes the records as JSON to `path` (creating parent directories).
pub fn write_records_json(records: &[BenchRecord], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, records_to_json(records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("fig0", "demo", &["k", "DGreedy", "CBAS-ND"]);
        t.push_row(vec![Cell::from(20usize), Cell::from(415.2), Cell::Missing]);
        t.push_row(vec![
            Cell::from(40usize),
            Cell::from(700.0),
            Cell::from("1.25e3"),
        ]);
        t
    }

    #[test]
    fn markdown_rendering() {
        let md = sample_table().to_markdown();
        assert!(md.contains("### fig0 — demo"));
        assert!(md.contains("| k | DGreedy | CBAS-ND |"));
        assert!(md.contains("| 20 | 415.2 | — |"));
        assert!(md.contains("| 40 | 700 | 1.25e3 |"));
    }

    #[test]
    fn csv_rendering() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "k,DGreedy,CBAS-ND");
        assert_eq!(lines[1], "20,415.2,");
        assert_eq!(lines[2], "40,700,1.25e3");
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new("x", "t", &["a"]);
        t.push_row(vec![Cell::from("hello, world")]);
        assert!(t.to_csv().contains("\"hello, world\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", "t", &["a", "b"]);
        t.push_row(vec![Cell::from(1.0)]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_num(20.0), "20");
        assert_eq!(format_num(415.24), "415.2");
        assert_eq!(format_num(4.35719), "4.357");
        assert_eq!(format_num(0.01234), "0.01234");
    }

    #[test]
    fn bench_records_render_as_json() {
        let records = vec![
            BenchRecord {
                workload: "facebook-like/k=10".into(),
                solver: "cbas-nd:budget=2000,stages=10".into(),
                threads: 0,
                repeats: 5,
                cores: 2,
                mean_quality: Some(123.456789),
                wall_seconds: 0.25,
                wall_seconds_p25: 0.125,
                wall_seconds_p75: 0.375,
                samples_per_sec: 8000.0,
            },
            BenchRecord {
                workload: "planted\"weird\"".into(),
                solver: "cbas-nd:threads=8".into(),
                threads: 8,
                repeats: 1,
                cores: 2,
                mean_quality: None,
                wall_seconds: 0.5,
                wall_seconds_p25: 0.5,
                wall_seconds_p75: 0.5,
                samples_per_sec: f64::NAN,
            },
        ];
        let json = records_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"mean_quality\": 123.456789"));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.contains(
            "\"repeats\": 5, \"cores\": 2, \"mean_quality\": 123.456789, \
             \"wall_seconds\": 0.250000, \"wall_seconds_p25\": 0.125000, \
             \"wall_seconds_p75\": 0.375000, \"samples_per_sec\": 8000.000000}"
        ));
        assert!(json.contains("\"mean_quality\": null"));
        assert!(json.contains("\"samples_per_sec\": null"), "NaN → null");
        assert!(json.contains("planted\\\"weird\\\""), "quotes escaped");
        // Exactly one comma separator between the two records.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn bench_records_json_written_to_disk() {
        let dir = std::env::temp_dir().join("waso-bench-test-json");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH_engine.json");
        let records = vec![BenchRecord {
            workload: "w".into(),
            solver: "s".into(),
            threads: 1,
            repeats: 1,
            cores: 1,
            mean_quality: Some(1.0),
            wall_seconds: 0.1,
            wall_seconds_p25: 0.1,
            wall_seconds_p75: 0.1,
            samples_per_sec: 10.0,
        }];
        write_records_json(&records, &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"workload\": \"w\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_files_written() {
        let dir = std::env::temp_dir().join("waso-bench-test-report");
        let _ = std::fs::remove_dir_all(&dir);
        let mut set = TableSet::new();
        set.push(sample_table());
        set.write_csvs(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("fig0.csv")).unwrap();
        assert!(content.starts_with("k,DGreedy"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
