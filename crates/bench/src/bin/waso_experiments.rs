//! `waso-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! waso-experiments [--figure <id>|all] [--scale smoke|small|paper]
//!                  [--seed N] [--repeats N] [--out DIR] [--list]
//! ```
//!
//! Prints each experiment's tables as markdown and writes one CSV per
//! table under `--out` (default `results/`). When `5d` or `decomp` runs,
//! their records also go to `<out>/BENCH_engine.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use waso_bench::experiments::{run_figure, ALL_FIGURES};
use waso_bench::runner::{parse_scale, ExperimentContext};
use waso_bench::Scale;

struct Args {
    figures: Vec<String>,
    scale: Scale,
    seed: Option<u64>,
    repeats: Option<u32>,
    out: PathBuf,
    list: bool,
}

fn usage() -> String {
    format!(
        "usage: waso-experiments [--figure <id>|all] [--scale smoke|small|paper]\n\
         \x20                       [--seed N] [--repeats N] [--out DIR] [--list]\n\
         figure ids: {}",
        ALL_FIGURES.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        figures: vec![],
        scale: Scale::Small,
        seed: None,
        repeats: None,
        out: PathBuf::from("results"),
        list: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].clone();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--figure" | "-f" => {
                let v = value("--figure")?;
                args.figures.push(v);
            }
            "--scale" | "-s" => {
                let v = value("--scale")?;
                args.scale =
                    parse_scale(&v).ok_or_else(|| format!("unknown scale '{v}'\n{}", usage()))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed '{v}'"))?);
            }
            "--repeats" => {
                let v = value("--repeats")?;
                args.repeats = Some(v.parse().map_err(|_| format!("bad repeats '{v}'"))?);
            }
            "--out" | "-o" => {
                args.out = PathBuf::from(value("--out")?);
            }
            "--list" => args.list = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
        i += 1;
    }
    if args.figures.is_empty() {
        args.figures.push("all".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        for id in ALL_FIGURES {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let mut ctx = ExperimentContext::new(args.scale);
    if let Some(seed) = args.seed {
        ctx.seed = seed;
    }
    if let Some(repeats) = args.repeats {
        ctx.repeats = repeats.max(1);
    }

    let ids: Vec<&str> = if args.figures.iter().any(|f| f == "all") {
        ALL_FIGURES.to_vec()
    } else {
        args.figures.iter().map(String::as_str).collect()
    };

    println!(
        "# WASO experiments — scale {:?}, seed {}, repeats {}\n",
        ctx.scale, ctx.seed, ctx.repeats
    );

    // The Figure 5(d) sweep and the decomp ladder return BenchRecords;
    // one BENCH_engine.json holding every record of the invocation is
    // written at the end.
    let mut bench_records = Vec::new();
    for id in ids {
        let t0 = std::time::Instant::now();
        let Some((set, records)) = run_figure(id, &ctx) else {
            eprintln!("unknown figure id '{id}'\n{}", usage());
            return ExitCode::from(2);
        };
        bench_records.extend(records);
        println!("{}", set.to_markdown());
        if let Err(e) = set.write_csvs(&args.out) {
            eprintln!("failed to write CSVs to {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("[{id}] finished in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if !bench_records.is_empty() {
        let path = args.out.join("BENCH_engine.json");
        if let Err(e) = waso_bench::report::write_records_json(&bench_records, &path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("JSON written to {}", path.display());
    }
    println!("CSVs written to {}/", args.out.display());
    ExitCode::SUCCESS
}
