//! Benchmark entry point: one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-repro|sweep-mix|serve-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable findings, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use std::path::PathBuf;
use std::process::ExitCode;

use lpm_benchmark::out::{result_line, Outcome, END_TO_END, PER_LAYER};
use lpm_benchmark::{repro, serve, sweep, Budget};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lpm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Journals, exports and daemon state live under the working
    // directory and are removed when the run ends.
    let state =
        PathBuf::from(".bench_state").join(format!("{}-{}", args.workload, std::process::id()));
    let budget = Budget {
        seconds: args.seconds,
    };
    let mut o = Outcome::default();
    let res = match args.workload.as_str() {
        "paper-repro" => repro::run(args.seed, &budget, args.trace, &mut o),
        "sweep-mix" => sweep::run(args.seed, &budget, args.trace, &state, &mut o),
        "serve-open" => serve::run(args.seed, &budget, args.trace, &state, &mut o),
        w => Err(format!(
            "unknown workload {w} (paper-repro, sweep-mix, serve-open)"
        )),
    };
    let cleanup = match std::fs::remove_dir_all(&state) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", state.display()))
        }
        _ => Ok(()),
    };
    if let Err(e) = res.and(cleanup) {
        eprintln!("lpm-benchmark: {e}");
        return ExitCode::FAILURE;
    }
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    o.set(
        "ok_ratio",
        1.0 - o.failed as f64 / o.attempted.max(1) as f64,
    );
    for line in &o.notes {
        println!("{line}");
    }
    for (name, unit) in registry {
        let v = o.values.get(name).copied().unwrap_or(0.0);
        println!("metric {name:<30} {v:>16.6} {unit}");
    }
    println!("{}", result_line(&o, registry));
    if o.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
