//! `perfbench` — the outside-in benchmark of the k-VCC workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! perfbench --host
//! ```
//!
//! Generates the workload's inputs from the seed, runs them through the
//! public API for about `--seconds`, checks every output, and prints a
//! report followed by one JSON result line. A failed output check exits
//! with code 1 and prints no result line. `--host` prints the host record
//! instead. See `README.md` for the metrics.

mod enumeration;
mod ingest;
mod inputs;
mod replay;
mod report;
mod sample;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

/// Workload names, in the order the report documents them.
pub const WORKLOADS: &[&str] = &[
    "enum-planted10k",
    "enum-suite",
    "ingest-ring1m",
    "serve-mixed",
];

/// The arguments every workload receives.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for generated files, inside the checkout.
    pub work_dir: PathBuf,
}

impl RunConfig {
    /// The deadline of a timed loop starting now that uses `share` of the
    /// run's seconds.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n       perfbench --host",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut work_dir) = (None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
            work_dir: work_dir.ok_or("missing --work-dir")?,
        },
    ))
}

/// Effective core count: one busy loop alone versus two at once. 1.0 means
/// the two loops shared one core, 2.0 that each had its own.
fn effective_cores() -> f64 {
    fn spin() -> Duration {
        let start = Instant::now();
        let mut x = 0u64;
        for i in 0..60_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        start.elapsed()
    }
    let alone = spin();
    let start = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(spin);
        let b = s.spawn(spin);
        a.join().expect("spin thread");
        b.join().expect("spin thread");
    });
    2.0 * alone.as_secs_f64() / start.elapsed().as_secs_f64()
}

fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "enum-planted10k" => enumeration::planted10k(cfg),
        "enum-suite" => enumeration::suite(cfg),
        "ingest-ring1m" => ingest::ring1m(cfg),
        "serve-mixed" => serve::mixed(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--host"]) {
        println!(
            "host: nproc={} effective_cores={:.2}",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            effective_cores()
        );
        return ExitCode::SUCCESS;
    }
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "run: workload={workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&workload, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    match outcome.and_then(|o| o.to_json()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
