//! The StratRec benchmark: seeded, closed-loop workloads over the paper's
//! pipeline (catalog → workforce matrix → top-k aggregate → BatchStrat
//! select → ADPaR), every answer checked against the sequential pipeline.
//!
//! ```text
//! perfbench --workload <plan-cold|churn-standing>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` a separate traced run times each layer from this
//! benchmark's own code and carries the per-layer metrics. See `NOTES.md`.

mod churn;
mod oracle;
mod pipeline;
mod plan;
#[cfg(test)]
mod session_reuse;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stratrec_durable::DurableOptions;

use crate::oracle::Checker;
use crate::pipeline::{Metric, AVAILABILITY, BATCH, K, STRATEGIES};
use crate::trace::Recorder;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanCold,
    ChurnStanding,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "plan-cold" => Some(Self::PlanCold),
            "churn-standing" => Some(Self::ChurnStanding),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PlanCold => "plan-cold",
            Self::ChurnStanding => "churn-standing",
        }
    }
}

/// Checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a workload run hands back for reporting.
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    pub checker: Checker,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further metrics, printed but not part of the result line.
    pub extra: Vec<Metric>,
    /// Human-readable summary lines.
    pub lines: Vec<String>,
    pub recorder: Option<Recorder>,
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed.lines().find_map(|line| {
                    line.strip_suffix(reference)
                        .map(|hash| hash.trim().to_owned())
                })
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn context(args: &Args) -> String {
    let durable = DurableOptions::default();
    format!(
        "context: workload={} seed={} seconds={} trace={} available_parallelism={} \
         engine_threads={} commit={} |S|={STRATEGIES} m={BATCH} k={K} aggregation=Max W={AVAILABILITY} \
         fdatasync={} checkpoint={:?} churn_per_epoch={} compact={:?} cpu_warmup_s={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pipeline::cores(),
        pipeline::engine().effective_threads(BATCH),
        commit(),
        durable.sync,
        durable.checkpoint,
        churn::CHURN_PER_EPOCH,
        churn::COMPACT,
        CPU_WARMUP.as_secs(),
    )
}

/// How long every core spins before a run. On the 2-vCPU virtual machine
/// the benchmark was tuned on, the first runs after half a minute of idling
/// were up to 60 % slower, and the workload itself took a minute or more to
/// bring the speed back; five seconds of spinning on every core did it.
const CPU_WARMUP: Duration = Duration::from_secs(5);

/// Keeps every core busy for [`CPU_WARMUP`].
fn warm_cpus() {
    std::thread::scope(|scope| {
        for _ in 0..pipeline::cores() {
            scope.spawn(|| {
                let start = Instant::now();
                let mut x = 1_u64;
                while start.elapsed() < CPU_WARMUP {
                    for _ in 0..10_000 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    println!("{}", context(&args));
    warm_cpus();
    let outcome = match args.workload {
        Workload::PlanCold => plan::run(&args),
        Workload::ChurnStanding => churn::run(&args),
    };
    report(&args, &outcome)
}

fn report(args: &Args, outcome: &Outcome) -> ExitCode {
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(rec) = &outcome.recorder {
        let dir = Path::new(".bench_build");
        let path = dir.join(format!(
            "perfbench-spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(dir).and_then(|()| rec.write_tsv(&path)) {
            Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
            Err(error) => eprintln!("perfbench: writing {}: {error}", path.display()),
        }
    }
    let checker = &outcome.checker;
    let failed = checker.failures().len() as u64;
    for reason in checker.failures().iter().take(5) {
        eprintln!("perfbench: FAILED {reason}");
    }
    let digest = checker.digest();
    println!(
        "oracle: {} answers checked, {failed} failed, failed_ratio {}, output digest {}",
        checker.checked(),
        stats::ratio(failed as f64, outcome.attempted as f64),
        digest.map_or_else(|| "incomplete".to_owned(), |d| format!("{d:016x}")),
    );
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && digest.is_some() && finite && outcome.attempted > 0;
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; such a value already fails the run.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_owned()
        };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, String> {
        Args::parse(args.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_four_flags() {
        let args = parse("--workload churn-standing --seed 9 --seconds 8 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::ChurnStanding);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 8.0, true));
    }

    #[test]
    fn rejects_bad_or_missing_flags() {
        for bad in [
            "--workload plan-hot --seed 1 --seconds 8 --trace 0",
            "--workload plan-cold --seed 1 --seconds 8 --trace 2",
            "--workload plan-cold --seed 1 --seconds 0 --trace 0",
            "--workload plan-cold --seed -1 --seconds 8 --trace 0",
            "--workload plan-cold --seed 1 --trace 0",
            "--workload plan-cold --seed 1 --seconds 8 --trace 0 --extra",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
