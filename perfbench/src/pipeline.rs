//! What the workloads share: the pipeline configuration, the traced
//! select + ADPaR stage, the run's stopping rule, and the assembly of
//! metrics from measurements.

use std::collections::BTreeMap;
use std::time::Instant;

use stratrec_core::availability::{AvailabilityPdf, WorkerAvailability};
use stratrec_core::batch::{BatchObjective, BatchStrat};
use stratrec_core::catalog::StrategyCatalog;
use stratrec_core::engine::BatchEngine;
use stratrec_core::model::DeploymentRequest;
use stratrec_core::stratrec::{AlternativeRecommendation, StratRecConfig, StratRecReport};
use stratrec_core::workforce::{AggregationMode, RequestRequirement};

use crate::stats::{block_median, count_above, median, percentile, ratio};
use crate::trace::{coverage, durations_ms, self_ms_by_name, Recorder, Span};

/// Strategies in the catalog (`|S|`).
pub const STRATEGIES: usize = 10_000;
/// Requests per batch (`m`).
pub const BATCH: usize = 16;
/// Strategies recommended per request (`k`).
pub const K: usize = 5;
/// Expected worker availability (`W`).
pub const AVAILABILITY: f64 = 1.0;
/// Untimed operations before the timed phase.
pub const WARMUP_OPS: u64 = 100;
/// Timed operations a run makes at least, so that p99 has ten samples
/// above it; the timed phase also lasts at least `--seconds`.
pub const MIN_OPS: u64 = 1_000;
/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 15;

/// The layer configuration: Max aggregation at `W = 1.0` satisfies some
/// requests (the paper's Sum / `k = 10` / `W = 0.5` satisfies none), so the
/// output check covers the Aggregator's recommendations as well as ADPaR.
#[must_use]
pub fn config() -> StratRecConfig {
    StratRecConfig {
        k: K,
        objective: BatchObjective::Throughput,
        aggregation: AggregationMode::Max,
    }
}

#[must_use]
pub fn availability() -> AvailabilityPdf {
    AvailabilityPdf::certain(AVAILABILITY)
}

#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The engine under test: one worker per core, `f64` fill.
#[must_use]
pub fn engine() -> BatchEngine {
    BatchEngine::with_threads(cores())
}

/// Whether a run has measured enough: at least [`MIN_OPS`] timed operations
/// after operation `op`, and a timed phase that has lasted `seconds` of
/// wall-clock time since `timed_start`, its first timed operation. The
/// phase's wall clock covers the operations and their untimed output
/// checks, so a traced run lasts as long as an untraced one.
#[must_use]
pub fn measured_enough(op: u64, timed_start: Option<Instant>, seconds: f64) -> bool {
    op + 1 >= WARMUP_OPS + MIN_OPS
        && timed_start.is_some_and(|start| start.elapsed().as_secs_f64() >= seconds)
}

/// Work counts gathered on the traced path.
#[derive(Debug, Default)]
pub struct Counts {
    pub ops: u64,
    pub requests: u64,
    pub satisfied: u64,
    pub problems: u64,
    pub feasible: u64,
    /// Matrix cells computed, and the fills or delta applies computing them.
    pub cells: u64,
    pub fills: u64,
    /// Inserted plus retired slots of every migration, and their number.
    pub delta_slots: u64,
    pub migrations: u64,
    pub repaired_rows: u64,
    pub repairable_rows: u64,
    pub wal_bytes: u64,
    pub epochs: u64,
    pub live_ratio_sum: f64,
    pub live_samples: u64,
}

impl Counts {
    pub fn sample_live_ratio(&mut self, catalog: &StrategyCatalog) {
        self.live_ratio_sum += ratio(catalog.len() as f64, catalog.slot_count() as f64);
        self.live_samples += 1;
    }
}

/// The Aggregator's selection and the exact ADPaR fan-out, each in its own
/// span under `parent`: the tail of every traced plan.
#[allow(clippy::too_many_arguments)]
pub fn select_and_solve(
    rec: &mut Recorder,
    op: u64,
    parent: usize,
    engine: &BatchEngine,
    requests: &[DeploymentRequest],
    catalog: &StrategyCatalog,
    requirements: &[Option<RequestRequirement>],
    counts: &mut Counts,
) -> StratRecReport {
    let config = config();
    let expected: WorkerAvailability = availability().expectation();
    let aggregator = BatchStrat::new(config.objective, config.aggregation);
    let batch = rec.time("batch.select", op, Some(parent), || {
        aggregator.select(requests, requirements, expected)
    });
    let solutions = rec.time("adpar.solve", op, Some(parent), || {
        engine.solve_adpar_batch(requests, catalog, &batch.unsatisfied, config.k)
    });
    counts.ops += 1;
    counts.requests += requests.len() as u64;
    counts.satisfied += batch.satisfied.len() as u64;
    counts.problems += solutions.len() as u64;
    counts.feasible += solutions.iter().filter(|s| s.is_ok()).count() as u64;
    let alternatives = batch
        .unsatisfied
        .iter()
        .zip(solutions)
        .map(|(&request_index, solution)| AlternativeRecommendation {
            request_index,
            solution,
        })
        .collect();
    StratRecReport {
        availability: expected,
        batch,
        alternatives,
    }
}

/// Baseline2, the solver degraded service runs in place of exact ADPaR, on
/// the requests `report` left unsatisfied. It runs in a root span of its
/// own, outside the operation it would replace, so that operation's
/// coverage and overhead stay as measured. Its answer must equal the
/// sequential engine's.
///
/// # Errors
///
/// A description of the mismatch.
pub fn solve_degraded(
    rec: &mut Recorder,
    op: u64,
    engine: &BatchEngine,
    requests: &[DeploymentRequest],
    catalog: &StrategyCatalog,
    report: &StratRecReport,
) -> Result<(), String> {
    let unsatisfied = &report.batch.unsatisfied;
    let solutions = rec.time("adpar.solve_degraded", op, None, || {
        engine.solve_adpar_batch_degraded(requests, catalog, unsatisfied, K)
    });
    let expected =
        BatchEngine::sequential().solve_adpar_batch_degraded(requests, catalog, unsatisfied, K);
    if solutions == expected {
        Ok(())
    } else {
        Err(format!(
            "op {op}: Baseline2 differs from the sequential engine"
        ))
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Timed operations per block of the block statistics
/// ([`crate::stats::block_median`]).
pub const BLOCK: usize = 100;

/// The end-to-end metrics of an untraced run. `latency_ms` holds one sample
/// per answered batch, `op_ms` the closed-loop time of each timed operation
/// (for churn, its write and its serve). The latency median and the
/// throughput are taken per block of [`BLOCK`] operations and medianed over
/// the blocks.
#[must_use]
pub fn end_to_end(setup_s: &[f64], latency_ms: &[f64], op_ms: &[f64]) -> Vec<Metric> {
    let throughput = block_median(op_ms, BLOCK, |block| {
        ratio(
            (block.len() * BATCH) as f64,
            block.iter().sum::<f64>() / 1e3,
        )
    });
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric(
            "latency_p50_ms",
            block_median(latency_ms, BLOCK, median),
            "ms",
        ),
        metric("throughput_rps", throughput, "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The per-layer metrics every workload reports (in `BENCHMARK.json` order),
/// followed by those only the churn path has.
///
/// `parent` names the span of one request-serving operation; its coverage
/// checks that the layer spans account for the operation.
/// `untraced_ms` are latencies of the single public call measured in the
/// same run, the base of the tracing-overhead ratio.
#[must_use]
pub fn per_layer(spans: &[Span], parent: &str, untraced_ms: &[f64], counts: &Counts) -> Layers {
    let self_ms = self_ms_by_name(spans);
    let self_median = |name: &str| self_ms.get(name).map_or(f64::NAN, |v| median(v));
    let self_total = |name: &str| self_ms.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let traced_ms = durations_ms(spans, parent);
    let common = vec![
        metric("catalog.build_ms", self_median("catalog.build"), "ms"),
        metric("workforce.fill_ms", self_median("workforce.fill"), "ms"),
        metric(
            "workforce.cells",
            ratio(counts.cells as f64, counts.fills as f64),
            "count",
        ),
        metric(
            "workforce.aggregate_ms",
            self_median("workforce.aggregate"),
            "ms",
        ),
        metric("batch.select_ms", self_median("batch.select"), "ms"),
        metric(
            "batch.satisfied_ratio",
            ratio(counts.satisfied as f64, counts.requests as f64),
            "ratio",
        ),
        metric("adpar.solve_ms", self_median("adpar.solve"), "ms"),
        metric(
            "adpar.problems",
            ratio(counts.problems as f64, counts.ops as f64),
            "count",
        ),
        metric(
            "adpar.ms_per_problem",
            ratio(self_total("adpar.solve"), counts.problems as f64),
            "ms",
        ),
        metric(
            "adpar.feasible_ratio",
            ratio(counts.feasible as f64, counts.problems as f64),
            "ratio",
        ),
        metric(
            "adpar.degraded_solve_ms",
            self_median("adpar.solve_degraded"),
            "ms",
        ),
        metric(
            "engine.threads",
            engine().effective_threads(BATCH) as f64,
            "count",
        ),
        metric(
            "catalog.live_ratio",
            ratio(counts.live_ratio_sum, counts.live_samples as f64),
            "ratio",
        ),
        metric(
            "catalog.delta_slots",
            ratio(counts.delta_slots as f64, counts.migrations as f64),
            "count",
        ),
        metric(
            "workforce.repaired_row_ratio",
            ratio(counts.repaired_rows as f64, counts.repairable_rows as f64),
            "ratio",
        ),
        metric(
            "durable.wal_bytes_per_epoch",
            ratio(counts.wal_bytes as f64, counts.epochs as f64),
            "bytes",
        ),
        metric("trace.coverage_ratio", coverage(spans, parent), "ratio"),
        metric(
            "trace.overhead_ratio",
            ratio(median(&traced_ms), median(untraced_ms)),
            "ratio",
        ),
    ];
    let update_ms = durations_ms(spans, "durable.update");
    let churn_only = vec![
        metric("catalog.apply_ms", self_median("catalog.apply"), "ms"),
        metric("catalog.migrate_ms", self_median("catalog.migrate"), "ms"),
        metric(
            "durable.log_publish_ms",
            self_median("durable.update"),
            "ms",
        ),
        metric("durable.update_p50_ms", median(&update_ms), "ms"),
        metric("durable.update_p99_ms", percentile(&update_ms, 0.99), "ms"),
        metric("workforce.delta_ms", self_median("workforce.delta"), "ms"),
        metric("workforce.repair_ms", self_median("workforce.repair"), "ms"),
    ]
    .into_iter()
    .filter(|m| !m.value.is_nan())
    .collect();
    let mut samples = BTreeMap::new();
    for (name, values) in &self_ms {
        samples.insert(*name, values.len());
    }
    Layers {
        common,
        churn_only,
        samples,
    }
}

/// Per-layer results of a traced run.
#[derive(Debug)]
pub struct Layers {
    /// Reported on every workload.
    pub common: Vec<Metric>,
    /// Reported where the churn path runs them (printed, not in the result
    /// line: on the plan workloads these layers do no work).
    pub churn_only: Vec<Metric>,
    /// Span count per span name.
    pub samples: BTreeMap<&'static str, usize>,
}

/// A latency summary line: p50, p95, p99, the sample count and the tail
/// behind p99.
#[must_use]
pub fn describe_latencies(latency_ms: &[f64]) -> String {
    let p99 = percentile(latency_ms, 0.99);
    format!(
        "p50 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms over {} samples ({} above p99)",
        median(latency_ms),
        percentile(latency_ms, 0.95),
        p99,
        latency_ms.len(),
        count_above(latency_ms, p99),
    )
}
