//! `plan-cold`: fresh seeded batches planned over one fixed catalog through
//! `StratRec::process_batch_with_catalog`.
//!
//! Every operation pays the full cold path — workforce-matrix fill, top-k
//! aggregate, selection and the exact ADPaR fan-out — and bypasses the
//! delta, snapshot and WAL machinery. The traced run also times Baseline2,
//! the degraded-service solver, on each batch's unsatisfied requests.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stratrec_core::batch::BatchStrat;
use stratrec_core::catalog::StrategyCatalog;
use stratrec_core::model::{DeploymentRequest, Strategy};
use stratrec_core::modeling::ModelLibrary;
use stratrec_core::stratrec::StratRec;
use stratrec_workload::model_gen::generate_models;
use stratrec_workload::request_gen::generate_requests;
use stratrec_workload::scenario::ParameterDistribution;
use stratrec_workload::strategy_gen::generate_strategies;

use crate::oracle::{Answer, Checker, Oracle};
use crate::pipeline::{
    availability, config, describe_latencies, end_to_end, engine, measured_enough, per_layer,
    select_and_solve, solve_degraded, Counts, BATCH, MIN_OPS, SETUP_REPS, STRATEGIES, WARMUP_OPS,
};
use crate::trace::Recorder;
use crate::{Args, Outcome};

/// Seeds the batch stream apart from the catalog's.
const BATCH_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// The fixed strategy set and its models, drawn from the seed.
fn strategies(seed: u64) -> (Vec<Strategy>, ModelLibrary) {
    let mut rng = StdRng::seed_from_u64(seed);
    let strategies = generate_strategies(STRATEGIES, ParameterDistribution::Uniform, &mut rng);
    let models = generate_models(&strategies, &mut rng);
    (strategies, models)
}

pub fn run(args: &Args) -> Outcome {
    let (strategies, models) = strategies(args.seed);
    let mut batches = StdRng::seed_from_u64(args.seed ^ BATCH_STREAM);
    let mut rec = Recorder::new();

    // Set-up: the catalog build (R-tree bulk load), several times afresh.
    let mut setup_s = Vec::new();
    let mut built = None;
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        let catalog = if args.trace {
            rec.time("catalog.build", rep, None, || {
                StrategyCatalog::from_slice(&strategies)
            })
        } else {
            StrategyCatalog::from_slice(&strategies)
        };
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some(catalog);
    }
    let catalog = built.expect("at least one set-up ran");

    let layer = StratRec::new(config()).with_engine(engine());
    let engine = engine();
    let pdf = availability();
    let rule = BatchStrat::new(config().objective, config().aggregation).eligibility;
    let mut checker = Checker::new(Oracle::new(config(), pdf.clone()), WARMUP_OPS + MIN_OPS);
    let mut counts = Counts::default();
    let mut latency_ms = Vec::new();
    let mut timed_start = None;

    for op in 0.. {
        if op == WARMUP_OPS {
            timed_start = Some(Instant::now());
        }
        let requests = generate_requests(BATCH, &mut batches);
        // The public call, timed with tracing off.
        let public = |requests: &[DeploymentRequest]| {
            let start = Instant::now();
            let result = layer.process_batch_with_catalog(requests, &catalog, &models, &pdf);
            (result, start.elapsed().as_secs_f64())
        };
        let (result, elapsed_s) = if args.trace {
            // The same plan layer by layer under spans; alternate which path
            // runs first so neither always finds the caches warmer.
            let span_op = SETUP_REPS + op;
            let mut layered = || {
                let op = span_op;
                let parent = rec.enter("plan", op, None);
                let matrix = rec.time("workforce.fill", op, Some(parent), || {
                    engine.workforce_matrix(&requests, &catalog, &models, rule)
                });
                let report = matrix.map(|matrix| {
                    counts.cells += (matrix.rows() * matrix.cols()) as u64;
                    counts.fills += 1;
                    let requirements = rec.time("workforce.aggregate", op, Some(parent), || {
                        matrix.aggregate(config().k, config().aggregation)
                    });
                    select_and_solve(
                        &mut rec,
                        op,
                        parent,
                        &engine,
                        &requests,
                        &catalog,
                        &requirements,
                        &mut counts,
                    )
                });
                rec.exit(parent);
                report
            };
            let (traced, (result, elapsed_s)) = if op % 2 == 0 {
                let traced = layered();
                (traced, public(&requests))
            } else {
                let untraced = public(&requests);
                (layered(), untraced)
            };
            if traced.as_ref().ok() != result.as_ref().ok() {
                checker.fail(format!(
                    "op {op}: the layered path disagrees with the public call"
                ));
            }
            if let Ok(report) = &result {
                let degraded =
                    solve_degraded(&mut rec, span_op, &engine, &requests, &catalog, report);
                if let Err(reason) = degraded {
                    checker.fail(reason);
                }
            }
            (result, elapsed_s)
        } else {
            public(&requests)
        };
        counts.sample_live_ratio(&catalog);
        if op >= WARMUP_OPS {
            latency_ms.push(elapsed_s * 1e3);
        }
        match &result {
            Ok(report) => checker.check(
                Answer {
                    op,
                    requests: &requests,
                    catalog: &catalog,
                    report,
                },
                &models,
            ),
            Err(error) => checker.fail(format!("op {op}: {error}")),
        }
        if measured_enough(op, timed_start, args.seconds) {
            break;
        }
    }

    let attempted = latency_ms.len() as u64;
    let mut lines = vec![format!("plan latency: {}", describe_latencies(&latency_ms))];
    let (metrics, extra) = if args.trace {
        let layers = per_layer(rec.spans(), "plan", &latency_ms, &counts);
        lines.push(format!("span samples: {:?}", layers.samples));
        (layers.common, layers.churn_only)
    } else {
        // Closed loop: an operation's time is its plan call.
        (end_to_end(&setup_s, &latency_ms, &latency_ms), Vec::new())
    };
    Outcome {
        attempted,
        checker,
        metrics,
        extra,
        lines,
        recorder: args.trace.then_some(rec),
    }
}
