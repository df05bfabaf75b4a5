//! `churn-standing`: one client alternates a durable churn epoch with a
//! serve of the standing batch.
//!
//! The write is `DurableCatalog::update` applying 0.5 % churn (50 inserts,
//! 50 retires) with compaction at a 30 % tombstone ratio, under
//! `DurableOptions::default()` (fdatasync on, a checkpoint every 256
//! mutations). The read is `StratRec::process_batch_with_reader` through one
//! `SnapshotReader` + `SnapshotSession`, so it migrates by delta and repairs
//! the aggregation cache; the cold fill happens only in set-up.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stratrec_core::batch::BatchStrat;
use stratrec_core::catalog::{SnapshotReader, StrategyCatalog};
use stratrec_core::model::{Strategy, StrategyId};
use stratrec_core::modeling::ModelLibrary;
use stratrec_core::stratrec::{SnapshotSession, StratRec, StratRecReport};
use stratrec_core::workforce::{AggregationCache, WorkforceMatrix};
use stratrec_durable::{DurableCatalog, DurableOptions};
use stratrec_workload::churn::{ChurnEpoch, CompactPolicy};
use stratrec_workload::model_gen::generate_models;
use stratrec_workload::request_gen::generate_requests;
use stratrec_workload::scenario::ParameterDistribution;
use stratrec_workload::strategy_gen::generate_strategies;

use crate::oracle::{Answer, Checker, Oracle};
use crate::pipeline::{
    availability, config, describe_latencies, end_to_end, engine, measured_enough, per_layer,
    select_and_solve, solve_degraded, Counts, Metric, BATCH, MIN_OPS, SETUP_REPS, STRATEGIES,
    WARMUP_OPS,
};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::{Args, Outcome};

/// Strategies inserted and retired per epoch: 0.5 % of `|S|` each.
pub const CHURN_PER_EPOCH: usize = STRATEGIES / 200;
/// Epoch-boundary compaction once 30 % of the slots are dead.
pub const COMPACT: CompactPolicy = CompactPolicy::TombstoneRatio(0.3);
/// Seeds the churn stream apart from the catalog's.
const CHURN_STREAM: u64 = 0xd1b5_4a32_d192_ed03;

/// Draws churn epochs one at a time, registering each inserted strategy's
/// model before the epoch is applied.
struct ChurnFeed {
    rng: StdRng,
    next_id: u64,
}

impl ChurnFeed {
    fn next(&mut self, models: &mut ModelLibrary) -> ChurnEpoch {
        let mut inserts: Vec<Strategy> = generate_strategies(
            CHURN_PER_EPOCH,
            ParameterDistribution::Uniform,
            &mut self.rng,
        );
        for strategy in &mut inserts {
            strategy.id = StrategyId(self.next_id);
            self.next_id += 1;
        }
        let fitted = generate_models(&inserts, &mut self.rng);
        for strategy in &inserts {
            let model = fitted.get(strategy.id).expect("a model per insert");
            models.insert(strategy.id, *model);
        }
        let retire_ranks = (0..CHURN_PER_EPOCH).map(|_| self.rng.gen()).collect();
        ChurnEpoch {
            inserts,
            retire_ranks,
            requests: Vec::new(),
        }
    }
}

/// The benchmark's own delta-maintained plan state on a second reader: the
/// traced path, layer by layer.
struct LayeredReader {
    reader: SnapshotReader,
    matrix: WorkforceMatrix,
    cache: AggregationCache,
    model_buf: Vec<Option<stratrec_core::modeling::StrategyModel>>,
}

/// A fresh per-process directory for the durable logs.
fn run_dir() -> PathBuf {
    Path::new(".bench_build")
        .join("perfbench-run")
        .join(std::process::id().to_string())
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let initial = generate_strategies(STRATEGIES, ParameterDistribution::Uniform, &mut rng);
    let mut models = generate_models(&initial, &mut rng);
    let standing = generate_requests(BATCH, &mut rng);
    let mut feed = ChurnFeed {
        rng: StdRng::seed_from_u64(args.seed ^ CHURN_STREAM),
        next_id: initial.len() as u64,
    };
    let workdir = run_dir();
    let _ = std::fs::remove_dir_all(&workdir);

    let layer = StratRec::new(config()).with_engine(engine());
    let engine = engine();
    let pdf = availability();
    let rule = BatchStrat::new(config().objective, config().aggregation).eligibility;
    let mut rec = Recorder::new();

    // Set-up: durable create (catalog build, WAL header, genesis checkpoint)
    // and the standing prime, several times afresh.
    let mut setup_s = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let dir = workdir.join(format!("setup-{rep}"));
        std::fs::create_dir_all(&dir).expect("create the durable directory");
        let strategies = initial.clone();
        let start = Instant::now();
        let catalog = if args.trace {
            rec.time("catalog.build", rep, None, || {
                StrategyCatalog::new(strategies)
            })
        } else {
            StrategyCatalog::new(strategies)
        };
        let durable = DurableCatalog::create(&dir, catalog, DurableOptions::default())
            .expect("create the durable catalog");
        let mut reader = durable.reader();
        let mut session = SnapshotSession::new();
        layer
            .process_batch_with_reader(&standing, &mut reader, &models, &pdf, &mut session)
            .expect("prime the standing batch");
        setup_s.push(start.elapsed().as_secs_f64());
        let layered = args.trace.then(|| {
            let reader = durable.reader();
            let snapshot = Arc::clone(reader.pinned());
            let matrix = rec
                .time("workforce.fill", rep, None, || {
                    engine.workforce_matrix(&standing, snapshot.catalog(), &models, rule)
                })
                .expect("fill the standing matrix");
            let mut cache = AggregationCache::new(config().k, config().aggregation);
            rec.time("workforce.aggregate", rep, None, || cache.prime(&matrix));
            LayeredReader {
                reader,
                matrix,
                cache,
                model_buf: Vec::new(),
            }
        });
        state = Some((durable, reader, session, layered));
    }
    let (durable, mut reader, mut session, mut layered) = state.expect("at least one set-up ran");

    let mut checker = Checker::new(Oracle::new(config(), pdf.clone()), WARMUP_OPS + MIN_OPS);
    let mut counts = Counts::default();
    let mut latency_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut op_ms = Vec::new();
    let mut timed_start = None;

    for op in 0.. {
        if op == WARMUP_OPS {
            timed_start = Some(Instant::now());
        }
        let epoch = feed.next(&mut models);
        let span_op = SETUP_REPS + op;
        let wal_before = durable.wal_len().unwrap_or(0);

        let start = Instant::now();
        let written = if args.trace {
            let parent = rec.enter("durable.update", span_op, None);
            let written = durable.update(|catalog| {
                rec.time("catalog.apply", span_op, Some(parent), || {
                    epoch.apply_with_compaction(catalog, COMPACT, op as usize + 1)
                })
            });
            rec.exit(parent);
            written
        } else {
            durable.update(|catalog| epoch.apply_with_compaction(catalog, COMPACT, op as usize + 1))
        };
        let write_s = start.elapsed().as_secs_f64();
        let written_epoch = match written {
            Ok((_, snapshot)) => {
                counts.wal_bytes += durable.wal_len().unwrap_or(0).saturating_sub(wal_before);
                counts.epochs += 1;
                let catalog = snapshot.catalog();
                counts.sample_live_ratio(catalog);
                if catalog.len() == catalog.slot_count() {
                    // Just compacted: nothing refers to a retired strategy
                    // any more. Keeping only the live strategies' models
                    // stops the library, and the peak RSS, from growing
                    // with the number of epochs a run makes.
                    models = ModelLibrary::from_pairs(
                        catalog
                            .strategies()
                            .iter()
                            .filter_map(|s| models.get(s.id).map(|model| (s.id, *model))),
                    );
                }
                Some(snapshot.epoch())
            }
            Err(error) => {
                checker.fail(format!("op {op}: durable update failed: {error}"));
                None
            }
        };

        let public = |reader: &mut SnapshotReader, session: &mut SnapshotSession| {
            let start = Instant::now();
            let served = layer.process_batch_with_reader(&standing, reader, &models, &pdf, session);
            (served, start.elapsed().as_secs_f64())
        };
        let (served, serve_s) = match layered.as_mut() {
            Some(layered) => {
                let mut traced = || {
                    serve_layered(
                        &mut rec,
                        span_op,
                        layered,
                        &layer,
                        &standing,
                        &models,
                        &mut counts,
                    )
                };
                let (traced, (served, serve_s)) = if op % 2 == 0 {
                    let traced = traced();
                    (traced, public(&mut reader, &mut session))
                } else {
                    let untraced = public(&mut reader, &mut session);
                    (traced(), untraced)
                };
                let public_report = served.as_ref().ok().map(|(report, _)| report);
                if traced.as_ref().ok() != public_report {
                    checker.fail(format!(
                        "op {op}: the layered path disagrees with the public call"
                    ));
                }
                if let Ok((report, snapshot)) = &served {
                    let degraded = solve_degraded(
                        &mut rec,
                        span_op,
                        &layer.engine,
                        &standing,
                        snapshot.catalog(),
                        report,
                    );
                    if let Err(reason) = degraded {
                        checker.fail(reason);
                    }
                }
                (served, serve_s)
            }
            None => public(&mut reader, &mut session),
        };

        if op >= WARMUP_OPS {
            latency_ms.push(serve_s * 1e3);
            write_ms.push(write_s * 1e3);
            op_ms.push((write_s + serve_s) * 1e3);
        }
        match &served {
            Ok((report, snapshot)) => {
                if written_epoch.is_some_and(|epoch| epoch != snapshot.epoch()) {
                    checker.fail(format!(
                        "op {op}: served epoch {} after writing epoch {written_epoch:?}",
                        snapshot.epoch()
                    ));
                }
                checker.check(
                    Answer {
                        op,
                        requests: &standing,
                        catalog: snapshot.catalog(),
                        report,
                    },
                    &models,
                );
            }
            Err(error) => checker.fail(format!("op {op}: serve failed: {error}")),
        }
        if measured_enough(op, timed_start, args.seconds) {
            break;
        }
    }
    drop((reader, layered, durable));
    let _ = std::fs::remove_dir_all(&workdir);

    // Each timed operation is one write and one serve.
    let attempted = 2 * latency_ms.len() as u64;
    let mut lines = vec![
        format!("serve latency: {}", describe_latencies(&latency_ms)),
        format!("write latency: {}", describe_latencies(&write_ms)),
    ];
    let (metrics, extra) = if args.trace {
        let layers = per_layer(rec.spans(), "serve", &latency_ms, &counts);
        lines.push(format!("span samples: {:?}", layers.samples));
        (layers.common, layers.churn_only)
    } else {
        let extra = vec![
            Metric {
                name: "write_p50_ms",
                value: median(&write_ms),
                unit: "ms",
            },
            Metric {
                name: "write_p99_ms",
                value: percentile(&write_ms, 0.99),
                unit: "ms",
            },
        ];
        (end_to_end(&setup_s, &latency_ms, &op_ms), extra)
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

/// One standing serve on the benchmark's own reader, each layer's public
/// function in its own span — the same steps `process_batch_with_reader`
/// takes on its delta path.
fn serve_layered(
    rec: &mut Recorder,
    op: u64,
    state: &mut LayeredReader,
    layer: &StratRec,
    standing: &[stratrec_core::model::DeploymentRequest],
    models: &ModelLibrary,
    counts: &mut Counts,
) -> Result<StratRecReport, stratrec_core::error::StratRecError> {
    let rule = BatchStrat::new(config().objective, config().aggregation).eligibility;
    let parent = rec.enter("serve", op, None);
    let served = rec
        .time("catalog.migrate", op, Some(parent), || {
            state.reader.migrate()
        })
        .and_then(|delta| {
            let snapshot = Arc::clone(state.reader.pinned());
            counts.migrations += 1;
            counts.delta_slots += (delta.inserted.len() + delta.retired.len()) as u64;
            if !delta.is_empty() {
                rec.time("workforce.delta", op, Some(parent), || {
                    layer.engine.apply_matrix_delta(
                        &mut state.matrix,
                        &delta,
                        standing,
                        snapshot.catalog(),
                        models,
                        rule,
                        &mut state.model_buf,
                    )
                })?;
                counts.cells += (state.matrix.rows() * delta.inserted.len()) as u64;
                counts.fills += 1;
                let repaired = rec.time("workforce.repair", op, Some(parent), || {
                    state.cache.repair(&state.matrix, &delta)
                });
                counts.repaired_rows += repaired as u64;
                counts.repairable_rows += state.matrix.rows() as u64;
            }
            Ok(select_and_solve(
                rec,
                op,
                parent,
                &layer.engine,
                standing,
                snapshot.catalog(),
                state.cache.requirements(),
                counts,
            ))
        });
    rec.exit(parent);
    served
}
