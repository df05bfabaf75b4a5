//! Why the streaming tier (`serve`) is not measured: its server plans every
//! window through one `SnapshotSession`, and the session is reused whenever
//! the new batch has as many rows as the last one — whatever the requests
//! are. This reproduction sends three different batches of 16 through one
//! session, as the server does, and compares each answer with the
//! sequential pipeline over the same snapshot.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stratrec_core::catalog::{ConcurrentCatalog, StrategyCatalog};
use stratrec_core::engine::BatchEngine;
use stratrec_core::stratrec::{SnapshotSession, StratRec};
use stratrec_workload::model_gen::generate_models;
use stratrec_workload::request_gen::generate_requests;
use stratrec_workload::scenario::ParameterDistribution;
use stratrec_workload::strategy_gen::generate_strategies;

use crate::pipeline::{availability, config, engine, BATCH, STRATEGIES};

/// Satisfied-request counts per batch: through one reused session, and
/// from the sequential pipeline (or through a session reset before each
/// batch, with `reset`).
fn satisfied_counts(reset: bool) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(1);
    let strategies = generate_strategies(STRATEGIES, ParameterDistribution::Uniform, &mut rng);
    let models = generate_models(&strategies, &mut rng);
    let catalog = ConcurrentCatalog::new(StrategyCatalog::from_slice(&strategies));
    let layer = StratRec::new(config()).with_engine(engine());
    let oracle = StratRec::new(config()).with_engine(BatchEngine::sequential());
    let pdf = availability();
    let mut reader = catalog.reader();
    let mut session = SnapshotSession::new();
    let (mut served, mut expected) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let batch = generate_requests(BATCH, &mut rng);
        if reset {
            session.reset();
        }
        let (report, snapshot) = layer
            .process_batch_with_reader(&batch, &mut reader, &models, &pdf, &mut session)
            .expect("the batch plans");
        served.push(report.batch.satisfied.len());
        let reference = oracle
            .process_batch_with_catalog(&batch, snapshot.catalog(), &models, &pdf)
            .expect("the batch plans");
        expected.push(reference.batch.satisfied.len());
    }
    (served, expected)
}

#[test]
fn one_session_across_different_batches_plans_on_the_first_batch_matrix() {
    let (served, expected) = satisfied_counts(false);
    println!("satisfied through one session {served:?}, sequential pipeline {expected:?}");
    // The first batch primes the session and is answered correctly; later
    // batches reuse its workforce matrix. When this assertion fails, the
    // session checks request content: add a `stream-*` workload.
    assert_eq!(served[0], expected[0]);
    assert_ne!(served, expected);
}

#[test]
fn resetting_the_session_between_batches_restores_the_answers() {
    let (served, expected) = satisfied_counts(true);
    assert_eq!(served, expected);
}
