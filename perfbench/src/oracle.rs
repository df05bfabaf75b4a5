//! The output check: every answer the timed pipeline gave is replayed through
//! the sequential `f64` pipeline (`StratRec` on `BatchEngine::sequential()`)
//! against the very catalog state it was planned on, and must be equal to
//! it field for field. Each check runs right after its operation, outside
//! the timed region, so every timed operation follows the same amount of
//! other work; verdicts never depend on timing.

use std::fmt::Write as _;

use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::catalog::StrategyCatalog;
use stratrec_core::engine::BatchEngine;
use stratrec_core::model::DeploymentRequest;
use stratrec_core::modeling::ModelLibrary;
use stratrec_core::stratrec::{StratRec, StratRecConfig, StratRecReport};

/// One answer to check.
#[derive(Debug, Clone, Copy)]
pub struct Answer<'a> {
    /// Operation index within the run (warm-up included).
    pub op: u64,
    pub requests: &'a [DeploymentRequest],
    /// The catalog state the answer was planned on (for a snapshot reader,
    /// the snapshot it pinned).
    pub catalog: &'a StrategyCatalog,
    pub report: &'a StratRecReport,
}

/// The sequential reference pipeline for one workload configuration.
#[derive(Debug, Clone)]
pub struct Oracle {
    layer: StratRec,
    pdf: AvailabilityPdf,
}

impl Oracle {
    #[must_use]
    pub fn new(config: StratRecConfig, pdf: AvailabilityPdf) -> Self {
        Self {
            layer: StratRec::new(config).with_engine(BatchEngine::sequential()),
            pdf,
        }
    }

    /// Replays `answer` and describes the first difference, if any.
    ///
    /// # Errors
    ///
    /// A description of the mismatch (or of the reference pipeline's own
    /// error).
    pub fn check(&self, answer: Answer<'_>, models: &ModelLibrary) -> Result<(), String> {
        let expected = self
            .layer
            .process_batch_with_catalog(answer.requests, answer.catalog, models, &self.pdf)
            .map_err(|e| format!("op {}: reference pipeline failed: {e}", answer.op))?;
        if expected == *answer.report {
            Ok(())
        } else {
            Err(format!(
                "op {}: report differs from the sequential pipeline \
                 (satisfied {} vs {}, unsatisfied {:?} vs {:?})",
                answer.op,
                answer.report.batch.satisfied.len(),
                expected.batch.satisfied.len(),
                answer.report.batch.unsatisfied,
                expected.batch.unsatisfied,
            ))
        }
    }
}

/// Checks answers and folds the first `digest_ops` of them (by operation
/// index) into an output digest; collects every failure of the run.
#[derive(Debug)]
pub struct Checker {
    oracle: Oracle,
    digest: u64,
    digest_ops: u64,
    digested: u64,
    checked: u64,
    failures: Vec<String>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Checker {
    #[must_use]
    pub fn new(oracle: Oracle, digest_ops: u64) -> Self {
        Self {
            oracle,
            digest: FNV_OFFSET,
            digest_ops,
            digested: 0,
            checked: 0,
            failures: Vec::new(),
        }
    }

    /// Checks one answer against the oracle.
    pub fn check(&mut self, answer: Answer<'_>, models: &ModelLibrary) {
        self.checked += 1;
        if let Err(reason) = self.oracle.check(answer, models) {
            self.failures.push(reason);
        }
        if answer.op < self.digest_ops {
            let mut text = String::new();
            let _ = write!(text, "{}:{:?}", answer.op, answer.report);
            for byte in text.bytes() {
                self.digest ^= u64::from(byte);
                self.digest = self.digest.wrapping_mul(FNV_PRIME);
            }
            self.digested += 1;
        }
    }

    /// Records a failure found outside the oracle (an error or a stale
    /// read), so that it fails the run like a mismatch.
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    /// The digest of the first `digest_ops` answers; `None` unless all of
    /// them were checked.
    #[must_use]
    pub fn digest(&self) -> Option<u64> {
        (self.digested == self.digest_ops).then_some(self.digest)
    }

    #[must_use]
    pub fn checked(&self) -> u64 {
        self.checked
    }

    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stratrec_core::batch::BatchObjective;
    use stratrec_core::workforce::AggregationMode;
    use stratrec_workload::model_gen::generate_models;
    use stratrec_workload::request_gen::generate_requests;
    use stratrec_workload::scenario::ParameterDistribution;
    use stratrec_workload::strategy_gen::generate_strategies;

    struct Answered {
        oracle: Oracle,
        requests: Vec<DeploymentRequest>,
        catalog: StrategyCatalog,
        report: StratRecReport,
        models: ModelLibrary,
    }

    impl Answered {
        fn answer(&self) -> Answer<'_> {
            Answer {
                op: 0,
                requests: &self.requests,
                catalog: &self.catalog,
                report: &self.report,
            }
        }

        fn check(&self) -> Result<(), String> {
            self.oracle.check(self.answer(), &self.models)
        }
    }

    fn answered() -> Answered {
        let mut rng = StdRng::seed_from_u64(11);
        let strategies = generate_strategies(400, ParameterDistribution::Uniform, &mut rng);
        let models = generate_models(&strategies, &mut rng);
        let requests = generate_requests(16, &mut rng);
        let config = StratRecConfig {
            k: 5,
            objective: BatchObjective::Throughput,
            aggregation: AggregationMode::Max,
        };
        let pdf = AvailabilityPdf::certain(1.0);
        let catalog = StrategyCatalog::from_slice(&strategies);
        let report = StratRec::new(config)
            .with_engine(BatchEngine::with_threads(2))
            .process_batch_with_catalog(&requests, &catalog, &models, &pdf)
            .expect("the synthetic batch plans");
        Answered {
            oracle: Oracle::new(config, pdf),
            requests,
            catalog,
            report,
            models,
        }
    }

    #[test]
    fn an_honest_report_passes() {
        let honest = answered();
        assert!(!honest.report.batch.satisfied.is_empty());
        assert!(!honest.report.alternatives.is_empty());
        assert_eq!(honest.check(), Ok(()));
    }

    #[test]
    fn a_tampered_report_fails() {
        let mut tampered = answered();
        tampered.report.batch.satisfied[0]
            .strategy_indices
            .reverse();
        assert!(tampered.check().is_err());

        let mut tampered = answered();
        let alternative = tampered.report.alternatives[0]
            .solution
            .as_mut()
            .expect("the first alternative is feasible");
        alternative.distance = f64::from_bits(alternative.distance.to_bits() + 1);
        assert!(tampered.check().is_err());
    }

    #[test]
    fn checker_digest_is_reproducible_and_content_sensitive() {
        let digest = |tamper: bool| {
            let mut answered = answered();
            if tamper {
                answered.report.batch.unsatisfied.swap(0, 1);
            }
            let mut checker = Checker::new(answered.oracle.clone(), 1);
            checker.check(answered.answer(), &answered.models);
            (checker.digest(), checker.failures().len())
        };
        let (a, clean) = digest(false);
        let (b, _) = digest(false);
        let (c, tampered) = digest(true);
        assert!(a.is_some());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!((clean, tampered), (0, 1));
    }
}
