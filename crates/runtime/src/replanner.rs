//! Asynchronous re-planning (§5.3).
//!
//! When the profiler reports a shift, Malleus keeps training with the current
//! plan while the planning algorithm runs on background CPU processes.  Only if
//! planning takes longer than the current training step does the job stall for
//! the remainder.  In the paper's experiments the planning time (10–30 s) is
//! always hidden behind one training step; the reproduction computes its own
//! planner wall-clock time and applies the same overlap rule.
//!
//! Re-planning inherits the planner's candidate-lattice parallelism
//! ([`malleus_core::Parallelism`], default `Auto`): the background planning
//! processes of §5.3 map to the scoped worker threads of
//! `malleus_core::parallel`, shrinking the window during which a stall can
//! occur.  The deterministic reduction guarantees the adapted plan is the same
//! whatever the worker count, so overlap never trades away plan quality.
//!
//! The overlapped re-planning step itself is backend-neutral: one
//! [`replan_overlapped`] drives any [`PlanBackend`].  Sessions planning
//! through a shared [`PlanTransport`] (the in-process planning service or a
//! remote plan daemon) use the [`TransportBackend`] adapter, which speaks the
//! same trait.

use std::sync::Arc;

use malleus_cluster::ClusterSnapshot;
use malleus_core::{
    BackendId, ClusterEvent, ParallelizationPlan, PlanBackend, PlanError, PlannedOutcome, Planner,
    PlannerConfig, DEFAULT_STRAGGLER_THRESHOLD,
};
use malleus_service::{PlanRequest, PlanTransport, ServiceError};

/// Result of an overlapped re-planning round.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanOutcome {
    /// The backend's output.
    pub outcome: PlannedOutcome,
    /// Wall-clock planning time in seconds.
    pub planning_time: f64,
    /// Seconds of training stall not hidden by the overlap (usually zero).
    pub stall_time: f64,
    /// Whether the adapted plan (or active GPU set) differs from the previous
    /// one.
    pub plan_changed: bool,
}

/// Adapt `previous` to the observed snapshot through `backend`, overlapping
/// the planning time with one training step of `current_step_time` seconds.
///
/// The cluster event is classified from the previous outcome's active GPU set
/// against the observed snapshot ([`ClusterEvent::classify`] with the paper's
/// 5% threshold), then handed to the backend's `replan`.  The Malleus
/// [`Planner`] warm-starts from the previous outcome's scored lattice
/// whenever the snapshot diff is drift-only.  Static backends (plain
/// Megatron-LM / DeepSpeed) answer failures with `PlanError::CannotAdapt`,
/// which propagates — the caller decides whether that kills the run (it
/// does, for them: that is the paper's point).
///
/// The stall computation uses the *wall-clock* time of the `replan` call, not
/// `PlanTiming::total()`: the per-phase breakdown sums candidate durations
/// across all workers (aggregate CPU time, what Table 5 accounts), which
/// overstates the elapsed time whenever the candidate fan-out runs on more
/// than one core — and the whole point of overlapped re-planning is that only
/// elapsed time can stall training.
pub fn replan_overlapped(
    backend: &dyn PlanBackend,
    snapshot: &ClusterSnapshot,
    previous: &PlannedOutcome,
    current_step_time: f64,
) -> Result<ReplanOutcome, PlanError> {
    let t0 = std::time::Instant::now();
    let event = ClusterEvent::classify(previous, snapshot, DEFAULT_STRAGGLER_THRESHOLD);
    let outcome = backend.replan(snapshot, previous, event)?;
    let planning_time = t0.elapsed().as_secs_f64();
    let stall_time = (planning_time - current_step_time).max(0.0);
    let plan_changed = outcome.plan != previous.plan || outcome.active_gpus != previous.active_gpus;
    Ok(ReplanOutcome {
        outcome,
        planning_time,
        stall_time,
        plan_changed,
    })
}

/// The Malleus planner behind a shared [`PlanTransport`]: an in-process
/// [`malleus_service::PlanService`] or a [`malleus_service::PlanClient`]
/// dialing a standalone plan daemon.  N sessions planning after the same
/// cluster event (same snapshot, coefficients and configuration) pay for one
/// planner run and share the cached plan.
///
/// `replan` mirrors [`Planner::replan`]: first request the plan with the
/// previous DP degree pinned (the paper maintains DP across adjustments,
/// footnote 2); if no feasible plan exists with that degree, request the
/// unconstrained search.  A planner answer ([`ServiceError::Plan`])
/// propagates as its [`PlanError`].  Transient service errors — backpressure,
/// admission timeout, a broken transport — degrade to the local `planner`;
/// plans are byte-identical on every route, so that fallback costs only
/// latency.  A service bug or misconfiguration ([`ServiceError::Internal`],
/// [`ServiceError::UnknownBackend`]) propagates as
/// [`PlanError::ServiceFailure`]: re-running the planner that just panicked
/// in the daemon would only move the panic into the session.
#[derive(Debug, Clone)]
pub struct TransportBackend {
    transport: Arc<dyn PlanTransport>,
    planner: Planner,
}

impl TransportBackend {
    /// Plan through `transport`, with `planner`'s coefficients and
    /// configuration, falling back to `planner` itself.
    pub fn new(transport: Arc<dyn PlanTransport>, planner: Planner) -> Self {
        Self { transport, planner }
    }

    fn request(
        &self,
        snapshot: &ClusterSnapshot,
        config: PlannerConfig,
    ) -> Result<PlannedOutcome, ServiceError> {
        let request = PlanRequest::new(self.planner.cost.coeffs.clone(), snapshot.clone(), config);
        let outcome = self.transport.plan_backend(BackendId::Malleus, &request)?;
        Ok((*outcome).clone())
    }
}

/// Propagate a planner answer or a service failure; run `local` for a
/// transient service error.
fn or_local(
    served: Result<PlannedOutcome, ServiceError>,
    local: impl FnOnce() -> Result<PlannedOutcome, PlanError>,
) -> Result<PlannedOutcome, PlanError> {
    match served {
        Ok(outcome) => Ok(outcome),
        Err(ServiceError::Plan(e)) => Err(e),
        Err(
            ServiceError::Overloaded { .. }
            | ServiceError::AdmissionTimeout { .. }
            | ServiceError::Transport { .. },
        ) => local(),
        Err(e @ (ServiceError::Internal { .. } | ServiceError::UnknownBackend { .. })) => {
            Err(PlanError::ServiceFailure {
                reason: e.to_string(),
            })
        }
    }
}

impl PlanBackend for TransportBackend {
    fn id(&self) -> BackendId {
        BackendId::Malleus
    }

    fn fingerprint_config(&self) -> u64 {
        self.planner.fingerprint_config()
    }

    fn plan(
        &self,
        snapshot: &ClusterSnapshot,
        config: &PlannerConfig,
    ) -> Result<PlannedOutcome, PlanError> {
        or_local(self.request(snapshot, config.clone()), || {
            PlanBackend::plan(&self.planner, snapshot, config)
        })
    }

    fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &PlannedOutcome,
        event: ClusterEvent,
    ) -> Result<PlannedOutcome, PlanError> {
        let config = &self.planner.config;
        let pinned = PlannerConfig {
            fixed_dp: previous
                .plan
                .as_ref()
                .map(ParallelizationPlan::dp)
                .or(config.fixed_dp),
            ..config.clone()
        };
        let served = match self.request(snapshot, pinned) {
            Err(ServiceError::Plan(_)) => self.request(snapshot, config.clone()),
            served => served,
        };
        or_local(served, || {
            PlanBackend::replan(&self.planner, snapshot, previous, event)
        })
    }

    fn estimate_step_time(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> Option<f64> {
        self.planner.estimate_step_time(plan, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};
    use malleus_service::{PlanService, ServiceConfig};

    fn planner() -> Planner {
        Planner::new(
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster()),
            PlannerConfig::default(),
        )
    }

    /// The healthy 4×8 cluster's plan, as a backend outcome.
    fn initial(p: &Planner) -> PlannedOutcome {
        PlannedOutcome::from_malleus(p.plan(&Cluster::homogeneous(4, 8).snapshot()).unwrap())
    }

    fn snapshot_with(rates: &[(u32, f64)]) -> ClusterSnapshot {
        let mut cluster = Cluster::homogeneous(4, 8);
        for &(gpu, rate) in rates {
            cluster.set_rate(GpuId(gpu), rate);
        }
        cluster.snapshot()
    }

    fn assert_same_plan(ours: &ReplanOutcome, theirs: &malleus_core::PlanOutcome) {
        let inner = ours.outcome.malleus.as_ref().expect("malleus outcome");
        assert_eq!(inner.plan, theirs.plan);
        assert_eq!(inner.dp, theirs.dp);
        assert_eq!(
            inner.estimated_step_time.to_bits(),
            theirs.estimated_step_time.to_bits()
        );
    }

    /// A transport that always fails with one fixed error.
    #[derive(Debug)]
    struct Failing(ServiceError);

    impl PlanTransport for Failing {
        fn plan_backend(
            &self,
            _: BackendId,
            _: &PlanRequest,
        ) -> Result<Arc<PlannedOutcome>, ServiceError> {
            Err(self.0.clone())
        }
    }

    #[test]
    fn planning_is_hidden_behind_a_training_step() {
        let p = planner();
        let previous = initial(&p);
        let replan = replan_overlapped(&p, &snapshot_with(&[(0, 5.42)]), &previous, 12.0).unwrap();
        assert!(replan.plan_changed);
        assert!(
            replan.planning_time < 12.0,
            "planning {}",
            replan.planning_time
        );
        assert_eq!(replan.stall_time, 0.0);
    }

    #[test]
    fn unchanged_situation_can_keep_the_same_plan() {
        let p = planner();
        let previous = initial(&p);
        let replan = replan_overlapped(&p, &snapshot_with(&[]), &previous, 12.0).unwrap();
        // With identical rates the planner should find a plan no better than
        // the current one; whether the exact plan object matches is not
        // guaranteed, but the estimated time must not regress.
        assert!(replan.outcome.estimated_step_time <= previous.estimated_step_time * 1.01);
    }

    #[test]
    fn parallel_replanning_adopts_the_serial_oracle_plan() {
        // The replanner routes through the planner's parallel candidate
        // fan-out; whatever the worker count, the adapted plan must be the
        // one the serial reference path picks.
        use malleus_core::Parallelism;
        let serial = planner().with_parallelism(Parallelism::Fixed(1));
        let parallel = planner().with_parallelism(Parallelism::Fixed(4));
        let previous = initial(&serial);
        let snapshot = snapshot_with(&[(2, 3.75), (17, f64::INFINITY)]);
        let a = replan_overlapped(&serial, &snapshot, &previous, 12.0).unwrap();
        let b = replan_overlapped(&parallel, &snapshot, &previous, 12.0).unwrap();
        assert_same_plan(&b, a.outcome.malleus.as_ref().unwrap());
        assert_eq!(a.plan_changed, b.plan_changed);
    }

    #[test]
    fn shared_replanning_matches_direct_replanning_and_amortizes_work() {
        let p = planner();
        let previous = initial(&p);
        let snapshot = snapshot_with(&[(0, 5.42)]);
        let direct = replan_overlapped(&p, &snapshot, &previous, 12.0).unwrap();
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        // Two tenants replanning after the same cluster event: one planner
        // invocation, bit-identical to the direct path for both.
        for _ in 0..2 {
            let route = TransportBackend::new(service.clone(), p.clone());
            let shared = replan_overlapped(&route, &snapshot, &previous, 12.0).unwrap();
            assert_same_plan(&shared, direct.outcome.malleus.as_ref().unwrap());
            assert_eq!(shared.plan_changed, direct.plan_changed);
        }
        let metrics = service.metrics();
        assert_eq!(metrics.planner_invocations, 1);
        assert_eq!(metrics.hits, 1);
    }

    #[test]
    fn backend_trait_replanning_matches_the_direct_path() {
        // A GPU failure is structural: the trait path must take full
        // enumeration and still match the direct replan.
        let p = planner();
        let previous = initial(&p);
        let snapshot = snapshot_with(&[(0, 5.42), (9, f64::INFINITY)]);
        let direct = p
            .replan(&snapshot, previous.plan.as_ref().unwrap())
            .unwrap();
        let via_trait = replan_overlapped(&p, &snapshot, &previous, 12.0).unwrap();
        let inner = via_trait.outcome.malleus.as_ref().unwrap();
        assert!(
            !inner.lattice.as_ref().unwrap().delta,
            "failure re-enumerates"
        );
        assert_same_plan(&via_trait, &direct);
        assert_eq!(
            via_trait.plan_changed,
            Some(&direct.plan) != previous.plan.as_ref()
        );
    }

    #[test]
    fn shared_replanning_falls_back_when_pinned_dp_is_infeasible() {
        let p = planner();
        let previous = initial(&p);
        // Fail three of four nodes: the previous DP degree cannot survive and
        // the documented fallback re-opens the DP enumeration.
        let failed: Vec<(u32, f64)> = (8..32).map(|g| (g, f64::INFINITY)).collect();
        let snapshot = snapshot_with(&failed);
        let direct = p
            .replan(&snapshot, previous.plan.as_ref().unwrap())
            .unwrap();
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let route = TransportBackend::new(service, p.clone());
        let shared = replan_overlapped(&route, &snapshot, &previous, 12.0).unwrap();
        assert_same_plan(&shared, &direct);
    }

    #[test]
    fn transport_failures_degrade_to_local_planning_and_planner_errors_propagate() {
        use std::time::Duration;
        let p = planner();
        let previous = initial(&p);
        let snapshot = snapshot_with(&[(0, 5.42)]);
        let direct = p
            .replan(&snapshot, previous.plan.as_ref().unwrap())
            .unwrap();
        let planned_direct = Some(p.plan(&snapshot).unwrap().plan);
        let transient = [
            ServiceError::Transport {
                reason: "connection reset".into(),
            },
            ServiceError::Overloaded {
                queue_depth: 4,
                limit: 4,
            },
            ServiceError::AdmissionTimeout {
                waited: Duration::from_secs(2),
                timeout: Duration::from_secs(1),
            },
        ];
        for error in transient {
            let route = TransportBackend::new(Arc::new(Failing(error.clone())), p.clone());
            let degraded = replan_overlapped(&route, &snapshot, &previous, 12.0)
                .unwrap_or_else(|e| panic!("{error:?} must degrade: {e}"));
            assert_same_plan(&degraded, &direct);
            let planned = PlanBackend::plan(&route, &snapshot, &p.config).unwrap();
            assert_eq!(planned.plan, planned_direct);
        }

        let route = TransportBackend::new(
            Arc::new(Failing(ServiceError::Plan(PlanError::NoUsableGpus))),
            p.clone(),
        );
        assert_eq!(
            replan_overlapped(&route, &snapshot, &previous, 12.0).unwrap_err(),
            PlanError::NoUsableGpus
        );

        // A service bug or misconfiguration is not masked by local planning.
        let failures = [
            ServiceError::Internal {
                reason: "planning thread panicked".into(),
            },
            ServiceError::UnknownBackend {
                backend: BackendId::Malleus,
            },
        ];
        for error in failures {
            let expected = PlanError::ServiceFailure {
                reason: error.to_string(),
            };
            let route = TransportBackend::new(Arc::new(Failing(error)), p.clone());
            assert_eq!(
                replan_overlapped(&route, &snapshot, &previous, 12.0).unwrap_err(),
                expected
            );
            assert_eq!(
                PlanBackend::plan(&route, &snapshot, &p.config).unwrap_err(),
                expected
            );
        }
    }

    #[test]
    fn incremental_replanning_is_byte_identical_to_full_replanning() {
        let p = planner();
        let previous = initial(&p);
        let snapshot = snapshot_with(&[(0, 5.42)]);
        // Fresh planner for the full path: its memo never saw the event.
        let full = planner()
            .replan(&snapshot, previous.plan.as_ref().unwrap())
            .unwrap();
        let delta = replan_overlapped(&p, &snapshot, &previous, 12.0).unwrap();
        let inner = delta.outcome.malleus.as_ref().unwrap();
        assert!(
            inner.lattice.as_ref().unwrap().delta,
            "drift-only event must consult the memo"
        );
        assert_same_plan(&delta, &full);
        assert_eq!(
            inner.estimated_step_time_simplified.to_bits(),
            full.estimated_step_time_simplified.to_bits()
        );
        assert_eq!(
            delta.plan_changed,
            Some(&full.plan) != previous.plan.as_ref()
        );
    }

    #[test]
    fn stall_is_charged_when_step_time_is_tiny() {
        let p = planner();
        let previous = initial(&p);
        let replan = replan_overlapped(&p, &snapshot_with(&[(0, 2.57)]), &previous, 0.0).unwrap();
        assert!(replan.stall_time > 0.0);
        assert!((replan.stall_time - replan.planning_time).abs() < 1e-12);
    }
}
