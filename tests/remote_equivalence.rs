//! Remote-equivalence harness for the standalone plan server.
//!
//! The daemon must be invisible in the output: a plan served over the socket
//! — encoded with `malleus_wire`, routed through the daemon's admission gate,
//! coalescer and shared L2 cache, decoded back in the client — must be
//! **byte-identical** to the direct serial `Planner::plan` oracle: same
//! `ParallelizationPlan`, same chosen TP/DP, bit-equal `f64` cost estimates.
//! The suite drives one shared TCP daemon across every paper straggler
//! situation S1–S6, replays chained replans through the session's transport
//! route (`TransportBackend` over a `PlanClient` that fails the test on any
//! socket error), and exercises the client-side L1 tier (hits, TTL
//! bookkeeping, drift-based invalidation) plus the Unix-socket transport.

mod common;

use malleus::prelude::*;
use std::sync::{Arc, OnceLock};

const SITUATIONS: [PaperSituation; 6] = [
    PaperSituation::S1,
    PaperSituation::S2,
    PaperSituation::S3,
    PaperSituation::S4,
    PaperSituation::S5,
    PaperSituation::S6,
];

/// Binary-scoped daemon on an ephemeral TCP port (never dropped: the statics
/// outlive every test, so the accept loop serves the whole binary).
fn daemon() -> &'static (Arc<PlanService>, PlanServer) {
    static CACHE: OnceLock<(Arc<PlanService>, PlanServer)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let server =
            PlanServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
                .expect("bind plan daemon");
        (service, server)
    })
}

/// A fresh client (own connection, own L1) against the shared daemon.
fn fresh_client() -> PlanClient {
    let addr = daemon().1.tcp_addr().expect("tcp endpoint");
    PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect plan client")
}

/// A transport that panics on any error other than a planner answer.
/// [`TransportBackend`] re-plans locally on transient errors, and local plans
/// are byte-identical to served ones, so without this wrapper a failing
/// socket would still match the oracle.  `ServiceError::Plan` passes: it is
/// the adapter's pinned-DP probe coming back infeasible.
#[derive(Debug)]
struct Strict(PlanClient);

impl PlanTransport for Strict {
    fn plan_backend(
        &self,
        backend: BackendId,
        request: &PlanRequest,
    ) -> Result<Arc<PlannedOutcome>, ServiceError> {
        let served = self.0.plan_backend(backend, request);
        if let Err(e) = &served {
            assert!(
                matches!(e, ServiceError::Plan(_)),
                "socket request failed: {e}"
            );
        }
        served
    }
}

fn request_for(spec: &ModelSpec, nodes: u32, situation: PaperSituation) -> PlanRequest {
    PlanRequest::new(
        common::coeffs_for(spec).clone(),
        common::snapshot_for(nodes, situation),
        common::planner_for(spec, 64).config,
    )
}

fn assert_byte_identical(served: &PlanOutcome, oracle: &PlanOutcome, situation: PaperSituation) {
    assert_eq!(
        oracle.plan, served.plan,
        "under {situation:?}: socket plan diverges from the serial oracle"
    );
    assert_eq!(oracle.chosen_tp, served.chosen_tp, "under {situation:?}");
    assert_eq!(oracle.dp, served.dp, "under {situation:?}");
    assert_eq!(
        oracle.estimated_step_time.to_bits(),
        served.estimated_step_time.to_bits(),
        "under {situation:?}: exact estimates diverge across the wire"
    );
    assert_eq!(
        oracle.estimated_step_time_simplified.to_bits(),
        served.estimated_step_time_simplified.to_bits(),
        "under {situation:?}: simplified estimates diverge across the wire"
    );
}

#[test]
fn socket_plans_match_the_serial_oracle_across_all_situations() {
    let spec = ModelSpec::llama2_32b();
    let client = fresh_client();
    for situation in SITUATIONS {
        let oracle = common::oracle_planned(&spec, 64, 4, situation);
        let served = client
            .plan(&request_for(&spec, 4, situation))
            .unwrap_or_else(|e| panic!("socket plan under {situation:?}: {e}"));
        assert_byte_identical(&served, &oracle, situation);
    }
}

#[test]
fn chained_replans_over_the_socket_match_the_direct_path() {
    // Replay Normal → S2 → S3 → Normal through `replan_overlapped` driving a
    // `TransportBackend` over the remote client, against the direct serial
    // replanner threading the same previous plans.  Every request must be
    // answered over the socket (`Strict`), not by the local fallback.
    let spec = ModelSpec::llama2_32b();
    let oracle = common::planner_for(&spec, 64).with_parallelism(Parallelism::Fixed(1));
    let route = TransportBackend::new(
        Arc::new(Strict(fresh_client())),
        common::planner_for(&spec, 64),
    );
    let mut previous = PlannedOutcome::from_malleus_arc(common::oracle_planned(
        &spec,
        64,
        4,
        PaperSituation::Normal,
    ));
    for situation in [
        PaperSituation::S2,
        PaperSituation::S3,
        PaperSituation::Normal,
    ] {
        let snapshot = common::snapshot_for(4, situation);
        let previous_plan = previous.plan.clone().expect("malleus plan");
        let direct = oracle
            .replan(&snapshot, &previous_plan)
            .unwrap_or_else(|e| panic!("direct replan under {situation:?}: {e}"));
        let remote = replan_overlapped(&route, &snapshot, &previous, 12.0)
            .unwrap_or_else(|e| panic!("remote replan under {situation:?}: {e}"));
        assert_eq!(
            remote.outcome.plan.as_ref(),
            Some(&direct.plan),
            "under {situation:?}: remote replan diverges"
        );
        assert_eq!(
            remote.outcome.estimated_step_time.to_bits(),
            direct.estimated_step_time.to_bits(),
            "under {situation:?}"
        );
        assert_eq!(remote.plan_changed, direct.plan != previous_plan);
        previous = remote.outcome;
    }
}

#[test]
fn l1_absorbs_repeats_and_drift_invalidates() {
    let spec = ModelSpec::llama2_32b();
    let client = fresh_client();
    let request = request_for(&spec, 4, PaperSituation::S4);

    let first = client.plan(&request).expect("miss goes to the daemon");
    let second = client.plan(&request).expect("repeat");
    assert_eq!(first.plan, second.plan);
    let stats = client.l1_stats();
    assert_eq!(stats.misses, 1, "first call misses L1: {stats:?}");
    assert_eq!(stats.hits, 1, "repeat is served from L1: {stats:?}");
    assert_eq!(stats.resident, 1);
    assert!(stats.approx_bytes > 0);

    // The live cluster drifts 2% on a GPU that is healthy under S4 (GPU 0 is
    // the S4 level-3 straggler): below the 5% replan threshold, the cached
    // entry stays valid.
    let mild = PlanRequest::new(
        request.coeffs.clone(),
        request.snapshot.with_rate(GpuId(1), 1.02),
        request.config.clone(),
    );
    client.plan(&mild).expect("mild-drift plan");
    assert_eq!(client.l1_stats().drift_evicted, 0);

    // The live cluster drifts 20%: every entry cached for the stale rates
    // must be invalidated before lookup.
    let heavy = PlanRequest::new(
        request.coeffs.clone(),
        request.snapshot.with_rate(GpuId(1), 1.2),
        request.config.clone(),
    );
    client.plan(&heavy).expect("heavy-drift plan");
    let stats = client.l1_stats();
    assert!(
        stats.drift_evicted >= 2,
        "stale entries survive a >5% drift: {stats:?}"
    );
    assert_eq!(stats.resident, 1, "only the live-snapshot plan remains");
}

#[cfg(unix)]
#[test]
fn unix_socket_daemon_matches_the_oracle() {
    let spec = ModelSpec::llama2_32b();
    let service = Arc::new(PlanService::new(ServiceConfig::default()));
    let path = std::env::temp_dir().join(format!(
        "malleus-remote-equivalence-{}.sock",
        std::process::id()
    ));
    let mut server = PlanServer::bind_unix(Arc::clone(&service), &path, ServerConfig::default())
        .expect("bind unix daemon");
    let client = PlanClient::connect_unix(&path, ClientConfig::default()).expect("connect");
    let situation = PaperSituation::S1;
    let oracle = common::oracle_planned(&spec, 64, 4, situation);
    let served = client
        .plan(&request_for(&spec, 4, situation))
        .expect("plan over the unix socket");
    assert_byte_identical(&served, &oracle, situation);
    server.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}
