//! Soundness of the layer-capacity bound the planner uses to skip candidates
//! before the Eq. (4) division.
//!
//! Whenever `layer_capacity_bound < dp · L`, the full evaluation of that
//! lattice point — `divide_groups`, then `order_and_assign_layers` on every
//! pipeline — must fail, in both division modes, with the division itself
//! succeeding.  Then a skipped candidate reports exactly the reason a full
//! evaluation gives ("layer assignment infeasible for …"), and every plan,
//! lattice and `NoFeasiblePlan` reason stays byte-identical.

mod common;

use malleus::core::assignment::layer_capacity_bound;
use malleus::core::orchestration::{divide_groups, order_and_assign_layers, PipelineDivision};
use malleus::core::{group_cluster, FailureClass, GroupingResult};
use malleus::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// One (max-TP, DP, micro-batch) point of a planner's lattice.  The division
/// mode is left out: the bound does not depend on it, and both modes are
/// checked.
struct Point {
    max_tp: u32,
    grouping: Arc<GroupingResult>,
    dp: usize,
    b: u64,
}

/// The lattice `Planner::plan` enumerates for `snapshot` (default DP
/// derivation), in its order.
fn lattice_points(planner: &Planner, snapshot: &ClusterSnapshot) -> Vec<Point> {
    let config = &planner.config;
    let usable = snapshot.rates.iter().filter(|r| r.is_finite()).count();
    let mut points = Vec::new();
    for &max_tp in &config.candidate_tp_degrees {
        let grouping = Arc::new(group_cluster(
            snapshot,
            &planner.cost.coeffs,
            max_tp,
            1,
            config.straggler_threshold,
            config.enable_group_splitting,
        ));
        let n = grouping.groups.len();
        if n == 0 {
            continue;
        }
        for dp in planner.derived_dp_candidates(n, usable) {
            for &b in &config.candidate_micro_batch_sizes {
                let batch = config.global_batch_size;
                if b == 0 || !batch.is_multiple_of(b) || batch / b < dp as u64 {
                    continue;
                }
                points.push(Point {
                    max_tp,
                    grouping: Arc::clone(&grouping),
                    dp,
                    b,
                });
            }
        }
    }
    points
}

fn num_layers(planner: &Planner) -> u64 {
    planner.cost.coeffs.spec.num_layers as u64
}

fn pruned(planner: &Planner, point: &Point) -> bool {
    layer_capacity_bound(&planner.cost, &point.grouping.groups, point.dp, point.b)
        < point.dp as u64 * num_layers(planner)
}

fn divide(
    planner: &Planner,
    snapshot: &ClusterSnapshot,
    point: &Point,
    nonuniform_division: bool,
) -> PipelineDivision {
    let total_micro_batches = planner.config.global_batch_size / point.b;
    divide_groups(
        &planner.cost,
        &point.grouping,
        snapshot,
        point.dp,
        total_micro_batches,
        point.b,
        nonuniform_division,
        1,
    )
    .unwrap_or_else(|e| {
        panic!(
            "division must succeed on a pruned point (tp={} dp={} b={}): {e}",
            point.max_tp, point.dp, point.b
        )
    })
}

/// Whether layer assignment fails in some pipeline of `division`, as in
/// `Planner::evaluate_candidate`.
fn layers_fail(
    planner: &Planner,
    snapshot: &ClusterSnapshot,
    point: &Point,
    division: &PipelineDivision,
    uniform_layers: bool,
) -> bool {
    division.pipelines.iter().any(|pipeline| {
        order_and_assign_layers(
            &planner.cost,
            pipeline,
            snapshot,
            num_layers(planner),
            point.b,
            point.dp as u32,
            uniform_layers,
        )
        .is_none()
    })
}

/// Check the bound's implication on every lattice point of `configs` for
/// one snapshot and return the number of pruned points.  Divisions are
/// shared across configurations that group the cluster identically.
fn check_snapshot(
    coeffs: &ProfiledCoefficients,
    configs: &[PlannerConfig],
    snapshot: &ClusterSnapshot,
) -> usize {
    let mut divisions: HashMap<(bool, u32, usize, u64, bool), PipelineDivision> = HashMap::new();
    let mut pruned_points = 0;
    for config in configs {
        let planner = Planner::new(coeffs.clone(), config.clone());
        for point in lattice_points(&planner, snapshot) {
            if !pruned(&planner, &point) {
                continue;
            }
            pruned_points += 1;
            for mode in [true, false] {
                let key = (
                    config.enable_group_splitting,
                    point.max_tp,
                    point.dp,
                    point.b,
                    mode,
                );
                let division = divisions
                    .entry(key)
                    .or_insert_with(|| divide(&planner, snapshot, &point, mode));
                assert!(
                    layers_fail(
                        &planner,
                        snapshot,
                        &point,
                        division,
                        !config.nonuniform_layers
                    ),
                    "pruned point is feasible: {} tp={} dp={} b={} nonuniform_division={mode} \
                     nonuniform_layers={} rates={:?}",
                    coeffs.spec.name,
                    point.max_tp,
                    point.dp,
                    point.b,
                    config.nonuniform_layers,
                    snapshot.rates
                );
            }
        }
    }
    pruned_points
}

/// The default configuration and the uniform-stage and uniform-layer
/// ablations, at the paper's global batch.
fn configs() -> Vec<PlannerConfig> {
    [
        PlannerConfig::default(),
        PlannerConfig::ablation(true, true, true, false),
        PlannerConfig::ablation(false, true, true, true),
    ]
    .into_iter()
    .map(|c| PlannerConfig {
        global_batch_size: 64,
        ..c
    })
    .collect()
}

const RATES: [f64; 5] = [2.57, 3.75, 5.42, 12.53, f64::INFINITY];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random snapshots — 1 to 8 nodes, straggler levels 1/2/3/8, custom
    /// rates, failed GPUs and failed nodes — on every model size: a pruned
    /// lattice point never has a feasible full evaluation.
    #[test]
    fn pruned_points_fail_the_full_evaluation(
        nodes in 1u32..9,
        model in 0usize..4,
        stragglers in prop::collection::vec((0u32..64, 0usize..6, 1.0f64..20.0), 0..10),
        failed_nodes in prop::collection::vec(0u32..8, 0..3),
    ) {
        let spec = [
            ModelSpec::llama2_7b(),
            ModelSpec::llama2_32b(),
            ModelSpec::llama2_70b(),
            ModelSpec::llama2_110b(),
        ][model].clone();
        let mut cluster = Cluster::homogeneous(nodes, 8);
        for (gpu, level, custom) in stragglers {
            let rate = RATES.get(level).copied().unwrap_or(custom);
            cluster.set_rate(GpuId(gpu % (nodes * 8)), rate);
        }
        for node in failed_nodes {
            for gpu in (node % nodes) * 8..(node % nodes + 1) * 8 {
                cluster.set_rate(GpuId(gpu), f64::INFINITY);
            }
        }
        check_snapshot(common::coeffs_for(&spec), &configs(), &cluster.snapshot());
    }
}

/// The paper lattice (32B on 32 GPUs, 70B and 110B on 64, under S1–S6): the
/// bound skips at least 700 of its 1,007 infeasible points and none of its
/// 823 feasible ones.
#[test]
fn paper_sweep_prunes_most_infeasible_points() {
    let workloads = [
        (ModelSpec::llama2_32b(), 4),
        (ModelSpec::llama2_70b(), 8),
        (ModelSpec::llama2_110b(), 8),
    ];
    let situations = [
        PaperSituation::S1,
        PaperSituation::S2,
        PaperSituation::S3,
        PaperSituation::S4,
        PaperSituation::S5,
        PaperSituation::S6,
    ];
    let config = PlannerConfig {
        global_batch_size: 64,
        incremental: true,
        ..PlannerConfig::default()
    };
    let (mut points, mut feasible, mut capacity_bound) = (0, 0, 0);
    for (spec, nodes) in &workloads {
        for situation in situations {
            let snapshot = common::snapshot_for(*nodes, situation);
            let coeffs = common::coeffs_for(spec);
            let planner = Planner::new(coeffs.clone(), config.clone());
            let pruned_here = check_snapshot(coeffs, std::slice::from_ref(&config), &snapshot);
            let outcome = planner
                .plan(&snapshot)
                .expect("paper instances are feasible");
            let lattice = outcome.lattice.as_ref().expect("lattice persisted");
            let classes = |class| {
                lattice
                    .entries
                    .iter()
                    .filter(|e| e.failure == Some(class))
                    .count()
            };
            // Both division modes of a pruned point are skipped.
            assert_eq!(classes(FailureClass::CapacityBound), 2 * pruned_here);
            for entry in &lattice.entries {
                assert_eq!(entry.estimated_step_time.is_some(), entry.failure.is_none());
            }
            points += lattice.entries.len();
            feasible += lattice
                .entries
                .iter()
                .filter(|e| e.failure.is_none())
                .count();
            capacity_bound += 2 * pruned_here;
        }
    }
    assert_eq!(points, 1830);
    assert_eq!(feasible, 823);
    assert!(
        capacity_bound >= 700,
        "the bound skips only {capacity_bound} of {} infeasible points",
        points - feasible
    );
}

/// One GPU at rate 5.42 on a cluster too small for the model: every
/// candidate fails, and the reason is the last lattice point's, exactly as
/// before candidates were skipped.
fn all_infeasible_reason(spec: ModelSpec, nodes: u32) -> String {
    let mut cluster = Cluster::homogeneous(nodes, 8);
    cluster.set_rate(GpuId(0), 5.42);
    match common::planner_for(&spec, 64).plan(&cluster.snapshot()) {
        Err(PlanError::NoFeasiblePlan { reason }) => reason,
        other => panic!("{} on {nodes}x8 GPUs: {other:?}", spec.name),
    }
}

#[test]
fn all_infeasible_lattices_keep_their_reason() {
    assert_eq!(
        all_infeasible_reason(ModelSpec::llama2_70b(), 2),
        "layer assignment infeasible for tp=8 dp=1 b=4"
    );
    assert_eq!(
        all_infeasible_reason(ModelSpec::llama2_110b(), 3),
        "layer assignment infeasible for tp=8 dp=1 b=4"
    );
}

#[test]
fn lattices_without_candidates_keep_the_default_reason() {
    for spec in [ModelSpec::llama2_70b(), ModelSpec::llama2_110b()] {
        assert_eq!(
            all_infeasible_reason(spec, 1),
            "no candidate configuration was feasible"
        );
    }
}

/// On the 110B 64-GPU S3 instance, where most infeasible points are
/// skipped, the plan under the execution policy from the environment equals
/// the serial oracle, and a warm replan that serves every point from the
/// candidate memo reports the same failure classes.
#[test]
fn memo_served_points_keep_their_failure_class() {
    let snapshot = common::snapshot_for(8, PaperSituation::S3);
    let coeffs = common::coeffs_110b();
    let config = |parallelism, incremental| PlannerConfig {
        global_batch_size: 64,
        parallelism,
        incremental,
        ..PlannerConfig::default()
    };
    let planner = Planner::new(
        coeffs.clone(),
        config(Parallelism::Auto, incremental_from_env_or(true)),
    );
    let oracle = Planner::new(coeffs.clone(), config(Parallelism::Fixed(1), true));
    let same_plan = |a: &PlanOutcome, b: &PlanOutcome| {
        assert_eq!(a.plan, b.plan);
        assert_eq!(
            a.estimated_step_time.to_bits(),
            b.estimated_step_time.to_bits()
        );
    };
    let classes = |outcome: &PlanOutcome| -> Vec<Option<FailureClass>> {
        let lattice = outcome.lattice.as_ref().expect("lattice persisted");
        lattice.entries.iter().map(|e| e.failure).collect()
    };
    let fresh = planner.plan(&snapshot).expect("plan");
    let expected = oracle.plan(&snapshot).expect("oracle plan");
    same_plan(&fresh, &expected);
    assert!(classes(&expected).contains(&Some(FailureClass::CapacityBound)));
    if !planner.config.incremental {
        return;
    }
    assert_eq!(classes(&fresh), classes(&expected));

    let drifted = snapshot.with_rate(GpuId(60), 2.57);
    let warm = planner
        .replan_delta(&drifted, &fresh)
        .expect("drift replan");
    let back = planner
        .replan_delta(&snapshot, &warm)
        .expect("recurrent replan");
    let expected_back = oracle.replan(&snapshot, &warm.plan).expect("oracle replan");
    same_plan(&back, &expected_back);
    let lattice = back.lattice.as_ref().expect("lattice persisted");
    assert_eq!(lattice.evaluated, 0, "every point is served from the memo");
    assert!(classes(&back).contains(&Some(FailureClass::CapacityBound)));
    assert_eq!(classes(&back), classes(&expected_back));
}
