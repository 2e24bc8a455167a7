//! Table 5 (Appendix A.2): planning-time breakdown and scalability.
//!
//! The harness times the four phases of the planning algorithm — GPU grouping,
//! pipeline division, group ordering and work assignment — for the paper's
//! 64-GPU S3 scenario and for a simulated 1024-GPU cluster (128 nodes) with 32
//! stragglers (~3% of the fleet) and a global batch scaled to 1024, both on the
//! 110B model.  Results also land in `BENCH_planning.json` for CI to upload.
//!
//! ```bash
//! cargo run --release -p malleus-bench --bin exp_planning_scalability            # full
//! cargo run --release -p malleus-bench --bin exp_planning_scalability -- --smoke # 64-GPU only
//! ```
//!
//! `--smoke` runs only the 64-GPU S3 breakdown (the 1024-GPU plan and the
//! scenario matrix are minutes of planner work); the JSON artifact is written
//! in both modes.
//!
//! The capacity-prune section compares the planner, which skips candidates
//! whose layer-capacity bound is below `dp · L`, against a full replay that
//! divides and evaluates every lattice point.  It runs on the 110B 64-GPU S3
//! instance in smoke mode and on the paper sweep (32B/70B/110B × S1–S6) in
//! full mode, and asserts the plan, each point's outcome and the prune count.

use malleus_bench::paper_workloads;
use malleus_bench::table::Table;
use malleus_bench::{write_json, JsonValue, ScenarioMatrix};
use malleus_cluster::{Cluster, ClusterSnapshot, GpuId, PaperSituation, StragglerLevel};
use malleus_core::assignment::assign_data;
use malleus_core::orchestration::{divide_groups, order_and_assign_layers};
use malleus_core::{
    group_cluster, FailureClass, GroupingResult, Parallelism, ParallelizationPlan, PipelinePlan,
    PlanTiming, Planner, PlannerConfig,
};
use malleus_model::{HardwareParams, ProfiledCoefficients};
use malleus_solver::reference::divide_pipelines_reference;
use malleus_solver::{divide_pipelines, Division, DivisionProblem};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Candidates the bound skips on the 110B 64-GPU S3 instance.
const SMOKE_PRUNED: usize = 58;
/// Candidates the bound skips over the paper sweep.
const SWEEP_PRUNED: usize = 760;

fn row(label: &str, timing: &PlanTiming, table: &mut Table) {
    let s = |d: std::time::Duration| format!("{:.2}s", d.as_secs_f64());
    table.row([
        label.to_string(),
        s(timing.grouping),
        s(timing.division),
        s(timing.ordering),
        s(timing.assignment),
        s(timing.total()),
    ]);
}

fn timing_json(label: &str, timing: &PlanTiming) -> JsonValue {
    JsonValue::obj(vec![
        ("scenario", JsonValue::str(label)),
        ("grouping", JsonValue::Num(timing.grouping.as_secs_f64())),
        ("division", JsonValue::Num(timing.division.as_secs_f64())),
        ("ordering", JsonValue::Num(timing.ordering.as_secs_f64())),
        (
            "assignment",
            JsonValue::Num(timing.assignment.as_secs_f64()),
        ),
        ("total", JsonValue::Num(timing.total().as_secs_f64())),
    ])
}

/// Best-of-`iters` wall clock for one division solve, returning the plan so the
/// caller can assert byte-identity against the seed reference.
fn best_division_secs(iters: usize, mut f: impl FnMut() -> Division) -> (f64, Division) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let d = black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(d);
    }
    (best, out.expect("at least one iteration"))
}

fn assert_division_bitwise_equal(a: &Division, b: &Division, label: &str) {
    assert_eq!(a.fast_per_pipeline, b.fast_per_pipeline, "{label}");
    assert_eq!(a.slow_assignment, b.slow_assignment, "{label}");
    assert_eq!(a.micro_batches, b.micro_batches, "{label}");
    assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{label}");
    let ca: Vec<u64> = a.capacities.iter().map(|c| c.to_bits()).collect();
    let cb: Vec<u64> = b.capacities.iter().map(|c| c.to_bits()).collect();
    assert_eq!(ca, cb, "{label}");
}

/// Evaluate one lattice point the way the planner does, without the
/// capacity bound: division (timed), ordering and layer assignment, data
/// assignment, validation and the exact step-time estimate.
fn replay_point(
    planner: &Planner,
    grouping: &GroupingResult,
    snapshot: &ClusterSnapshot,
    dp: usize,
    b: u64,
    nonuniform_division: bool,
) -> (Duration, Option<(ParallelizationPlan, f64)>) {
    let config = &planner.config;
    let num_layers = planner.cost.coeffs.spec.num_layers;
    let total_micro_batches = config.global_batch_size / b;
    let t0 = Instant::now();
    let division = divide_groups(
        &planner.cost,
        grouping,
        snapshot,
        dp,
        total_micro_batches,
        b,
        nonuniform_division,
        1,
    );
    let division_time = t0.elapsed();
    let evaluate = || {
        let mut assignments = Vec::new();
        for groups in &division.ok()?.pipelines {
            assignments.push(order_and_assign_layers(
                &planner.cost,
                groups,
                snapshot,
                num_layers as u64,
                b,
                dp as u32,
                !config.nonuniform_layers,
            )?);
        }
        let objectives: Vec<f64> = assignments.iter().map(|a| a.objective).collect();
        let micro_batches = assign_data(&objectives, total_micro_batches, !config.nonuniform_data)?;
        if micro_batches.contains(&0) {
            return None;
        }
        let pipelines: Vec<PipelinePlan> = assignments
            .into_iter()
            .zip(micro_batches)
            .map(|(a, m)| PipelinePlan {
                stages: a.stages,
                num_micro_batches: m,
            })
            .collect();
        let active: BTreeSet<GpuId> = pipelines.iter().flat_map(|p| p.gpus()).collect();
        let plan = ParallelizationPlan {
            pipelines,
            micro_batch_size: b,
            removed_gpus: (0..snapshot.num_gpus() as u32)
                .map(GpuId)
                .filter(|g| !active.contains(g))
                .collect(),
        };
        if plan.validate(num_layers, config.global_batch_size).is_err()
            || !planner.cost.memory_feasible(&plan)
        {
            return None;
        }
        let estimate = planner.cost.step_time(&plan, snapshot);
        Some((plan, estimate))
    };
    (division_time, evaluate())
}

/// Counts and division times of one capacity-prune instance.
struct PruneRecord {
    points: usize,
    feasible: usize,
    pruned: usize,
    planner_division: Duration,
    replay_division: Duration,
}

/// Plan `snapshot` on the serial path and replay every lattice point in
/// full; assert that the replay reproduces each point's outcome and the
/// chosen plan bit for bit.  The replay runs second on the same thread, so
/// it may find the min-max threshold memo warm: its division time, and the
/// speedup reported against it, err low.
fn capacity_prune_instance(
    planner: &Planner,
    snapshot: &ClusterSnapshot,
    label: &str,
) -> PruneRecord {
    let outcome = planner
        .plan(snapshot)
        .expect("paper instances are feasible");
    let lattice = outcome.lattice.as_ref().expect("lattice persisted");
    let config = &planner.config;
    let groupings: Vec<(u32, GroupingResult)> = config
        .candidate_tp_degrees
        .iter()
        .map(|&tp| {
            let grouping = group_cluster(
                snapshot,
                &planner.cost.coeffs,
                tp,
                1,
                config.straggler_threshold,
                config.enable_group_splitting,
            );
            (tp, grouping)
        })
        .collect();
    let mut replay_division = Duration::ZERO;
    let mut best: Option<(ParallelizationPlan, f64)> = None;
    for entry in &lattice.entries {
        let (_, grouping) = groupings
            .iter()
            .find(|(tp, _)| *tp == entry.max_tp)
            .expect("grouping for every lattice TP degree");
        let (division, replayed) = replay_point(
            planner,
            grouping,
            snapshot,
            entry.dp,
            entry.micro_batch,
            entry.nonuniform_division,
        );
        replay_division += division;
        assert_eq!(
            replayed.as_ref().map(|(_, e)| e.to_bits()),
            entry.estimated_step_time.map(f64::to_bits),
            "{label}: tp={} dp={} b={} differs from the full replay",
            entry.max_tp,
            entry.dp,
            entry.micro_batch
        );
        if let Some((plan, estimate)) = replayed {
            if best.as_ref().is_none_or(|(_, e)| estimate < e - 1e-12) {
                best = Some((plan, estimate));
            }
        }
    }
    let (plan, estimate) = best.expect("a feasible replayed point");
    assert_eq!(
        plan, outcome.plan,
        "{label}: plan differs from the full replay"
    );
    assert_eq!(estimate.to_bits(), outcome.estimated_step_time.to_bits());
    PruneRecord {
        points: lattice.entries.len(),
        feasible: lattice
            .entries
            .iter()
            .filter(|e| e.failure.is_none())
            .count(),
        pruned: lattice
            .entries
            .iter()
            .filter(|e| e.failure == Some(FailureClass::CapacityBound))
            .count(),
        planner_division: outcome.timing.division,
        replay_division,
    }
}

/// The capacity-prune section: the table, the asserted prune count and the
/// JSON records.
fn capacity_prune_section(smoke: bool) -> JsonValue {
    let situations = [
        PaperSituation::S1,
        PaperSituation::S2,
        PaperSituation::S3,
        PaperSituation::S4,
        PaperSituation::S5,
        PaperSituation::S6,
    ];
    let mut instances = Vec::new();
    for workload in paper_workloads() {
        for situation in situations {
            if !smoke || (workload.label == "110B" && situation == PaperSituation::S3) {
                instances.push((workload.clone(), situation));
            }
        }
    }
    println!(
        "\nCapacity prune: planner vs full replay of every lattice point (serial, {} instance{})",
        instances.len(),
        if instances.len() == 1 { "" } else { "s" }
    );
    let mut table = Table::new([
        "instance",
        "points",
        "feasible",
        "pruned",
        "planner division (s)",
        "replay division (s)",
        "speedup",
    ]);
    let mut records = Vec::new();
    let (mut pruned, mut planner_secs, mut replay_secs) = (0, 0.0, 0.0);
    for (workload, situation) in &instances {
        let label = format!("{} {situation:?}", workload.label);
        let planner = workload.planner().with_parallelism(Parallelism::Fixed(1));
        let r = capacity_prune_instance(&planner, &workload.snapshot_for(*situation), &label);
        let (p, f) = (
            r.planner_division.as_secs_f64(),
            r.replay_division.as_secs_f64(),
        );
        table.row([
            label.clone(),
            r.points.to_string(),
            r.feasible.to_string(),
            r.pruned.to_string(),
            format!("{p:.3}"),
            format!("{f:.3}"),
            format!("{:.2}x", f / p.max(1e-9)),
        ]);
        records.push(JsonValue::obj(vec![
            ("instance", JsonValue::str(&label)),
            ("points", JsonValue::Num(r.points as f64)),
            ("feasible", JsonValue::Num(r.feasible as f64)),
            ("capacity_bound", JsonValue::Num(r.pruned as f64)),
            ("planner_division_secs", JsonValue::Num(p)),
            ("replay_division_secs", JsonValue::Num(f)),
        ]));
        pruned += r.pruned;
        planner_secs += p;
        replay_secs += f;
    }
    table.print();
    let expected = if smoke { SMOKE_PRUNED } else { SWEEP_PRUNED };
    println!(
        "\nPruned {pruned} points (expected {expected}); division {planner_secs:.3}s vs full replay {replay_secs:.3}s ({:.2}x)",
        replay_secs / planner_secs.max(1e-9)
    );
    assert_eq!(pruned, expected, "capacity-bound prune count changed");
    JsonValue::obj(vec![
        ("instances", JsonValue::Arr(records)),
        ("capacity_bound", JsonValue::Num(pruned as f64)),
        ("planner_division_secs", JsonValue::Num(planner_secs)),
        ("replay_division_secs", JsonValue::Num(replay_secs)),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "Experiment: planning-time breakdown and scalability (Table 5, Appendix A.2){}",
        if smoke { " (smoke: 64-GPU only)" } else { "" }
    );
    let workload = &paper_workloads()[2]; // 110B
    let mut table = Table::new([
        "scenario",
        "GPU grouping",
        "pipeline division",
        "group ordering",
        "work assignment",
        "total",
    ]);
    let mut breakdowns = Vec::new();

    // ---- 64 GPUs, S3 ----
    let snapshot = workload.snapshot_for(PaperSituation::S3);
    let planner = workload.planner();
    let outcome = planner.plan(&snapshot).expect("64-GPU plan");
    row("64 GPUs (S3, B=64)", &outcome.timing, &mut table);
    breakdowns.push(timing_json("64 GPUs (S3, B=64)", &outcome.timing));

    // ---- 1024 GPUs, 32 random stragglers, B = 1024 (full mode only) ----
    if !smoke {
        let mut cluster = Cluster::homogeneous(128, 8);
        let mut rng = StdRng::seed_from_u64(2025);
        let mut ids: Vec<u32> = (0..1024).collect();
        ids.shuffle(&mut rng);
        for (i, gpu) in ids.into_iter().take(32).enumerate() {
            let level = match i % 3 {
                0 => StragglerLevel::Level1,
                1 => StragglerLevel::Level2,
                _ => StragglerLevel::Level3,
            };
            cluster.set_rate(GpuId(gpu), level.rate());
        }
        let coeffs =
            ProfiledCoefficients::derive(workload.spec.clone(), HardwareParams::a800_cluster());
        // The paper keeps the DP degree fixed when scaling out (the global batch
        // is scaled linearly); we fix DP = 8 and micro-batch 1 to match the
        // analysis.
        let planner = Planner::new(
            coeffs,
            PlannerConfig {
                global_batch_size: 1024,
                candidate_micro_batch_sizes: vec![1],
                fixed_dp: Some(8),
                ..PlannerConfig::default()
            },
        );
        match planner.plan(&cluster.snapshot()) {
            Ok(outcome) => {
                row(
                    "1024 GPUs (32 stragglers, B=1024)",
                    &outcome.timing,
                    &mut table,
                );
                breakdowns.push(timing_json(
                    "1024 GPUs (32 stragglers, B=1024)",
                    &outcome.timing,
                ));
                println!(
                    "1024-GPU plan: DP {} | max TP {} | estimated {:.2} s/step | {} standby GPUs",
                    outcome.dp,
                    outcome.chosen_tp,
                    outcome.estimated_step_time,
                    outcome.plan.removed_gpus.len()
                );
            }
            Err(e) => println!("1024-GPU planning failed: {e}"),
        }
    }

    println!();
    table.print();
    println!("\n(The planner runs on background CPU processes and is overlapped with one training step, §5.3.)");

    // ---- Scenario matrix: serial oracle vs parallel candidate fan-out ----
    let mut matrix_records = Vec::new();
    if !smoke {
        let workers = Parallelism::Auto.workers();
        println!(
            "\nScenario matrix: serial vs parallel planning wall-clock ({workers} workers at auto)"
        );
        let mut table = Table::new([
            "scenario",
            "serial (s)",
            "parallel (s)",
            "speedup",
            "plans identical",
        ]);
        for scenario in &ScenarioMatrix::large_scale().scenarios {
            let snapshot = scenario.snapshot();
            let serial_planner = scenario.planner(Parallelism::Fixed(1));
            let t0 = Instant::now();
            let serial = serial_planner.plan(&snapshot);
            let serial_secs = t0.elapsed().as_secs_f64();

            let parallel_planner = scenario.planner(Parallelism::Auto);
            let t0 = Instant::now();
            let parallel = parallel_planner.plan(&snapshot);
            let parallel_secs = t0.elapsed().as_secs_f64();

            let identical = match (&serial, &parallel) {
                (Ok(a), Ok(b)) => {
                    a.plan == b.plan
                        && a.estimated_step_time.to_bits() == b.estimated_step_time.to_bits()
                }
                (Err(_), Err(_)) => true,
                _ => false,
            };
            table.row([
                scenario.label.to_string(),
                format!("{serial_secs:.2}"),
                format!("{parallel_secs:.2}"),
                format!("{:.2}x", serial_secs / parallel_secs.max(1e-9)),
                identical.to_string(),
            ]);
            matrix_records.push(JsonValue::obj(vec![
                ("scenario", JsonValue::str(scenario.label)),
                ("serial_secs", JsonValue::Num(serial_secs)),
                ("parallel_secs", JsonValue::Num(parallel_secs)),
                ("identical", JsonValue::Bool(identical)),
            ]));
            if let Ok(outcome) = &parallel {
                println!(
                    "{}: DP {} | max TP {} | estimated {:.2} s/step | {} standby GPUs",
                    scenario.label,
                    outcome.dp,
                    outcome.chosen_tp,
                    outcome.estimated_step_time,
                    outcome.plan.removed_gpus.len()
                );
            }
        }
        println!();
        table.print();
        println!("\n(Speedups require a multi-core host; at auto=1 worker both columns run the serial path.)");
    }

    // ---- Division micro-breakdown: frozen seed reference vs scratch-arena solver ----
    // Runs in both modes: the pipeline-division phase dominates planning time on
    // straggler-heavy fleets, so this is where the solver rework must pay off.
    // Every optimized plan is asserted byte-identical to the seed reference, and
    // the best speedup over the division-dominated instances must clear 5x.
    let division_iters = if smoke { 3 } else { 7 };
    let division_cases: Vec<(&str, DivisionProblem)> = vec![
        (
            "dp8_ms4_fast24 (4k candidates)",
            DivisionProblem::new(8, 24, 1.0, vec![2.0, 3.0, 2.5, 4.0], 256),
        ),
        (
            "dp16_ms4_fast48 (65k candidates)",
            DivisionProblem::new(16, 48, 1.0, vec![2.0, 2.5, 3.0, 3.5], 512),
        ),
    ];
    println!("\nDivision micro-breakdown: seed reference vs scratch-arena solver (best of {division_iters})");
    let mut division_table = Table::new([
        "instance",
        "seed ref (ms)",
        "optimized (ms)",
        "speedup",
        "identical",
    ]);
    let mut division_records = Vec::new();
    let mut best_division_speedup = 0.0f64;
    for (label, problem) in &division_cases {
        let (ref_secs, ref_d) = best_division_secs(division_iters, || {
            divide_pipelines_reference(problem).expect("reference division")
        });
        let (opt_secs, opt_d) = best_division_secs(division_iters, || {
            divide_pipelines(problem).expect("optimized division")
        });
        assert_division_bitwise_equal(&opt_d, &ref_d, label);
        let speedup = ref_secs / opt_secs.max(1e-12);
        best_division_speedup = best_division_speedup.max(speedup);
        division_table.row([
            label.to_string(),
            format!("{:.2}", ref_secs * 1e3),
            format!("{:.2}", opt_secs * 1e3),
            format!("{speedup:.2}x"),
            "true".to_string(),
        ]);
        division_records.push(JsonValue::obj(vec![
            ("instance", JsonValue::str(*label)),
            ("reference_secs", JsonValue::Num(ref_secs)),
            ("optimized_secs", JsonValue::Num(opt_secs)),
            ("speedup", JsonValue::Num(speedup)),
            ("identical", JsonValue::Bool(true)),
        ]));
    }
    division_table.print();
    println!(
        "\nBest division speedup vs seed: {best_division_speedup:.2}x (gate: >= 5x on division-dominated instances)"
    );
    assert!(
        best_division_speedup >= 5.0,
        "division solver speedup regressed: best {best_division_speedup:.2}x < 5x vs seed reference"
    );

    let capacity_prune = capacity_prune_section(smoke);

    let artifact = JsonValue::obj(vec![
        ("experiment", JsonValue::str("planning_scalability")),
        ("smoke", JsonValue::Bool(smoke)),
        ("breakdowns", JsonValue::Arr(breakdowns)),
        ("scenario_matrix", JsonValue::Arr(matrix_records)),
        ("division", JsonValue::Arr(division_records)),
        (
            "division_speedup_vs_seed",
            JsonValue::Num(best_division_speedup),
        ),
        ("capacity_prune", capacity_prune),
    ]);
    match write_json("BENCH_planning.json", &artifact) {
        Ok(()) => println!("\nWrote BENCH_planning.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_planning.json: {e}"),
    }
}
