//! Full training-step simulation: 1F1B pipelines, ZeRO-1 gradient
//! synchronization across data-parallel replicas, optimizer update, MFU and
//! per-GPU accounting.

use crate::collective::allreduce_time;
use crate::memory::{check_memory, MemoryReport, OomError};
use crate::pipeline::PipelineSim;
use malleus_cluster::ClusterSnapshot;
use malleus_core::{CostModel, ParallelizationPlan};
use malleus_model::ProfiledCoefficients;

/// Report of one simulated training step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// End-to-end step time in seconds.
    pub step_time: f64,
    /// Compute+P2P time of each pipeline (before gradient sync).
    pub pipeline_times: Vec<f64>,
    /// Gradient reduce-scatter + parameter all-gather time.
    pub grad_sync_time: f64,
    /// Optimizer-update time.
    pub optimizer_time: f64,
    /// Per-GPU busy (compute) seconds, indexed by GPU id.
    pub per_gpu_busy: Vec<f64>,
    /// Per-GPU work units (layer × micro-batch) processed, indexed by GPU id.
    /// The profiler divides busy time by work units to estimate straggling
    /// rates.
    pub per_gpu_work_units: Vec<f64>,
    /// Model FLOPS utilization over the *active* GPUs.
    pub mfu: f64,
    /// Per-GPU peak memory report.
    pub memory: MemoryReport,
}

/// Simulator bundling the profiled coefficients and a cost model.
#[derive(Debug, Clone)]
pub struct TrainingSimulator {
    /// Cost model (shared with the planner so memory accounting matches).
    pub cost: CostModel,
}

impl TrainingSimulator {
    /// Create a simulator from profiled coefficients.
    pub fn new(coeffs: ProfiledCoefficients) -> Self {
        Self {
            cost: CostModel::new(coeffs),
        }
    }

    /// Convenience accessor.
    pub fn coeffs(&self) -> &ProfiledCoefficients {
        &self.cost.coeffs
    }

    /// Simulate one training step of `plan` under the given straggler
    /// situation.
    pub fn step(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> Result<StepReport, OomError> {
        let coeffs = &self.cost.coeffs;
        let num_gpus = snapshot.num_gpus();
        let memory = check_memory(&self.cost, plan, num_gpus)?;

        let pipeline_sim = PipelineSim::new(coeffs, snapshot);
        let mut pipeline_times = Vec::with_capacity(plan.dp());
        let mut per_gpu_busy = vec![0.0_f64; num_gpus];
        let mut per_gpu_work_units = vec![0.0_f64; num_gpus];

        for pipeline in &plan.pipelines {
            let result = pipeline_sim.simulate(pipeline, plan.micro_batch_size);
            pipeline_times.push(result.total_time);
            for (j, stage) in pipeline.stages.iter().enumerate() {
                let group_rate = stage.group.max_rate(snapshot);
                let busy_at_max = result.per_stage_busy[j];
                let work_units = stage.layers as f64 * pipeline.num_micro_batches as f64;
                for gpu in &stage.group.gpus {
                    let own_rate = snapshot.rate(*gpu);
                    // A faster member of the group finishes its share earlier
                    // and waits; its *busy* time scales with its own rate.
                    per_gpu_busy[gpu.index()] += busy_at_max / group_rate * own_rate;
                    per_gpu_work_units[gpu.index()] += work_units;
                }
            }
        }

        // ZeRO-1 gradient synchronization across data-parallel replicas: each
        // layer's gradients are reduce-scattered and the updated parameters
        // all-gathered, which together cost about one all-reduce of the fp16
        // gradients over the inter-node fabric.  The busiest GPU bounds the
        // time.
        let dp = plan.dp();
        let grad_sync_time = if dp <= 1 {
            0.0
        } else {
            let hw = &coeffs.hardware;
            plan.pipelines
                .iter()
                .flat_map(|p| p.stages.iter())
                .map(|stage| {
                    let bytes = stage.layers as f64
                        * coeffs.gradient_bytes_per_layer_slice(stage.group.tp_degree());
                    allreduce_time(hw, bytes, dp, hw.inter_node_bandwidth)
                })
                .fold(0.0, f64::max)
        };

        // Optimizer update: streaming over the local shard of the fp32 states.
        let max_layers_per_gpu = plan
            .pipelines
            .iter()
            .flat_map(|p| p.stages.iter())
            .map(|s| s.layers as f64 / s.group.tp_degree() as f64)
            .fold(0.0, f64::max);
        let optimizer_bytes =
            max_layers_per_gpu * coeffs.state_bytes_per_layer() / dp.max(1) as f64;
        let optimizer_time = optimizer_bytes / 1.5e12; // HBM-bandwidth bound

        let compute_time = pipeline_times.iter().copied().fold(0.0, f64::max);
        let step_time = compute_time + grad_sync_time + optimizer_time;

        let active = plan.active_gpus().len().max(1);
        let mfu = coeffs.step_flops(plan.global_batch_size())
            / (step_time * active as f64 * coeffs.hardware.gpu_peak_flops);

        Ok(StepReport {
            step_time,
            pipeline_times,
            grad_sync_time,
            optimizer_time,
            per_gpu_busy,
            per_gpu_work_units,
            mfu,
            memory,
        })
    }
}

/// One-shot convenience wrapper around [`TrainingSimulator::step`].
pub fn simulate_step(
    coeffs: &ProfiledCoefficients,
    plan: &ParallelizationPlan,
    snapshot: &ClusterSnapshot,
) -> Result<StepReport, OomError> {
    TrainingSimulator::new(coeffs.clone()).step(plan, snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_model::{HardwareParams, ModelSpec};

    fn simulator(spec: ModelSpec) -> TrainingSimulator {
        TrainingSimulator::new(ProfiledCoefficients::derive(
            spec,
            HardwareParams::a800_cluster(),
        ))
    }

    fn uniform_plan_32b() -> ParallelizationPlan {
        let gpus: Vec<GpuId> = (0..32).map(GpuId).collect();
        ParallelizationPlan::uniform(&gpus, 2, 4, 4, 60, 64, 1).unwrap()
    }

    #[test]
    fn healthy_step_time_is_plausible_for_32b() {
        // The paper reports ~11.6 s/step for the 32B model on 32 GPUs.  The
        // simulator should land in the same order of magnitude (seconds to a
        // few tens of seconds).
        let sim = simulator(ModelSpec::llama2_32b());
        let cluster = Cluster::homogeneous(4, 8);
        let report = sim.step(&uniform_plan_32b(), &cluster.snapshot()).unwrap();
        assert!(
            report.step_time > 2.0 && report.step_time < 60.0,
            "step time {}",
            report.step_time
        );
        assert!(report.mfu > 0.2 && report.mfu < 0.7, "mfu {}", report.mfu);
    }

    #[test]
    fn straggler_roughly_multiplies_step_time() {
        let sim = simulator(ModelSpec::llama2_32b());
        let plan = uniform_plan_32b();
        let mut cluster = Cluster::homogeneous(4, 8);
        let healthy = sim.step(&plan, &cluster.snapshot()).unwrap().step_time;
        cluster.set_rate(GpuId(0), 5.42);
        let straggled = sim.step(&plan, &cluster.snapshot()).unwrap().step_time;
        // A uniform plan is gated by the straggler: slowdown approaches x.
        assert!(straggled > healthy * 3.0, "{straggled} vs {healthy}");
        assert!(straggled < healthy * 6.0);
    }

    #[test]
    fn per_gpu_busy_reflects_individual_rates() {
        let sim = simulator(ModelSpec::llama2_32b());
        let plan = uniform_plan_32b();
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 2.57);
        let report = sim.step(&plan, &cluster.snapshot()).unwrap();
        // GPU 0 is 2.57× busier per work unit than its healthy TP peers.
        let unit0 = report.per_gpu_busy[0] / report.per_gpu_work_units[0];
        let unit1 = report.per_gpu_busy[1] / report.per_gpu_work_units[1];
        assert!((unit0 / unit1 - 2.57).abs() < 0.01);
    }

    #[test]
    fn oom_is_reported_for_infeasible_plan() {
        let sim = simulator(ModelSpec::llama2_110b());
        let gpus: Vec<GpuId> = (0..8).map(GpuId).collect();
        let plan = ParallelizationPlan::uniform(&gpus, 1, 1, 8, 80, 8, 1).unwrap();
        let cluster = Cluster::homogeneous(1, 8);
        assert!(sim.step(&plan, &cluster.snapshot()).is_err());
    }

    #[test]
    fn grad_sync_only_with_data_parallelism() {
        let sim = simulator(ModelSpec::llama2_7b());
        let cluster = Cluster::homogeneous(1, 8);
        let gpus: Vec<GpuId> = (0..8).map(GpuId).collect();
        let dp1 = ParallelizationPlan::uniform(&gpus, 1, 2, 4, 32, 8, 1).unwrap();
        let dp2 = ParallelizationPlan::uniform(&gpus, 2, 2, 2, 32, 8, 1).unwrap();
        let r1 = sim.step(&dp1, &cluster.snapshot()).unwrap();
        let r2 = sim.step(&dp2, &cluster.snapshot()).unwrap();
        assert_eq!(r1.grad_sync_time, 0.0);
        assert!(r2.grad_sync_time > 0.0);
    }

    #[test]
    fn simulator_agrees_with_planner_cost_model_within_15_percent() {
        // Table 3 claims the planner's estimate is within a few percent of the
        // measured time; our simulator adds P2P/sync overheads, so allow 15%.
        let sim = simulator(ModelSpec::llama2_32b());
        let plan = uniform_plan_32b();
        let cluster = Cluster::homogeneous(4, 8);
        let snapshot = cluster.snapshot();
        let simulated = sim.step(&plan, &snapshot).unwrap().step_time;
        let estimated = sim.cost.step_time(&plan, &snapshot);
        let gap = (simulated - estimated).abs() / simulated;
        assert!(gap < 0.15, "gap {gap}: sim {simulated} vs est {estimated}");
    }
}
