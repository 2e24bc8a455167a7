//! The planner's analytic cost model (§4.2 + Appendix B.4).
//!
//! Time: the running time of stage `j` in pipeline `i` for one micro-batch is
//! `t_{i,j} = y_{i,j} · l_{i,j} · τ(b)` where `y` is the group straggling rate.
//! The pipeline time is `(m_i − 1)·max_j t_{i,j} + Σ_j t_{i,j}` (1F1B warm-up +
//! steady state + cool-down), which the planner approximates by
//! `m_i · max_j t_{i,j}` when deriving assignments.  The step time is the
//! maximum over pipelines.
//!
//! Memory: stage `j` of a `PP`-stage pipeline with `l` layers must satisfy
//! `l·μ_j(b) + ν_j(b) ≤ C` per GPU (Appendix B.4).

use crate::plan::{ParallelizationPlan, PipelinePlan, StagePlan};
use malleus_cluster::ClusterSnapshot;
use malleus_model::ProfiledCoefficients;

/// Summary of a plan's estimated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Step time with the exact 1F1B formula (seconds).
    pub step_time_exact: f64,
    /// Step time with the simplified `m·max_j t` formula used by the ILPs.
    pub step_time_simplified: f64,
    /// Per-pipeline exact times.
    pub pipeline_times: Vec<f64>,
    /// Whether every stage satisfies its memory constraint.
    pub memory_feasible: bool,
}

/// The analytic cost model: profiled coefficients + evaluation helpers.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Profiled model/hardware coefficients.
    pub coeffs: ProfiledCoefficients,
}

impl CostModel {
    /// Create a cost model from profiled coefficients.
    pub fn new(coeffs: ProfiledCoefficients) -> Self {
        Self { coeffs }
    }

    /// Group straggling rate `y = ρ_n · max{x}` of a stage's TP group.
    pub fn group_rate(
        &self,
        stage: &StagePlan,
        snapshot: &ClusterSnapshot,
        micro_batch_size: u64,
    ) -> f64 {
        self.coeffs.group_rate(
            stage.group.tp_degree(),
            stage.group.max_rate(snapshot),
            micro_batch_size,
        )
    }

    /// Per-micro-batch running time of a stage: `t = y · l · τ(b)`.
    pub fn stage_time(
        &self,
        stage: &StagePlan,
        snapshot: &ClusterSnapshot,
        micro_batch_size: u64,
    ) -> f64 {
        self.group_rate(stage, snapshot, micro_batch_size)
            * stage.layers as f64
            * self.coeffs.tau(micro_batch_size)
    }

    /// Simplified pipeline time `m_i · max_j t_{i,j}`.
    pub fn pipeline_time_simplified(
        &self,
        pipeline: &PipelinePlan,
        snapshot: &ClusterSnapshot,
        micro_batch_size: u64,
    ) -> f64 {
        let max_t = pipeline
            .stages
            .iter()
            .map(|s| self.stage_time(s, snapshot, micro_batch_size))
            .fold(0.0, f64::max);
        pipeline.num_micro_batches as f64 * max_t
    }

    /// Exact 1F1B pipeline time `(m_i − 1)·max_j t + Σ_j t`.
    pub fn pipeline_time_exact(
        &self,
        pipeline: &PipelinePlan,
        snapshot: &ClusterSnapshot,
        micro_batch_size: u64,
    ) -> f64 {
        // Single pass, no intermediate Vec: both folds visit the stages in the
        // same order as the two-pass formulation, so the bits are unchanged.
        let mut max_t = 0.0_f64;
        let mut sum_t = 0.0_f64;
        for s in &pipeline.stages {
            let t = self.stage_time(s, snapshot, micro_batch_size);
            max_t = f64::max(max_t, t);
            sum_t += t;
        }
        (pipeline.num_micro_batches.saturating_sub(1)) as f64 * max_t + sum_t
    }

    /// Analytic estimate of the ZeRO-1 gradient-synchronization time of a plan:
    /// the busiest GPU's gradients are reduce-scattered and the updated
    /// parameters all-gathered across the `DP` replicas over the inter-node
    /// fabric (≈ one all-reduce of the fp16 gradients).
    pub fn gradient_sync_time(&self, plan: &ParallelizationPlan) -> f64 {
        let dp = plan.dp();
        if dp <= 1 {
            return 0.0;
        }
        let hw = &self.coeffs.hardware;
        plan.pipelines
            .iter()
            .flat_map(|p| p.stages.iter())
            .map(|stage| {
                let bytes = stage.layers as f64
                    * self
                        .coeffs
                        .gradient_bytes_per_layer_slice(stage.group.tp_degree());
                2.0 * (dp as f64 - 1.0) / dp as f64 * bytes / hw.inter_node_bandwidth
            })
            .fold(0.0, f64::max)
    }

    /// Estimated step time of a plan (exact formula), `max_i T_i` plus the
    /// gradient-synchronization estimate.
    pub fn step_time(&self, plan: &ParallelizationPlan, snapshot: &ClusterSnapshot) -> f64 {
        plan.pipelines
            .iter()
            .map(|p| self.pipeline_time_exact(p, snapshot, plan.micro_batch_size))
            .fold(0.0, f64::max)
            + self.gradient_sync_time(plan)
    }

    /// Estimated step time with the simplified formula (what the ILPs optimize,
    /// reported as `R_est` in Table 3).
    pub fn step_time_simplified(
        &self,
        plan: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
    ) -> f64 {
        plan.pipelines
            .iter()
            .map(|p| self.pipeline_time_simplified(p, snapshot, plan.micro_batch_size))
            .fold(0.0, f64::max)
    }

    /// Peak per-GPU memory of a stage in bytes (`l·μ + ν`).
    pub fn stage_memory_bytes(
        &self,
        stage: &StagePlan,
        stage_index: usize,
        pp: usize,
        micro_batch_size: u64,
        zero_dp: u32,
    ) -> f64 {
        let tp = stage.group.tp_degree();
        stage.layers as f64
            * self
                .coeffs
                .mu(micro_batch_size, tp, stage_index, pp, zero_dp)
            + self
                .coeffs
                .nu(micro_batch_size, tp, stage_index, pp, zero_dp)
    }

    /// Whether every stage of the plan satisfies the per-GPU memory budget.
    pub fn memory_feasible(&self, plan: &ParallelizationPlan) -> bool {
        let cap = self.coeffs.per_gpu_capacity();
        let zero_dp = plan.dp() as u32;
        plan.pipelines.iter().all(|p| {
            let pp = p.pp();
            p.stages.iter().enumerate().all(|(j, s)| {
                self.stage_memory_bytes(s, j, pp, plan.micro_batch_size, zero_dp) <= cap
            })
        })
    }

    /// Full cost estimate of a plan.
    pub fn estimate(&self, plan: &ParallelizationPlan, snapshot: &ClusterSnapshot) -> CostEstimate {
        let pipeline_times: Vec<f64> = plan
            .pipelines
            .iter()
            .map(|p| self.pipeline_time_exact(p, snapshot, plan.micro_batch_size))
            .collect();
        CostEstimate {
            step_time_exact: pipeline_times.iter().copied().fold(0.0, f64::max),
            step_time_simplified: self.step_time_simplified(plan, snapshot),
            pipeline_times,
            memory_feasible: self.memory_feasible(plan),
        }
    }

    /// Maximum layers a stage of the given shape can hold (Appendix B.4), or
    /// `None` if even an empty stage exceeds the budget.
    pub fn max_layers(
        &self,
        tp_degree: u32,
        stage_index: usize,
        pp: usize,
        micro_batch_size: u64,
        zero_dp: u32,
    ) -> Option<u64> {
        self.coeffs
            .max_layers_for_stage(micro_batch_size, tp_degree, stage_index, pp, zero_dp)
    }

    /// Theoretic-optimum slowdown ratio of a straggler situation (Table 2/3):
    /// `N / ((N − n) + Σ 1/x_i)` over the straggling GPUs.
    pub fn theoretic_optimal_ratio(snapshot: &ClusterSnapshot) -> f64 {
        let n_total = snapshot.num_gpus() as f64;
        let mut healthy = 0.0;
        let mut straggler_capacity = 0.0;
        for &x in &snapshot.rates {
            if x <= 1.0 {
                healthy += 1.0;
            } else if x.is_finite() {
                straggler_capacity += 1.0 / x;
            }
        }
        n_total / (healthy + straggler_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ParallelizationPlan;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_model::{HardwareParams, ModelSpec};

    fn cost_model() -> CostModel {
        CostModel::new(ProfiledCoefficients::derive(
            ModelSpec::llama2_7b(),
            HardwareParams::a800_cluster(),
        ))
    }

    fn uniform_plan() -> ParallelizationPlan {
        let gpus: Vec<GpuId> = (0..16).map(GpuId).collect();
        ParallelizationPlan::uniform(&gpus, 2, 2, 4, 32, 64, 1).unwrap()
    }

    #[test]
    fn step_time_increases_with_a_straggler() {
        let cm = cost_model();
        let plan = uniform_plan();
        let mut cluster = Cluster::homogeneous(2, 8);
        let healthy = cm.step_time(&plan, &cluster.snapshot());
        cluster.set_rate(GpuId(0), 5.42);
        let straggled = cm.step_time(&plan, &cluster.snapshot());
        assert!(straggled > healthy * 2.0, "{straggled} vs {healthy}");
    }

    #[test]
    fn exact_time_exceeds_simplified_time() {
        let cm = cost_model();
        let plan = uniform_plan();
        let snapshot = Cluster::homogeneous(2, 8).snapshot();
        let exact = cm.step_time(&plan, &snapshot);
        let simplified = cm.step_time_simplified(&plan, &snapshot);
        // Exact adds the warm-up/cool-down bubble, so it is strictly larger
        // whenever the pipeline has more than one stage.
        assert!(exact > simplified);
        // ... but with m >> PP they are close (within ~10%).
        assert!(exact < simplified * 1.15);
    }

    #[test]
    fn memory_feasibility_for_small_model_on_many_gpus() {
        let cm = cost_model();
        let plan = uniform_plan();
        assert!(cm.memory_feasible(&plan));
    }

    #[test]
    fn memory_infeasible_for_huge_model_on_one_gpu() {
        let cm = CostModel::new(ProfiledCoefficients::derive(
            ModelSpec::llama2_70b(),
            HardwareParams::a800_cluster(),
        ));
        let gpus: Vec<GpuId> = (0..1).map(GpuId).collect();
        let plan = ParallelizationPlan::uniform(&gpus, 1, 1, 1, 80, 8, 1).unwrap();
        assert!(!cm.memory_feasible(&plan));
    }

    #[test]
    fn theoretic_optimal_ratio_matches_formula() {
        let mut cluster = Cluster::homogeneous(8, 8);
        cluster.set_rate(GpuId(0), 2.0);
        let ratio = CostModel::theoretic_optimal_ratio(&cluster.snapshot());
        let expected = 64.0 / (63.0 + 0.5);
        assert!((ratio - expected).abs() < 1e-12);
    }

    #[test]
    fn theoretic_optimal_ratio_is_one_without_stragglers() {
        let cluster = Cluster::homogeneous(4, 8);
        assert!((CostModel::theoretic_optimal_ratio(&cluster.snapshot()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stage_time_scales_with_layers_and_rate() {
        let cm = cost_model();
        let mut cluster = Cluster::homogeneous(1, 8);
        cluster.set_rate(GpuId(0), 2.0);
        let snapshot = cluster.snapshot();
        let group = crate::plan::TpGroup::new(vec![GpuId(0), GpuId(1)]);
        let s1 = StagePlan {
            group: group.clone(),
            layers: 4,
        };
        let s2 = StagePlan { group, layers: 8 };
        let t1 = cm.stage_time(&s1, &snapshot, 1);
        let t2 = cm.stage_time(&s2, &snapshot, 1);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_reports_per_pipeline_times() {
        let cm = cost_model();
        let plan = uniform_plan();
        let snapshot = Cluster::homogeneous(2, 8).snapshot();
        let est = cm.estimate(&plan, &snapshot);
        assert_eq!(est.pipeline_times.len(), 2);
        assert!(est.memory_feasible);
        assert!(est.step_time_exact >= est.pipeline_times[0]);
    }
}
