//! Event-driven 1F1B pipeline-schedule simulation.
//!
//! Unlike the planner's closed-form cost model, the simulator executes the
//! actual one-forward-one-backward schedule with explicit dependencies between
//! stages and point-to-point activation transfers.  This is what plays the role
//! of "actual running time" in the reproduction (Table 3's `R_actual`,
//! Figure 10's enumeration study): it contains effects the planner's estimate
//! ignores (pipeline bubbles, P2P latency, non-bottleneck stages finishing
//! early).

use crate::collective::p2p_time;
use malleus_cluster::ClusterSnapshot;
use malleus_core::plan::PipelinePlan;
use malleus_model::ProfiledCoefficients;

/// Result of simulating one pipeline for one training step (compute + P2P,
/// before gradient synchronization).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// Wall-clock time from the first forward to the last backward.
    pub total_time: f64,
    /// Busy (compute) seconds of each stage.
    pub per_stage_busy: Vec<f64>,
    /// Forward duration of one micro-batch on each stage.
    pub stage_forward_time: Vec<f64>,
}

/// 1F1B operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Forward(u64),
    Backward(u64),
}

/// Simulator for a single pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSim<'a> {
    /// Profiled coefficients (τ, activation sizes, hardware).
    pub coeffs: &'a ProfiledCoefficients,
    /// Per-GPU straggling rates.
    pub snapshot: &'a ClusterSnapshot,
}

impl<'a> PipelineSim<'a> {
    /// Create a pipeline simulator.
    pub fn new(coeffs: &'a ProfiledCoefficients, snapshot: &'a ClusterSnapshot) -> Self {
        Self { coeffs, snapshot }
    }

    /// Forward time of one micro-batch on a stage: layers × per-layer forward
    /// time at the stage's TP degree × the group's (max) straggling rate.
    fn stage_forward_time(&self, pipeline: &PipelinePlan, stage: usize, b: u64) -> f64 {
        let s = &pipeline.stages[stage];
        let tp = s.group.tp_degree();
        let layer_fwd_bwd = self.coeffs.zeta(b, tp);
        let rate = s.group.max_rate(self.snapshot);
        s.layers as f64 * layer_fwd_bwd / 3.0 * rate
    }

    /// P2P activation-transfer time between two adjacent stages.
    fn boundary_time(&self, pipeline: &PipelinePlan, from: usize, to: usize, b: u64) -> f64 {
        let bytes = self.coeffs.activation_boundary_bytes(b);
        let src = pipeline.stages[from].group.gpus[0];
        let dst = pipeline.stages[to].group.gpus[0];
        p2p_time(&self.coeffs.hardware, self.snapshot, src, dst, bytes)
    }

    /// Build the 1F1B operation sequence of a stage.
    fn op_sequence(num_stages: usize, stage: usize, micro_batches: u64) -> Vec<OpKind> {
        let warmup = ((num_stages - 1 - stage) as u64).min(micro_batches);
        let mut ops = Vec::with_capacity(2 * micro_batches as usize);
        for k in 1..=warmup {
            ops.push(OpKind::Forward(k));
        }
        for k in (warmup + 1)..=micro_batches {
            ops.push(OpKind::Forward(k));
            ops.push(OpKind::Backward(k - warmup));
        }
        for k in (micro_batches - warmup + 1)..=micro_batches {
            ops.push(OpKind::Backward(k));
        }
        ops
    }

    /// Simulate one training step of the pipeline (forward + backward of all
    /// micro-batches under the 1F1B schedule).
    pub fn simulate(&self, pipeline: &PipelinePlan, micro_batch_size: u64) -> PipelineResult {
        let num_stages = pipeline.pp();
        let m = pipeline.num_micro_batches;
        assert!(num_stages > 0, "pipeline must have at least one stage");
        if m == 0 {
            return PipelineResult {
                total_time: 0.0,
                per_stage_busy: vec![0.0; num_stages],
                stage_forward_time: vec![0.0; num_stages],
            };
        }

        let fwd: Vec<f64> = (0..num_stages)
            .map(|s| self.stage_forward_time(pipeline, s, micro_batch_size))
            .collect();
        let bwd: Vec<f64> = fwd.iter().map(|f| 2.0 * f).collect();
        let p2p_fwd: Vec<f64> = (1..num_stages)
            .map(|s| self.boundary_time(pipeline, s - 1, s, micro_batch_size))
            .collect();
        let p2p_bwd: Vec<f64> = (1..num_stages)
            .map(|s| self.boundary_time(pipeline, s, s - 1, micro_batch_size))
            .collect();

        let sequences: Vec<Vec<OpKind>> = (0..num_stages)
            .map(|s| Self::op_sequence(num_stages, s, m))
            .collect();

        // Finish times of every op.  Each op is computed exactly once, in a
        // topological order discovered by round-robining a per-stage program
        // counter: a stage executes its next scheduled op as soon as that op's
        // cross-stage dependency has been computed (forward deps point to the
        // previous stage, backward deps to the next stage, the last stage's
        // backward depends on its own forward).
        let mut fwd_finish = vec![vec![f64::NAN; m as usize + 1]; num_stages];
        let mut bwd_finish = vec![vec![f64::NAN; m as usize + 1]; num_stages];
        let mut pc = vec![0usize; num_stages];
        let mut stage_clock = vec![0.0_f64; num_stages];

        loop {
            let mut progressed = false;
            for s in 0..num_stages {
                while pc[s] < sequences[s].len() {
                    let op = sequences[s][pc[s]];
                    let (dep_ready, duration) = match op {
                        OpKind::Forward(k) => {
                            let dep = if s == 0 {
                                0.0
                            } else {
                                let upstream = fwd_finish[s - 1][k as usize];
                                if upstream.is_nan() {
                                    f64::NAN
                                } else {
                                    upstream + p2p_fwd[s - 1]
                                }
                            };
                            (dep, fwd[s])
                        }
                        OpKind::Backward(k) => {
                            let dep = if s == num_stages - 1 {
                                // Backward of micro-batch k needs its own forward.
                                fwd_finish[s][k as usize]
                            } else {
                                let downstream = bwd_finish[s + 1][k as usize];
                                if downstream.is_nan() {
                                    f64::NAN
                                } else {
                                    downstream + p2p_bwd[s]
                                }
                            };
                            (dep, bwd[s])
                        }
                    };
                    if dep_ready.is_nan() {
                        break; // dependency not produced yet; revisit later
                    }
                    let start = stage_clock[s].max(dep_ready);
                    let finish = start + duration;
                    match op {
                        OpKind::Forward(k) => fwd_finish[s][k as usize] = finish,
                        OpKind::Backward(k) => bwd_finish[s][k as usize] = finish,
                    }
                    stage_clock[s] = finish;
                    pc[s] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        debug_assert!(
            pc.iter().enumerate().all(|(s, &p)| p == sequences[s].len()),
            "1F1B schedule deadlocked: {pc:?}"
        );

        let total_time = (0..num_stages)
            .flat_map(|s| {
                bwd_finish[s]
                    .iter()
                    .copied()
                    .chain(fwd_finish[s].iter().copied())
            })
            .filter(|t| t.is_finite())
            .fold(0.0, f64::max);
        let per_stage_busy: Vec<f64> = (0..num_stages)
            .map(|s| m as f64 * (fwd[s] + bwd[s]))
            .collect();
        PipelineResult {
            total_time,
            per_stage_busy,
            stage_forward_time: fwd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_core::plan::ParallelizationPlan;
    use malleus_model::{HardwareParams, ModelSpec};

    fn coeffs(spec: ModelSpec) -> ProfiledCoefficients {
        ProfiledCoefficients::derive(spec, HardwareParams::a800_cluster())
    }

    fn uniform_pipeline(pp: usize, tp: u32, layers: u32, m: u64) -> PipelinePlan {
        let gpus: Vec<GpuId> = (0..(pp as u32 * tp)).map(GpuId).collect();
        ParallelizationPlan::uniform(&gpus, 1, pp, tp, layers, m, 1)
            .unwrap()
            .pipelines
            .remove(0)
    }

    #[test]
    fn single_stage_pipeline_time_is_m_times_layer_time() {
        let c = coeffs(ModelSpec::llama2_7b());
        let cluster = Cluster::homogeneous(1, 8);
        let snapshot = cluster.snapshot();
        let sim = PipelineSim::new(&c, &snapshot);
        let p = uniform_pipeline(1, 8, 32, 8);
        let r = sim.simulate(&p, 1);
        let expected = 8.0 * 32.0 * c.zeta(1, 8);
        assert!((r.total_time - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn pipeline_bubble_matches_closed_form_for_uniform_stages() {
        // For equal stages, the 1F1B makespan is (m - 1 + S) forward+backward
        // slots of the bottleneck stage (plus P2P).  Check within a few percent.
        let c = coeffs(ModelSpec::llama2_7b());
        let cluster = Cluster::homogeneous(1, 8);
        let snapshot = cluster.snapshot();
        let sim = PipelineSim::new(&c, &snapshot);
        let p = uniform_pipeline(4, 2, 32, 16);
        let r = sim.simulate(&p, 1);
        let per_stage = 8.0 * c.zeta(1, 2); // 8 layers per stage
        let closed_form = (16.0 - 1.0 + 4.0) * per_stage;
        assert!(
            (r.total_time - closed_form).abs() / closed_form < 0.05,
            "sim {} vs closed form {}",
            r.total_time,
            closed_form
        );
    }

    #[test]
    fn straggling_stage_slows_the_whole_pipeline() {
        let c = coeffs(ModelSpec::llama2_7b());
        let mut cluster = Cluster::homogeneous(1, 8);
        let p = uniform_pipeline(4, 2, 32, 16);
        let snapshot = cluster.snapshot();
        let healthy = PipelineSim::new(&c, &snapshot).simulate(&p, 1).total_time;
        cluster.set_rate(GpuId(0), 2.57);
        let snapshot = cluster.snapshot();
        let straggled = PipelineSim::new(&c, &snapshot).simulate(&p, 1).total_time;
        assert!(straggled > healthy * 1.8, "{straggled} vs {healthy}");
    }

    #[test]
    fn more_micro_batches_amortize_the_bubble() {
        let c = coeffs(ModelSpec::llama2_7b());
        let cluster = Cluster::homogeneous(1, 8);
        let snapshot = cluster.snapshot();
        let sim = PipelineSim::new(&c, &snapshot);
        let p_small = uniform_pipeline(4, 2, 32, 4);
        let p_large = uniform_pipeline(4, 2, 32, 32);
        let t_small = sim.simulate(&p_small, 1).total_time / 4.0;
        let t_large = sim.simulate(&p_large, 1).total_time / 32.0;
        assert!(t_large < t_small, "per-micro-batch time should shrink");
    }

    #[test]
    fn zero_micro_batches_take_zero_time() {
        let c = coeffs(ModelSpec::llama2_7b());
        let cluster = Cluster::homogeneous(1, 8);
        let snapshot = cluster.snapshot();
        let sim = PipelineSim::new(&c, &snapshot);
        let mut p = uniform_pipeline(2, 4, 32, 4);
        p.num_micro_batches = 0;
        assert_eq!(sim.simulate(&p, 1).total_time, 0.0);
    }

    #[test]
    fn busy_time_is_total_compute_per_stage() {
        let c = coeffs(ModelSpec::llama2_7b());
        let cluster = Cluster::homogeneous(1, 8);
        let snapshot = cluster.snapshot();
        let sim = PipelineSim::new(&c, &snapshot);
        let p = uniform_pipeline(2, 4, 32, 8);
        let r = sim.simulate(&p, 1);
        assert_eq!(r.per_stage_busy.len(), 2);
        let expected = 8.0 * 16.0 * c.zeta(1, 4);
        assert!((r.per_stage_busy[0] - expected).abs() / expected < 1e-9);
        // Busy time never exceeds the makespan.
        for &b in &r.per_stage_busy {
            assert!(b <= r.total_time + 1e-9);
        }
    }
}
