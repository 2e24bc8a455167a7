//! Hardware description and the profiled-coefficient bundle.
//!
//! [`HardwareParams`] captures the per-GPU and interconnect characteristics of
//! the training cluster (the paper uses 8-GPU A800 nodes with 400 GB/s NVLink
//! and 200 Gb/s InfiniBand).  [`ProfiledCoefficients`] packages a model spec
//! with the hardware description and exposes exactly the quantities the
//! planner's cost model consumes: `τ(b)`, `ρ_n`, the μ/ν/C memory coefficients
//! of Appendix B.4, and byte counts for communication.

use crate::compute;
use crate::memory::MemoryModel;
use crate::spec::ModelSpec;

/// Hardware characteristics of a (homogeneous) GPU cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareParams {
    /// Peak dense FLOPS of one GPU (bf16), e.g. `312e12` for an A800.
    pub gpu_peak_flops: f64,
    /// Fraction of peak FLOPS achievable for transformer layers (kernel
    /// efficiency ceiling), typically 0.45–0.6.
    pub achievable_flops_fraction: f64,
    /// Usable device memory in bytes (80 GiB for an A800).
    pub gpu_memory_bytes: f64,
    /// Memory reserved for NCCL / CUDA contexts (the paper reserves 4 GiB).
    pub memory_reserve_bytes: f64,
    /// Intra-node (NVLink) bandwidth in bytes/s.
    pub intra_node_bandwidth: f64,
    /// Inter-node (InfiniBand) bandwidth in bytes/s.
    pub inter_node_bandwidth: f64,
    /// Fixed latency per collective call in seconds.
    pub collective_latency: f64,
    /// Sustained bandwidth for checkpoint save/load (restart cost model).
    pub checkpoint_bandwidth: f64,
    /// Fixed framework re-initialization time on restart (resource allocation,
    /// process groups, ...), in seconds.
    pub restart_init_seconds: f64,
}

impl HardwareParams {
    /// The A800 (80 GB) cluster used in the paper: 8 GPUs per node, 400 GB/s
    /// NVLink, 200 Gb/s InfiniBand.
    pub fn a800_cluster() -> Self {
        Self {
            gpu_peak_flops: 312e12,
            achievable_flops_fraction: 0.55,
            gpu_memory_bytes: 80.0 * 1024.0 * 1024.0 * 1024.0,
            memory_reserve_bytes: 4096.0 * 1024.0 * 1024.0,
            intra_node_bandwidth: 400e9,
            inter_node_bandwidth: 25e9,
            collective_latency: 30e-6,
            checkpoint_bandwidth: 2e9,
            restart_init_seconds: 90.0,
        }
    }

    /// Effective sustained FLOPS of one non-straggling GPU.
    pub fn effective_flops(&self) -> f64 {
        self.gpu_peak_flops * self.achievable_flops_fraction
    }

    /// Usable memory per GPU after the reserve gap (`C_X - G` in Appendix B.4).
    pub fn usable_memory_bytes(&self) -> f64 {
        (self.gpu_memory_bytes - self.memory_reserve_bytes).max(0.0)
    }
}

impl Default for HardwareParams {
    fn default() -> Self {
        Self::a800_cluster()
    }
}

/// Bundle of all profiled coefficients the planner and simulator need.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledCoefficients {
    /// Model architecture.
    pub spec: ModelSpec,
    /// Hardware description.
    pub hardware: HardwareParams,
    /// Memory model derived from the spec.
    pub memory: MemoryModel,
}

impl ProfiledCoefficients {
    /// Derive all coefficients for a model on a hardware platform.
    pub fn derive(spec: ModelSpec, hardware: HardwareParams) -> Self {
        let memory = MemoryModel::new(&spec);
        Self {
            spec,
            hardware,
            memory,
        }
    }

    /// `τ(b)`: forward+backward time of one layer on a single non-straggling
    /// GPU (TP degree 1) with micro-batch size `b`, in seconds.
    pub fn tau(&self, micro_batch_size: u64) -> f64 {
        compute::layer_time_forward_backward(&self.spec, &self.hardware, micro_batch_size, 1)
    }

    /// `ζ_n(b)`: forward+backward time of one layer on a TP group of `n`
    /// non-straggling GPUs.
    pub fn zeta(&self, micro_batch_size: u64, tp_degree: u32) -> f64 {
        compute::layer_time_forward_backward(
            &self.spec,
            &self.hardware,
            micro_batch_size,
            tp_degree,
        )
    }

    /// `ρ_n`: efficiency-degradation coefficient of a TP group of `n` GPUs
    /// (§4.2).  `ρ_1 = 1`; larger groups have smaller coefficients because the
    /// per-GPU workload shrinks, but not by the ideal `1/n` factor due to
    /// tensor-parallel communication.
    pub fn rho(&self, tp_degree: u32, micro_batch_size: u64) -> f64 {
        compute::tensor_parallel_rho(&self.spec, &self.hardware, micro_batch_size, tp_degree)
    }

    /// Group straggling rate `y = ρ_n · max{x}` for a TP group of `n` GPUs with
    /// the given maximum per-GPU straggling rate.
    pub fn group_rate(&self, tp_degree: u32, max_gpu_rate: f64, micro_batch_size: u64) -> f64 {
        self.rho(tp_degree, micro_batch_size) * max_gpu_rate
    }

    /// μ coefficient of Appendix B.4: per-layer, per-GPU memory of one stage
    /// (model states + retained activations), in bytes.
    ///
    /// * `stage_index` — zero-based index `j` of the stage within its pipeline,
    /// * `pp` — number of stages in the pipeline,
    /// * `tp_degree` — GPUs in the stage's TP group,
    /// * `zero_dp` — number of optimizer-state shards per TP slice (the ZeRO-1
    ///   sharding degree, i.e. the DP degree).
    pub fn mu(
        &self,
        micro_batch_size: u64,
        tp_degree: u32,
        stage_index: usize,
        pp: usize,
        zero_dp: u32,
    ) -> f64 {
        self.memory.mu_bytes_per_layer(
            &self.spec,
            micro_batch_size,
            tp_degree,
            stage_index,
            pp,
            zero_dp,
        )
    }

    /// ν coefficient of Appendix B.4: stage-constant memory (embedding table on
    /// the first stage, LM head + logits on the last stage), in bytes per GPU.
    pub fn nu(
        &self,
        micro_batch_size: u64,
        tp_degree: u32,
        stage_index: usize,
        pp: usize,
        zero_dp: u32,
    ) -> f64 {
        self.memory.nu_bytes(
            &self.spec,
            micro_batch_size,
            tp_degree,
            stage_index,
            pp,
            zero_dp,
        )
    }

    /// Per-GPU memory budget `C_X - G` in bytes.
    pub fn per_gpu_capacity(&self) -> f64 {
        self.hardware.usable_memory_bytes()
    }

    /// Maximum number of layers a stage can hold under the memory constraint
    /// `l·μ + ν ≤ C` (Appendix B.4), or `None` if even zero layers do not fit.
    pub fn max_layers_for_stage(
        &self,
        micro_batch_size: u64,
        tp_degree: u32,
        stage_index: usize,
        pp: usize,
        zero_dp: u32,
    ) -> Option<u64> {
        let mu = self.mu(micro_batch_size, tp_degree, stage_index, pp, zero_dp);
        let nu = self.nu(micro_batch_size, tp_degree, stage_index, pp, zero_dp);
        let cap = self.per_gpu_capacity();
        if nu > cap {
            return None;
        }
        if mu <= 0.0 {
            return Some(u64::MAX);
        }
        Some(((cap - nu) / mu).floor().max(0.0) as u64)
    }

    /// Bytes of gradient data one layer produces per TP slice (used by the
    /// gradient-synchronization simulator), fp16.
    pub fn gradient_bytes_per_layer_slice(&self, tp_degree: u32) -> f64 {
        self.spec.params_per_layer() as f64 * 2.0 / tp_degree as f64
    }

    /// Bytes of the full (parameters + gradients + optimizer) model states of
    /// one layer, used by the migration and checkpoint cost models.
    pub fn state_bytes_per_layer(&self) -> f64 {
        // fp16 params + fp16 grads + fp32 master + two fp32 Adam moments.
        self.spec.params_per_layer() as f64 * (2.0 + 2.0 + 12.0)
    }

    /// Bytes of one micro-batch activation tensor crossing a pipeline stage
    /// boundary (b × s × h, fp16).
    pub fn activation_boundary_bytes(&self, micro_batch_size: u64) -> f64 {
        (micro_batch_size * self.spec.seq_len * self.spec.hidden_size) as f64 * 2.0
    }

    /// Dense model FLOPs of one training step with the given global batch,
    /// used for MFU reporting (6 × params × tokens plus attention).
    pub fn step_flops(&self, global_batch_size: u64) -> f64 {
        let tokens = self.spec.tokens_per_global_batch(global_batch_size) as f64;
        let dense = 6.0 * self.spec.total_params() as f64 * tokens;
        let attn = 12.0
            * self.spec.num_layers as f64
            * self.spec.hidden_size as f64
            * self.spec.seq_len as f64
            * tokens;
        dense + attn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coeffs() -> ProfiledCoefficients {
        ProfiledCoefficients::derive(ModelSpec::llama2_70b(), HardwareParams::a800_cluster())
    }

    #[test]
    fn rho_is_one_for_single_gpu_and_decreasing() {
        let c = coeffs();
        let r1 = c.rho(1, 1);
        let r2 = c.rho(2, 1);
        let r4 = c.rho(4, 1);
        let r8 = c.rho(8, 1);
        assert!((r1 - 1.0).abs() < 1e-12);
        assert!(r1 > r2 && r2 > r4 && r4 > r8, "{r1} {r2} {r4} {r8}");
        // Larger groups are imperfectly efficient: ρ_n > 1/n.
        assert!(r8 > 1.0 / 8.0);
    }

    #[test]
    fn tau_grows_with_micro_batch_size() {
        let c = coeffs();
        assert!(c.tau(2) > c.tau(1));
        assert!(c.tau(4) > c.tau(2));
    }

    #[test]
    fn group_rate_combines_rho_and_max_rate() {
        let c = coeffs();
        let y = c.group_rate(8, 5.42, 1);
        assert!((y - c.rho(8, 1) * 5.42).abs() < 1e-12);
    }

    #[test]
    fn max_layers_single_gpu_cannot_hold_a_70b_stage_alone() {
        // One 80 GB GPU cannot hold 80 layers of a 70B model with optimizer
        // states; the memory model must reflect that.
        let c = coeffs();
        let max = c.max_layers_for_stage(1, 1, 0, 1, 1).unwrap_or(u64::MAX);
        assert!(
            max < 80,
            "single GPU should not fit the full 70B model, got {max}"
        );
    }

    #[test]
    fn max_layers_increases_with_tp_degree() {
        let c = coeffs();
        let m1 = c.max_layers_for_stage(1, 1, 0, 4, 2).unwrap_or(0);
        let m8 = c.max_layers_for_stage(1, 8, 0, 4, 2).unwrap_or(0);
        assert!(m8 > m1);
    }

    #[test]
    fn earlier_stages_hold_fewer_layers() {
        // 1F1B: stage 0 retains more in-flight activations than the last stage,
        // so its per-layer μ is larger and its layer capacity smaller.
        let c = coeffs();
        let first = c.max_layers_for_stage(1, 8, 0, 8, 2).unwrap_or(0);
        let last = c.max_layers_for_stage(1, 8, 7, 8, 2).unwrap_or(0);
        assert!(first <= last, "first={first} last={last}");
    }

    #[test]
    fn step_flops_has_llm_scale() {
        let c = coeffs();
        let flops = c.step_flops(64);
        // 6 * 70e9 * 262144 ≈ 1.1e17
        assert!(flops > 5e16 && flops < 5e17, "got {flops}");
    }

    #[test]
    fn usable_memory_subtracts_reserve() {
        let hw = HardwareParams::a800_cluster();
        assert!(hw.usable_memory_bytes() < hw.gpu_memory_bytes);
        assert!(hw.usable_memory_bytes() > 70.0 * 1024.0 * 1024.0 * 1024.0);
    }
}
