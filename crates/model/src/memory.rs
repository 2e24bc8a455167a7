//! Memory cost model (Appendix B.4 of the paper).
//!
//! For the `j`-th stage of a pipeline with `PP` stages running 1F1B, the peak
//! per-GPU memory is
//!
//! ```text
//!   l · μ_j(b) + ν_j(b) ≤ C
//! ```
//!
//! where `l` is the number of layers on the stage, `μ_j(b)` accounts for the
//! model states of one layer plus the forward activations retained while
//! `PP − j` further micro-batches are in flight, and `ν_j(b)` is the
//! stage-constant footprint of the embedding table (first stage) or LM head and
//! logits (last stage).  All per-GPU quantities shrink with the tensor-parallel
//! degree `k` because parameters and activations are sharded across the group
//! (sequence parallelism is assumed for activations, as in Megatron-LM).

use crate::spec::ModelSpec;

/// Tunable constants of the analytic memory model.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    /// Bytes of retained forward activation per token per hidden unit for one
    /// layer (Megatron-style accounting with FlashAttention ≈ 26–34 bytes).
    pub activation_bytes_per_token_per_hidden: f64,
    /// Multiplier capturing the extra transient working set while a layer is in
    /// its backward pass (`a_{f+b} = peak_factor · a_f`).
    pub backward_peak_factor: f64,
    /// Bytes per parameter for fp16 parameters + fp16 gradients.
    pub param_and_grad_bytes_per_param: f64,
    /// Bytes per parameter for the fp32 master copy and Adam moments (sharded
    /// by the ZeRO-1 data-parallel degree).
    pub optimizer_bytes_per_param: f64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        Self {
            activation_bytes_per_token_per_hidden: 30.0,
            backward_peak_factor: 1.3,
            param_and_grad_bytes_per_param: 4.0,
            optimizer_bytes_per_param: 12.0,
        }
    }
}

impl MemoryModel {
    /// Build the default memory model for a model spec.  (The spec itself is
    /// passed to each query; the constructor exists so alternative constants —
    /// e.g. full activation checkpointing — can be plugged in later.)
    pub fn new(_spec: &ModelSpec) -> Self {
        Self::default()
    }

    /// A variant with full activation recomputation (used by the baseline
    /// configuration search, which enables activation checkpointing to squeeze
    /// models onto fewer GPUs, cf. Tables 6–7).
    pub fn with_activation_checkpointing() -> Self {
        Self {
            // Only the layer-boundary activation is retained.
            activation_bytes_per_token_per_hidden: 2.0,
            backward_peak_factor: 4.0,
            ..Self::default()
        }
    }

    /// Retained forward-activation bytes per layer, per GPU, for one
    /// micro-batch of size `b` on a TP group of `k` GPUs (`a_f` at TP `k`).
    pub fn activation_forward_bytes(
        &self,
        spec: &ModelSpec,
        micro_batch_size: u64,
        tp_degree: u32,
    ) -> f64 {
        let tokens = spec.tokens_per_micro_batch(micro_batch_size) as f64;
        tokens * spec.hidden_size as f64 * self.activation_bytes_per_token_per_hidden
            / tp_degree as f64
    }

    /// Peak activation bytes per layer per GPU during forward+backward
    /// (`a_{f+b}` at TP `k`).
    pub fn activation_peak_bytes(
        &self,
        spec: &ModelSpec,
        micro_batch_size: u64,
        tp_degree: u32,
    ) -> f64 {
        self.activation_forward_bytes(spec, micro_batch_size, tp_degree) * self.backward_peak_factor
    }

    /// Model-state bytes (params, grads, optimizer) of one layer per GPU at TP
    /// degree `k` with ZeRO-1 sharding over `zero_dp` replicas (`s` at TP `k`).
    pub fn layer_state_bytes(&self, spec: &ModelSpec, tp_degree: u32, zero_dp: u32) -> f64 {
        let params = spec.params_per_layer() as f64 / tp_degree as f64;
        params * self.param_and_grad_bytes_per_param
            + params * self.optimizer_bytes_per_param / zero_dp.max(1) as f64
    }

    /// Model-state bytes of the embedding table per GPU.
    pub fn embedding_state_bytes(&self, spec: &ModelSpec, tp_degree: u32, zero_dp: u32) -> f64 {
        let params = spec.embedding_params() as f64 / tp_degree as f64;
        params * self.param_and_grad_bytes_per_param
            + params * self.optimizer_bytes_per_param / zero_dp.max(1) as f64
    }

    /// Model-state bytes of the LM head per GPU.
    pub fn lm_head_state_bytes(&self, spec: &ModelSpec, tp_degree: u32, zero_dp: u32) -> f64 {
        let params = spec.lm_head_params() as f64 / tp_degree as f64;
        params * self.param_and_grad_bytes_per_param
            + params * self.optimizer_bytes_per_param / zero_dp.max(1) as f64
    }

    /// μ_j(b): per-layer, per-GPU memory coefficient of the `j`-th (zero-based)
    /// stage of a `pp`-stage 1F1B pipeline.
    pub fn mu_bytes_per_layer(
        &self,
        spec: &ModelSpec,
        micro_batch_size: u64,
        tp_degree: u32,
        stage_index: usize,
        pp: usize,
        zero_dp: u32,
    ) -> f64 {
        assert!(
            pp >= 1 && stage_index < pp,
            "stage_index {stage_index} out of range for pp {pp}"
        );
        let in_flight = (pp - 1 - stage_index) as f64;
        let a_f = self.activation_forward_bytes(spec, micro_batch_size, tp_degree);
        let a_fb = self.activation_peak_bytes(spec, micro_batch_size, tp_degree);
        let s = self.layer_state_bytes(spec, tp_degree, zero_dp);
        a_f * in_flight + a_fb + s
    }

    /// ν_j(b): stage-constant, per-GPU memory of the `j`-th (zero-based) stage.
    /// Zero for interior stages; embedding-table footprint for the first stage;
    /// LM head plus logits footprint for the last stage.
    pub fn nu_bytes(
        &self,
        spec: &ModelSpec,
        micro_batch_size: u64,
        tp_degree: u32,
        stage_index: usize,
        pp: usize,
        zero_dp: u32,
    ) -> f64 {
        assert!(
            pp >= 1 && stage_index < pp,
            "stage_index {stage_index} out of range for pp {pp}"
        );
        let tokens = spec.tokens_per_micro_batch(micro_batch_size) as f64;
        let mut nu = 0.0;
        if stage_index == 0 {
            // Embedding table states + its output activation held for each
            // in-flight micro-batch.
            let in_flight = (pp - stage_index) as f64;
            let embed_act = tokens * spec.hidden_size as f64 * 2.0 / tp_degree as f64;
            nu += self.embedding_state_bytes(spec, tp_degree, zero_dp) + embed_act * in_flight;
        }
        if stage_index == pp - 1 {
            // LM head states + the fp16 logits and their fp32 softmax buffer.
            let logits = tokens * spec.vocab_size as f64 * (2.0 + 4.0) / tp_degree as f64;
            nu += self.lm_head_state_bytes(spec, tp_degree, zero_dp) + logits;
        }
        nu
    }

    /// Total model-state bytes across the entire model (all layers + embedding
    /// + LM head), unsharded.  Used by the checkpoint/restart cost model.
    pub fn total_state_bytes(&self, spec: &ModelSpec) -> f64 {
        let per_param = self.param_and_grad_bytes_per_param + self.optimizer_bytes_per_param;
        spec.total_params() as f64 * per_param
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ModelSpec {
        ModelSpec::llama2_70b()
    }

    #[test]
    fn activations_shrink_with_tp_degree() {
        let m = MemoryModel::default();
        let s = spec();
        let a1 = m.activation_forward_bytes(&s, 1, 1);
        let a8 = m.activation_forward_bytes(&s, 1, 8);
        assert!((a1 / a8 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero1_sharding_reduces_state_bytes() {
        let m = MemoryModel::default();
        let s = spec();
        let dp1 = m.layer_state_bytes(&s, 8, 1);
        let dp4 = m.layer_state_bytes(&s, 8, 4);
        assert!(dp4 < dp1);
        // Only the optimizer part shrinks, params+grads stay.
        assert!(dp4 > m.layer_state_bytes(&s, 8, u32::MAX / 2) * 0.99);
    }

    #[test]
    fn mu_decreases_along_the_pipeline() {
        // Later stages hold fewer in-flight activations (Theorem 3 rationale).
        let m = MemoryModel::default();
        let s = spec();
        let first = m.mu_bytes_per_layer(&s, 1, 8, 0, 8, 2);
        let mid = m.mu_bytes_per_layer(&s, 1, 8, 4, 8, 2);
        let last = m.mu_bytes_per_layer(&s, 1, 8, 7, 8, 2);
        assert!(first > mid && mid > last);
    }

    #[test]
    fn nu_is_zero_for_interior_stages() {
        let m = MemoryModel::default();
        let s = spec();
        assert_eq!(m.nu_bytes(&s, 1, 8, 2, 8, 2), 0.0);
        assert!(m.nu_bytes(&s, 1, 8, 0, 8, 2) > 0.0);
        assert!(m.nu_bytes(&s, 1, 8, 7, 8, 2) > 0.0);
    }

    #[test]
    fn single_stage_pipeline_counts_both_embedding_and_head() {
        let m = MemoryModel::default();
        let s = spec();
        let nu = m.nu_bytes(&s, 1, 8, 0, 1, 1);
        assert!(nu > m.embedding_state_bytes(&s, 8, 1));
        assert!(nu > m.lm_head_state_bytes(&s, 8, 1));
    }

    #[test]
    fn activation_checkpointing_reduces_mu() {
        let s = spec();
        let full = MemoryModel::default();
        let ac = MemoryModel::with_activation_checkpointing();
        let mu_full = full.mu_bytes_per_layer(&s, 1, 8, 0, 8, 2);
        let mu_ac = ac.mu_bytes_per_layer(&s, 1, 8, 0, 8, 2);
        assert!(mu_ac < mu_full);
    }

    #[test]
    fn total_state_bytes_is_16_bytes_per_param() {
        let m = MemoryModel::default();
        let s = spec();
        let expected = s.total_params() as f64 * 16.0;
        assert!((m.total_state_bytes(&s) - expected).abs() < 1.0);
    }
}
