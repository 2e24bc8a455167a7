//! DeepSpeed-style ZeRO-3 (fully-sharded data parallel) execution model.
//!
//! The DeepSpeed baseline of the paper shards all model states across every
//! GPU and gathers each layer's parameters on demand in both the forward and
//! the backward pass.  Because those per-layer gathers are *globally
//! synchronous*, a single straggler stalls every GPU at every layer — which is
//! why the paper finds ZeRO-3 more straggler-sensitive than hybrid parallelism
//! (§7.2).  This module reproduces that behaviour analytically.

use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_model::{layer_flops_forward, MemoryModel, ProfiledCoefficients};

/// Configuration of a ZeRO-3 / FSDP run (cf. Table 7's tuned configurations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zero3Config {
    /// Ulysses-style sequence-parallel degree (1 = none).
    pub sequence_parallel: u32,
    /// Micro-batch size per data-parallel group.
    pub micro_batch_size: u64,
    /// Whether full activation checkpointing is enabled.
    pub activation_checkpointing: bool,
}

impl Default for Zero3Config {
    fn default() -> Self {
        Self {
            sequence_parallel: 2,
            micro_batch_size: 2,
            activation_checkpointing: true,
        }
    }
}

/// Result of a simulated ZeRO-3 step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zero3Report {
    /// End-to-end step time in seconds.
    pub step_time: f64,
    /// Model FLOPS utilization.
    pub mfu: f64,
    /// Peak per-GPU memory in bytes.
    pub peak_memory_bytes: f64,
    /// Whether the configuration fits in device memory.
    pub memory_feasible: bool,
}

/// Simulate one ZeRO-3 training step over the given set of active GPUs.
pub fn simulate_zero3_step(
    coeffs: &ProfiledCoefficients,
    snapshot: &ClusterSnapshot,
    active_gpus: &[GpuId],
    global_batch_size: u64,
    config: &Zero3Config,
) -> Option<Zero3Report> {
    let n = active_gpus.len();
    if n == 0 {
        return None;
    }
    let sp = config.sequence_parallel.max(1) as usize;
    if !n.is_multiple_of(sp) {
        return None;
    }
    let dp_groups = n / sp;
    if dp_groups == 0 || global_batch_size < dp_groups as u64 {
        return None;
    }
    let spec = &coeffs.spec;
    let hw = &coeffs.hardware;
    let b = config.micro_batch_size.max(1);
    // Sequences per DP group, rounded up to full micro-batches.
    let seqs_per_group = global_batch_size.div_ceil(dp_groups as u64);
    let micro_iters = seqs_per_group.div_ceil(b);

    // The slowest participating GPU gates every per-layer gather.
    let max_rate = active_gpus
        .iter()
        .map(|g| snapshot.rate(*g))
        .fold(1.0_f64, f64::max);
    if !max_rate.is_finite() {
        return None;
    }

    // Per layer, per micro-batch: gather fp16 params, compute forward and
    // backward (sequence-parallel shards the tokens), re-gather for backward,
    // reduce-scatter the gradients.
    let param_bytes = spec.params_per_layer() as f64 * 2.0;
    let collective = |bytes: f64| {
        (n as f64 - 1.0) / n as f64 * bytes / hw.inter_node_bandwidth + hw.collective_latency
    };
    let gather_fwd = collective(param_bytes);
    let gather_bwd = collective(param_bytes);
    let reduce_grads = collective(param_bytes);
    let flops_fwd = layer_flops_forward(spec, b) / sp as f64;
    let recompute_factor = if config.activation_checkpointing {
        4.0
    } else {
        3.0
    };
    let compute = recompute_factor * flops_fwd / hw.effective_flops() * max_rate;
    let per_layer = gather_fwd + gather_bwd + reduce_grads + compute;
    let step_compute = micro_iters as f64 * spec.num_layers as f64 * per_layer;

    // Optimizer update over the local 1/n shard of the fp32 states.
    let optimizer_time = coeffs.memory.total_state_bytes(spec) / n as f64 / 1.5e12;
    let step_time = step_compute + optimizer_time;

    // Memory: the 1/n shard of all states, one layer's gathered parameters,
    // plus retained activations of the local micro-batch.
    let memory_model = if config.activation_checkpointing {
        MemoryModel::with_activation_checkpointing()
    } else {
        coeffs.memory.clone()
    };
    let state_shard = coeffs.memory.total_state_bytes(spec) / n as f64;
    let gathered_layer = param_bytes;
    let activations = spec.num_layers as f64
        * memory_model.activation_forward_bytes(spec, b, config.sequence_parallel);
    let logits = (b * spec.seq_len * spec.vocab_size) as f64 * 6.0 / sp as f64;
    let peak_memory_bytes = state_shard + gathered_layer + activations + logits;
    let memory_feasible = peak_memory_bytes <= hw.usable_memory_bytes();

    let mfu = coeffs.step_flops(global_batch_size) / (step_time * n as f64 * hw.gpu_peak_flops);

    Some(Zero3Report {
        step_time,
        mfu,
        peak_memory_bytes,
        memory_feasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::Cluster;
    use malleus_model::{HardwareParams, ModelSpec};

    fn coeffs(spec: ModelSpec) -> ProfiledCoefficients {
        ProfiledCoefficients::derive(spec, HardwareParams::a800_cluster())
    }

    fn all_gpus(n: u32) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn healthy_zero3_step_is_plausible() {
        let c = coeffs(ModelSpec::llama2_70b());
        let cluster = Cluster::paper_testbed();
        let r = simulate_zero3_step(
            &c,
            &cluster.snapshot(),
            &all_gpus(64),
            64,
            &Zero3Config::default(),
        )
        .unwrap();
        assert!(r.step_time > 3.0 && r.step_time < 120.0, "{}", r.step_time);
        assert!(r.memory_feasible);
    }

    #[test]
    fn single_straggler_stalls_everything() {
        // ZeRO-3 is globally synchronous per layer: one straggler slows the
        // whole step roughly by its rate.
        let c = coeffs(ModelSpec::llama2_70b());
        let mut cluster = Cluster::paper_testbed();
        let healthy = simulate_zero3_step(
            &c,
            &cluster.snapshot(),
            &all_gpus(64),
            64,
            &Zero3Config::default(),
        )
        .unwrap()
        .step_time;
        cluster.set_rate(GpuId(0), 5.42);
        let straggled = simulate_zero3_step(
            &c,
            &cluster.snapshot(),
            &all_gpus(64),
            64,
            &Zero3Config::default(),
        )
        .unwrap()
        .step_time;
        assert!(straggled > healthy * 2.5, "{straggled} vs {healthy}");
    }

    #[test]
    fn without_activation_checkpointing_memory_grows() {
        let c = coeffs(ModelSpec::llama2_70b());
        let cluster = Cluster::paper_testbed();
        let with_ac = simulate_zero3_step(
            &c,
            &cluster.snapshot(),
            &all_gpus(64),
            64,
            &Zero3Config {
                activation_checkpointing: true,
                ..Zero3Config::default()
            },
        )
        .unwrap();
        let without_ac = simulate_zero3_step(
            &c,
            &cluster.snapshot(),
            &all_gpus(64),
            64,
            &Zero3Config {
                activation_checkpointing: false,
                ..Zero3Config::default()
            },
        )
        .unwrap();
        assert!(without_ac.peak_memory_bytes > with_ac.peak_memory_bytes);
        assert!(without_ac.step_time < with_ac.step_time);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let c = coeffs(ModelSpec::llama2_7b());
        let cluster = Cluster::paper_testbed();
        // Sequence-parallel degree not dividing the GPU count.
        let cfg = Zero3Config {
            sequence_parallel: 3,
            ..Zero3Config::default()
        };
        assert!(simulate_zero3_step(&c, &cluster.snapshot(), &all_gpus(64), 64, &cfg).is_none());
        // No GPUs.
        assert!(
            simulate_zero3_step(&c, &cluster.snapshot(), &[], 64, &Zero3Config::default())
                .is_none()
        );
    }

    #[test]
    fn failed_gpu_makes_step_impossible() {
        let c = coeffs(ModelSpec::llama2_7b());
        let mut cluster = Cluster::paper_testbed();
        cluster.set_rate(GpuId(0), f64::INFINITY);
        assert!(simulate_zero3_step(
            &c,
            &cluster.snapshot(),
            &all_gpus(64),
            64,
            &Zero3Config::default()
        )
        .is_none());
    }
}
