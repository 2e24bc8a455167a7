//! Migration and restart time models (§5.1, §7.2).
//!
//! Migration fuses the per-slice transfers into batched send-recv calls and
//! packs four layers per message; its wall-clock time is bounded by the busiest
//! GPU's total traffic over the inter-node fabric.  The restart path (used by
//! the Megatron/DeepSpeed "w/ Restart" baselines and by failure recovery) must
//! save a checkpoint, re-initialize the framework and reload the checkpoint —
//! the paper measures 115–442 s for this, versus 1–5 s for migration.

use crate::collective::batched_send_recv_time;
use malleus_cluster::ClusterSnapshot;
use malleus_core::MigrationPlan;
use malleus_model::ProfiledCoefficients;

/// Cost summary of a migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Wall-clock migration time in seconds.
    pub time: f64,
    /// Total bytes moved.
    pub total_bytes: f64,
    /// Number of fused messages issued.
    pub messages: usize,
}

/// Number of layers packed into one fused migration message (§5.1 uses 4).
pub const LAYERS_PER_MESSAGE: usize = 4;

/// Estimate the wall-clock time of a migration plan.
pub fn migration_time(
    coeffs: &ProfiledCoefficients,
    snapshot: &ClusterSnapshot,
    migration: &MigrationPlan,
) -> MigrationCost {
    if migration.is_empty() {
        return MigrationCost {
            time: 0.0,
            total_bytes: 0.0,
            messages: 0,
        };
    }
    let traffic_map = migration.per_gpu_traffic();
    let mut per_gpu = vec![(0.0, 0.0); snapshot.num_gpus()];
    for (gpu, (received, sent)) in traffic_map {
        if gpu.index() < per_gpu.len() {
            per_gpu[gpu.index()] = (received, sent);
        }
    }
    let messages = migration.layers_touched().div_ceil(LAYERS_PER_MESSAGE);
    MigrationCost {
        time: batched_send_recv_time(&coeffs.hardware, &per_gpu, messages),
        total_bytes: migration.total_bytes(),
        messages,
    }
}

/// Estimate the time to restart a training job: save a checkpoint (sharded
/// across the nodes), re-initialize the framework (resource allocation,
/// process-group construction) and reload the checkpoint.
pub fn restart_time(coeffs: &ProfiledCoefficients, num_nodes: usize) -> f64 {
    let hw = &coeffs.hardware;
    let state_bytes = coeffs.memory.total_state_bytes(&coeffs.spec);
    let per_node_bytes = state_bytes / num_nodes.max(1) as f64;
    let save = per_node_bytes / hw.checkpoint_bandwidth;
    let load = per_node_bytes / hw.checkpoint_bandwidth;
    save + hw.restart_init_seconds + load
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_core::{plan_migration, ParallelizationPlan};
    use malleus_model::{HardwareParams, ModelSpec};

    fn coeffs(spec: ModelSpec) -> ProfiledCoefficients {
        ProfiledCoefficients::derive(spec, HardwareParams::a800_cluster())
    }

    #[test]
    fn empty_migration_is_free() {
        let c = coeffs(ModelSpec::llama2_7b());
        let snapshot = Cluster::homogeneous(2, 8).snapshot();
        let cost = migration_time(&c, &snapshot, &MigrationPlan::default());
        assert_eq!(cost.time, 0.0);
        assert_eq!(cost.messages, 0);
    }

    #[test]
    fn migration_is_orders_of_magnitude_cheaper_than_restart() {
        // §7.2: migration takes ~1–5 s while restarting takes hundreds of
        // seconds.  Verify the same separation holds in the reproduction.
        let c = coeffs(ModelSpec::llama2_32b());
        let snapshot = Cluster::homogeneous(4, 8).snapshot();
        let gpus_a: Vec<GpuId> = (0..32).map(GpuId).collect();
        let mut gpus_b: Vec<GpuId> = (8..32).map(GpuId).collect();
        gpus_b.extend((0..8).map(GpuId));
        let old = ParallelizationPlan::uniform(&gpus_a, 2, 4, 4, 60, 64, 1).unwrap();
        let new = ParallelizationPlan::uniform(&gpus_b, 2, 4, 4, 60, 64, 1).unwrap();
        let migration = plan_migration(&old, &new, &c);
        let cost = migration_time(&c, &snapshot, &migration);
        let restart = restart_time(&c, 4);
        assert!(cost.time > 0.0);
        assert!(
            restart > cost.time * 10.0,
            "restart {restart} vs migration {}",
            cost.time
        );
        assert!(
            restart > 100.0,
            "restart should take minutes, got {restart}"
        );
        assert!(
            cost.time < 30.0,
            "migration should take seconds, got {}",
            cost.time
        );
    }

    #[test]
    fn restart_time_grows_with_model_size() {
        let small = restart_time(&coeffs(ModelSpec::llama2_7b()), 8);
        let large = restart_time(&coeffs(ModelSpec::llama2_110b()), 8);
        assert!(large > small);
    }

    #[test]
    fn message_count_respects_layer_packing() {
        let c = coeffs(ModelSpec::llama2_7b());
        let snapshot = Cluster::homogeneous(2, 8).snapshot();
        let gpus_a: Vec<GpuId> = (0..8).map(GpuId).collect();
        let gpus_b: Vec<GpuId> = (8..16).map(GpuId).collect();
        let old = ParallelizationPlan::uniform(&gpus_a, 1, 2, 4, 32, 8, 1).unwrap();
        let new = ParallelizationPlan::uniform(&gpus_b, 1, 2, 4, 32, 8, 1).unwrap();
        let migration = plan_migration(&old, &new, &c);
        let cost = migration_time(&c, &snapshot, &migration);
        assert_eq!(cost.messages, 32usize.div_ceil(LAYERS_PER_MESSAGE));
    }
}
