//! Model-state migration planning (§5.1).
//!
//! Model states are sharded following the paper's adjusted ZeRO-1 scheme: for a
//! given layer, let `TP_i` be the TP degree of the stage holding it in pipeline
//! `i` and `TP_max = max_i TP_i`.  The layer's states are cut into
//! `DP × TP_max` slices; each GPU of pipeline `i`'s owning group is responsible
//! for `TP_max / TP_i` slices.  When the plan changes, every slice whose owner
//! changed must be transferred — this module computes that (many-to-many) move
//! list; `malleus-sim` turns it into a migration time using the batched
//! send-recv model with 4-layer packing.

use crate::plan::ParallelizationPlan;
use malleus_cluster::GpuId;
use malleus_model::ProfiledCoefficients;
use std::collections::BTreeMap;

/// One model-state slice transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceMove {
    /// Model layer the slice belongs to.
    pub layer: u32,
    /// Data-parallel rank (pipeline index) of the replica.
    pub dp_rank: usize,
    /// Slice index within the layer's `TP_max` slices.
    pub slice: u32,
    /// Slice size in bytes.
    pub bytes: f64,
    /// Current owner.
    pub src: GpuId,
    /// New owner.
    pub dst: GpuId,
}

/// The full migration plan between two parallelization plans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MigrationPlan {
    /// All slice moves (src ≠ dst only).
    pub moves: Vec<SliceMove>,
}

impl MigrationPlan {
    /// Whether nothing needs to move.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Total bytes transferred.
    pub fn total_bytes(&self) -> f64 {
        self.moves.iter().map(|m| m.bytes).sum()
    }

    /// Per-GPU (received, sent) byte totals.
    pub fn per_gpu_traffic(&self) -> BTreeMap<GpuId, (f64, f64)> {
        let mut traffic: BTreeMap<GpuId, (f64, f64)> = BTreeMap::new();
        for m in &self.moves {
            traffic.entry(m.dst).or_insert((0.0, 0.0)).0 += m.bytes;
            traffic.entry(m.src).or_insert((0.0, 0.0)).1 += m.bytes;
        }
        traffic
    }

    /// Number of distinct layers touched by the migration.
    pub fn layers_touched(&self) -> usize {
        let mut layers: Vec<u32> = self.moves.iter().map(|m| m.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        layers.len()
    }
}

/// Owner GPU of slice `slice` (out of `tp_max`) of `layer` in pipeline
/// `dp_rank` of `plan`, or `None` when the plan does not cover the layer (e.g.
/// a failed replica).
fn slice_owner(
    plan: &ParallelizationPlan,
    dp_rank: usize,
    layer: u32,
    slice: u32,
    tp_max: u32,
) -> Option<GpuId> {
    let pipeline = plan.pipelines.get(dp_rank)?;
    let ranges = pipeline.layer_ranges();
    for (stage, (start, end)) in pipeline.stages.iter().zip(ranges) {
        if layer >= start && layer < end {
            let tp = stage.group.tp_degree();
            let member = (slice as u64 * tp as u64 / tp_max as u64) as usize;
            return stage.group.gpus.get(member).copied();
        }
    }
    None
}

/// TP degree of the stage owning `layer` in pipeline `dp_rank`, or 0.
fn layer_tp(plan: &ParallelizationPlan, dp_rank: usize, layer: u32) -> u32 {
    let Some(pipeline) = plan.pipelines.get(dp_rank) else {
        return 0;
    };
    for (stage, (start, end)) in pipeline.stages.iter().zip(pipeline.layer_ranges()) {
        if layer >= start && layer < end {
            return stage.group.tp_degree();
        }
    }
    0
}

/// Compute the slice moves required to transform `old` into `new`.
///
/// When the DP degree changed, replicas beyond the old DP degree are sourced
/// from replica 0 (a broadcast-style re-instantiation).
pub fn plan_migration(
    old: &ParallelizationPlan,
    new: &ParallelizationPlan,
    coeffs: &ProfiledCoefficients,
) -> MigrationPlan {
    let num_layers = coeffs.spec.num_layers;
    let layer_bytes = coeffs.state_bytes_per_layer();
    let mut moves = Vec::new();
    for dp_rank in 0..new.dp() {
        let src_rank = dp_rank.min(old.dp().saturating_sub(1));
        for layer in 0..num_layers {
            let old_tp = layer_tp(old, src_rank, layer);
            let new_tp = layer_tp(new, dp_rank, layer);
            if new_tp == 0 {
                continue; // new plan does not place this layer here (invalid plans only)
            }
            let tp_max = old_tp.max(new_tp).max(1);
            let slice_bytes = layer_bytes / tp_max as f64;
            for slice in 0..tp_max {
                let src = slice_owner(old, src_rank, layer, slice, tp_max);
                let dst = slice_owner(new, dp_rank, layer, slice, tp_max);
                match (src, dst) {
                    (Some(s), Some(d)) if s != d => moves.push(SliceMove {
                        layer,
                        dp_rank,
                        slice,
                        bytes: slice_bytes,
                        src: s,
                        dst: d,
                    }),
                    _ => {}
                }
            }
        }
    }
    MigrationPlan { moves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_model::{HardwareParams, ModelSpec};

    fn coeffs() -> ProfiledCoefficients {
        ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster())
    }

    fn gpu_ids(range: std::ops::Range<u32>) -> Vec<GpuId> {
        range.map(GpuId).collect()
    }

    #[test]
    fn identical_plans_need_no_migration() {
        let plan = ParallelizationPlan::uniform(&gpu_ids(0..16), 2, 2, 4, 32, 64, 1).unwrap();
        let m = plan_migration(&plan, &plan, &coeffs());
        assert!(m.is_empty());
        assert_eq!(m.total_bytes(), 0.0);
    }

    #[test]
    fn moving_a_stage_to_new_gpus_moves_its_layers() {
        let old = ParallelizationPlan::uniform(&gpu_ids(0..16), 2, 2, 4, 32, 64, 1).unwrap();
        // New plan uses a different set of GPUs for the second pipeline.
        let mut gpus = gpu_ids(0..8);
        gpus.extend(gpu_ids(16..24));
        let new = ParallelizationPlan::uniform(&gpus, 2, 2, 4, 32, 64, 1).unwrap();
        let m = plan_migration(&old, &new, &coeffs());
        assert!(!m.is_empty());
        // Exactly the 32 layers of the relocated replica are touched.
        assert_eq!(m.layers_touched(), 32);
        // Everything flows into the new GPUs 16..24.
        for mv in &m.moves {
            assert!(mv.dst.0 >= 16 && mv.dst.0 < 24);
        }
    }

    #[test]
    fn tp_degree_change_reshards_layers() {
        let old = ParallelizationPlan::uniform(&gpu_ids(0..8), 1, 1, 8, 32, 8, 1).unwrap();
        let new = ParallelizationPlan::uniform(&gpu_ids(0..8), 1, 2, 4, 32, 8, 1).unwrap();
        let m = plan_migration(&old, &new, &coeffs());
        // The first 16 layers stay on GPUs 0..4 (subset of their old owners),
        // but layers 16..32 move from GPUs 4..8's slices to GPUs 4..8 as a
        // narrower group — some slices must move.
        assert!(!m.is_empty());
        let c = coeffs();
        assert!(m.total_bytes() < c.spec.num_layers as f64 * c.state_bytes_per_layer());
    }

    #[test]
    fn total_bytes_conserved_per_move_granularity() {
        let old = ParallelizationPlan::uniform(&gpu_ids(0..16), 2, 2, 4, 32, 64, 1).unwrap();
        let mut gpus = gpu_ids(8..16);
        gpus.extend(gpu_ids(0..8));
        let new = ParallelizationPlan::uniform(&gpus, 2, 2, 4, 32, 64, 1).unwrap();
        let m = plan_migration(&old, &new, &coeffs());
        let traffic = m.per_gpu_traffic();
        let received: f64 = traffic.values().map(|(r, _)| r).sum();
        let sent: f64 = traffic.values().map(|(_, s)| s).sum();
        assert!((received - sent).abs() < 1e-6);
        assert!((received - m.total_bytes()).abs() < 1e-6);
    }

    #[test]
    fn dp_growth_sources_from_replica_zero() {
        let old = ParallelizationPlan::uniform(&gpu_ids(0..8), 1, 2, 4, 32, 8, 1).unwrap();
        let new = ParallelizationPlan::uniform(&gpu_ids(0..16), 2, 2, 4, 32, 8, 1).unwrap();
        let m = plan_migration(&old, &new, &coeffs());
        // The new second replica (GPUs 8..16) must receive data from replica 0.
        assert!(m.moves.iter().any(|mv| mv.dst.0 >= 8 && mv.src.0 < 8));
    }
}
