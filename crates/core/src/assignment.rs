//! Lower-level work assignment (§4.2): layer assignment within each pipeline
//! (Eq. (2)) and training-data assignment across pipelines (Eq. (3)).
//!
//! Both problems are integer min-max allocations solved exactly by
//! `malleus-solver`.  Layer assignment additionally honours the Appendix B.4
//! memory constraints, and stages that receive zero layers are dropped from the
//! pipeline — this is the mechanism by which heavy stragglers are removed from
//! training and parked as standby devices.

use crate::cost::CostModel;
use crate::plan::{StagePlan, TpGroup};
use malleus_cluster::ClusterSnapshot;
use malleus_solver::solve_minmax_allocation;

/// Result of assigning layers to the stages of one pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerAssignment {
    /// The surviving stages (zero-layer stages removed), in pipeline order.
    pub stages: Vec<StagePlan>,
    /// TP groups whose stage received zero layers (their GPUs go to standby).
    pub dropped_groups: Vec<TpGroup>,
    /// The per-micro-batch bottleneck `o_i = max_j y_{i,j} · l_{i,j}`.
    pub objective: f64,
}

/// Assign `num_layers` layers to the ordered `groups` of one pipeline.
///
/// When `uniform` is set, layers are split evenly (the Megatron-style baseline
/// and the Figure 9 ablation); otherwise the Eq. (2) ILP is solved.  Returns
/// `None` when no feasible assignment exists under the memory model.
pub fn assign_layers(
    cost: &CostModel,
    groups: &[TpGroup],
    snapshot: &ClusterSnapshot,
    num_layers: u64,
    micro_batch_size: u64,
    zero_dp: u32,
    uniform: bool,
) -> Option<LayerAssignment> {
    let mut active: Vec<TpGroup> = groups.to_vec();
    let mut dropped: Vec<TpGroup> = Vec::new();
    loop {
        if active.is_empty() {
            return None;
        }
        let pp = active.len();
        let weights: Vec<f64> = active
            .iter()
            .map(|g| {
                cost.coeffs
                    .group_rate(g.tp_degree(), g.max_rate(snapshot), micro_batch_size)
            })
            .collect();
        let caps: Vec<Option<u64>> = active
            .iter()
            .enumerate()
            .map(|(j, g)| cost.max_layers(g.tp_degree(), j, pp, micro_batch_size, zero_dp))
            .collect();
        // A stage whose ν alone exceeds the budget is unusable in this position.
        if caps.iter().any(|c| c.is_none()) {
            return None;
        }
        let layers: Vec<u64> = if uniform {
            let base = num_layers / pp as u64;
            let extra = num_layers % pp as u64;
            let layers: Vec<u64> = (0..pp)
                .map(|j| base + if (j as u64) < extra { 1 } else { 0 })
                .collect();
            for (j, &l) in layers.iter().enumerate() {
                if let Some(cap) = caps[j] {
                    if l > cap {
                        return None;
                    }
                }
            }
            layers
        } else {
            match solve_minmax_allocation(&weights, num_layers, &caps) {
                Ok(result) => result.amounts,
                Err(_) => return None,
            }
        };

        if !uniform && layers.contains(&0) {
            // Drop zero-layer stages (their straggling rate is too high to be
            // worth any work) and re-solve with the shorter pipeline, whose
            // memory coefficients are more favourable.
            let mut next_active = Vec::new();
            for (g, &l) in active.iter().zip(layers.iter()) {
                if l == 0 {
                    dropped.push(g.clone());
                } else {
                    next_active.push(g.clone());
                }
            }
            active = next_active;
            continue;
        }

        let objective = layers
            .iter()
            .zip(weights.iter())
            .map(|(&l, &w)| l as f64 * w)
            .fold(0.0, f64::max);
        let stages = active
            .iter()
            .zip(layers.iter())
            .map(|(g, &l)| StagePlan {
                group: g.clone(),
                layers: l as u32,
            })
            .collect();
        return Some(LayerAssignment {
            stages,
            dropped_groups: dropped,
            objective,
        });
    }
}

/// Upper bound on the layers that `groups`, divided into `dp` pipelines, can
/// hold under the Appendix B.4 memory model: if it is below `dp · L`, every
/// division of these groups fails [`assign_layers`] in some pipeline, so the
/// planner skips the candidate before the Eq. (4) division.
///
/// Why it is an upper bound:
///
/// * **Caps by distance.** Let `c(t, k) = max_layers(t, 1, k + 2, b, dp)`,
///   with `None` read as 0: the cap of a TP-`t` stage `k` stages before the
///   end of its pipeline.  Its μ has the same operands as the μ of any stage
///   at that distance (`k` micro-batches in flight).  Its ν is the LM head
///   plus logits for `k = 0` and zero for `k ≥ 1`, never more than a real
///   stage's ν (which may add the embedding).  Float `+`, `/` and `floor`
///   are monotone, so every cap [`assign_layers`] uses at position `j` of a
///   `pp`-stage pipeline is at most `c(t, pp − 1 − j)` after rounding too.
/// * **Distance slots.** A feasible division puts `L` layers on the
///   surviving stages of each pipeline.  Each pipeline has exactly one stage
///   at each distance below its length, so at most `dp` stages share a
///   distance, and every pipeline has one at `k = 0`.  Stages are distinct
///   groups, so a pipeline has at most `n − dp + 1` of them.
///
/// Two relaxations of that structure each bound the total; the result is
/// the smaller:
///
/// * **(a) slots:** `min(dp, n − k·dp)` slots at each distance `k`, each
///   worth `max_t c(t, k)` over the TP degrees present.  Filling distances
///   in order is the best case because all `dp` slots at `k = 0` are forced
///   and `c(·, k)` does not grow with `k ≥ 1` (μ grows with `k`).
/// * **(b) classes:** the `n_t` groups of TP degree `t` hold at most the sum
///   of the `n_t` largest values of `{c(t, k)` repeated `dp` times`}`.  The
///   values are sorted, since the LM head can make `k = 0` the smallest.
///   Distances past `⌈n/dp⌉` never enter that sum because `dp·⌈n/dp⌉ ≥ n_t`
///   values at `k ≥ 1` precede them.
///
/// Returns 0 when `dp` is zero or exceeds the group count (no division
/// exists); sums saturate at `u64::MAX`.
pub fn layer_capacity_bound(
    cost: &CostModel,
    groups: &[TpGroup],
    dp: usize,
    micro_batch_size: u64,
) -> u64 {
    let n = groups.len();
    if dp == 0 || n < dp {
        return 0;
    }
    // Distances 0..=max_k cover both relaxations (see above).
    let max_k = (n - dp).min(n.div_ceil(dp));
    let mut classes: Vec<(u32, usize)> = Vec::new();
    for group in groups {
        let t = group.tp_degree();
        match classes.iter_mut().find(|(d, _)| *d == t) {
            Some((_, count)) => *count += 1,
            None => classes.push((t, 1)),
        }
    }
    let caps: Vec<Vec<u64>> = classes
        .iter()
        .map(|&(t, _)| {
            (0..=max_k)
                .map(|k| {
                    cost.max_layers(t, 1, k + 2, micro_batch_size, dp as u32)
                        .unwrap_or(0)
                })
                .collect()
        })
        .collect();

    let mut slot_bound = 0u64;
    for k in (0..=max_k).take_while(|k| k * dp < n) {
        let slots = dp.min(n - k * dp) as u64;
        let best = caps.iter().map(|c| c[k]).max().unwrap_or(0);
        slot_bound = slot_bound.saturating_add(slots.saturating_mul(best));
    }

    let mut class_bound = 0u64;
    for (&(_, count), class_caps) in classes.iter().zip(&caps) {
        let mut sorted = class_caps.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut left = count;
        for cap in sorted {
            let take = left.min(dp);
            class_bound = class_bound.saturating_add((take as u64).saturating_mul(cap));
            left -= take;
            if left == 0 {
                break;
            }
        }
    }
    slot_bound.min(class_bound)
}

/// Assign `total_micro_batches` micro-batches across pipelines whose
/// per-micro-batch bottlenecks are `objectives` (Eq. (3)).
///
/// With `uniform` set, micro-batches are split evenly (remainder round-robin),
/// which is what the uniform-data baselines and the Figure 9 ablation do.
pub fn assign_data(
    objectives: &[f64],
    total_micro_batches: u64,
    uniform: bool,
) -> Option<Vec<u64>> {
    if objectives.is_empty() {
        return None;
    }
    if uniform {
        let dp = objectives.len() as u64;
        let base = total_micro_batches / dp;
        let extra = total_micro_batches % dp;
        return Some(
            (0..dp)
                .map(|i| base + if i < extra { 1 } else { 0 })
                .collect(),
        );
    }
    solve_minmax_allocation(objectives, total_micro_batches, &[])
        .ok()
        .map(|r| r.amounts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};

    fn cost_model(spec: ModelSpec) -> CostModel {
        CostModel::new(ProfiledCoefficients::derive(
            spec,
            HardwareParams::a800_cluster(),
        ))
    }

    fn groups_of(sizes: &[u32]) -> Vec<TpGroup> {
        let mut next = 0u32;
        sizes
            .iter()
            .map(|&s| {
                let gpus = (next..next + s).map(GpuId).collect();
                next += s;
                TpGroup::new(gpus)
            })
            .collect()
    }

    #[test]
    fn healthy_equal_groups_get_equal_layers() {
        let cost = cost_model(ModelSpec::llama2_32b());
        let cluster = Cluster::homogeneous(4, 8);
        let groups = groups_of(&[8, 8, 8, 8]);
        let a = assign_layers(&cost, &groups, &cluster.snapshot(), 60, 1, 1, false).unwrap();
        let layers: Vec<u32> = a.stages.iter().map(|s| s.layers).collect();
        assert_eq!(layers.iter().sum::<u32>(), 60);
        assert_eq!(layers, vec![15, 15, 15, 15]);
        assert!(a.dropped_groups.is_empty());
    }

    #[test]
    fn straggling_stage_receives_fewer_layers() {
        let cost = cost_model(ModelSpec::llama2_32b());
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 2.57);
        let groups = groups_of(&[8, 8, 8, 8]);
        let a = assign_layers(&cost, &groups, &cluster.snapshot(), 60, 1, 1, false).unwrap();
        let layers: Vec<u32> = a.stages.iter().map(|s| s.layers).collect();
        assert_eq!(layers.iter().sum::<u32>(), 60);
        assert!(layers[0] < layers[1], "straggling stage got {layers:?}");
    }

    #[test]
    fn heavy_straggler_stage_is_dropped() {
        // A TP-1 group with a very heavy straggler should end up with zero
        // layers and be removed from the pipeline.
        let cost = cost_model(ModelSpec::llama2_7b());
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 100.0);
        let mut groups = groups_of(&[1]);
        groups.extend(groups_of(&[8, 8, 8]).into_iter().map(|g| {
            // shift ids to avoid overlap with the straggler group
            TpGroup::new(g.gpus.iter().map(|id| GpuId(id.0 + 8)).collect())
        }));
        let a = assign_layers(&cost, &groups, &cluster.snapshot(), 32, 1, 1, false).unwrap();
        assert_eq!(a.dropped_groups.len(), 1);
        assert_eq!(a.dropped_groups[0].gpus, vec![GpuId(0)]);
        assert_eq!(a.stages.len(), 3);
        assert_eq!(a.stages.iter().map(|s| s.layers).sum::<u32>(), 32);
    }

    #[test]
    fn uniform_assignment_ignores_rates() {
        let cost = cost_model(ModelSpec::llama2_32b());
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 5.42);
        let groups = groups_of(&[8, 8, 8, 8]);
        let a = assign_layers(&cost, &groups, &cluster.snapshot(), 60, 1, 1, true).unwrap();
        let layers: Vec<u32> = a.stages.iter().map(|s| s.layers).collect();
        assert_eq!(layers, vec![15, 15, 15, 15]);
    }

    #[test]
    fn infeasible_when_memory_cannot_hold_model() {
        // 110B on a single 8-GPU group with micro-batch 1: one stage cannot
        // hold 80 layers of optimizer state.
        let cost = cost_model(ModelSpec::llama2_110b());
        let cluster = Cluster::homogeneous(1, 8);
        let groups = groups_of(&[8]);
        let a = assign_layers(&cost, &groups, &cluster.snapshot(), 80, 1, 1, false);
        assert!(a.is_none());
    }

    #[test]
    fn capacity_bound_separates_fitting_and_oversized_models() {
        // 110B cannot fit one 8-GPU stage (see above); 32B fits four.
        let cost = cost_model(ModelSpec::llama2_110b());
        assert!(layer_capacity_bound(&cost, &groups_of(&[8]), 1, 1) < 80);
        let cost = cost_model(ModelSpec::llama2_32b());
        let groups = groups_of(&[8, 8, 8, 8]);
        assert!(layer_capacity_bound(&cost, &groups, 2, 1) >= 2 * 60);
        assert_eq!(layer_capacity_bound(&cost, &groups, 5, 1), 0, "dp > groups");
    }

    #[test]
    fn data_assignment_balances_by_objective() {
        let m = assign_data(&[2.0, 1.0, 1.0], 64, false).unwrap();
        assert_eq!(m.iter().sum::<u64>(), 64);
        assert!(m[0] < m[1]);
        let uniform = assign_data(&[2.0, 1.0, 1.0], 64, true).unwrap();
        assert_eq!(uniform, vec![22, 21, 21]);
    }

    #[test]
    fn data_assignment_rejects_empty_input() {
        assert!(assign_data(&[], 64, false).is_none());
    }
}
