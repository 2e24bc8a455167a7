//! Traced probes of single layers, driven through their public functions.
//!
//! * [`replay_lattice`] re-evaluates every point of a planned candidate
//!   lattice through `group_cluster`, `divide_groups`,
//!   `order_and_assign_layers`, `assign_data` and `CostModel::step_time`, in
//!   the order the planner evaluates a candidate, and checks that the replay
//!   reproduces the lattice's feasible/infeasible pattern, every estimate bit
//!   and the chosen plan.
//! * [`wire_probe`] encodes and decodes the workload's own requests and
//!   outcomes; the byte counts are computed from the encoding, not observed on
//!   a socket.

use crate::common::{share, Report, Tracer};
use malleus::core::assignment::assign_data;
use malleus::core::orchestration::{divide_groups, order_and_assign_layers};
use malleus::core::{group_cluster, GroupingResult, ParallelizationPlan, PipelinePlan};
use malleus::prelude::*;
use malleus::wire::{from_bytes, to_bytes};
use std::collections::BTreeSet;
use std::hint::black_box;

/// Call counts and summed seconds per replayed layer function.
#[derive(Default)]
pub struct LayerTotals {
    pub lattices: u64,
    pub group_calls: u64,
    pub group_s: f64,
    pub divide_calls: u64,
    pub divide_s: f64,
    /// Division time spent on candidates whose layer assignment then failed.
    pub divide_wasted_s: f64,
    pub order_calls: u64,
    pub order_s: f64,
    pub assign_calls: u64,
    pub assign_s: f64,
    pub cost_calls: u64,
    pub cost_s: f64,
}

impl LayerTotals {
    pub fn report(&self, r: &mut Report) {
        let per_call_us = |s: f64, n: u64| share(s, n as f64) * 1e6;
        r.set(
            "grouping.group_cluster_us",
            per_call_us(self.group_s, self.group_calls),
        );
        r.set("grouping.group_cluster.calls", self.group_calls as f64);
        r.set(
            "orchestration.divide_groups_us",
            per_call_us(self.divide_s, self.divide_calls),
        );
        r.set(
            "orchestration.divide_groups.calls",
            self.divide_calls as f64,
        );
        r.set(
            "orchestration.order_assign_us",
            per_call_us(self.order_s, self.order_calls),
        );
        r.set("orchestration.order_assign.calls", self.order_calls as f64);
        r.set(
            "orchestration.wasted_division_share",
            share(self.divide_wasted_s, self.divide_s),
        );
        r.set(
            "assignment.assign_data_us",
            per_call_us(self.assign_s, self.assign_calls),
        );
        r.set("assignment.assign_data.calls", self.assign_calls as f64);
        r.set(
            "cost.step_time_us",
            per_call_us(self.cost_s, self.cost_calls),
        );
        r.set("cost.step_time.calls", self.cost_calls as f64);
        r.note(format!(
            "layer replay: {} lattices, {} divisions, {} orderings, {} data assignments, {} cost calls",
            self.lattices, self.divide_calls, self.order_calls, self.assign_calls, self.cost_calls
        ));
    }
}

/// Re-evaluate one lattice point the way the planner does; `None` when the
/// candidate is infeasible.
#[allow(clippy::too_many_arguments)]
fn replay_point(
    tracer: &mut Tracer,
    parent: u64,
    planner: &Planner,
    grouping: &GroupingResult,
    snapshot: &ClusterSnapshot,
    dp: usize,
    b: u64,
    nonuniform_division: bool,
    t: &mut LayerTotals,
) -> Option<(ParallelizationPlan, f64)> {
    let cost = &planner.cost;
    let config = &planner.config;
    let num_layers = cost.coeffs.spec.num_layers as u64;
    let total_micro_batches = config.global_batch_size / b;

    let (division, secs) = tracer.span("orchestration.divide_groups", parent, || {
        divide_groups(
            cost,
            grouping,
            snapshot,
            dp,
            total_micro_batches,
            b,
            nonuniform_division,
            1,
        )
    });
    t.divide_calls += 1;
    t.divide_s += secs;
    let division = division.ok()?;

    let mut assignments = Vec::with_capacity(dp);
    for pipeline_groups in &division.pipelines {
        let (assignment, s) = tracer.span("orchestration.order_and_assign_layers", parent, || {
            order_and_assign_layers(
                cost,
                pipeline_groups,
                snapshot,
                num_layers,
                b,
                dp as u32,
                !config.nonuniform_layers,
            )
        });
        t.order_calls += 1;
        t.order_s += s;
        match assignment {
            Some(a) => assignments.push(a),
            None => {
                t.divide_wasted_s += secs;
                return None;
            }
        }
    }

    let objectives: Vec<f64> = assignments.iter().map(|a| a.objective).collect();
    let (micro_batches, s) = tracer.span("assignment.assign_data", parent, || {
        assign_data(&objectives, total_micro_batches, !config.nonuniform_data)
    });
    t.assign_calls += 1;
    t.assign_s += s;
    let micro_batches = micro_batches?;
    if micro_batches.contains(&0) {
        return None;
    }
    let pipelines: Vec<PipelinePlan> = assignments
        .iter()
        .zip(&micro_batches)
        .map(|(a, &m)| PipelinePlan {
            stages: a.stages.clone(),
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
    if plan
        .validate(num_layers as u32, config.global_batch_size)
        .is_err()
        || !cost.memory_feasible(&plan)
    {
        return None;
    }
    let (estimate, s) = tracer.span("cost.step_time", parent, || cost.step_time(&plan, snapshot));
    t.cost_calls += 1;
    t.cost_s += s;
    Some((plan, estimate))
}

/// Replay the lattice `outcome` was chosen from.  Returns a description of
/// the first disagreement with the planner, if any.
pub fn replay_lattice(
    tracer: &mut Tracer,
    parent: u64,
    planner: &Planner,
    snapshot: &ClusterSnapshot,
    outcome: &PlanOutcome,
    t: &mut LayerTotals,
) -> Result<(), String> {
    let lattice = outcome
        .lattice
        .as_ref()
        .ok_or("outcome carries no lattice")?;
    let config = &planner.config;
    let mut groupings = Vec::new();
    for &max_tp in &config.candidate_tp_degrees {
        let (grouping, s) = tracer.span("grouping.group_cluster", parent, || {
            group_cluster(
                snapshot,
                &planner.cost.coeffs,
                max_tp,
                1,
                config.straggler_threshold,
                config.enable_group_splitting,
            )
        });
        t.group_calls += 1;
        t.group_s += s;
        groupings.push(grouping);
    }
    t.lattices += 1;

    let mut best: Option<(ParallelizationPlan, f64)> = None;
    for (index, entry) in lattice.entries.iter().enumerate() {
        let grouping = groupings
            .iter()
            .find(|g| g.max_tp == entry.max_tp)
            .ok_or_else(|| format!("no grouping for tp={}", entry.max_tp))?;
        let replayed = replay_point(
            tracer,
            parent,
            planner,
            grouping,
            snapshot,
            entry.dp,
            entry.micro_batch,
            entry.nonuniform_division,
            t,
        );
        let replayed_bits = replayed.as_ref().map(|(_, e)| e.to_bits());
        if replayed_bits != entry.estimated_step_time.map(f64::to_bits) {
            return Err(format!(
                "lattice point {index} (tp={} dp={} b={}): planner {:?}, replay {:?}",
                entry.max_tp,
                entry.dp,
                entry.micro_batch,
                entry.estimated_step_time,
                replayed.as_ref().map(|(_, e)| *e)
            ));
        }
        if let Some((plan, estimate)) = replayed {
            if best.as_ref().is_none_or(|(_, e)| estimate < e - 1e-12) {
                best = Some((plan, estimate));
            }
        }
    }
    match best {
        Some((plan, estimate))
            if plan == outcome.plan
                && estimate.to_bits() == outcome.estimated_step_time.to_bits() =>
        {
            Ok(())
        }
        _ => Err("replayed argmin differs from the planner's plan".into()),
    }
}

/// Encode/decode timings and computed sizes over the workload's own values.
pub fn wire_probe(requests: &[PlanRequest], outcomes: &[PlannedOutcome], r: &mut Report) {
    const REPS: u32 = 20;
    let mut encode_s = 0.0;
    let mut decode_s = 0.0;
    let mut ops = 0u64;
    let mut request_bytes = 0usize;
    let mut response_bytes = 0usize;
    let mut mismatches = 0u64;
    for request in requests {
        let bytes = to_bytes(request);
        request_bytes += bytes.len();
        let t0 = std::time::Instant::now();
        for _ in 0..REPS {
            black_box(to_bytes(black_box(request)));
        }
        encode_s += t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        for _ in 0..REPS {
            black_box(from_bytes::<PlanRequest>(black_box(&bytes)).ok());
        }
        decode_s += t0.elapsed().as_secs_f64();
        ops += REPS as u64;
        if from_bytes::<PlanRequest>(&bytes).ok().as_ref() != Some(request) {
            mismatches += 1;
        }
    }
    for outcome in outcomes {
        let bytes = to_bytes(outcome);
        response_bytes += bytes.len();
        let t0 = std::time::Instant::now();
        for _ in 0..REPS {
            black_box(to_bytes(black_box(outcome)));
        }
        encode_s += t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        for _ in 0..REPS {
            black_box(from_bytes::<PlannedOutcome>(black_box(&bytes)).ok());
        }
        decode_s += t0.elapsed().as_secs_f64();
        ops += REPS as u64;
        if from_bytes::<PlannedOutcome>(&bytes).ok().as_ref() != Some(outcome) {
            mismatches += 1;
        }
    }
    r.set(
        "wire.request_bytes",
        share(request_bytes as f64, requests.len() as f64),
    );
    r.set(
        "wire.response_bytes",
        share(response_bytes as f64, outcomes.len() as f64),
    );
    r.set("wire.encode_us", share(encode_s, ops as f64) * 1e6);
    r.set("wire.decode_us", share(decode_s, ops as f64) * 1e6);
    r.set("wire.values", (requests.len() + outcomes.len()) as f64);
    r.attempted += (requests.len() + outcomes.len()) as u64;
    for _ in 0..mismatches {
        r.fail("wire roundtrip changed a value");
    }
}
