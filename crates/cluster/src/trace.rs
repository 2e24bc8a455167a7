//! Straggler traces: the paper's six situations (S1–S6) and synthetic
//! generators for robustness testing.
//!
//! §7.1 defines the evaluation trace as a sequence of straggler *situations*:
//!
//! * **S1** — one level-1 straggler;
//! * **S2** — one level-3 straggler;
//! * **S3** — one level-1 and one level-3 straggler on different nodes;
//! * **S4** — one level-1, one level-2 and one level-3 straggler on three
//!   different nodes;
//! * **S5** — eight level-1 stragglers on one node plus one level-2 straggler
//!   on another node;
//! * **S6** — eight level-1 stragglers on the same node.
//!
//! The end-to-end experiment runs Normal → S1 → … → S6 → Normal so both the
//! appearance and the disappearance of stragglers are exercised.

use crate::straggler::StragglerLevel;
use crate::topology::{Cluster, GpuId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A named straggler situation: the set of GPUs that deviate from healthy.
#[derive(Debug, Clone, PartialEq)]
pub struct Situation {
    /// Human-readable name (e.g. `"S3"`).
    pub name: String,
    /// Straggling GPUs and their rates; every unlisted GPU is healthy.
    pub rates: Vec<(GpuId, f64)>,
}

impl Situation {
    /// The all-healthy situation.
    pub fn normal() -> Self {
        Self {
            name: "Normal".to_string(),
            rates: Vec::new(),
        }
    }

    /// Number of straggling GPUs in this situation.
    pub fn num_stragglers(&self) -> usize {
        self.rates.iter().filter(|(_, r)| *r > 1.0).count()
    }

    /// The full per-GPU rate vector for a cluster of `num_gpus` devices.
    pub fn rate_vector(&self, num_gpus: usize) -> Vec<f64> {
        let mut rates = vec![1.0; num_gpus];
        for &(gpu, rate) in &self.rates {
            rates[gpu.index()] = rate;
        }
        rates
    }
}

/// The paper's canonical situations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperSituation {
    /// No stragglers.
    Normal,
    /// One level-1 straggler.
    S1,
    /// One level-3 straggler.
    S2,
    /// Level-1 + level-3 on different nodes.
    S3,
    /// Level-1 + level-2 + level-3 on different nodes.
    S4,
    /// Eight level-1 on one node + one level-2 on another node.
    S5,
    /// Eight level-1 on one node.
    S6,
}

impl PaperSituation {
    /// All situations in trace order (without the surrounding Normal phases).
    pub fn all() -> [PaperSituation; 6] {
        [
            PaperSituation::S1,
            PaperSituation::S2,
            PaperSituation::S3,
            PaperSituation::S4,
            PaperSituation::S5,
            PaperSituation::S6,
        ]
    }

    /// Short name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            PaperSituation::Normal => "Normal",
            PaperSituation::S1 => "S1",
            PaperSituation::S2 => "S2",
            PaperSituation::S3 => "S3",
            PaperSituation::S4 => "S4",
            PaperSituation::S5 => "S5",
            PaperSituation::S6 => "S6",
        }
    }

    /// Materialize the situation onto a concrete cluster.  Straggling GPUs are
    /// placed deterministically: the first straggler on GPU 0 of node 0, the
    /// second on GPU 0 of node 1, and so on, matching the placements used in
    /// the paper's case studies (x₀, x₈, x₁₆ …).
    pub fn situation(&self, cluster: &Cluster) -> Situation {
        let gpn = cluster.gpus_per_node() as u32;
        let gpu_on = |node: u32, local: u32| GpuId(node * gpn + local);
        let rates = match self {
            PaperSituation::Normal => vec![],
            PaperSituation::S1 => vec![(gpu_on(0, 0), StragglerLevel::Level1.rate())],
            PaperSituation::S2 => vec![(gpu_on(0, 0), StragglerLevel::Level3.rate())],
            PaperSituation::S3 => vec![
                (gpu_on(0, 0), StragglerLevel::Level3.rate()),
                (gpu_on(1, 0), StragglerLevel::Level1.rate()),
            ],
            PaperSituation::S4 => vec![
                (gpu_on(0, 0), StragglerLevel::Level3.rate()),
                (gpu_on(1, 0), StragglerLevel::Level2.rate()),
                (gpu_on(2, 0), StragglerLevel::Level1.rate()),
            ],
            PaperSituation::S5 => {
                let mut v: Vec<(GpuId, f64)> =
                    (0..gpn.min(8)).map(|l| (gpu_on(0, l), 2.62)).collect();
                v.push((gpu_on(1, 0), 3.8));
                v
            }
            PaperSituation::S6 => (0..gpn.min(8)).map(|l| (gpu_on(0, l), 2.62)).collect(),
        };
        Situation {
            name: self.name().to_string(),
            rates,
        }
    }
}

/// One phase of a trace: a situation held for a number of training iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePhase {
    /// The straggler situation active during this phase.
    pub situation: Situation,
    /// Number of training iterations the situation persists.
    pub iterations: u32,
}

/// A full straggler trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Ordered phases.
    pub phases: Vec<TracePhase>,
}

impl Trace {
    /// The paper's end-to-end trace: Normal → S1 → S2 → S3 → S4 → S5 → S6 →
    /// Normal, each held for `iterations_per_phase` iterations.
    pub fn paper_trace(cluster: &Cluster, iterations_per_phase: u32) -> Self {
        let mut phases = Vec::new();
        phases.push(TracePhase {
            situation: Situation::normal(),
            iterations: iterations_per_phase,
        });
        for s in PaperSituation::all() {
            phases.push(TracePhase {
                situation: s.situation(cluster),
                iterations: iterations_per_phase,
            });
        }
        phases.push(TracePhase {
            situation: Situation::normal(),
            iterations: iterations_per_phase,
        });
        Self { phases }
    }

    /// A reproducible random trace: each phase picks a random subset of GPUs
    /// and random straggler levels; occasionally all stragglers vanish.
    pub fn random(
        cluster: &Cluster,
        num_phases: usize,
        iterations_per_phase: u32,
        max_stragglers_per_phase: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = [
            StragglerLevel::Level1,
            StragglerLevel::Level2,
            StragglerLevel::Level3,
            StragglerLevel::Level8,
        ];
        let mut phases = Vec::with_capacity(num_phases);
        for p in 0..num_phases {
            let count = if rng.random_bool(0.2) {
                0
            } else {
                rng.random_range(1..=max_stragglers_per_phase.max(1))
            };
            let mut chosen: Vec<u32> = (0..cluster.num_gpus() as u32).collect();
            chosen.shuffle(&mut rng);
            chosen.truncate(count);
            let rates = chosen
                .into_iter()
                .map(|g| {
                    let level = levels[rng.random_range(0..levels.len())];
                    (GpuId(g), level.rate())
                })
                .collect();
            phases.push(TracePhase {
                situation: Situation {
                    name: format!("R{p}"),
                    rates,
                },
                iterations: iterations_per_phase,
            });
        }
        Self { phases }
    }

    /// Total number of iterations across all phases.
    pub fn total_iterations(&self) -> u64 {
        self.phases.iter().map(|p| p.iterations as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_situations_have_expected_straggler_counts() {
        let cluster = Cluster::paper_testbed();
        let counts: Vec<usize> = PaperSituation::all()
            .iter()
            .map(|s| s.situation(&cluster).num_stragglers())
            .collect();
        assert_eq!(counts, vec![1, 1, 2, 3, 9, 8]);
    }

    #[test]
    fn s3_and_s4_stragglers_live_on_distinct_nodes() {
        let cluster = Cluster::paper_testbed();
        for s in [PaperSituation::S3, PaperSituation::S4] {
            let sit = s.situation(&cluster);
            let nodes: std::collections::HashSet<u32> =
                sit.rates.iter().map(|(g, _)| cluster.node_of(*g)).collect();
            assert_eq!(nodes.len(), sit.rates.len());
        }
    }

    #[test]
    fn s5_is_node_plus_gpu_granular() {
        let cluster = Cluster::paper_testbed();
        let sit = PaperSituation::S5.situation(&cluster);
        let node0: Vec<_> = sit
            .rates
            .iter()
            .filter(|(g, _)| cluster.node_of(*g) == 0)
            .collect();
        assert_eq!(node0.len(), 8);
        assert_eq!(sit.num_stragglers(), 9);
    }

    #[test]
    fn paper_trace_starts_and_ends_normal() {
        let cluster = Cluster::paper_testbed();
        let trace = Trace::paper_trace(&cluster, 20);
        assert_eq!(trace.phases.len(), 8);
        assert_eq!(trace.phases.first().unwrap().situation.num_stragglers(), 0);
        assert_eq!(trace.phases.last().unwrap().situation.num_stragglers(), 0);
        assert_eq!(trace.total_iterations(), 160);
    }

    #[test]
    fn rate_vector_expands_to_full_cluster() {
        let cluster = Cluster::paper_testbed();
        let sit = PaperSituation::S2.situation(&cluster);
        let v = sit.rate_vector(cluster.num_gpus());
        assert_eq!(v.len(), 64);
        assert_eq!(v[0], 5.42);
        assert!(v[1..].iter().all(|&r| r == 1.0));
    }

    #[test]
    fn random_trace_is_reproducible() {
        let cluster = Cluster::paper_testbed();
        let a = Trace::random(&cluster, 10, 5, 4, 42);
        let b = Trace::random(&cluster, 10, 5, 4, 42);
        let c = Trace::random(&cluster, 10, 5, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for phase in &a.phases {
            assert!(phase.situation.num_stragglers() <= 4);
        }
    }
}
