//! Pipeline-division solver (Eq. (4) of the paper).
//!
//! After GPU grouping, the planner must split the tensor-parallel groups across
//! `DP` training pipelines and decide how many micro-batches each pipeline
//! receives.  Most groups share the majority straggling rate `ŷ` ("fast"
//! groups) while a handful of groups are slower ("slow" groups).  The paper
//! formulates the division as a MINLP over
//!
//! * `h_i ∈ ℕ` — number of fast groups in pipeline `i`,
//! * `q_{i,k} ∈ {0,1}` — whether slow group `k` lands in pipeline `i`,
//! * `m_i ∈ ℕ` — micro-batches of pipeline `i`,
//!
//! minimizing `max_i m_i / W_i` where `W_i = h_i / ŷ + Σ_k q_{i,k} / y_k` is the
//! relaxed per-pipeline throughput (harmonic capacity of its groups).
//!
//! The solver enumerates slow-group assignments exactly when the search space
//! is small (the common case: at most a handful of slow groups) and falls back
//! to a deterministic local search otherwise (used by the 1024-GPU scalability
//! experiment of Appendix A.2).  Fast groups are then distributed greedily to
//! balance the capacities, and micro-batches are split with the exact min-max
//! allocator.
//!
//! # Hot-path structure
//!
//! This is where the planner spends essentially all of its time, so the
//! per-candidate scoring is allocation-free: every buffer it needs (counts,
//! capacities, weights, micro-batch amounts) lives in the thread-local
//! `DivisionScratch` arena, sized by `dp`/`ms` and reused across calls.
//! Fast-group capacities come from a prefix table built by the seed's own
//! repeated addition.  Everything else follows the frozen seed in
//! [`crate::reference`] step for step, and the results are bit-identical to it.
//! Most of the remaining speed comes from the min-max allocator's threshold
//! memo (see [`crate::minmax`]).

use crate::minmax::solve_minmax_allocation_into;
use std::cell::RefCell;

/// Input description of a pipeline-division problem.
#[derive(Debug, Clone, PartialEq)]
pub struct DivisionProblem {
    /// Number of pipelines (the data-parallel degree).
    pub dp: usize,
    /// Number of "fast" (majority-rate) groups available.
    pub fast_count: usize,
    /// The majority group straggling rate `ŷ`.
    pub fast_rate: f64,
    /// Straggling rates of the slow groups.
    pub slow_rates: Vec<f64>,
    /// Total number of micro-batches to distribute (`B / b`).
    pub num_micro_batches: u64,
    /// Minimum number of groups each pipeline must receive (each pipeline needs
    /// at least one stage; memory considerations can raise this bound).
    pub min_groups_per_pipeline: usize,
    /// Upper bound on enumeration work before switching to local search.
    pub exact_enumeration_limit: u64,
}

impl DivisionProblem {
    /// Convenience constructor with sensible defaults for the enumeration limit
    /// and the one-group-per-pipeline lower bound.
    pub fn new(
        dp: usize,
        fast_count: usize,
        fast_rate: f64,
        slow_rates: Vec<f64>,
        num_micro_batches: u64,
    ) -> Self {
        Self {
            dp,
            fast_count,
            fast_rate,
            slow_rates,
            num_micro_batches,
            min_groups_per_pipeline: 1,
            exact_enumeration_limit: 200_000,
        }
    }

    fn total_groups(&self) -> usize {
        self.fast_count + self.slow_rates.len()
    }
}

/// A solution to the pipeline-division problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Division {
    /// Number of fast groups assigned to each pipeline.
    pub fast_per_pipeline: Vec<usize>,
    /// For each slow group, the index of the pipeline it is assigned to.
    pub slow_assignment: Vec<usize>,
    /// Micro-batches assigned to each pipeline.
    pub micro_batches: Vec<u64>,
    /// Relaxed per-pipeline capacities `W_i` (for diagnostics).
    pub capacities: Vec<f64>,
    /// Objective value `max_i m_i / W_i` (relative units; multiply by
    /// `L * τ(b)` outside to obtain a time).
    pub objective: f64,
}

impl Division {
    /// Groups (fast + slow counts) per pipeline.
    pub fn groups_per_pipeline(&self) -> Vec<usize> {
        let mut counts = self.fast_per_pipeline.clone();
        for &p in &self.slow_assignment {
            counts[p] += 1;
        }
        counts
    }
}

/// Errors from the division solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivisionError {
    /// `dp` was zero.
    ZeroPipelines,
    /// There are fewer groups than `dp * min_groups_per_pipeline`.
    NotEnoughGroups { groups: usize, required: usize },
}

impl std::fmt::Display for DivisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivisionError::ZeroPipelines => write!(f, "cannot divide groups into zero pipelines"),
            DivisionError::NotEnoughGroups { groups, required } => write!(
                f,
                "only {groups} groups available but {required} are required"
            ),
        }
    }
}

impl std::error::Error for DivisionError {}

/// Reusable flat buffers for the division search.
///
/// All vectors are sized by `dp`, `ms` (= number of slow groups) or
/// `fast_count` in [`DivisionScratch::prepare`]; after a warm-up call on a
/// thread, scoring a candidate touches no heap at all.
#[derive(Debug, Default)]
struct DivisionScratch {
    /// Current slow-group assignment (the mixed-radix counter), length `ms`.
    assignment: Vec<usize>,
    /// Best assignment found so far, length `ms`.
    best_assignment: Vec<usize>,
    /// Slow groups per pipeline for `assignment`, length `dp`.
    slow_counts: Vec<usize>,
    /// Σ 1/y_k of the slow groups in each pipeline (seed summation order),
    /// length `dp`.
    slow_capacity: Vec<f64>,
    /// Fast groups per pipeline for the current candidate, length `dp`.
    fast: Vec<usize>,
    /// Working capacities for the greedy fast-group distribution, length `dp`.
    greedy_capacity: Vec<f64>,
    /// Final harmonic capacities `W_i` of the current candidate, length `dp`.
    capacities: Vec<f64>,
    /// Micro-batch weights `1/W_i`, length `dp`.
    weights: Vec<f64>,
    /// Micro-batch amounts from the min-max allocator, length `dp`.
    amounts: Vec<u64>,
    /// `fast_prefix[h]` = harmonic capacity of `h` fast groups, computed by the
    /// same repeated addition as `harmonic_capacity`, length `fast_count + 1`.
    fast_prefix: Vec<f64>,
    /// `slow_units[k]` = `1/y_k` when `y_k` is finite and positive, else `0.0`
    /// (adding `+0.0` is bit-identical to the seed's skip), length `ms`.
    slow_units: Vec<f64>,
    /// `1/ŷ` under the greedy distribution's validity test, else `0.0`.
    fast_unit: f64,
    /// Slow-group visit order for the local-search seeding, length `ms`.
    order: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<DivisionScratch> = RefCell::new(DivisionScratch::default());
}

impl DivisionScratch {
    /// Size every buffer for `problem` and precompute the per-group capacity
    /// contributions.  Existing heap capacity is reused.
    fn prepare(&mut self, problem: &DivisionProblem) {
        let dp = problem.dp;
        let ms = problem.slow_rates.len();
        self.assignment.clear();
        self.assignment.resize(ms, 0);
        self.best_assignment.clear();
        self.best_assignment.resize(ms, 0);
        self.slow_counts.clear();
        self.slow_counts.resize(dp, 0);
        self.slow_capacity.clear();
        self.slow_capacity.resize(dp, 0.0);
        self.fast.clear();
        self.fast.resize(dp, 0);
        self.greedy_capacity.clear();
        self.greedy_capacity.resize(dp, 0.0);
        self.capacities.clear();
        self.capacities.resize(dp, 0.0);
        self.weights.clear();
        self.weights.resize(dp, 0.0);
        self.order.clear();

        self.fast_unit = if problem.fast_rate > 0.0 && problem.fast_rate.is_finite() {
            1.0 / problem.fast_rate
        } else {
            0.0
        };
        // `harmonic_capacity` filters on `is_finite && > 0` (the same test as
        // `fast_unit`) and left-folds the reciprocals; `fast_prefix[h]`
        // reproduces that fold for `h` copies of the fast rate by the same
        // repeated addition.
        self.fast_prefix.clear();
        self.fast_prefix.reserve(problem.fast_count + 1);
        let mut acc = 0.0_f64;
        self.fast_prefix.push(acc);
        for _ in 0..problem.fast_count {
            acc += self.fast_unit;
            self.fast_prefix.push(acc);
        }
        self.slow_units.clear();
        self.slow_units.extend(problem.slow_rates.iter().map(|&y| {
            if y.is_finite() && y > 0.0 {
                1.0 / y
            } else {
                0.0
            }
        }));
    }

    /// Derive `slow_counts`/`slow_capacity` from `assignment` from scratch
    /// (ascending-`k` fold, the seed's summation order).
    fn init_slots(&mut self) {
        self.slow_counts.fill(0);
        self.slow_capacity.fill(0.0);
        for (&p, &u) in self.assignment.iter().zip(self.slow_units.iter()) {
            self.slow_counts[p] += 1;
            self.slow_capacity[p] += u;
        }
    }

    /// Advance the mixed-radix counter by one (position 0 first, the seed's
    /// order) and re-derive the slot state.  Returns `false` when the counter
    /// wraps (enumeration exhausted).
    fn advance(&mut self, dp: usize) -> bool {
        for pos in 0..self.assignment.len() {
            self.assignment[pos] += 1;
            if self.assignment[pos] < dp {
                self.init_slots();
                return true;
            }
            self.assignment[pos] = 0;
        }
        false
    }

    /// Reassign slow group `k` to pipeline `p` (local-search move).
    fn move_digit(&mut self, k: usize, p: usize) {
        self.assignment[k] = p;
        self.init_slots();
    }

    /// Score the current assignment: distribute the fast groups greedily,
    /// derive the harmonic capacities, and split the micro-batches exactly.
    ///
    /// Returns the objective, or NaN when the candidate is infeasible (cannot
    /// satisfy the minimum-groups bound, has a zero-capacity pipeline, or the
    /// allocator rejects it).  Every arithmetic step replicates the seed's
    /// expressions so the returned bits are identical.
    fn score_current(&mut self, problem: &DivisionProblem, min_groups: usize) -> f64 {
        let dp = problem.dp;
        // Minimum-groups fill (seed: `distribute_fast_groups` preamble).
        let mut remaining = problem.fast_count;
        for (f, &have_slow) in self.fast.iter_mut().zip(self.slow_counts.iter()) {
            let need = min_groups.saturating_sub(have_slow);
            if need > remaining {
                return f64::NAN;
            }
            *f = need;
            remaining -= need;
        }
        // Greedy balancing on the seed's working capacity expression.
        let unit = self.fast_unit;
        for ((g, &s), &f) in self
            .greedy_capacity
            .iter_mut()
            .zip(self.slow_capacity.iter())
            .zip(self.fast.iter())
        {
            *g = s + f as f64 * unit;
        }
        // One argmin rescan per fast group (`min_by` keeps the first among
        // ties), as in the seed.
        for _ in 0..remaining {
            let (imin, _) = self
                .greedy_capacity
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("dp >= 1 is validated at entry");
            self.fast[imin] += 1;
            self.greedy_capacity[imin] += unit;
        }
        // Canonical capacities in the seed's `evaluate` fold order: all fast
        // contributions first (prefix table), then slow groups ascending in k.
        for (c, &f) in self.capacities.iter_mut().zip(self.fast.iter()) {
            *c = self.fast_prefix[f];
        }
        for (&p, &u) in self.assignment.iter().zip(self.slow_units.iter()) {
            self.capacities[p] += u;
        }
        for (w, &c) in self.weights.iter_mut().zip(self.capacities.iter()) {
            if c <= 0.0 {
                return f64::NAN;
            }
            *w = 1.0 / c;
        }
        debug_assert_eq!(self.weights.len(), dp);
        solve_minmax_allocation_into(
            &self.weights,
            problem.num_micro_batches,
            &[],
            &mut self.amounts,
        )
        .unwrap_or(f64::NAN)
    }

    /// Materialize the winning candidate: restore `best_assignment`, rescore it
    /// (deterministic, so the bits match the accepted evaluation) and clone the
    /// arena buffers into an owned [`Division`].
    fn rebuild(&mut self, problem: &DivisionProblem, min_groups: usize) -> Division {
        self.assignment.copy_from_slice(&self.best_assignment);
        self.init_slots();
        let objective = self.score_current(problem, min_groups);
        debug_assert!(
            !objective.is_nan(),
            "the accepted best assignment must rescore as feasible"
        );
        Division {
            fast_per_pipeline: self.fast.clone(),
            slow_assignment: self.best_assignment.clone(),
            micro_batches: self.amounts.clone(),
            capacities: self.capacities.clone(),
            objective,
        }
    }
}

/// Exact enumeration over every slow-group assignment.  Expects `prepare` +
/// `init_slots` to have run.  Returns whether any feasible candidate was
/// found; the winner is left in `scratch.best_assignment`.
fn enumerate(scratch: &mut DivisionScratch, problem: &DivisionProblem, min_groups: usize) -> bool {
    let mut have = false;
    let mut best = 0.0_f64;
    loop {
        let obj = scratch.score_current(problem, min_groups);
        if !obj.is_nan() && (!have || obj < best - 1e-12) {
            have = true;
            best = obj;
            scratch.best_assignment.copy_from_slice(&scratch.assignment);
        }
        if !scratch.advance(problem.dp) {
            break;
        }
    }
    have
}

/// Deterministic local search for oversized search spaces: greedy seeding
/// (heaviest slow group to the emptiest pipeline) followed by single-move hill
/// climbing, replicating the seed's move acceptance (including its
/// revert-to-round-start-value behavior) exactly.
fn local_search(
    scratch: &mut DivisionScratch,
    problem: &DivisionProblem,
    min_groups: usize,
) -> bool {
    let dp = problem.dp;
    let ms = problem.slow_rates.len();
    // Greedy seeding: visit slow groups from slowest to fastest (stable order
    // on ties), round-robin over the pipelines with the fewest slow groups.
    scratch.order.clear();
    scratch.order.extend(0..ms);
    let rates = &problem.slow_rates;
    scratch
        .order
        .sort_by(|&a, &b| rates[b].total_cmp(&rates[a]));
    scratch.slow_counts.fill(0);
    for &k in scratch.order.iter() {
        let (p, _) = scratch
            .slow_counts
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .expect("dp >= 1 is validated at entry");
        scratch.assignment[k] = p;
        scratch.slow_counts[p] += 1;
    }
    scratch.init_slots();
    let mut have = false;
    let mut best = 0.0_f64;
    let obj = scratch.score_current(problem, min_groups);
    if !obj.is_nan() {
        have = true;
        best = obj;
        scratch.best_assignment.copy_from_slice(&scratch.assignment);
    }
    // Hill climbing over single reassignments.
    let mut improved = true;
    let mut rounds = 0_usize;
    while improved && rounds < 64 {
        improved = false;
        rounds += 1;
        for k in 0..ms {
            let original = scratch.assignment[k];
            for p in 0..dp {
                if p == original {
                    continue;
                }
                scratch.move_digit(k, p);
                let before = if have { best } else { f64::INFINITY };
                let obj = scratch.score_current(problem, min_groups);
                if !obj.is_nan() && (!have || obj < best - 1e-12) {
                    have = true;
                    best = obj;
                    scratch.best_assignment.copy_from_slice(&scratch.assignment);
                }
                let after = if have { best } else { f64::INFINITY };
                if after < before - 1e-12 {
                    improved = true;
                } else {
                    // The seed reverts to the value `assignment[k]` held at the
                    // start of the k-loop, even if an earlier p was accepted.
                    scratch.move_digit(k, original);
                }
            }
        }
    }
    have
}

/// Solve the pipeline-division problem.
pub fn divide_pipelines(problem: &DivisionProblem) -> Result<Division, DivisionError> {
    let dp = problem.dp;
    if dp == 0 {
        return Err(DivisionError::ZeroPipelines);
    }
    let min_groups = problem.min_groups_per_pipeline.max(1);
    let required = dp * min_groups;
    if problem.total_groups() < required {
        return Err(DivisionError::NotEnoughGroups {
            groups: problem.total_groups(),
            required,
        });
    }

    let ms = problem.slow_rates.len();
    let search_space = (dp as u64).checked_pow(ms as u32).unwrap_or(u64::MAX);

    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        scratch.prepare(problem);
        let found = if search_space <= problem.exact_enumeration_limit {
            scratch.init_slots();
            enumerate(scratch, problem, min_groups)
        } else {
            local_search(scratch, problem, min_groups)
        };
        if !found {
            return Err(DivisionError::NotEnoughGroups {
                groups: problem.total_groups(),
                required,
            });
        }
        Ok(scratch.rebuild(problem, min_groups))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::divide_pipelines_reference;
    use proptest::prelude::*;

    #[test]
    fn homogeneous_groups_split_evenly() {
        let p = DivisionProblem::new(4, 16, 1.0, vec![], 64);
        let d = divide_pipelines(&p).unwrap();
        assert_eq!(d.fast_per_pipeline, vec![4, 4, 4, 4]);
        assert_eq!(d.micro_batches, vec![16, 16, 16, 16]);
        assert!((d.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn slow_group_attracts_fewer_micro_batches() {
        // 2 pipelines, 7 fast groups + 1 group 4x slower.
        let p = DivisionProblem::new(2, 7, 1.0, vec![4.0], 64);
        let d = divide_pipelines(&p).unwrap();
        let slow_pipeline = d.slow_assignment[0];
        let fast_pipeline = 1 - slow_pipeline;
        assert!(d.micro_batches[slow_pipeline] <= d.micro_batches[fast_pipeline]);
        assert_eq!(d.micro_batches.iter().sum::<u64>(), 64);
    }

    #[test]
    fn capacities_are_balanced_by_fast_groups() {
        // Pipeline receiving the slow group should receive more fast groups so
        // its overall capacity stays close to its peer.
        let p = DivisionProblem::new(2, 6, 1.0, vec![3.0, 3.0], 64);
        let d = divide_pipelines(&p).unwrap();
        let spread = (d.capacities[0] - d.capacities[1]).abs();
        assert!(spread <= 1.0 + 1e-9, "capacities should be nearly balanced");
    }

    #[test]
    fn min_groups_constraint_is_enforced() {
        let mut p = DivisionProblem::new(2, 2, 1.0, vec![2.0, 2.0], 16);
        p.min_groups_per_pipeline = 2;
        let d = divide_pipelines(&p).unwrap();
        for count in d.groups_per_pipeline() {
            assert!(count >= 2);
        }
    }

    #[test]
    fn errors_on_impossible_instances() {
        let p = DivisionProblem::new(0, 4, 1.0, vec![], 16);
        assert!(matches!(
            divide_pipelines(&p),
            Err(DivisionError::ZeroPipelines)
        ));
        let p = DivisionProblem::new(8, 2, 1.0, vec![], 16);
        assert!(matches!(
            divide_pipelines(&p),
            Err(DivisionError::NotEnoughGroups { .. })
        ));
    }

    #[test]
    fn local_search_path_matches_exact_on_small_instance() {
        let mut exact = DivisionProblem::new(3, 6, 1.0, vec![2.0, 3.0, 5.0], 48);
        let mut heuristic = exact.clone();
        exact.exact_enumeration_limit = 1_000_000;
        heuristic.exact_enumeration_limit = 1; // force local search
        let de = divide_pipelines(&exact).unwrap();
        let dh = divide_pipelines(&heuristic).unwrap();
        // Local search must be within a few percent of the exact optimum here.
        assert!(dh.objective <= de.objective * 1.10 + 1e-9);
    }

    #[test]
    fn many_slow_groups_large_instance_completes() {
        // 1024-GPU style instance: 128 fast groups, 16 slow groups, DP 8.
        let slow: Vec<f64> = (0..16).map(|i| 2.0 + (i as f64) * 0.25).collect();
        let p = DivisionProblem::new(8, 120, 1.0, slow, 1024);
        let d = divide_pipelines(&p).unwrap();
        assert_eq!(d.micro_batches.iter().sum::<u64>(), 1024);
        assert_eq!(d.slow_assignment.len(), 16);
    }

    fn assert_bitwise_equal(a: &Division, b: &Division, ctx: &str) {
        assert_eq!(a.fast_per_pipeline, b.fast_per_pipeline, "{ctx}");
        assert_eq!(a.slow_assignment, b.slow_assignment, "{ctx}");
        assert_eq!(a.micro_batches, b.micro_batches, "{ctx}");
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "{ctx}: objective {} vs {}",
            a.objective,
            b.objective
        );
        let ca: Vec<u64> = a.capacities.iter().map(|c| c.to_bits()).collect();
        let cb: Vec<u64> = b.capacities.iter().map(|c| c.to_bits()).collect();
        assert_eq!(ca, cb, "{ctx}");
    }

    fn assert_matches_reference(p: &DivisionProblem) {
        let new = divide_pipelines(p);
        let old = divide_pipelines_reference(p);
        match (new, old) {
            (Ok(a), Ok(b)) => assert_bitwise_equal(&a, &b, &format!("{p:?}")),
            (Err(a), Err(b)) => assert_eq!(a, b, "{p:?}"),
            (a, b) => panic!("divergent outcomes for {p:?}: new={a:?} reference={b:?}"),
        }
    }

    #[test]
    fn optimized_division_is_bitwise_equal_to_seed_reference_on_fixed_cases() {
        let mut cases: Vec<DivisionProblem> = vec![
            DivisionProblem::new(4, 16, 1.0, vec![], 64),
            DivisionProblem::new(2, 7, 1.0, vec![4.0], 64),
            DivisionProblem::new(3, 6, 1.0, vec![2.0, 3.0, 5.0], 48),
            DivisionProblem::new(1, 3, 2.0, vec![1.0, 9.0], 17),
            DivisionProblem::new(5, 0, 1.0, vec![1.0, 2.0, 3.0, 4.0, 5.0], 100),
            // Degenerate rates: infinite fast rate (fast groups contribute no
            // capacity) and an infinite slow rate (skipped by the harmonic sum).
            DivisionProblem::new(2, 2, f64::INFINITY, vec![2.0, 2.0], 16),
            DivisionProblem::new(3, 4, 1.0, vec![f64::INFINITY, 2.0], 32),
            // Zero micro-batches: every candidate ties at objective 0.
            DivisionProblem::new(4, 4, 1.0, vec![2.0], 0),
            // Equal rates everywhere: maximal 1e-12 tie pressure on the fold.
            DivisionProblem::new(4, 8, 1.0, vec![1.0, 1.0, 1.0], 96),
        ];
        let mut min2 = DivisionProblem::new(2, 2, 1.0, vec![2.0, 2.0], 16);
        min2.min_groups_per_pipeline = 2;
        cases.push(min2);
        let mut ls = DivisionProblem::new(3, 6, 1.0, vec![2.0, 3.0, 5.0, 1.5], 48);
        ls.exact_enumeration_limit = 4; // force the local-search path
        cases.push(ls);
        for p in &cases {
            assert_matches_reference(p);
        }
    }

    #[test]
    fn optimized_division_matches_reference_on_pseudorandom_sweep() {
        // Deterministic xorshift sweep for breadth beyond the fixed cases.
        let mut state = 0x243f_6a88_85a3_08d3_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..80 {
            let dp = 1 + (next() % 4) as usize;
            let fast_count = (next() % 12) as usize;
            let ms = (next() % 5) as usize;
            let fast_rate = ((next() % 380) + 20) as f64 / 100.0;
            let slow: Vec<f64> = (0..ms)
                .map(|_| ((next() % 900) + 100) as f64 / 100.0)
                .collect();
            let total = next() % 256;
            let mut p = DivisionProblem::new(dp, fast_count, fast_rate, slow, total);
            if next() % 4 == 0 {
                p.min_groups_per_pipeline = 1 + (next() % 2) as usize;
            }
            if next() % 5 == 0 {
                p.exact_enumeration_limit = 2; // exercise local search
            }
            assert_matches_reference(&p);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The arena-backed search returns a `Division` bitwise-equal to the
        /// seed-reference run.
        #[test]
        fn optimized_search_is_bitwise_equal_to_seed_reference(
            dp in 1usize..5,
            fast_count in 0usize..12,
            fast_rate in 0.2f64..4.0,
            slow in prop::collection::vec(0.5f64..10.0, 0..5),
            total in 1u64..512,
        ) {
            let p = DivisionProblem::new(dp, fast_count, fast_rate, slow, total);
            let new = divide_pipelines(&p);
            let old = divide_pipelines_reference(&p);
            match (new, old) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.fast_per_pipeline, &b.fast_per_pipeline);
                    prop_assert_eq!(&a.slow_assignment, &b.slow_assignment);
                    prop_assert_eq!(&a.micro_batches, &b.micro_batches);
                    prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                    let ca: Vec<u64> = a.capacities.iter().map(|c| c.to_bits()).collect();
                    let cb: Vec<u64> = b.capacities.iter().map(|c| c.to_bits()).collect();
                    prop_assert_eq!(ca, cb);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => panic!("divergent outcomes: new={a:?} reference={b:?}"),
            }
        }
    }

    #[test]
    fn steady_state_enumeration_is_allocation_free() {
        // 8^4 = 4096 enumerated candidates.  After a warm call on this thread,
        // a full search may only allocate O(1) times (the returned Division's
        // four owned vectors and small bookkeeping) — nothing per candidate.
        let p = DivisionProblem::new(8, 24, 1.0, vec![2.0, 2.5, 3.0, 3.5], 256);
        let warm = divide_pipelines(&p).unwrap();
        let (allocs, d) = crate::alloc_counter::count_allocations(|| divide_pipelines(&p));
        let d = d.unwrap();
        assert_eq!(d, warm);
        assert!(
            allocs <= 32,
            "steady-state solve allocated {allocs} times across 4096 candidates"
        );
    }
}
