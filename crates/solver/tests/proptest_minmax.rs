//! Property-based tests for the min-max allocation solver.

use malleus_solver::minmax::{brute_force_minmax, solve_minmax_allocation};
use malleus_solver::reference::solve_minmax_allocation_reference;
use proptest::prelude::*;

/// Free, dead, subnormal, tiny, huge and near-overflow weights.
const EXTREME_WEIGHTS: [f64; 6] = [0.0, f64::INFINITY, 5e-324, 1e-300, 1e80, 1.7e308];

proptest! {
    // Bounded to 64 cases per property (tier-1 policy; the shim runner is
    // deterministic either way).
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver always returns a feasible allocation: amounts sum to the
    /// requested total and every capacity is respected.
    #[test]
    fn allocation_is_feasible(
        weights in prop::collection::vec(0.1f64..20.0, 1..12),
        total in 0u64..200,
        cap_seed in prop::collection::vec(prop::option::of(1u64..100), 0..12),
    ) {
        let caps: Vec<Option<u64>> = if cap_seed.len() == weights.len() {
            cap_seed
        } else {
            vec![None; weights.len()]
        };
        match solve_minmax_allocation(&weights, total, &caps) {
            Ok(result) => {
                prop_assert_eq!(result.amounts.iter().sum::<u64>(), total);
                for (j, &a) in result.amounts.iter().enumerate() {
                    if let Some(c) = caps[j] {
                        prop_assert!(a <= c);
                    }
                }
                let objective = result
                    .amounts
                    .iter()
                    .enumerate()
                    .map(|(j, &a)| weights[j] * a as f64)
                    .fold(0.0_f64, f64::max);
                prop_assert!((objective - result.objective).abs() < 1e-6);
            }
            Err(_) => {
                // Only allowed when the capacities genuinely cannot hold the total.
                let capacity: u64 = caps
                    .iter()
                    .map(|c| c.unwrap_or(u64::MAX / 16))
                    .fold(0u64, |acc, c| acc.saturating_add(c));
                prop_assert!(capacity < total);
            }
        }
    }

    /// On small instances the solver is exactly optimal (matches brute force).
    #[test]
    fn matches_brute_force_on_small_instances(
        weights in prop::collection::vec(0.25f64..8.0, 1..5),
        total in 0u64..12,
    ) {
        let fast = solve_minmax_allocation(&weights, total, &[]).unwrap();
        let brute = brute_force_minmax(&weights, total, &[]).unwrap();
        prop_assert!((fast.objective - brute.1).abs() < 1e-6,
            "weights={:?} total={} fast={} brute={}", weights, total, fast.objective, brute.1);
    }

    /// Scaling every weight by a constant scales the objective by the same
    /// constant and leaves an optimal allocation optimal.
    #[test]
    fn objective_scales_linearly_with_weights(
        weights in prop::collection::vec(0.1f64..10.0, 1..8),
        total in 1u64..64,
        scale in 0.5f64..4.0,
    ) {
        let base = solve_minmax_allocation(&weights, total, &[]).unwrap();
        let scaled_weights: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let scaled = solve_minmax_allocation(&scaled_weights, total, &[]).unwrap();
        prop_assert!((scaled.objective - base.objective * scale).abs() < 1e-6 * scale.max(1.0));
    }

    /// Extreme weight ratios, mixed with ordinary rates, terminate and match
    /// the frozen seed solver bit for bit.  (Ratios too wide for the threshold
    /// search's 200 halvings reconstruct far above `total`; only the clamp to
    /// `total` keeps the surplus shed finite.)
    #[test]
    fn extreme_weights_match_the_seed_reference(
        picks in prop::collection::vec((0usize..10, 0.1f64..20.0), 1..7),
        total in 0u64..200,
        cap_seed in prop::collection::vec(prop::option::of(0u64..100), 0..7),
    ) {
        let weights: Vec<f64> = picks
            .iter()
            .map(|&(i, w)| EXTREME_WEIGHTS.get(i).copied().unwrap_or(w))
            .collect();
        let caps: Vec<Option<u64>> = if cap_seed.len() == weights.len() {
            cap_seed
        } else {
            Vec::new()
        };
        let new = solve_minmax_allocation(&weights, total, &caps);
        let old = solve_minmax_allocation_reference(&weights, total, &caps);
        match (new, old) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.amounts.iter().sum::<u64>(), total);
                prop_assert_eq!(&a.amounts, &b.amounts);
                prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "divergent outcomes: new={:?} reference={:?}", a, b),
        }
    }

    /// Adding one more unit of work can never decrease the objective.
    #[test]
    fn objective_is_monotone_in_total(
        weights in prop::collection::vec(0.1f64..10.0, 1..8),
        total in 0u64..64,
    ) {
        let a = solve_minmax_allocation(&weights, total, &[]).unwrap();
        let b = solve_minmax_allocation(&weights, total + 1, &[]).unwrap();
        prop_assert!(b.objective >= a.objective - 1e-9);
    }
}
