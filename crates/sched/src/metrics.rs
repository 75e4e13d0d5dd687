//! Fairness metrics for scheduler evaluation.

/// Jain's fairness index over per-entity allocations.
///
/// 1.0 means perfectly equal; `1/n` means one entity got everything.
///
/// ```
/// use rvisor_sched::fairness_index;
/// assert!((fairness_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
/// assert!(fairness_index(&[1.0, 0.0, 0.0]) < 0.34);
/// ```
pub fn fairness_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|a| a * a).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (allocations.len() as f64 * sum_sq)
}

/// The maximum relative error between each entity's achieved share and the
/// share its weight entitles it to.
///
/// `allocations[i]` is CPU time received, `weights[i]` the configured weight.
/// Returns 0.0 for perfect weighted fairness. Entities that received no
/// entitlement (zero total weight) yield 0.0.
pub(crate) fn weighted_share_error(allocations: &[f64], weights: &[u32]) -> f64 {
    assert_eq!(
        allocations.len(),
        weights.len(),
        "allocations and weights must align"
    );
    let total_alloc: f64 = allocations.iter().sum();
    let total_weight: f64 = weights.iter().map(|&w| w as f64).sum();
    if total_alloc == 0.0 || total_weight == 0.0 {
        return 0.0;
    }
    allocations
        .iter()
        .zip(weights)
        .map(|(&a, &w)| {
            let achieved = a / total_alloc;
            let entitled = w as f64 / total_weight;
            if entitled == 0.0 {
                0.0
            } else {
                ((achieved - entitled) / entitled).abs()
            }
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jain_index_extremes() {
        assert_eq!(fairness_index(&[]), 1.0);
        assert_eq!(fairness_index(&[0.0, 0.0]), 1.0);
        assert!((fairness_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skewed = fairness_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_error_zero_for_proportional_allocation() {
        let err = weighted_share_error(&[100.0, 200.0, 400.0], &[1, 2, 4]);
        assert!(err < 1e-12);
        let err = weighted_share_error(&[100.0, 100.0], &[1, 3]);
        assert!(err > 0.4); // first got 50% but deserved 25% -> error 1.0; second 0.33
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(weighted_share_error(&[], &[]), 0.0);
        assert_eq!(weighted_share_error(&[0.0, 0.0], &[1, 1]), 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        weighted_share_error(&[1.0], &[1, 2]);
    }

    proptest! {
        #[test]
        fn jain_index_is_bounded(allocs in proptest::collection::vec(0.0f64..1000.0, 1..20)) {
            let j = fairness_index(&allocs);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&j));
        }

        #[test]
        fn proportional_allocations_have_zero_error(
            weights in proptest::collection::vec(1u32..100, 1..10),
            scale in 0.1f64..100.0,
        ) {
            let allocs: Vec<f64> = weights.iter().map(|&w| w as f64 * scale).collect();
            prop_assert!(weighted_share_error(&allocs, &weights) < 1e-9);
        }
    }
}
