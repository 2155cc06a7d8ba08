//! Property-based tests of the incremental Eq. 4 flip engine over both
//! candidate sources: random flip sequences on [`drp_core::CostEvaluator`]
//! must agree *exactly* (integer equality) with recomputing
//! [`drp_core::Problem::total_cost`] from scratch, and undo must restore
//! the previous totals step by step. A [`drp_core::SparseEvaluator`] over
//! the same instance runs every flip in lockstep: with `knn ≥ M` candidate
//! rows it must match the dense source bitwise (totals, per-object costs,
//! every peek and applied delta, every nearest/second-nearest cell), and
//! with fewer rows its total must bound the exact graph NTC from above.

use drp_core::{
    CandidateRows, CostEvaluator, Evaluator, ObjectId, Problem, SiteId, SparseEvaluator,
    SparseProblem,
};
use drp_net::SparseCostRows;
use drp_workload::WorkloadSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn paper_problem(seed: u64) -> Problem {
    WorkloadSpec::paper(8, 10, 5.0, 40.0)
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap()
}

/// Decodes one step of the random walk into a flip attempt on either
/// source; invalid attempts (primary removal, capacity, duplicates) are
/// skipped — exactly the guards every search loop runs before touching
/// the evaluator. Returns the `(peek, applied)` delta pair of a valid step.
fn try_step<R: CandidateRows>(
    eval: &mut Evaluator<R>,
    problem: &Problem,
    step: usize,
) -> Option<(i64, i64)> {
    let m = problem.num_sites();
    let n = problem.num_objects();
    let site = SiteId::new(step % m);
    let object = ObjectId::new((step / m) % n);
    if eval.holds(site, object) {
        if problem.primary(object) == site {
            return None;
        }
        let peek = eval.delta_remove(site, object);
        let applied = eval.apply_remove(site, object).unwrap();
        assert_eq!(peek, applied, "remove peek must equal the applied delta");
        Some((peek, applied))
    } else {
        if problem.object_size(object) > eval.free_capacity(site) {
            return None;
        }
        let peek = eval.delta_add(site, object);
        let applied = eval.apply_add(site, object).unwrap();
        assert_eq!(peek, applied, "add peek must equal the applied delta");
        Some((peek, applied))
    }
}

/// The k-nearest source must equal the dense one cell for cell.
fn assert_bitwise_equal(dense: &CostEvaluator<'_>, sparse: &SparseEvaluator<'_>) {
    let problem = dense.problem();
    assert_eq!(sparse.total(), dense.total());
    assert_eq!(sparse.placement(), dense.placement());
    for k in problem.objects() {
        assert_eq!(sparse.object_cost(k), dense.object_cost(k), "V_{k}");
        for i in problem.sites() {
            assert_eq!(
                sparse.nearest(i, k),
                dense.nearest(i, k),
                "nearest({i}, {k})"
            );
            assert_eq!(
                sparse.second_nearest(i, k),
                dense.second_nearest(i, k),
                "second_nearest({i}, {k})"
            );
        }
    }
}

/// Checks the sparse twin after a lockstep flip: bitwise parity at full
/// width, an upper bound on the exact graph NTC below it.
fn check_sparse(
    dense: &CostEvaluator<'_>,
    sparse: &SparseEvaluator<'_>,
    sp: &SparseProblem,
    exact_width: bool,
) {
    if exact_width {
        assert_bitwise_equal(dense, sparse);
    } else {
        assert!(sparse.total() >= sp.total_cost(sparse.placement()).unwrap());
    }
}

proptest! {
    #[test]
    fn flip_sequences_agree_with_full_recomputation(
        instance_seed in 0u64..20,
        knn in 1usize..=12,
        steps in prop::collection::vec(0usize..10_000, 1..60),
    ) {
        let problem = paper_problem(instance_seed);
        let sp = SparseProblem::from_problem(&problem).unwrap();
        let rows = SparseCostRows::from_graph(sp.graph(), knn).unwrap();
        let exact_width = knn >= problem.num_sites();
        let mut eval = CostEvaluator::primary_only(&problem);
        let mut sparse = SparseEvaluator::primary_only(&sp, &rows).unwrap();
        prop_assert_eq!(eval.total(), problem.d_prime());
        prop_assert_eq!(sparse.total(), sp.d_prime());
        for &step in &steps {
            let dense_step = try_step(&mut eval, &problem, step);
            let sparse_step = try_step(&mut sparse, &problem, step);
            // Validity is a property of the scheme, not the source.
            prop_assert_eq!(dense_step.is_some(), sparse_step.is_some());
            if exact_width {
                prop_assert_eq!(sparse_step, dense_step);
            }
            check_sparse(&eval, &sparse, &sp, exact_width);
            // Integer-exact agreement after *every* flip, not just at the end.
            prop_assert_eq!(eval.total(), problem.total_cost(eval.scheme()));
        }
        // The cached per-object costs must also agree, and sum to the total.
        let mut sum = 0u64;
        for k in problem.objects() {
            prop_assert_eq!(eval.object_cost(k), problem.object_cost(eval.scheme(), k));
            sum += eval.object_cost(k);
        }
        prop_assert_eq!(sum, eval.total());
    }

    #[test]
    fn cached_nearest_matches_scheme_queries(
        instance_seed in 0u64..20,
        knn in 1usize..=12,
        steps in prop::collection::vec(0usize..10_000, 1..40),
    ) {
        let problem = paper_problem(instance_seed);
        let sp = SparseProblem::from_problem(&problem).unwrap();
        let rows = SparseCostRows::from_graph(sp.graph(), knn).unwrap();
        let mut eval = CostEvaluator::primary_only(&problem);
        let mut sparse = SparseEvaluator::primary_only(&sp, &rows).unwrap();
        for &step in &steps {
            try_step(&mut eval, &problem, step);
            try_step(&mut sparse, &problem, step);
        }
        check_sparse(&eval, &sparse, &sp, knn >= problem.num_sites());
        for k in problem.objects() {
            for i in problem.sites() {
                prop_assert_eq!(
                    eval.nearest(i, k),
                    eval.scheme().nearest_replica(&problem, i, k),
                    "nearest({}, {})", i, k
                );
                // The second-nearest, when present, is a real replicator
                // distinct from the nearest and no closer than it.
                if let Some((second, cost)) = eval.second_nearest(i, k) {
                    let (first, best) = eval.nearest(i, k);
                    prop_assert!(second != first);
                    prop_assert!(eval.scheme().holds(second, k));
                    prop_assert_eq!(cost, problem.costs().cost(second.index(), i.index()));
                    prop_assert!(cost >= best);
                }
                // A truncated candidate list can only see a farther nearest.
                prop_assert!(sparse.nearest(i, k).1 >= eval.nearest(i, k).1);
            }
        }
    }

    #[test]
    fn undo_walks_back_through_exact_totals(
        instance_seed in 0u64..20,
        knn in 1usize..=12,
        steps in prop::collection::vec(0usize..10_000, 1..50),
    ) {
        let problem = paper_problem(instance_seed);
        let sp = SparseProblem::from_problem(&problem).unwrap();
        let rows = SparseCostRows::from_graph(sp.graph(), knn).unwrap();
        let exact_width = knn >= problem.num_sites();
        let mut eval = CostEvaluator::primary_only(&problem);
        let mut sparse = SparseEvaluator::primary_only(&sp, &rows).unwrap();
        // Record both totals before every applied flip.
        let mut trail = Vec::new();
        for &step in &steps {
            let before = (eval.total(), sparse.total());
            try_step(&mut sparse, &problem, step);
            if try_step(&mut eval, &problem, step).is_some() {
                trail.push(before);
            }
        }
        prop_assert_eq!(eval.history_len(), trail.len());
        prop_assert_eq!(sparse.history_len(), trail.len());
        // Undoing must retrace the exact totals in reverse, and the cache
        // must stay coherent with a full recomputation at every stop.
        while let Some((expected, expected_sparse)) = trail.pop() {
            let undone = eval.undo().expect("history is non-empty");
            let undone_sparse = sparse.undo().expect("history is non-empty");
            prop_assert_eq!(eval.total(), expected);
            prop_assert_eq!(sparse.total(), expected_sparse);
            prop_assert_eq!(eval.total(), problem.total_cost(eval.scheme()));
            if exact_width {
                prop_assert_eq!(undone_sparse, undone);
            }
            check_sparse(&eval, &sparse, &sp, exact_width);
        }
        prop_assert_eq!(eval.undo(), None);
        prop_assert_eq!(sparse.undo(), None);
        prop_assert_eq!(eval.total(), problem.d_prime());
        prop_assert_eq!(sparse.total(), sp.d_prime());
    }
}
