//! K-way merge of sorted runs — the local final step of sample sort and
//! distributed merge.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merge `runs` (each ascending) into one ascending vector.
///
/// Uses a binary heap of cursors: `O(n log k)` comparisons for `n` total
/// elements over `k` non-empty runs, no extra copies beyond the output.
/// A lone non-empty run is returned as it is, without a heap pass or a
/// copy.
pub fn kway_merge<T: Ord + Copy>(mut runs: Vec<Vec<T>>) -> Vec<T> {
    runs.retain(|r| !r.is_empty());
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Heap entries: (value, run index, position within run).
    let mut heap: BinaryHeap<Reverse<(T, usize, usize)>> = runs
        .iter()
        .enumerate()
        .map(|(i, r)| Reverse((r[0], i, 0)))
        .collect();
    while let Some(Reverse((v, run, pos))) = heap.pop() {
        out.push(v);
        let next = pos + 1;
        if next < runs[run].len() {
            heap.push(Reverse((runs[run][next], run, next)));
        }
    }
    out
}

/// Merge exactly two ascending slices (the classic two-finger merge;
/// cheaper than [`kway_merge`] for k = 2).
pub fn merge2<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn merges_disjoint_runs() {
        let out = kway_merge(vec![vec![1u64, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn handles_empty_runs() {
        let out = kway_merge(vec![vec![], vec![1u64, 2], vec![], vec![0]]);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(kway_merge::<u64>(vec![]), vec![]);
        assert_eq!(kway_merge::<u64>(vec![vec![], vec![]]), vec![]);
    }

    #[test]
    fn lone_run_is_returned_without_a_copy() {
        let run = vec![3u64, 5, 8];
        let at = run.as_ptr();
        let out = kway_merge(vec![vec![], run, vec![]]);
        assert_eq!(out, vec![3, 5, 8]);
        assert_eq!(out.as_ptr(), at, "a lone run must be moved, not merged");
        let run = vec![1u64];
        let at = run.as_ptr();
        let out = kway_merge(vec![run]);
        assert_eq!(out.as_ptr(), at);
    }

    #[test]
    fn duplicates_preserved() {
        let out = kway_merge(vec![vec![1u64, 1, 2], vec![1, 2, 2]]);
        assert_eq!(out, vec![1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn merge2_basic() {
        assert_eq!(merge2(&[1u64, 3, 5], &[2, 4, 6]), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(merge2::<u64>(&[], &[]), Vec::<u64>::new());
        assert_eq!(merge2(&[1u64], &[]), vec![1]);
    }

    proptest! {
        #[test]
        fn prop_kway_equals_sort(mut runs: Vec<Vec<u32>>) {
            for r in &mut runs {
                r.sort_unstable();
            }
            let mut expected: Vec<u32> = runs.iter().flatten().copied().collect();
            expected.sort_unstable();
            prop_assert_eq!(kway_merge(runs), expected);
        }

        #[test]
        fn prop_merge2_equals_sort(mut a: Vec<u32>, mut b: Vec<u32>) {
            a.sort_unstable();
            b.sort_unstable();
            let mut expected: Vec<u32> = a.iter().chain(&b).copied().collect();
            expected.sort_unstable();
            prop_assert_eq!(merge2(&a, &b), expected);
        }
    }
}
