//! Exponentially growing identifier intervals.
//!
//! *Linearization with shortcut neighbors* (LSN, Onus et al.) has every node
//! divide its local view of the identifier space into exponentially growing
//! intervals and remember **at most one edge per interval**. SSR's route
//! cache provides the same structure implicitly ("a node typically caches at
//! least one node for each of the exponentially growing intervals"), which is
//! what gives the linearized SSR bootstrap its polylogarithmic convergence.
//!
//! Relative to a node `v`, the space to the right of `v` is partitioned into
//! intervals `[v + b^i, v + b^(i+1))` for `i = 0, 1, …` (and mirrored to the
//! left), where `b` is the interval base (2 in the paper; configurable here
//! so the E9 ablation can vary it).

use crate::NodeId;

/// Which side of the reference node an identifier lies on — the line reading
/// of the identifier space distinguishes *left* (smaller) from *right*
/// (larger) neighbors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Side {
    /// Identifiers smaller than the reference node's.
    Left,
    /// Identifiers larger than the reference node's.
    Right,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Index of the base-2 exponential interval (relative to `v`) that `u` falls
/// into, together with the side. Returns `None` iff `u == v`.
///
/// Interval `i` on either side is `{ u : 2^i <= |u - v| < 2^(i+1) }`, i.e.
/// the index is `floor(log2(|u - v|))`.
#[inline]
pub fn interval_index(v: NodeId, u: NodeId) -> Option<(Side, u32)> {
    if u == v {
        return None;
    }
    let side = if u < v { Side::Left } else { Side::Right };
    let dist = v.line_dist(u);
    Some((side, 63 - dist.leading_zeros()))
}

/// An exponential interval partition with a configurable base.
///
/// For base `b >= 2`, interval `i` covers distances `[b^i, b^(i+1))`. The
/// number of intervals per side is `O(log_b(space size))` — at most 64 for
/// base 2.
#[derive(Clone, Copy, Debug)]
pub struct IntervalPartition {
    base: u64,
}

impl IntervalPartition {
    /// Creates a partition with the given base.
    ///
    /// # Panics
    /// Panics if `base < 2`.
    pub fn new(base: u64) -> Self {
        assert!(base >= 2, "interval base must be at least 2");
        IntervalPartition { base }
    }

    /// The canonical base-2 partition used by the paper.
    pub fn base2() -> Self {
        IntervalPartition { base: 2 }
    }

    /// The configured base.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The maximum number of intervals per side for this base (the smallest
    /// `k` such that `base^k` overflows `u64`).
    pub fn intervals_per_side(&self) -> u32 {
        let mut k = 0u32;
        let mut acc: u128 = 1;
        let base = self.base as u128;
        while acc <= u64::MAX as u128 {
            acc *= base;
            k += 1;
        }
        k
    }

    /// Side and interval index of `u` relative to `v`; `None` iff `u == v`.
    pub fn index(&self, v: NodeId, u: NodeId) -> Option<(Side, u32)> {
        if u == v {
            return None;
        }
        let side = if u < v { Side::Left } else { Side::Right };
        // floor(log_base(dist)); dist >= 1 and base >= 2, so the log is
        // defined. `ilog` with a base only known at run time multiplies its
        // way up; base 2 — the paper's, and every caller's default — is one
        // instruction, the formula of [`interval_index`].
        let dist = v.line_dist(u);
        let idx = if self.base == 2 {
            dist.ilog2()
        } else {
            dist.ilog(self.base)
        };
        Some((side, idx))
    }

    /// Distance bounds `[lo, hi)` of interval `i`; `hi` is `None` when the
    /// interval is unbounded within the 64-bit space (the last interval).
    pub fn bounds(&self, i: u32) -> (u64, Option<u64>) {
        let base = self.base as u128;
        let lo = base.pow(i);
        let hi = lo * base;
        let lo64 = if lo > u64::MAX as u128 {
            u64::MAX
        } else {
            lo as u64
        };
        let hi64 = if hi > u64::MAX as u128 {
            None
        } else {
            Some(hi as u64)
        };
        (lo64, hi64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn base2_index_matches_log2() {
        let v = NodeId(1000);
        assert_eq!(interval_index(v, NodeId(1001)), Some((Side::Right, 0)));
        assert_eq!(interval_index(v, NodeId(1002)), Some((Side::Right, 1)));
        assert_eq!(interval_index(v, NodeId(1003)), Some((Side::Right, 1)));
        assert_eq!(interval_index(v, NodeId(1004)), Some((Side::Right, 2)));
        assert_eq!(interval_index(v, NodeId(999)), Some((Side::Left, 0)));
        assert_eq!(interval_index(v, NodeId(996)), Some((Side::Left, 2)));
        assert_eq!(interval_index(v, v), None);
    }

    #[test]
    fn partition_base2_agrees_with_fast_path() {
        let p = IntervalPartition::base2();
        let v = NodeId(1 << 40);
        for raw in [0u64, 1, 2, 3, 500, 1 << 20, (1 << 41) - 1, u64::MAX] {
            let u = NodeId(raw);
            assert_eq!(p.index(v, u), interval_index(v, u), "u = {raw}");
        }
    }

    /// The multiply loop `index` ran before it became `ilog`: the reference.
    fn reference_index(base: u64, v: NodeId, u: NodeId) -> Option<(Side, u32)> {
        if u == v {
            return None;
        }
        let side = if u < v { Side::Left } else { Side::Right };
        let dist = v.line_dist(u) as u128;
        let base = base as u128;
        let mut idx = 0u32;
        let mut hi = base; // upper bound (exclusive) of interval idx
        while dist >= hi {
            idx += 1;
            hi = hi.saturating_mul(base);
        }
        Some((side, idx))
    }

    fn bases() -> impl Strategy<Value = u64> {
        (2u64..=17).prop_map(|b| if b == 17 { u64::MAX } else { b })
    }

    proptest! {
        #[test]
        fn index_matches_the_loop_on_uniform_pairs(base in bases(), v: u64, u: u64) {
            let p = IntervalPartition::new(base);
            let (v, u) = (NodeId(v), NodeId(u));
            prop_assert_eq!(p.index(v, u), reference_index(base, v, u));
            prop_assert_eq!(p.index(v, v), None);
        }

        #[test]
        fn index_matches_the_loop_on_interval_edges(base in bases(), anchor: u64) {
            let p = IntervalPartition::new(base);
            // every power of the base that fits, one below, one above, and
            // the largest distance the space has
            let mut dists = vec![u64::MAX];
            let mut power = 1u64;
            loop {
                dists.extend([power.saturating_sub(1), power, power.saturating_add(1)]);
                match power.checked_mul(base) {
                    Some(next) => power = next,
                    None => break,
                }
            }
            for dist in dists {
                // measure each distance from both ends of the space and, where
                // it fits, from a drawn anchor on either side
                let mut pairs = vec![(0, dist), (u64::MAX, u64::MAX - dist)];
                pairs.extend(anchor.checked_add(dist).map(|u| (anchor, u)));
                pairs.extend(anchor.checked_sub(dist).map(|u| (anchor, u)));
                for (v, u) in pairs {
                    let (v, u) = (NodeId(v), NodeId(u));
                    prop_assert_eq!(
                        p.index(v, u),
                        reference_index(base, v, u),
                        "base {} dist {}", base, dist
                    );
                }
            }
        }
    }

    #[test]
    fn base4_has_coarser_intervals() {
        let p = IntervalPartition::new(4);
        let v = NodeId(0);
        assert_eq!(p.index(v, NodeId(3)), Some((Side::Right, 0)));
        assert_eq!(p.index(v, NodeId(4)), Some((Side::Right, 1)));
        assert_eq!(p.index(v, NodeId(15)), Some((Side::Right, 1)));
        assert_eq!(p.index(v, NodeId(16)), Some((Side::Right, 2)));
    }

    #[test]
    fn intervals_per_side_counts() {
        assert_eq!(IntervalPartition::base2().intervals_per_side(), 64);
        assert_eq!(IntervalPartition::new(4).intervals_per_side(), 32);
        assert_eq!(IntervalPartition::new(16).intervals_per_side(), 16);
    }

    #[test]
    fn bounds_cover_space_without_gaps() {
        let p = IntervalPartition::base2();
        let mut expected_lo = 1u64;
        for i in 0..p.intervals_per_side() {
            let (lo, hi) = p.bounds(i);
            assert_eq!(lo, expected_lo, "interval {i}");
            match hi {
                Some(h) => {
                    assert_eq!(h, lo * 2);
                    expected_lo = h;
                }
                None => assert_eq!(i, 63),
            }
        }
    }

    #[test]
    fn side_opposite() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
    }

    #[test]
    fn max_distance_lands_in_last_interval() {
        let p = IntervalPartition::base2();
        assert_eq!(
            p.index(NodeId(0), NodeId(u64::MAX)),
            Some((Side::Right, 63))
        );
        assert_eq!(
            interval_index(NodeId(0), NodeId(u64::MAX)),
            Some((Side::Right, 63))
        );
    }
}
