//! How the channel sees space: the [`NeighborQuery`] trait and its
//! reference implementations.
//!
//! [`Channel::begin_tx`](crate::Channel::begin_tx) needs two things from
//! the world: the exact position of any node, and the set of nodes within
//! carrier-sense range of a transmitter. This trait abstracts both, so
//! the medium can be backed by a grid-bucketed
//! [`SpatialIndex`](slr_netsim::SpatialIndex) (cost follows the nodes
//! bucketed around the transmitter; the harness's production path,
//! `slr_runner::medium`), by a [`PrecomputedQuery`] answering one
//! query from elsewhere, by a brute-force scan over a position slice
//! ([`BruteForceMedium`], the reference oracle — O(N) per transmission),
//! or by a [`ValidatingQuery`] that answers from one implementation,
//! checks every answer against the oracle and panics on any
//! disagreement.
//!
//! ## Determinism contract
//!
//! Implementations MUST return neighbors in ascending node order, filter
//! by *exact* distance (`d ≤ range`, computed with
//! [`Position::distance`]), and exclude the querying node itself. Two
//! implementations fed the same positions must therefore produce
//! bit-identical simulations — the equivalence tests in the workspace
//! root hold every answer the harness uses to exactly that standard
//! against the brute-force scan.

use slr_mobility::Position;

/// Position lookup plus range queries over a set of nodes.
pub trait NeighborQuery {
    /// Number of nodes in the medium.
    fn node_count(&self) -> usize;

    /// Exact current position of `node`.
    fn position(&self, node: usize) -> Position;

    /// Appends every node within `range` meters of `node` (excluding
    /// `node` itself) as `(index, distance)` pairs, in ascending index
    /// order, to `out`. Distances are exact ([`Position::distance`]); the
    /// channel consumes them directly for path loss, so implementations
    /// must not approximate.
    fn neighbors_within(&self, node: usize, range: f64, out: &mut Vec<(usize, f64)>);
}

/// The brute-force reference medium: a plain position slice, scanned
/// linearly. Every other implementation is measured against this one.
#[derive(Debug, Clone, Copy)]
pub struct BruteForceMedium<'a>(pub &'a [Position]);

impl NeighborQuery for BruteForceMedium<'_> {
    fn node_count(&self) -> usize {
        self.0.len()
    }

    fn position(&self, node: usize) -> Position {
        self.0[node]
    }

    fn neighbors_within(&self, node: usize, range: f64, out: &mut Vec<(usize, f64)>) {
        let center = self.0[node];
        for (v, p) in self.0.iter().enumerate() {
            let d = center.distance(p);
            if v != node && d <= range {
                out.push((v, d));
            }
        }
    }
}

/// Debug medium that answers from `fast` while cross-checking every
/// query against `oracle`, panicking with a diagnostic on the first
/// divergence (positions or neighbor sets). Wired to `slrsim`'s
/// `--validate-spatial` flag.
pub struct ValidatingQuery<'a> {
    /// The implementation under test (answers are taken from it).
    pub fast: &'a dyn NeighborQuery,
    /// The trusted reference (typically the brute-force slice).
    pub oracle: &'a dyn NeighborQuery,
}

impl NeighborQuery for ValidatingQuery<'_> {
    fn node_count(&self) -> usize {
        let n = self.fast.node_count();
        assert_eq!(n, self.oracle.node_count(), "media disagree on node count");
        n
    }

    fn position(&self, node: usize) -> Position {
        let p = self.fast.position(node);
        let q = self.oracle.position(node);
        assert!(
            p.x == q.x && p.y == q.y,
            "media disagree on node {node}'s position: fast {p}, oracle {q}"
        );
        p
    }

    fn neighbors_within(&self, node: usize, range: f64, out: &mut Vec<(usize, f64)>) {
        let start = out.len();
        self.fast.neighbors_within(node, range, out);
        let mut expect = Vec::with_capacity(out.len() - start);
        self.oracle.neighbors_within(node, range, &mut expect);
        assert_eq!(
            &out[start..],
            &expect[..],
            "spatial index diverged from brute force: node {node} range {range}"
        );
    }
}

/// A medium whose answer for **one** query — `neighbors_within(src,
/// range)` — was precomputed elsewhere (a parallel-engine worker
/// speculating during the window that precedes a MAC-timer dispatch) and
/// validated still-fresh by the caller. That query is served from the
/// buffer; everything else delegates to `inner`.
///
/// The precomputed pairs must satisfy the module's determinism contract
/// for `inner` at the validation instant: ascending node order, exact
/// distances, querying node excluded. The harness guarantees this by
/// stamping speculation with the position tracker's generation counter
/// and discarding the buffer on any mismatch; a debug assertion here
/// cross-checks the buffer against `inner` as a belt-and-braces measure.
pub struct PrecomputedQuery<'a> {
    /// The authoritative medium for everything not precomputed.
    pub inner: &'a dyn NeighborQuery,
    /// The transmitter whose neighbor query was precomputed.
    pub src: usize,
    /// The range the precomputation used (the carrier-sense range).
    pub range: f64,
    /// The precomputed `(node, distance)` pairs, ascending by node.
    pub pairs: &'a [(usize, f64)],
}

impl NeighborQuery for PrecomputedQuery<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn position(&self, node: usize) -> Position {
        self.inner.position(node)
    }

    fn neighbors_within(&self, node: usize, range: f64, out: &mut Vec<(usize, f64)>) {
        if node == self.src && range == self.range {
            #[cfg(debug_assertions)]
            {
                let mut expect = Vec::new();
                self.inner.neighbors_within(node, range, &mut expect);
                assert_eq!(
                    self.pairs,
                    &expect[..],
                    "stale speculative neighbor set survived validation: node {node} range {range}"
                );
            }
            out.extend_from_slice(self.pairs);
        } else {
            self.inner.neighbors_within(node, range, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slr_netsim::SpatialIndex;

    /// Test double for the "fast" side of [`ValidatingQuery`]: a fixed
    /// point set answered by the netsim index.
    struct StaticGrid(SpatialIndex);

    impl StaticGrid {
        fn new(positions: Vec<Position>, cell_m: f64) -> Self {
            let points: Vec<(f64, f64)> = positions.iter().map(|p| (p.x, p.y)).collect();
            StaticGrid(SpatialIndex::new(cell_m, &points))
        }
    }

    impl NeighborQuery for StaticGrid {
        fn node_count(&self) -> usize {
            self.0.len()
        }

        fn position(&self, node: usize) -> Position {
            let (x, y) = self.0.point(node);
            Position::new(x, y)
        }

        fn neighbors_within(&self, node: usize, range: f64, out: &mut Vec<(usize, f64)>) {
            let mut ids = Vec::new();
            self.0.neighbors_within(node, range, &mut ids);
            let center = self.position(node);
            out.extend(ids.iter().map(|&v| (v, center.distance(&self.position(v)))));
        }
    }

    fn positions() -> Vec<Position> {
        vec![
            Position::new(0.0, 0.0),
            Position::new(100.0, 0.0),
            Position::new(400.0, 0.0),
            Position::new(2000.0, 0.0),
        ]
    }

    #[test]
    fn brute_force_slice_is_sorted_and_exact() {
        let pos = positions();
        let mut out = Vec::new();
        BruteForceMedium(&pos).neighbors_within(0, 550.0, &mut out);
        assert_eq!(out, vec![(1, 100.0), (2, 400.0)]);
        out.clear();
        BruteForceMedium(&pos).neighbors_within(2, 550.0, &mut out);
        assert_eq!(out, vec![(0, 400.0), (1, 300.0)]);
    }

    #[test]
    fn static_grid_matches_brute_force() {
        let pos = positions();
        let grid = StaticGrid::new(pos.clone(), 550.0);
        for node in 0..pos.len() {
            for range in [250.0, 550.0] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                BruteForceMedium(&pos).neighbors_within(node, range, &mut a);
                grid.neighbors_within(node, range, &mut b);
                assert_eq!(a, b, "node {node} range {range}");
            }
        }
    }

    #[test]
    fn validating_query_passes_on_agreement() {
        let pos = positions();
        let grid = StaticGrid::new(pos.clone(), 550.0);
        let v = ValidatingQuery {
            fast: &grid,
            oracle: &BruteForceMedium(&pos),
        };
        let mut out = Vec::new();
        v.neighbors_within(1, 550.0, &mut out);
        assert_eq!(out, vec![(0, 100.0), (2, 300.0)]);
        assert_eq!(v.node_count(), 4);
        assert_eq!(v.position(3).x, 2000.0);
    }

    #[test]
    fn precomputed_query_serves_buffer_and_delegates_rest() {
        let pos = positions();
        let inner = BruteForceMedium(&pos);
        let mut pairs = Vec::new();
        inner.neighbors_within(0, 550.0, &mut pairs);
        let pre = PrecomputedQuery {
            inner: &inner,
            src: 0,
            range: 550.0,
            pairs: &pairs,
        };
        let mut out = Vec::new();
        pre.neighbors_within(0, 550.0, &mut out);
        assert_eq!(out, pairs, "precomputed query must serve the buffer");
        out.clear();
        pre.neighbors_within(2, 550.0, &mut out);
        let mut expect = Vec::new();
        inner.neighbors_within(2, 550.0, &mut expect);
        assert_eq!(out, expect, "other nodes delegate to the inner medium");
        assert_eq!(pre.node_count(), 4);
        assert_eq!(pre.position(1).x, 100.0);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn validating_query_catches_divergence() {
        let pos = positions();
        let mut wrong = pos.clone();
        wrong[2] = Position::new(5000.0, 0.0); // stale index position
        let grid = StaticGrid::new(wrong, 550.0);
        let v = ValidatingQuery {
            fast: &grid,
            oracle: &BruteForceMedium(&pos),
        };
        let mut out = Vec::new();
        v.neighbors_within(0, 550.0, &mut out);
    }
}
