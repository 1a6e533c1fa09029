//! Grid-bucketed spatial index for neighbor queries.
//!
//! The simulator's hottest question is "which nodes lie within
//! carrier-sense range of this transmitter?". A brute-force scan answers
//! it in O(N) per transmission; this index answers it in time
//! proportional to the nodes bucketed around the transmitter, by
//! bucketing nodes into square cells and scanning only the block of
//! cells that can intersect the query disc.
//!
//! Buckets live in one flat, x-major array over the bounding box of the
//! occupied cell keys: cell `(kx, ky)` is bucket
//! `(kx − origin.x) · dims.y + (ky − origin.y)`, so a lookup is two
//! subtractions and a multiply, and the inner `ky` loop of a candidate
//! scan reads adjacent buckets. The box is fixed at construction to the
//! cells the initial points occupy; a cell outside it is simply empty to
//! a query, and an [`SpatialIndex::update`] that carries a node outside it
//! regrows the array to the union of the old box and the new cell (every
//! bucket is moved once — rare, because mobility regions are bounded and
//! the initial placement already spans them). Keys are signed, so nothing
//! here assumes the positive quadrant.
//!
//! The index is deliberately *coarse*: it tracks which cell each node is
//! in, not an exact position, so a node only needs re-bucketing when it
//! crosses a cell boundary. Callers keep exact positions themselves (the
//! harness derives them from mobility trajectories) and filter the
//! candidate set by true distance — see `slr-radio`'s `NeighborQuery`
//! trait for the contract. Candidate enumeration visits cells in a fixed
//! x-major order, so results are deterministic; callers that need
//! index-sorted neighbors order the filtered survivors (a handful of
//! elements, not N).
//!
//! Points are plain `(x, y)` meter pairs: this crate sits below the
//! geometry layer and must not depend on it.

/// Integer cell coordinates (may be negative: positions are not required
/// to sit in the positive quadrant).
type CellKey = (i64, i64);

/// A grid-bucketed index over `n` movable points.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    /// Cell side length in meters.
    cell_m: f64,
    /// Key of the box's minimum corner (bucket 0).
    origin: CellKey,
    /// Box extent in cells along x and y; `(0, 0)` over no points.
    dims: (i64, i64),
    /// The nodes currently bucketed in each cell of the box, x-major.
    /// Node ids are stored as `u32` (checked at construction): buckets
    /// are the bulk of the index and the scan is bandwidth-bound.
    cells: Vec<Vec<u32>>,
    /// Per-node current cell key.
    keys: Vec<CellKey>,
    /// Per-node last-bucketed position (diagnostics and standalone use).
    points: Vec<(f64, f64)>,
}

fn cell_key(cell_m: f64, p: (f64, f64)) -> CellKey {
    ((p.0 / cell_m).floor() as i64, (p.1 / cell_m).floor() as i64)
}

impl SpatialIndex {
    /// Creates an index over `points` with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not positive and finite, or if there are
    /// more than `u32::MAX` points.
    pub fn new(cell_m: f64, points: &[(f64, f64)]) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "cell size must be positive, got {cell_m}"
        );
        assert!(
            u32::try_from(points.len()).is_ok(),
            "node ids are stored as u32, got {} points",
            points.len()
        );
        let mut index = SpatialIndex {
            cell_m,
            origin: (0, 0),
            dims: (0, 0),
            cells: Vec::new(),
            keys: points.iter().map(|&p| cell_key(cell_m, p)).collect(),
            points: points.to_vec(),
        };
        if let Some(&first) = index.keys.first() {
            let (lo, hi) = index.keys.iter().fold((first, first), |(lo, hi), k| {
                (
                    (lo.0.min(k.0), lo.1.min(k.1)),
                    (hi.0.max(k.0), hi.1.max(k.1)),
                )
            });
            index.reset_box(lo, hi);
        }
        for node in 0..index.keys.len() {
            let slot = index.slot(index.keys[node]).expect("box spans every key");
            index.cells[slot].push(node as u32);
        }
        index
    }

    /// Resets the box to the key rectangle `lo..=hi`, every bucket empty.
    fn reset_box(&mut self, lo: CellKey, hi: CellKey) {
        let extent = |lo: i64, hi: i64| hi.checked_sub(lo).and_then(|d| d.checked_add(1));
        let (w, h) = extent(lo.0, hi.0)
            .zip(extent(lo.1, hi.1))
            .expect("bounding box of the cell keys overflows");
        let len = w
            .checked_mul(h)
            .and_then(|n| usize::try_from(n).ok())
            .expect("bounding box of the cell keys overflows");
        self.origin = lo;
        self.dims = (w, h);
        self.cells = vec![Vec::new(); len];
    }

    /// The bucket holding cell `key`, or `None` outside the box.
    fn slot(&self, key: CellKey) -> Option<usize> {
        let dx = key.0.checked_sub(self.origin.0)?;
        let dy = key.1.checked_sub(self.origin.1)?;
        ((0..self.dims.0).contains(&dx) && (0..self.dims.1).contains(&dy))
            .then(|| (dx * self.dims.1 + dy) as usize)
    }

    /// Regrows the box to the union of itself and `key`, moving every
    /// bucket to its new slot.
    fn grow_to(&mut self, key: CellKey) {
        let (old_origin, old_dims) = (self.origin, self.dims);
        let lo = (old_origin.0.min(key.0), old_origin.1.min(key.1));
        let hi = (
            (old_origin.0 + old_dims.0 - 1).max(key.0),
            (old_origin.1 + old_dims.1 - 1).max(key.1),
        );
        let old = std::mem::take(&mut self.cells);
        self.reset_box(lo, hi);
        for (i, bucket) in old.into_iter().enumerate() {
            let i = i as i64;
            let key = (old_origin.0 + i / old_dims.1, old_origin.1 + i % old_dims.1);
            let slot = self.slot(key).expect("grown box contains the old one");
            self.cells[slot] = bucket;
        }
    }

    /// The cell side length in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_m
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The position `node` was last bucketed at.
    pub fn point(&self, node: usize) -> (f64, f64) {
        self.points[node]
    }

    /// The integer cell coordinates containing position `p`.
    pub fn key_of(&self, p: (f64, f64)) -> CellKey {
        cell_key(self.cell_m, p)
    }

    /// Moves `node` to position `p`, re-bucketing it iff its cell changed.
    /// Returns whether a re-bucket happened.
    pub fn update(&mut self, node: usize, p: (f64, f64)) -> bool {
        self.points[node] = p;
        let new_key = self.key_of(p);
        let old_key = self.keys[node];
        if new_key == old_key {
            return false;
        }
        let old_slot = self.slot(old_key).expect("node's cell is inside the box");
        let old_cell = &mut self.cells[old_slot];
        let at = old_cell
            .iter()
            .position(|&v| v as usize == node)
            .expect("node listed in its cell");
        old_cell.swap_remove(at);
        let new_slot = self.slot(new_key).unwrap_or_else(|| {
            self.grow_to(new_key);
            self.slot(new_key).expect("box grown to the new cell")
        });
        self.cells[new_slot].push(node as u32);
        self.keys[node] = new_key;
        true
    }

    /// Live heap bytes held by the index (the bucket array and its node
    /// vectors, plus the per-node key/point tables).
    pub fn mem_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .cells
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.keys.capacity() * std::mem::size_of::<CellKey>()
            + self.points.capacity() * std::mem::size_of::<(f64, f64)>()
    }

    /// Appends every node bucketed in a cell intersecting the closed disc
    /// of `radius_m` around `center` to `out` (a superset: whole cells
    /// are taken, and a node at `center` itself is included — callers
    /// filter by exact distance). Guaranteed to contain every node whose
    /// *bucketed* position lies within `radius_m` of `center`.
    pub fn candidates_within(&self, center: (f64, f64), radius_m: f64, out: &mut Vec<usize>) {
        let (cx, cy) = self.key_of(center);
        // A cell at offset k has nearest distance > (k−1)·cell, so cells
        // beyond ceil(radius/cell) cannot intersect the disc; the block is
        // clipped to the box, outside which every cell is empty. Within
        // the block, corner cells whose nearest point to `center` provably
        // exceeds the radius are culled geometrically before the bucket is
        // read — at half-range cells that skips ~40% of the block (and
        // all their candidates). The bound is conservative (a meter of
        // slack over the exact nearest distance), so no in-range node can
        // be lost to floating-point error.
        let r = (radius_m / self.cell_m).ceil() as i64;
        let limit_sq = (radius_m + 1.0) * (radius_m + 1.0);
        let (ox, oy) = self.origin;
        let (w, h) = self.dims;
        let (x_lo, x_hi) = (
            cx.saturating_sub(r).max(ox),
            cx.saturating_add(r).min(ox + w - 1),
        );
        let (y_lo, y_hi) = (
            cy.saturating_sub(r).max(oy),
            cy.saturating_add(r).min(oy + h - 1),
        );
        // Distance from `c` to the nearest edge of cell column/row `k`
        // when `k` is not the center's own (`k0`).
        let gap = |k: i64, k0: i64, c: f64| {
            if k > k0 {
                k as f64 * self.cell_m - c
            } else if k < k0 {
                c - (k + 1) as f64 * self.cell_m
            } else {
                0.0
            }
        };
        for kx in x_lo..=x_hi {
            let gap_x = gap(kx, cx, center.0);
            let column = &self.cells[((kx - ox) * h) as usize..][..h as usize];
            for ky in y_lo..=y_hi {
                let gap_y = gap(ky, cy, center.1);
                if gap_x * gap_x + gap_y * gap_y > limit_sq {
                    continue;
                }
                out.extend(column[(ky - oy) as usize].iter().map(|&v| v as usize));
            }
        }
    }

    /// Nodes within `range` meters of `node`'s *bucketed* position,
    /// excluding `node` itself, ascending by index, appended to `out`.
    /// Exact only when the bucketed positions are current (static point
    /// sets, or immediately after `update`s with exact positions).
    pub fn neighbors_within(&self, node: usize, range: f64, out: &mut Vec<usize>) {
        let center = self.points[node];
        let start = out.len();
        self.candidates_within(center, range, out);
        let range_sq = range * range;
        let mut write = start;
        for read in start..out.len() {
            let v = out[read];
            let (x, y) = self.points[v];
            let (dx, dy) = (x - center.0, y - center.1);
            if v != node && dx * dx + dy * dy <= range_sq {
                out[write] = v;
                write += 1;
            }
        }
        out.truncate(write);
        out[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;
    use rand::Rng;

    /// Brute-force reference: indices within `range` of `node`, ascending.
    fn brute(points: &[(f64, f64)], node: usize, range: f64) -> Vec<usize> {
        let (cx, cy) = points[node];
        points
            .iter()
            .enumerate()
            .filter(|&(v, &(x, y))| {
                v != node && (x - cx) * (x - cx) + (y - cy) * (y - cy) <= range * range
            })
            .map(|(v, _)| v)
            .collect()
    }

    fn random_points(n: usize, extent: f64, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = stream(seed, "spatial-test", 0);
        (0..n)
            .map(|_| {
                (
                    rng.gen_range(-extent..extent),
                    rng.gen_range(-extent..extent),
                )
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        // Cell sizes straddling the query ranges: blocks of 3×3 up to 9×9.
        for seed in 0..6 {
            let points = random_points(120, 1500.0, seed);
            for cell in [150.0, 300.0, 550.0, 800.0] {
                let index = SpatialIndex::new(cell, &points);
                let mut out = Vec::new();
                for node in 0..points.len() {
                    for range in [100.0, 250.0, 550.0] {
                        out.clear();
                        index.neighbors_within(node, range, &mut out);
                        assert_eq!(
                            out,
                            brute(&points, node, range),
                            "seed {seed} cell {cell} node {node} range {range}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn updates_rebucket_only_on_cell_change() {
        let mut index = SpatialIndex::new(100.0, &[(10.0, 10.0), (250.0, 10.0)]);
        // Move within the same cell: no re-bucket.
        assert!(!index.update(0, (90.0, 90.0)));
        // Cross a boundary: re-bucket.
        assert!(index.update(0, (110.0, 90.0)));
        assert_eq!(index.key_of(index.point(0)), (1, 0));
        let mut out = Vec::new();
        index.neighbors_within(1, 100.0, &mut out);
        assert!(out.is_empty(), "0 is 140 m away");
        index.update(0, (240.0, 10.0));
        out.clear();
        index.neighbors_within(1, 100.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn tracks_moving_points_against_brute_force() {
        let mut points = random_points(60, 800.0, 99);
        let mut index = SpatialIndex::new(300.0, &points);
        let mut rng = stream(7, "spatial-walk", 0);
        let mut out = Vec::new();
        for _ in 0..50 {
            // Random walk every point, including multi-cell jumps.
            for (v, p) in points.iter_mut().enumerate() {
                p.0 += rng.gen_range(-400.0..400.0);
                p.1 += rng.gen_range(-400.0..400.0);
                index.update(v, *p);
            }
            for node in [0, 17, 59] {
                out.clear();
                index.neighbors_within(node, 300.0, &mut out);
                assert_eq!(out, brute(&points, node, 300.0));
            }
        }
    }

    #[test]
    fn negative_coordinates_are_fine() {
        let points = [(-10.0, -10.0), (-20.0, -15.0), (500.0, 500.0)];
        let index = SpatialIndex::new(550.0, &points);
        let mut out = Vec::new();
        index.neighbors_within(0, 50.0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn range_may_exceed_cell_size() {
        let points = random_points(80, 1000.0, 5);
        let index = SpatialIndex::new(120.0, &points);
        let mut out = Vec::new();
        for node in [0, 40, 79] {
            out.clear();
            index.neighbors_within(node, 700.0, &mut out);
            assert_eq!(out, brute(&points, node, 700.0));
        }
    }

    #[test]
    fn update_outside_the_initial_box_regrows_it() {
        // A 3 × 3-cell box around the origin; nodes then jump several
        // cells beyond it in both signs on both axes.
        let mut points = random_points(30, 150.0, 11);
        let mut index = SpatialIndex::new(100.0, &points);
        let box_before = (index.origin, index.dims);
        for (node, to) in [
            (0, (-1234.0, 40.0)),
            (1, (60.0, 2345.0)),
            (2, (1810.0, -1790.0)),
            (3, (-1200.0, 35.0)),
        ] {
            points[node] = to;
            assert!(index.update(node, to));
        }
        assert_ne!((index.origin, index.dims), box_before, "box regrew");
        assert_eq!(index.origin, (-13, -18));
        assert_eq!(index.dims, (32, 42));
        let mut out = Vec::new();
        for node in 0..points.len() {
            for range in [90.0, 300.0] {
                out.clear();
                index.neighbors_within(node, range, &mut out);
                assert_eq!(out, brute(&points, node, range), "node {node}");
            }
        }
        // And back in: the box never shrinks, results stay exact.
        points[0] = (10.0, 10.0);
        index.update(0, points[0]);
        out.clear();
        index.neighbors_within(0, 300.0, &mut out);
        assert_eq!(out, brute(&points, 0, 300.0));
    }

    #[test]
    fn zero_and_one_point_indexes_answer_queries() {
        let empty = SpatialIndex::new(100.0, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.mem_bytes(), 0);
        let mut out = Vec::new();
        empty.candidates_within((-250.0, 30.0), 500.0, &mut out);
        assert!(out.is_empty());

        let mut one = SpatialIndex::new(100.0, &[(-40.0, 950.0)]);
        assert_eq!((one.origin, one.dims), ((-1, 9), (1, 1)));
        one.candidates_within((0.0, 900.0), 150.0, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        one.candidates_within((5000.0, 5000.0), 150.0, &mut out);
        assert!(out.is_empty(), "the block lies wholly outside the box");
        one.neighbors_within(0, 500.0, &mut out);
        assert!(out.is_empty(), "a node is not its own neighbor");
        assert!(one.update(0, (730.0, -10.0)));
        one.candidates_within((700.0, 0.0), 50.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn mem_bytes_is_the_sum_of_capacities() {
        let points = random_points(200, 900.0, 3);
        let mut index = SpatialIndex::new(250.0, &points);
        index.update(7, (4000.0, -4000.0));
        let buckets: usize = index.cells.iter().map(|c| c.capacity() * 4).sum();
        assert!(buckets >= 200 * 4);
        assert_eq!(
            index.mem_bytes(),
            index.cells.capacity() * 24
                + buckets
                + index.keys.capacity() * 16
                + index.points.capacity() * 16
        );
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn bad_cell_size_panics() {
        let _ = SpatialIndex::new(0.0, &[]);
    }
}
