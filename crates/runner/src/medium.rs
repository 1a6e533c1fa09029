//! Incremental position tracking: the harness-side medium that answers
//! the channel's neighbor queries in O(candidates) — the nodes bucketed
//! around the transmitter — instead of O(N).
//!
//! The old harness kept a full `Vec<Position>` snapshot, rebuilt every
//! 100 ms of virtual time — an O(N) refresh feeding an O(N) scan in
//! `Channel::begin_tx`, which made dense scenarios quadratic and capped
//! them near a hundred nodes. The [`PositionTracker`] replaces both
//! halves:
//!
//! * **Cell-accurate bucketing.** Nodes live in a
//!   [`SpatialIndex`](slr_netsim::SpatialIndex) whose cell side exceeds
//!   the carrier-sense range. A node's bucket only changes when it
//!   crosses a cell boundary, and mobility trajectories are
//!   piecewise-linear, so those crossing times are *computable in
//!   advance*: each node carries a "next possible cell change" deadline
//!   (exact boundary-crossing time within its current segment, or the
//!   segment's end), kept in a min-heap. [`PositionTracker::sync_to`]
//!   pops due deadlines and re-buckets just those dirty nodes — a no-op
//!   for static scenarios, O(crossings) for mobile ones, never a full
//!   rebuild and never an allocation. Processing a deadline also
//!   refreshes the node's cached trajectory segment, so position
//!   evaluation is one flat-array interpolation, not a pointer chase.
//! * **Exact positions on demand.** Queries never trust bucketed
//!   positions: [`MediumView`] evaluates the trajectory at the query
//!   instant for the transmitter and each candidate, filters by true
//!   distance with the same arithmetic as the brute-force scan, and
//!   emits the survivors in ascending node order through a two-level
//!   bitmap (see `QueryScratch`). The result is therefore
//!   *bit-identical* to
//!   [`BruteForceMedium`](slr_radio::medium::BruteForceMedium) over
//!   `positions_at(now)` — the equivalence proptests in the workspace
//!   root enforce exactly that.
//!
//! **What one query costs.** The candidate scan reads at most 5 × 5
//! adjacent buckets of a flat grid, the filter is one distance per
//! candidate, and the emit visits one summary word per 4 096 node ids
//! between the lowest and highest survivor plus one bitmap word per
//! word that holds a survivor. Node ids are scenario-order, so a
//! transmitter's survivors are spread over all of `0..N`; the only term
//! that grows with N is still that `N / 4096` (25 words at 100 000
//! nodes), and a unit test below counts the words to hold it there.
//!
//! The one-meter scan padding ([`CELL_PAD_M`]) absorbs floating-point
//! slack in crossing prediction: a node is guaranteed bucketed within
//! nanometers of its true cell, so scanning cells out to
//! `range + CELL_PAD_M` provably covers every in-range node.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use slr_mobility::{MobilityScript, Position, Segment};
use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::SpatialIndex;
use slr_radio::NeighborQuery;

/// Slack added to the candidate-scan radius beyond the query range,
/// absorbing floating-point error in boundary-crossing prediction (the
/// real bucketing drift is nanometers; a meter is beyond conservative).
pub const CELL_PAD_M: f64 = 1.0;

/// Grid-bucketed node tracker, kept current by processing per-node cell
/// crossing deadlines instead of periodic full rebuilds.
pub struct PositionTracker {
    index: SpatialIndex,
    /// Earliest instant each node could next change cell, as a min-heap
    /// of `(deadline, node)`. A node absent from the heap never moves
    /// again. Invariant: any node whose deadline exceeds the last
    /// `sync_to` time is still inside its bucketed cell.
    deadlines: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Per-node trajectory segment containing every instant between the
    /// node's last deadline processing and its next deadline. Lets
    /// queries evaluate exact positions from one flat, cache-friendly
    /// array instead of chasing per-trajectory allocations; the
    /// arithmetic is `Segment::position_at` either way, so results are
    /// bit-identical to `MobilityScript::position`.
    segments: Vec<Segment>,
    /// Reusable query buffers (interior-mutable: the query trait takes
    /// `&self`). Lives here, not in the per-transmission view, so the
    /// hot path never allocates.
    scratch: RefCell<QueryScratch>,
    /// The largest query range the index can serve.
    max_range_m: f64,
    /// Bumped once per processed deadline in [`PositionTracker::sync_to`].
    /// Speculative neighbor queries (parallel-engine workers pre-computing
    /// the candidate filter for a MAC-timer transmission) are stamped with
    /// this counter and discarded if it moved before consumption — an
    /// unchanged generation proves every cached segment the speculation
    /// read is still the segment a fresh query would read.
    generation: u64,
}

/// Per-query working memory: candidate list, a distance table, and a
/// two-level bitmap over node ids that emits survivors in ascending node
/// order without sorting them (survivor sets are small, but sorting ~50
/// pairs was the single most expensive step of a query).
///
/// Bit `v` of `bitmap` marks node `v` a survivor; bit `w` of `summary`
/// marks `bitmap[w]` non-zero. Survivor ids are spread over all of
/// `0..N`, so walking `bitmap` alone between the lowest and highest
/// marked word is an O(N/64) sweep per query — ~1 560 words to emit ~47
/// neighbours at 100 000 nodes. The summary level makes the emit
/// output-sensitive: `N / 4096` summary words, then only the set words,
/// then only the set bits. Both levels are cleared as they are read, so
/// every query starts from all-zero scratch.
#[derive(Default)]
struct QueryScratch {
    candidates: Vec<usize>,
    cand_dist: Vec<f64>,
    dist: Vec<f64>,
    bitmap: Vec<u64>,
    summary: Vec<u64>,
    /// Bitmap and summary words the emit has read, over all queries.
    #[cfg(test)]
    words_visited: usize,
}

impl PositionTracker {
    /// Builds the tracker at `t = 0` for queries up to `max_range_m`.
    pub fn new(script: &MobilityScript, max_range_m: f64) -> Self {
        // Half-range cells: the scan block becomes 5 × 5 but covers 1.9×
        // the query disc's area instead of the 2.9× a 3 × 3 of full-range
        // cells would, and fewer candidates beat fewer map lookups.
        let cell_m = (max_range_m + CELL_PAD_M) / 2.0;
        let points: Vec<(f64, f64)> = (0..script.len())
            .map(|v| {
                let p = script.position(v, SimTime::ZERO);
                (p.x, p.y)
            })
            .collect();
        let mut deadlines = BinaryHeap::new();
        let mut segments = Vec::with_capacity(script.len());
        for v in 0..script.len() {
            let tr = script.trajectory(v);
            segments.push(tr.segments()[tr.segment_index_at(SimTime::ZERO)]);
            if let Some(t) = next_cell_deadline(script, v, SimTime::ZERO, cell_m) {
                deadlines.push(Reverse((t, v)));
            }
        }
        PositionTracker {
            index: SpatialIndex::new(cell_m, &points),
            deadlines,
            segments,
            scratch: RefCell::new(QueryScratch {
                dist: vec![0.0; script.len()],
                bitmap: vec![0; script.len().div_ceil(64)],
                summary: vec![0; script.len().div_ceil(64 * 64)],
                ..QueryScratch::default()
            }),
            max_range_m,
            generation: 0,
        }
    }

    /// Live heap bytes of the spatial index, deadline heap, segment cache
    /// and query scratch.
    pub fn mem_bytes(&self) -> usize {
        let scratch = self.scratch.borrow();
        self.index.mem_bytes()
            + self.deadlines.capacity() * std::mem::size_of::<Reverse<(SimTime, usize)>>()
            + self.segments.capacity() * std::mem::size_of::<Segment>()
            + (scratch.candidates.capacity() + scratch.bitmap.capacity()) * 8
            + (scratch.cand_dist.capacity() + scratch.dist.capacity()) * 8
            + scratch.summary.capacity() * 8
    }

    /// Brings every bucket up to date for queries at `now`: processes all
    /// expired deadlines, re-bucketing each dirty node at its position at
    /// `now`, refreshing its cached segment and scheduling its next
    /// deadline. O(1) when nothing expired.
    pub fn sync_to(&mut self, script: &MobilityScript, now: SimTime) {
        while let Some(&Reverse((t, node))) = self.deadlines.peek() {
            if t > now {
                break;
            }
            self.deadlines.pop();
            self.generation = self.generation.wrapping_add(1);
            let tr = script.trajectory(node);
            let seg = tr.segments()[tr.segment_index_at(now)];
            self.segments[node] = seg;
            let p = seg.position_at(now);
            self.index.update(node, (p.x, p.y));
            if let Some(next) = next_cell_deadline(script, node, now, self.index.cell_size()) {
                // Strictly advancing deadlines keep this loop finite.
                let next = next.max(now + SimDuration::from_nanos(1));
                self.deadlines.push(Reverse((next, node)));
            }
        }
    }

    /// Exact position of `node` at `now`, from the cached segment.
    /// Requires a preceding [`PositionTracker::sync_to`] at `now`;
    /// bit-identical to `script.position(node, now)` (the cached segment
    /// is provably the one covering `now`, and the interpolation is the
    /// same `Segment::position_at`).
    pub fn position(&self, node: usize, now: SimTime) -> Position {
        self.segments[node].position_at(now)
    }

    /// The underlying index (candidate enumeration).
    pub fn index(&self) -> &SpatialIndex {
        &self.index
    }

    /// The largest range [`MediumView`] queries may use.
    pub fn max_range_m(&self) -> f64 {
        self.max_range_m
    }

    /// Segment-refresh counter: advances exactly once per deadline
    /// processed by [`PositionTracker::sync_to`]. See the field docs for
    /// the speculation-validity argument.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A `Sync` borrow of the tracker's segment cache and bucket index
    /// for speculative queries on worker threads (the tracker itself is
    /// not `Sync` — its query scratch is a `RefCell`; the view carries
    /// none and callers bring their own buffers).
    pub fn view(&self) -> TrackerView<'_> {
        TrackerView {
            segments: &self.segments,
            index: &self.index,
            max_range_m: self.max_range_m,
        }
    }
}

/// The shareable slice of tracker state parallel-engine workers need to
/// pre-compute a whole neighbor query off the serial path: the cached
/// trajectory segments (exact positions) and the bucket index (candidate
/// enumeration — a pure read). Valid only while the tracker's generation
/// is unchanged; the harness stamps every speculation and re-checks at
/// consumption.
#[derive(Clone, Copy)]
pub struct TrackerView<'a> {
    segments: &'a [Segment],
    index: &'a SpatialIndex,
    max_range_m: f64,
}

impl TrackerView<'_> {
    /// Speculative replay of `MediumView::neighbors_within(node, range)`
    /// at `now`, end to end: the same padded candidate scan over the same
    /// buckets, then an exact-distance filter with the *same arithmetic*
    /// as the serial query (same `Segment::position_at`, same
    /// `Position::distance`, same `d <= range` accept test), survivors
    /// appended to `out` in the same ascending node order. `candidates`
    /// is caller scratch (cleared here). Valid only while the tracker's
    /// generation matches the one the view was captured under.
    pub fn speculate_query(
        &self,
        node: usize,
        now: SimTime,
        range: f64,
        candidates: &mut Vec<usize>,
        out: &mut Vec<(usize, f64)>,
    ) {
        debug_assert!(range <= self.max_range_m);
        let center = self.segments[node].position_at(now);
        candidates.clear();
        self.index
            .candidates_within((center.x, center.y), range + CELL_PAD_M, candidates);
        let start = out.len();
        for &v in candidates.iter() {
            let d = center.distance(&self.segments[v].position_at(now));
            if (v != node) & (d <= range) {
                out.push((v, d));
            }
        }
        // Candidate order is cell-scan order; node indices are unique, so
        // an unstable sort yields exactly the serial bitmap-emit order.
        out[start..].sort_unstable_by_key(|&(v, _)| v);
    }
}

/// Earliest future instant at which `node` could leave its current grid
/// cell, or `None` if it is parked forever. Within a movement segment
/// this is the exact time its x or y coordinate next reaches a multiple
/// of `cell_m`, capped at the segment boundary (the next leg changes
/// direction and is re-examined then); pause legs cannot move until they
/// end.
fn next_cell_deadline(
    script: &MobilityScript,
    node: usize,
    now: SimTime,
    cell_m: f64,
) -> Option<SimTime> {
    let tr = script.trajectory(node);
    let idx = tr.segment_index_at(now);
    let seg = &tr.segments()[idx];
    let last = idx + 1 == tr.segments().len();
    if seg.from == seg.to || now >= seg.end_time {
        // A pause leg, or clamped past the trajectory's end: parked until
        // the leg ends (forever, if nothing follows).
        return if last { None } else { Some(seg.end_time) };
    }
    let dt = seconds_to_axis_crossing(seg, now, cell_m);
    Some(if dt.is_finite() {
        seg.end_time.min(now + SimDuration::from_secs_f64(dt))
    } else {
        seg.end_time
    })
}

/// Seconds from `now` until the segment's motion next carries x or y
/// across a multiple of `cell_m` (infinite for axis-parallel motion that
/// never crosses the other axis).
fn seconds_to_axis_crossing(seg: &Segment, now: SimTime, cell_m: f64) -> f64 {
    let span = (seg.end_time - seg.start_time).as_secs_f64();
    let p = seg.position_at(now);
    let vx = (seg.to.x - seg.from.x) / span;
    let vy = (seg.to.y - seg.from.y) / span;
    axis_crossing(p.x, vx, cell_m).min(axis_crossing(p.y, vy, cell_m))
}

fn axis_crossing(x: f64, v: f64, cell_m: f64) -> f64 {
    if v == 0.0 {
        return f64::INFINITY;
    }
    let k = (x / cell_m).floor();
    let boundary = if v > 0.0 {
        (k + 1.0) * cell_m
    } else {
        k * cell_m
    };
    ((boundary - x) / v).max(0.0)
}

/// A borrow of the tracker frozen at one query instant, implementing the
/// channel's [`NeighborQuery`]: candidates from the (synced) index,
/// positions and distances evaluated exactly at `now` from the mobility
/// script. The caller must have run [`PositionTracker::sync_to`] for the
/// same `now` first.
pub struct MediumView<'a> {
    tracker: &'a PositionTracker,
    script: &'a MobilityScript,
    now: SimTime,
}

impl<'a> MediumView<'a> {
    /// Freezes a view at `now`.
    pub fn new(tracker: &'a PositionTracker, script: &'a MobilityScript, now: SimTime) -> Self {
        MediumView {
            tracker,
            script,
            now,
        }
    }
}

impl NeighborQuery for MediumView<'_> {
    fn node_count(&self) -> usize {
        self.script.len()
    }

    fn position(&self, node: usize) -> Position {
        self.tracker.position(node, self.now)
    }

    fn neighbors_within(&self, node: usize, range: f64, out: &mut Vec<(usize, f64)>) {
        assert!(
            range <= self.tracker.max_range_m,
            "query range {range} exceeds tracker capacity {}",
            self.tracker.max_range_m
        );
        let center = self.tracker.position(node, self.now);
        let mut scratch = self.tracker.scratch.borrow_mut();
        let QueryScratch {
            candidates,
            cand_dist,
            dist,
            bitmap,
            summary,
            #[cfg(test)]
            words_visited,
        } = &mut *scratch;
        candidates.clear();
        // Nodes are bucketed within CELL_PAD_M of their true position
        // (nanometers, really), so scanning range + pad cannot miss an
        // in-range node.
        self.tracker
            .index
            .candidates_within((center.x, center.y), range + CELL_PAD_M, candidates);
        // Pass 1: exact distance per candidate, with the same arithmetic
        // as the brute-force medium (bit-identical accept/reject
        // decisions downstream).
        cand_dist.clear();
        cand_dist.extend(
            candidates
                .iter()
                .map(|&v| center.distance(&self.tracker.position(v, self.now))),
        );
        // Pass 2: mark survivors in both bitmap levels, branchlessly
        // (survival is ~50/50, so a data dependency beats a mispredicted
        // branch), to emit them in ascending node order without a sort.
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for (&v, &d) in candidates.iter().zip(cand_dist.iter()) {
            let keep = (v != node) & (d <= range);
            let word = v >> 6;
            dist[v] = d;
            bitmap[word] |= (keep as u64) << (v & 63);
            summary[word >> 6] |= (keep as u64) << (word & 63);
            lo = lo.min(if keep { word >> 6 } else { usize::MAX });
            hi = hi.max(if keep { word >> 6 } else { 0 });
        }
        if lo > hi {
            return;
        }
        // Emit: summary words → set bitmap words → set bits, clearing
        // each word as it is read.
        for (s, set_words) in summary[lo..=hi].iter_mut().enumerate() {
            let mut words = std::mem::take(set_words);
            #[cfg(test)]
            {
                *words_visited += 1 + words.count_ones() as usize;
            }
            while words != 0 {
                let word = ((lo + s) << 6) + words.trailing_zeros() as usize;
                words &= words - 1;
                let mut bits = std::mem::take(&mut bitmap[word]);
                while bits != 0 {
                    let v = (word << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    out.push((v, dist[v]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slr_mobility::WaypointConfig;
    use slr_netsim::rng::stream;
    use slr_radio::medium::BruteForceMedium;

    fn waypoint_script(n: usize, seed: u64) -> MobilityScript {
        let cfg = WaypointConfig {
            duration: SimDuration::from_secs(120),
            pause: SimDuration::from_secs(5),
            ..WaypointConfig::default()
        };
        MobilityScript::generate(n, &cfg, &mut stream(seed, "medium-test", 0))
    }

    #[test]
    fn tracked_queries_match_brute_force_under_mobility() {
        let script = waypoint_script(40, 3);
        let mut tracker = PositionTracker::new(&script, 550.0);
        let mut positions = Vec::new();
        for ms in (0..120_000).step_by(333) {
            let now = SimTime::from_millis(ms);
            tracker.sync_to(&script, now);
            script.positions_into(now, &mut positions);
            let view = MediumView::new(&tracker, &script, now);
            let brute = BruteForceMedium(&positions);
            for node in [0, 13, 39] {
                for range in [250.0, 550.0] {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    view.neighbors_within(node, range, &mut a);
                    brute.neighbors_within(node, range, &mut b);
                    assert_eq!(a, b, "t={ms}ms node {node} range {range}");
                    assert_eq!(view.position(node), brute.position(node));
                }
            }
        }
    }

    /// `n` nodes uniform over a disc at the dense family's density, in
    /// the positive quadrant (waypoint terrains start at the origin).
    fn dense_disc(n: usize, seed: u64) -> (Vec<Position>, f64) {
        use rand::Rng;
        let area = n as f64 * crate::registry::Family::DENSE_AREA_PER_NODE_M2;
        let radius = (area / std::f64::consts::PI).sqrt();
        let mut rng = stream(seed, "medium-test", 1);
        let positions = (0..n)
            .map(|_| {
                let r = radius * rng.gen_range(0.0f64..1.0).sqrt();
                let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                Position::new(radius + r * theta.cos(), radius + r * theta.sin())
            })
            .collect();
        (positions, radius)
    }

    fn assert_scratch_is_zero(tracker: &PositionTracker) {
        let scratch = tracker.scratch.borrow();
        assert!(scratch.bitmap.iter().all(|&w| w == 0), "leaked bitmap bit");
        assert!(
            scratch.summary.iter().all(|&w| w == 0),
            "leaked summary bit"
        );
    }

    #[test]
    fn two_level_emit_matches_brute_force_past_the_summary_boundary() {
        // 157 bitmap words and 3 summary words; every 200th node roams.
        const N: usize = 10_000;
        let (positions, radius) = dense_disc(N, 5);
        let mut script = MobilityScript::stationary(&positions);
        let cfg = WaypointConfig {
            terrain: slr_mobility::Terrain::new(2.0 * radius, 2.0 * radius),
            duration: SimDuration::from_secs(70),
            ..WaypointConfig::default()
        };
        let mut rng = stream(5, "medium-test", 2);
        for v in (0..N).step_by(200) {
            script.replace_trajectory(
                v,
                slr_mobility::generate_trajectory_from(positions[v], &cfg, &mut rng),
            );
        }
        let mut tracker = PositionTracker::new(&script, 550.0);
        assert_eq!(tracker.scratch.borrow().summary.len(), 3);
        let nodes: Vec<usize> = [0, 63, 64, 4095, 4096, 8191, 8192, N - 1]
            .into_iter()
            .chain((0..N).step_by(397))
            .chain((0..N).step_by(1400)) // movers
            .collect();
        let mut now_positions = Vec::new();
        let (mut serial, mut spec, mut expect) = (Vec::new(), Vec::new(), Vec::new());
        let mut candidates = Vec::new();
        for secs in [0, 7, 33, 61] {
            let now = SimTime::from_secs(secs);
            tracker.sync_to(&script, now);
            script.positions_into(now, &mut now_positions);
            let brute = BruteForceMedium(&now_positions);
            for &node in &nodes {
                for range in [250.0, 550.0] {
                    serial.clear();
                    spec.clear();
                    expect.clear();
                    MediumView::new(&tracker, &script, now).neighbors_within(
                        node,
                        range,
                        &mut serial,
                    );
                    assert_scratch_is_zero(&tracker);
                    tracker
                        .view()
                        .speculate_query(node, now, range, &mut candidates, &mut spec);
                    brute.neighbors_within(node, range, &mut expect);
                    assert_eq!(serial, expect, "t={secs}s node {node} range {range}");
                    assert_eq!(spec, expect, "t={secs}s node {node} range {range}");
                }
            }
        }
        assert!(tracker.generation() > 0, "the movers crossed cells");
    }

    #[test]
    fn emit_cost_follows_survivors_not_node_count() {
        // Equal density, 100× the nodes: the words the emit reads per
        // query may grow by the summary level (one word per 4 096 ids)
        // and nothing else. A plain lo..=hi walk over the bitmap reads
        // ~1 500 words per query at 100 000 nodes.
        for n in [1_000usize, 100_000] {
            let (positions, _) = dense_disc(n, 9);
            let script = MobilityScript::stationary(&positions);
            let tracker = PositionTracker::new(&script, 550.0);
            let view = MediumView::new(&tracker, &script, SimTime::ZERO);
            let mut out = Vec::new();
            let (mut queries, mut survivors) = (0usize, 0usize);
            for node in (0..n).step_by(n / 250) {
                out.clear();
                view.neighbors_within(node, 550.0, &mut out);
                queries += 1;
                survivors += out.len();
            }
            let visited = tracker.scratch.borrow().words_visited;
            assert!(survivors > 20 * queries, "dense enough to mean something");
            assert!(
                visited <= 2 * survivors + queries * (n / 4096 + 2),
                "n={n}: {visited} words visited for {survivors} survivors over {queries} queries"
            );
        }
    }

    #[test]
    fn speculation_matches_serial_query_and_generation_gates_staleness() {
        let script = waypoint_script(40, 7);
        let mut tracker = PositionTracker::new(&script, 550.0);
        for ms in (0..120_000).step_by(777) {
            let now = SimTime::from_millis(ms);
            tracker.sync_to(&script, now);
            let gen = tracker.generation();
            for node in [0, 17, 39] {
                for range in [250.0, 550.0] {
                    // The worker-side replay: padded candidate scan plus
                    // exact-distance filter, all through the view.
                    let mut candidates = Vec::new();
                    let mut spec = Vec::new();
                    tracker
                        .view()
                        .speculate_query(node, now, range, &mut candidates, &mut spec);
                    let mut serial = Vec::new();
                    MediumView::new(&tracker, &script, now).neighbors_within(
                        node,
                        range,
                        &mut serial,
                    );
                    assert_eq!(spec, serial, "t={ms}ms node {node} range {range}");
                }
            }
            // A sync that processed no deadline must not move the
            // generation (speculation stays valid through same-time
            // re-syncs inside a window).
            tracker.sync_to(&script, now);
            assert_eq!(tracker.generation(), gen);
        }
        // Mobility eventually processes deadlines, so the counter moved.
        assert!(tracker.generation() > 0);
    }

    #[test]
    fn static_scripts_never_schedule_deadlines() {
        let script = MobilityScript::stationary(&[
            Position::new(0.0, 0.0),
            Position::new(100.0, 0.0),
            Position::new(900.0, 0.0),
        ]);
        let mut tracker = PositionTracker::new(&script, 550.0);
        assert!(tracker.deadlines.is_empty(), "nothing to re-bucket, ever");
        tracker.sync_to(&script, SimTime::from_secs(1_000_000));
        let view = MediumView::new(&tracker, &script, SimTime::from_secs(1_000_000));
        let mut out = Vec::new();
        view.neighbors_within(0, 550.0, &mut out);
        assert_eq!(out, vec![(1, 100.0)]);
    }

    #[test]
    fn sync_is_incremental_not_rebuilding() {
        // One mover among many parked nodes: syncing must touch only the
        // mover (deadline count stays 1, parked nodes never re-bucket).
        let positions: Vec<Position> = (0..50)
            .map(|i| Position::new(10.0 * i as f64, 0.0))
            .collect();
        let mut trajectories = MobilityScript::stationary(&positions);
        // Replace node 0's trajectory with a straight 2000 m run.
        trajectories.replace_trajectory(
            0,
            slr_mobility::Trajectory::from_segments(vec![Segment {
                start_time: SimTime::ZERO,
                end_time: SimTime::from_secs(100),
                from: Position::new(0.0, 0.0),
                to: Position::new(2000.0, 0.0),
            }]),
        );
        let mut tracker = PositionTracker::new(&trajectories, 550.0);
        assert_eq!(tracker.deadlines.len(), 1);
        for secs in [10, 40, 70, 99] {
            let now = SimTime::from_secs(secs);
            tracker.sync_to(&trajectories, now);
            assert!(tracker.deadlines.len() <= 1);
            let p = trajectories.position(0, now);
            let key = tracker.index.key_of((p.x, p.y));
            assert_eq!(tracker.index.key_of(tracker.index.point(0)), key);
        }
        // After its trajectory ends the mover parks and drops out of the
        // deadline heap entirely.
        tracker.sync_to(&trajectories, SimTime::from_secs(2000));
        assert!(tracker.deadlines.is_empty());
    }
}
