//! Algorithm 1 of the paper: `NEWORDER`, the label-selection procedure of
//! SRP, together with the Definition 1 "maintain order" predicate it must
//! satisfy (Theorem 6).
//!
//! Given a node's current ordering `O_A`, the cached minimum-predecessor
//! ordering `C_A?` recorded when the corresponding solicitation was relayed,
//! and the ordering `O_?` carried by an incoming advertisement, `NEWORDER`
//! either returns a new finite ordering that maintains the graph's
//! topological order, or the infinite ordering `(0, (1,1))`, which forces
//! the caller (Procedure 3, *Set Route*) to ignore the advertisement.

use crate::fraction::{FracInt, Fraction};
use crate::label::SplitLabel;
use crate::sternbrocot::simplest_between;

/// The outcome of [`new_order`] with the reason it was chosen, mirroring the
/// five assignment cases distinguished in the proof of Theorem 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewOrderCase {
    /// Line 2: the advertisement is infeasible, or splitting would overflow;
    /// the returned ordering is infinite and must be discarded.
    Infeasible,
    /// Line 5: fresher sequence number than both the node and its cached
    /// predecessors — take the advertisement's next-element `O_? + 1/1`.
    NextElement,
    /// Lines 7/12: split the cached predecessor ordering and the advertised
    /// ordering with the mediant.
    Split,
    /// Line 10: the node's current label already satisfies predecessor
    /// order; keep it.
    KeepOwn,
}

/// The result of [`new_order`]: the chosen ordering plus which case fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewOrder<T: FracInt> {
    /// The proposed new ordering `G_A^T` (infinite when infeasible).
    pub label: SplitLabel<T>,
    /// Which assignment case of Algorithm 1 produced it.
    pub case: NewOrderCase,
}

/// Algorithm 1 (`NEWORDER`) from §III of the paper.
///
/// * `own` — the node's current ordering `O_A^T` (unassigned if none).
/// * `cached` — the cached solicitation ordering `C_A^?` (the minimum label
///   of the predecessors along the request's reverse path). For
///   advertisements without a cached solicitation (RREQ or hello
///   advertisements) or when the node is the terminus of the reply, pass
///   [`SplitLabel::unassigned`] per Procedure 3.
/// * `adv` — the ordering `O_?^T` in the received advertisement.
///
/// Returns the proposed ordering; when it is not finite the advertisement
/// must be dropped (Procedure 3). Successor pruning (line 13) is the
/// caller's responsibility because the successor table lives with the
/// routing protocol — see `SuccessorTable::prune_out_of_order` in
/// [`crate::successors`].
///
/// # Examples
///
/// ```
/// use slr_core::{new_order, Fraction, NewOrderCase, SplitLabel};
///
/// // A fresher destination sequence number resets the path: take the
/// // advertisement's next-element.
/// let own: SplitLabel<u32> = SplitLabel::new(1, Fraction::new(1, 2)?);
/// let cached = SplitLabel::new(1, Fraction::new(2, 3)?);
/// let adv = SplitLabel::new(2, Fraction::new(1, 4)?);
/// let g = new_order(own, cached, adv);
/// assert_eq!(g.case, NewOrderCase::NextElement);
/// assert_eq!(g.label, SplitLabel::new(2, Fraction::new(2, 5)?));
/// # Ok::<(), slr_core::FractionError>(())
/// ```
pub fn new_order<T: FracInt>(
    own: SplitLabel<T>,
    cached: SplitLabel<T>,
    adv: SplitLabel<T>,
) -> NewOrder<T> {
    let infeasible = NewOrder {
        label: SplitLabel::unassigned(),
        case: NewOrderCase::Infeasible,
    };

    if own.seqno() < adv.seqno() {
        if cached.seqno() < adv.seqno() {
            // Line 5: G ← O_? + 1/1.
            match adv.next_element() {
                Some(g) => NewOrder {
                    label: g,
                    case: NewOrderCase::NextElement,
                },
                None => infeasible,
            }
        } else {
            // Line 6–7: split C and O_? if n + q does not overflow.
            match cached.fd().checked_mediant(&adv.fd()) {
                Some(fd) => NewOrder {
                    label: SplitLabel::new(adv.seqno(), fd),
                    case: NewOrderCase::Split,
                },
                None => infeasible,
            }
        }
    } else if own.seqno() == adv.seqno() {
        if cached.precedes(&own) {
            // Line 10: current label already satisfies predecessor order.
            NewOrder {
                label: own,
                case: NewOrderCase::KeepOwn,
            }
        } else {
            // Line 11–12: split C and O_?.
            match cached.fd().checked_mediant(&adv.fd()) {
                Some(fd) => NewOrder {
                    label: SplitLabel::new(adv.seqno(), fd),
                    case: NewOrderCase::Split,
                },
                None => infeasible,
            }
        }
    } else {
        // sn_A > sn_?: contradicts feasibility; return the infinite
        // ordering (Theorem 6, Case I).
        infeasible
    }
}

/// The four inequalities of Definition 1 (*Maintain Order*), restated for
/// the SRP ordering `≺` where "less" means closer to the destination.
///
/// For a proposed label `g` at a node with current label `own`, cached
/// minimum-predecessor ordering `cached`, advertisement ordering `adv`, and
/// (optionally) the maximum successor ordering `s_max`:
///
/// * **Eq. 3** `G ⪯ L_i` — labels are non-increasing: `own ≺ g` or `g == own`.
/// * **Eq. 4** `G < M_i` — the relayed advertisement stays feasible along
///   the reverse path: `cached ≺ g`.
/// * **Eq. 5** `L_? < G` — the advertiser is strictly below: `g ≺ adv`.
/// * **Eq. 6** `S_max < G` — existing successors stay strictly below:
///   `g ≺ s_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderCheck {
    /// Eq. 3 — the new label does not increase.
    pub non_increasing: bool,
    /// Eq. 4 — predecessor (cached solicitation) order is kept.
    pub predecessor_order: bool,
    /// Eq. 5 — the advertised successor is strictly lower.
    pub successor_feasible: bool,
    /// Eq. 6 — existing successors remain strictly lower (true when the
    /// successor set is empty).
    pub existing_successors: bool,
}

impl OrderCheck {
    /// Whether all four inequalities hold.
    pub fn maintains_order(&self) -> bool {
        self.non_increasing
            && self.predecessor_order
            && self.successor_feasible
            && self.existing_successors
    }
}

/// Evaluates Definition 1 for a proposed label `g`.
///
/// `s_max` is the maximum successor ordering (`None` when the successor set
/// is empty, in which case Eq. 6 is trivially satisfied: the paper takes
/// `S_max` as the least element then).
pub fn check_order<T: FracInt>(
    g: &SplitLabel<T>,
    own: &SplitLabel<T>,
    cached: &SplitLabel<T>,
    adv: &SplitLabel<T>,
    s_max: Option<&SplitLabel<T>>,
) -> OrderCheck {
    OrderCheck {
        non_increasing: own.precedes_eq(g),
        predecessor_order: cached.precedes(g),
        successor_feasible: g.precedes(adv),
        existing_successors: s_max.map_or(true, |s| g.precedes(s)),
    }
}

/// Convenience wrapper: true iff `g` maintains order per Definition 1.
pub fn maintains_order<T: FracInt>(
    g: &SplitLabel<T>,
    own: &SplitLabel<T>,
    cached: &SplitLabel<T>,
    adv: &SplitLabel<T>,
    s_max: Option<&SplitLabel<T>>,
) -> bool {
    check_order(g, own, cached, adv, s_max).maintains_order()
}

/// A helper mirroring Procedure 3's overflow safeguard: whether a label's
/// feasible-distance denominator exceeds `max_denom`, in which case the
/// terminus of an advertisement should request a path reset (unicast RREQ
/// with the D bit set). The paper uses `max_denom = 10^9`.
pub fn needs_denominator_reset<T: FracInt>(label: &SplitLabel<T>, max_denom: u64) -> bool {
    label.fd().den().as_u128() > max_denom as u128
}

/// Farey reduction of a proposed label (the paper's §VI future-work item):
/// replace `g`'s raw-mediant fraction with the *simplest* fraction whose
/// adoption satisfies exactly the same Definition 1 inequalities.
///
/// The open interval the reduced fraction must lie in is read off
/// Definition 1 restricted to `g`'s sequence number:
///
/// * below (`lo`): the advertiser's fraction when `adv` shares the seqno
///   (Eq. 5), and `succ_floor` — the largest same-seqno fraction among
///   successors that remain installed (Eq. 6);
/// * above (`hi`): `own`'s and `cached`'s fractions when they share the
///   seqno (Eqs. 3–4), and `1/1` (the result must stay finite).
///
/// `g` itself lies in that interval whenever it maintains order, so
/// [`simplest_between`] can only return a denominator ≤ `g`'s. Returns
/// `None` when no strictly simpler fraction exists (the caller keeps `g`)
/// and defensively re-verifies Definition 1 on the candidate.
pub fn reduce_label<T: FracInt>(
    g: &SplitLabel<T>,
    own: &SplitLabel<T>,
    cached: &SplitLabel<T>,
    adv: &SplitLabel<T>,
    succ_floor: Option<Fraction<T>>,
) -> Option<SplitLabel<T>> {
    let sn = g.seqno();
    let mut lo = Fraction::zero();
    let mut hi = Fraction::one();
    if adv.seqno() == sn && adv.fd() > lo {
        lo = adv.fd();
    }
    if let Some(f) = succ_floor {
        if f > lo {
            lo = f;
        }
    }
    if own.seqno() == sn && own.fd() < hi {
        hi = own.fd();
    }
    if cached.seqno() == sn && cached.fd() < hi {
        hi = cached.fd();
    }
    let r = simplest_between(&lo, &hi)?;
    if r.den() >= g.fd().den() {
        return None; // no simpler representation exists
    }
    let reduced = SplitLabel::new(sn, r);
    // Defense in depth: the interval construction above implies these,
    // but adopting a label is exactly where an error would break the
    // Theorem 3 loop-freedom argument — never trust the fast path.
    if !maintains_order(&reduced, own, cached, adv, None) {
        return None;
    }
    if let Some(f) = succ_floor {
        if r <= f {
            return None;
        }
    }
    Some(reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fraction::Fraction;

    type L = SplitLabel<u32>;

    fn l(sn: u64, n: u32, d: u32) -> L {
        SplitLabel::new(sn, Fraction::new(n, d).unwrap())
    }

    fn una() -> L {
        SplitLabel::unassigned()
    }

    #[test]
    fn case_next_element_fresher_seqno() {
        // own and cached both stale: adopt adv's next-element.
        let g = new_order(l(1, 1, 2), l(1, 2, 3), l(2, 1, 3));
        assert_eq!(g.case, NewOrderCase::NextElement);
        assert_eq!(g.label, l(2, 2, 4));
    }

    #[test]
    fn case_split_when_cached_has_same_seqno_as_adv() {
        // own stale, cached at adv's seqno: split cached and adv fractions.
        let g = new_order(l(1, 1, 2), l(2, 2, 3), l(2, 1, 3));
        assert_eq!(g.case, NewOrderCase::Split);
        // mediant of 2/3 and 1/3 = 3/6.
        assert_eq!(g.label, l(2, 3, 6));
        // The result is strictly between adv (below) and cached (above):
        // cached ≺ g (Eq. 4) and g ≺ adv (Eq. 5).
        assert!(l(2, 2, 3).precedes(&g.label));
        assert!(g.label.precedes(&l(2, 1, 3)));
    }

    #[test]
    fn case_keep_own() {
        // Equal seqno and cached ≺ own: keep the current label.
        let own = l(3, 1, 2);
        let cached = l(3, 2, 3); // F_own (1/2) < F_cached (2/3) → cached ≺ own
        let adv = l(3, 1, 3);
        let g = new_order(own, cached, adv);
        assert_eq!(g.case, NewOrderCase::KeepOwn);
        assert_eq!(g.label, own);
    }

    #[test]
    fn case_split_same_seqno_out_of_order() {
        // Equal seqno, cached ⊀ own (node is out of order w.r.t. the
        // request): split cached and adv.
        let own = l(3, 3, 4);
        let cached = l(3, 2, 3); // F_own (3/4) > F_cached (2/3) → cached ⊀ own
        let adv = l(3, 1, 2);
        let g = new_order(own, cached, adv);
        assert_eq!(g.case, NewOrderCase::Split);
        assert_eq!(g.label, l(3, 3, 5)); // mediant(2/3, 1/2)
    }

    #[test]
    fn case_infeasible_higher_own_seqno() {
        // sn_A > sn_?: Theorem 6 Case I — never accept.
        let g = new_order(l(5, 1, 2), una(), l(4, 1, 3));
        assert_eq!(g.case, NewOrderCase::Infeasible);
        assert!(!g.label.is_finite());
    }

    #[test]
    fn case_infeasible_on_overflow() {
        let big = Fraction::<u32>::new(u32::MAX - 1, u32::MAX).unwrap();
        let own = l(1, 1, 2);
        let cached = SplitLabel::new(2, big);
        let adv = SplitLabel::new(2, big);
        let g = new_order(own, cached, adv);
        assert_eq!(g.case, NewOrderCase::Infeasible);
    }

    #[test]
    fn unassigned_node_adopts_next_element() {
        // A node with no label hearing a fresh advertisement takes the
        // next-element (fresher seqno path, cached unassigned → sn 0 < adv).
        let g = new_order(una(), una(), l(1, 0, 1));
        assert_eq!(g.case, NewOrderCase::NextElement);
        assert_eq!(g.label, l(1, 1, 2));
    }

    #[test]
    fn theorem6_feasible_results_maintain_order() {
        // Whenever Fact 1 (own ≺ adv or own unassigned-below) and Fact 2
        // (cached ≺ adv) hold and the result is finite, the chosen label
        // must satisfy Eqs. 3–5.
        let fracs: Vec<Fraction<u32>> = [
            (0u32, 1u32),
            (1, 4),
            (1, 3),
            (2, 5),
            (1, 2),
            (3, 5),
            (2, 3),
            (3, 4),
            (1, 1),
        ]
        .iter()
        .map(|&(n, d)| Fraction::new(n, d).unwrap())
        .collect();
        let mut checked = 0;
        for &sn_own in &[0u64, 1, 2] {
            for &sn_c in &[0u64, 1, 2] {
                for &sn_adv in &[1u64, 2] {
                    for &f_own in &fracs {
                        for &f_c in &fracs {
                            for &f_adv in &fracs {
                                let own = SplitLabel::new(sn_own, f_own);
                                let cached = SplitLabel::new(sn_c, f_c);
                                let adv = SplitLabel::new(sn_adv, f_adv);
                                if !own.precedes(&adv) || !cached.precedes(&adv) {
                                    continue; // Facts 1–2 violated.
                                }
                                let g = new_order(own, cached, adv);
                                if !g.label.is_finite() {
                                    continue; // overflow path, allowed.
                                }
                                let chk = check_order(&g.label, &own, &cached, &adv, None);
                                assert!(
                                    chk.non_increasing
                                        && chk.predecessor_order
                                        && chk.successor_feasible,
                                    "own={own} cached={cached} adv={adv} g={:?} chk={chk:?}",
                                    g
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 100, "exhaustive sweep too small: {checked}");
    }

    #[test]
    fn check_order_flags_each_inequality() {
        let own = l(1, 1, 2);
        let cached = l(1, 2, 3);
        let adv = l(1, 1, 3);
        // Proposal above own label → Eq. 3 violated.
        let too_high = l(1, 3, 4);
        assert!(!check_order(&too_high, &own, &cached, &adv, None).non_increasing);
        // Proposal below adv → Eq. 5 violated.
        let too_low = l(1, 1, 4);
        assert!(!check_order(&too_low, &own, &cached, &adv, None).successor_feasible);
        // Valid proposal between adv and own.
        let good = l(1, 2, 5);
        let chk = check_order(&good, &own, &cached, &adv, None);
        assert!(chk.maintains_order());
        // Eq. 6 with a successor max above the proposal.
        let s_max = l(1, 1, 4);
        assert!(check_order(&good, &own, &cached, &adv, Some(&s_max)).existing_successors);
        let s_bad = l(1, 3, 10); // 3/10 < ... wait 3/10 < 2/5: successor fraction must be < g
        let _ = s_bad;
        let s_above = l(1, 1, 2);
        assert!(!check_order(&good, &own, &cached, &adv, Some(&s_above)).existing_successors);
    }

    #[test]
    fn reduce_label_simplifies_within_definition1_interval() {
        // g = mediant-grown 400/1000 between adv 1/3 and cached 1/2: the
        // simplest fraction in (1/3, 1/2) is 2/5, and it must satisfy the
        // same Definition 1 inequalities g did.
        let own = l(4, 600, 1000);
        let cached = l(4, 1, 2);
        let adv = l(4, 1, 3);
        let g = l(4, 400, 1000);
        assert!(maintains_order(&g, &own, &cached, &adv, None));
        let r = reduce_label(&g, &own, &cached, &adv, None).expect("reducible");
        assert_eq!(r, l(4, 2, 5));
        assert!(maintains_order(&r, &own, &cached, &adv, None));
    }

    #[test]
    fn reduce_label_respects_successor_floor() {
        let own = l(4, 600, 1000);
        let cached = l(4, 1, 2);
        let adv = l(4, 1, 3);
        let g = l(4, 440, 1000);
        // A surviving successor at 2/5 forbids reducing to 2/5 or below.
        let floor = Some(Fraction::new(2, 5).unwrap());
        let r = reduce_label(&g, &own, &cached, &adv, floor).expect("reducible");
        assert!(r.fd() > Fraction::new(2, 5).unwrap());
        assert!(r.fd() < Fraction::new(1, 2).unwrap());
        assert!(r.fd().den() < 1000);
    }

    #[test]
    fn reduce_label_declines_when_already_simplest() {
        // g = 2/5 in (1/3, 1/2) is already the simplest fraction there.
        let own = l(4, 1, 2);
        let cached = una();
        let adv = l(4, 1, 3);
        let g = l(4, 2, 5);
        assert!(reduce_label(&g, &own, &cached, &adv, None).is_none());
    }

    #[test]
    fn reduce_label_fresher_seqno_ignores_stale_fractions() {
        // own/cached sit at an older seqno: their fractions do not bound
        // the interval, so the reduction may use the whole (adv, 1).
        let own = l(1, 1, 9);
        let cached = l(1, 1, 8);
        let adv = l(2, 1, 3);
        let g = l(2, 400, 1000);
        assert!(maintains_order(&g, &own, &cached, &adv, None));
        let r = reduce_label(&g, &own, &cached, &adv, None).expect("reducible");
        assert_eq!(r, l(2, 1, 2));
        assert!(maintains_order(&r, &own, &cached, &adv, None));
    }

    #[test]
    fn denominator_reset_threshold() {
        let ok = l(1, 1, 1_000_000);
        assert!(!needs_denominator_reset(&ok, 1_000_000_000));
        let big = SplitLabel::new(1, Fraction::<u32>::new(1, 2_000_000_000).unwrap());
        assert!(needs_denominator_reset(&big, 1_000_000_000));
    }

    /// Replays a route reply through Algorithm 1 along `path` (requester
    /// first, replier last). Each node on the way back takes `own` = its
    /// current label, `adv` = the label its downstream neighbour just
    /// advertised, and `cached` = the minimum (Definition 5) over the
    /// labels of the path nodes upstream of it, which is what the request
    /// recorded on its way out. Returns each node's result, replier's
    /// neighbour first.
    fn reply_walk(labels: &mut [L], path: &[usize]) -> Vec<(usize, NewOrder<u32>)> {
        let (&replier, relays) = path.split_last().expect("non-empty path");
        let mut adv = labels[replier];
        let mut out = Vec::new();
        for (i, &node) in relays.iter().enumerate().rev() {
            let cached = path[..i]
                .iter()
                .fold(una(), |m, &u| SplitLabel::min_label(m, labels[u]));
            let own = labels[node];
            let g = new_order(own, cached, adv);
            assert!(maintains_order(&g.label, &own, &cached, &adv, None));
            labels[node] = g.label;
            adv = g.label;
            out.push((node, g));
        }
        out
    }

    #[test]
    fn paper_figures_replay_through_new_order() {
        use NewOrderCase::{KeepOwn, NextElement, Split};
        // Fig. 1: line E-D-C-B-A-T (nodes 5..0), E requests, T replies.
        let mut labels = [una(); 6];
        labels[0] = SplitLabel::destination(1);
        let walk = reply_walk(&mut labels, &[5, 4, 3, 2, 1, 0]);
        let got: Vec<_> = walk.iter().map(|(n, g)| (*n, g.label, g.case)).collect();
        let want: Vec<_> = (1..=5u32)
            .map(|n| (n as usize, l(1, n, n + 1), NextElement))
            .collect();
        assert_eq!(got, want);

        // Fig. 2: T, A = 1/2, B = 2/3 hold a route; F, G, H (nodes 3, 4,
        // 5) keep stale labels 2/3, 2/3, 3/4. H requests, and the request
        // reaches A, which replies: B and F split, G and H keep their
        // labels, and A is not relabeled.
        let mut labels = [
            SplitLabel::destination(1),
            l(1, 1, 2),
            l(1, 2, 3),
            l(1, 2, 3),
            l(1, 2, 3),
            l(1, 3, 4),
        ];
        let walk = reply_walk(&mut labels, &[5, 4, 3, 2, 1]);
        let got: Vec<_> = walk.iter().map(|(n, g)| (*n, g.label, g.case)).collect();
        assert_eq!(
            got,
            [
                (2, l(1, 3, 5), Split),
                (3, l(1, 5, 8), Split),
                (4, l(1, 2, 3), KeepOwn),
                (5, l(1, 3, 4), KeepOwn),
            ]
        );
        assert_eq!(labels[1], l(1, 1, 2));
    }
}
