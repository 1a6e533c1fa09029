//! Reproduces the paper's worked examples exactly, by replaying each route
//! reply through Algorithm 1 (`NEWORDER`), the label rule SRP runs.
//!
//! * **Fig. 1** — initial labeling of a line `E-D-C-B-A-T`: the request
//!   travels to `T` (label 0/1); the reply relabels the path to
//!   `5/6 → 4/5 → 3/4 → 2/3 → 1/2 → 0/1`.
//! * **Fig. 2** — later, nodes `F`, `G`, `H` (labels 2/3, 2/3, 3/4 but no
//!   routes) attach through `B` and `A` *without relabeling any
//!   predecessor*: `B` splits to 3/5, `F` splits to 5/8, `G` and `H` keep
//!   their labels. Final order `3/4 → 2/3 → 5/8 → 3/5 → 1/2 → 0/1`
//!   (`0.75, .66, .625, .6, .5, 0` in truncated decimal, as the paper
//!   prints it).
//!
//! Every label here has sequence number 1, the destination's; the table
//! prints the fraction part.
//!
//! ```sh
//! cargo run --release -p slr --example paper_figures
//! ```

use slr_core::invariant::check_destination;
use slr_core::NewOrderCase::{self, KeepOwn, NextElement, Split};
use slr_core::{maintains_order, new_order, Fraction, SplitLabel32, SuccessorEdge};

fn l(n: u32, d: u32) -> SplitLabel32 {
    SplitLabel32::new(1, Fraction::new(n, d).expect("valid fraction"))
}

/// Replays a route reply along `path` (requester first, replier last).
/// Each node on the way back runs `new_order` with `own` = its current
/// label, `adv` = the label its downstream neighbour just advertised, and
/// `cached` = the minimum (Definition 5) over the labels of the path nodes
/// upstream of it, which is what the request recorded on its way out.
/// Returns the successor edge each node installs and the case that fired.
fn reply_walk(
    labels: &mut [SplitLabel32],
    path: &[usize],
) -> Vec<(SuccessorEdge<u32>, NewOrderCase)> {
    let (&replier, relays) = path.split_last().expect("non-empty path");
    let mut adv = labels[replier];
    let mut to = replier;
    let mut out = Vec::new();
    for (i, &node) in relays.iter().enumerate().rev() {
        let cached = path[..i].iter().fold(SplitLabel32::unassigned(), |m, &u| {
            SplitLabel32::min_label(m, labels[u])
        });
        let own = labels[node];
        let g = new_order(own, cached, adv);
        assert!(maintains_order(&g.label, &own, &cached, &adv, None));
        labels[node] = g.label;
        out.push((
            SuccessorEdge {
                from: node,
                to,
                own: g.label,
                recorded: adv,
            },
            g.case,
        ));
        adv = g.label;
        to = node;
    }
    out
}

/// Prints one figure's table (with the case that relabeled each node the
/// reply reached) and checks that the installed successor edges keep
/// Definition 1 and Theorem 3.
fn show(
    title: &str,
    names: &[&str],
    labels: &[SplitLabel32],
    walk: &[(SuccessorEdge<u32>, NewOrderCase)],
) {
    println!("{title}");
    for (node, name) in names.iter().enumerate() {
        let fd = labels[node].fd();
        let case = walk
            .iter()
            .find(|(e, _)| e.from == node)
            .map_or(String::new(), |(_, c)| format!(", {c:?}"));
        println!("  {name}: {fd}  (≈ {:.3}{case})", fd.value());
    }
    let edges: Vec<_> = walk.iter().map(|(e, _)| *e).collect();
    check_destination(0, labels.len(), &edges).expect("Theorem 3 holds");
}

fn main() {
    // ---- Fig. 1 ----
    // Nodes: T=0, A=1, B=2, C=3, D=4, E=5; E requests, T replies.
    let names = ["T", "A", "B", "C", "D", "E"];
    let mut labels = [SplitLabel32::unassigned(); 6];
    labels[0] = SplitLabel32::destination(1);
    let walk = reply_walk(&mut labels, &[5, 4, 3, 2, 1, 0]);
    show("Fig. 1 — initial graph labeling", &names, &labels, &walk);
    assert_eq!(labels[1..], [l(1, 2), l(2, 3), l(3, 4), l(4, 5), l(5, 6)]);
    assert!(walk.iter().all(|(_, c)| *c == NextElement));

    // ---- Fig. 2 ----
    // Nodes: T=0, A=1, B=2, F=3, G=4, H=5. A and B hold a route; F, G and
    // H hold stale labels from routes they once had. H's request passes B,
    // which cannot reply (its label is not below the request minimum), so
    // it reaches A.
    let names = ["T", "A", "B", "F", "G", "H"];
    let mut labels = [
        SplitLabel32::destination(1),
        l(1, 2),
        l(2, 3),
        l(2, 3),
        l(2, 3),
        l(3, 4),
    ];
    let walk = reply_walk(&mut labels, &[5, 4, 3, 2, 1]);
    show(
        "Fig. 2 — re-labeling (inserting F, G, H without touching A)",
        &names,
        &labels,
        &walk,
    );
    assert_eq!(labels[1], l(1, 2), "A keeps 1/2: no predecessor relabel");
    assert_eq!(labels[2], l(3, 5), "B splits to 3/5");
    assert_eq!(labels[3], l(5, 8), "F splits to 5/8");
    assert_eq!(labels[4], l(2, 3), "G keeps 2/3");
    assert_eq!(labels[5], l(3, 4), "H keeps 3/4");
    let cases: Vec<_> = walk.iter().map(|(_, c)| *c).collect();
    assert_eq!(cases, [Split, Split, KeepOwn, KeepOwn]);

    println!("Both worked examples match the paper exactly.");
}
