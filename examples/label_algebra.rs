//! Tour of the dense label set: mediant splitting, the Fibonacci overflow
//! bound, the Farey-tree reduction the paper's conclusion sketches, and
//! SRP's composite ordering.
//!
//! ```sh
//! cargo run --release -p slr --example label_algebra
//! ```

use slr_core::fraction::worst_case_split_capacity;
use slr_core::sternbrocot::simplest_between;
use slr_core::{Frac32, Fraction, SplitLabel};

fn main() {
    // Mediant splitting (Eq. 1): always lands strictly inside.
    let a: Frac32 = Fraction::new(1, 2).unwrap();
    let b = Fraction::new(2, 3).unwrap();
    let m = a.checked_mediant(&b).unwrap();
    println!("mediant({a}, {b}) = {m}");
    assert!(a < m && m < b);

    // Worst-case split budget (§III): Fibonacci growth.
    let (cap32, cap64) = (
        worst_case_split_capacity::<u32>(),
        worst_case_split_capacity::<u64>(),
    );
    println!("worst-case consecutive splits: u32 = {cap32}, u64 = {cap64}");
    assert_eq!((cap32, cap64), (45, 91));

    // Denominator growth: raw mediants vs Farey (simplest-in-interval),
    // under a relabel storm — 8 chained nodes repeatedly re-inserting
    // themselves between their neighbors. Mediants compound; Farey labels
    // stay shallow (the paper conclusion's motivation for fraction
    // reduction).
    let storm = |farey: bool, rounds: usize| -> u32 {
        let mut labels: Vec<Frac32> = (0..10)
            .map(|i| Fraction::new(i as u32, 9).unwrap())
            .collect();
        let mut max_den = 0;
        for _ in 0..rounds {
            for i in 1..=8 {
                let (lo, hi) = (labels[i - 1], labels[i + 1]);
                let m = if farey {
                    simplest_between(&lo, &hi)
                } else {
                    lo.checked_mediant(&hi)
                };
                let Some(m) = m else { return max_den };
                max_den = max_den.max(m.den());
                labels[i] = m;
            }
        }
        max_den
    };
    println!("relabel storm, max denominator after 14 rounds:");
    let (mediant, farey) = (storm(false, 14), storm(true, 14));
    println!("  mediant : {mediant}");
    println!("  farey   : {farey}");
    assert!(farey <= 9 && farey < mediant);

    // The composite SRP ordering: fresher sequence numbers dominate.
    let old = SplitLabel::<u32>::new(1, Fraction::new(1, 9).unwrap());
    let fresh = SplitLabel::<u32>::new(2, Fraction::new(8, 9).unwrap());
    println!("{old} ≺ {fresh}: {}", old.precedes(&fresh));
    assert!(old.precedes(&fresh));
}
