//! The adversarial-participant axis of a scenario.
//!
//! [`AdversarySpec`] sits beside [`crate::dynamics::DynamicsSpec`] in a
//! [`crate::scenario::Scenario`]: where dynamics perturb the
//! *environment* (links, partitions, power), the adversary axis perturbs
//! the *participants*. Per trial a seeded, protocol-independent fraction
//! of the nodes is selected and wrapped in
//! [`slr_protocols::adversary::Adversary`]; every remaining honest node
//! gets the [`slr_protocols::audit::Audit`] validation layer. Victim
//! selection draws from its own named RNG stream so all protocols face
//! the identical cast per `(seed, trial)`, and chaos adversaries
//! additionally compile deliberate self link-flaps (crash–rejoin pairs)
//! into the dynamics schedule.

use rand::rngs::SmallRng;
use rand::Rng;

use slr_netsim::admittance::DynAction;
use slr_netsim::time::{SimDuration, SimTime};
use slr_protocols::adversary::AdversaryKind;

/// Which (if any) misbehaviour script a fraction of the nodes runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversarySpec {
    /// Every node behaves (the default).
    None,
    /// `percent`% of nodes forge labels/seqnos and replay stale updates.
    Byzantine {
        /// Adversarial fraction of the population, in percent (1–49).
        percent: u64,
    },
    /// `percent`% of nodes forge control traffic under victim identities.
    Sybil {
        /// Adversarial fraction of the population, in percent (1–49).
        percent: u64,
    },
    /// `percent`% of nodes drop/delay/replay control traffic and flap
    /// their own links on purpose.
    Chaos {
        /// Adversarial fraction of the population, in percent (1–49).
        percent: u64,
    },
}

/// Default adversarial fraction when a spec gives none (percent).
const DEFAULT_PERCENT: u64 = 10;
/// How many times each chaos node deliberately flaps (crash + rejoin).
const CHAOS_FLAPS: u64 = 2;

impl AdversarySpec {
    /// Byzantine misbehaviour at the default fraction.
    pub fn default_byzantine() -> Self {
        AdversarySpec::Byzantine {
            percent: DEFAULT_PERCENT,
        }
    }

    /// Sybil misbehaviour at the default fraction.
    pub fn default_sybil() -> Self {
        AdversarySpec::Sybil {
            percent: DEFAULT_PERCENT,
        }
    }

    /// Chaos misbehaviour at the default fraction.
    pub fn default_chaos() -> Self {
        AdversarySpec::Chaos {
            percent: DEFAULT_PERCENT,
        }
    }

    /// Short name used in descriptions and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            AdversarySpec::None => "none",
            AdversarySpec::Byzantine { .. } => "byzantine",
            AdversarySpec::Sybil { .. } => "sybil",
            AdversarySpec::Chaos { .. } => "chaos",
        }
    }

    /// Parses a CLI spec: `none`, `byzantine[:PERCENT]`,
    /// `sybil[:PERCENT]`, `chaos[:PERCENT]`.
    pub fn parse(s: &str) -> Result<AdversarySpec, String> {
        let lower = s.to_ascii_lowercase();
        let (kind, arg) = match lower.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (lower.as_str(), None),
        };
        let percent = match arg {
            Some(a) => {
                let p = a
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad percent {a:?} in --adversary {s:?}"))?;
                if !(1..=49).contains(&p) {
                    return Err(format!(
                        "adversary percent must be 1..=49 (a misbehaving majority \
                         leaves nothing to measure), got {p}"
                    ));
                }
                p
            }
            None => DEFAULT_PERCENT,
        };
        match kind {
            "none" => Ok(AdversarySpec::None),
            "byzantine" => Ok(AdversarySpec::Byzantine { percent }),
            "sybil" => Ok(AdversarySpec::Sybil { percent }),
            "chaos" => Ok(AdversarySpec::Chaos { percent }),
            _ => Err(format!(
                "unknown --adversary {s:?} (expected none, byzantine[:PCT], \
                 sybil[:PCT] or chaos[:PCT])"
            )),
        }
    }

    /// Whether this spec fields no adversaries.
    pub fn is_none(&self) -> bool {
        matches!(self, AdversarySpec::None)
    }

    /// The adversarial fraction in percent (0 for `None`).
    pub fn percent(&self) -> u64 {
        match *self {
            AdversarySpec::None => 0,
            AdversarySpec::Byzantine { percent }
            | AdversarySpec::Sybil { percent }
            | AdversarySpec::Chaos { percent } => percent,
        }
    }

    /// Sets the adversarial fraction (no-op for `None`).
    pub fn set_percent(&mut self, p: u64) {
        match self {
            AdversarySpec::None => {}
            AdversarySpec::Byzantine { percent }
            | AdversarySpec::Sybil { percent }
            | AdversarySpec::Chaos { percent } => *percent = p,
        }
    }

    /// The protocol-layer misbehaviour kind, if any.
    pub fn kind(&self) -> Option<AdversaryKind> {
        match self {
            AdversarySpec::None => None,
            AdversarySpec::Byzantine { .. } => Some(AdversaryKind::Byzantine),
            AdversarySpec::Sybil { .. } => Some(AdversaryKind::Sybil),
            AdversarySpec::Chaos { .. } => Some(AdversaryKind::Chaos),
        }
    }

    /// Selects the adversarial nodes for one trial: a partial
    /// Fisher–Yates draw of `percent`% of `n` (at least 1, and always
    /// leaving an honest majority), returned sorted. `rng` must be a
    /// protocol-independent stream so every protocol faces the same cast.
    pub fn select_victims(&self, n: usize, rng: &mut SmallRng) -> Vec<usize> {
        if self.is_none() || n < 3 {
            return Vec::new();
        }
        let count = ((n as u64 * self.percent()) / 100).max(1) as usize;
        let count = count.min((n - 1) / 2);
        let mut pool: Vec<usize> = (0..n).collect();
        for c in 0..count {
            let pick = rng.gen_range(c..pool.len());
            pool.swap(c, pick);
        }
        let mut chosen: Vec<usize> = pool[..count].to_vec();
        chosen.sort_unstable();
        chosen
    }

    /// Compiles the deliberate link flaps of chaos adversaries: each
    /// victim crashes and rejoins `CHAOS_FLAPS` times at seeded instants
    /// inside the middle of `[start, end)`. Empty for the other kinds —
    /// their misbehaviour lives entirely at the protocol boundary.
    pub fn compile_flaps(
        &self,
        victims: &[usize],
        start: SimTime,
        end: SimTime,
        rng: &mut SmallRng,
    ) -> Vec<(SimTime, DynAction)> {
        let mut script = Vec::new();
        if !matches!(self, AdversarySpec::Chaos { .. }) {
            return script;
        }
        let span = end.saturating_since(start).as_secs_f64();
        for &v in victims {
            for _ in 0..CHAOS_FLAPS {
                // Flap inside the middle 10–90 % of the run: late enough
                // for routes through the node to exist, early enough for
                // the network to route around the outage before the end.
                let at_frac = rng.gen_range(0.1..0.8);
                let down_secs = rng.gen_range(1.0..5.0);
                let at = start + SimDuration::from_secs_f64(span * at_frac);
                let rejoin = at + SimDuration::from_secs_f64(down_secs);
                script.push((at, DynAction::NodeCrash(v)));
                script.push((rejoin, DynAction::NodeRejoin(v)));
            }
        }
        // Stable sort: same-time events keep generation order, which is
        // itself deterministic, so the schedule is bit-reproducible.
        script.sort_by_key(|(t, _)| *t);
        script
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slr_netsim::rng::stream;

    #[test]
    fn names_and_parse_round_trip() {
        for (s, spec) in [
            ("none", AdversarySpec::None),
            ("byzantine", AdversarySpec::default_byzantine()),
            ("sybil", AdversarySpec::default_sybil()),
            ("chaos", AdversarySpec::default_chaos()),
            ("byzantine:25", AdversarySpec::Byzantine { percent: 25 }),
        ] {
            assert_eq!(AdversarySpec::parse(s).unwrap(), spec);
        }
        assert!(AdversarySpec::parse("bogus").is_err());
        assert!(AdversarySpec::parse("byzantine:0").is_err());
        assert!(AdversarySpec::parse("byzantine:50").is_err());
        assert!(AdversarySpec::parse("sybil:abc").is_err());
    }

    #[test]
    fn victim_selection_is_seeded_and_bounded() {
        let spec = AdversarySpec::Byzantine { percent: 20 };
        let a = spec.select_victims(50, &mut stream(7, "adversary", 0));
        let b = spec.select_victims(50, &mut stream(7, "adversary", 0));
        assert_eq!(a, b, "same stream must select the same cast");
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&v| v < 50));
        let c = spec.select_victims(50, &mut stream(8, "adversary", 0));
        assert_ne!(a, c, "different seeds should (generically) differ");
    }

    #[test]
    fn victim_selection_leaves_honest_majority() {
        let spec = AdversarySpec::Chaos { percent: 49 };
        let v = spec.select_victims(5, &mut stream(1, "adversary", 0));
        assert!(v.len() <= 2, "5 nodes allow at most 2 adversaries");
        assert!(!v.is_empty());
        assert!(spec
            .select_victims(2, &mut stream(1, "adversary", 0))
            .is_empty());
        assert!(AdversarySpec::None
            .select_victims(50, &mut stream(1, "adversary", 0))
            .is_empty());
    }

    #[test]
    fn chaos_compiles_flap_pairs_inside_window() {
        let spec = AdversarySpec::Chaos { percent: 10 };
        let start = SimTime::from_secs(10);
        let end = SimTime::from_secs(100);
        let victims = [3usize, 8];
        let script = spec.compile_flaps(&victims, start, end, &mut stream(5, "adversary", 1));
        let crashes = script
            .iter()
            .filter(|(_, a)| matches!(a, DynAction::NodeCrash(_)))
            .count();
        let rejoins = script.len() - crashes;
        assert_eq!(crashes, 4, "two flaps per victim");
        assert_eq!(rejoins, 4);
        assert!(script.windows(2).all(|w| w[0].0 <= w[1].0), "time-sorted");
        assert!(script.iter().all(|(t, _)| *t >= start && *t < end));
        // Non-chaos kinds compile nothing.
        assert!(AdversarySpec::default_byzantine()
            .compile_flaps(&victims, start, end, &mut stream(5, "adversary", 1))
            .is_empty());
    }
}
