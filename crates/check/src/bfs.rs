//! Breadth-first exploration with hashed-state deduplication.
//!
//! The frontier stores `(parent, action)` arcs rather than full states:
//! a state is reconstructed once per expansion by replaying its action
//! path from the (post-prefix) root, then cloned per child. With 3–5
//! protocol instances a replay costs microseconds, and the arena stays
//! small enough to explore millions of arcs in a few hundred MB.
//!
//! Deduplication hashes the canonical serialization twice with
//! seed-prefixed [`FastHasher`] passes (a 128-bit fingerprint); at the
//! ≤10⁷-state scales the budgets allow, collision probability is
//! negligible and exploration order — hence the reported state count and
//! the counterexample found — is fully deterministic. BFS order also
//! guarantees the first violation found has a *shortest* action suffix.

use std::collections::VecDeque;
use std::hash::Hasher as _;

use slr_netsim::hash::{FastHashSet, FastHasher};

use crate::model::{Action, Model, State};
use slr_protocols::model::ModelCheckable;

/// A found invariant violation, with the full path that reaches it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The scripted prefix (from [`ModelConfig::prefix`](crate::model::ModelConfig::prefix)).
    pub prefix: Vec<Action>,
    /// The explored suffix (shortest, by BFS order).
    pub actions: Vec<Action>,
    /// Human-readable description of the violated invariant.
    pub desc: String,
}

/// Exploration statistics + outcome.
#[derive(Debug)]
pub struct ExploreResult {
    /// The first (shortest) violation found, if any.
    pub violation: Option<Violation>,
    /// Distinct states visited (deterministic for a given config).
    pub states: usize,
    /// Transitions applied.
    pub transitions: usize,
    /// Deepest suffix length reached.
    pub max_depth_seen: usize,
    /// Whether the state budget stopped the search early.
    pub truncated_by_states: bool,
}

fn fingerprint(canon: &[u8]) -> (u64, u64) {
    let mut a = FastHasher::default();
    a.write_u64(0x9e37_79b9_7f4a_7c15);
    a.write(canon);
    let mut b = FastHasher::default();
    b.write_u64(0xc2b2_ae3d_27d4_eb4f);
    b.write(canon);
    (a.finish(), b.finish())
}

/// Arena arc: how a state was reached.
struct NodeRec {
    /// Arena index of the parent, or `u32::MAX` for the root.
    parent: u32,
    /// The action that produced this state from the parent.
    action: Action,
    /// Suffix length (root = 0).
    depth: u32,
}

const ROOT: u32 = u32::MAX;

fn path_to(arena: &[NodeRec], mut idx: u32) -> Vec<Action> {
    let mut out = Vec::new();
    while idx != ROOT {
        let rec = &arena[idx as usize];
        out.push(rec.action);
        idx = rec.parent;
    }
    out.reverse();
    out
}

/// Applies the scripted prefix, checking invariants after every step.
///
/// Returns the positioned root state, or a violation hit inside the
/// prefix itself (possible when a regress feature is enabled and the
/// prefix alone reaches the bug).
pub fn apply_prefix<P: ModelCheckable>(
    model: &Model<'_, P>,
) -> Result<State<P>, Result<Violation, String>> {
    let mut st = model.start();
    if let Some(desc) = model.check_invariants(&st, None) {
        return Err(Ok(Violation {
            prefix: Vec::new(),
            actions: Vec::new(),
            desc,
        }));
    }
    for (k, &a) in model.cfg.prefix.iter().enumerate() {
        let prev_floors = model.floors(&st);
        if let Err(e) = model.apply(&mut st, a) {
            return Err(Err(format!("prefix step {k} ({a}) failed: {e}")));
        }
        if let Some(desc) =
            model.check_invariants(&st, Some((&prev_floors, Model::<P>::crashed_by(a))))
        {
            return Err(Ok(Violation {
                prefix: model.cfg.prefix[..=k].to_vec(),
                actions: Vec::new(),
                desc,
            }));
        }
    }
    Ok(st)
}

/// Exhaustive bounded BFS from the post-prefix root.
pub fn explore<P: ModelCheckable>(model: &Model<'_, P>) -> Result<ExploreResult, String> {
    let root = match apply_prefix(model) {
        Ok(st) => st,
        Err(Ok(v)) => {
            return Ok(ExploreResult {
                violation: Some(v),
                states: 0,
                transitions: 0,
                max_depth_seen: 0,
                truncated_by_states: false,
            })
        }
        Err(Err(e)) => return Err(e),
    };

    let mut visited: FastHashSet<(u64, u64)> = FastHashSet::default();
    visited.insert(fingerprint(&model.canonical(&root)));

    let mut arena: Vec<NodeRec> = Vec::new();
    // Queue of arena indices to expand; ROOT stands for the root state.
    let mut queue: VecDeque<u32> = VecDeque::new();
    queue.push_back(ROOT);

    let mut states = 1usize;
    let mut transitions = 0usize;
    let mut max_depth_seen = 0usize;
    let mut truncated = false;

    while let Some(idx) = queue.pop_front() {
        let (state, depth) = if idx == ROOT {
            (root.clone(), 0usize)
        } else {
            // Reconstruct by replaying the action path from the root.
            let path = path_to(&arena, idx);
            let mut st = root.clone();
            for &a in &path {
                model
                    .apply(&mut st, a)
                    .map_err(|e| format!("internal replay divergence: {e}"))?;
            }
            (st, path.len())
        };
        if depth >= model.cfg.max_depth {
            continue;
        }
        let prev_floors = model.floors(&state);
        for a in model.enumerate(&state) {
            let mut child = state.clone();
            model
                .apply(&mut child, a)
                .map_err(|e| format!("enumerated action {a} failed to apply: {e}"))?;
            transitions += 1;
            if let Some(desc) =
                model.check_invariants(&child, Some((&prev_floors, Model::<P>::crashed_by(a))))
            {
                let mut actions = path_to(&arena, idx);
                actions.push(a);
                return Ok(ExploreResult {
                    violation: Some(Violation {
                        prefix: model.cfg.prefix.clone(),
                        actions,
                        desc,
                    }),
                    states,
                    transitions,
                    max_depth_seen: max_depth_seen.max(depth + 1),
                    truncated_by_states: truncated,
                });
            }
            if !visited.insert(fingerprint(&model.canonical(&child))) {
                continue;
            }
            states += 1;
            max_depth_seen = max_depth_seen.max(depth + 1);
            if states >= model.cfg.max_states {
                truncated = true;
                queue.clear();
                break;
            }
            arena.push(NodeRec {
                parent: idx,
                action: a,
                depth: depth as u32 + 1,
            });
            let child_idx = (arena.len() - 1) as u32;
            debug_assert_eq!(arena[child_idx as usize].depth as usize, depth + 1);
            queue.push_back(child_idx);
        }
        if truncated {
            break;
        }
    }

    Ok(ExploreResult {
        violation: None,
        states,
        transitions,
        max_depth_seen,
        truncated_by_states: truncated,
    })
}

/// Replays an explicit action script (prefix + suffix of a trace),
/// checking invariants after every step. Returns the violation hit, if
/// any, and the number of steps applied before it.
pub fn run_script<P: ModelCheckable>(
    model: &Model<'_, P>,
    script: &[Action],
    verbose: bool,
) -> Result<(Option<String>, usize), String> {
    let mut st = model.start();
    if let Some(desc) = model.check_invariants(&st, None) {
        return Ok((Some(desc), 0));
    }
    for (k, &a) in script.iter().enumerate() {
        let prev_floors = model.floors(&st);
        model
            .apply(&mut st, a)
            .map_err(|e| format!("step {k} ({a}) failed: {e}"))?;
        if verbose {
            describe_state(model, &st, k, a);
        }
        if let Some(desc) =
            model.check_invariants(&st, Some((&prev_floors, Model::<P>::crashed_by(a))))
        {
            return Ok((Some(desc), k + 1));
        }
    }
    Ok((None, script.len()))
}

/// Prints the observable system state after a script step (the `--probe`
/// debugging aid used to hand-construct config prefixes).
fn describe_state<P: ModelCheckable>(model: &Model<'_, P>, st: &State<P>, k: usize, a: Action) {
    println!("-- step {k}: {a} (now={:?})", st.now);
    for (i, m) in st.inflight.iter().enumerate() {
        println!("   msg[{i}] {}", m.describe());
    }
    for &(n, t) in &st.timers {
        println!("   timer node={n} token={t}");
    }
    for i in 0..model.cfg.nodes {
        if !st.alive[i] {
            println!("   node {i}: DOWN");
            continue;
        }
        let (mut dests, mut succs) = (Vec::new(), Vec::new());
        st.nodes[i].destinations(&mut dests);
        for d in dests {
            let label = st.nodes[i].label(d);
            succs.clear();
            st.nodes[i].successors(d, st.now, &mut succs);
            let floor = st.nodes[i].model_seqno_floor(d);
            println!(
                "   node {i} dest {d}: label={label} floor={floor} succs={:?}",
                succs
                    .iter()
                    .map(|e| format!("{}@{}", e.to, e.recorded))
                    .collect::<Vec<_>>()
            );
        }
    }
}
