//! Counterexample trace files and replay plumbing.
//!
//! A trace file is five `key value` lines:
//!
//! ```text
//! config line3-pr2
//! feature regress-pr2-cold-reboot
//! violation Theorem 3 broken for dest 2: successor cycle [0, 1]
//! prefix appsend 0; deliver 0; crash 1; rejoin 1
//! actions appsend 1; deliver 0
//! ```
//!
//! `prefix` and `actions` are `;`-separated action scripts, the syntax
//! `slr-check --probe` reads. A trace pins the config *name*
//! (topology/budgets are code, not data — replay refuses unknown names)
//! and the regress feature it was found under, so `slr-check --replay`
//! can verify it was built with the same fault injected.

use crate::bfs::Violation;
use crate::model::{parse_script, Action};

/// The keys of a trace file, in the order [`Trace::to_text`] writes them.
const KEYS: [&str; 5] = ["config", "feature", "violation", "prefix", "actions"];

/// A serialized counterexample.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Name of the [`crate::configs`] entry the trace was found on.
    pub config: String,
    /// The regress feature active when it was found (empty = none).
    pub feature: String,
    /// Scripted prefix (mirrors the config; stored for self-containment).
    pub prefix: Vec<Action>,
    /// The explored suffix reaching the violation.
    pub actions: Vec<Action>,
    /// Human-readable description of the violated invariant.
    pub violation: String,
}

/// The regress feature compiled into this binary, if any.
pub fn active_regress_feature() -> &'static str {
    if cfg!(feature = "regress-pr2-cold-reboot") {
        "regress-pr2-cold-reboot"
    } else if cfg!(feature = "regress-pr7-entry-expiry") {
        "regress-pr7-entry-expiry"
    } else {
        ""
    }
}

impl Trace {
    /// Builds a trace from an exploration result.
    pub fn from_violation(config: &str, v: &Violation) -> Trace {
        Trace {
            config: config.to_string(),
            feature: active_regress_feature().to_string(),
            prefix: v.prefix.clone(),
            actions: v.actions.clone(),
            violation: v.desc.clone(),
        }
    }

    /// The full action script (prefix then suffix).
    pub fn script(&self) -> Vec<Action> {
        self.prefix.iter().chain(&self.actions).copied().collect()
    }

    /// The trace file: one `key value` line per field, in the order the
    /// module docs show.
    pub fn to_text(&self) -> String {
        let script = |v: &[Action]| v.iter().map(Action::to_string).collect::<Vec<_>>();
        let vals = [
            self.config.clone(),
            self.feature.clone(),
            self.violation.clone(),
            script(&self.prefix).join("; "),
            script(&self.actions).join("; "),
        ];
        let line = |(k, v): (&str, String)| format!("{k} {v}").trim_end().to_string() + "\n";
        KEYS.into_iter().zip(vals).map(line).collect()
    }

    /// Parses a trace file, rejecting unknown, repeated or missing keys.
    pub fn parse(src: &str) -> Result<Trace, String> {
        let mut vals = [None; KEYS.len()];
        for line in src.lines() {
            let (key, val) = line.split_once(' ').unwrap_or((line, ""));
            let k = KEYS.iter().position(|&k| k == key);
            let k = k.ok_or_else(|| format!("trace: unknown key '{key:.40}'"))?;
            if vals[k].replace(val.trim()).is_some() {
                return Err(format!("trace: repeated key '{key}'"));
            }
        }
        if let Some((k, _)) = KEYS.iter().zip(&vals).find(|(_, v)| v.is_none()) {
            return Err(format!("trace: missing key '{k}'"));
        }
        let [config, feature, violation, prefix, actions] = vals.map(Option::unwrap_or_default);
        Ok(Trace {
            config: config.to_string(),
            feature: feature.to_string(),
            prefix: parse_script(prefix)?,
            actions: parse_script(actions)?,
            violation: violation.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_text_round_trips() {
        let t = Trace {
            config: "line3".into(),
            feature: String::new(),
            prefix: vec![Action::AppSend { flow: 0 }, Action::Deliver { msg: 0 }],
            actions: vec![Action::Crash { node: 1 }, Action::Rejoin { node: 1 }],
            violation: "dest 2: successor cycle [0, 1]".into(),
        };
        let text = t.to_text();
        assert!(
            text.starts_with("config line3\nfeature\nviolation dest 2"),
            "{text}"
        );
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back.config, t.config);
        assert_eq!(back.feature, t.feature);
        assert_eq!(back.prefix, t.prefix);
        assert_eq!(back.actions, t.actions);
        assert_eq!(back.violation, t.violation);
        assert_eq!(back.to_text(), text);
    }

    /// The trace reader and [`Action::parse`] return `Ok` or `Err` on any
    /// input, never panic: every truncation and every single-byte
    /// corruption of the committed traces, and a fixed hostile list. A
    /// corruption writes one byte of each class the grammar tells apart
    /// (control, whitespace, line break, separator, sign, digit, letter,
    /// non-ASCII), not all 256 values, to stay well under a second in a
    /// debug build: another byte of the same class takes the same path.
    #[test]
    fn trace_reader_never_panics() {
        let committed = [
            include_str!("../traces/pr2-cold-reboot.trace"),
            include_str!("../traces/pr7-entry-expiry.trace"),
        ];
        let feed = |src: &str| {
            let _ = Trace::parse(src);
            let _ = Action::parse(src);
        };
        for src in committed {
            assert!(Trace::parse(src).is_ok());
            for n in 0..src.len() {
                if let Some(prefix) = src.get(..n) {
                    feed(prefix);
                }
            }
            for i in 0..src.len() {
                for &b in b"\0\t\n\r -09;Za\x7f\xff" {
                    let mut bytes = src.as_bytes().to_vec();
                    bytes[i] = b;
                    // Non-UTF-8 never reaches the reader: replay rejects
                    // it when it reads the file.
                    if let Ok(s) = std::str::from_utf8(&bytes) {
                        feed(s);
                    }
                }
            }
        }
        let deep = "[".repeat(20_000);
        let hostile = [
            "",
            "colour red\n",
            "config line3\nconfig line3\n",
            "feature\nviolation x\nprefix\nactions\n",
            "timer 1 18446744073709551616",
            "crash -1",
            &deep,
        ];
        for src in hostile {
            assert!(Trace::parse(src).is_err(), "{src:.40}");
            feed(src);
        }
        let bad = ["timer 1 18446744073709551616", "crash -1", "", &deep];
        assert!(bad.iter().all(|a| Action::parse(a).is_err()));
    }
}
