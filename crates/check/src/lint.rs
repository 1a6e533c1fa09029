//! The workspace determinism lint: a plain-text scan of simulation
//! crates for constructs that break bit-identical reproducibility.
//!
//! Denied tokens:
//!
//! * `HashMap` / `HashSet` — std's default `RandomState` randomizes
//!   iteration order per process; simulation state must go through
//!   [`slr_netsim::hash::FastHashMap`]/`FastHashSet` (deterministic
//!   hasher) or ordered containers.
//! * `SystemTime` / `Instant` — wall-clock reads make runs
//!   non-reproducible; simulation logic must use `SimTime`.
//! * `thread_rng` — OS-seeded randomness; everything must derive from
//!   the run's seed via `SmallRng`.
//!
//! Matching is token-exact (identifier boundaries), so `FastHashMap`
//! and doc words like "Instantiates" do not trip it, while brace-form
//! imports (`use std::collections::{HashMap, ...}`) do. Comments are
//! stripped before matching; string literals are kept (a denied name
//! inside a string is almost always a `use` built by a macro — rare
//! enough to allowlist explicitly if it ever happens).
//!
//! Known-legitimate uses (e.g. `Instant` for progress reporting in the
//! runner, or the deterministic-hasher wrapper itself importing std's
//! containers) are declared in `lint-allow.txt` at the crate root as
//! `<path-fragment> <token>` pairs. An entry that no longer suppresses
//! anything is itself an error ([`scan_workspace`]), so deleting the code
//! an exemption covered cannot leave the exemption behind.

use std::fmt;
use std::path::{Path, PathBuf};

/// Tokens denied in simulation source.
pub const DENY_TOKENS: [&str; 5] = ["HashMap", "HashSet", "SystemTime", "Instant", "thread_rng"];

/// The `src/` trees the lint scans, relative to the workspace root.
pub const SCAN_ROOTS: [&str; 8] = [
    "crates/core/src",
    "crates/netsim/src",
    "crates/mobility/src",
    "crates/radio/src",
    "crates/traffic/src",
    "crates/protocols/src",
    "crates/runner/src",
    "crates/check/src",
];

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the token was found in (workspace-relative).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The denied token.
    pub token: &'static str,
    /// The offending source line, trimmed.
    pub context: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: denied token `{}`: {}",
            self.file.display(),
            self.line,
            self.token,
            self.context
        )
    }
}

/// An allowlist entry: suppresses `token` findings in files whose
/// workspace-relative path contains `path_frag`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Substring of the workspace-relative path.
    pub path_frag: String,
    /// The token allowed there.
    pub token: String,
}

/// Parses `lint-allow.txt`: one `<path-frag> <token>` pair per line,
/// `#` comments and blank lines ignored.
pub fn parse_allowlist(src: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (n, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(frag), Some(token), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!(
                "lint-allow.txt:{}: expected '<path-frag> <token>', got '{raw}'",
                n + 1
            ));
        };
        if !DENY_TOKENS.contains(&token) {
            return Err(format!(
                "lint-allow.txt:{}: '{token}' is not a denied token",
                n + 1
            ));
        }
        out.push(AllowEntry {
            path_frag: frag.to_string(),
            token: token.to_string(),
        });
    }
    Ok(out)
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Blanks out `//` line comments and (nested) `/* */` block comments,
/// preserving line structure and skipping over string/char literals so a
/// `"//"` inside a string doesn't eat the rest of the line.
fn strip_comments(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0;
    let mut block_depth = 0usize;
    let mut in_line = false;
    let mut in_str = false;
    let mut in_char = false;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            out[i] = b'\n';
            in_line = false;
            // Unterminated literals don't span lines in practice; reset
            // so a stray quote can't blank the rest of the file.
            in_str = false;
            in_char = false;
            i += 1;
            continue;
        }
        if in_line {
            i += 1;
            continue;
        }
        if block_depth > 0 {
            if c == b'*' && b.get(i + 1) == Some(&b'/') {
                block_depth -= 1;
                i += 2;
            } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                block_depth += 1;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if in_str || in_char {
            out[i] = c;
            if c == b'\\' {
                if let Some(&n) = b.get(i + 1) {
                    out[i + 1] = n;
                    i += 2;
                    continue;
                }
            }
            if (in_str && c == b'"') || (in_char && c == b'\'') {
                in_str = false;
                in_char = false;
            }
            i += 1;
            continue;
        }
        match c {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                in_line = true;
                i += 2;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                block_depth = 1;
                i += 2;
            }
            b'"' => {
                out[i] = c;
                in_str = true;
                i += 1;
            }
            // A lifetime ('a) is not a char literal; only treat ' as one
            // when it encloses a short literal ending in '.
            b'\'' if looks_like_char_literal(&b[i..]) => {
                out[i] = c;
                in_char = true;
                i += 1;
            }
            c => {
                out[i] = c;
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("comment stripping preserves utf-8 boundaries")
}

fn looks_like_char_literal(rest: &[u8]) -> bool {
    // 'x' or '\n' — a closing quote within 3 bytes of the payload.
    match rest.get(1) {
        Some(b'\\') => true,
        Some(_) => rest.get(2) == Some(&b'\''),
        None => false,
    }
}

/// Scans one file's source text. `rel` is its workspace-relative path.
pub fn scan_source(rel: &Path, src: &str, allow: &[AllowEntry]) -> Vec<Finding> {
    scan_source_marking(rel, src, allow, &mut vec![false; allow.len()])
}

/// [`scan_source`], additionally setting `used[i]` for every allowlist
/// entry `i` that suppressed at least one hit.
fn scan_source_marking(
    rel: &Path,
    src: &str,
    allow: &[AllowEntry],
    used: &mut [bool],
) -> Vec<Finding> {
    let stripped = strip_comments(src);
    let rel_str = rel.to_string_lossy();
    let mut out = Vec::new();
    for (ln, (line, orig)) in stripped.lines().zip(src.lines()).enumerate() {
        let bytes = line.as_bytes();
        for token in DENY_TOKENS {
            let mut from = 0;
            while let Some(at) = line[from..].find(token) {
                let start = from + at;
                let end = start + token.len();
                from = end;
                let pre_ok = start == 0 || !is_ident_char(bytes[start - 1]);
                let post_ok = end >= bytes.len() || !is_ident_char(bytes[end]);
                if !(pre_ok && post_ok) {
                    continue;
                }
                let mut allowed = false;
                for (a, used) in allow.iter().zip(used.iter_mut()) {
                    if a.token == token && rel_str.contains(&a.path_frag) {
                        allowed = true;
                        *used = true;
                    }
                }
                if allowed {
                    continue;
                }
                out.push(Finding {
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    token,
                    context: orig.trim().to_string(),
                });
            }
        }
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Errors on allowlist entries that suppressed nothing.
fn stale_entries(allow: &[AllowEntry], used: &[bool]) -> Result<(), String> {
    let stale: Vec<String> = allow
        .iter()
        .zip(used)
        .filter(|&(_, &used)| !used)
        .map(|(a, _)| format!("'{} {}'", a.path_frag, a.token))
        .collect();
    if stale.is_empty() {
        return Ok(());
    }
    Err(format!(
        "lint-allow.txt: stale entries (no scanned source line matches; delete each line and \
         its comment): {}",
        stale.join(", ")
    ))
}

/// Scans every [`SCAN_ROOTS`] tree under `workspace_root`. Returns all
/// findings (empty = clean); an allowlist entry that matched no source
/// line is an error.
pub fn scan_workspace(workspace_root: &Path) -> Result<Vec<Finding>, String> {
    let allow_path = workspace_root.join("crates/check/lint-allow.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(s) => parse_allowlist(&s)?,
        Err(e) => return Err(format!("cannot read {}: {e}", allow_path.display())),
    };
    let mut used = vec![false; allow.len()];
    let mut findings = Vec::new();
    for root in SCAN_ROOTS {
        let dir = workspace_root.join(root);
        let mut files = Vec::new();
        walk(&dir, &mut files).map_err(|e| format!("walking {}: {e}", dir.display()))?;
        for f in files {
            let src =
                std::fs::read_to_string(&f).map_err(|e| format!("reading {}: {e}", f.display()))?;
            let rel = f.strip_prefix(workspace_root).unwrap_or(&f);
            findings.extend(scan_source_marking(rel, &src, &allow, &mut used));
        }
    }
    stale_entries(&allow, &used)?;
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_matching_skips_wrapped_names() {
        let src = "use slr_netsim::hash::FastHashMap;\n// Instantiates the engine\nlet m: FastHashSet<u32> = Default::default();\n";
        assert!(scan_source(Path::new("x.rs"), src, &[]).is_empty());
    }

    #[test]
    fn brace_imports_and_bare_uses_are_caught() {
        let src = "use std::collections::{HashMap, HashSet};\nlet t = std::time::Instant::now();\n";
        let f = scan_source(Path::new("x.rs"), src, &[]);
        let tokens: Vec<_> = f.iter().map(|x| x.token).collect();
        assert_eq!(tokens, vec!["HashMap", "HashSet", "Instant"]);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[2].line, 2);
    }

    #[test]
    fn comments_are_stripped_but_strings_are_not_comment_starts() {
        let src = "// HashMap in a comment\n/* HashSet\n   SystemTime */\nlet s = \"url://x\"; let t = Instant::now();\n";
        let f = scan_source(Path::new("x.rs"), src, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, "Instant");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn allowlist_suppresses_by_path_and_token() {
        let allow = parse_allowlist("# known uses\nrunner/src/sim.rs Instant\n").unwrap();
        let hit = scan_source(
            Path::new("crates/runner/src/sim.rs"),
            "let t = Instant::now();\nuse std::collections::HashMap;\n",
            &allow,
        );
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].token, "HashMap");
        assert!(parse_allowlist("x.rs NotAToken\n").is_err());
        assert!(parse_allowlist("just-one-field\n").is_err());
    }

    #[test]
    fn allowlist_entry_matching_no_source_line_is_an_error() {
        let allow =
            parse_allowlist("runner/src/sim.rs Instant\nnetsim/src/spatial.rs HashMap\n").unwrap();
        let mut used = vec![false; allow.len()];
        for (rel, src) in [
            ("crates/runner/src/sim.rs", "let t = Instant::now();\n"),
            // The path matches, but the token survives only in a comment.
            (
                "crates/netsim/src/spatial.rs",
                "// no HashMap here any more\n",
            ),
        ] {
            assert!(scan_source_marking(Path::new(rel), src, &allow, &mut used).is_empty());
        }
        assert_eq!(used, [true, false]);
        let err = stale_entries(&allow, &used).unwrap_err();
        assert!(err.contains("'netsim/src/spatial.rs HashMap'"), "{err}");
        assert!(!err.contains("sim.rs"), "{err}");
        assert!(stale_entries(&allow[..1], &used[..1]).is_ok());
    }
}
