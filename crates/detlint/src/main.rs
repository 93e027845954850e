//! Workspace determinism lint.
//!
//! Every result this workspace produces — sized designs, layouts, lint
//! reports, bench JSON — is contractually byte-identical across runs, seeds
//! and thread counts. Three std facilities quietly break that contract:
//!
//! * **hash-collection** — `HashMap`/`HashSet` iterate in `RandomState`
//!   order, which differs per process. Any iteration that feeds a result
//!   must go through `BTreeMap`/`BTreeSet` (or sort first).
//! * **wall-clock** — `Instant::now()` / `SystemTime::now()` reads leak
//!   timing into behaviour. Timing belongs in the bench and trace layers,
//!   not in result-producing code.
//! * **thread-spawn** — ad-hoc `std::thread::spawn` bypasses `ams-exec`,
//!   the one place allowed to schedule work (it reduces results in task
//!   order regardless of completion order).
//!
//! The lint is textual and deliberately blunt: it flags *capability*
//! (imports and call sites), not proven misuse. Code with a legitimate use
//! acknowledges the finding inline with a marker on the same or the
//! immediately preceding line:
//!
//! ```text
//! // det-lint: allow(hash-collection): lookup-only table, never iterated
//! use std::collections::HashMap;
//! ```
//!
//! A marker must name the rule and give a non-empty reason. Findings are
//! reported in sorted order and the process exits 1 when any remain, so
//! `scripts/check.sh` can gate on it.
//!
//! Crate exemptions: `ams-bench` is the timing harness by definition and
//! is skipped entirely, as is this crate; `ams-trace` may read the wall
//! clock (it timestamps spans); `ams-exec` may spawn threads (it is the
//! scheduler).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The three determinism rules, in stable report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rule {
    HashCollection,
    ClockRead,
    ThreadSpawn,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::HashCollection => "hash-collection",
            Rule::ClockRead => "wall-clock",
            Rule::ThreadSpawn => "thread-spawn",
        }
    }

    fn hint(self) -> &'static str {
        match self {
            Rule::HashCollection => "use BTreeMap/BTreeSet, or sort before iterating",
            Rule::ClockRead => "timing belongs in ams-trace spans or the bench layer",
            Rule::ThreadSpawn => "schedule through ams-exec instead",
        }
    }
}

const ALL_RULES: [Rule; 3] = [Rule::HashCollection, Rule::ClockRead, Rule::ThreadSpawn];

/// One rule violation at a file:line.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Finding {
    /// Workspace-relative path, `/`-separated for stable output.
    path: String,
    line: usize,
    rule: Rule,
    snippet: String,
}

/// True when `word` occurs in `line` delimited by non-identifier characters,
/// so `Instant` does not match `Instantiates`.
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let end = at + word.len();
        let before_ok = at == 0 || {
            let c = bytes[at - 1] as char;
            !c.is_ascii_alphanumeric() && c != '_'
        };
        let after_ok = end == line.len() || {
            let c = bytes[end] as char;
            !c.is_ascii_alphanumeric() && c != '_'
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Strips a trailing `// …` comment so commented-out code never triggers.
/// Good enough for this codebase: it does not model string literals
/// containing `//`, which the unit tests pin as a non-goal.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Rules a single source line violates (before marker filtering).
fn line_violations(line: &str) -> Vec<Rule> {
    let code = code_part(line);
    let mut out = Vec::new();
    let names_hash = contains_word(code, "HashMap") || contains_word(code, "HashSet");
    let is_import = code.trim_start().starts_with("use ") || code.contains("pub use ");
    if names_hash && (is_import || code.contains("std::collections::")) {
        out.push(Rule::HashCollection);
    }
    let names_clock = contains_word(code, "Instant") || contains_word(code, "SystemTime");
    let is_now = code.contains("Instant::now") || code.contains("SystemTime::now");
    if names_clock && (is_now || (is_import && code.contains("std::time"))) {
        out.push(Rule::ClockRead);
    }
    if code.contains("thread::spawn") || code.contains("thread::Builder") {
        out.push(Rule::ThreadSpawn);
    }
    out
}

/// Parses `det-lint: allow(<rule>): <reason>` markers out of a line,
/// returning the allowed rules. A marker with an empty reason is invalid
/// and allows nothing.
fn allowed_rules(line: &str) -> Vec<Rule> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("det-lint: allow(") {
        rest = &rest[pos + "det-lint: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule_name = &rest[..close];
        let after = &rest[close + 1..];
        let has_reason = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim_start_matches('/').trim().is_empty());
        if has_reason {
            if let Some(rule) = ALL_RULES.iter().find(|r| r.name() == rule_name) {
                out.push(*rule);
            }
        }
        rest = after;
    }
    out
}

/// Which rules each crate is exempt from (`None` = skip the crate).
fn crate_exemptions(crate_dir: &str) -> Option<&'static [Rule]> {
    match crate_dir {
        // The timing harness and this lint itself.
        "bench" | "detlint" => None,
        "trace" => Some(&[Rule::ClockRead]),
        "exec" => Some(&[Rule::ThreadSpawn]),
        _ => Some(&[]),
    }
}

/// Lints one file's contents; `exempt` rules are skipped.
fn lint_source(path: &str, src: &str, exempt: &[Rule]) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let mut allowed = allowed_rules(line);
        if i > 0 {
            allowed.extend(allowed_rules(lines[i - 1]));
        }
        for rule in line_violations(line) {
            if exempt.contains(&rule) || allowed.contains(&rule) {
                continue;
            }
            out.push(Finding {
                path: path.to_string(),
                line: i + 1,
                rule,
                snippet: line.trim().to_string(),
            });
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("../.."),
        None => PathBuf::from("."),
    }
}

fn main() -> ExitCode {
    let root = workspace_root();
    let mut findings = Vec::new();
    let mut scanned = 0usize;

    // The umbrella crate's own sources, plus every member crate's src/.
    let mut units: Vec<(PathBuf, &'static [Rule])> = vec![(root.join("src"), &[])];
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map(|it| {
            it.flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if let Some(exempt) = crate_exemptions(name) {
            units.push((dir.join("src"), exempt));
        }
    }

    for (dir, exempt) in units {
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        for file in files {
            let Ok(src) = std::fs::read_to_string(&file) else {
                continue;
            };
            scanned += 1;
            let rel = file
                .strip_prefix(&root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            findings.extend(lint_source(&rel, &src, exempt));
        }
    }

    findings.sort();
    for f in &findings {
        println!(
            "{}:{}: [{}] {}\n    hint: {}",
            f.path,
            f.line,
            f.rule.name(),
            f.snippet,
            f.rule.hint()
        );
    }
    if findings.is_empty() {
        println!("det-lint: {scanned} files scanned, no findings");
        ExitCode::SUCCESS
    } else {
        println!("det-lint: {} finding(s) in {scanned} files", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_word_matching_rejects_substrings() {
        assert!(contains_word("let t = Instant::now();", "Instant"));
        assert!(!contains_word("/// Instantiates the template", "Instant"));
        assert!(!contains_word("my_HashMap_like", "HashMap"));
        assert!(contains_word("use std::time::Instant;", "Instant"));
    }

    #[test]
    fn hash_imports_are_flagged_but_comments_are_not() {
        assert_eq!(
            line_violations("use std::collections::HashMap;"),
            vec![Rule::HashCollection]
        );
        assert_eq!(
            line_violations("use std::collections::{BTreeMap, HashSet};"),
            vec![Rule::HashCollection]
        );
        assert_eq!(
            line_violations("params: &std::collections::HashMap<String, f64>,"),
            vec![Rule::HashCollection]
        );
        // Mentions in comments and non-import, non-qualified positions pass
        // (the import line is the single choke point being linted).
        assert!(line_violations("// a HashMap would be wrong here").is_empty());
        assert!(line_violations("fn take(m: &HashMap<u32, u32>) {}").is_empty());
        assert!(line_violations("use std::collections::BTreeMap;").is_empty());
    }

    #[test]
    fn wall_clock_and_thread_rules_fire_on_call_sites() {
        assert_eq!(
            line_violations("let t0 = std::time::Instant::now();"),
            vec![Rule::ClockRead]
        );
        assert_eq!(
            line_violations("use std::time::{Duration, SystemTime};"),
            vec![Rule::ClockRead]
        );
        // Duration alone is fine: it is a value type, not a clock read.
        assert!(line_violations("use std::time::Duration;").is_empty());
        assert_eq!(
            line_violations("let h = std::thread::spawn(move || work());"),
            vec![Rule::ThreadSpawn]
        );
    }

    #[test]
    fn markers_suppress_only_the_named_rule_with_a_reason() {
        let src = "\
// det-lint: allow(hash-collection): lookup-only symbol table
use std::collections::HashMap;
use std::collections::HashSet; // det-lint: allow(hash-collection): drained sorted
use std::time::Instant; // det-lint: allow(hash-collection): wrong rule name
";
        let f = lint_source("x.rs", src, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].rule, Rule::ClockRead);
    }

    #[test]
    fn marker_without_reason_is_rejected() {
        let src = "use std::collections::HashMap; // det-lint: allow(hash-collection):\n";
        let f = lint_source("x.rs", src, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HashCollection);
    }

    #[test]
    fn exemptions_and_sorted_output() {
        let src = "use std::time::Instant;\nuse std::collections::HashMap;\n";
        let f = lint_source("x.rs", src, &[Rule::ClockRead]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HashCollection);
        let mut all = lint_source("x.rs", src, &[]);
        all.sort();
        assert_eq!(all[0].line, 1);
        assert_eq!(all[1].line, 2);
    }
}
