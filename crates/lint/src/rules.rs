//! The rule engine: six project-specific invariants plus the pragma
//! meta-rule.
//!
//! | rule        | invariant                                                      |
//! |-------------|----------------------------------------------------------------|
//! | `panic`     | no `.unwrap()`/`.expect(`/`panic!`/`unreachable!`/`todo!` on non-test engine paths |
//! | `failpoint` | every `fail_point!`/`mmdb_fault::eval*` site is rostered in its crate's `FAILPOINT_SITES`, has a live call site, and is exercised by a test under `tests/` |
//! | `relaxed`   | `Ordering::Relaxed` only in the designated counter modules     |
//! | `tick`      | every loop in the executor files contains a `cancel::tick()` (or tick-forwarding) call |
//! | `lock`      | every observed lock nesting — including cross-function nestings found through the call graph — follows the declared lock-order table, which must be acyclic and (in workspace scans) fully observed |
//! | `blocking`  | no blocking operation reachable from an annotated hot context without a reasoned pragma |
//! | `pragma`    | every `// lint: allow(rule, reason)` names a known rule, gives a reason, and suppresses at least one diagnostic |
//!
//! Suppression is pragma-only and always carries a reason:
//! `// lint: allow(panic, length checked two lines up)` on the
//! offending line, or on a comment-only line directly above it. A
//! pragma that suppresses nothing is itself a violation, so
//! suppressions cannot outlive the code they excused.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lex::{contains_token, find_token, is_ident, string_literals, SourceFile};

/// Every rule name a pragma may reference.
pub const RULE_NAMES: &[&str] =
    &["panic", "failpoint", "relaxed", "tick", "lock", "blocking", "pragma"];

/// Finding severity: errors gate CI; warnings inform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One `file:line: rule: message` finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
    pub severity: Severity,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Which pragmas actually suppressed a diagnostic, keyed by
/// (file index, 0-based pragma line, rule). Fed by every rule as it
/// skips a suppressed finding; drained by the unused-pragma check.
#[derive(Debug, Default)]
pub struct PragmaUse(BTreeSet<(usize, usize, &'static str)>);

impl PragmaUse {
    pub fn mark(&mut self, file: usize, line: usize, rule: &'static str) {
        self.0.insert((file, line, rule));
    }
    pub fn contains(&self, file: usize, line: usize, rule: &'static str) -> bool {
        self.0.contains(&(file, line, rule))
    }
}

/// Run every rule over the lexed files.
pub fn check_files(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut used = PragmaUse::default();
    for (fi, file) in files.iter().enumerate() {
        check_pragmas(file, &mut out);
        check_no_panic(fi, file, cfg, &mut used, &mut out);
        check_relaxed(fi, file, cfg, &mut used, &mut out);
        check_tick(fi, file, cfg, &mut used, &mut out);
    }
    let items = crate::parse::parse_items(files, cfg);
    let graph = CallGraph::build(&items);
    crate::summaries::check_locks(files, &items, &graph, cfg, &mut used, &mut out);
    crate::blocking::check_blocking(files, &items, &graph, cfg, &mut used, &mut out);
    check_failpoints(files, cfg, &mut used, &mut out);
    check_unused_pragmas(files, &used, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Test-only source by location: `tests/`, `benches/`, `examples/`,
/// `fixtures/` trees hold no production paths.
pub(crate) fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"))
}

fn path_exempt(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

// ---- pragmas ---------------------------------------------------------------

/// Pragmas parsed from one comment: `(rule, has_reason)` pairs.
fn parse_pragmas(comment: &str) -> Option<Vec<(String, bool)>> {
    // A pragma comment *starts* with `lint:` (doc comments that merely
    // quote the grammar mid-sentence are not pragmas).
    let trimmed = comment.trim_start();
    if !trimmed.starts_with("lint:") {
        return None;
    }
    let mut rest = &trimmed[5..];
    let mut out = Vec::new();
    while let Some(open) = rest.find("allow(") {
        let body_start = open + 6;
        let Some(close) = rest[body_start..].find(')') else {
            out.push((String::new(), false));
            break;
        };
        let body = &rest[body_start..body_start + close];
        match body.split_once(',') {
            Some((rule, reason)) => {
                out.push((rule.trim().to_string(), !reason.trim().is_empty()))
            }
            None => out.push((body.trim().to_string(), false)),
        }
        rest = &rest[body_start + close + 1..];
    }
    Some(out)
}

/// The 0-based line of the pragma that suppresses `rule` at `idx` — on
/// the line itself, or on the run of comment-only lines directly above
/// it. `None` when unsuppressed.
pub fn suppression_line(file: &SourceFile, idx: usize, rule: &str) -> Option<usize> {
    let allows = |i: usize| -> bool {
        parse_pragmas(&file.lines[i].comment)
            .is_some_and(|ps| ps.iter().any(|(r, ok)| r == rule && *ok))
    };
    if allows(idx) {
        return Some(idx);
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        if !line.code.trim().is_empty() {
            return None;
        }
        if line.comment.is_empty() {
            return None;
        }
        if allows(i) {
            return Some(i);
        }
    }
    None
}

/// The pragma meta-rule, part one: malformed or unknown-rule pragmas
/// are themselves violations, so a typo can never silently suppress.
fn check_pragmas(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let Some(pragmas) = parse_pragmas(&line.comment) else { continue };
        if pragmas.is_empty() {
            out.push(Diagnostic {
                path: file.path.clone(),
                line: idx + 1,
                rule: "pragma",
                msg: "`lint:` comment without an `allow(rule, reason)` clause".to_string(),
                severity: Severity::Error,
            });
            continue;
        }
        for (rule, has_reason) in pragmas {
            if !RULE_NAMES.contains(&rule.as_str()) {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: idx + 1,
                    rule: "pragma",
                    msg: format!(
                        "unknown rule '{rule}' in lint pragma (known: {})",
                        RULE_NAMES.join(", ")
                    ),
                    severity: Severity::Error,
                });
            } else if !has_reason {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: idx + 1,
                    rule: "pragma",
                    msg: format!(
                        "lint pragma for '{rule}' needs a reason: `lint: allow({rule}, <why>)`"
                    ),
                    severity: Severity::Error,
                });
            }
        }
    }
}

/// The pragma meta-rule, part two: a well-formed pragma that
/// suppressed nothing anywhere in the scan is dead weight — the code
/// it excused has moved or been fixed — and must be removed.
fn check_unused_pragmas(files: &[SourceFile], used: &PragmaUse, out: &mut Vec<Diagnostic>) {
    for (fi, file) in files.iter().enumerate() {
        if is_test_path(&file.path) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some(pragmas) = parse_pragmas(&line.comment) else { continue };
            for (rule, has_reason) in &pragmas {
                // Malformed entries were already flagged by part one.
                let Some(rname) = RULE_NAMES.iter().find(|r| *r == rule) else { continue };
                if !has_reason {
                    continue;
                }
                if !used.contains(fi, idx, rname) {
                    out.push(Diagnostic {
                        path: file.path.clone(),
                        line: idx + 1,
                        rule: "pragma",
                        msg: format!(
                            "unused pragma: no '{rule}' diagnostic fires here — remove \
                             `lint: allow({rule}, ...)` so suppressions cannot outlive \
                             the code they excused"
                        ),
                        severity: Severity::Error,
                    });
                }
            }
        }
    }
}

// ---- rule: panic -----------------------------------------------------------

const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!", "todo!"];

fn check_no_panic(
    fi: usize,
    file: &SourceFile,
    cfg: &Config,
    used: &mut PragmaUse,
    out: &mut Vec<Diagnostic>,
) {
    if is_test_path(&file.path) || path_exempt(&file.path, &cfg.no_panic_exempt) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut found: Vec<&str> = Vec::new();
        for pat in PANIC_PATTERNS {
            let hit = if pat.starts_with('.') {
                line.masked.contains(pat)
            } else {
                contains_token(&line.masked, pat)
            };
            if hit {
                found.push(pat);
            }
        }
        if found.is_empty() {
            continue;
        }
        if let Some(pline) = suppression_line(file, idx, "panic") {
            used.mark(fi, pline, "panic");
            continue;
        }
        out.push(Diagnostic {
            path: file.path.clone(),
            line: idx + 1,
            rule: "panic",
            msg: format!(
                "{} on a non-test engine path; return a typed Error or annotate \
                 `// lint: allow(panic, <reason>)`",
                found.join(" and ")
            ),
            severity: Severity::Error,
        });
    }
}

// ---- rule: relaxed ---------------------------------------------------------

fn check_relaxed(
    fi: usize,
    file: &SourceFile,
    cfg: &Config,
    used: &mut PragmaUse,
    out: &mut Vec<Diagnostic>,
) {
    if is_test_path(&file.path) || cfg.relaxed_allowed.iter().any(|p| p == &file.path) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !line.masked.contains("Ordering::Relaxed") {
            continue;
        }
        if let Some(pline) = suppression_line(file, idx, "relaxed") {
            used.mark(fi, pline, "relaxed");
            continue;
        }
        out.push(Diagnostic {
            path: file.path.clone(),
            line: idx + 1,
            rule: "relaxed",
            msg: "Ordering::Relaxed outside the designated counter modules; use a \
                  stronger ordering or annotate `// lint: allow(relaxed, <reason>)`"
                .to_string(),
            severity: Severity::Error,
        });
    }
}

// ---- rule: tick ------------------------------------------------------------

fn check_tick(
    fi: usize,
    file: &SourceFile,
    cfg: &Config,
    used: &mut PragmaUse,
    out: &mut Vec<Diagnostic>,
) {
    if !cfg.tick_files.iter().any(|p| p == &file.path) {
        return;
    }
    let (text, line_of) = file.masked_text();
    let chars: Vec<char> = text.chars().collect();
    for (kw_pos, body) in find_loops(&chars) {
        let line_idx = line_of[kw_pos];
        if file.lines[line_idx].in_test {
            continue;
        }
        let body_text: String = chars[body.0..body.1].iter().collect();
        if calls_tick(&body_text) {
            continue;
        }
        if let Some(pline) = suppression_line(file, line_idx, "tick") {
            used.mark(fi, pline, "tick");
            continue;
        }
        out.push(Diagnostic {
            path: file.path.clone(),
            line: line_idx + 1,
            rule: "tick",
            msg: "executor loop without a cancel::tick() call — rows iterated here \
                  escape deadlines; tick per item or annotate \
                  `// lint: allow(tick, <reason>)`"
                .to_string(),
            severity: Severity::Error,
        });
    }
}

/// Does `body` call a tick function — `cancel::tick()`, `.tick()`, or
/// any tick-forwarding helper (`tick_every(..)`, `forward_ticks(..)`)?
fn calls_tick(body: &str) -> bool {
    let cs: Vec<char> = body.chars().collect();
    let mut k = 0usize;
    while k < cs.len() {
        if is_ident(cs[k]) && (k == 0 || !is_ident(cs[k - 1])) {
            let start = k;
            while k < cs.len() && is_ident(cs[k]) {
                k += 1;
            }
            let ident: String = cs[start..k].iter().collect();
            if ident.contains("tick") && cs.get(k) == Some(&'(') {
                return true;
            }
        } else {
            k += 1;
        }
    }
    false
}

/// Find `for`/`while`/`loop` loops: (keyword position, body span).
fn find_loops(chars: &[char]) -> Vec<(usize, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if !c.is_alphabetic() || (i > 0 && is_ident(chars[i - 1])) {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < chars.len() && is_ident(chars[j]) {
            j += 1;
        }
        let word: String = chars[i..j].iter().collect();
        let needs_in = match word.as_str() {
            "for" => true,
            "while" | "loop" => false,
            _ => {
                i = j;
                continue;
            }
        };
        // `for<'a>` higher-ranked bounds are not loops.
        let next_nonws = chars[j..].iter().find(|c| !c.is_whitespace());
        if word == "for" && next_nonws == Some(&'<') {
            i = j;
            continue;
        }
        if word == "loop" && next_nonws != Some(&'{') {
            i = j;
            continue;
        }
        // Scan the header to the body's `{` at bracket depth 0.
        let mut k = j;
        let mut depth = 0i32;
        let mut saw_in = false;
        let mut open = None;
        while k < chars.len() {
            match chars[k] {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => {
                    open = Some(k);
                    break;
                }
                ';' if depth == 0 => break, // not a loop header after all
                c2 if is_ident(c2) => {
                    let mut m = k;
                    while m < chars.len() && is_ident(chars[m]) {
                        m += 1;
                    }
                    let w: String = chars[k..m].iter().collect();
                    if w == "in" && (k == 0 || !is_ident(chars[k - 1])) {
                        saw_in = true;
                    }
                    k = m;
                    continue;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            i = j;
            continue;
        };
        if needs_in && !saw_in {
            // `impl Trait for Type {` — not a loop.
            i = j;
            continue;
        }
        // Matching close brace.
        let mut level = 0i32;
        let mut end = open;
        for (off, &c2) in chars[open..].iter().enumerate() {
            match c2 {
                '{' => level += 1,
                '}' => {
                    level -= 1;
                    if level == 0 {
                        end = open + off;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push((i, (open, end + 1)));
        i = j;
    }
    out
}

// ---- rule: failpoint -------------------------------------------------------

const FAILPOINT_MARKERS: &[&str] = &[
    "fail_point!(",
    "mmdb_fault::eval(",
    "mmdb_fault::eval_unit(",
    "mmdb_fault::eval_to_error(",
];

/// The crate a workspace-relative path belongs to.
fn crate_of(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        return format!("crates/{}", parts[1]);
    }
    if parts.len() >= 2 && parts[0] == "shims" {
        return format!("shims/{}", parts[1]);
    }
    "mmdb".to_string() // the root package (src/, tests/)
}

fn check_failpoints(
    files: &[SourceFile],
    cfg: &Config,
    used: &mut PragmaUse,
    out: &mut Vec<Diagnostic>,
) {
    // site → first declaration/use location, per crate.
    type SiteMap = BTreeMap<String, (String, usize)>;
    let mut rosters: BTreeMap<String, SiteMap> = BTreeMap::new();
    let mut uses: BTreeMap<String, SiteMap> = BTreeMap::new();
    // (crate, site) → pragma locations that would suppress it.
    let mut pragma_at: BTreeMap<(String, String), Vec<(usize, usize)>> = BTreeMap::new();

    for (fi, file) in files.iter().enumerate() {
        if path_exempt(&file.path, &cfg.failpoints_exempt) || is_test_path(&file.path) {
            continue;
        }
        let krate = crate_of(&file.path);
        // Roster: `FAILPOINT_SITES ... = &[ "a", "b", ... ];` — find the
        // initializer's bracket span in the masked view, then read the
        // site strings from the aligned code view.
        let (masked, line_of) = file.masked_text();
        let (code, _) = file.code_text();
        let mchars: Vec<char> = masked.chars().collect();
        let cchars: Vec<char> = code.chars().collect();
        let mut from = 0usize;
        while let Some(at) = find_token(&masked, "FAILPOINT_SITES", from) {
            from = at + 1;
            // The initializer's `=`; a re-export (`pub use ...;`) has none
            // before the `;`.
            let Some(eq) = mchars[at..].iter().position(|&c| c == '=' || c == ';') else {
                continue;
            };
            if mchars[at + eq] == ';' {
                continue;
            }
            let Some(open_rel) = mchars[at + eq..].iter().position(|&c| c == '[') else {
                continue;
            };
            let open = at + eq + open_rel;
            let mut depth = 0i32;
            let mut close = open;
            for (off, &c) in mchars[open..].iter().enumerate() {
                match c {
                    '[' => depth += 1,
                    ']' => {
                        depth -= 1;
                        if depth == 0 {
                            close = open + off;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let span: String = cchars[open..close].iter().collect();
            // Record each site at the line its literal sits on.
            let mut scan_from = open;
            for site in string_literals(&span) {
                let lineno = line_of[scan_from.min(line_of.len() - 1)];
                // Advance past this literal for per-line attribution.
                let needle = format!("\"{site}\"");
                let tail: String = cchars[scan_from..close].iter().collect();
                let here = tail.find(&needle).map(|p| scan_from + p).unwrap_or(scan_from);
                let lineno = line_of.get(here).copied().unwrap_or(lineno);
                scan_from = here + needle.chars().count();
                let entry = rosters.entry(krate.clone()).or_default();
                entry.entry(site.clone()).or_insert((file.path.clone(), lineno + 1));
                if let Some(pline) = suppression_line(file, lineno, "failpoint") {
                    pragma_at.entry((krate.clone(), site)).or_default().push((fi, pline));
                }
            }
            from = close;
        }
        // Call sites.
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for marker in FAILPOINT_MARKERS {
                let Some(at) = find_token(&line.masked, marker, 0) else { continue };
                // The site string: first literal at/after the marker on
                // this line, else the first on the next line (wrapped call).
                let code_tail: String = line.code.chars().skip(at).collect();
                let mut lits = string_literals(&code_tail);
                if lits.is_empty() {
                    if let Some(next) = file.lines.get(i + 1) {
                        lits = string_literals(&next.code);
                    }
                }
                let Some(site) = lits.first() else { continue };
                let entry = uses.entry(krate.clone()).or_default();
                entry.entry(site.clone()).or_insert((file.path.clone(), i + 1));
                if let Some(pline) = suppression_line(file, i, "failpoint") {
                    pragma_at
                        .entry((krate.clone(), site.clone()))
                        .or_default()
                        .push((fi, pline));
                }
            }
        }
    }

    let suppress = |krate: &str, site: &str, used: &mut PragmaUse| -> bool {
        match pragma_at.get(&(krate.to_string(), site.to_string())) {
            Some(locs) => {
                for &(fi, pline) in locs {
                    used.mark(fi, pline, "failpoint");
                }
                true
            }
            None => false,
        }
    };

    let empty = BTreeMap::new();
    for (krate, site_uses) in &uses {
        let roster = rosters.get(krate).unwrap_or(&empty);
        for (site, (path, line)) in site_uses {
            if roster.contains_key(site) || suppress(krate, site, used) {
                continue;
            }
            out.push(Diagnostic {
                path: path.clone(),
                line: *line,
                rule: "failpoint",
                msg: format!(
                    "failpoint site \"{site}\" is not in {krate}'s FAILPOINT_SITES \
                     roster — the torture suite cannot find it"
                ),
                severity: Severity::Error,
            });
        }
    }
    for (krate, roster) in &rosters {
        let site_uses = uses.get(krate).unwrap_or(&empty);
        for (site, (path, line)) in roster {
            if site_uses.contains_key(site) || suppress(krate, site, used) {
                continue;
            }
            out.push(Diagnostic {
                path: path.clone(),
                line: *line,
                rule: "failpoint",
                msg: format!(
                    "rostered failpoint site \"{site}\" has no live call site in \
                     {krate} — stale roster entry"
                ),
                severity: Severity::Error,
            });
        }
    }

    // Test coverage: a healthy (rostered + used) site must be exercised
    // by at least one test — either its literal appears in a test file,
    // or the test chains the crate's roster (`<crate>::FAILPOINT_SITES`).
    // Only checkable when the scan actually includes test files.
    let test_text: String = files
        .iter()
        .filter(|f| is_test_path(&f.path))
        .map(|f| f.code_text().0)
        .collect::<Vec<_>>()
        .join("\n");
    if test_text.is_empty() {
        return;
    }
    for (krate, site_uses) in &uses {
        let roster = rosters.get(krate).unwrap_or(&empty);
        let short = krate.rsplit('/').next().unwrap_or(krate);
        let roster_ref = format!("{short}::FAILPOINT_SITES");
        let roster_chained = test_text.contains(&roster_ref);
        for (site, (path, line)) in site_uses {
            if !roster.contains_key(site) {
                continue; // already reported as unrostered
            }
            if roster_chained || test_text.contains(&format!("\"{site}\"")) {
                continue;
            }
            if suppress(krate, site, used) {
                continue;
            }
            out.push(Diagnostic {
                path: path.clone(),
                line: *line,
                rule: "failpoint",
                msg: format!(
                    "failpoint site \"{site}\" is never exercised by a test — \
                     reference the literal (or chain {short}::FAILPOINT_SITES) from \
                     a torture test under tests/"
                ),
                severity: Severity::Error,
            });
        }
    }
}

// ---- --explain -------------------------------------------------------------

/// Long-form documentation for `mmdb-lint --explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "panic" => {
            "panic: no .unwrap()/.expect(/panic!/unreachable!/todo! on non-test engine paths.\n\
             \n\
             A panic on a durability or request path aborts the worker mid-operation and\n\
             can leave partially applied state. Return a typed mmdb_types::Error instead.\n\
             Exemptions: [no_panic] exempt path prefixes in lint.toml (vendored shims,\n\
             the bench harness); per-line `// lint: allow(panic, <reason>)` where the\n\
             invariant genuinely cannot fail (say why)."
        }
        "failpoint" => {
            "failpoint: every fail_point!/mmdb_fault::eval* site must (1) appear in its\n\
             crate's FAILPOINT_SITES roster, (2) have a live call site for each roster\n\
             entry, and (3) be exercised by at least one test under tests/ — either the\n\
             site literal appears in a test, or the test chains the crate's roster\n\
             (e.g. `storage::FAILPOINT_SITES`). A site the torture suite cannot find, or\n\
             never fires, is an untested crash point. The coverage check only runs when\n\
             the scan includes test files."
        }
        "relaxed" => {
            "relaxed: Ordering::Relaxed is only allowed in the designated counter modules\n\
             ([relaxed] allowed in lint.toml) where cross-thread ordering is irrelevant\n\
             by design (monotonic metrics). Anywhere else it needs a reasoned pragma —\n\
             relaxed atomics that guard state handoffs are a memory-ordering bug."
        }
        "tick" => {
            "tick: every loop in the executor files ([executor_tick] files) must contain\n\
             a cancel::tick() or tick-forwarding call, so row iteration stays\n\
             cancellable and deadlines hold. Loops that provably do not iterate rows\n\
             carry `// lint: allow(tick, <reason>)`."
        }
        "lock" => {
            "lock: every observed lock nesting must follow the [[lock_order]] table in\n\
             lint.toml. The analysis is interprocedural: per-fn summaries record which\n\
             locks a fn (or anything it calls) may acquire and which guards it returns\n\
             to its caller, propagated through the workspace call graph to a fixpoint;\n\
             a call made while a guard is held attributes all of the callee's\n\
             acquisitions to the held set. Declared edges close transitively (serial ->\n\
             commit_mutex plus commit_mutex -> versions blesses serial -> versions).\n\
             Undeclared observed nestings are errors; a cycle in declared+observed\n\
             edges is an error; with [locks] require_observed = \"true\", declared\n\
             edges nothing observes are stale-declaration warnings.\n\
             \n\
             Residual blind spots (see KNOWN_ISSUES.md): dyn-dispatch and\n\
             macro-generated fns are invisible; calls through std-shaped method names\n\
             (get, insert, ...) are deliberately not resolved; locks reached through\n\
             closures invoked by a callee are attributed to the closure's lexical\n\
             context, not its caller."
        }
        "blocking" => {
            "blocking: no blocking operation reachable from an annotated hot context\n\
             without a reasoned pragma. [hot_contexts] fns names the entry points\n\
             (connection readers, response writers); [blocking] ops\n\
             lists the blocking vocabulary (.sync(), sleep, .wait_for(, ...);\n\
             [blocking] contended lists locks whose waits count as blocking. The rule\n\
             walks the call graph breadth-first from each hot fn and reports each\n\
             direct blocking site with the call path. Deliberate blocking (the leader's\n\
             one fsync per batch) carries `// lint: allow(blocking, <reason>)` — the\n\
             reason is the design argument, kept next to the code."
        }
        "pragma" => {
            "pragma: every `// lint: allow(rule, reason)` must name a known rule and\n\
             give a nonempty reason — and must actually suppress a diagnostic. A pragma\n\
             that suppresses nothing is itself an error, so suppressions cannot\n\
             outlive the code they excused. Pragmas bind to their own line or to the\n\
             run of comment-only lines directly above the offending line."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::analyze;

    fn scan_one(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
        check_files(&[analyze(path, src)], cfg)
    }

    #[test]
    fn panic_rule_flags_and_pragma_suppresses() {
        let cfg = Config::default();
        let d = scan_one("crates/x/src/lib.rs", "fn f() { x.unwrap(); }\n", &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "panic");
        let d = scan_one(
            "crates/x/src/lib.rs",
            "fn f() { x.unwrap(); } // lint: allow(panic, infallible here)\n",
            &cfg,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pragma_needs_known_rule_and_reason() {
        let cfg = Config::default();
        let d = scan_one("crates/x/src/lib.rs", "// lint: allow(panics, x)\n", &cfg);
        assert_eq!(d[0].rule, "pragma");
        let d = scan_one("crates/x/src/lib.rs", "// lint: allow(panic)\n", &cfg);
        assert_eq!(d[0].rule, "pragma");
    }

    #[test]
    fn unused_pragmas_are_flagged() {
        let cfg = Config::default();
        let d = scan_one(
            "crates/x/src/lib.rs",
            "fn f() { fine(); } // lint: allow(panic, nothing here panics)\n",
            &cfg,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "pragma");
        assert!(d[0].msg.contains("unused"), "{}", d[0].msg);
    }

    #[test]
    fn loops_are_found_and_impl_for_is_not_a_loop() {
        let src = "impl Display for Foo { fn f(&self) { for x in items { use_it(x); } } }\n";
        let mut cfg = Config::default();
        cfg.tick_files.push("crates/q/src/exec.rs".to_string());
        let d = scan_one("crates/q/src/exec.rs", src, &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "tick");
        let src = "fn f() { for x in items { cancel::tick()?; use_it(x); } }\n";
        assert!(scan_one("crates/q/src/exec.rs", src, &cfg).is_empty());
    }

    #[test]
    fn lock_nesting_against_the_table() {
        let mut cfg = Config::default();
        let src = "fn f(&self) {\n    let a = self.queue.lock();\n    let b = self.slowlog.lock();\n}\n";
        let d = scan_one("crates/x/src/lib.rs", src, &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock");
        assert_eq!(d[0].line, 3);
        cfg.lock_order.push(crate::config::LockEdge {
            outer: "queue".to_string(),
            inner: "slowlog".to_string(),
            line: 0,
        });
        assert!(scan_one("crates/x/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn temporary_guard_does_not_nest() {
        let cfg = Config::default();
        let src = "fn f(&self) {\n    self.queue.lock().push(1);\n    let b = self.slowlog.lock();\n}\n";
        assert!(scan_one("crates/x/src/lib.rs", src, &cfg).is_empty());
        // ...but two acquisitions inside one statement do nest.
        let src = "fn f(&self) { self.a.lock().push(self.b.lock().pop()); }\n";
        let d = scan_one("crates/x/src/lib.rs", src, &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn dropped_guard_releases() {
        let cfg = Config::default();
        let src = "fn f(&self) {\n    let a = self.queue.lock();\n    drop(a);\n    let b = self.slowlog.lock();\n}\n";
        assert!(scan_one("crates/x/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn scoped_guard_releases_at_block_end() {
        let cfg = Config::default();
        let src = "fn f(&self) {\n    {\n        let a = self.queue.lock();\n        a.push(1);\n    }\n    let b = self.slowlog.lock();\n}\n";
        assert!(scan_one("crates/x/src/lib.rs", src, &cfg).is_empty(), "guard scope ended");
    }

    #[test]
    fn failpoint_roster_both_directions() {
        let cfg = Config::default();
        let rostered_and_used = "pub const FAILPOINT_SITES: &[&str] = &[\"a.b\"];\nfn f() { mmdb_fault::fail_point!(\"a.b\"); }\n";
        assert!(scan_one("crates/x/src/lib.rs", rostered_and_used, &cfg).is_empty());
        let unrostered = "fn f() { mmdb_fault::fail_point!(\"a.b\"); }\n";
        let d = scan_one("crates/x/src/lib.rs", unrostered, &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("not in"), "{}", d[0].msg);
        let stale = "pub const FAILPOINT_SITES: &[&str] = &[\"a.b\"];\n";
        let d = scan_one("crates/x/src/lib.rs", stale, &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("stale"), "{}", d[0].msg);
    }

    #[test]
    fn failpoint_test_coverage_requires_a_test_reference() {
        let cfg = Config::default();
        let engine = "pub const FAILPOINT_SITES: &[&str] = &[\"a.b\"];\nfn f() { mmdb_fault::fail_point!(\"a.b\"); }\n";
        // A test that fires the literal covers the site.
        let d = crate::scan_sources(
            &[("crates/x/src/lib.rs", engine), ("crates/x/tests/torture.rs", "fn t() { fire(\"a.b\"); }\n")],
            &cfg,
        );
        assert!(d.is_empty(), "{d:?}");
        // Chaining the roster covers every site of the crate.
        let d = crate::scan_sources(
            &[("crates/x/src/lib.rs", engine), ("crates/x/tests/torture.rs", "fn t() { for s in x::FAILPOINT_SITES {} }\n")],
            &cfg,
        );
        assert!(d.is_empty(), "{d:?}");
        // A scan with tests that reference neither flags the site.
        let d = crate::scan_sources(
            &[("crates/x/src/lib.rs", engine), ("crates/x/tests/torture.rs", "fn t() {}\n")],
            &cfg,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("never exercised"), "{}", d[0].msg);
    }

    #[test]
    fn relaxed_only_in_designated_modules() {
        let mut cfg = Config::default();
        let src = "fn f() { c.fetch_add(1, Ordering::Relaxed); }\n";
        let d = scan_one("crates/x/src/lib.rs", src, &cfg);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "relaxed");
        cfg.relaxed_allowed.push("crates/x/src/lib.rs".to_string());
        assert!(scan_one("crates/x/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn test_code_is_invisible_to_rules() {
        let cfg = Config::default();
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); panic!(); }\n}\n";
        assert!(scan_one("crates/x/src/lib.rs", src, &cfg).is_empty());
        assert!(scan_one("crates/x/tests/it.rs", "fn f() { x.unwrap(); }\n", &cfg).is_empty());
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in RULE_NAMES {
            assert!(explain(rule).is_some(), "missing --explain text for {rule}");
        }
        assert!(explain("nonsense").is_none());
    }
}
