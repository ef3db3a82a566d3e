//! The `blocking` rule: no blocking operation on an annotated hot
//! context without a reasoned pragma.
//!
//! `lint.toml` names the hot contexts (`[hot_contexts] fns = [...]` —
//! server connection readers and response writers) and
//! the blocking vocabulary (`[blocking] ops` — call tokens like
//! `.sync()` or `sleep`; `[blocking] contended` — locks whose waits
//! are long enough to count, like the commit mutex). The rule walks
//! the call graph breadth-first from every hot fn and flags each
//! direct blocking site in a reachable fn, with the call path from the
//! hot context, unless the site carries
//! `// lint: allow(blocking, <reason>)`.
//!
//! Genuine blocking on a hot path is sometimes the design (the
//! group-commit leader's one fsync per batch *is* the throughput
//! win); the pragma reason is where that argument lives, adjacent to
//! the code it excuses.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lex::{find_token, SourceFile};
use crate::parse::{Event, FnItem};
use crate::rules::{suppression_line, Diagnostic, PragmaUse, Severity};

/// One direct blocking site inside a fn body.
struct Site {
    line: usize,
    what: String,
}

/// Does this masked line contain the blocking op token? Dotted ops
/// (`.sync()`) match as substrings; bare names (`sleep`) match as
/// identifiers followed by `(`.
fn op_on_line(masked: &str, op: &str) -> bool {
    if op.starts_with('.') {
        return masked.contains(op);
    }
    let mut from = 0usize;
    while let Some(at) = find_token(masked, op, from) {
        let after: String = masked.chars().skip(at + op.chars().count()).collect();
        if after.starts_with('(') {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Direct blocking sites of one fn: configured op tokens on its lines
/// plus acquisitions of declared-contended locks.
fn direct_sites(file: &SourceFile, item: &FnItem, cfg: &Config) -> Vec<Site> {
    let mut out: Vec<Site> = Vec::new();
    for idx in item.first_line..=item.last_line {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        for op in &cfg.blocking_ops {
            if op_on_line(&line.masked, op) {
                out.push(Site { line: idx, what: format!("`{op}`") });
            }
        }
    }
    for ev in &item.events {
        if let Event::Acquire { lock, line, .. } = ev {
            if cfg.blocking_contended.iter().any(|c| c == lock) {
                out.push(Site {
                    line: *line,
                    what: format!("a wait on contended lock '{lock}'"),
                });
            }
        }
    }
    out.sort_by_key(|s| s.line);
    out
}

/// Walk the call graph from every configured hot context and flag
/// blocking sites in reachable fns.
pub fn check_blocking(
    files: &[SourceFile],
    items: &[FnItem],
    graph: &CallGraph,
    cfg: &Config,
    used: &mut PragmaUse,
    out: &mut Vec<Diagnostic>,
) {
    if cfg.hot_fns.is_empty() || (cfg.blocking_ops.is_empty() && cfg.blocking_contended.is_empty())
    {
        return;
    }
    // BFS per hot context; the first context to reach a fn owns its
    // attribution (config order, then shortest path).
    let mut reached: BTreeMap<usize, (String, Vec<String>)> = BTreeMap::new();
    for hot in &cfg.hot_fns {
        let mut queue: Vec<(usize, Vec<String>)> = graph
            .named(hot)
            .iter()
            .map(|&i| (i, vec![items[i].name.clone()]))
            .collect();
        let mut qi = 0;
        while qi < queue.len() {
            let (idx, path) = queue[qi].clone();
            qi += 1;
            if reached.contains_key(&idx) {
                continue;
            }
            reached.insert(idx, (hot.clone(), path.clone()));
            for callee in graph.callees_of(&items[idx]) {
                if !reached.contains_key(&callee) {
                    let mut p = path.clone();
                    p.push(items[callee].name.clone());
                    queue.push((callee, p));
                }
            }
        }
    }

    let mut flagged: Vec<(usize, usize)> = Vec::new(); // (file, line) dedup
    for (&idx, (hot, path)) in &reached {
        let item = &items[idx];
        let file = &files[item.file];
        for site in direct_sites(file, item, cfg) {
            if flagged.contains(&(item.file, site.line)) {
                continue;
            }
            flagged.push((item.file, site.line));
            if let Some(pline) = suppression_line(file, site.line, "blocking") {
                used.mark(item.file, pline, "blocking");
                continue;
            }
            let route = if path.len() > 1 {
                format!(" (path: {})", path.join(" -> "))
            } else {
                String::new()
            };
            out.push(Diagnostic {
                path: file.path.clone(),
                line: site.line + 1,
                rule: "blocking",
                msg: format!(
                    "blocking {} reachable from hot context `{hot}`{route} — move it \
                     off the hot path or annotate `// lint: allow(blocking, <reason>)`",
                    site.what
                ),
                severity: Severity::Error,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::analyze;
    use crate::parse::parse_items;

    fn run(src: &str, cfg: &Config) -> Vec<Diagnostic> {
        let files = vec![analyze("crates/x/src/lib.rs", src)];
        let items = parse_items(&files, cfg);
        let graph = CallGraph::build(&items);
        let mut used = PragmaUse::default();
        let mut out = Vec::new();
        check_blocking(&files, &items, &graph, cfg, &mut used, &mut out);
        out
    }

    fn cfg() -> Config {
        let mut cfg = Config::default();
        cfg.hot_fns.push("reader_loop".into());
        cfg.blocking_ops.push(".sync()".into());
        cfg.blocking_ops.push("sleep".into());
        cfg.blocking_contended.push("commit_mutex".into());
        cfg
    }

    #[test]
    fn blocking_reachable_from_a_hot_context_is_flagged_with_the_path() {
        let src = "fn reader_loop(&self) {\n    self.drain_frames();\n}\n\
                   fn drain_frames(&self) {\n    self.wal.sync();\n}\n";
        let d = run(src, &cfg());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains(".sync()"), "{}", d[0].msg);
        assert!(d[0].msg.contains("reader_loop -> drain_frames"), "{}", d[0].msg);
    }

    #[test]
    fn contended_lock_waits_count_and_pragmas_suppress() {
        let src = "fn reader_loop(&self) {\n    let g = self.commit_mutex.lock();\n}\n";
        let d = run(src, &cfg());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("commit_mutex"), "{}", d[0].msg);
        let src = "fn reader_loop(&self) {\n    let g = self.commit_mutex.lock(); // lint: allow(blocking, startup only)\n}\n";
        assert!(run(src, &cfg()).is_empty());
    }

    #[test]
    fn unreachable_blocking_is_not_flagged() {
        let src = "fn background(&self) {\n    self.wal.sync();\n}\n";
        assert!(run(src, &cfg()).is_empty());
    }
}
