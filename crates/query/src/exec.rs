//! The MMQL plan interpreter: a pipeline over binding environments.

use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::rc::Rc;

use mmdb_graph::Direction;
use mmdb_types::{Error, Result, Value};

use crate::ast::{AggFunc, BinOp, Expr, Query, SortOrder, TraversalDirection};
use crate::cancel;
use crate::eval::{eval_expr, eval_ref};
use crate::plan::{build_plan, Plan, PlanBound, PlanNode};
use crate::world::World;

/// A binding environment: variable → value.
///
/// Implemented as a persistent (structurally shared) frame list so that
/// `clone()` is O(1) regardless of how large the bound values are — a
/// `FOR` over N items under an env holding a big `LET` array must not
/// deep-copy that array N times. Lookups walk the frames (shadowing =
/// nearest frame wins); the frame count is the number of bound variables,
/// which MMQL keeps small.
#[derive(Clone, Default)]
pub struct Env {
    head: Option<std::sync::Arc<EnvFrame>>,
}

struct EnvFrame {
    name: String,
    value: Value,
    parent: Option<std::sync::Arc<EnvFrame>>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env { head: None }
    }

    /// Look up a variable (innermost binding wins).
    pub fn get(&self, name: &str) -> Option<&Value> {
        let mut cur = self.head.as_deref();
        // lint: allow(tick, walks binding frames, bounded by the query's variable count, not rows)
        while let Some(f) = cur {
            if f.name == name {
                return Some(&f.value);
            }
            cur = f.parent.as_deref();
        }
        None
    }

    /// Bind (or shadow) a variable. O(1); earlier clones are unaffected.
    pub fn insert(&mut self, name: String, value: Value) {
        self.head = Some(std::sync::Arc::new(EnvFrame {
            name,
            value,
            parent: self.head.take(),
        }));
    }

    /// Take back the innermost binding's value — without a copy when
    /// this env holds the only reference to its frame (`Null` when empty).
    fn into_innermost(self) -> Value {
        match self.head.map(std::sync::Arc::try_unwrap) {
            Some(Ok(frame)) => frame.value,
            Some(Err(shared)) => shared.value.clone(),
            None => Value::Null,
        }
    }

    /// Visible bindings (shadowed frames skipped), outermost-first order
    /// not guaranteed.
    pub fn bindings(&self) -> Vec<(&str, &Value)> {
        let mut seen: Vec<&str> = Vec::new();
        let mut out = Vec::new();
        let mut cur = self.head.as_deref();
        // lint: allow(tick, walks binding frames, bounded by the query's variable count, not rows)
        while let Some(f) = cur {
            if !seen.contains(&f.name.as_str()) {
                seen.push(&f.name);
                out.push((f.name.as_str(), &f.value));
            }
            cur = f.parent.as_deref();
        }
        out
    }
}

/// Execute a parsed query (plans and optimizes it first).
pub fn execute_query(world: &World, query: &Query) -> Result<Vec<Value>> {
    execute_query_with_env(world, query, Env::new())
}

/// Execute a query with initial bindings (correlated subqueries pass the
/// enclosing scope here).
pub fn execute_query_with_env(world: &World, query: &Query, env: Env) -> Result<Vec<Value>> {
    let plan = crate::optimize::optimize(build_plan(query)?, world);
    execute_plan_with_env(world, &plan, env)
}

/// Evaluate an inline subquery (a `LET x = (FOR ...)` body or a
/// parenthesized pipeline in expression position). Outside a traced
/// execution this is exactly [`execute_query_with_env`]. Inside
/// [`execute_plan_traced`] the subquery pipeline is profiled too: its
/// operators are aggregated across per-row evaluations, indented one
/// level per nesting depth, and spliced into the parent's profile right
/// after the operator that evaluated them — so EXPLAIN ANALYZE no
/// longer hides subquery work inside the parent operator's elapsed time.
pub fn execute_subquery(world: &World, query: &Query, env: Env) -> Result<Vec<Value>> {
    if !SUB_TRACE.with(|t| t.borrow().is_some()) {
        return execute_query_with_env(world, query, env);
    }
    let plan = crate::optimize::optimize(build_plan(query)?, world);
    let depth = SUB_TRACE.with(|t| {
        let mut slot = t.borrow_mut();
        match slot.as_mut() {
            Some(trace) => {
                trace.depth += 1;
                trace.depth
            }
            None => 0,
        }
    });
    let result = execute_plan_traced_sub(world, &plan, env, depth);
    SUB_TRACE.with(|t| {
        if let Some(trace) = t.borrow_mut().as_mut() {
            trace.depth = trace.depth.saturating_sub(1);
        }
    });
    result
}

thread_local! {
    /// Active only for the duration of [`execute_plan_traced`]: collects
    /// the per-operator stats of subqueries evaluated from expressions.
    /// The traced executor drains it after each plan node, splicing the
    /// subquery operators into the profile in execution order.
    static SUB_TRACE: std::cell::RefCell<Option<SubTrace>> = const { std::cell::RefCell::new(None) };
}

struct SubTrace {
    /// Current subquery nesting depth (0 = the traced top-level plan).
    depth: usize,
    entries: Vec<crate::stats::OpStats>,
}

/// Installs the subquery trace sink on construction (if none is active)
/// and clears it on drop, so an error return mid-trace cannot leak an
/// active sink into the next query on this thread.
struct SubTraceGuard {
    installed: bool,
}

impl SubTraceGuard {
    fn install() -> SubTraceGuard {
        SUB_TRACE.with(|t| {
            let mut slot = t.borrow_mut();
            if slot.is_none() {
                *slot = Some(SubTrace { depth: 0, entries: Vec::new() });
                SubTraceGuard { installed: true }
            } else {
                SubTraceGuard { installed: false }
            }
        })
    }
}

impl Drop for SubTraceGuard {
    fn drop(&mut self) {
        if self.installed {
            SUB_TRACE.with(|t| *t.borrow_mut() = None);
        }
    }
}

/// A `HashProbe` build: store rows grouped by their build-path value,
/// each group in scan order.
type ProbeTable = HashMap<Value, Vec<Value>>;

/// The tables of one execution, by `(source, path)`.
type ProbeTables = HashMap<(String, String), Rc<ProbeTable>>;

thread_local! {
    /// The hash tables `HashProbe` nodes built during the current
    /// outermost execution, keyed by `(source, path)`. Subqueries re-enter
    /// the executor once per outer row and find the table here; it is
    /// dropped when the outermost execution ends (see [`ProbeScope`]), so
    /// the next query sees every commit made in between.
    static PROBE_TABLES: std::cell::RefCell<Option<ProbeTables>> = const { std::cell::RefCell::new(None) };
}

/// Opens the probe-table cache on construction (if none is open) and
/// drops it on drop — also on an error or cancel return — the same
/// pattern as [`SubTraceGuard`].
struct ProbeScope {
    opened: bool,
}

impl ProbeScope {
    fn enter() -> ProbeScope {
        PROBE_TABLES.with(|t| {
            let mut slot = t.borrow_mut();
            let opened = slot.is_none();
            if opened {
                *slot = Some(HashMap::new());
            }
            ProbeScope { opened }
        })
    }
}

impl Drop for ProbeScope {
    fn drop(&mut self) {
        if self.opened {
            PROBE_TABLES.with(|t| *t.borrow_mut() = None);
        }
    }
}

/// The hash table of `source` on `var.path`, built by one full scan on
/// first use in the current execution. Build-path values are computed by
/// the expression evaluator itself, so a missing field keys as `Null`
/// and array fields map, exactly as `==` sees them.
fn probe_table(world: &World, var: &str, source: &str, path: &Expr) -> Result<Rc<ProbeTable>> {
    let name = (source.to_string(), crate::plan::probe_path(var, path));
    let cached = PROBE_TABLES.with(|t| t.borrow().as_ref().and_then(|m| m.get(&name).cloned()));
    if let Some(table) = cached {
        return Ok(table);
    }
    let mut table = ProbeTable::new();
    for row in world.scan_source(source)? {
        cancel::tick()?;
        let mut env = Env::new();
        env.insert(var.to_string(), row);
        let key = eval_expr(world, &env, path)?;
        table.entry(key).or_default().push(env.into_innermost());
    }
    let table = Rc::new(table);
    PROBE_TABLES.with(|t| {
        if let Some(m) = t.borrow_mut().as_mut() {
            m.insert(name, Rc::clone(&table));
        }
    });
    Ok(table)
}

/// The `For` + `Filter` pair a fused scan node replaced, run when the
/// incoming rows bind the source name: a variable (`LET orders = …`)
/// shadows the store, and `For` iterates the variable instead.
fn apply_unfused(
    world: &World,
    var: &str,
    source: &str,
    cond: Expr,
    residual: &Option<Expr>,
    envs: Vec<Env>,
) -> Result<Vec<Env>> {
    let pred = match residual {
        Some(r) => Expr::Binary(BinOp::And, Box::new(cond), Box::new(r.clone())),
        None => cond,
    };
    let scan = PlanNode::For { var: var.to_string(), source: Expr::Var(source.to_string()) };
    let envs = apply_node(world, &scan, envs)?;
    apply_node(world, &PlanNode::Filter(pred), envs)
}

/// Do the incoming rows bind `source` as a variable? All rows of one
/// pipeline stage carry the same variable names, so the first decides.
fn shadows(envs: &[Env], source: &str) -> bool {
    envs.first().is_some_and(|e| e.get(source).is_some())
}

/// Take the subquery operator stats accumulated since the last drain.
fn drain_sub_trace() -> Vec<crate::stats::OpStats> {
    SUB_TRACE.with(|t| {
        t.borrow_mut().as_mut().map(|trace| std::mem::take(&mut trace.entries)).unwrap_or_default()
    })
}

/// Record one subquery operator evaluation into the active sink,
/// merging repeats: a `LET` body re-evaluated for every parent row
/// shows up as one line with summed rows and elapsed time, not N lines.
fn record_sub_op(op: String, rows_in: usize, rows_out: usize, elapsed: std::time::Duration, access_path: Option<String>) {
    SUB_TRACE.with(|t| {
        if let Some(trace) = t.borrow_mut().as_mut() {
            if let Some(existing) = trace.entries.iter_mut().find(|e| e.op == op) {
                existing.rows_in += rows_in;
                existing.rows_out += rows_out;
                existing.elapsed += elapsed;
                if existing.access_path.is_none() {
                    existing.access_path = access_path;
                }
            } else {
                trace.entries.push(crate::stats::OpStats { op, rows_in, rows_out, elapsed, access_path });
            }
        }
    });
}

/// The traced executor for subquery plans: same shape as the top-level
/// traced loop, but operator stats go to the thread-local sink (indented
/// by nesting depth) instead of a local `ops` vector.
fn execute_plan_traced_sub(world: &World, plan: &Plan, env: Env, depth: usize) -> Result<Vec<Value>> {
    let indent = "  ".repeat(depth.max(1) - 1);
    let mut envs = vec![env];
    // lint: allow(tick, iterates plan operators, bounded by query size; apply_node ticks per row)
    for node in &plan.nodes {
        let rows_in = envs.len();
        let access_path = describe_access_path(world, node, envs.first());
        let node_started = std::time::Instant::now();
        envs = apply_node(world, node, envs)?;
        record_sub_op(format!("{indent}└ {}", node.describe()), rows_in, envs.len(), node_started.elapsed(), access_path);
        if envs.is_empty() {
            break;
        }
    }
    let rows_in = envs.len();
    let ret_started = std::time::Instant::now();
    let out = project_return(world, plan, &envs)?;
    record_sub_op(format!("{indent}└ {}", plan.describe_return()), rows_in, out.len(), ret_started.elapsed(), None);
    Ok(out)
}

/// Execute an already-optimized plan.
pub fn execute_plan(world: &World, plan: &Plan) -> Result<Vec<Value>> {
    execute_plan_with_env(world, plan, Env::new())
}

/// Execute a plan from an initial environment.
pub fn execute_plan_with_env(world: &World, plan: &Plan, env: Env) -> Result<Vec<Value>> {
    let _probe_tables = ProbeScope::enter();
    let mut envs = vec![env];
    // lint: allow(tick, iterates plan operators, bounded by query size; apply_node ticks per row)
    for node in &plan.nodes {
        envs = apply_node(world, node, envs)?;
        if envs.is_empty() {
            break;
        }
    }
    project_return(world, plan, &envs)
}

/// Evaluate the RETURN expression over the surviving environments and
/// apply DISTINCT (the pipeline's final step, shared by the plain and
/// traced executors).
fn project_return(world: &World, plan: &Plan, envs: &[Env]) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(envs.len());
    if !plan.distinct {
        for env in envs {
            cancel::tick()?;
            out.push(eval_expr(world, env, &plan.ret)?);
        }
        return Ok(out);
    }
    // First occurrence wins, and only it is copied out. `Value`'s hash
    // agrees with `==`, so `1` and `1.0`, or objects whose keys come in
    // different orders, are one value.
    let mut seen = HashSet::with_capacity(envs.len());
    for env in envs {
        cancel::tick()?;
        let v = eval_ref(world, env, &plan.ret)?;
        if !seen.contains(&*v) {
            out.push(v.as_ref().clone());
            seen.insert(v);
        }
    }
    Ok(out)
}

/// Execute a plan while collecting an [`ExecStats`] profile: per node,
/// rows in/out, wall time, and the access path taken. The overhead is
/// O(plan nodes) — two clock reads and one struct push per operator —
/// so tracing every server-side query is affordable; the untraced
/// [`execute_plan_with_env`] path is left byte-for-byte alone.
pub fn execute_plan_traced(
    world: &World,
    plan: &Plan,
    env: Env,
) -> Result<(Vec<Value>, crate::stats::ExecStats)> {
    use crate::stats::{ExecStats, OpStats};
    let _sub_trace = SubTraceGuard::install();
    let _probe_tables = ProbeScope::enter();
    let started = std::time::Instant::now();
    let mut envs = vec![env];
    let mut ops: Vec<OpStats> = Vec::with_capacity(plan.nodes.len() + 1);
    // lint: allow(tick, iterates plan operators, bounded by query size; apply_node ticks per row)
    for node in &plan.nodes {
        let rows_in = envs.len();
        let access_path = describe_access_path(world, node, envs.first());
        let node_started = std::time::Instant::now();
        envs = apply_node(world, node, envs)?;
        ops.push(OpStats {
            op: node.describe(),
            rows_in,
            rows_out: envs.len(),
            elapsed: node_started.elapsed(),
            access_path,
        });
        // Subqueries evaluated while this node ran (LET bodies, inline
        // pipelines) traced themselves into the sink; splice their
        // operators in right below the node that evaluated them.
        ops.extend(drain_sub_trace());
        if envs.is_empty() {
            break;
        }
    }
    let rows_in = envs.len();
    let ret_started = std::time::Instant::now();
    let out = project_return(world, plan, &envs)?;
    ops.push(OpStats {
        op: plan.describe_return(),
        rows_in,
        rows_out: out.len(),
        elapsed: ret_started.elapsed(),
        access_path: None,
    });
    ops.extend(drain_sub_trace());
    let stats = ExecStats { ops, rows_returned: out.len(), total: started.elapsed() };
    Ok((out, stats))
}

/// How a node will read its source, resolved against the world and the
/// incoming environment — the "which path actually ran" annotation.
fn describe_access_path(world: &World, node: &PlanNode, env: Option<&Env>) -> Option<String> {
    match node {
        PlanNode::For { source: Expr::Var(name), .. } => {
            if env.is_some_and(|e| e.get(name).is_some()) {
                Some(format!("bound variable '{name}'"))
            } else {
                world.resolve_source(name).map(|kind| format!("full scan ({kind} '{name}')"))
            }
        }
        PlanNode::For { .. } => Some("expression".to_string()),
        PlanNode::IndexScan { source, .. } | PlanNode::HashProbe { source, .. }
            if env.is_some_and(|e| e.get(source).is_some()) =>
        {
            Some(format!("bound variable '{source}'"))
        }
        PlanNode::IndexScan { source, path, .. } => {
            Some(format!("index '{path}' on '{source}'"))
        }
        PlanNode::HashProbe { var, source, path, .. } => world.resolve_source(source).map(|kind| {
            format!(
                "hash on '{}' over {kind} '{source}' (built once per query)",
                crate::plan::probe_path(var, path)
            )
        }),
        PlanNode::Traverse { edges, .. } => {
            Some(format!("graph traversal via edge collection '{edges}'"))
        }
        _ => None,
    }
}

fn apply_node(world: &World, node: &PlanNode, envs: Vec<Env>) -> Result<Vec<Env>> {
    match node {
        PlanNode::For { var, source } => {
            let mut out = Vec::new();
            for env in envs {
                let items = resolve_source(world, &env, source)?;
                for item in items {
                    cancel::tick()?;
                    let mut e = env.clone();
                    e.insert(var.clone(), item);
                    out.push(e);
                }
            }
            Ok(out)
        }
        PlanNode::IndexScan { var, source, cond, residual, .. } if shadows(&envs, source) => {
            apply_unfused(world, var, source, cond.clone(), residual, envs)
        }
        PlanNode::HashProbe { var, source, path, key, residual } if shadows(&envs, source) => {
            let cond = Expr::Binary(BinOp::Eq, Box::new(path.clone()), Box::new(key.clone()));
            apply_unfused(world, var, source, cond, residual, envs)
        }
        PlanNode::HashProbe { var, source, path, key, residual } => {
            let mut table: Option<Rc<ProbeTable>> = None;
            let mut out = Vec::new();
            for env in envs {
                cancel::tick()?;
                // Built lazily: no incoming row, no scan.
                let table = match &table {
                    Some(t) => t,
                    None => table.insert(probe_table(world, var, source, path)?),
                };
                // Over an empty store the naive filter never evaluates
                // the key, so neither may this (it could error).
                if table.is_empty() {
                    break;
                }
                let Some(rows) = table.get(&*eval_ref(world, &env, key)?) else { continue };
                for row in rows {
                    cancel::tick()?;
                    let mut e = env.clone();
                    e.insert(var.clone(), row.clone());
                    if let Some(res) = residual {
                        if !eval_ref(world, &e, res)?.is_truthy() {
                            continue;
                        }
                    }
                    out.push(e);
                }
            }
            Ok(out)
        }
        PlanNode::IndexScan { var, source, path, lo, hi, residual, .. } => {
            let lo_b = plan_bound(lo);
            let hi_b = plan_bound(hi);
            let mut out = Vec::new();
            for env in envs {
                world.access.note_index_scan();
                let docs: Vec<Value> = if let Ok(coll) = world.collection(source) {
                    coll.range_bounds(path, lo_b, hi_b)?.0
                } else {
                    let table = world.catalog.table(source)?;
                    let schema = table.schema().clone();
                    table
                        .select_range(path, lo_b, hi_b)?
                        .0
                        .iter()
                        .map(|row| schema.object_from_row(row))
                        .collect()
                };
                for doc in docs {
                    cancel::tick()?;
                    let mut e = env.clone();
                    e.insert(var.clone(), doc);
                    if let Some(res) = residual {
                        if !eval_ref(world, &e, res)?.is_truthy() {
                            continue;
                        }
                    }
                    out.push(e);
                }
            }
            Ok(out)
        }
        PlanNode::Traverse { var, min_depth, max_depth, direction, start, edges } => {
            let dir = match direction {
                TraversalDirection::Outbound => Direction::Outbound,
                TraversalDirection::Inbound => Direction::Inbound,
                TraversalDirection::Any => Direction::Any,
            };
            let graph = world.graph_with_edges(edges)?;
            let spec = mmdb_graph::TraversalSpec {
                min_depth: *min_depth as usize,
                max_depth: *max_depth as usize,
                direction: dir,
                edge_collection: Some(edges.clone()),
            };
            let mut out = Vec::new();
            for env in envs {
                let start_v = eval_ref(world, &env, start)?;
                let handle = match &*start_v {
                    Value::String(handle) => handle,
                    Value::Null => continue, // null start traverses nothing
                    other => {
                        return Err(Error::Type(format!(
                            "traversal start must be a 'collection/key' handle string, got {}",
                            other.type_name()
                        )))
                    }
                };
                for visited in mmdb_graph::traverse(&graph, handle, &spec)? {
                    cancel::tick()?;
                    let Some(mut doc) = graph.vertex(&visited.vertex)? else { continue };
                    // Attach the handle and depth, like AQL's `_id`.
                    if let Ok(obj) = doc.as_object_mut() {
                        obj.insert("_id", Value::str(&visited.vertex));
                        obj.insert("_depth", Value::int(visited.depth as i64));
                    }
                    let mut e = env.clone();
                    e.insert(var.clone(), doc);
                    out.push(e);
                }
            }
            Ok(out)
        }
        PlanNode::Filter(pred) => {
            let mut out = Vec::new();
            for env in envs {
                cancel::tick()?;
                if eval_ref(world, &env, pred)?.is_truthy() {
                    out.push(env);
                }
            }
            Ok(out)
        }
        PlanNode::Let { var, value } => {
            let mut out = Vec::new();
            for env in envs {
                cancel::tick()?;
                let v = eval_expr(world, &env, value)?;
                let mut e = env;
                e.insert(var.clone(), v);
                out.push(e);
            }
            Ok(out)
        }
        PlanNode::Sort(keys) => {
            let mut decorated: Vec<(Vec<Value>, Env)> = Vec::with_capacity(envs.len());
            for env in envs {
                cancel::tick()?;
                let mut ks = Vec::with_capacity(keys.len());
                // lint: allow(tick, iterates ORDER BY keys, bounded by query text; outer loop ticks per row)
                for (e, _) in keys {
                    ks.push(eval_expr(world, &env, e)?);
                }
                decorated.push((ks, env));
            }
            decorated.sort_by(|(a, _), (b, _)| {
                // lint: allow(tick, infallible comparator over ORDER BY keys; cannot propagate a cancel error)
                for (i, (_, order)) in keys.iter().enumerate() {
                    let c = a[i].cmp(&b[i]);
                    let c = if *order == SortOrder::Desc { c.reverse() } else { c };
                    if c != std::cmp::Ordering::Equal {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(decorated.into_iter().map(|(_, e)| e).collect())
        }
        PlanNode::Limit { offset, count } => {
            Ok(envs.into_iter().skip(*offset).take(*count).collect())
        }
        PlanNode::Collect { key, into, aggregates } => {
            // Group envs by key value (or one big group).
            let mut order: Vec<Value> = Vec::new();
            let mut groups: HashMap<Value, Vec<Env>> = HashMap::new();
            for env in envs {
                cancel::tick()?;
                let k = match key {
                    Some((_, e)) => eval_expr(world, &env, e)?,
                    None => Value::Null,
                };
                if !groups.contains_key(&k) {
                    order.push(k.clone());
                }
                groups.entry(k).or_default().push(env);
            }
            order.sort();
            let mut out = Vec::with_capacity(order.len());
            for k in order {
                cancel::tick()?;
                // Every key in `order` was inserted into `groups` above;
                // skip rather than panic if that invariant ever breaks.
                let Some(members) = groups.remove(&k) else { continue };
                let mut env = Env::new();
                if let Some((var, _)) = key {
                    env.insert(var.clone(), k);
                }
                if let Some(into_var) = into {
                    let scopes: Vec<Value> = members
                        .iter()
                        .map(|m| {
                            Value::object(
                                m.bindings().into_iter().map(|(k, v)| (k.to_string(), v.clone())),
                            )
                        })
                        .collect();
                    env.insert(into_var.clone(), Value::Array(scopes));
                }
                for (var, func, argexpr) in aggregates {
                    let mut vals = Vec::with_capacity(members.len());
                    for m in &members {
                        cancel::tick()?;
                        vals.push(eval_expr(world, m, argexpr)?);
                    }
                    env.insert(var.clone(), aggregate(*func, &vals)?);
                }
                out.push(env);
            }
            Ok(out)
        }
    }
}

fn plan_bound(b: &PlanBound) -> Bound<&Value> {
    match b {
        PlanBound::Unbounded => Bound::Unbounded,
        PlanBound::Included(v) => Bound::Included(v),
        PlanBound::Excluded(v) => Bound::Excluded(v),
    }
}

fn resolve_source(world: &World, env: &Env, source: &Expr) -> Result<Vec<Value>> {
    // A bare identifier: bound variable first, then store name.
    if let Expr::Var(name) = source {
        if let Some(v) = env.get(name) {
            return as_iterable(v.clone());
        }
        return world.scan_source(name);
    }
    as_iterable(eval_expr(world, env, source)?)
}

fn as_iterable(v: Value) -> Result<Vec<Value>> {
    match v {
        Value::Array(items) => Ok(items),
        Value::Null => Ok(Vec::new()),
        other => Err(Error::Type(format!(
            "FOR needs an array source, got {}",
            other.type_name()
        ))),
    }
}

fn aggregate(func: AggFunc, vals: &[Value]) -> Result<Value> {
    Ok(match func {
        AggFunc::Count => Value::int(vals.len() as i64),
        AggFunc::Sum => crate::functions::call_function(
            World::in_memory_static(),
            "SUM",
            vec![Value::Array(vals.to_vec())],
        )?,
        AggFunc::Min => vals.iter().filter(|v| !v.is_null()).min().cloned().unwrap_or(Value::Null),
        AggFunc::Max => vals.iter().max().cloned().unwrap_or(Value::Null),
        AggFunc::Avg => {
            let nums: Vec<f64> = vals
                .iter()
                .filter_map(|v| match v {
                    Value::Number(n) => Some(n.as_f64()),
                    _ => None,
                })
                .collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::float(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
    })
}

impl World {
    /// A process-wide empty world used where builtins need a `World`
    /// reference but only touch pure functions (aggregate SUM).
    fn in_memory_static() -> &'static World {
        static EMPTY: std::sync::OnceLock<World> = std::sync::OnceLock::new();
        EMPTY.get_or_init(World::in_memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use mmdb_relational::{ColumnDef, DataType, Schema};

    /// Build the paper's slide-27 world: customer relation, social graph,
    /// shopping-cart kv pairs, order JSON documents.
    fn paper_world() -> World {
        let w = World::in_memory();
        // Customer relation.
        let t = w
            .catalog
            .create_table(
                "customers",
                Schema::new(
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("name", DataType::Text),
                        ColumnDef::new("credit_limit", DataType::Int),
                    ],
                    "id",
                )
                .unwrap(),
            )
            .unwrap();
        for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
            t.insert(vec![Value::int(id), Value::str(name), Value::int(limit)]).unwrap();
        }
        // Social graph: Mary knows John; Anne knows Mary.
        let g = w.create_graph("social").unwrap();
        g.create_vertex_collection("persons").unwrap();
        g.create_edge_collection("knows").unwrap();
        for id in 1..=3 {
            g.add_vertex(
                "persons",
                mmdb_types::from_json(&format!(r#"{{"_key":"{id}"}}"#)).unwrap(),
            )
            .unwrap();
        }
        g.add_edge("knows", "persons/1", "persons/2", mmdb_types::from_json("{}").unwrap())
            .unwrap();
        g.add_edge("knows", "persons/3", "persons/1", mmdb_types::from_json("{}").unwrap())
            .unwrap();
        // Shopping cart (kv).
        w.kv.create_bucket("cart").unwrap();
        w.kv.put("cart", "1", Value::str("34e5e759")).unwrap();
        w.kv.put("cart", "2", Value::str("0c6df508")).unwrap();
        // Orders (documents).
        let orders = w.create_collection("orders").unwrap();
        orders
            .insert_json(
                r#"{"_key":"0c6df508","orderlines":[
                    {"product_no":"2724f","product_name":"Toy","price":66},
                    {"product_no":"3424g","product_name":"Book","price":40}]}"#,
            )
            .unwrap();
        orders
            .insert_json(r#"{"_key":"34e5e759","orderlines":[{"product_no":"9999x","price":5}]}"#)
            .unwrap();
        w
    }

    #[test]
    fn the_paper_recommendation_query() {
        // "Return all product_no which are ordered by a friend of a
        // customer whose credit_limit > 3000"  ⇒  ["2724f", "3424g"].
        let w = paper_world();
        let got = run(
            &w,
            r#"
            FOR c IN customers
              FILTER c.credit_limit > 3000
              FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
                LET order = DOC("orders", KV_GET("cart", friend._key))
                FOR line IN order.orderlines
                  RETURN line.product_no
            "#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("2724f"), Value::str("3424g")]);
    }

    #[test]
    fn an_expired_token_aborts_the_recommendation_query() {
        let w = paper_world();
        let token = mmdb_types::CancelToken::with_timeout(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = crate::run_with(
            &w,
            r#"
            FOR c IN customers
              FILTER c.credit_limit > 3000
              FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
                LET order = DOC("orders", KV_GET("cart", friend._key))
                FOR line IN order.orderlines
                  RETURN line.product_no
            "#,
            &token,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        assert!(err.is_retryable());
        // The scope guard restored the default token: the same query runs
        // clean afterwards on this thread.
        assert!(run(&w, "FOR c IN customers RETURN c.name").is_ok());
    }

    #[test]
    fn a_live_token_does_not_disturb_results() {
        let w = paper_world();
        let token = mmdb_types::CancelToken::with_timeout(std::time::Duration::from_secs(3600));
        let got = crate::run_with(&w, "FOR c IN customers RETURN c.name", &token).unwrap();
        assert_eq!(got, vec![Value::str("Mary"), Value::str("John"), Value::str("Anne")]);
    }

    #[test]
    fn filter_sort_limit() {
        let w = paper_world();
        let got = run(
            &w,
            "FOR c IN customers SORT c.credit_limit DESC LIMIT 2 RETURN c.name",
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("Mary"), Value::str("John")]);
        let got = run(&w, "FOR c IN customers SORT c.name LIMIT 1, 1 RETURN c.name").unwrap();
        assert_eq!(got, vec![Value::str("John")]);
    }

    #[test]
    fn let_and_subquery() {
        let w = paper_world();
        let got = run(
            &w,
            r#"
            LET rich = (FOR c IN customers FILTER c.credit_limit >= 3000 RETURN c.name)
            FOR n IN rich
              RETURN UPPER(n)
            "#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("MARY"), Value::str("JOHN")]);
    }

    #[test]
    fn correlated_subquery() {
        let w = paper_world();
        let got = run(
            &w,
            r#"
            FOR c IN customers
              LET doubled = (FOR x IN [1] RETURN c.credit_limit * 2)
              SORT c.id
              RETURN doubled[0]
            "#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::int(10000), Value::int(6000), Value::int(4000)]);
    }

    #[test]
    fn traced_execution_profiles_subquery_pipelines() {
        let w = paper_world();
        let (got, stats) = crate::run_traced(
            &w,
            r#"
            LET rich = (FOR c IN customers FILTER c.credit_limit >= 3000 RETURN c.name)
            FOR n IN rich
              RETURN UPPER(n)
            "#,
            &mmdb_types::CancelToken::none(),
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("MARY"), Value::str("JOHN")]);
        // The LET body's pipeline shows up as indented operators spliced
        // into the parent profile, not hidden inside the LET's elapsed.
        let sub_ops: Vec<&crate::stats::OpStats> =
            stats.ops.iter().filter(|o| o.op.starts_with("└ ")).collect();
        assert!(
            sub_ops.iter().any(|o| o.op.contains("For c")),
            "expected the subquery FOR among {:?}",
            stats.ops.iter().map(|o| &o.op).collect::<Vec<_>>()
        );
        assert!(
            sub_ops.iter().any(|o| o.op.contains("Filter")),
            "expected the subquery FILTER among {:?}",
            stats.ops.iter().map(|o| &o.op).collect::<Vec<_>>()
        );
        // And the parent pipeline is still fully present.
        assert!(stats.ops.iter().any(|o| o.op.contains("Let") && !o.op.starts_with("└ ")));
    }

    #[test]
    fn traced_correlated_subquery_aggregates_per_row_evaluations() {
        let w = paper_world();
        let (got, stats) = crate::run_traced(
            &w,
            r#"
            FOR c IN customers
              LET doubled = (FOR x IN [1] RETURN c.credit_limit * 2)
              SORT c.id
              RETURN doubled[0]
            "#,
            &mmdb_types::CancelToken::none(),
        )
        .unwrap();
        assert_eq!(got, vec![Value::int(10000), Value::int(6000), Value::int(4000)]);
        // The LET body ran once per customer, but it aggregates into a
        // single profile line with summed row counts.
        let sub_for: Vec<&crate::stats::OpStats> = stats
            .ops
            .iter()
            .filter(|o| o.op.starts_with("└ ") && o.op.contains("For x"))
            .collect();
        assert_eq!(sub_for.len(), 1, "ops: {:?}", stats.ops.iter().map(|o| &o.op).collect::<Vec<_>>());
        assert_eq!(sub_for[0].rows_in, 3);
        assert_eq!(sub_for[0].rows_out, 3);
    }

    #[test]
    fn untraced_execution_leaves_no_subquery_trace_behind() {
        let w = paper_world();
        // A plain run after a traced one must not see a stale sink.
        let (_, stats) = crate::run_traced(
            &w,
            "LET a = (FOR c IN customers RETURN c.id) RETURN LENGTH(a)",
            &mmdb_types::CancelToken::none(),
        )
        .unwrap();
        assert!(stats.ops.iter().any(|o| o.op.starts_with("└ ")));
        let got = run(&w, "LET a = (FOR c IN customers RETURN c.id) RETURN LENGTH(a)").unwrap();
        assert_eq!(got, vec![Value::int(3)]);
        // Running untraced did not record anything (sink is inactive).
        assert!(drain_sub_trace().is_empty());
    }

    #[test]
    fn collect_group_and_aggregate() {
        let w = World::in_memory();
        let c = w.create_collection("sales").unwrap();
        for (grp, amount) in [("a", 10), ("b", 5), ("a", 20), ("b", 7), ("a", 30)] {
            c.insert_json(&format!(r#"{{"grp":"{grp}","amount":{amount}}}"#)).unwrap();
        }
        let got = run(
            &w,
            r#"
            FOR s IN sales
              COLLECT g = s.grp AGGREGATE total = SUM(s.amount), n = COUNT()
              SORT g
              RETURN {grp: g, total: total, n: n}
            "#,
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].get_field("total"), &Value::int(60));
        assert_eq!(got[0].get_field("n"), &Value::int(3));
        assert_eq!(got[1].get_field("total"), &Value::int(12));
    }

    #[test]
    fn collect_into_groups() {
        let w = World::in_memory();
        let c = w.create_collection("sales").unwrap();
        for (grp, amount) in [("a", 10), ("b", 5), ("a", 20)] {
            c.insert_json(&format!(r#"{{"grp":"{grp}","amount":{amount}}}"#)).unwrap();
        }
        let got = run(
            &w,
            "FOR s IN sales COLLECT g = s.grp INTO members RETURN LENGTH(members)",
        )
        .unwrap();
        assert_eq!(got, vec![Value::int(2), Value::int(1)]);
    }

    #[test]
    fn distinct_results() {
        let w = World::in_memory();
        let got = run(&w, "FOR x IN [1,2,2,3,1] RETURN DISTINCT x").unwrap();
        assert_eq!(got, vec![Value::int(1), Value::int(2), Value::int(3)]);
    }

    #[test]
    fn distinct_keeps_first_occurrences_under_value_equality() {
        let w = World::in_memory();
        let got = run(
            &w,
            r#"FOR x IN [3, 1, {a: 1, b: [2]}, 1.0, "1", {b: [2.0], a: 1}, 3, null, 2.5, null, 1]
               RETURN DISTINCT x"#,
        )
        .unwrap();
        let obj = mmdb_types::from_json(r#"{"a":1,"b":[2]}"#).unwrap();
        assert_eq!(
            got,
            vec![Value::int(3), Value::int(1), obj, Value::str("1"), Value::Null, Value::float(2.5)]
        );
        // `1` and `1.0` are one value, and the one kept is the first seen;
        // likewise the object keeps its first spelling's key order.
        assert!(matches!(got[1], Value::Number(mmdb_types::Number::Int(1))), "{:?}", got[1]);
        let keys: Vec<&str> = got[2].as_object().unwrap().keys().collect();
        assert_eq!(keys, ["a", "b"]);
    }

    #[test]
    fn for_over_expression_and_null() {
        let w = World::in_memory();
        let got = run(&w, "FOR x IN RANGE(1, 3) RETURN x * x").unwrap();
        assert_eq!(got, vec![Value::int(1), Value::int(4), Value::int(9)]);
        let got = run(&w, "LET a = NULL FOR x IN a RETURN x").unwrap();
        assert!(got.is_empty());
        assert!(run(&w, "FOR x IN 42 RETURN x").is_err());
    }

    #[test]
    fn bound_variable_shadows_nothing_but_unbound_name_errors() {
        let w = World::in_memory();
        assert!(matches!(run(&w, "FOR x IN nothere RETURN x"), Err(Error::NotFound(_))));
        let got = run(&w, "LET nothere = [7] FOR x IN nothere RETURN x").unwrap();
        assert_eq!(got, vec![Value::int(7)]);
    }

    #[test]
    fn index_scan_agrees_with_full_scan() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        for i in 0..200 {
            c.insert_json(&format!(r#"{{"_key":"p{i}","price":{},"cat":{}}}"#, i % 50, i % 3))
                .unwrap();
        }
        let q = "FOR p IN products FILTER p.price >= 10 && p.price < 12 && p.cat == 0 SORT p._key RETURN p._key";
        let unindexed = run(&w, q).unwrap();
        c.create_persistent_index("price").unwrap();
        let indexed = run(&w, q).unwrap();
        assert_eq!(unindexed, indexed);
        assert!(!indexed.is_empty());
    }

    #[test]
    fn traversal_depths_and_inbound() {
        let w = paper_world();
        // Who knows Mary (inbound)?
        let got = run(
            &w,
            r#"FOR v IN 1..1 INBOUND "persons/1" knows RETURN v._key"#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("3")]);
        // Two hops outbound from Anne: Mary (1), John (2).
        let got = run(
            &w,
            r#"FOR v IN 1..2 OUTBOUND "persons/3" knows SORT v._depth RETURN [v._key, v._depth]"#,
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Value::array([Value::str("1"), Value::int(1)]));
        assert_eq!(got[1], Value::array([Value::str("2"), Value::int(2)]));
    }

    #[test]
    fn cross_model_functions_in_queries() {
        let w = paper_world();
        // RDF.
        w.rdf.write().insert(mmdb_rdf::Triple::new("mary", "likes", "toys")).unwrap();
        let got = run(&w, r#"FOR t IN TRIPLES("mary", NULL, NULL) RETURN t.p"#).unwrap();
        assert_eq!(got, vec![Value::str("likes")]);
        // XML.
        w.register_xml(
            "catalog",
            mmdb_xml::parse_xml(r#"<catalog><product no="1"><name>Toy</name></product></catalog>"#)
                .unwrap(),
        );
        let got = run(&w, r#"RETURN XPATH("catalog", "/catalog/product/name")"#).unwrap();
        assert_eq!(got, vec![Value::array([Value::str("Toy")])]);
        // Fulltext.
        let c = w.create_collection("reviews").unwrap();
        c.insert_json(r#"{"_key":"r1","text":"great wooden toy"}"#).unwrap();
        c.insert_json(r#"{"_key":"r2","text":"awful book"}"#).unwrap();
        w.create_fulltext_index("review_text", "reviews", "text").unwrap();
        let got = run(&w, r#"FOR r IN FULLTEXT("review_text", "toy") RETURN r._key"#).unwrap();
        assert_eq!(got, vec![Value::str("r1")]);
        // Graph helper functions.
        let got = run(
            &w,
            r#"RETURN SHORTEST_PATH("persons/3", "persons/2", "knows").cost"#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::float(2.0)]);
        let got = run(&w, r#"RETURN NEIGHBORS("persons/1", "knows", "ANY")"#).unwrap();
        assert_eq!(
            got,
            vec![Value::array([Value::str("persons/2"), Value::str("persons/3")])]
        );
    }

    #[test]
    fn spatial_functions() {
        let w = World::in_memory();
        w.create_spatial_index("shops").unwrap();
        for (x, y, name) in [(0.0, 0.0, "a"), (5.0, 5.0, "b"), (100.0, 100.0, "far")] {
            w.spatial_insert("shops", x, y, Value::str(name)).unwrap();
        }
        let got = run(&w, r#"RETURN GEO_WITHIN("shops", -1, -1, 10, 10)"#).unwrap();
        assert_eq!(got, vec![Value::array([Value::str("a"), Value::str("b")])]);
        let got = run(&w, r#"RETURN GEO_NEAREST("shops", 90, 90, 1)"#).unwrap();
        assert_eq!(got, vec![Value::array([Value::str("far")])]);
        assert!(run(&w, r#"RETURN GEO_WITHIN("nope", 0, 0, 1, 1)"#).is_err());
        assert!(w.create_spatial_index("shops").is_err());
    }

    #[test]
    fn kv_bucket_iteration() {
        let w = paper_world();
        let got = run(&w, "FOR e IN cart SORT e._key RETURN e.value").unwrap();
        assert_eq!(got, vec![Value::str("34e5e759"), Value::str("0c6df508")]);
    }

    #[test]
    fn spread_in_return_like_the_paper() {
        let w = paper_world();
        let got = run(
            &w,
            r#"LET order = DOC("orders", "0c6df508") RETURN order.orderlines[*].product_no"#,
        )
        .unwrap();
        assert_eq!(
            got,
            vec![Value::array([Value::str("2724f"), Value::str("3424g")])]
        );
    }

    /// Customers 1..=3 (table) and orders for customers 1 and 2 only.
    fn q4_world() -> World {
        let w = paper_world();
        let orders = w.create_collection("purchases").unwrap();
        for (key, cid, total) in [("a", 1, 10), ("b", 2, 5), ("c", 1, 7)] {
            orders
                .insert_json(&format!(r#"{{"_key":"{key}","customer_id":{cid},"total":{total}}}"#))
                .unwrap();
        }
        w
    }

    const Q4: &str = "FOR c IN customers \
        LET total = SUM((FOR o IN purchases FILTER o.customer_id == c.id RETURN o.total)) \
        RETURN [c.id, total]";

    fn full_scans(w: &World, text: &str) -> (Result<Vec<Value>>, u64) {
        let before = w.access.full_scans();
        let got = run(w, text);
        (got, w.access.full_scans() - before)
    }

    fn probe_tables_open() -> bool {
        PROBE_TABLES.with(|t| t.borrow().is_some())
    }

    #[test]
    fn q4_shape_scans_each_store_once() {
        let w = q4_world();
        let (got, scans) = full_scans(&w, Q4);
        assert_eq!(
            got.unwrap(),
            vec![
                Value::array([Value::int(1), Value::int(17)]),
                Value::array([Value::int(2), Value::int(5)]),
                Value::array([Value::int(3), Value::int(0)]),
            ]
        );
        assert_eq!(scans, 2, "customers once, purchases once — not once per customer");
        assert!(!probe_tables_open(), "the table dies with the execution");
    }

    #[test]
    fn zero_outer_rows_build_nothing() {
        let w = q4_world();
        let (got, scans) = full_scans(
            &w,
            "FOR c IN [] FOR o IN purchases FILTER o.customer_id == c.id RETURN o",
        );
        assert!(got.unwrap().is_empty());
        assert_eq!(scans, 0);
        let (got, scans) = full_scans(
            &w,
            "FOR c IN customers FILTER c.id > 99 \
             LET t = (FOR o IN purchases FILTER o.customer_id == c.id RETURN o) RETURN t",
        );
        assert!(got.unwrap().is_empty());
        assert_eq!(scans, 1, "only the customers scan");
    }

    #[test]
    fn a_commit_between_executions_is_seen_by_the_next() {
        let w = q4_world();
        let q = "FOR c IN customers FOR o IN purchases FILTER o.customer_id == c.id RETURN o._key";
        assert_eq!(run(&w, q).unwrap(), vec![Value::str("a"), Value::str("c"), Value::str("b")]);
        w.collection("purchases")
            .unwrap()
            .insert_json(r#"{"_key":"d","customer_id":3,"total":1}"#)
            .unwrap();
        assert_eq!(
            run(&w, q).unwrap(),
            vec![Value::str("a"), Value::str("c"), Value::str("b"), Value::str("d")]
        );
    }

    #[test]
    fn an_error_mid_query_leaves_no_table_behind() {
        let w = q4_world();
        // The residual divides by zero on the first match, after the build.
        let err = run(
            &w,
            "FOR c IN customers FOR o IN purchases FILTER o.customer_id == c.id && o.total / 0 > 1 RETURN o",
        )
        .unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
        assert!(!probe_tables_open());
        // A cancelled query drops its table too.
        let token = mmdb_types::CancelToken::new();
        token.cancel();
        assert!(crate::run_with(&w, Q4, &token).is_err());
        assert!(!probe_tables_open());
        // The next query on this thread builds afresh and sees new rows.
        w.collection("purchases")
            .unwrap()
            .insert_json(r#"{"_key":"d","customer_id":3,"total":1}"#)
            .unwrap();
        let got = run(&w, Q4).unwrap();
        assert_eq!(got[2], Value::array([Value::int(3), Value::int(1)]));
    }

    #[test]
    fn an_empty_store_never_evaluates_the_probe_key() {
        let w = q4_world();
        w.create_collection("nothing").unwrap();
        // `c.id / 0` would fail, but the naive filter never runs it.
        let got = run(&w, "FOR c IN customers FOR o IN nothing FILTER o.x == c.id / 0 RETURN o").unwrap();
        assert!(got.is_empty());
        assert!(run(&w, "FOR c IN customers FOR o IN purchases FILTER o.x == c.id / 0 RETURN o").is_err());
    }

    #[test]
    fn a_variable_shadowing_the_store_falls_back_to_the_naive_pair() {
        let w = q4_world();
        let q = "LET purchases = [{customer_id: 2, total: 100}] \
                 FOR c IN customers FOR o IN purchases FILTER o.customer_id == c.id RETURN o.total";
        let plan = crate::optimize::optimize(build_plan(&crate::parse_query(q).unwrap()).unwrap(), &w);
        assert!(plan.explain().contains("HashProbe"), "{}", plan.explain());
        let (got, scans) = full_scans(&w, q);
        assert_eq!(got.unwrap(), vec![Value::int(100)]);
        assert_eq!(scans, 1, "the LET, not the store");
        let (_, stats) = crate::run_traced(&w, q, &mmdb_types::CancelToken::none()).unwrap();
        assert!(stats.access_paths().contains(&"bound variable 'purchases'"), "{:?}", stats.access_paths());
    }

    #[test]
    fn a_variable_shadowing_an_indexed_store_is_what_index_scan_reads() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        for i in 6..10 {
            c.insert_json(&format!(r#"{{"_key":"p{i}","price":{i}}}"#)).unwrap();
        }
        let q = "LET products = [{price: 100}, {price: 1}] FOR p IN products FILTER p.price > 5 RETURN p.price";
        assert_eq!(run(&w, q).unwrap(), vec![Value::int(100)]);
        c.create_persistent_index("price").unwrap();
        let plan = crate::optimize::optimize(build_plan(&crate::parse_query(q).unwrap()).unwrap(), &w);
        assert!(plan.explain().contains("IndexScan"), "{}", plan.explain());
        assert_eq!(run(&w, q).unwrap(), vec![Value::int(100)], "the LET shadows the store");
        let (_, stats) = crate::run_traced(&w, q, &mmdb_types::CancelToken::none()).unwrap();
        assert!(stats.access_paths().contains(&"bound variable 'products'"), "{:?}", stats.access_paths());
    }

    #[test]
    fn explain_analyze_names_the_hash_probe_once_per_query() {
        let w = q4_world();
        let (_, stats) = crate::run_traced(&w, Q4, &mmdb_types::CancelToken::none()).unwrap();
        let probe: Vec<&crate::stats::OpStats> =
            stats.ops.iter().filter(|o| o.op.contains("HashProbe o IN purchases ON customer_id")).collect();
        assert_eq!(probe.len(), 1, "{}", stats.render());
        assert_eq!(probe[0].rows_in, 3, "one probe per customer");
        assert_eq!(
            probe[0].access_path.as_deref(),
            Some("hash on 'customer_id' over document-collection 'purchases' (built once per query)")
        );
    }
}
