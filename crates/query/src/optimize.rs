//! The rule-based optimizer.
//!
//! Rules, in order:
//!
//! 1. **Constant folding** — literal subexpressions collapse
//!    (`2 * 3 > 5` → `true`).
//! 2. **Filter merging** — adjacent FILTERs conjoin, so later rules see
//!    one predicate.
//! 3. **Index selection** — a `For` over a named source immediately
//!    followed by a `Filter` whose conjuncts include `var.path op literal`
//!    becomes an `IndexScan` when the source has a matching persistent
//!    (document) or secondary (relational) index; leftover conjuncts stay
//!    as the scan's residual predicate. This is the tutorial's
//!    "query optimization = pick the right index" story in miniature.
//! 4. **Decorrelation into a hash probe** — where rule 3 finds no index,
//!    a `For` over a collection or table immediately followed by a
//!    `Filter` whose *first* conjunct is `var.path == e` (either way
//!    round), with `e` reading at least one other variable, never `var`,
//!    and no subquery, becomes a `HashProbe`. The executor scans the
//!    store once per query into a hash table on `var.path` and probes it
//!    with `e` per incoming row, so a correlated subquery such as
//!    `SUM((FOR o IN orders FILTER o.customer_id == c.id RETURN o.total))`
//!    or a store join (`FOR c IN customers FOR o IN orders FILTER
//!    o.customer_id == c.id`, and SQL `JOIN … ON`, which lowers to that)
//!    costs one scan instead of one per outer row. Keeping the key
//!    conjunct first means the residual runs on exactly the rows the
//!    naive `&&` short-circuit reaches, so answers and errors match.

use mmdb_types::Value;

use crate::ast::{BinOp, Expr};
use crate::eval::like_match;
use crate::plan::{Plan, PlanBound, PlanNode};
use crate::world::World;

/// Optimize a plan against a world (index metadata lookups only).
pub fn optimize(mut plan: Plan, world: &World) -> Plan {
    // 1. Constant folding everywhere.
    for node in &mut plan.nodes {
        match node {
            PlanNode::For { source, .. } => fold(source),
            PlanNode::Filter(e) => fold(e),
            PlanNode::Let { value, .. } => fold(value),
            PlanNode::Sort(keys) => keys.iter_mut().for_each(|(e, _)| fold(e)),
            PlanNode::Traverse { start, .. } => fold(start),
            _ => {}
        }
    }
    fold(&mut plan.ret);

    // 2. Merge adjacent filters. Both sides are moved, not cloned: the
    //    accumulated conjunction is taken out of the vec and rebuilt with
    //    the incoming predicate, so merging a chain of N filters is O(N)
    //    in total AST size instead of quadratic.
    let mut merged: Vec<PlanNode> = Vec::with_capacity(plan.nodes.len());
    for node in plan.nodes {
        if let PlanNode::Filter(b) = node {
            if let Some(PlanNode::Filter(a)) = merged.last_mut() {
                let lhs = std::mem::replace(a, Expr::Literal(Value::Null));
                *a = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(b));
            } else {
                merged.push(PlanNode::Filter(b));
            }
        } else {
            merged.push(node);
        }
    }

    // 3–4. Index selection, else decorrelation, on For+Filter pairs.
    let mut out: Vec<PlanNode> = Vec::with_capacity(merged.len());
    let mut iter = merged.into_iter().peekable();
    while let Some(node) = iter.next() {
        if let PlanNode::For { var, source: Expr::Var(name) } = &node {
            if let Some(PlanNode::Filter(pred)) = iter.peek() {
                let fused = try_index_scan(world, var, name, pred)
                    .or_else(|| try_hash_probe(world, var, name, pred));
                if let Some(fused) = fused {
                    iter.next(); // consume the filter
                    out.push(fused);
                    continue;
                }
            }
        }
        out.push(node);
    }
    plan.nodes = out;
    plan
}

/// A single extracted comparison `var.path op literal`.
struct PathCmp {
    path: String,
    op: BinOp,
    value: Value,
}

fn try_index_scan(world: &World, var: &str, source: &str, pred: &Expr) -> Option<PlanNode> {
    // The name must be a real store (not a bound variable at runtime) —
    // conservative: only document collections and tables are indexable,
    // and a bound variable shadowing a store name would change semantics,
    // so require the name to resolve.
    let indexed_paths: Vec<String> = if let Ok(coll) = world.collection(source) {
        coll.indexed_paths()
    } else if let Ok(table) = world.catalog.table(source) {
        table.indexed_columns()
    } else {
        return None;
    };
    if indexed_paths.is_empty() {
        return None;
    }
    let mut conjuncts = Vec::new();
    split_conjuncts(pred, &mut conjuncts);
    // Find the first conjunct whose path has an index.
    let mut chosen: Option<(usize, PathCmp)> = None;
    for (i, c) in conjuncts.iter().enumerate() {
        if let Some(pc) = extract_path_cmp(c, var) {
            if indexed_paths.contains(&pc.path) {
                chosen = Some((i, pc));
                break;
            }
        }
    }
    let (idx, pc) = chosen?;
    let cond = conjuncts[idx].clone();
    let (lo, hi) = match pc.op {
        BinOp::Eq => (PlanBound::Included(pc.value.clone()), PlanBound::Included(pc.value)),
        BinOp::Lt => (PlanBound::Unbounded, PlanBound::Excluded(pc.value)),
        BinOp::Le => (PlanBound::Unbounded, PlanBound::Included(pc.value)),
        BinOp::Gt => (PlanBound::Excluded(pc.value), PlanBound::Unbounded),
        BinOp::Ge => (PlanBound::Included(pc.value), PlanBound::Unbounded),
        _ => return None,
    };
    // Rebuild the residual from the remaining conjuncts.
    let rest = conjuncts.into_iter().enumerate().filter(|(i, _)| *i != idx).map(|(_, e)| e);
    let residual = conjoin(rest);
    Some(PlanNode::IndexScan {
        var: var.to_string(),
        source: source.to_string(),
        path: pc.path,
        lo,
        hi,
        cond,
        residual,
    })
}

fn try_hash_probe(world: &World, var: &str, source: &str, pred: &Expr) -> Option<PlanNode> {
    // Only stores scan_source reads as rows: collections and tables.
    if world.collection(source).is_err() && world.catalog.table(source).is_err() {
        return None;
    }
    let mut conjuncts = Vec::new();
    split_conjuncts(pred, &mut conjuncts);
    let Expr::Binary(BinOp::Eq, l, r) = *conjuncts.first()? else { return None };
    let is_path = |e: &Expr| path_of(e, var).is_some_and(|p| !p.is_empty());
    let (path, key) = if is_path(l) && is_correlated(r, var) {
        (l, r)
    } else if is_path(r) && is_correlated(l, var) {
        (r, l)
    } else {
        return None;
    };
    Some(PlanNode::HashProbe {
        var: var.to_string(),
        source: source.to_string(),
        path: (**path).clone(),
        key: (**key).clone(),
        residual: conjoin(conjuncts.into_iter().skip(1)),
    })
}

/// Does `e` read at least one variable, never `var`, and contain no
/// subquery? Then its value is the same for every row `var` ranges over.
fn is_correlated(e: &Expr, var: &str) -> bool {
    let mut vars = Vec::new();
    free_vars(e, &mut vars) && !vars.is_empty() && !vars.contains(&var)
}

/// Collect the variables `e` reads; `false` when it contains a subquery
/// (whose scoping this walk does not model).
fn free_vars<'e>(e: &'e Expr, out: &mut Vec<&'e str>) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Var(v) => {
            out.push(v);
            true
        }
        Expr::Subquery(_) => false,
        Expr::Field(b, _) | Expr::Spread(b) | Expr::Not(b) | Expr::Neg(b) => free_vars(b, out),
        Expr::Index(a, b) | Expr::Binary(_, a, b) => free_vars(a, out) && free_vars(b, out),
        Expr::Ternary(c, a, b) => free_vars(c, out) && free_vars(a, out) && free_vars(b, out),
        Expr::Call(_, items) | Expr::Array(items) => items.iter().all(|i| free_vars(i, out)),
        Expr::Object(fields) => fields.iter().all(|(_, v)| free_vars(v, out)),
    }
}

/// Left-deep `&&` of the conjuncts, in order; `None` when there are none.
fn conjoin<'e>(conjuncts: impl Iterator<Item = &'e Expr>) -> Option<Expr> {
    conjuncts.cloned().reduce(|a, b| Expr::Binary(BinOp::And, Box::new(a), Box::new(b)))
}

fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary(BinOp::And, a, b) = e {
        split_conjuncts(a, out);
        split_conjuncts(b, out);
    } else {
        out.push(e);
    }
}

/// Match `var.path op literal` (or reversed) where path is a chain of
/// field/constant-index accesses rooted at `var`.
fn extract_path_cmp(e: &Expr, var: &str) -> Option<PathCmp> {
    let Expr::Binary(op, l, r) = e else { return None };
    let (path_side, lit_side, op) = match (&**l, &**r) {
        (_, Expr::Literal(_)) => (l, r, *op),
        (Expr::Literal(_), _) => (r, l, flip(*op)?),
        _ => return None,
    };
    let Expr::Literal(value) = &**lit_side else { return None };
    let path = path_of(path_side, var)?;
    Some(PathCmp { path, op, value: value.clone() })
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// The dotted path of a field/constant-index chain rooted at `var`
/// (`""` for `var` itself), or `None` for any other expression.
pub(crate) fn path_of(e: &Expr, var: &str) -> Option<String> {
    match e {
        Expr::Var(v) if v == var => Some(String::new()),
        Expr::Field(base, name) => {
            let p = path_of(base, var)?;
            Some(if p.is_empty() { name.clone() } else { format!("{p}.{name}") })
        }
        Expr::Index(base, idx) => {
            let p = path_of(base, var)?;
            if let Expr::Literal(Value::Number(n)) = &**idx {
                n.as_i64().map(|i| format!("{p}[{i}]"))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Fold constant subexpressions in place.
pub fn fold(e: &mut Expr) {
    match e {
        Expr::Binary(op, l, r) => {
            fold(l);
            fold(r);
            if let (Expr::Literal(a), Expr::Literal(b)) = (&**l, &**r) {
                if let Some(v) = fold_binary(*op, a, b) {
                    *e = Expr::Literal(v);
                }
            }
        }
        Expr::Not(inner) => {
            fold(inner);
            if let Expr::Literal(v) = &**inner {
                *e = Expr::Literal(Value::Bool(!v.is_truthy()));
            }
        }
        Expr::Neg(inner) => {
            fold(inner);
            if let Expr::Literal(Value::Number(n)) = &**inner {
                // Preserve int-ness for integral inputs.
                let folded = match n.as_i64() {
                    Some(i) => Value::int(-i),
                    None => Value::float(-n.as_f64()),
                };
                *e = Expr::Literal(folded);
            }
        }
        Expr::Field(base, _) | Expr::Spread(base) => fold(base),
        Expr::Index(base, idx) => {
            fold(base);
            fold(idx);
        }
        Expr::Array(items) => items.iter_mut().for_each(fold),
        Expr::Object(fields) => fields.iter_mut().for_each(|(_, v)| fold(v)),
        Expr::Call(_, args) => args.iter_mut().for_each(fold),
        Expr::Ternary(c, a, b) => {
            fold(c);
            fold(a);
            fold(b);
            if let Expr::Literal(cv) = &**c {
                *e = if cv.is_truthy() { (**a).clone() } else { (**b).clone() };
            }
        }
        Expr::Literal(_) | Expr::Var(_) | Expr::Subquery(_) => {}
    }
}

fn fold_binary(op: BinOp, a: &Value, b: &Value) -> Option<Value> {
    Some(match op {
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::Le => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::Ge => Value::Bool(a >= b),
        BinOp::And => Value::Bool(a.is_truthy() && b.is_truthy()),
        BinOp::Or => Value::Bool(a.is_truthy() || b.is_truthy()),
        BinOp::In => match b {
            Value::Array(items) => Value::Bool(items.contains(a)),
            _ => Value::Bool(false),
        },
        BinOp::Like => match (a, b) {
            (Value::String(s), Value::String(p)) => Value::Bool(like_match(s, p)),
            _ => Value::Bool(false),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let (Value::Number(x), Value::Number(y)) = (a, b) else {
                // Leave string concat etc. to runtime.
                return None;
            };
            let (x, y) = (x.as_f64(), y.as_f64());
            let f = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return None; // keep the runtime error
                    }
                    x / y
                }
                BinOp::Mod => {
                    if y == 0.0 {
                        return None;
                    }
                    x % y
                }
                _ => unreachable!(), // lint: allow(panic, folding is only attempted for the arithmetic BinOps matched above)
            };
            if f.fract() == 0.0
                && f.abs() < 9.0e18
                && matches!((a, b), (Value::Number(p), Value::Number(q)) if p.is_int() && q.is_int())
            {
                Value::int(f as i64)
            } else {
                Value::float(f)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_query};
    use crate::plan::build_plan;

    #[test]
    fn constant_folding() {
        let mut e = parse_expr("1 + 2 * 3").unwrap();
        fold(&mut e);
        assert_eq!(e, Expr::Literal(Value::int(7)));
        let mut e = parse_expr("2 > 1 && false").unwrap();
        fold(&mut e);
        assert_eq!(e, Expr::Literal(Value::Bool(false)));
        let mut e = parse_expr("true ? x : y").unwrap();
        fold(&mut e);
        assert_eq!(e, Expr::Var("x".into()));
        // Division by zero is left for runtime.
        let mut e = parse_expr("1 / 0").unwrap();
        fold(&mut e);
        assert!(matches!(e, Expr::Binary(..)));
    }

    #[test]
    fn index_selection_rewrites_for_filter() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        for i in 0..10 {
            c.insert_json(&format!(r#"{{"_key":"p{i}","price":{i}}}"#)).unwrap();
        }
        c.create_persistent_index("price").unwrap();
        let q = parse_query("FOR p IN products FILTER p.price > 5 && p.price < 8 RETURN p").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 1);
        match &plan.nodes[0] {
            PlanNode::IndexScan { path, lo, hi, residual, .. } => {
                assert_eq!(path, "price");
                assert_eq!(lo, &PlanBound::Excluded(Value::int(5)));
                assert_eq!(hi, &PlanBound::Unbounded);
                assert!(residual.is_some(), "the < 8 conjunct survives as residual");
            }
            other => panic!("expected IndexScan, got {other:?}"),
        }
    }

    #[test]
    fn no_index_no_rewrite() {
        let w = World::in_memory();
        w.create_collection("products").unwrap();
        let q = parse_query("FOR p IN products FILTER p.price > 5 RETURN p").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 2);
        assert!(matches!(plan.nodes[0], PlanNode::For { .. }));
    }

    #[test]
    fn reversed_literal_comparisons_flip() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        c.insert_json(r#"{"_key":"a","price":5}"#).unwrap();
        c.create_persistent_index("price").unwrap();
        let q = parse_query("FOR p IN products FILTER 5 <= p.price RETURN p").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        match &plan.nodes[0] {
            PlanNode::IndexScan { lo, .. } => {
                assert_eq!(lo, &PlanBound::Included(Value::int(5)));
            }
            other => panic!("expected IndexScan, got {other:?}"),
        }
    }

    #[test]
    fn long_filter_chains_merge_linearly_and_keep_semantics() {
        // Regression: merging used to clone both the accumulated
        // conjunction and the incoming filter per step, making long
        // FILTER chains quadratic in AST size. The rebuild must keep
        // every conjunct exactly once and preserve results. The merged
        // predicate is a left-deep tree, so recursive evaluation needs
        // more than the default test-thread stack.
        std::thread::Builder::new()
            .stack_size(32 * 1024 * 1024)
            .spawn(long_filter_chain_body)
            .unwrap()
            .join()
            .unwrap();
    }

    fn long_filter_chain_body() {
        let w = World::in_memory();
        let n = 500;
        let mut text = String::from("FOR x IN [1,2,3]");
        for i in 0..n {
            text.push_str(&format!(" FILTER x != {}", i + 10));
        }
        text.push_str(" RETURN x");
        let q = parse_query(&text).unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 2, "all filters fold into one");
        let PlanNode::Filter(pred) = &plan.nodes[1] else {
            panic!("expected a merged Filter, got {:?}", plan.nodes[1]);
        };
        fn count_conjuncts(e: &Expr) -> usize {
            match e {
                Expr::Binary(BinOp::And, a, b) => count_conjuncts(a) + count_conjuncts(b),
                _ => 1,
            }
        }
        assert_eq!(count_conjuncts(pred), n, "no conjunct lost or duplicated");
        let got = crate::run(&w, &text).unwrap();
        assert_eq!(got, vec![Value::int(1), Value::int(2), Value::int(3)]);
    }

    #[test]
    fn adjacent_filters_merge() {
        let w = World::in_memory();
        let q = parse_query("FOR x IN [1,2,3] FILTER x > 1 FILTER x < 3 RETURN x").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 2, "two filters fold into one");
    }

    #[test]
    fn relational_index_also_selected() {
        use mmdb_relational::{ColumnDef, DataType, Schema};
        let w = World::in_memory();
        let t = w
            .catalog
            .create_table(
                "customers",
                Schema::new(
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("credit_limit", DataType::Int),
                    ],
                    "id",
                )
                .unwrap(),
            )
            .unwrap();
        t.create_index("credit_limit").unwrap();
        let q = parse_query("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert!(matches!(&plan.nodes[0], PlanNode::IndexScan { source, .. } if source == "customers"));
    }

    fn orders_world() -> World {
        let w = World::in_memory();
        let c = w.create_collection("orders").unwrap();
        c.insert_json(r#"{"_key":"o1","customer_id":1,"total":5}"#).unwrap();
        w.kv.create_bucket("cart").unwrap();
        w
    }

    fn plan_for(w: &World, text: &str) -> Plan {
        optimize(build_plan(&parse_query(text).unwrap()).unwrap(), w)
    }

    #[test]
    fn correlated_equality_becomes_a_hash_probe() {
        let w = orders_world();
        for text in [
            "FOR c IN [1] FOR o IN orders FILTER o.customer_id == c.id && o.total > 1 RETURN o",
            "FOR c IN [1] FOR o IN orders FILTER c.id == o.customer_id && o.total > 1 RETURN o",
        ] {
            let plan = plan_for(&w, text);
            assert_eq!(plan.nodes.len(), 2, "{}", plan.explain());
            match &plan.nodes[1] {
                PlanNode::HashProbe { var, source, path, key, residual } => {
                    assert_eq!((var.as_str(), source.as_str()), ("o", "orders"));
                    assert_eq!(path, &Expr::var("o").field("customer_id"));
                    assert_eq!(key, &Expr::var("c").field("id"));
                    assert!(residual.is_some(), "the total conjunct stays as residual");
                }
                other => panic!("expected HashProbe, got {other:?}"),
            }
            assert!(plan.explain().contains("HashProbe o IN orders ON customer_id residual=true"));
        }
    }

    #[test]
    fn the_hash_probe_needs_the_exact_pattern() {
        let w = orders_world();
        for text in [
            // The key conjunct is not first.
            "FOR c IN [1] FOR o IN orders FILTER o.total > 1 && o.customer_id == c.id RETURN o",
            // The key reads the loop variable.
            "FOR o IN orders FILTER o.customer_id == o.total RETURN o",
            // The key reads no variable.
            "FOR o IN orders FILTER o.customer_id == 1 RETURN o",
            // The key holds a subquery.
            "FOR c IN [1] FOR o IN orders FILTER o.customer_id == LENGTH((FOR x IN [c] RETURN x)) RETURN o",
            // Not an equality.
            "FOR c IN [1] FOR o IN orders FILTER o.customer_id >= c.id RETURN o",
            // The whole row, not a path of it.
            "FOR c IN [1] FOR o IN orders FILTER o == c RETURN o",
            // Not a collection or table.
            "FOR c IN [1] FOR e IN cart FILTER e._key == c RETURN e",
            "FOR c IN [1] FOR x IN nosuchstore FILTER x.a == c RETURN x",
        ] {
            let plan = plan_for(&w, text);
            assert!(!plan.explain().contains("HashProbe"), "{text}\n{}", plan.explain());
        }
    }

    #[test]
    fn a_literal_bound_index_scan_keeps_priority() {
        let w = orders_world();
        w.collection("orders").unwrap().create_persistent_index("total").unwrap();
        let plan = plan_for(&w, "FOR c IN [1] FOR o IN orders FILTER o.customer_id == c.id && o.total == 5 RETURN o");
        assert!(matches!(&plan.nodes[1], PlanNode::IndexScan { path, .. } if path == "total"), "{}", plan.explain());
    }
}
