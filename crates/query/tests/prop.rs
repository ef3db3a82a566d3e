//! Property tests for MMQL: language semantics against reference
//! computations in plain Rust.

use std::borrow::Cow;

use proptest::prelude::*;

use mmdb_query::ast::{BinOp, Expr};
use mmdb_query::eval::{eval_expr, eval_ref};
use mmdb_query::exec::{execute_plan, Env};
use mmdb_query::optimize::optimize;
use mmdb_query::plan::{build_plan, Plan};
use mmdb_query::{parse_query, run, run_sql, World};
use mmdb_types::Value;

fn world_with(values: &[i64]) -> World {
    let w = World::in_memory();
    let c = w.create_collection("nums").unwrap();
    for (i, v) in values.iter().enumerate() {
        c.insert(Value::object([
            ("_key", Value::str(format!("k{i:04}"))),
            ("v", Value::int(*v)),
        ]))
        .unwrap();
    }
    w
}

/// Join-key values that stress hash/`==` agreement: ints, an integral
/// float equal to an int, a non-integral float, strings (one spelling an
/// int), `null`, and — as `None` — a missing field.
fn join_key(choice: usize) -> Option<Value> {
    match choice {
        0 => Some(Value::int(1)),
        1 => Some(Value::int(2)),
        2 => Some(Value::float(1.0)),
        3 => Some(Value::float(2.5)),
        4 => Some(Value::str("1")),
        5 => Some(Value::str("a")),
        6 => Some(Value::Null),
        _ => None,
    }
}

/// `cs` (customers keyed by `id`) and `orders` (`cid`, `amt`), each doc
/// in the order given.
fn join_world(customers: &[usize], orders: &[(usize, i64)]) -> World {
    let w = World::in_memory();
    let cs = w.create_collection("cs").unwrap();
    for (i, k) in customers.iter().enumerate() {
        let mut fields = vec![("_key".to_string(), Value::str(format!("c{i:03}")))];
        fields.extend(join_key(*k).map(|v| ("id".to_string(), v)));
        cs.insert(Value::object(fields)).unwrap();
    }
    let os = w.create_collection("orders").unwrap();
    for (i, (k, amt)) in orders.iter().enumerate() {
        let mut fields = vec![
            ("_key".to_string(), Value::str(format!("o{i:03}"))),
            ("amt".to_string(), Value::int(*amt)),
        ];
        fields.extend(join_key(*k).map(|v| ("cid".to_string(), v)));
        os.insert(Value::object(fields)).unwrap();
    }
    w
}

fn has_hash_probe(plan: &Plan) -> bool {
    plan.explain().contains("HashProbe")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hash probe answers exactly as the naive nested loop: a
    /// correlated subquery (against a plain-Rust reference, since the
    /// executor optimizes subqueries as it meets them), a top-level join
    /// written key-first, and a SQL `JOIN … ON` (each against its
    /// unoptimized plan).
    #[test]
    fn hash_probe_equals_the_naive_plan(
        customers in prop::collection::vec(0usize..8, 0..6),
        orders in prop::collection::vec((0usize..8, 0i64..5), 0..12),
        t in 0i64..5,
    ) {
        let w = join_world(&customers, &orders);

        let text = format!(
            "FOR c IN cs LET t = (FOR o IN orders FILTER o.cid == c.id && o.amt > {t} RETURN o._key) \
             RETURN [c._key, t]"
        );
        let want: Vec<Value> = w.scan_source("cs").unwrap().iter().map(|c| {
            let hits = w.scan_source("orders").unwrap().into_iter()
                .filter(|o| o.get_field("cid") == c.get_field("id") && o.get_field("amt") > &Value::int(t))
                .map(|o| o.get_field("_key").clone());
            Value::array([c.get_field("_key").clone(), Value::Array(hits.collect())])
        }).collect();
        prop_assert_eq!(run(&w, &text).unwrap(), want);

        let join = parse_query(
            "FOR c IN cs FOR o IN orders FILTER c.id == o.cid && o.amt != 3 RETURN [c._key, o._key]",
        ).unwrap();
        let naive = build_plan(&join).unwrap();
        let fused = optimize(naive.clone(), &w);
        prop_assert!(has_hash_probe(&fused), "{}", fused.explain());
        prop_assert_eq!(execute_plan(&w, &fused).unwrap(), execute_plan(&w, &naive).unwrap());

        let sql = "SELECT c._key AS c, o._key AS o, o.amt AS amt FROM cs c JOIN orders o ON o.cid = c.id";
        let naive = build_plan(&mmdb_query::sql::parse_sql(sql).unwrap()).unwrap();
        prop_assert!(has_hash_probe(&optimize(naive.clone(), &w)));
        prop_assert_eq!(run_sql(&w, sql).unwrap(), execute_plan(&w, &naive).unwrap());
    }

    /// FILTER over a collection equals Rust's filter.
    #[test]
    fn filter_matches_reference(values in prop::collection::vec(-100i64..100, 0..50), t in -100i64..100) {
        let w = world_with(&values);
        let got = run(&w, &format!("FOR n IN nums FILTER n.v > {t} SORT n._key RETURN n.v")).unwrap();
        let want: Vec<Value> = values.iter().filter(|v| **v > t).map(|v| Value::int(*v)).collect();
        prop_assert_eq!(got, want);
    }

    /// SORT + LIMIT equals Rust's sort + slice (stable w.r.t. ties by the
    /// secondary key).
    #[test]
    fn sort_limit_matches_reference(
        values in prop::collection::vec(-50i64..50, 0..60),
        offset in 0usize..10,
        count in 0usize..20,
    ) {
        let w = world_with(&values);
        let got = run(&w, &format!(
            "FOR n IN nums SORT n.v DESC, n._key LIMIT {offset}, {count} RETURN n.v"
        )).unwrap();
        let mut decorated: Vec<(i64, usize)> = values.iter().copied().zip(0..).collect();
        decorated.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let want: Vec<Value> = decorated
            .into_iter()
            .skip(offset)
            .take(count)
            .map(|(v, _)| Value::int(v))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// RETURN DISTINCT deduplicates preserving first occurrence.
    #[test]
    fn distinct_matches_reference(values in prop::collection::vec(-10i64..10, 0..50)) {
        let w = World::in_memory();
        let list = values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",");
        let got = run(&w, &format!("FOR x IN [{list}] RETURN DISTINCT x")).unwrap();
        let mut seen = Vec::new();
        for v in &values {
            if !seen.contains(v) {
                seen.push(*v);
            }
        }
        let want: Vec<Value> = seen.into_iter().map(Value::int).collect();
        prop_assert_eq!(got, want);
    }

    /// COLLECT COUNT over groups equals a reference histogram.
    #[test]
    fn collect_count_matches_reference(values in prop::collection::vec(0i64..5, 1..60)) {
        let w = world_with(&values);
        let got = run(&w,
            "FOR n IN nums COLLECT g = n.v AGGREGATE c = COUNT() SORT g RETURN [g, c]"
        ).unwrap();
        let mut hist = std::collections::BTreeMap::new();
        for v in &values {
            *hist.entry(*v).or_insert(0i64) += 1;
        }
        let want: Vec<Value> = hist
            .into_iter()
            .map(|(g, c)| Value::array([Value::int(g), Value::int(c)]))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Arithmetic in RETURN equals Rust arithmetic (integer domain,
    /// division excluded to dodge divide-by-zero).
    #[test]
    fn arithmetic_matches_reference(a in -1000i64..1000, b in -1000i64..1000) {
        let w = World::in_memory();
        let got = run(&w, &format!("RETURN [{a} + {b}, {a} - {b}, {a} * {b}]")).unwrap();
        prop_assert_eq!(
            got,
            vec![Value::array([
                Value::int(a + b),
                Value::int(a - b),
                Value::int(a * b)
            ])]
        );
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(text in "\\PC{0,80}") {
        let _ = parse_query(&text);
    }

    /// Queries that parse either run or fail cleanly — never panic.
    #[test]
    fn fuzzed_small_queries_never_panic(
        field in "[a-c]{1}",
        op in prop::sample::select(vec![">", "<", "==", "!=", ">=", "<="]),
        k in -5i64..5,
    ) {
        let w = world_with(&[1, 2, 3]);
        let q = format!("FOR n IN nums FILTER n.{field} {op} {k} RETURN n.{field}");
        let _ = run(&w, &q);
    }
}

/// Field names of generated documents.
const KEYS: [&str; 2] = ["a", "b"];

/// Field names of generated `.field` and `["field"]` accesses: `x` is
/// always missing.
const ACCESS_KEYS: [&str; 3] = ["a", "b", "x"];

fn leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Bool(true)),
        (-3i64..4).prop_map(Value::int),
        prop::sample::select(vec![1.0, 2.5, -1.0]).prop_map(Value::float),
        prop::sample::select(vec!["a", "b", "x", ""]).prop_map(Value::str),
    ]
}

/// Random nested values: arrays and objects over scalar leaves.
fn nested() -> impl Strategy<Value = Value> {
    leaf_value().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            object_of(inner),
        ]
    })
}

fn object_of(field: impl Strategy<Value = Value>) -> impl Strategy<Value = Value> {
    prop::collection::vec((prop::sample::select(KEYS.to_vec()), field), 0..3).prop_map(Value::object)
}

/// Random documents: objects whose fields hold nested values.
fn document() -> impl Strategy<Value = Value> {
    object_of(nested())
}

/// A navigation chain from `doc`: fields, small indexes and `[*]`.
fn path_from_doc() -> impl Strategy<Value = Expr> {
    let step = (0usize..4, prop::sample::select(ACCESS_KEYS.to_vec()), -3i64..3);
    prop::collection::vec(step, 1..5).prop_map(|steps| {
        steps.into_iter().fold(Expr::var("doc"), |base, (kind, key, i)| match kind {
            0 | 1 => Expr::Field(Box::new(base), key.to_string()),
            2 => Expr::Index(Box::new(base), Box::new(Expr::lit(Value::int(i)))),
            _ => Expr::Spread(Box::new(base)),
        })
    })
}

/// Expressions over `doc` (a document), `n` (an int) and an unbound
/// name: field access, `[*]` expansion, integer (negative, out of range)
/// and string indexes, comparisons, `IN`, and the boolean operators.
fn expression() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::var("doc")),
        path_from_doc(),
        path_from_doc(),
        path_from_doc(),
        Just(Expr::var("n")),
        Just(Expr::var("unbound")),
        leaf_value().prop_map(Expr::Literal),
    ];
    leaf.prop_recursive(5, 32, 3, |inner| {
        let key = || prop::sample::select(ACCESS_KEYS.to_vec());
        let index = prop_oneof![
            (-5i64..5).prop_map(|i| Expr::lit(Value::int(i))),
            key().prop_map(|k| Expr::lit(Value::str(k))),
            inner.clone(),
        ];
        let ops = vec![
            BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge,
            BinOp::In, BinOp::And, BinOp::Or,
        ];
        prop_oneof![
            (inner.clone(), key()).prop_map(|(b, k)| Expr::Field(Box::new(b), k.to_string())),
            (inner.clone(), key()).prop_map(|(b, k)| Expr::Field(Box::new(b), k.to_string())),
            (inner.clone(), index).prop_map(|(b, i)| Expr::Index(Box::new(b), Box::new(i))),
            inner.clone().prop_map(|b| Expr::Spread(Box::new(b))),
            (prop::sample::select(ops), inner.clone(), inner.clone())
                .prop_map(|(op, l, r)| Expr::Binary(op, Box::new(l), Box::new(r))),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

/// The deep-copy reference evaluator: every sub-expression yields an
/// owned copy, and fields and elements are projected out of that copy.
/// `None` is an evaluation error.
fn reference(bindings: &[(&str, Value)], e: &Expr) -> Option<Value> {
    fn field(base: &Value, name: &str) -> Value {
        match base {
            Value::Array(items) => Value::Array(items.iter().map(|i| field(i, name)).collect()),
            other => other.get_field(name).clone(),
        }
    }
    Some(match e {
        Expr::Literal(v) => v.clone(),
        Expr::Var(name) => bindings.iter().find(|(n, _)| n == name)?.1.clone(),
        Expr::Field(base, name) => field(&reference(bindings, base)?, name),
        Expr::Index(base, idx) => {
            let b = reference(bindings, base)?;
            match reference(bindings, idx)? {
                Value::Number(n) => b.get_index(n.as_i64()?).clone(),
                Value::String(s) => b.get_field(&s).clone(),
                _ => return None,
            }
        }
        Expr::Spread(base) => match reference(bindings, base)? {
            Value::Array(items) => Value::Array(items),
            _ => Value::Array(Vec::new()),
        },
        Expr::Not(e) => Value::Bool(!reference(bindings, e)?.is_truthy()),
        Expr::Binary(BinOp::And, l, r) => Value::Bool(
            reference(bindings, l)?.is_truthy() && reference(bindings, r)?.is_truthy(),
        ),
        Expr::Binary(BinOp::Or, l, r) => Value::Bool(
            reference(bindings, l)?.is_truthy() || reference(bindings, r)?.is_truthy(),
        ),
        Expr::Binary(op, l, r) => {
            let (l, r) = (reference(bindings, l)?, reference(bindings, r)?);
            Value::Bool(match op {
                BinOp::Eq => l == r,
                BinOp::Ne => l != r,
                BinOp::Lt => l < r,
                BinOp::Le => l <= r,
                BinOp::Gt => l > r,
                BinOp::Ge => l >= r,
                BinOp::In => matches!(&r, Value::Array(items) if items.contains(&l)),
                _ => unreachable!("the generator emits comparisons and booleans only"),
            })
        }
        _ => unreachable!("the generator emits no other expression kinds"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `eval_expr` (which borrows through `eval_ref`) returns exactly what
    /// clone-then-project evaluation returns, errors included; compared
    /// by `Debug` so that int vs float and key order must match too.
    #[test]
    fn borrowing_evaluator_equals_deep_copy_reference(
        doc in document(),
        n in -3i64..4,
        e in expression(),
    ) {
        let w = World::in_memory();
        let mut env = Env::new();
        env.insert("doc".to_string(), doc.clone());
        env.insert("n".to_string(), Value::int(n));
        let want = format!("{:?}", reference(&[("doc", doc), ("n", Value::int(n))], &e));
        prop_assert_eq!(format!("{:?}", eval_expr(&w, &env, &e).ok()), want.clone(), "{:?}", e);
        prop_assert_eq!(format!("{:?}", eval_ref(&w, &env, &e).ok().map(Cow::into_owned)), want);
    }
}

/// The paper's world (slide 27), with a third person's cart so that Q5's
/// two-hop circle reaches two orders sharing a product.
fn paper_world() -> World {
    use mmdb_relational::{ColumnDef, DataType, Schema};
    let w = World::in_memory();
    let columns = vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("name", DataType::Text),
        ColumnDef::new("credit_limit", DataType::Int),
    ];
    let t = w.catalog.create_table("customers", Schema::new(columns, "id").unwrap()).unwrap();
    for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
        t.insert(vec![Value::int(id), Value::str(name), Value::int(limit)]).unwrap();
    }
    let g = w.create_graph("social").unwrap();
    g.create_vertex_collection("persons").unwrap();
    g.create_edge_collection("knows").unwrap();
    for id in 1..=3 {
        g.add_vertex("persons", Value::object([("_key", Value::str(id.to_string()))])).unwrap();
    }
    let no_props = || Value::object(Vec::<(String, Value)>::new());
    g.add_edge("knows", "persons/1", "persons/2", no_props()).unwrap();
    g.add_edge("knows", "persons/3", "persons/1", no_props()).unwrap();
    w.kv.create_bucket("cart").unwrap();
    w.kv.put("cart", "1", Value::str("34e5e759")).unwrap();
    w.kv.put("cart", "2", Value::str("0c6df508")).unwrap();
    w.kv.put("cart", "3", Value::str("77a1c2d4")).unwrap();
    let orders = w.create_collection("orders").unwrap();
    for doc in [
        r#"{"_key":"0c6df508","orderlines":[
            {"product_no":"2724f","product_name":"Toy","price":66},
            {"product_no":"3424g","product_name":"Book","price":40}]}"#,
        r#"{"_key":"34e5e759","orderlines":[{"product_no":"9999x","price":5}]}"#,
        r#"{"_key":"77a1c2d4","orderlines":[
            {"product_no":"3424g","price":40},{"product_no":"5120k","price":8},
            {"product_no":"3424g","price":40}]}"#,
    ] {
        orders.insert_json(doc).unwrap();
    }
    w
}

fn strings(rows: Vec<Value>) -> Vec<String> {
    rows.iter().map(|v| v.as_str().unwrap().to_string()).collect()
}

/// Q2 and Q5, in the benchmark's text, return the rows they always have
/// on the paper's world, in order.
#[test]
fn q2_and_q5_return_the_paper_rows() {
    let w = paper_world();
    let q2 = r#"
        FOR c IN customers
          FILTER c.credit_limit > 3000
          FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
            LET order = DOC("orders", KV_GET("cart", friend._key))
            FILTER order != NULL
            FOR line IN order.orderlines
              RETURN DISTINCT line.product_no"#;
    assert_eq!(strings(run(&w, q2).unwrap()), ["2724f", "3424g"]);
    let q5 = r#"
        FOR friend IN 1..2 ANY "persons/1" knows
          LET order = DOC("orders", KV_GET("cart", friend._key))
          FILTER order != NULL
          FOR line IN order.orderlines
            RETURN DISTINCT line.product_no"#;
    assert_eq!(strings(run(&w, q5).unwrap()), ["2724f", "3424g", "5120k"]);
    let from_anne = q5.replace("persons/1", "persons/3");
    assert_eq!(strings(run(&w, &from_anne).unwrap()), ["9999x", "2724f", "3424g"]);
}
