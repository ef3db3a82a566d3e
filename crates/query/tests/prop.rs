//! Property tests for MMQL: language semantics against reference
//! computations in plain Rust.

use proptest::prelude::*;

use mmdb_query::exec::execute_plan;
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
