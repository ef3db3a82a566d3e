//! Integration test: one WAL, all models — crash recovery of cross-model
//! transactions, torn-tail handling, and checkpoint behaviour.

use mmdb::{Database, Value};
use mmdb_txn::IsolationLevel;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mmdb-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn committed_cross_model_transactions_survive_reopen() {
    let dir = tmpdir("commit");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("orders").unwrap();
        db.create_bucket("cart").unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.insert_document(
                "orders",
                mmdb::from_json(r#"{"_key":"o1","total":66}"#).unwrap(),
            )?;
            s.kv_put("cart", "1", Value::str("o1"))
        })
        .unwrap();
        // A second, separate transaction.
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.insert_document("orders", mmdb::from_json(r#"{"_key":"o2","total":5}"#).unwrap())
                .map(|_| ())
        })
        .unwrap();
    } // drop = crash (no clean shutdown step exists, which is the point)
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(
            db.get_document("orders", "o1").unwrap().unwrap().get_field("total"),
            &Value::int(66)
        );
        assert!(db.get_document("orders", "o2").unwrap().is_some());
        assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1")));
        // The recovered state is queryable.
        let totals = db.query("FOR o IN orders SORT o.total RETURN o.total").unwrap();
        assert_eq!(totals, vec![Value::int(5), Value::int(66)]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncommitted_transactions_do_not_survive() {
    let dir = tmpdir("abort");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("orders").unwrap();
        let mut s = db.begin(IsolationLevel::Snapshot);
        s.insert_document("orders", mmdb::from_json(r#"{"_key":"ghost"}"#).unwrap()).unwrap();
        // Neither commit nor abort: the process "crashes" with the txn open.
        std::mem::forget(s);
    }
    {
        let db = Database::open(&dir).unwrap();
        // Nothing was committed, so recovery created no stores; DDL is the
        // application's job on open (see Session docs).
        db.create_collection("orders").unwrap();
        assert!(db.get_document("orders", "ghost").unwrap().is_none());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_tolerated() {
    let dir = tmpdir("torn");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("c").unwrap();
        db.insert_json("c", r#"{"_key":"good","v":1}"#).unwrap();
    }
    // Append garbage to simulate a torn final record.
    let wal_path = dir.join("mmdb.wal");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE]).unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        assert!(db.get_document("c", "good").unwrap().is_some(), "prefix recovered");
        // Open truncated the corrupt tail, so new appends extend the valid
        // prefix and survive the *next* recovery too.
        db.insert_json("c", r#"{"_key":"after","v":2}"#).unwrap();
        assert!(db.get_document("c", "after").unwrap().is_some());
    }
    {
        let db = Database::open(&dir).unwrap();
        assert!(db.get_document("c", "good").unwrap().is_some());
        assert!(
            db.get_document("c", "after").unwrap().is_some(),
            "appends after a truncated torn tail must survive recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graph_and_rdf_domains_recover() {
    let dir = tmpdir("graph-rdf");
    {
        let db = Database::open(&dir).unwrap();
        let g = db.create_graph("social").unwrap();
        g.create_vertex_collection("persons").unwrap();
        g.create_edge_collection("knows").unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex("social", "persons", mmdb::from_json(r#"{"_key":"1","name":"Mary"}"#).unwrap())?;
            s.add_vertex("social", "persons", mmdb::from_json(r#"{"_key":"2","name":"John"}"#).unwrap())?;
            s.add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json("{}").unwrap())?;
            s.rdf_insert("mary", "likes", Value::str("toys"))
        })
        .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        // Graphs are schemaless: recovery recreated them from the WAL.
        let friends = db
            .query(r#"FOR v IN 1..1 OUTBOUND "persons/1" knows RETURN v.name"#)
            .unwrap();
        assert_eq!(friends, vec![Value::str("John")]);
        let likes = db
            .query(r#"FOR t IN TRIPLES("mary", "likes", NULL) RETURN t.o"#)
            .unwrap();
        assert_eq!(likes, vec![Value::str("toys")]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn re_putting_an_edge_key_moves_the_edge_before_and_after_reopen() {
    let dir = tmpdir("edge-reput");
    let out_of = |db: &Database, v: &str| {
        db.query(&format!(r#"FOR f IN 1..1 OUTBOUND "persons/{v}" knows RETURN f._key"#)).unwrap()
    };
    let into = |db: &Database, v: &str| {
        db.query(&format!(r#"FOR f IN 1..1 INBOUND "persons/{v}" knows RETURN f._key"#)).unwrap()
    };
    {
        let db = Database::open(&dir).unwrap();
        let g = db.create_graph("social").unwrap();
        g.create_vertex_collection("persons").unwrap();
        g.create_edge_collection("knows").unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            for key in ["1", "2", "3"] {
                s.add_vertex("social", "persons", Value::object([("_key", Value::str(key))]))?;
            }
            s.add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json(r#"{"_key":"e1"}"#).unwrap())
                .map(|_| ())
        })
        .unwrap();
        assert_eq!(out_of(&db, "1"), vec![Value::str("2")]);
        // Same edge key, new `_to`: the put replaces the edge.
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_edge("social", "knows", "persons/1", "persons/3", mmdb::from_json(r#"{"_key":"e1","w":2}"#).unwrap())
                .map(|_| ())
        })
        .unwrap();
        assert_eq!(out_of(&db, "1"), vec![Value::str("3")]);
        assert!(into(&db, "2").is_empty(), "the old target keeps no stale in-edge");
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(out_of(&db, "1"), vec![Value::str("3")], "recovery replays the re-put as a move");
        assert!(into(&db, "2").is_empty());
        assert_eq!(into(&db, "3"), vec![Value::str("1")]);
        let g = db.world().graph("social").unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge("knows/e1").unwrap().unwrap().get_field("w"), &Value::int(2), "the re-put document");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn updates_and_deletes_recover_in_order() {
    let dir = tmpdir("order");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("c").unwrap();
        db.create_bucket("kv").unwrap();
        db.insert_json("c", r#"{"_key":"k","v":1}"#).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.update_document("c", "k", mmdb::from_json(r#"{"v":2}"#).unwrap())
        })
        .unwrap();
        db.kv_put("kv", "x", Value::int(1)).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| s.kv_delete("kv", "x")).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.update_document("c", "k", mmdb::from_json(r#"{"v":3}"#).unwrap())
        })
        .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(
            db.get_document("c", "k").unwrap().unwrap().get_field("v"),
            &Value::int(3),
            "last committed update wins"
        );
        assert_eq!(db.kv().get("kv", "x").unwrap(), None, "delete recovered");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One new-order per call, shaped like UniBench's: an order document, the
/// customer's cart entry, a `bought` edge with a generated key, and the
/// customer's credit-limit debit.
fn place_order(db: &Database, order_no: usize, customer: i64) {
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        s.insert_document(
            "orders",
            Value::object([
                ("_key", Value::str(format!("o{order_no}"))),
                ("customer_id", Value::int(customer)),
                ("total", Value::int(10)),
            ]),
        )?;
        s.kv_put("cart", &customer.to_string(), Value::str(format!("o{order_no}")))?;
        let person = format!("persons/{customer}");
        s.add_edge("social", "bought", &person, &person, Value::object([("order_no", Value::int(order_no as i64))]))?;
        let mut row = s.get_row("customers", &Value::int(customer))?.expect("customer row");
        let limit = row.get_field("credit_limit").as_int()?;
        row.as_object_mut()?.insert("credit_limit", Value::int(limit - 10));
        s.update_row("customers", row)
    })
    .unwrap();
}

/// Every order placed so far is visible to queries, once each, and every
/// customer's credit limit reflects exactly its orders.
fn assert_all_orders_visible(db: &Database, orders: usize, customers: i64) {
    let keys = db.query("FOR o IN orders RETURN o._key").unwrap();
    assert_eq!(keys.len(), orders, "orders visible to queries");
    let graph = db.world().graph("social").unwrap();
    assert_eq!(graph.edge_count(), orders, "one bought edge per order");
    for c in 1..=customers {
        let placed = (0..orders).filter(|i| (*i as i64) % customers + 1 == c).count() as i64;
        let got = db.query(&format!("FOR c IN customers FILTER c.id == {c} RETURN c.credit_limit")).unwrap();
        assert_eq!(got, vec![Value::int(1_000 - 10 * placed)], "customer {c}'s credit limit");
    }
}

fn write_reopen_write_reopen(tag: &str, checkpoint: bool) {
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
    const N: usize = 40;
    const CUSTOMERS: i64 = 4;
    let dir = tmpdir(tag);
    {
        let db = Database::open(&dir).unwrap();
        db.create_table(
            "customers",
            Schema::new(
                vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("credit_limit", DataType::Int)],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            for c in 1..=CUSTOMERS {
                s.insert_row("customers", Value::object([("id", Value::int(c)), ("credit_limit", Value::int(1_000))]))?;
                s.add_vertex("social", "persons", Value::object([("_key", Value::str(c.to_string()))]))?;
            }
            Ok(())
        })
        .unwrap();
        for i in 0..N {
            place_order(&db, i, i as i64 % CUSTOMERS + 1);
        }
        if checkpoint {
            db.checkpoint().unwrap();
        }
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_all_orders_visible(&db, N, CUSTOMERS);
        for i in N..2 * N {
            place_order(&db, i, i as i64 % CUSTOMERS + 1);
        }
        assert_all_orders_visible(&db, 2 * N, CUSTOMERS);
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_all_orders_visible(&db, 2 * N, CUSTOMERS);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writes_after_a_reopen_survive_the_next_reopen() {
    write_reopen_write_reopen("rewrite", false);
}

#[test]
fn writes_after_a_checkpointed_reopen_survive_the_next_reopen() {
    write_reopen_write_reopen("rewrite-ckpt", true);
}
