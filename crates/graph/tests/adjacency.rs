//! Property test for the edge index: after every step of a random
//! sequence of edge inserts and removals and vertex removals, adjacency
//! answered from the index alone (`neighbors`) equals adjacency
//! recomputed from the edge documents, and the edge documents equal a
//! plain-Rust model of the live edges.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use mmdb_graph::store::{FROM_FIELD, TO_FIELD};
use mmdb_graph::{Direction, Graph};
use mmdb_storage::{BufferPool, DiskManager};
use mmdb_types::Value;

const VERTICES: usize = 5;
const EDGE_COLLECTIONS: [&str; 2] = ["knows", "likes"];
const DIRECTIONS: [Direction; 3] = [Direction::Outbound, Direction::Inbound, Direction::Any];

fn vertex(i: usize) -> String {
    format!("p/{i}")
}

fn graph() -> Graph {
    let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory()), 64));
    let g = Graph::create("g", pool);
    g.create_vertex_collection("p").unwrap();
    for c in EDGE_COLLECTIONS {
        g.create_edge_collection(c).unwrap();
    }
    for i in 0..VERTICES {
        add_vertex(&g, i);
    }
    g
}

fn add_vertex(g: &Graph, i: usize) {
    g.add_vertex("p", Value::object([("_key", Value::str(i.to_string()))])).unwrap();
}

/// A live edge in the model: `(handle, collection, from, to)`.
type ModelEdge = (String, &'static str, String, String);

/// Adjacency recomputed from the edge documents `edges_of` returns.
fn neighbors_from_documents(g: &Graph, v: &str, dir: Direction, coll: Option<&str>) -> Vec<String> {
    let mut out: Vec<String> = g
        .edges_of(v, dir, coll)
        .unwrap()
        .iter()
        .map(|e| {
            let from = e.get_field(FROM_FIELD).as_str().unwrap().to_string();
            let to = e.get_field(TO_FIELD).as_str().unwrap().to_string();
            match dir {
                Direction::Outbound => to,
                Direction::Inbound => from,
                Direction::Any if from == v => to,
                Direction::Any => from,
            }
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Check every vertex, direction and collection filter; `Err` names the
/// first disagreement.
fn check(g: &Graph, model: &[ModelEdge]) -> Result<(), String> {
    let filters = [None, Some("knows"), Some("likes"), Some("nope")];
    for v in (0..VERTICES).map(vertex) {
        for dir in DIRECTIONS {
            for coll in filters {
                let from_index = g.neighbors(&v, dir, coll).unwrap();
                let from_docs = neighbors_from_documents(g, &v, dir, coll);
                if from_index != from_docs {
                    return Err(format!(
                        "{v} {dir:?} {coll:?}: index {from_index:?} != documents {from_docs:?}"
                    ));
                }
                let docs: BTreeSet<String> = g
                    .edges_of(&v, dir, coll)
                    .unwrap()
                    .iter()
                    .map(|e| e.get_field("_key").as_str().unwrap().to_string())
                    .collect();
                let want: BTreeSet<String> = model
                    .iter()
                    .filter(|(_, c, from, to)| {
                        coll.is_none_or(|f| f == *c)
                            && match dir {
                                Direction::Outbound => *from == v,
                                Direction::Inbound => *to == v,
                                Direction::Any => *from == v || *to == v,
                            }
                    })
                    .map(|(h, ..)| h.split_once('/').unwrap().1.to_string())
                    .collect();
                if docs != want {
                    return Err(format!("{v} {dir:?} {coll:?}: edges {docs:?} != model {want:?}"));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Steps are `(kind, a, b, c)`: kinds 0–5 add an edge `a → b` (self
    /// loops included) in collection `c`, 6–7 remove the live edge
    /// `a`, 8 removes vertex `a` (cascading) and 9 re-adds it if gone.
    #[test]
    fn neighbors_equal_adjacency_recomputed_from_edge_documents(
        steps in prop::collection::vec((0usize..10, 0usize..VERTICES, 0usize..VERTICES, 0usize..2), 1..40),
    ) {
        let g = graph();
        let mut model: Vec<ModelEdge> = Vec::new();
        let mut live = [true; VERTICES];
        for (kind, a, b, c) in steps {
            match kind {
                0..=5 => {
                    let coll = EDGE_COLLECTIONS[c];
                    let (from, to) = (vertex(a), vertex(b));
                    let added = g.add_edge(coll, &from, &to, Value::object(Vec::<(String, Value)>::new()));
                    prop_assert_eq!(added.is_ok(), live[a] && live[b], "add {} -> {}", from, to);
                    if let Ok(h) = added {
                        model.push((h, coll, from, to));
                    }
                }
                6 | 7 if !model.is_empty() => {
                    let (h, ..) = model.remove(a % model.len());
                    prop_assert!(g.remove_edge(&h).unwrap());
                    prop_assert!(!g.remove_edge(&h).unwrap(), "removed twice: {}", h);
                }
                8 => {
                    let v = vertex(a);
                    prop_assert_eq!(g.remove_vertex(&v).unwrap(), live[a]);
                    live[a] = false;
                    model.retain(|(_, _, from, to)| *from != v && *to != v);
                }
                9 if !live[a] => {
                    add_vertex(&g, a);
                    live[a] = true;
                }
                _ => {}
            }
            check(&g, &model)?;
            prop_assert_eq!(g.edge_count(), model.len());
        }
    }
}
