//! The user-visible operations, embedded and over the wire.
//!
//! Embedded calls go through `Database`/`Session` and the UniBench query
//! functions of `mmdb_bench::workloads`. The wire path sends the same
//! MMQL text through `Client`; each wire answer is compared with the
//! embedded answer on the server's own database, so the copied query
//! text cannot drift from the original unnoticed.

use std::sync::Arc;

use mmdb_bench::gen::Order;
use mmdb_bench::workloads;
use mmdb_client::Client;
use mmdb_core::Database;
use mmdb_protocol::{Request, Response, SessionOp};
use mmdb_types::{Error, Result, Value};

use crate::data::{self, mismatch, Entity, Q2_THRESHOLD};

/// Q2 text, as in `workloads::q2_mmdb`.
pub fn q2_text() -> String {
    format!(
        r#"
        FOR c IN customers
          FILTER c.credit_limit > {Q2_THRESHOLD}
          FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
            LET order = DOC("orders", KV_GET("cart", friend._key))
            FILTER order != NULL
            FOR line IN order.orderlines
              RETURN DISTINCT line.product_no
        "#
    )
}

/// Q3 text, as in `workloads::q3_mmdb`.
pub fn q3_text(category: &str, word: &str) -> String {
    format!(
        r#"
        FOR f IN FULLTEXT("feedback_text", "{word}")
          FILTER f.rating >= 4
          LET p = DOC("products", f.product_no)
          FILTER p.category == "{category}"
          RETURN DISTINCT p._key
        "#
    )
}

/// Q5 text, as in `workloads::q5_mmdb`.
pub fn q5_text(customer_id: i64) -> String {
    format!(
        r#"
        FOR friend IN 1..2 ANY "persons/{customer_id}" knows
          LET order = DOC("orders", KV_GET("cart", friend._key))
          FILTER order != NULL
          FOR line IN order.orderlines
            RETURN DISTINCT line.product_no
        "#
    )
}

/// The naive correlated Q4 of `workloads::q4_mmdb`, restricted to the
/// customers of one page.
pub fn q4_page_text(page: i64) -> String {
    let (lo, hi) = data::page_bounds(page);
    format!(
        r#"
        FOR c IN customers
          FILTER c.id >= {lo} AND c.id < {hi}
          LET total = SUM((FOR o IN orders FILTER o.customer_id == c.id RETURN o.total))
          RETURN {{name: c.name, total: total}}
        "#
    )
}

/// Sorted product numbers from query rows.
pub fn strings(rows: Vec<Value>) -> Result<Vec<String>> {
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Result<_>>()?;
    out.sort();
    Ok(out)
}

/// Sorted `(name, total)` pairs from `q4_page` rows.
pub fn spend(rows: Vec<Value>) -> Result<Vec<(String, i64)>> {
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        out.push((
            r.get_field("name").as_str()?.to_string(),
            r.get_field("total").as_int().unwrap_or(0),
        ));
    }
    out.sort();
    Ok(out)
}

/// The operations a query round runs.
pub trait Reader {
    /// Entity read: customer row, cart entry and an order document.
    fn entity(&mut self, cid: i64, order_no: &str) -> Result<Entity>;
    /// Q2 (rel⋈graph⋈kv⋈doc).
    fn q2(&mut self) -> Result<Vec<String>>;
    /// Q3 (text⋈doc).
    fn q3(&mut self, category: &str, word: &str) -> Result<Vec<String>>;
    /// Q4 over one page of customers (rel⋈doc aggregate).
    fn q4_page(&mut self, page: i64) -> Result<Vec<(String, i64)>>;
    /// Q5 (2-hop graph⋈kv⋈doc).
    fn q5(&mut self, cid: i64) -> Result<Vec<String>>;
    /// The database whose embedded answers this reader's answers must
    /// equal, checked outside the timed call.
    fn reference(&self) -> Option<&Database> {
        None
    }
    /// The database the reads and queries run on.
    fn db(&self) -> &Database;
}

/// Embedded reads and queries.
pub struct Embedded<'a>(pub &'a Database);

impl Reader for Embedded<'_> {
    fn entity(&mut self, cid: i64, order_no: &str) -> Result<Entity> {
        data::read_entity(self.0, cid, order_no)
    }
    fn q2(&mut self) -> Result<Vec<String>> {
        workloads::q2_mmdb(self.0, Q2_THRESHOLD)
    }
    fn q3(&mut self, category: &str, word: &str) -> Result<Vec<String>> {
        workloads::q3_mmdb(self.0, category, word)
    }
    fn q4_page(&mut self, page: i64) -> Result<Vec<(String, i64)>> {
        spend(self.0.query(&q4_page_text(page))?)
    }
    fn q5(&mut self, cid: i64) -> Result<Vec<String>> {
        workloads::q5_mmdb(self.0, cid)
    }
    fn db(&self) -> &Database {
        self.0
    }
}

/// Reads and queries over one client connection. `check` is the
/// server's database, whose embedded answers the wire answers must
/// equal.
pub struct Wire<'a> {
    /// The connection.
    pub client: &'a mut Client,
    /// The database the server serves.
    pub check: Arc<Database>,
}

impl Reader for Wire<'_> {
    fn entity(&mut self, cid: i64, order_no: &str) -> Result<Entity> {
        wire_entity(self.client, cid, order_no)
    }
    fn q2(&mut self) -> Result<Vec<String>> {
        strings(wire_query(self.client, q2_text())?)
    }
    fn q3(&mut self, category: &str, word: &str) -> Result<Vec<String>> {
        strings(wire_query(self.client, q3_text(category, word))?)
    }
    fn q4_page(&mut self, page: i64) -> Result<Vec<(String, i64)>> {
        spend(wire_query(self.client, q4_page_text(page))?)
    }
    fn q5(&mut self, cid: i64) -> Result<Vec<String>> {
        strings(wire_query(self.client, q5_text(cid))?)
    }
    fn reference(&self) -> Option<&Database> {
        Some(&self.check)
    }
    fn db(&self) -> &Database {
        &self.check
    }
}

/// Fail unless a wire answer equals the embedded answer.
pub fn same_as_embedded<T: PartialEq + std::fmt::Debug>(
    what: &str,
    wire: &T,
    embedded: Result<T>,
) -> Result<()> {
    let embedded = embedded?;
    if *wire != embedded {
        return Err(mismatch(format!(
            "{what}: wire {wire:?} != embedded {embedded:?}"
        )));
    }
    Ok(())
}

/// The three requests of a wire entity read.
pub fn entity_requests(cid: i64, order_no: &str) -> [Request; 3] {
    [
        Request::Op(SessionOp::GetRow {
            table: "customers".into(),
            pk: Value::int(cid),
        }),
        Request::Op(SessionOp::KvGet {
            bucket: "cart".into(),
            key: cid.to_string(),
        }),
        Request::Op(SessionOp::GetDocument {
            collection: "orders".into(),
            key: order_no.into(),
        }),
    ]
}

/// Entity read over the wire: the three reads submitted as one
/// pipelined batch.
pub fn wire_entity(client: &mut Client, cid: i64, order_no: &str) -> Result<Entity> {
    let reqs = entity_requests(cid, order_no);
    let mut ids = [0u64; 3];
    for (id, req) in ids.iter_mut().zip(&reqs) {
        *id = client.submit(req)?;
    }
    let mut out = [None, None, None];
    for (slot, id) in out.iter_mut().zip(ids) {
        *slot = match client.receive(id)? {
            Response::Maybe(v) => v,
            other => return Err(Error::Protocol(format!("entity read answered {other:?}"))),
        };
    }
    let [a, b, c] = out;
    Ok((a, b, c))
}

/// An MMQL query submitted with a request id, so it runs on the server's
/// executor pool.
pub fn wire_query(client: &mut Client, text: String) -> Result<Vec<Value>> {
    let id = client.submit(&Request::Query {
        text,
        deadline_ms: None,
    })?;
    match client.receive(id)? {
        Response::Rows(rows) => Ok(rows),
        other => Err(Error::Protocol(format!("query answered {other:?}"))),
    }
}

/// Submit `reqs` as one pipelined batch and collect every response,
/// failing with the first error after all of them have arrived.
fn pipelined(client: &mut Client, reqs: &[Request]) -> Result<Vec<Response>> {
    let ids = reqs
        .iter()
        .map(|r| client.submit(r))
        .collect::<Result<Vec<_>>>()?;
    let responses: Vec<Result<Response>> = ids.into_iter().map(|id| client.receive(id)).collect();
    responses.into_iter().collect()
}

/// The new-order transaction over the wire, on the connection's session
/// lane: the writes `workloads::place_order_mmdb` makes embedded, sent
/// as two pipelined batches — everything up to reading the customer's
/// credit, then the credit update and the commit. Returns the number of
/// conflict retries it took.
pub fn wire_new_order(client: &mut Client, order: &Order, max_retries: usize) -> Result<usize> {
    let cid = order.customer_id;
    let op = Request::Op;
    let mut attempt = 0;
    loop {
        let result = (|| -> Result<()> {
            let first = pipelined(
                client,
                &[
                    Request::Begin {
                        serializable: false,
                    },
                    op(SessionOp::InsertDocument {
                        collection: "orders".into(),
                        doc: order.to_document(),
                    }),
                    op(SessionOp::KvPut {
                        bucket: "cart".into(),
                        key: cid.to_string(),
                        value: Value::str(&order.order_no),
                    }),
                    op(SessionOp::AddEdge {
                        graph: "social".into(),
                        collection: "bought".into(),
                        from: format!("persons/{cid}"),
                        to: format!("persons/{cid}"),
                        properties: Value::object([("order_no", Value::str(&order.order_no))]),
                    }),
                    op(SessionOp::GetRow {
                        table: "customers".into(),
                        pk: Value::int(cid),
                    }),
                ],
            )?;
            let Some(Response::Maybe(Some(mut row))) = first.into_iter().last() else {
                return Err(Error::NotFound(format!("customer {cid}")));
            };
            let cur = row.get_field("credit_limit").as_int()?;
            row.as_object_mut()?
                .insert("credit_limit", Value::int(cur - order.total()));
            pipelined(
                client,
                &[
                    op(SessionOp::UpdateRow {
                        table: "customers".into(),
                        row,
                    }),
                    Request::Commit,
                ],
            )?;
            Ok(())
        })();
        match result {
            Ok(()) => return Ok(attempt),
            Err(e) if e.is_retryable() && attempt < max_retries => {
                let _ = client.abort();
                attempt += 1;
            }
            Err(e) => {
                let _ = client.abort();
                return Err(e);
            }
        }
    }
}
