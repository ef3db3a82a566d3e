//! Inputs and expected outputs: the UniBench data set, its logged load,
//! the new-order inputs, and the oracle every output check compares to.

use std::collections::{BTreeMap, HashMap, HashSet};

use mmdb_bench::gen::{self, Customer, Dataset, Order, OrderLine};
use mmdb_bench::polyglot::PolyglotStores;
use mmdb_bench::workloads;
use mmdb_core::{Database, Session};
use mmdb_txn::IsolationLevel;
use mmdb_types::{Error, Result, Value};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::trace::span;

/// UniBench scale factor: 500 customers, 100 products, ~1 000 orders.
pub const SCALE: f64 = 0.5;

/// Q2's credit threshold (the paper's recommendation query).
pub const Q2_THRESHOLD: i64 = 3000;

/// Customers per `q4_page` query.
pub const Q4_PAGE: i64 = 25;

/// Price of every new-order line: each committed order lowers its
/// customer's credit by exactly this much.
pub const ORDER_PRICE: i64 = 10;

/// Writes per logged load transaction.
const LOAD_CHUNK: usize = 256;

/// The generated data set plus the lookups the checks need.
pub struct Fixture {
    /// The generated data set.
    pub data: Dataset,
    /// Category of each product.
    pub category: HashMap<String, String>,
    /// Words that occur in feedback texts (Q3 search terms).
    pub words: Vec<String>,
    /// Category names.
    pub categories: Vec<String>,
}

impl Fixture {
    /// Generate the data set for `seed`.
    pub fn new(scale: f64, seed: u64) -> Fixture {
        let data = gen::generate(scale, seed);
        let category = data
            .products
            .iter()
            .map(|p| (p.product_no.clone(), p.category.clone()))
            .collect();
        let mut words: Vec<String> = data
            .feedback
            .iter()
            .filter_map(|f| f.text.split_whitespace().next().map(str::to_string))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        words.sort();
        let mut categories: Vec<String> = data
            .products
            .iter()
            .map(|p| p.category.clone())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        categories.sort();
        Fixture {
            data,
            category,
            words,
            categories,
        }
    }

    /// Number of customers.
    pub fn customers(&self) -> i64 {
        self.data.customers.len() as i64
    }

    /// Number of `q4_page` pages.
    pub fn pages(&self) -> i64 {
        (self.customers() + Q4_PAGE - 1) / Q4_PAGE
    }

    /// An original (never rewritten) order, for entity reads.
    pub fn original_order(&self, i: usize) -> &Order {
        &self.data.orders[i % self.data.orders.len()]
    }

    /// The `i`-th new order of writer `writer` for customer `cid`.
    pub fn new_order(&self, writer: usize, i: usize, cid: i64) -> Order {
        let p = &self.data.products[(cid as usize + i) % self.data.products.len()];
        Order {
            order_no: format!("n{writer}-{i:07}"),
            customer_id: cid,
            lines: vec![OrderLine {
                product_no: p.product_no.clone(),
                product_name: p.title.clone(),
                price: ORDER_PRICE,
            }],
        }
    }

    /// A random Q3 input: (category, word).
    pub fn q3_input(&self, rng: &mut SmallRng) -> (String, String) {
        (
            self.categories[rng.gen_range(0..self.categories.len())].clone(),
            self.words[rng.gen_range(0..self.words.len())].clone(),
        )
    }
}

/// Create the schema and load the data set through `Database::transact`,
/// the logged write path, so every write reaches the WAL when there is
/// one. Then build the feedback full-text index, which Q3 needs.
pub fn load(db: &Database, data: &Dataset) -> Result<()> {
    workloads::create_mmdb_schema(db)?;
    let txn = |f: &mut dyn FnMut(&mut Session) -> Result<()>| {
        db.transact(IsolationLevel::Snapshot, 3, |s| f(s))
    };
    for batch in data.customers.chunks(LOAD_CHUNK) {
        txn(&mut |s| {
            for c in batch {
                s.insert_row("customers", c.to_row_object())?;
                s.add_vertex(
                    "social",
                    "persons",
                    Value::object([("_key", Value::str(c.id.to_string()))]),
                )?;
            }
            Ok(())
        })?;
    }
    for batch in data.knows.chunks(LOAD_CHUNK) {
        txn(&mut |s| {
            for (a, b) in batch {
                s.add_edge(
                    "social",
                    "knows",
                    &format!("persons/{a}"),
                    &format!("persons/{b}"),
                    Value::Object(Default::default()),
                )?;
            }
            Ok(())
        })?;
    }
    for batch in data.products.chunks(LOAD_CHUNK) {
        txn(&mut |s| {
            for p in batch {
                s.insert_document("products", p.to_document())?;
            }
            Ok(())
        })?;
    }
    for batch in data.orders.chunks(LOAD_CHUNK) {
        txn(&mut |s| {
            for o in batch {
                s.insert_document("orders", o.to_document())?;
            }
            Ok(())
        })?;
    }
    for batch in data.carts.chunks(LOAD_CHUNK) {
        txn(&mut |s| {
            for (cid, order_no) in batch {
                s.kv_put("cart", &cid.to_string(), Value::str(order_no))?;
            }
            Ok(())
        })?;
    }
    for (n, batch) in data.feedback.chunks(LOAD_CHUNK).enumerate() {
        txn(&mut |s| {
            for (i, f) in batch.iter().enumerate() {
                s.insert_document("feedback", f.to_document(n * LOAD_CHUNK + i))?;
            }
            Ok(())
        })?;
    }
    index_feedback(db)
}

/// Build the full-text index Q3 searches. Index definitions are not
/// logged, so a reopened database needs this again.
pub fn index_feedback(db: &Database) -> Result<()> {
    db.create_fulltext_index("feedback_text", "feedback", "text")
}

/// Acknowledged new orders, per customer in commit order.
#[derive(Debug, Default, Clone)]
pub struct Acked {
    /// Customer id → orders acknowledged for it, oldest first.
    pub by_customer: BTreeMap<i64, Vec<Order>>,
}

impl Acked {
    /// Record an acknowledged order.
    pub fn push(&mut self, order: Order) {
        self.by_customer
            .entry(order.customer_id)
            .or_default()
            .push(order);
    }

    /// Merge another writer's acknowledgements (writers own disjoint
    /// customers, so per-customer order is kept).
    pub fn merge(&mut self, other: Acked) {
        for (cid, orders) in other.by_customer {
            self.by_customer.entry(cid).or_default().extend(orders);
        }
    }

    /// Total acknowledged orders.
    pub fn len(&self) -> usize {
        self.by_customer.values().map(Vec::len).sum()
    }

    /// True when nothing was acknowledged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The data set as it must read after the acknowledged orders: each
/// order added, the cart pointing at the customer's latest order, the
/// credit lowered by the order total.
pub fn expected(data: &Dataset, acked: &Acked) -> Dataset {
    let mut d = data.clone();
    for (cid, orders) in &acked.by_customer {
        let c = &mut d.customers[(*cid - 1) as usize];
        for o in orders {
            c.credit_limit -= o.total();
            d.orders.push(o.clone());
        }
        if let Some(last) = orders.last() {
            match d.carts.iter_mut().find(|(id, _)| id == cid) {
                Some(cart) => cart.1 = last.order_no.clone(),
                None => d.carts.push((*cid, last.order_no.clone())),
            }
        }
    }
    d
}

/// Expected results of the checked queries, computed by the polyglot
/// baseline from an expected data set.
pub struct Oracle {
    expected: Dataset,
    carts: HashMap<i64, String>,
    q2: Option<Vec<String>>,
    q4_pages: HashMap<i64, Vec<(String, i64)>>,
}

impl Oracle {
    /// The oracle for `expected`; query answers are computed on first use.
    pub fn new(expected: Dataset) -> Oracle {
        let carts = expected.carts.iter().cloned().collect();
        Oracle {
            expected,
            carts,
            q2: None,
            q4_pages: HashMap::new(),
        }
    }

    /// Q2's expected answer.
    pub fn q2(&mut self) -> Result<&[String]> {
        if self.q2.is_none() {
            let poly = PolyglotStores::new()?;
            poly.load(&self.expected)?;
            self.q2 = Some(poly.recommendation_query(Q2_THRESHOLD)?);
        }
        Ok(self.q2.as_deref().unwrap_or_default())
    }

    /// `q4_page`'s expected answer for page `page`: the polyglot
    /// baseline loaded with just that page's customers and orders.
    pub fn q4_page(&mut self, page: i64) -> Result<&[(String, i64)]> {
        if !self.q4_pages.contains_key(&page) {
            let (lo, hi) = page_bounds(page);
            let in_page = |id: i64| id >= lo && id < hi;
            let subset = Dataset {
                customers: self
                    .expected
                    .customers
                    .iter()
                    .filter(|c| in_page(c.id))
                    .cloned()
                    .collect(),
                knows: Vec::new(),
                products: self.expected.products.clone(),
                orders: self
                    .expected
                    .orders
                    .iter()
                    .filter(|o| in_page(o.customer_id))
                    .cloned()
                    .collect(),
                carts: Vec::new(),
                feedback: Vec::new(),
            };
            let poly = PolyglotStores::new()?;
            poly.load(&subset)?;
            self.q4_pages.insert(page, poly.spend_per_customer()?);
        }
        Ok(&self.q4_pages[&page])
    }

    /// The expected customer row.
    pub fn customer(&self, cid: i64) -> &Customer {
        &self.expected.customers[(cid - 1) as usize]
    }

    /// The expected cart entry.
    pub fn cart(&self, cid: i64) -> Option<&str> {
        self.carts.get(&cid).map(String::as_str)
    }
}

/// Customer ids `[lo, hi)` of a `q4_page` page.
pub fn page_bounds(page: i64) -> (i64, i64) {
    (page * Q4_PAGE + 1, (page + 1) * Q4_PAGE + 1)
}

/// One entity read's results: customer row, cart entry, order document.
pub type Entity = (Option<Value>, Option<Value>, Option<Value>);

/// Check an entity read of customer `cid` and original order `order`
/// against the oracle.
pub fn check_entity(oracle: &Oracle, cid: i64, order: &Order, got: &Entity) -> Result<()> {
    let c = oracle.customer(cid);
    let row = got
        .0
        .as_ref()
        .ok_or_else(|| mismatch(format!("customer {cid} missing")))?;
    if row.get_field("name").as_str()? != c.name
        || row.get_field("credit_limit").as_int()? != c.credit_limit
    {
        return Err(mismatch(format!(
            "customer {cid}: got {row:?}, expected {c:?}"
        )));
    }
    let cart = got
        .1
        .as_ref()
        .map(|v| v.as_str().map(str::to_string))
        .transpose()?;
    if cart.as_deref() != oracle.cart(cid) {
        return Err(mismatch(format!(
            "cart {cid}: got {cart:?}, expected {:?}",
            oracle.cart(cid)
        )));
    }
    if got.2.as_ref() != Some(&order.to_document()) {
        return Err(mismatch(format!(
            "order {}: got {:?}",
            order.order_no, got.2
        )));
    }
    Ok(())
}

/// Check that every product a query returned exists (and, for Q3, is in
/// the asked category).
pub fn check_products(fx: &Fixture, got: &[String], category: Option<&str>) -> Result<()> {
    for p in got {
        match fx.category.get(p) {
            None => return Err(mismatch(format!("query returned unknown product {p}"))),
            Some(c) if category.is_some_and(|want| want != c) => {
                return Err(mismatch(format!("Q3 returned {p} of category {c}")))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// A failed output check.
pub fn mismatch(msg: String) -> Error {
    Error::Internal(format!("output check: {msg}"))
}

/// Entity read of customer `cid` through one `Session`.
pub fn read_entity(db: &Database, cid: i64, order_no: &str) -> Result<Entity> {
    let s = db.begin(IsolationLevel::Snapshot);
    let row = span("session.get_row", || {
        s.get_row("customers", &Value::int(cid))
    })?;
    let cart = span("session.kv_get", || s.kv_get("cart", &cid.to_string()))?;
    let doc = span("session.get_document", || {
        s.get_document("orders", order_no)
    })?;
    s.commit()?;
    Ok((row, cart, doc))
}

/// Check a whole database against the oracle: every customer's row and
/// cart through a `Session`, and every acknowledged order document in
/// the collection queries scan.
pub fn check_state(db: &Database, fx: &Fixture, oracle: &Oracle, acked: &Acked) -> Result<()> {
    for cid in 1..=fx.customers() {
        let o = fx.original_order(cid as usize);
        check_entity(oracle, cid, o, &read_entity(db, cid, &o.order_no)?)?;
    }
    for orders in acked.by_customer.values() {
        for o in orders {
            if db.get_document("orders", &o.order_no)?.as_ref() != Some(&o.to_document()) {
                return Err(mismatch(format!("acknowledged order {} lost", o.order_no)));
            }
        }
    }
    Ok(())
}

/// Fisher–Yates shuffle with the benchmark's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}
