//! Per-layer metrics of a traced run (`--trace 1`).
//!
//! Layers the facade hides are timed by replaying the run's own inputs
//! through their public entry points: the codec on the run's messages,
//! a bare MVCC store, the commit hook and a file WAL on new-order write
//! sets captured from the facade's commit hook, the query stages on the
//! run's queries, the model stores on the run's keys. Counters come from
//! the stats the engine already exports, read before and after a phase.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mmdb_client::Client;
use mmdb_core::Database;
use mmdb_graph::Direction;
use mmdb_protocol::{Request, Response};
use mmdb_query::exec::Env;
use mmdb_server::{Server, ServerConfig};
use mmdb_storage::snapshot;
use mmdb_storage::wal::{Wal, WalRecord};
use mmdb_txn::{CommittedWrite, GroupCommitStats, IsolationLevel, MvccStore};
use mmdb_types::codec::value_to_bytes;
use mmdb_types::{Error, Result, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::data::{self, Fixture};
use crate::ops;
use crate::run::{Measured, Workload};
use crate::stats::{self, Samples};
use crate::trace;

/// Metric name, value and unit.
pub type Metric = (String, f64, &'static str);

/// Engine counters read around a write phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    gc: GroupCommitStats,
    commits: u64,
    aborts: u64,
}

impl Counters {
    /// Add the change from `before` to `after`.
    pub fn add(&mut self, before: Counters, after: Counters) {
        self.gc.txns += after.gc.txns - before.gc.txns;
        self.gc.batches += after.gc.batches - before.gc.batches;
        self.commits += after.commits - before.commits;
        self.aborts += after.aborts - before.aborts;
    }

    /// Read the counters of `db`.
    pub fn read(db: &Database) -> Counters {
        let (commits, aborts) = db.mvcc().stats();
        Counters {
            gc: db.mvcc().group_commit_stats(),
            commits,
            aborts,
        }
    }
}

/// The query types whose stages are timed, and the span names of their
/// parse, plan and execute stages.
const QUERIES: [&str; 4] = ["q2", "q3", "q4_page", "q5"];
const STAGE_SPANS: [[&str; 3]; 4] = [
    ["query.parse.q2", "query.plan.q2", "query.exec.q2"],
    ["query.parse.q3", "query.plan.q3", "query.exec.q3"],
    [
        "query.parse.q4_page",
        "query.plan.q4_page",
        "query.exec.q4_page",
    ],
    ["query.parse.q5", "query.plan.q5", "query.exec.q5"],
];

/// Work counts of the replayed queries of one type.
#[derive(Debug, Clone, Copy, Default)]
struct QueryCounts {
    runs: u64,
    examined: u64,
    returned: u64,
    index_scans: u64,
    full_scans: u64,
}

static QUERY_COUNTS: Mutex<[QueryCounts; 4]> = Mutex::new(
    [QueryCounts {
        runs: 0,
        examined: 0,
        returned: 0,
        index_scans: 0,
        full_scans: 0,
    }; 4],
);

/// Replay one query of type `QUERIES[q]` through the query layer's
/// stages — parse, plan and optimize, traced execution — on the database
/// and state it just ran against, timing each stage as a span and
/// counting rows examined and access paths taken.
pub fn replay_query(db: &Database, q: usize, text: &str) -> Result<()> {
    let world = db.world();
    let [parse, plan, exec] = STAGE_SPANS[q];
    let query = trace::span(parse, || mmdb_query::parse_query(text))?;
    let plan = trace::span(plan, || {
        mmdb_query::plan::build_plan(&query).map(|p| mmdb_query::optimize::optimize(p, world))
    })?;
    let (i0, f0) = (world.access.index_scans(), world.access.full_scans());
    let (rows, st) = trace::span(exec, || {
        mmdb_query::exec::execute_plan_traced(world, &plan, Env::new())
    })?;
    let mut all = QUERY_COUNTS.lock().unwrap_or_else(PoisonError::into_inner);
    let c = &mut all[q];
    c.runs += 1;
    c.examined += st.ops.iter().map(|o| o.rows_in as u64).sum::<u64>();
    c.returned += rows.len() as u64;
    c.index_scans += world.access.index_scans() - i0;
    c.full_scans += world.access.full_scans() - f0;
    Ok(())
}

/// Replays per store lookup, WAL commit, hook apply and codec pass.
const LOOKUPS: usize = 2_000;
const WAL_COMMITS: usize = 300;
const HOOK_APPLIES: usize = 300;
/// Requests a fresh server gets in the server replay.
const REPLAY_READS: usize = 500;
const REPLAY_QUERIES: usize = 20;
const REPLAY_ORDERS: usize = 50;

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Time `f` `n` times.
fn sample<T>(n: usize, mut f: impl FnMut(usize) -> Result<T>) -> Result<Samples> {
    let mut s = Samples::default();
    for i in 0..n {
        let t = Instant::now();
        std::hint::black_box(f(i)?);
        s.push(t.elapsed());
    }
    Ok(s)
}

/// New-order write sets captured from the commit hook of a scratch
/// database that runs `n` of the run's new-orders.
fn neworder_write_sets(fx: &Fixture, m: &Measured, n: usize) -> Result<Vec<Vec<CommittedWrite>>> {
    let scratch = Database::in_memory();
    data::load(&scratch, &fx.data)?;
    let captured = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    scratch.mvcc().add_commit_hook(move |w| {
        sink.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(w.to_vec())
    });
    let orders: Vec<_> = m
        .acked
        .by_customer
        .values()
        .flatten()
        .take(n)
        .cloned()
        .collect();
    for o in &orders {
        mmdb_bench::workloads::place_order_mmdb(&scratch, o.customer_id, &o.to_document())?;
    }
    let sets = std::mem::take(&mut *captured.lock().unwrap_or_else(PoisonError::into_inner));
    if sets.is_empty() {
        return Err(Error::Internal(
            "no new-order was acknowledged to replay".into(),
        ));
    }
    Ok(sets)
}

fn wal_records(txid: u64, ws: &[CommittedWrite]) -> (Vec<WalRecord>, usize) {
    let mut user = 0;
    let mut recs = vec![WalRecord::Begin { txid }];
    for w in ws {
        let value = w.value.as_ref().map(|v| value_to_bytes(v).to_vec());
        user += w.key.len() + value.as_ref().map_or(0, Vec::len);
        recs.push(WalRecord::Write {
            txid,
            domain: w.domain.clone(),
            key: w.key.clone(),
            value,
        });
    }
    recs.push(WalRecord::Commit { txid });
    (recs, user)
}

/// Every per-layer metric of a traced run.
pub fn collect(
    workload: Workload,
    db: &Arc<Database>,
    dir: &Path,
    fx: &Fixture,
    m: &Measured,
) -> Result<Vec<Metric>> {
    let spans = trace::spans();
    let mut out: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |k: &str, v: f64, unit: &'static str| {
        out.insert(k.to_string(), (v, unit));
    };
    let mut rng = SmallRng::seed_from_u64(fx.data.customers.len() as u64 ^ 0x1a7e);
    let world = db.world();

    // core: session reads (spans of the run), hook apply (replay).
    let session = |name: &str| trace::durations(&spans, name).iq_mean_ns();
    let (get_row, get_doc, get_kv) = (
        session("session.get_row"),
        session("session.get_document"),
        session("session.kv_get"),
    );
    put("core.session_get_ns.row", get_row, "ns");
    put("core.session_get_ns.doc", get_doc, "ns");
    put("core.session_get_ns.kv", get_kv, "ns");
    let sets = neworder_write_sets(fx, m, HOOK_APPLIES)?;
    let target = Database::in_memory();
    data::load(&target, &fx.data)?;
    let hook = sample(sets.len(), |i| {
        mmdb_core::session::apply_committed(target.world(), &sets[i])
    })?;
    put("core.hook_apply_us", us(hook.iq_mean_ns()), "us");

    // txn: a bare MVCC store with new-order-shaped write sets; batching
    // and retries from the run's own counters.
    let mvcc = MvccStore::new(None);
    let mut begin = Samples::default();
    let mut commit = Samples::default();
    for ws in &sets {
        let t = Instant::now();
        let mut txn = mvcc.begin(IsolationLevel::Snapshot);
        begin.push(t.elapsed());
        for w in ws {
            match &w.value {
                Some(v) => txn.put(&w.domain, &w.key, v.clone())?,
                None => txn.delete(&w.domain, &w.key)?,
            }
        }
        let t = Instant::now();
        txn.commit()?;
        commit.push(t.elapsed());
    }
    put("txn.begin_ns", begin.iq_mean_ns(), "ns");
    put("txn.commit_us", us(commit.iq_mean_ns()), "us");
    let c = m.commit;
    put(
        "txn.txns_per_batch",
        ratio(c.gc.txns as f64, c.gc.batches as f64),
        "count",
    );
    put(
        "txn.fsyncs_per_commit",
        ratio(c.gc.batches as f64, c.commits as f64),
        "count",
    );
    put(
        "txn.retries_per_commit",
        ratio(c.aborts as f64, c.commits as f64),
        "count",
    );

    // storage: a file WAL fed the captured write sets, one sync per commit.
    let wal_path = dir.join("replay.wal");
    let _ = std::fs::remove_file(&wal_path);
    let log = Wal::open(&wal_path)?;
    let (mut append, mut sync, mut user) = (Samples::default(), Samples::default(), 0usize);
    for i in 0..WAL_COMMITS {
        let (recs, u) = wal_records(i as u64 + 1, &sets[i % sets.len()]);
        user += u;
        let t = Instant::now();
        log.append_batch(&recs)?;
        append.push(t.elapsed());
        let t = Instant::now();
        log.sync()?;
        sync.push(t.elapsed());
    }
    let wal_bytes = log.size_bytes() as f64;
    drop(log);
    let _ = std::fs::remove_file(&wal_path);
    put("wal.append_us", us(append.iq_mean_ns()), "us");
    put("wal.sync_us", us(sync.iq_mean_ns()), "us");
    put("wal.sync_p99_us", us(sync.pct_ns(99.0)), "us");
    put(
        "wal.bytes_per_commit",
        wal_bytes / WAL_COMMITS as f64,
        "count",
    );
    put(
        "wal.bytes_per_user_byte",
        ratio(wal_bytes, user as f64),
        "count",
    );

    // storage: recovery and checkpoint of the final log, timed in the
    // run's last phase; rebuild is that full reopen minus its log scan.
    let scan_ms = trace::durations(&spans, "wal.recover_scan").iq_mean_ns() / 1e6;
    let final_reopen_ms = spans
        .iter()
        .rev()
        .find(|s| s.name == "db.final_reopen")
        .map_or(0.0, |s| s.elapsed().as_secs_f64() * 1e3);
    put("recovery.scan_ms", scan_ms, "ms");
    put("recovery.rebuild_ms", final_reopen_ms - scan_ms, "ms");
    put(
        "snapshot.read_ms",
        trace::durations(&spans, "snapshot.read").iq_mean_ns() / 1e6,
        "ms",
    );
    put(
        "checkpoint_ms",
        trace::durations(&spans, "db.checkpoint").iq_mean_ns() / 1e6,
        "ms",
    );
    let (snap_bytes, snap_user) = match snapshot::read_snapshot(dir)? {
        Some((_, entries)) => (
            std::fs::metadata(dir.join("mmdb.snapshot"))
                .map(|md| md.len())
                .unwrap_or(0) as f64,
            entries
                .iter()
                .map(|e| e.domain.len() + e.key.len() + e.value.len())
                .sum::<usize>() as f64,
        ),
        None => (0.0, 0.0),
    };
    put(
        "snapshot.bytes_per_user_byte",
        ratio(snap_bytes, snap_user),
        "count",
    );

    // model stores: point lookups on the run's keys.
    let keys: Vec<(i64, String)> = (0..LOOKUPS)
        .map(|_| {
            let cid = rng.gen_range(1..=fx.customers());
            (
                cid,
                fx.original_order(rng.gen_range(0..fx.data.orders.len()))
                    .order_no
                    .clone(),
            )
        })
        .collect();
    let pool_before = world.pool().stats();
    let orders = world.collection("orders")?;
    let customers = world.catalog.table("customers")?;
    let doc = sample(LOOKUPS, |i| orders.get(&keys[i].1))?;
    let rel = sample(LOOKUPS, |i| customers.get(&Value::int(keys[i].0)))?;
    let kv = sample(LOOKUPS, |i| world.kv.get("cart", &keys[i].0.to_string()))?;
    let pool_after = world.pool().stats();
    put("document.get_ns", doc.iq_mean_ns(), "ns");
    put("relational.get_ns", rel.iq_mean_ns(), "ns");
    put("kv.get_ns", kv.iq_mean_ns(), "ns");
    let hits = (pool_after.hits - pool_before.hits) as f64;
    let misses = (pool_after.misses - pool_before.misses) as f64;
    put("buffer.hit_ratio", ratio(hits, hits + misses), "ratio");
    let social = world.graph("social")?;
    let starts: Vec<i64> = (0..200)
        .map(|_| rng.gen_range(1..=fx.customers()))
        .collect();
    let nb = sample(starts.len(), |i| {
        social.neighbors(
            &format!("persons/{}", starts[i]),
            Direction::Any,
            Some("knows"),
        )
    })?;
    put("graph.neighbors_us", us(nb.iq_mean_ns()), "us");
    let words: Vec<String> = (0..200).map(|_| fx.q3_input(&mut rng).1).collect();
    let search = {
        let ft = world.fulltext.read();
        let index = &ft
            .get("feedback_text")
            .ok_or_else(|| Error::NotFound("feedback_text".into()))?
            .index;
        sample(words.len(), |i| {
            Ok(mmdb_text::score::bm25_search(index, &words[i], 1_000))
        })?
    };
    put("text.search_us", us(search.iq_mean_ns()), "us");

    // query: stages of every query the run sent, replayed in place.
    let mut parts = [0.0; 4];
    let counts = *QUERY_COUNTS.lock().unwrap_or_else(PoisonError::into_inner);
    for (i, q) in QUERIES.iter().enumerate() {
        let [parse, plan, exec] =
            STAGE_SPANS[i].map(|name| us(trace::durations(&spans, name).iq_mean_ns()));
        let c = counts[i];
        let n = c.runs.max(1) as f64;
        put(&format!("query.parse_us.{q}"), parse, "us");
        put(&format!("query.plan_us.{q}"), plan, "us");
        put(&format!("query.exec_us.{q}"), exec, "us");
        put(
            &format!("query.rows_examined_per_row.{q}"),
            ratio(c.examined as f64, c.returned.max(1) as f64),
            "count",
        );
        put(
            &format!("query.index_scans.{q}"),
            c.index_scans as f64 / n,
            "count",
        );
        put(
            &format!("query.full_scans.{q}"),
            c.full_scans as f64 / n,
            "count",
        );
        parts[i] = parse + plan + exec;
    }

    // protocol: the codec on this run's own messages.
    let mut msgs = Vec::new();
    for (cid, order_no) in keys.iter().take(200) {
        let got = data::read_entity(db, *cid, order_no)?;
        let [a, b, c] = ops::entity_requests(*cid, order_no);
        msgs.push((a, Response::Maybe(got.0)));
        msgs.push((b, Response::Maybe(got.1)));
        msgs.push((c, Response::Maybe(got.2)));
    }
    let codec = sample(msgs.len(), |i| {
        let (req, resp) = &msgs[i];
        let r = Request::decode_with_id(&req.encode_with_id(Some(i as u64)))?;
        let s = Response::decode_with_id(&resp.encode_with_id(Some(i as u64)))?;
        Ok((r, s))
    })?;
    put("protocol.codec_ns", codec.iq_mean_ns(), "ns");

    // The gap between each end-to-end median and the layers timed for it.
    // Embedded, a new-order's parts are the MVCC commit, the hook apply,
    // the WAL append and, in `oltp_durable` only, the file sync. Over the
    // wire it is seven requests (begin, five operations, commit; two
    // pipelined batches) and an entity read three, each encoded and
    // decoded once and executed by the server, whose execution time
    // includes the engine's part.
    let wire = workload == Workload::WireMixed;
    let server = |cmd: &str| {
        m.layers
            .iter()
            .find(|(k, _, _)| k == &format!("server.exec_us.{cmd}"))
            .map_or(0.0, |(_, v, _)| *v)
    };
    let (neworder_parts, read_parts) = if wire {
        (
            vec![
                7.0 * us(codec.iq_mean_ns()),
                server("begin"),
                5.0 * server("op"),
                server("commit"),
            ],
            vec![3.0 * us(codec.iq_mean_ns()), 3.0 * server("op")],
        )
    } else {
        let mut parts = vec![
            us(commit.iq_mean_ns()),
            us(hook.iq_mean_ns()),
            us(append.iq_mean_ns()),
        ];
        if workload == Workload::OltpDurable {
            parts.push(us(sync.iq_mean_ns()));
        }
        (parts, vec![us(get_row + get_doc + get_kv)])
    };
    put(
        "unattributed_us.neworder",
        stats::unattributed(us(m.lat.neworder.cycle_median_ns()), &neworder_parts),
        "us",
    );
    put(
        "unattributed_us.point_read",
        stats::unattributed(us(m.lat.point_read.cycle_median_ns()), &read_parts),
        "us",
    );
    let lats = [&m.lat.q2, &m.lat.q3, &m.lat.q4_page, &m.lat.q5];
    for (i, q) in QUERIES.iter().enumerate() {
        put(
            &format!("unattributed_us.{q}"),
            stats::unattributed(us(lats[i].cycle_median_ns()), &[parts[i]]),
            "us",
        );
    }

    // Tracing cost: the same entity reads with spans off and on.
    let (mut off, mut on) = (Samples::default(), Samples::default());
    for block in 0..10 {
        let traced = block % 2 == 1;
        trace::set_enabled(traced);
        for (cid, order_no) in keys.iter().skip(block * 100).take(100) {
            let t = Instant::now();
            std::hint::black_box(data::read_entity(db, *cid, order_no)?);
            if traced {
                on.push(t.elapsed())
            } else {
                off.push(t.elapsed())
            }
        }
    }
    trace::set_enabled(true);
    put(
        "trace_overhead_pct",
        stats::overhead_pct(off.iq_mean_ns(), on.iq_mean_ns()),
        "%",
    );

    if !wire {
        out.extend(
            server_replay(db, fx)?
                .into_iter()
                .map(|(k, v, u)| (k, (v, u))),
        );
    }
    Ok(out.into_iter().map(|(k, (v, u))| (k, v, u)).collect())
}

/// Server metrics from `ADMIN STATS`: per-command execution medians,
/// queue peak and pipeline stalls, and the client-observed entity-read
/// time outside server execution.
pub fn server_stats(client: &mut Client, point_read: &Samples) -> Result<Vec<Metric>> {
    let stats = client.admin_stats()?;
    let mut exec: BTreeMap<String, f64> = BTreeMap::new();
    for c in stats.get_field("commands").as_array()? {
        exec.insert(
            c.get_field("command").as_str()?.to_string(),
            c.get_field("p50_us").as_int()? as f64,
        );
    }
    let cmd = |name: &str| exec.get(name).copied().unwrap_or(0.0);
    let pipeline = stats.get_field("pipeline");
    Ok(vec![
        ("server.exec_us.op".into(), cmd("op"), "us"),
        ("server.exec_us.query".into(), cmd("query"), "us"),
        ("server.exec_us.begin".into(), cmd("begin"), "us"),
        ("server.exec_us.commit".into(), cmd("commit"), "us"),
        (
            "server.outside_exec_us".into(),
            us(point_read.iq_mean_ns()) - 3.0 * cmd("op"),
            "us",
        ),
        (
            "server.queue_peak".into(),
            pipeline.get_field("executor_queue_peak").as_int()? as f64,
            "count",
        ),
        (
            "server.pipeline_stalls".into(),
            pipeline.get_field("depth_stalls").as_int()? as f64,
            "count",
        ),
    ])
}

/// For an embedded workload: a fresh server over the workload's final
/// database gets a sample of the run's requests — entity reads, Q5 and
/// new-orders — and reports its `ADMIN STATS`.
fn server_replay(db: &Arc<Database>, fx: &Fixture) -> Result<Vec<Metric>> {
    let server = Server::start(Arc::clone(db), ServerConfig::default())?;
    let result = (|| {
        let mut client = Client::connect(server.local_addr())?;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut reads = Samples::default();
        for _ in 0..REPLAY_READS {
            let cid = rng.gen_range(1..=fx.customers());
            let order = fx.original_order(rng.gen_range(0..fx.data.orders.len()));
            let t = Instant::now();
            ops::wire_entity(&mut client, cid, &order.order_no)?;
            reads.push(t.elapsed());
        }
        for _ in 0..REPLAY_QUERIES {
            ops::wire_query(&mut client, ops::q5_text(rng.gen_range(1..=fx.customers())))?;
        }
        // Writer number 9 is used by no workload, so the order keys are new.
        for i in 0..REPLAY_ORDERS {
            let cid = rng.gen_range(1..=fx.customers());
            ops::wire_new_order(&mut client, &fx.new_order(9, i, cid), 5)?;
        }
        server_stats(&mut client, &reads)
    })();
    server.shutdown()?;
    result
}
