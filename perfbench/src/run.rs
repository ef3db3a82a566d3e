//! The three workloads and the phases they share.
//!
//! Every workload reports every end-to-end metric, each measured in that
//! workload's own deployment: a workload's main load is the one it
//! exists for, and shorter blocks between its blocks time the operation
//! types the main load does not run. Run length is set by operation
//! counts derived from `--seconds`, never by wall time, so two commits
//! always measure identical work.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmdb_bench::gen::Order;
use mmdb_bench::workloads;
use mmdb_client::Client;
use mmdb_core::Database;
use mmdb_server::{Server, ServerConfig};
use mmdb_types::{Error, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::data::{self, check_entity, check_products, Acked, Fixture, Oracle};
use crate::layers::{self, Counters, Metric};
use crate::ops::{self, Embedded, Reader, Wire};
use crate::stats::Samples;
use crate::trace::span;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Conflict retries a new-order gets before it counts as failed.
const MAX_RETRIES: usize = 5;
/// Per query round: Q2, Q3 and Q5 executions and entity reads (and one
/// `q4_page`, the most expensive query).
const Q2_PER_ROUND: usize = 3;
const Q3_PER_ROUND: usize = 20;
const Q5_PER_ROUND: usize = 20;
const READS_PER_ROUND: usize = 300;
/// Writer threads (`oltp_durable`) and client connections
/// (`wire_mixed`): the host's two cores.
const CLIENTS: usize = 2;

/// A workload: one deployment and one traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Embedded, file WAL + fdatasync, two writers of new-order: the only
    /// workload with fsync, group commit and recovery on the critical path.
    OltpDurable,
    /// Embedded, one thread of interleaved cross-model queries and entity
    /// reads on a database nothing writes: the read path, and the workload
    /// a write-path change should leave unchanged.
    QueryMix,
    /// Loopback server, two connections of reads, new-orders and Q5: the
    /// only workload with protocol, server and client on the critical path.
    WireMixed,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "oltp_durable" => Some(Workload::OltpDurable),
            "query_mix" => Some(Workload::QueryMix),
            "wire_mixed" => Some(Workload::WireMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpDurable => "oltp_durable",
            Workload::QueryMix => "query_mix",
            Workload::WireMixed => "wire_mixed",
        }
    }
}

/// How one run is sized.
#[derive(Debug, Clone)]
pub struct Plan {
    /// UniBench scale factor.
    pub scale: f64,
    /// Timed set-ups.
    pub setups: usize,
    /// Cycles per run.
    pub cycles: usize,
    /// New-orders per writer per cycle in `oltp_durable`.
    pub durable_orders: usize,
    /// Query rounds per cycle in `query_mix`.
    pub mix_rounds: usize,
    /// New-orders per cycle in `query_mix` (one thread).
    pub side_orders: usize,
    /// Operations per connection per cycle in `wire_mixed`.
    pub wire_ops: usize,
}

impl Plan {
    /// The plan for `--seconds secs` at scale 0.5: one cycle per two
    /// seconds, each of a fixed size, so the work done depends on `secs`
    /// alone and not on how fast this host happens to be.
    pub fn for_seconds(secs: u64) -> Plan {
        Plan {
            scale: data::SCALE,
            setups: SETUP_REPS,
            cycles: (secs as usize / 2).max(2),
            durable_orders: 500,
            mix_rounds: 3,
            side_orders: 1_000,
            wire_ops: 600,
        }
    }

    /// A tiny plan for smoke tests.
    pub fn smoke() -> Plan {
        Plan {
            scale: 0.05,
            setups: 1,
            cycles: 2,
            durable_orders: 10,
            mix_rounds: 1,
            side_orders: 10,
            wire_ops: 20,
        }
    }
}

/// Operations attempted and failed. A failure is a non-retryable error,
/// a new-order that ran out of retries, or a failed output check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (checks of recovered state included).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one attempt and its outcome.
    pub fn attempt<T>(&mut self, r: Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, e: Error) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e.to_string());
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Latency samples per operation type.
#[derive(Debug, Default)]
pub struct Lat {
    /// New-order transactions.
    pub neworder: Samples,
    /// Three-model entity reads.
    pub point_read: Samples,
    /// Q2 executions.
    pub q2: Samples,
    /// Q3 executions.
    pub q3: Samples,
    /// `q4_page` executions.
    pub q4_page: Samples,
    /// Q5 executions.
    pub q5: Samples,
    /// Reopens replaying the whole log of the first cycle.
    pub reopen: Samples,
    /// Reopens of the same state from a checkpoint snapshot.
    pub reopen_ckpt: Samples,
    /// Set-ups.
    pub setup: Samples,
}

impl Lat {
    /// End a cycle in every operation type's samples.
    fn cut(&mut self) {
        for s in [
            &mut self.neworder,
            &mut self.point_read,
            &mut self.q2,
            &mut self.q3,
            &mut self.q4_page,
            &mut self.q5,
            &mut self.reopen,
            &mut self.reopen_ckpt,
        ] {
            s.cut();
        }
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latencies.
    pub lat: Lat,
    /// Outcome counts.
    pub tally: Tally,
    /// Operations per second of the main load, one entry per cycle.
    pub main_rates: Vec<f64>,
    /// Acknowledged new-orders per second, one entry per block of them.
    pub order_rates: Vec<f64>,
    /// Acknowledged new orders.
    pub acked: Acked,
    /// Engine counter deltas over the new-order blocks.
    pub commit: Counters,
    /// Layer measurements of a traced run.
    pub layers: Vec<Metric>,
}

/// Run `f` inside the span `name`, adding its duration to `samples`
/// when it succeeds.
fn timed<T>(samples: &mut Samples, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    let t = Instant::now();
    let r = span(name, f);
    if r.is_ok() {
        samples.push(t.elapsed());
    }
    r
}

/// One of a query round's operations.
enum QOp {
    Q2,
    Q4(i64),
    Q3(String, String),
    Q5(i64),
    Read(i64, usize),
}

/// One query round: one `q4_page`, Q2, Q3 and Q5 executions and entity
/// reads, shuffled so every operation type is spread over the round.
#[allow(clippy::too_many_arguments)]
pub fn query_round(
    reader: &mut dyn Reader,
    fx: &Fixture,
    oracle: &mut Oracle,
    page: i64,
    rng: &mut SmallRng,
    lat: &mut Lat,
    tally: &mut Tally,
) -> usize {
    let n = fx.customers();
    let mut round = vec![QOp::Q4(page)];
    round.extend((0..Q2_PER_ROUND).map(|_| QOp::Q2));
    for _ in 0..Q3_PER_ROUND {
        let (c, w) = fx.q3_input(rng);
        round.push(QOp::Q3(c, w));
    }
    for _ in 0..Q5_PER_ROUND {
        round.push(QOp::Q5(rng.gen_range(1..=n)));
    }
    for _ in 0..READS_PER_ROUND {
        round.push(QOp::Read(
            rng.gen_range(1..=n),
            rng.gen_range(0..fx.data.orders.len()),
        ));
    }
    data::shuffle(&mut round, rng);
    let ops = round.len();
    for op in round {
        if crate::trace::enabled() {
            let replay = match &op {
                QOp::Q2 => Some((0, ops::q2_text())),
                QOp::Q3(c, w) => Some((1, ops::q3_text(c, w))),
                QOp::Q4(page) => Some((2, ops::q4_page_text(*page))),
                QOp::Q5(cid) => Some((3, ops::q5_text(*cid))),
                QOp::Read(..) => None,
            };
            if let Some((q, text)) = replay {
                tally.attempt(layers::replay_query(reader.db(), q, &text));
            }
        }
        let r = match op {
            QOp::Q2 => oracle.q2().map(<[_]>::to_vec).and_then(|want| {
                let got = timed(&mut lat.q2, "op.q2", || reader.q2())?;
                if let Some(db) = reader.reference() {
                    ops::same_as_embedded("Q2", &got, Embedded(db).q2())?;
                }
                if got == want {
                    Ok(())
                } else {
                    Err(data::mismatch(format!(
                        "Q2 returned {} products, baseline {}",
                        got.len(),
                        want.len()
                    )))
                }
            }),
            QOp::Q4(page) => oracle.q4_page(page).map(<[_]>::to_vec).and_then(|want| {
                let got = timed(&mut lat.q4_page, "op.q4_page", || reader.q4_page(page))?;
                if let Some(db) = reader.reference() {
                    ops::same_as_embedded("q4_page", &got, Embedded(db).q4_page(page))?;
                }
                if got == want {
                    Ok(())
                } else {
                    Err(data::mismatch(format!(
                        "q4_page {page}: {got:?} != baseline {want:?}"
                    )))
                }
            }),
            QOp::Q3(c, w) => timed(&mut lat.q3, "op.q3", || reader.q3(&c, &w)).and_then(|got| {
                if let Some(db) = reader.reference() {
                    ops::same_as_embedded("Q3", &got, Embedded(db).q3(&c, &w))?;
                }
                check_products(fx, &got, Some(&c))
            }),
            QOp::Q5(cid) => timed(&mut lat.q5, "op.q5", || reader.q5(cid)).and_then(|got| {
                if let Some(db) = reader.reference() {
                    ops::same_as_embedded("Q5", &got, Embedded(db).q5(cid))?;
                }
                check_products(fx, &got, None)
            }),
            QOp::Read(cid, o) => {
                let order = fx.original_order(o);
                timed(&mut lat.point_read, "op.point_read", || {
                    reader.entity(cid, &order.order_no)
                })
                .and_then(|got| {
                    if let Some(db) = reader.reference() {
                        ops::same_as_embedded(
                            "entity read",
                            &got,
                            data::read_entity(db, cid, &order.order_no),
                        )?;
                    }
                    check_entity(oracle, cid, order, &got)
                })
            }
        };
        tally.attempt(r);
    }
    ops
}

/// Customers writer `t` of `writers` owns, out of `of` partitions.
fn owned(fx: &Fixture, t: usize, of: usize) -> Vec<i64> {
    (1..=fx.customers())
        .filter(|c| (*c - 1) as usize % of == t)
        .collect()
}

/// Closed-loop embedded new-order: `writers` threads, `per_writer`
/// orders each, on disjoint customers. `block` numbers the call, so
/// order keys stay unique across blocks.
fn neworder_block(
    db: &Database,
    fx: &Fixture,
    writers: usize,
    per_writer: usize,
    block: usize,
    m: &mut Measured,
) {
    let before = Counters::read(db);
    let t0 = Instant::now();
    let results: Vec<(Samples, Acked, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                s.spawn(move || {
                    let mine = owned(fx, t, writers);
                    let (mut lat, mut acked, mut tally) =
                        (Samples::default(), Acked::default(), Tally::default());
                    for i in block * per_writer..(block + 1) * per_writer {
                        let order = fx.new_order(t, i, mine[i % mine.len()]);
                        let doc = order.to_document();
                        let r = timed(&mut lat, "op.neworder", || {
                            workloads::place_order_mmdb(db, order.customer_id, &doc)
                        });
                        if tally.attempt(r).is_some() {
                            acked.push(order);
                        }
                    }
                    (lat, acked, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    m.commit.add(before, Counters::read(db));
    let acked_before = m.acked.len();
    for (lat, acked, tally) in results {
        m.lat.neworder.extend(lat);
        m.acked.merge(acked);
        m.tally.merge(tally);
    }
    m.order_rates
        .push((m.acked.len() - acked_before) as f64 / elapsed);
}

/// The reopens of a run. The log as of the first cycle is kept twice —
/// whole, and checkpointed — and both copies are reopened and checked
/// once per cycle, so `reopen_ms` and `reopen_ckpt_ms` time the same
/// recovery at every point of the run. The final log is reopened and
/// checked once, at the end ([`final_phase`]).
struct Reopens {
    full: PathBuf,
    ckpt: PathBuf,
    first: Option<(Acked, Oracle)>,
}

impl Reopens {
    fn new(dir: &Path) -> Reopens {
        Reopens {
            full: dir.join("full"),
            ckpt: dir.join("ckpt"),
            first: None,
        }
    }

    /// One cycle's reopens; `log` is what a restart now would recover.
    fn cycle(
        &mut self,
        log: impl FnOnce() -> Result<Vec<u8>>,
        fx: &Fixture,
        m: &mut Measured,
    ) -> Result<()> {
        if self.first.is_none() {
            let log = log()?;
            write_log(&self.full, &log)?;
            write_log(&self.ckpt, &log)?;
            Database::open(&self.ckpt)?.checkpoint()?;
            let oracle = Oracle::new(data::expected(&fx.data, &m.acked));
            self.first = Some((m.acked.clone(), oracle));
        }
        let Some((acked, oracle)) = &self.first else {
            return Err(Error::Internal("first-cycle log missing".into()));
        };
        for (dir, samples, name) in [
            (&self.full, &mut m.lat.reopen, "op.reopen"),
            (&self.ckpt, &mut m.lat.reopen_ckpt, "op.reopen_ckpt"),
        ] {
            let db = timed(samples, name, || Database::open(dir))?;
            m.tally.attempt(data::check_state(&db, fx, oracle, acked));
        }
        Ok(())
    }
}

/// End of a run: close-and-reopen of the final log in `dir`, a
/// checkpoint, and a reopen from it, each checked. Returns the database
/// reopened, ready for queries.
fn final_phase(dir: &Path, fx: &Fixture, m: &mut Measured) -> Result<Arc<Database>> {
    let oracle = Oracle::new(data::expected(&fx.data, &m.acked));
    if crate::trace::enabled() {
        span("wal.recover_scan", || {
            mmdb_storage::wal::recover_from_file_after(dir.join("mmdb.wal"), 0)
        })?;
    }
    let db = span("db.final_reopen", || Database::open(dir))?;
    m.tally
        .attempt(data::check_state(&db, fx, &oracle, &m.acked));
    span("db.checkpoint", || db.checkpoint())?;
    drop(db);
    if crate::trace::enabled() {
        span("snapshot.read", || {
            mmdb_storage::snapshot::read_snapshot(dir)
        })?;
    }
    let db = Database::open(dir)?;
    m.tally
        .attempt(data::check_state(&db, fx, &oracle, &m.acked));
    data::index_feedback(&db)?;
    Ok(Arc::new(db))
}

/// Write `log` as `dir/mmdb.wal`, the log a restart would recover, and
/// sync it, so its write-back does not land on the next block's fsyncs.
fn write_log(dir: &Path, log: &[u8]) -> Result<()> {
    use std::io::Write;
    fresh_dir(dir)?;
    let mut f = std::fs::File::create(dir.join("mmdb.wal"))
        .map_err(|e| Error::Storage(format!("create log copy: {e}")))?;
    f.write_all(log)
        .and_then(|()| f.sync_all())
        .map_err(|e| Error::Storage(format!("write log copy: {e}")))
}

/// The log of an in-memory database.
fn memory_log(db: &Database) -> Result<Vec<u8>> {
    let wal = db
        .wal()
        .ok_or_else(|| Error::Internal("database has no log".into()))?;
    Ok(wal.snapshot_bytes())
}

fn fresh_dir(dir: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| Error::Storage(format!("create {dir:?}: {e}")))
}

/// Set up `reps` times, timing each, and keep the last.
fn setup<T>(m: &mut Measured, reps: usize, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        last = Some(timed(&mut m.lat.setup, "op.setup", &mut f)?);
    }
    last.ok_or_else(|| Error::Internal("no set-up ran".into()))
}

/// Run `workload` once. A run is `plan.cycles` cycles; each cycle runs a
/// block of the workload's main load and of every other operation type,
/// so each metric samples the whole run rather than one stretch of it.
pub fn run(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    dir: &Path,
    trace: bool,
) -> Result<Measured> {
    let fx = Fixture::new(plan.scale, seed);
    let mut m = Measured::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let first_page = rng.gen_range(0..fx.pages());
    let page = |r: usize| (first_page + r as i64) % fx.pages();
    let db_dir = dir.join("db");
    let final_dir = dir.join("final");
    let mut reopens = Reopens::new(dir);
    let final_db = match workload {
        Workload::OltpDurable => {
            let db = setup(&mut m, plan.setups, || {
                fresh_dir(&db_dir)?;
                let db = Database::open(&db_dir)?;
                data::load(&db, &fx.data)?;
                Ok(db)
            })?;
            for c in 0..plan.cycles {
                neworder_block(&db, &fx, CLIENTS, plan.durable_orders, c, &mut m);
                let mut oracle = Oracle::new(data::expected(&fx.data, &m.acked));
                oracle.q2()?;
                oracle.q4_page(page(c))?;
                query_round(
                    &mut Embedded(&db),
                    &fx,
                    &mut oracle,
                    page(c),
                    &mut rng,
                    &mut m.lat,
                    &mut m.tally,
                );
                // Every commit so far is synced, so the log file is what
                // a crash now would leave behind.
                let log = || {
                    std::fs::read(db_dir.join("mmdb.wal"))
                        .map_err(|e| Error::Storage(format!("read log: {e}")))
                };
                reopens.cycle(log, &fx, &mut m)?;
                m.lat.cut();
            }
            m.main_rates = m.order_rates.clone();
            drop(db);
            final_phase(&db_dir, &fx, &mut m)?
        }
        Workload::QueryMix => {
            // Queries read `a`, which nothing writes; new-orders and
            // reopens use `b`, loaded with the same data.
            let (a, b) = setup(&mut m, plan.setups, || {
                let (a, b) = (Database::in_memory_logged(), Database::in_memory_logged());
                data::load(&a, &fx.data)?;
                data::load(&b, &fx.data)?;
                Ok((a, b))
            })?;
            let mut oracle_a = Oracle::new(fx.data.clone());
            for c in 0..plan.cycles {
                let (mut ops, mut time) = (0, Duration::ZERO);
                for r in 0..plan.mix_rounds {
                    let p = page(c * plan.mix_rounds + r);
                    // Expected answers are built outside the timed loop.
                    oracle_a.q2()?;
                    oracle_a.q4_page(p)?;
                    let t0 = Instant::now();
                    ops += query_round(
                        &mut Embedded(&a),
                        &fx,
                        &mut oracle_a,
                        p,
                        &mut rng,
                        &mut m.lat,
                        &mut m.tally,
                    );
                    time += t0.elapsed();
                }
                m.main_rates.push(ops as f64 / time.as_secs_f64());
                neworder_block(&b, &fx, 1, plan.side_orders, c, &mut m);
                reopens.cycle(|| memory_log(&b), &fx, &mut m)?;
                m.lat.cut();
            }
            write_log(&final_dir, &memory_log(&b)?)?;
            final_phase(&final_dir, &fx, &mut m)?
        }
        Workload::WireMixed => {
            let (db, server) = setup(&mut m, plan.setups, || {
                let db = Arc::new(Database::in_memory_logged());
                data::load(&db, &fx.data)?;
                let server = Server::start(Arc::clone(&db), ServerConfig::default())?;
                Ok(ServerGuard(Some(server), db))
            })
            .map(|mut g| (Arc::clone(&g.1), g.0.take()))?;
            let server = server.ok_or_else(|| Error::Internal("server missing".into()))?;
            let addr = server.local_addr().to_string();
            let initial = Oracle::new(fx.data.clone());
            let mut client = Client::connect(&addr)?;
            for c in 0..plan.cycles {
                wire_block(&db, &addr, &fx, &initial, plan.wire_ops, seed, c, &mut m)?;
                let mut oracle = Oracle::new(data::expected(&fx.data, &m.acked));
                oracle.q2()?;
                oracle.q4_page(page(c))?;
                let mut wire = Wire {
                    client: &mut client,
                    check: Arc::clone(&db),
                };
                query_round(
                    &mut wire,
                    &fx,
                    &mut oracle,
                    page(c),
                    &mut rng,
                    &mut m.lat,
                    &mut m.tally,
                );
                reopens.cycle(|| memory_log(&db), &fx, &mut m)?;
                m.lat.cut();
            }
            if trace {
                m.layers = layers::server_stats(&mut client, &m.lat.point_read)?;
            }
            drop(client);
            server.shutdown()?;
            write_log(&final_dir, &memory_log(&db)?)?;
            drop(db);
            final_phase(&final_dir, &fx, &mut m)?
        }
    };
    if trace {
        let log_dir = if workload == Workload::OltpDurable {
            &db_dir
        } else {
            &final_dir
        };
        let mut layers = layers::collect(workload, &final_db, log_dir, &fx, &m)?;
        layers.append(&mut m.layers);
        m.layers = layers;
    }
    Ok(m)
}

/// Shuts a set-up's server down when a later set-up replaces it.
struct ServerGuard(Option<Server>, Arc<Database>);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let _ = s.shutdown();
        }
    }
}

/// What one wire connection does next.
enum WireOp {
    Read(i64, usize),
    NewOrder(Order),
    Q5(i64),
}

/// A block of `wire_mixed`'s main load: `CLIENTS` connections in a
/// closed loop of ~80% entity reads (one pipelined batch of three
/// reads), ~10% new-orders on the session lane and ~10% Q5 on the
/// executor pool. Connection `t` writes only customers `≡ t (mod 4)` and
/// reads only customers `≡ 2, 3 (mod 4)`, so every wire read can be
/// compared with an embedded read of the same keys.
#[allow(clippy::too_many_arguments)]
fn wire_block(
    db: &Arc<Database>,
    addr: &str,
    fx: &Fixture,
    oracle: &Oracle,
    ops: usize,
    seed: u64,
    block: usize,
    m: &mut Measured,
) -> Result<()> {
    let readable: Vec<i64> = (1..=fx.customers()).filter(|c| (*c - 1) % 4 >= 2).collect();
    let before = Counters::read(db);
    let t0 = Instant::now();
    type Outcome = (Lat, Acked, Tally, Vec<(i64, usize, data::Entity)>);
    let results: Vec<Result<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let readable = &readable;
                s.spawn(move || -> Result<Outcome> {
                    let mut rng = SmallRng::seed_from_u64(
                        seed.wrapping_mul(31)
                            .wrapping_add((block * CLIENTS + t) as u64),
                    );
                    let mine = owned(fx, t, 4);
                    let mut client = Client::connect(addr)?;
                    let (mut lat, mut acked, mut tally) =
                        (Lat::default(), Acked::default(), Tally::default());
                    let mut reads = Vec::new();
                    for i in block * ops..(block + 1) * ops {
                        let op = match rng.gen_range(0..10) {
                            0 => WireOp::NewOrder(fx.new_order(t, i, mine[i % mine.len()])),
                            1 => WireOp::Q5(rng.gen_range(1..=fx.customers())),
                            _ => WireOp::Read(
                                readable[rng.gen_range(0..readable.len())],
                                rng.gen_range(0..fx.data.orders.len()),
                            ),
                        };
                        match op {
                            WireOp::Read(cid, o) => {
                                let order = fx.original_order(o);
                                let r = timed(&mut lat.point_read, "op.point_read", || {
                                    ops::wire_entity(&mut client, cid, &order.order_no)
                                });
                                // Checked after the block, so the checks do
                                // not compete with the server for the CPU.
                                match r {
                                    Ok(got) => reads.push((cid, o, got)),
                                    Err(e) => {
                                        tally.attempt::<()>(Err(e));
                                    }
                                }
                            }
                            WireOp::NewOrder(order) => {
                                let r = timed(&mut lat.neworder, "op.neworder", || {
                                    ops::wire_new_order(&mut client, &order, MAX_RETRIES)
                                });
                                if tally.attempt(r).is_some() {
                                    acked.push(order);
                                }
                            }
                            WireOp::Q5(cid) => {
                                let r = timed(&mut lat.q5, "op.q5", || {
                                    ops::strings(ops::wire_query(&mut client, ops::q5_text(cid))?)
                                })
                                .and_then(|got| check_products(fx, &got, None));
                                tally.attempt(r);
                            }
                        }
                    }
                    Ok((lat, acked, tally, reads))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    m.main_rates.push((CLIENTS * ops) as f64 / elapsed);
    m.commit.add(before, Counters::read(db));
    let acked_before = m.acked.len();
    for r in results {
        let (lat, acked, mut tally, reads) = r?;
        for (cid, o, got) in reads {
            let order = fx.original_order(o);
            let embedded = data::read_entity(db, cid, &order.order_no);
            tally.attempt(
                ops::same_as_embedded("entity read", &got, embedded)
                    .and_then(|()| check_entity(oracle, cid, order, &got)),
            );
        }
        m.lat.neworder.extend(lat.neworder);
        m.lat.point_read.extend(lat.point_read);
        m.lat.q5.extend(lat.q5);
        m.acked.merge(acked);
        m.tally.merge(tally);
    }
    m.order_rates
        .push((m.acked.len() - acked_before) as f64 / elapsed);
    Ok(())
}

/// The scratch directory a run works in, inside the current directory.
pub fn work_dir(workload: Workload) -> PathBuf {
    PathBuf::from(".bench_data").join(format!("{}-{}", workload.name(), std::process::id()))
}
