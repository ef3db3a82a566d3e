//! Failure-path behavior of the client/server stack: malformed and
//! oversized frames, capacity rejection, client-side timeouts, session
//! reaping on disconnect, and graceful shutdown.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmdb::{Database, Value};
use mmdb_client::{Client, ClientConfig, Pool, PoolConfig};
use mmdb_protocol::{frame, Request, Response, PROTOCOL_VERSION};
use mmdb_server::{Server, ServerConfig};

fn start_server(config: ServerConfig) -> (Arc<Database>, Server, String) {
    let db = Arc::new(Database::in_memory());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), config).unwrap();
    let addr = server.local_addr().to_string();
    (db, server, addr)
}

/// Wait until `cond` holds or panic after a couple of seconds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn oversized_frame_gets_a_protocol_error_not_a_hang() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // A header announcing far more than MAX_FRAME_LEN. The server must
    // answer with a framed protocol error and close — without reading
    // (or allocating) the announced payload.
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let payload = frame::read_frame(&mut raw, frame::MAX_FRAME_LEN).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, "protocol"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // The connection is closed afterwards.
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap(), 0, "server closes after protocol error");

    // The server is still healthy for new connections.
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    assert!(server.metrics().errors_total.load(Ordering::Relaxed) <= 1);
    server.shutdown().unwrap();
}

#[test]
fn undecodable_payload_gets_a_protocol_error() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    frame::write_frame(&mut raw, &[0xff, 0xfe, 0xfd], frame::MAX_FRAME_LEN).unwrap();
    let payload = frame::read_frame(&mut raw, frame::MAX_FRAME_LEN).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, "protocol"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown().unwrap();
}

#[test]
fn handshake_is_required_and_version_checked() {
    let (_db, server, addr) = start_server(ServerConfig::default());

    // Skipping hello is a protocol error.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    frame::write_frame(&mut raw, &Request::Ping.encode(), frame::MAX_FRAME_LEN).unwrap();
    let payload = frame::read_frame(&mut raw, frame::MAX_FRAME_LEN).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, "protocol"),
        other => panic!("expected protocol error, got {other:?}"),
    }

    // A wrong version is refused.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    frame::write_frame(
        &mut raw,
        &Request::Hello { version: PROTOCOL_VERSION + 1 }.encode(),
        frame::MAX_FRAME_LEN,
    )
    .unwrap();
    let payload = frame::read_frame(&mut raw, frame::MAX_FRAME_LEN).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Err { kind, message } => {
            assert_eq!(kind, "protocol");
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown().unwrap();
}

#[test]
fn at_capacity_connections_get_a_clean_busy_error() {
    let (_db, server, addr) = start_server(ServerConfig {
        workers: 1,
        max_connections: 1,
        ..ServerConfig::default()
    });

    // First client occupies the only slot (handshake completed = accepted).
    let mut first = Client::connect(&addr).unwrap();
    first.ping().unwrap();

    // Second client is rejected with a retryable busy error.
    let err = Client::connect(&addr).unwrap_err();
    assert_eq!(err.kind(), "busy");
    assert!(err.is_retryable());
    assert_eq!(server.metrics().connections_rejected.load(Ordering::Relaxed), 1);

    // Freeing the slot lets a new connection in.
    drop(first);
    eventually("slot freed and connection accepted", || Client::connect(&addr).is_ok());
    server.shutdown().unwrap();
}

#[test]
fn client_read_timeout_surfaces_as_err() {
    // A listener that accepts and then stays silent.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(2));
        drop(stream);
    });

    let started = Instant::now();
    let err = Client::connect_with(
        &*addr,
        ClientConfig { read_timeout: Some(Duration::from_millis(200)), ..ClientConfig::default() },
    )
    .unwrap_err();
    assert_eq!(err.kind(), "storage", "timeout is an I/O-class error: {err}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "timeout must fire well before the server would answer"
    );
    hold.join().unwrap();
}

#[test]
fn a_slowloris_frame_is_cut_off_at_the_read_timeout() {
    let (_db, server, addr) = start_server(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Drip a frame header byte by byte and then stall, never completing
    // the frame. Each byte arrives "recently", but the frame as a whole
    // stalls past `read_timeout`: the worker must cut the connection off
    // instead of sitting captive for the (much longer) idle timeout.
    let started = Instant::now();
    for byte in &8u32.to_be_bytes()[..3] {
        raw.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
    }
    let payload = frame::read_frame(&mut raw, frame::MAX_FRAME_LEN).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Err { kind, message } => {
            assert_eq!(kind, "storage");
            assert!(message.contains("stalled"), "{message}");
        }
        other => panic!("expected a stall error, got {other:?}"),
    }
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap(), 0, "server closes the slowloris connection");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the cutoff tracks read_timeout, not idle_timeout"
    );

    // The worker is free again and the counters saw exactly one doomed
    // connection, which never got a request far enough to be counted.
    eventually("slowloris connection retired", || {
        server.metrics().connections_active.load(Ordering::Relaxed) == 0
    });
    let mut probe = Client::connect(&addr).unwrap();
    let stats = probe.admin_stats().unwrap();
    assert_eq!(stats.get_field("connections").get_field("accepted"), &Value::int(2));
    assert_eq!(stats.get_field("connections").get_field("active"), &Value::int(1));
    assert_eq!(stats.get_field("requests").get_field("errors"), &Value::int(0));
    server.shutdown().unwrap();
}

#[test]
fn idle_connections_are_reaped_after_the_idle_timeout() {
    let (_db, server, addr) = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();

    // Going quiet between frames trips `idle_timeout`, and the server
    // closes the connection without writing anything (a clean close, not
    // an error frame).
    eventually("idle connection reaped", || {
        server.metrics().connections_active.load(Ordering::Relaxed) == 0
    });
    assert!(client.ping().is_err(), "the reaped connection is dead from the client side");
    assert!(client.is_poisoned());

    // No transaction was open, so nothing needed force-aborting, and the
    // server keeps serving fresh connections.
    assert_eq!(server.metrics().sessions_reaped.load(Ordering::Relaxed), 0);
    let mut probe = Client::connect(&addr).unwrap();
    let stats = probe.admin_stats().unwrap();
    assert_eq!(stats.get_field("connections").get_field("accepted"), &Value::int(2));
    assert_eq!(stats.get_field("connections").get_field("active"), &Value::int(1));
    server.shutdown().unwrap();
}

#[test]
fn the_pool_health_check_replaces_reaped_connections() {
    let (_db, server, addr) = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    // `health_check_after: ZERO` pings every idle connection on checkout.
    let pool = Pool::new(
        &addr,
        PoolConfig {
            max_size: 2,
            health_check_after: Duration::ZERO,
            ..PoolConfig::default()
        },
    );
    {
        let mut conn = pool.get().unwrap();
        conn.ping().unwrap();
    } // back to the idle list
    eventually("server reaped the idle pooled connection", || {
        server.metrics().connections_active.load(Ordering::Relaxed) == 0
    });

    // Checkout pings the stale idle connection, finds it dead, discards
    // it, and hands out a fresh working one — the caller never sees the
    // corpse.
    let mut conn = pool.get().unwrap();
    conn.ping().unwrap();
    drop(conn);
    let stats = pool.stats();
    assert_eq!(stats.unhealthy_discarded, 1, "{stats:?}");
    assert_eq!(stats.open, 1, "the dead connection's slot was freed: {stats:?}");
    server.shutdown().unwrap();
}

#[test]
fn poisoned_connections_refuse_further_use() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    server.shutdown().unwrap();
    // The server is gone: the next call fails and poisons the client...
    assert!(client.ping().is_err());
    assert!(client.is_poisoned());
    // ...and later calls fail fast with a protocol error.
    assert_eq!(client.ping().unwrap_err().kind(), "protocol");
}

#[test]
fn disconnecting_mid_transaction_reaps_the_session() {
    let (db, server, addr) = start_server(ServerConfig::default());
    let (_, aborts_before) = db.mvcc().stats();

    let mut client = Client::connect(&addr).unwrap();
    client.begin(false).unwrap();
    client.kv_put("cart", "zombie", Value::int(1)).unwrap();
    drop(client); // vanish without commit or abort

    eventually("orphaned session reaped", || {
        server.metrics().sessions_reaped.load(Ordering::Relaxed) == 1
    });
    let (_, aborts_after) = db.mvcc().stats();
    assert!(aborts_after > aborts_before, "engine recorded the abort");
    assert!(db.kv().get("cart", "zombie").unwrap().is_none(), "no trace of the orphan");
    server.shutdown().unwrap();
}

#[test]
fn shutdown_drains_open_connections_and_aborts_their_transactions() {
    let (db, server, addr) = start_server(ServerConfig::default());

    // One connection idles; one holds an open transaction with writes.
    let mut idle = Client::connect(&addr).unwrap();
    idle.ping().unwrap();
    let mut in_txn = Client::connect(&addr).unwrap();
    in_txn.begin(false).unwrap();
    in_txn.kv_put("cart", "w", Value::int(1)).unwrap();

    let (_, aborts_before) = db.mvcc().stats();
    let started = Instant::now();
    server.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "graceful shutdown must not hang on open connections"
    );

    // The orphaned transaction was aborted, not leaked.
    let (_, aborts_after) = db.mvcc().stats();
    assert!(aborts_after > aborts_before);
    assert!(db.kv().get("cart", "w").unwrap().is_none());

    // Both clients now observe a dead server.
    assert!(idle.ping().is_err());
    assert!(in_txn.ping().is_err());

    // The port no longer accepts mmdb connections.
    assert!(Client::connect(&addr).is_err());
}

/// `levels` of one-element arrays around the integer 1, as JSON text:
/// nesting depth `levels + 1` the way the JSON parser counts it.
fn nested_json(levels: usize) -> String {
    format!("{}1{}", "[".repeat(levels), "]".repeat(levels))
}

/// A second connection still answers: the server process survived.
fn assert_server_alive(addr: &str) {
    let mut probe = Client::connect(addr).unwrap();
    probe.ping().unwrap();
}

#[test]
fn a_deeply_nested_frame_before_the_handshake_is_refused_not_fatal() {
    // 20 000 nested one-element arrays: 40 KB on the wire. Decoding it
    // recursively used to overflow the connection thread's stack and
    // abort the whole server.
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut payload = [0x07u8, 1].repeat(20_000); // array tag, one element
    payload.push(0x00); // null leaf
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    frame::write_frame(&mut raw, &payload, frame::MAX_FRAME_LEN).unwrap();
    // A framed protocol error, or just a closed connection.
    if let Ok(reply) = frame::read_frame(&mut raw, frame::MAX_FRAME_LEN) {
        match Response::decode(&reply).unwrap() {
            Response::Err { kind, .. } => assert_eq!(kind, "protocol"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        let mut buf = [0u8; 1];
        assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "server closes after protocol error");
    }
    assert_server_alive(&addr);
    server.shutdown().unwrap();
}

#[test]
fn a_document_nested_past_the_cap_gets_a_protocol_error() {
    let (db, server, addr) = start_server(ServerConfig::default());
    db.create_collection("docs").unwrap();
    let mut client = Client::connect(&addr).unwrap();
    // 1 024 levels: deeper than JSON text may nest, so built directly.
    let deep = Value::object([("d", (0..1_022).fold(Value::int(1), |v, _| Value::Array(vec![v])))]);
    let err = client.insert_document("docs", deep).unwrap_err();
    assert_eq!(err.kind(), "protocol", "{err}");
    assert_server_alive(&addr);
    assert_eq!(db.query("FOR d IN docs RETURN d").unwrap().len(), 0);
    server.shutdown().unwrap();
}

#[test]
fn a_query_nested_past_the_parser_cap_is_a_parse_error() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let err = client.query(&format!("RETURN {}", nested_json(100_000))).unwrap_err();
    assert_eq!(err.kind(), "parse", "{err}");
    // A query error leaves the connection usable.
    client.ping().unwrap();
    assert_server_alive(&addr);
    server.shutdown().unwrap();
}

#[test]
fn a_document_at_the_nesting_cap_round_trips_through_a_transaction() {
    let (db, server, addr) = start_server(ServerConfig::default());
    db.create_collection("docs").unwrap();
    // {"d": [[…1…]]} nests exactly MAX_DEPTH levels: the deepest JSON
    // text the parser accepts.
    let text = format!("{{\"d\": {}}}", nested_json(mmdb_types::json::MAX_DEPTH - 2));
    let doc = mmdb_types::from_json(&text).unwrap();
    let mut client = Client::connect(&addr).unwrap();
    client.begin(false).unwrap();
    let key = client.insert_document("docs", doc.clone()).unwrap();
    let staged = client.get_document("docs", &key).unwrap().unwrap();
    assert_eq!(staged.get_field("d"), doc.get_field("d"));
    client.commit().unwrap();
    let committed = client.get_document("docs", &key).unwrap().unwrap();
    assert_eq!(committed.get_field("d"), doc.get_field("d"));
    // One level deeper is past what JSON text may carry.
    let too_deep = format!("{{\"d\": {}}}", nested_json(mmdb_types::json::MAX_DEPTH - 1));
    assert!(mmdb_types::from_json(&too_deep).is_err());
    server.shutdown().unwrap();
}
