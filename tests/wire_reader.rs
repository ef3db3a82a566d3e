//! The connection's read, execute and write path: frames arrive split
//! at any byte, several to a read, or larger than the read buffer;
//! session requests run on the reader in arrival order while stateless
//! ones run on the pool; inline responses reach a peer that stops
//! reading only until `write_timeout`; the client reads through its own
//! buffer; and a live server survives random and hostile frames.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmdb::{Database, Value};
use mmdb_client::Client;
use mmdb_protocol::{frame, Request, Response, SessionOp, PROTOCOL_VERSION};
use mmdb_server::{Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn start_server(config: ServerConfig) -> (Arc<Database>, Server, String) {
    let db = Arc::new(Database::in_memory());
    db.create_bucket("cart").unwrap();
    db.create_collection("docs").unwrap();
    let server = Server::start(Arc::clone(&db), config).unwrap();
    let addr = server.local_addr().to_string();
    (db, server, addr)
}

/// Wait until `cond` holds or panic after a few seconds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Raw-socket handshake so tests control frame bytes exactly.
fn raw_handshake(addr: &str) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.set_nodelay(true).unwrap();
    frame::write_frame(
        &mut raw,
        &Request::Hello { version: PROTOCOL_VERSION }.encode(),
        frame::MAX_FRAME_LEN,
    )
    .unwrap();
    let reply = frame::read_frame(&mut raw, frame::MAX_FRAME_LEN).unwrap();
    assert!(matches!(Response::decode(&reply).unwrap(), Response::Hello { .. }));
    raw
}

/// Frame every request (tagged with its id when given) into one buffer.
fn burst(reqs: &[(Option<u64>, Request)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (id, req) in reqs {
        frame::write_frame(&mut bytes, &req.encode_with_id(*id), frame::MAX_FRAME_LEN).unwrap();
    }
    bytes
}

fn read_response(raw: &mut TcpStream) -> (Option<u64>, Response) {
    let payload = frame::read_frame(raw, frame::MAX_FRAME_LEN).unwrap();
    Response::decode_with_id(&payload).unwrap()
}

/// Read `n` tagged responses, keyed by id.
fn read_tagged(raw: &mut TcpStream, n: usize) -> HashMap<u64, Response> {
    let mut got = HashMap::new();
    for _ in 0..n {
        let (id, resp) = read_response(raw);
        let id = id.expect("a tagged request is answered under its id");
        assert!(got.insert(id, resp).is_none(), "id {id} answered twice");
    }
    got
}

fn kv_put(key: &str, v: i64) -> Request {
    Request::Op(SessionOp::KvPut { bucket: "cart".into(), key: key.into(), value: Value::int(v) })
}

fn kv_get(key: &str) -> Request {
    Request::Op(SessionOp::KvGet { bucket: "cart".into(), key: key.into() })
}

fn query(text: &str) -> Request {
    Request::Query { text: text.into(), deadline_ms: None }
}

#[test]
fn a_pipelined_burst_split_at_every_byte_offset_is_served_whole() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut raw = raw_handshake(&addr);
    let reqs = [
        (Some(1), Request::Begin { serializable: false }),
        (Some(2), kv_put("split", 5)),
        (Some(3), kv_get("split")),
        (Some(4), Request::Ping),
        (Some(5), Request::Abort),
        (Some(6), kv_get("split")),
    ];
    let bytes = burst(&reqs);
    // Every offset, including the three inside the first 4-byte header.
    for cut in 0..=bytes.len() {
        raw.write_all(&bytes[..cut]).unwrap();
        // Give the reader time to take in the first part on its own.
        std::thread::sleep(Duration::from_micros(300));
        raw.write_all(&bytes[cut..]).unwrap();
        let got = read_tagged(&mut raw, reqs.len());
        assert!(matches!(got[&1], Response::TxnBegun { .. }), "cut {cut}: {:?}", got[&1]);
        assert_eq!(got[&2], Response::Ok, "cut {cut}");
        assert_eq!(got[&3], Response::Maybe(Some(Value::int(5))), "cut {cut}");
        assert_eq!(got[&4], Response::Pong, "cut {cut}");
        assert_eq!(got[&5], Response::Aborted, "cut {cut}");
        assert_eq!(got[&6], Response::Maybe(None), "cut {cut}: the abort undid the put");
    }
    server.shutdown().unwrap();
}

#[test]
fn many_frames_in_one_write_ending_in_a_partial_frame() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut raw = raw_handshake(&addr);
    let mut reqs: Vec<(Option<u64>, Request)> =
        (0..200).map(|i| (None, kv_put(&format!("k{i}"), i))).collect();
    reqs.push((None, kv_get("k199")));
    let bytes = burst(&reqs);
    let tail = burst(&reqs[reqs.len() - 1..]).len();
    // Everything but the last frame, plus half of it, in one write.
    let cut = bytes.len() - tail / 2;
    raw.write_all(&bytes[..cut]).unwrap();
    for _ in 0..200 {
        assert_eq!(read_response(&mut raw), (None, Response::Ok));
    }
    raw.write_all(&bytes[cut..]).unwrap();
    assert_eq!(read_response(&mut raw), (None, Response::Maybe(Some(Value::int(199)))));
    server.shutdown().unwrap();
}

#[test]
fn a_frame_larger_than_the_read_buffer_is_served() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    // Well past the 32 KiB read buffers on both ends.
    let big = Value::str("x".repeat(200_000));
    let put = Request::Op(SessionOp::KvPut { bucket: "cart".into(), key: "big".into(), value: big });

    // Raw: the big frame arrives in pieces, between two small ones.
    let mut raw = raw_handshake(&addr);
    let bytes = burst(&[(Some(1), Request::Ping), (Some(2), put), (Some(3), Request::Ping)]);
    for piece in bytes.chunks(50_000) {
        raw.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let got = read_tagged(&mut raw, 3);
    assert_eq!([&got[&1], &got[&2], &got[&3]], [&Response::Pong, &Response::Ok, &Response::Pong]);

    // Client: the big response comes back through its own buffer, with
    // small frames on either side.
    let mut client = Client::connect(&addr).unwrap();
    let ids: Vec<u64> = [Request::Ping, kv_get("big"), Request::Ping]
        .iter()
        .map(|r| client.submit(r).unwrap())
        .collect();
    assert_eq!(client.receive(ids[0]).unwrap(), Response::Pong);
    let Response::Maybe(Some(v)) = client.receive(ids[1]).unwrap() else { panic!() };
    assert_eq!(v.as_str().unwrap().len(), 200_000);
    assert_eq!(client.receive(ids[2]).unwrap(), Response::Pong);
    client.ping().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn a_frame_larger_than_the_read_buffer_that_stalls_is_cut_off() {
    let read_timeout = Duration::from_millis(300);
    let (_db, server, addr) = start_server(ServerConfig { read_timeout, ..ServerConfig::default() });
    let mut raw = raw_handshake(&addr);
    let put = Request::Op(SessionOp::KvPut {
        bucket: "cart".into(),
        key: "stall".into(),
        value: Value::str("s".repeat(100_000)),
    });
    let bytes = burst(&[(Some(1), put)]);
    // Half of a frame three times the buffer's size, then silence.
    raw.write_all(&bytes[..bytes.len() / 2]).unwrap();
    let started = Instant::now();
    match read_response(&mut raw).1 {
        Response::Err { kind, message } => {
            assert_eq!(kind, "storage");
            assert!(message.contains("stalled"), "{message}");
        }
        other => panic!("expected a stall error, got {other:?}"),
    }
    assert!(started.elapsed() < read_timeout * 5, "took {:?}", started.elapsed());
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap(), 0, "server closes the stalled connection");
    server.shutdown().unwrap();
}

#[test]
fn an_oversized_announced_length_is_rejected_before_the_payload_arrives() {
    let (_db, server, addr) = start_server(ServerConfig {
        max_frame_len: 64 * 1024,
        ..ServerConfig::default()
    });
    let mut raw = raw_handshake(&addr);
    // A header only: the server must not wait for (or allocate) the
    // announced payload before refusing it.
    raw.write_all(&(64 * 1024u32 + 1).to_be_bytes()).unwrap();
    let started = Instant::now();
    match read_response(&mut raw).1 {
        Response::Err { kind, message } => {
            assert_eq!(kind, "protocol");
            assert!(message.contains("exceeding"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(2));
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap(), 0, "server closes after the protocol error");
    Client::connect(&addr).unwrap().ping().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn an_idless_op_query_op_query_burst_answers_in_submission_order() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut raw = raw_handshake(&addr);
    let reqs = [
        (None, kv_put("fifo", 7)),
        (None, query("RETURN 1")),
        (None, kv_get("fifo")),
        (None, query("RETURN 2")),
    ];
    let expected = [
        Response::Ok,
        Response::Rows(vec![Value::int(1)]),
        Response::Maybe(Some(Value::int(7))),
        Response::Rows(vec![Value::int(2)]),
    ];
    for round in 0..20 {
        raw.write_all(&burst(&reqs)).unwrap();
        for want in &expected {
            let payload = frame::read_frame(&mut raw, frame::MAX_FRAME_LEN).unwrap();
            assert_eq!(payload, want.encode(), "round {round}: legacy bytes, legacy order");
        }
    }
    server.shutdown().unwrap();
}

#[test]
fn tagged_session_ops_interleaved_with_tagged_queries_answer_under_their_ids() {
    let (db, server, addr) = start_server(ServerConfig::default());
    for i in 0..2_000 {
        db.insert_json("docs", &format!("{{\"n\": {i}}}")).unwrap();
    }
    let mut raw = raw_handshake(&addr);
    let scan = "FOR d IN docs FILTER d.n >= 0 RETURN d.n";
    let reqs = [
        (Some(10), Request::Begin { serializable: false }),
        (Some(11), query(scan)),
        (Some(12), kv_put("mixed", 1)),
        (Some(13), query("RETURN 3")),
        (Some(14), kv_get("mixed")),
        (Some(15), Request::Commit),
        (Some(16), query("RETURN 4")),
    ];
    raw.write_all(&burst(&reqs)).unwrap();
    let got = read_tagged(&mut raw, reqs.len());
    assert!(matches!(got[&10], Response::TxnBegun { .. }), "{:?}", got[&10]);
    assert!(matches!(&got[&11], Response::Rows(rows) if rows.len() == 2_000), "{:?}", got[&11]);
    assert_eq!(got[&12], Response::Ok);
    assert_eq!(got[&13], Response::Rows(vec![Value::int(3)]));
    assert_eq!(got[&14], Response::Maybe(Some(Value::int(1))), "the txn reads its own write");
    assert!(matches!(got[&15], Response::Committed { .. }), "{:?}", got[&15]);
    assert_eq!(got[&16], Response::Rows(vec![Value::int(4)]));
    assert_eq!(db.kv().get("cart", "mixed").unwrap(), Some(Value::int(1)));
    server.shutdown().unwrap();
}

#[test]
fn a_peer_that_stops_reading_inline_responses_is_disconnected_and_reaped() {
    let write_timeout = Duration::from_millis(300);
    let (db, server, addr) = start_server(ServerConfig { write_timeout, ..ServerConfig::default() });
    let mut raw = raw_handshake(&addr);
    let big = Value::str("v".repeat(256 * 1024));
    let put = Request::Op(SessionOp::KvPut { bucket: "cart".into(), key: "big".into(), value: big });
    let mut reqs = vec![(Some(1), Request::Begin { serializable: false }), (Some(2), put)];
    // Hundreds of 256 KiB answers: far more than both kernel socket
    // buffers hold, so the reader's own write blocks.
    reqs.extend((3..400).map(|id| (Some(id), kv_get("big"))));
    raw.write_all(&burst(&reqs)).unwrap();
    // Never read. The reader's write must give up and the connection
    // must go, taking its open transaction with it.
    let started = Instant::now();
    eventually("non-reading peer disconnected", || {
        server.metrics().connections_active.load(Ordering::Relaxed) == 0
    });
    assert!(started.elapsed() < write_timeout * 5, "took {:?}", started.elapsed());
    assert_eq!(server.metrics().sessions_reaped.load(Ordering::Relaxed), 1);
    assert_eq!(db.kv().get("cart", "big").unwrap(), None, "the transaction was aborted");
    Client::connect(&addr).unwrap().ping().unwrap();
    server.shutdown().unwrap();
}

/// A scripted peer for client-side tests: answers the handshake, then
/// runs `script` on the accepted socket.
fn fake_server(script: impl FnOnce(&mut TcpStream) + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let hello = frame::read_frame(&mut sock, frame::MAX_FRAME_LEN).unwrap();
        assert!(matches!(Request::decode(&hello).unwrap(), Request::Hello { .. }));
        let reply = Response::Hello { version: PROTOCOL_VERSION, server: "fake".into() };
        frame::write_frame(&mut sock, &reply.encode(), frame::MAX_FRAME_LEN).unwrap();
        script(&mut sock);
    });
    addr
}

#[test]
fn client_call_after_a_pipelined_receive_reads_what_is_already_buffered() {
    let addr = fake_server(|sock| {
        let (id, req) = Request::decode_with_id(&frame::read_frame(sock, frame::MAX_FRAME_LEN).unwrap())
            .unwrap();
        assert_eq!((id, req), (Some(1), Request::Ping));
        // The pipelined answer and the answer to the *next* call, in one
        // write: the client takes both in with one read.
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, &Response::Pong.encode_with_id(Some(1)), frame::MAX_FRAME_LEN)
            .unwrap();
        frame::write_frame(&mut bytes, &Response::Key("early".into()).encode(), frame::MAX_FRAME_LEN)
            .unwrap();
        sock.write_all(&bytes).unwrap();
        // The call's request still arrives; its answer is already there.
        let next = frame::read_frame(sock, frame::MAX_FRAME_LEN).unwrap();
        assert!(matches!(Request::decode(&next).unwrap(), Request::Op(_)));
        let _ = sock.shutdown(Shutdown::Both);
    });
    let mut client = Client::connect(&addr).unwrap();
    let id = client.submit(&Request::Ping).unwrap();
    assert_eq!(client.receive(id).unwrap(), Response::Pong);
    let key = client.insert_document("docs", Value::object([("a", Value::int(1))])).unwrap();
    assert_eq!(key, "early", "answered from the bytes buffered by the earlier read");
}

#[test]
fn client_refuses_a_response_nested_past_the_cap() {
    let addr = fake_server(|sock| {
        let _ = frame::read_frame(sock, frame::MAX_FRAME_LEN).unwrap();
        let deep = (0..2_000).fold(Value::int(1), |v, _| Value::Array(vec![v]));
        frame::write_frame(sock, &Response::Maybe(Some(deep)).encode(), frame::MAX_FRAME_LEN)
            .unwrap();
    });
    let mut client = Client::connect(&addr).unwrap();
    let err = client.kv_get("cart", "deep").unwrap_err();
    assert_eq!(err.kind(), "protocol", "{err}");
    assert!(client.is_poisoned());
}

/// One hostile or broken connection's worth of bytes.
fn fuzz_bytes(rng: &mut SmallRng) -> Vec<u8> {
    let hello = burst(&[(None, Request::Hello { version: PROTOCOL_VERSION })]);
    let mut bytes = if rng.gen_bool(0.6) { hello } else { Vec::new() };
    match rng.gen_range(0..6) {
        // Random bytes.
        0 => bytes.extend((0..rng.gen_range(0..200)).map(|_| rng.gen::<u8>())),
        // A well-framed random payload.
        1 => {
            let payload: Vec<u8> = (0..rng.gen_range(0..300)).map(|_| rng.gen::<u8>()).collect();
            frame::write_frame(&mut bytes, &payload, frame::MAX_FRAME_LEN).unwrap();
        }
        // A valid request frame cut short.
        2 => {
            let whole = burst(&[(Some(rng.gen_range(0..9)), kv_put("fuzz", 1))]);
            bytes.extend_from_slice(&whole[..rng.gen_range(0..whole.len())]);
        }
        // Nested one-element arrays with no leaf, framed.
        3 => {
            let payload = [0x07u8, 1].repeat(rng.gen_range(1..40_000));
            frame::write_frame(&mut bytes, &payload, frame::MAX_FRAME_LEN).unwrap();
        }
        // A nesting prefix inside a valid-looking op, then garbage.
        4 => {
            let mut payload = Request::Op(SessionOp::InsertDocument {
                collection: "docs".into(),
                doc: Value::Null,
            })
            .encode();
            payload.pop(); // the Null leaf
            payload.extend([0x07u8, 1].repeat(rng.gen_range(1..5_000)));
            payload.extend((0..rng.gen_range(0..8)).map(|_| rng.gen::<u8>()));
            frame::write_frame(&mut bytes, &payload, frame::MAX_FRAME_LEN).unwrap();
        }
        // A header announcing more than will ever arrive.
        _ => {
            bytes.extend_from_slice(&rng.gen_range(1u32..u32::MAX).to_be_bytes());
            bytes.extend((0..rng.gen_range(0..50)).map(|_| rng.gen::<u8>()));
        }
    }
    bytes
}

#[test]
fn a_live_server_survives_random_truncated_and_nested_frames() {
    let (_db, server, addr) = start_server(ServerConfig {
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let addr = &addr;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x5eed ^ t);
                for _ in 0..25 {
                    let mut raw = TcpStream::connect(addr).unwrap();
                    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    let _ = raw.write_all(&fuzz_bytes(&mut rng));
                    // Sometimes linger past the mid-frame read timeout
                    // before hanging up, then take whatever the server
                    // says until it closes.
                    if rng.gen_bool(0.3) {
                        std::thread::sleep(Duration::from_millis(rng.gen_range(0..700)));
                    }
                    let _ = raw.shutdown(Shutdown::Write);
                    let mut sink = Vec::new();
                    let _ = raw.read_to_end(&mut sink);
                }
            });
        }
    });
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    client.kv_put("cart", "after", Value::int(1)).unwrap();
    assert_eq!(client.kv_get("cart", "after").unwrap(), Some(Value::int(1)));
    drop(client);
    eventually("every fuzz connection retired", || {
        server.metrics().connections_active.load(Ordering::Relaxed) == 0
    });
    server.shutdown().unwrap();
}
