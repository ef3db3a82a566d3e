//! Property-based tests for the wire protocol: frame round-trips,
//! request/response codec round-trips, and the robustness half of the
//! contract — truncated or random bytes must come back as errors, never
//! as panics or hangs.

use mmdb_protocol::{frame, DdlOp, Request, Response, SessionOp, MAX_WIRE_DEPTH};
use mmdb_types::codec::{value_from_bytes, value_to_bytes};
use mmdb_types::json::MAX_DEPTH;
use mmdb_types::Value;
use proptest::prelude::*;

/// Arbitrary mmdb values (bounded depth/size), as in `mmdb-types`' own
/// property tests.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::int),
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::float),
        "[a-zA-Z0-9 _\\-]{0,12}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..5).prop_map(Value::object),
        ]
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Commit),
        Just(Request::Abort),
        any::<i64>().prop_map(|version| Request::Hello { version }),
        ("[ -~]{0,40}", prop_oneof![Just(None), (0u64..120_000).prop_map(Some)])
            .prop_map(|(text, deadline_ms)| Request::Query { text, deadline_ms }),
        ("[ -~]{0,40}", prop_oneof![Just(None), (0u64..120_000).prop_map(Some)])
            .prop_map(|(text, deadline_ms)| Request::Sql { text, deadline_ms }),
        any::<bool>().prop_map(|serializable| Request::Begin { serializable }),
        "[a-z]{1,8}".prop_map(|name| Request::Ddl(DdlOp::CreateBucket { name })),
        ("[a-z]{1,8}", "[a-z]{1,8}", arb_value())
            .prop_map(|(bucket, key, value)| Request::Op(SessionOp::KvPut { bucket, key, value })),
        ("[a-z]{1,8}", arb_value())
            .prop_map(|(collection, doc)| Request::Op(SessionOp::InsertDocument { collection, doc })),
        ("[a-z]{1,8}", arb_value())
            .prop_map(|(table, pk)| Request::Op(SessionOp::GetRow { table, pk })),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        Just(Response::Pong),
        Just(Response::Aborted),
        any::<i64>().prop_map(|txn_id| Response::TxnBegun { txn_id }),
        // The commit LSN rides the wire as a non-negative Value::int,
        // so only the i64-representable range round-trips.
        (any::<i64>(), prop_oneof![Just(None), any::<i64>().prop_map(|l| Some((l & i64::MAX) as u64))])
            .prop_map(|(commit_ts, lsn)| Response::Committed { commit_ts, lsn }),
        prop::collection::vec(arb_value(), 0..4).prop_map(Response::Rows),
        prop_oneof![Just(None), arb_value().prop_map(Some)].prop_map(Response::Maybe),
        "[a-z]{1,10}".prop_map(Response::Key),
        ("[a-z]{1,10}", "[ -~]{0,30}")
            .prop_map(|(kind, message)| Response::Err { kind, message }),
    ]
}

/// Wrap `leaf` in one level per flag: a one-element array for `true`, a
/// one-field object for `false`.
fn wrap(leaf: Value, layers: &[bool]) -> Value {
    layers.iter().fold(leaf, |v, &array| {
        if array {
            Value::Array(vec![v])
        } else {
            Value::object([("k", v)])
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn frame_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..600)) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload, frame::MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(buf.len(), frame::HEADER_LEN + payload.len());
        let back = frame::read_frame(&mut &buf[..], frame::MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn truncated_frame_always_errors(
        payload in prop::collection::vec(any::<u8>(), 1..300),
        cut in 0usize..304,
    ) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload, frame::MAX_FRAME_LEN).unwrap();
        // Any strict prefix of a valid frame is an error — header cut
        // short or payload shorter than the header announced.
        let cut = cut.min(buf.len() - 1);
        prop_assert!(frame::read_frame(&mut &buf[..cut], frame::MAX_FRAME_LEN).is_err());
    }

    #[test]
    fn random_bytes_never_panic_any_decoder(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        // The contract under fuzzing is "error, not panic": completing at
        // all is the assertion.
        let _ = frame::read_frame(&mut bytes.as_slice(), frame::MAX_FRAME_LEN);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = value_from_bytes(&bytes);
    }

    #[test]
    fn request_roundtrip(req in arb_request()) {
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(resp in arb_response()) {
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn truncated_messages_error_never_panic(req in arb_request(), cut in 0usize..128) {
        let bytes = req.encode();
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(Request::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn value_codec_rejects_strict_prefixes(v in arb_value(), cut in 0usize..64) {
        let bytes = value_to_bytes(&v);
        prop_assert_eq!(&value_from_bytes(&bytes).unwrap(), &v);
        if !bytes.is_empty() {
            let cut = cut % bytes.len();
            prop_assert!(value_from_bytes(&bytes[..cut]).is_err(),
                "strict prefix of a valid encoding must error: {}", v);
        }
    }

    #[test]
    fn values_nested_past_the_cap_are_protocol_errors(
        leaf in arb_value(),
        layers in prop::collection::vec(any::<bool>(), MAX_WIRE_DEPTH..MAX_WIRE_DEPTH + 600),
        id in prop_oneof![Just(None), any::<u32>().prop_map(|i| Some(i as u64))],
    ) {
        let deep = wrap(leaf, &layers);
        let req = Request::Op(SessionOp::InsertDocument { collection: "c".into(), doc: deep.clone() });
        let err = Request::decode_with_id(&req.encode_with_id(id)).unwrap_err();
        prop_assert_eq!(err.kind(), "protocol");
        let resp = Response::Rows(vec![deep]);
        let err = Response::decode_with_id(&resp.encode_with_id(id)).unwrap_err();
        prop_assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn documents_within_the_cap_cross_the_wire(
        layers in prop::collection::vec(any::<bool>(), 0..MAX_DEPTH),
        id in prop_oneof![Just(None), any::<u32>().prop_map(|i| Some(i as u64))],
    ) {
        // A scalar plus up to MAX_DEPTH - 1 layers: as deep as JSON text
        // may nest, inside the deepest message shapes a document rides.
        let doc = wrap(Value::int(1), &layers);
        let req = Request::Op(SessionOp::InsertDocument { collection: "c".into(), doc: doc.clone() });
        prop_assert_eq!(Request::decode_with_id(&req.encode_with_id(id)).unwrap(), (id, req));
        let resp = Response::Rows(vec![doc]);
        prop_assert_eq!(Response::decode_with_id(&resp.encode_with_id(id)).unwrap(), (id, resp));
    }

    #[test]
    fn nesting_prefixes_never_panic(
        layers in 1usize..50_000,
        tail in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        // One-element array headers with no leaf (a truncated or hostile
        // frame): an error at any depth, never a stack overflow.
        let mut bytes = [0x07u8, 1].repeat(layers);
        bytes.extend_from_slice(&tail);
        let err = Request::decode(&bytes).unwrap_err();
        prop_assert_eq!(err.kind(), "protocol");
        let err = Response::decode_with_id(&bytes).unwrap_err();
        prop_assert_eq!(err.kind(), "protocol");
    }
}
