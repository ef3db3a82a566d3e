//! The mmdb wire protocol.
//!
//! Shared by `mmdb-server` and `mmdb-client` so the two sides can never
//! disagree about the bytes. Three layers:
//!
//! * [`frame`] — 4-byte big-endian length prefix + payload, with a hard
//!   cap on payload size ([`frame::MAX_FRAME_LEN`]).
//! * [`message`] — [`Request`]/[`Response`] enums, encoded as tagged
//!   value arrays through the engine's binary value codec.
//! * [`schema`] — relational schemas as wire values for remote
//!   `CREATE TABLE`.
//!
//! The protocol is request/response — the client writes one framed
//! `Request`, the server answers with exactly one framed `Response` —
//! with a single exception: `ReplicaHello` and `Subscribe` switch the
//! connection into a push stream, after which the server sends framed
//! `Response::Change` messages (WAL records, CDC events, heartbeats)
//! until either side closes. Connection state is limited to the
//! handshake flag, at most one open transaction, and the stream mode.

pub mod frame;
pub mod message;
pub mod schema;

pub use frame::{read_frame, write_frame, HEADER_LEN, MAX_FRAME_LEN};
pub use message::{DdlOp, Request, Response, SessionOp, MAX_WIRE_DEPTH, PROTOCOL_VERSION};
pub use schema::{schema_from_value, schema_to_value};
