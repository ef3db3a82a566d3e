//! Per-connection machinery for the pipelined server.
//!
//! Each connection is served by one **reader** thread, with help from
//! the shared executor pool and a lazily-spawned writer:
//!
//! * the **reader** (spawned at accept) owns the connection's receive
//!   side and its [`Session`]. It reads into a fixed [`FrameBuf`] — one
//!   `read` takes in every frame the peer has sent — and serves the
//!   buffered frames in arrival order:
//!   - session-affecting requests (`BEGIN`/`COMMIT`/`ABORT`, typed ops,
//!     DDL) run right there, and their framed responses collect in a
//!     reader-local buffer;
//!   - tagged stateless requests (queries, SQL, explain, admin, ping)
//!     go to the **executor pool** (shared, `workers` threads), at most
//!     `pipeline_depth` in flight — the reader stops serving frames at
//!     the cap, which is the whole backpressure story;
//!   - an id-less stateless request goes to the pool too, and the
//!     reader waits for its answer before serving the next frame: the
//!     legacy request/response FIFO contract.
//!
//!   The collected responses go out in one `write` when no whole frame
//!   remains buffered (just before the reader would block on the
//!   socket) and before the reader hands any request to the pool.
//! * the **writer** thread batches the pool's responses off the
//!   outbound queue and writes each batch with one syscall. Connections
//!   that never send a request to the pool never get a writer.
//!
//! One party at a time owns the socket's send side (`writing`): when
//! the writer is mid-batch or has frames queued, the reader's bytes join
//! its queue instead, so frames never interleave.
//!
//! When the reader retires with the session still open — client
//! vanished, protocol error, shutdown — dropping the session aborts the
//! transaction (see `mmdb_core::session`), and the reap is counted in the
//! metrics.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mmdb_core::Session;
use mmdb_protocol::frame::{self, FrameBuf, Split};
use mmdb_protocol::{DdlOp, Request, Response, SessionOp, PROTOCOL_VERSION};
use mmdb_repl::feed::{self, CdcBuffer};
use mmdb_types::codec::value_to_bytes;
use mmdb_types::{CancelToken, Error, Result, Value};
use mmdb_txn::IsolationLevel;

use parking_lot::{Condvar, Mutex};

use crate::{Job, ServerInner, SERVER_NAME};

/// Inline responses are written once this many bytes have collected,
/// even with more whole frames buffered, so a long pipelined burst of
/// large reads cannot pile up unbounded on the reader.
const INLINE_FLUSH_BYTES: usize = 64 * 1024;

/// State a connection's reader, writer, and executor jobs share.
/// One mutex per connection: the queues are small and the hold times
/// are a few pointer moves.
struct ConnShared {
    /// Responses as fully framed bytes, oldest first, waiting for the
    /// writer: one frame per pool response, one run of frames per
    /// reader flush that found the writer busy. The reader stops serving
    /// frames while more than `pipeline_depth` entries wait.
    out: VecDeque<Vec<u8>>,
    /// Requests handed to the pool but not yet answered.
    inflight: usize,
    /// An id-less request is on the pool; the reader serves nothing else
    /// until it is answered.
    legacy_pending: bool,
    /// The writer thread, once spawned; the reader joins it on exit.
    writer: Option<JoinHandle<()>>,
    writer_spawned: bool,
    /// The socket's send side is taken: the writer is mid-batch, or the
    /// reader is writing its inline responses. The out queue being empty
    /// does not mean the socket is quiet.
    writing: bool,
    /// A write failed or timed out: the peer stopped reading. Responses
    /// are dropped instead of queued from here on.
    dead: bool,
    /// No more requests will arrive; the writer drains and exits.
    closing: bool,
}

/// Everything the reaper, shutdown, and executor jobs need to reach a
/// connection. The `TcpStream` is owned here, *unduplicated*: reader
/// and writer do I/O through `&TcpStream` (both halves are independent)
/// and the reaper unblocks the reader with [`TcpStream::shutdown`] —
/// cloning the stream would double the server's fd footprint.
pub(crate) struct ConnHandle {
    pub(crate) id: u64,
    stream: TcpStream,
    epoch: Instant,
    state: Mutex<ConnShared>,
    cv: Condvar,
    /// Milliseconds since `epoch` of the last completed frame read.
    last_activity_ms: AtomicU64,
    /// The reader is blocked mid-frame (part of a frame is buffered):
    /// `read_timeout` governs, not `idle_timeout`.
    mid_frame: AtomicBool,
    /// The connection flipped into replication/CDC push mode.
    streaming: AtomicBool,
}

impl ConnHandle {
    pub(crate) fn new(id: u64, stream: TcpStream, inner: &ServerInner) -> ConnHandle {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
        ConnHandle {
            id,
            stream,
            epoch: Instant::now(),
            state: Mutex::new(ConnShared {
                out: VecDeque::new(),
                inflight: 0,
                legacy_pending: false,
                writer: None,
                writer_spawned: false,
                writing: false,
                dead: false,
                closing: false,
            }),
            cv: Condvar::new(),
            last_activity_ms: AtomicU64::new(0),
            mid_frame: AtomicBool::new(false),
            streaming: AtomicBool::new(false),
        }
    }

    /// Unblock a reader parked in a blocking read by shutting the
    /// socket's read half down: the reader sees EOF and retires
    /// cleanly. The write half stays up so queued responses still
    /// flush. Used by the idle reaper and by graceful shutdown.
    pub(crate) fn unblock_reader(&self) {
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    /// Milliseconds since the last completed frame read (or since
    /// accept).
    pub(crate) fn idle_for_ms(&self) -> u64 {
        let now = self.epoch.elapsed().as_millis() as u64;
        now.saturating_sub(self.last_activity_ms.load(Ordering::Relaxed)) // lint: allow(relaxed, idle-time heuristic read by the reaper; no synchronization role)
    }

    /// Whether the idle reaper may close this connection: nothing in
    /// flight, nothing queued, no frame mid-read, not a push stream.
    pub(crate) fn reapable(&self) -> bool {
        if self.mid_frame.load(Ordering::Relaxed) || self.streaming.load(Ordering::Relaxed) { // lint: allow(relaxed, reaper heuristic; a racing frame start is re-checked next tick)
            return false;
        }
        let st = self.state.lock();
        st.inflight == 0 && st.out.is_empty() && !st.writing
    }

    fn note_activity(&self) {
        let now = self.epoch.elapsed().as_millis() as u64;
        self.last_activity_ms.store(now, Ordering::Relaxed); // lint: allow(relaxed, idle-time heuristic read by the reaper; no synchronization role)
    }

    /// The raw stream, for rejecting a connection whose reader thread
    /// could not be spawned.
    pub(crate) fn raw_stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The peer stopped reading: drop everything queued and shut the
    /// socket down, which also unblocks the reader.
    fn kill(&self, inner: &ServerInner, st: &mut ConnShared) {
        st.dead = true;
        inner.metrics.responses_queued.sub(st.out.len() as u64);
        st.out.clear();
        let _ = self.stream.shutdown(Shutdown::Both);
        self.cv.notify_all();
    }
}

/// Append `resp` (tagged with `id` when present) to `out` as one wire
/// frame. A response too large for the frame limit degrades to a framed
/// error — the request id is preserved so a pipelining client still
/// gets its answer.
fn encode_frame(inner: &ServerInner, id: Option<u64>, resp: &Response, out: &mut Vec<u8>) {
    let max = inner.config.max_frame_len;
    let payload = resp.encode_with_id(id);
    if frame::write_frame(out, &payload, max).is_ok() {
        return;
    }
    let err = Response::from_error(&Error::Protocol(format!(
        "response of {} bytes exceeds the {} byte frame limit",
        payload.len(),
        max
    )));
    let _ = frame::write_frame(out, &err.encode_with_id(id), max);
}

/// Queue framed bytes for the writer, lazily spawning it; the caller
/// wakes it. Drops them when the connection is dead (the peer stopped
/// reading).
fn queue_for_writer(
    inner: &Arc<ServerInner>,
    conn: &Arc<ConnHandle>,
    st: &mut ConnShared,
    bytes: Vec<u8>,
) {
    if st.dead {
        return;
    }
    st.out.push_back(bytes);
    inner.metrics.responses_queued.inc();
    if !st.writer_spawned {
        spawn_writer(inner, conn, st);
    }
}

fn spawn_writer(inner: &Arc<ServerInner>, conn: &Arc<ConnHandle>, st: &mut ConnShared) {
    st.writer_spawned = true;
    let handle = {
        let inner = Arc::clone(inner);
        let conn = Arc::clone(conn);
        std::thread::Builder::new()
            .name(format!("mmdb-wr-{}", conn.id))
            .stack_size(crate::CONN_STACK_BYTES)
            .spawn(move || writer_loop(&inner, &conn))
    };
    match handle {
        Ok(h) => st.writer = Some(h),
        // No thread, no flush path: treat it like a dead peer.
        Err(_) => conn.kill(inner, st),
    }
}

/// Run one pool job: execute the stateless request, record the outcome,
/// and hand the framed response to the writer, releasing one slot of the
/// connection's in-flight budget.
pub(crate) fn run_job(inner: &Arc<ServerInner>, job: Job) {
    let Job { conn, id, req, token, enqueued } = job;
    let resp = run_stateless(inner, &req, token).unwrap_or_else(|e| Response::from_error(&e));
    let ok = !matches!(resp, Response::Err { .. });
    inner.metrics.record_request(&req, ok, enqueued.elapsed());
    let mut bytes = Vec::new();
    encode_frame(inner, id, &resp, &mut bytes);
    let mut st = conn.state.lock();
    st.inflight -= 1;
    if id.is_none() {
        st.legacy_pending = false;
    }
    inner.metrics.inflight_requests.dec();
    queue_for_writer(inner, &conn, &mut st, bytes);
    conn.cv.notify_all();
}

/// The per-connection writer: batch everything queued, write it with
/// one syscall, repeat. Exits when the connection is closing and fully
/// drained, or the moment a write fails/times out (a peer that stopped
/// reading its responses gets disconnected, not buffered without
/// bound).
fn writer_loop(inner: &Arc<ServerInner>, conn: &Arc<ConnHandle>) {
    loop {
        let batch: VecDeque<Vec<u8>> = {
            let mut st = conn.state.lock();
            loop {
                if st.dead {
                    return;
                }
                if !st.out.is_empty() && !st.writing {
                    st.writing = true;
                    // Claimed frames leave the gauge here, under the
                    // lock: `responses_queued` counts frames waiting
                    // for the writer, not bytes in flight to the
                    // kernel (that window is `writing`).
                    inner.metrics.responses_queued.sub(st.out.len() as u64);
                    break std::mem::take(&mut st.out);
                }
                if st.closing && st.inflight == 0 && st.out.is_empty() {
                    return;
                }
                // lint: allow(blocking, the writer parks between batches by design; it runs on its own thread, not the reader)
                conn.cv.wait(&mut st);
            }
        };
        let total: usize = batch.iter().map(Vec::len).sum();
        let mut buf = Vec::with_capacity(total);
        for frame_bytes in &batch {
            buf.extend_from_slice(frame_bytes);
        }
        let result = write_all_bounded(&conn.stream, &buf, inner.config.write_timeout);
        let mut st = conn.state.lock();
        st.writing = false;
        if result.is_err() {
            conn.kill(inner, &mut st);
            return;
        }
        conn.cv.notify_all();
    }
}

/// `write_all` against a socket with a write timeout configured,
/// bounding the *total* stall rather than trusting a byte-trickling
/// peer to reset the per-write clock forever.
fn write_all_bounded(stream: &TcpStream, buf: &[u8], timeout: Duration) -> Result<()> {
    let started = Instant::now();
    let mut done = 0usize;
    let mut w = stream;
    while done < buf.len() {
        match w.write(&buf[done..]) {
            Ok(0) => return Err(Error::Storage("socket closed mid-write".into())),
            Ok(n) => done += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if started.elapsed() >= timeout {
                    return Err(Error::Storage(format!(
                        "write stalled for {timeout:?}: peer not reading responses"
                    )));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// The connection died under a write: the peer stopped reading.
fn peer_gone() -> Error {
    Error::Storage("peer stopped reading responses".into())
}

/// Session-affecting requests: they run on the reader, in arrival order.
fn is_session_request(req: &Request) -> bool {
    matches!(
        req,
        Request::Begin { .. } | Request::Commit | Request::Abort | Request::Op(_) | Request::Ddl(_)
    )
}

/// A connection reader's own state: receive buffer, responses not yet
/// written, the frame deadline, and the connection's transaction.
struct Reader<'a> {
    inner: &'a Arc<ServerInner>,
    conn: &'a Arc<ConnHandle>,
    rbuf: FrameBuf,
    /// Framed responses to requests run on the reader, not yet written.
    wbuf: Vec<u8>,
    /// When the frame being read must be complete; set once the reader
    /// blocks with part of a frame buffered.
    deadline: Option<Instant>,
    /// A read timeout is set on the socket (only while mid-frame).
    timeout_set: bool,
    /// The connection's open transaction, if any.
    session: Option<Session>,
}

impl<'a> Reader<'a> {
    fn new(inner: &'a Arc<ServerInner>, conn: &'a Arc<ConnHandle>) -> Reader<'a> {
        Reader {
            inner,
            conn,
            rbuf: FrameBuf::default(),
            wbuf: Vec::new(),
            deadline: None,
            timeout_set: false,
            session: None,
        }
    }

    /// The next request, in arrival order; `None` on a clean end (EOF
    /// between frames: the peer closed, the idle reaper, or shutdown).
    ///
    /// Whole frames already buffered cost no syscall. Before blocking on
    /// the socket the reader writes its pending responses. Between
    /// frames it blocks with no deadline (idle is the reaper's job); once
    /// part of a frame is buffered, the *whole frame* must arrive within
    /// `read_timeout` or the connection is cut off with a stall error.
    fn next_request(&mut self) -> Result<Option<(Option<u64>, Request)>> {
        let max = self.inner.config.max_frame_len;
        loop {
            match self.rbuf.split(max)? {
                Split::Whole(_) => {
                    self.end_frame();
                    let payload = self.rbuf.next_frame(max)?.unwrap_or_default();
                    return Request::decode_with_id(payload).map(Some);
                }
                // Larger than the buffer: read straight into its own
                // allocation, under the same whole-frame deadline.
                Split::Payload(len) if self.rbuf.oversized(len) => {
                    self.write_responses()?;
                    let deadline = self.begin_frame();
                    let (mut payload, mut filled) = self.rbuf.take_oversized(len);
                    while filled < len {
                        let unfilled = &mut payload[filled..];
                        filled += self.read_mid_frame(deadline, |r| {
                            std::io::Read::read(&mut &r.conn.stream, unfilled)
                        })?;
                    }
                    self.end_frame();
                    return Request::decode_with_id(&payload).map(Some);
                }
                Split::Header | Split::Payload(_) => {
                    self.write_responses()?;
                    if self.rbuf.is_empty() {
                        if self.read_between_frames()? == 0 {
                            return Ok(None);
                        }
                    } else {
                        let deadline = self.begin_frame();
                        self.read_mid_frame(deadline, |r| r.rbuf.fill(&mut &r.conn.stream))?;
                    }
                }
            }
        }
    }

    /// Block for the first bytes of a frame, with no deadline.
    fn read_between_frames(&mut self) -> Result<usize> {
        if self.timeout_set {
            let _ = self.conn.stream.set_read_timeout(None);
            self.timeout_set = false;
        }
        loop {
            match self.rbuf.fill(&mut &self.conn.stream) {
                Ok(n) => return Ok(n),
                // A stray timeout despite no deadline: keep waiting.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// One read of more bytes of the current frame, which must be
    /// complete by `deadline`. Returns the bytes read (a timed-out read
    /// counts zero and the caller's loop re-checks the deadline).
    fn read_mid_frame(
        &mut self,
        deadline: Instant,
        read: impl FnOnce(&mut Self) -> std::io::Result<usize>,
    ) -> Result<usize> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(Error::Storage(format!(
                "read stalled mid-frame for {:?}",
                self.inner.config.read_timeout
            )));
        }
        let _ = self.conn.stream.set_read_timeout(Some(remaining));
        self.timeout_set = true;
        match read(self) {
            Ok(0) => Err(Error::Protocol("connection closed mid-frame".into())),
            Ok(n) => Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                ) =>
            {
                Ok(0)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The reader is about to block with part of a frame buffered:
    /// start the frame's deadline, if not already running.
    fn begin_frame(&mut self) -> Instant {
        *self.deadline.get_or_insert_with(|| {
            self.conn.mid_frame.store(true, Ordering::Relaxed); // lint: allow(relaxed, reaper heuristic flag; no synchronization role)
            Instant::now() + self.inner.config.read_timeout
        })
    }

    /// A whole frame is in hand.
    fn end_frame(&mut self) {
        if self.deadline.take().is_some() {
            self.conn.mid_frame.store(false, Ordering::Relaxed); // lint: allow(relaxed, reaper heuristic flag; no synchronization role)
        }
        self.conn.note_activity();
    }

    /// Frame `resp` into the pending responses, recording the outcome.
    fn respond(&mut self, id: Option<u64>, req: &Request, resp: Response, started: Instant) {
        let ok = !matches!(resp, Response::Err { .. });
        self.inner.metrics.record_request(req, ok, started.elapsed());
        encode_frame(self.inner, id, &resp, &mut self.wbuf);
    }

    /// Run a session-affecting request here, in arrival order.
    fn run_inline(&mut self, id: Option<u64>, req: &Request) -> Result<()> {
        let started = Instant::now();
        let resp = run_session_request(self.inner, &mut self.session, req)
            .unwrap_or_else(|e| Response::from_error(&e));
        self.respond(id, req, resp, started);
        if self.wbuf.len() >= INLINE_FLUSH_BYTES {
            self.write_responses()?;
        }
        Ok(())
    }

    /// Write the pending responses: with one `write` when the socket's
    /// send side is free, else through the writer's queue (behind the
    /// frames already there). Fails when the peer stopped reading.
    fn write_responses(&mut self) -> Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let (inner, conn) = (self.inner, self.conn);
        let mut st = conn.state.lock();
        if st.writing || !st.out.is_empty() {
            queue_for_writer(inner, conn, &mut st, std::mem::take(&mut self.wbuf));
            conn.cv.notify_all();
            // Do not run ahead of a slow writer.
            let depth = inner.config.pipeline_depth.max(1);
            while st.out.len() > depth && !st.dead {
                // lint: allow(blocking, response backpressure; the writer's writes are bounded by write_timeout)
                conn.cv.wait(&mut st);
            }
        } else if !st.dead {
            st.writing = true;
            drop(st);
            let result = write_all_bounded(&conn.stream, &self.wbuf, inner.config.write_timeout);
            self.wbuf.clear();
            st = conn.state.lock();
            st.writing = false;
            match result {
                Err(_) => conn.kill(inner, &mut st),
                // Frames the writer could not start on while the reader
                // held the socket.
                Ok(()) if !st.out.is_empty() => conn.cv.notify_all(),
                Ok(()) => {}
            }
        }
        if st.dead {
            self.wbuf.clear();
            return Err(peer_gone());
        }
        Ok(())
    }

    /// Hand a stateless request to the pool, under the pipeline-depth
    /// cap. An id-less one is answered before the reader serves the next
    /// frame. Fails once the peer stopped reading.
    fn run_pooled(&mut self, id: Option<u64>, req: Request) -> Result<()> {
        // Queries get their cancellation budget *now*: time spent
        // waiting in the pipeline counts against the deadline.
        let token = match &req {
            Request::Query { deadline_ms, .. }
            | Request::Sql { deadline_ms, .. }
            | Request::Explain { deadline_ms, .. } => Some(query_budget(self.inner, *deadline_ms)),
            _ => None,
        };
        self.write_responses()?;
        let (inner, conn) = (self.inner, self.conn);
        // Admission under the pipeline-depth cap: stop serving frames
        // until a slot frees. This is the backpressure.
        {
            let depth = inner.config.pipeline_depth.max(1);
            let mut st = conn.state.lock();
            if st.inflight >= depth {
                inner.metrics.pipeline_stalls.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed, monotonic metric counter; no synchronization role)
            }
            while st.inflight >= depth && !st.dead {
                // lint: allow(blocking, pipeline-depth backpressure; the reader must stop pulling frames until a slot frees)
                conn.cv.wait(&mut st);
            }
            if st.dead {
                return Err(peer_gone());
            }
            st.inflight += 1;
            st.legacy_pending = id.is_none();
        }
        inner.metrics.inflight_requests.inc();
        inner.enqueue(Job { conn: Arc::clone(conn), id, req, token, enqueued: Instant::now() });
        if id.is_none() {
            let mut st = conn.state.lock();
            while st.legacy_pending && !st.dead {
                // lint: allow(blocking, legacy FIFO: an id-less request is answered before the next frame is served)
                conn.cv.wait(&mut st);
            }
            if st.dead {
                return Err(peer_gone());
            }
        }
        Ok(())
    }
}

/// The connection's reader loop: frame requests, run session-affecting
/// ones in place, hand stateless ones to the pool. Owns the connection's
/// whole lifecycle — on exit it flushes a terminal error (if any),
/// drains and joins the writer, aborts an orphaned transaction, and
/// unregisters.
pub(crate) fn conn_reader(inner: &Arc<ServerInner>, conn: &Arc<ConnHandle>) {
    inner.metrics.connections_active.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed, metric gauge read only by ADMIN STATS; no synchronization role)
    conn.note_activity();
    let mut reader = Reader::new(inner, conn);
    let mut hello_done = false;
    // A fatal protocol/stall error to report before closing, tagged
    // with the offending request's id when one was decoded.
    let mut fatal: Option<(Option<u64>, Error)> = None;

    loop {
        let (id, request) = match reader.next_request() {
            Ok(Some(decoded)) => decoded,
            Ok(None) => break,
            Err(e) => {
                fatal = Some((None, e));
                break;
            }
        };

        if !hello_done {
            let started = Instant::now();
            let resp = match &request {
                Request::Hello { version } if *version == PROTOCOL_VERSION => {
                    hello_done = true;
                    Response::Hello { version: PROTOCOL_VERSION, server: SERVER_NAME.into() }
                }
                Request::Hello { version } => Response::from_error(&Error::Protocol(format!(
                    "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                ))),
                _ => Response::from_error(&Error::Protocol(
                    "first request must be 'hello'".into(),
                )),
            };
            reader.respond(id, &request, resp, started);
            if !hello_done {
                break;
            }
            continue;
        }

        // Stream requests flip the connection into push mode and never
        // come back; they cannot ride a pipeline.
        if let Request::ReplicaHello { from_lsn } | Request::Subscribe { from_lsn } = &request {
            if id.is_some() {
                fatal = Some((
                    id,
                    Error::Protocol("stream requests cannot carry a request id".into()),
                ));
                break;
            }
            // Quiesce: every earlier request answered and flushed before
            // the reader takes over the write side.
            if reader.write_responses().is_err() {
                break;
            }
            {
                let mut st = conn.state.lock();
                while !st.dead && (st.inflight > 0 || !st.out.is_empty() || st.writing) {
                    // lint: allow(blocking, one-time drain before the SUBSCRIBE handoff; the connection becomes a dedicated stream after this)
                    conn.cv.wait(&mut st);
                }
                if st.dead {
                    break;
                }
            }
            conn.streaming.store(true, Ordering::Relaxed); // lint: allow(relaxed, reaper heuristic flag; no synchronization role)
            let started = Instant::now();
            let cdc = matches!(request, Request::Subscribe { .. });
            let result = serve_stream(inner, conn, *from_lsn, cdc);
            inner.metrics.record_request(&request, result.is_ok(), started.elapsed());
            if let Err(e) = result {
                let resp = Response::from_error(&e);
                let mut w = &conn.stream;
                let _ = frame::write_frame(&mut w, &resp.encode(), inner.config.max_frame_len);
            }
            break;
        }

        let served = if is_session_request(&request) {
            reader.run_inline(id, &request)
        } else {
            reader.run_pooled(id, request)
        };
        if served.is_err() {
            // The peer stopped reading; nothing more can reach it.
            break;
        }
    }

    // Retirement. Report the fatal error behind every earlier response,
    // then drain.
    if let Some((fatal_id, e)) = fatal {
        encode_frame(inner, fatal_id, &Response::from_error(&e), &mut reader.wbuf);
    }
    let _ = reader.write_responses();
    let writer = {
        let mut st = conn.state.lock();
        st.closing = true;
        conn.cv.notify_all();
        st.writer.take()
    };
    if let Some(handle) = writer {
        let _ = handle.join();
    }
    if let Some(session) = reader.session.take() {
        inner.metrics.sessions_reaped.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed, monotonic metric counter; no synchronization role)
        drop(session); // abort-on-drop
    }
    inner.unregister(conn.id);
    inner.metrics.connections_active.fetch_sub(1, Ordering::Relaxed); // lint: allow(relaxed, metric gauge read only by ADMIN STATS; no synchronization role)
    inner.note_conn_gone();
}

/// Requests that never touch per-connection session state. These run
/// concurrently on the pool; queries always execute on the committed
/// state, matching the embedded `Database::query` semantics.
fn run_stateless(
    inner: &ServerInner,
    req: &Request,
    token: Option<CancelToken>,
) -> Result<Response> {
    let db = &inner.db;
    let budget = |inner: &ServerInner| {
        token.clone().unwrap_or_else(|| CancelToken::with_timeout(inner.config.max_query_time))
    };
    Ok(match req {
        Request::Hello { .. } => {
            Response::Hello { version: PROTOCOL_VERSION, server: SERVER_NAME.into() }
        }
        Request::Ping => Response::Pong,
        // Every query runs traced: the per-operator overhead is two clock
        // reads and one small struct per plan node — negligible next to
        // the operator's own work — and it feeds the slow-query log.
        Request::Query { text, .. } => {
            let (rows, stats) = db.query_traced_with(text, &budget(inner))?;
            note_slow_query(inner, "mmql", text, &stats);
            Response::Rows(rows)
        }
        Request::Sql { text, .. } => {
            let (rows, stats) = db.query_sql_traced_with(text, &budget(inner))?;
            note_slow_query(inner, "sql", text, &stats);
            Response::Rows(rows)
        }
        Request::Explain { text, analyze, .. } => {
            if *analyze {
                Response::Text(db.explain_analyze_with(text, &budget(inner))?)
            } else {
                Response::Text(db.explain(text)?)
            }
        }
        Request::Admin { command } => run_admin(inner, command)?,
        _ => {
            return Err(Error::Internal(
                "session-affecting request reached the stateless executor".into(),
            ))
        }
    })
}

/// Session-affecting requests, run on the connection's reader against
/// its open transaction (if any).
fn run_session_request(
    inner: &ServerInner,
    session: &mut Option<Session>,
    req: &Request,
) -> Result<Response> {
    let db = &inner.db;
    Ok(match req {
        Request::Begin { serializable } => {
            if session.is_some() {
                return Err(Error::TxnClosed(
                    "a transaction is already open on this connection".into(),
                ));
            }
            let isolation = if *serializable {
                IsolationLevel::Serializable
            } else {
                IsolationLevel::Snapshot
            };
            let s = db.begin(isolation);
            let txn_id = s.id() as i64;
            *session = Some(s);
            Response::TxnBegun { txn_id }
        }
        Request::Commit => {
            let s = session
                .take()
                .ok_or_else(|| Error::TxnClosed("no open transaction to commit".into()))?;
            let commit_ts = s.commit()? as i64;
            // The watermark is read after this commit's WAL block landed,
            // so it is at least this transaction's durable position — a
            // valid (if slightly strict) read-your-writes token.
            let lsn = db.wal().map(|_| db.last_commit_lsn());
            Response::Committed { commit_ts, lsn }
        }
        Request::Abort => {
            let s = session
                .take()
                .ok_or_else(|| Error::TxnClosed("no open transaction to abort".into()))?;
            s.abort();
            Response::Aborted
        }
        Request::Op(op) => {
            inner.metrics.record_model_op(op_model(op));
            match session.as_mut() {
                Some(s) => apply_op(s, op)?,
                // No explicit transaction: auto-commit the single op,
                // retrying conflicts like the embedded `transact` helper.
                None => {
                    let mut result = None;
                    db.transact(IsolationLevel::Snapshot, 3, |s| {
                        result = Some(apply_op(s, op)?);
                        Ok(())
                    })?;
                    result
                        .ok_or_else(|| Error::Internal("auto-commit produced no response".into()))?
                }
            }
        }
        Request::Ddl(op) => apply_ddl(db, op)?,
        _ => {
            return Err(Error::Internal(
                "non-session request reached the session executor".into(),
            ))
        }
    })
}

/// Serve the push stream after `REPLICA HELLO`/`SUBSCRIBE`: ship WAL
/// records from `from_lsn` (catch-up), then live-tail the log,
/// heartbeating the tail LSN when idle. Replicas get raw records;
/// `SUBSCRIBE` (`cdc`) gets decoded committed writes only. Runs on the
/// connection's reader thread (the pipeline is quiesced first, so the
/// reader owns the write side) until the peer or the server goes away.
/// Each change goes out as one frame in one write.
fn serve_stream(inner: &ServerInner, conn: &ConnHandle, from_lsn: u64, cdc: bool) -> Result<()> {
    const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);
    const BATCH: usize = 256;
    let stream = &conn.stream;
    let Some(wal) = inner.db.wal().cloned() else {
        return Err(Error::Unsupported(
            "this server has no WAL to stream (pure in-memory database)".into(),
        ));
    };
    let mut cursor = from_lsn;
    let mut cdc_buf = CdcBuffer::new();
    // A cursor below the truncation horizon points into a log prefix a
    // checkpoint has deleted; those records cannot be shipped.
    let horizon = wal.truncated_lsn();
    if cursor < horizon {
        if cdc {
            // A change feed cannot be rebuilt from a snapshot — the
            // intermediate writes between the cursor and the horizon are
            // gone — so tell the subscriber instead of silently skipping
            // ahead and dropping events.
            return Err(Error::LogTruncated(format!(
                "subscribe cursor {cursor} predates the WAL truncation horizon {horizon}; \
                 resubscribe from the current tail"
            )));
        }
        // Replica bootstrap: ship the primary's live state at a
        // consistent LSN as one synthetic transaction, then tail from
        // there. State is extracted under the commit quiesce so no
        // commit can land between the state read and the chosen LSN;
        // the network sends happen after release so a slow replica
        // cannot stall the primary's writers. The replica applies the
        // synthetic transaction as a full state *replace* (see
        // `mmdb_repl::replica`), so keys it holds from inside the
        // truncation gap — including ones since deleted on the
        // primary — don't survive as ghosts.
        let (snap_lsn, live) = {
            let db = &inner.db;
            // lint: allow(blocking, replica bootstrap snapshot needs the commit-quiesced window; post-SUBSCRIBE the connection is dedicated to streaming)
            db.mvcc().quiesce_commits(|| -> Result<_> {
                // lint: allow(blocking, the bootstrap LSN must be durable before it is advertised to the replica)
                wal.sync()?;
                Ok((wal.tail_lsn(), db.mvcc().latest_committed_writes()))
            })?
        };
        let writes: Vec<(String, Vec<u8>, Vec<u8>)> = live
            .into_iter()
            .filter_map(|w| w.value.map(|v| (w.domain, w.key, value_to_bytes(&v).to_vec())))
            .collect();
        for event in feed::bootstrap_frames(snap_lsn, &writes) {
            send_change(inner, stream, event)?;
        }
        cursor = snap_lsn;
    }
    // Immediate first heartbeat: tells the subscriber the current tail
    // even when the cursor starts caught-up. Everything this stream
    // reports or ships is bounded by the *durable* LSN: with group
    // commit, a batch sits appended-but-unsynced for a moment, and
    // shipping (or even advertising) those bytes would let a replica get
    // ahead of what a primary crash can replay.
    send_change(inner, stream, feed::heartbeat_frame(wal.durable_lsn()))?;
    let mut last_beat = Instant::now();
    loop {
        if inner.shutting_down() {
            return Ok(());
        }
        let durable = wal.durable_lsn();
        let records = if cursor < durable {
            wal.read_records_from(cursor, BATCH)?
        } else {
            Vec::new()
        };
        // `read_records_from` tails the in-memory log, which may already
        // hold an unsynced batch; cut the run at the durability boundary
        // (batches land WAL-block-aligned, so `durable` is a record edge).
        let records: Vec<_> = records.into_iter().take_while(|r| r.next_lsn <= durable).collect();
        if records.is_empty() {
            if last_beat.elapsed() >= HEARTBEAT_EVERY {
                send_change(inner, stream, feed::heartbeat_frame(wal.durable_lsn()))?;
                last_beat = Instant::now();
            }
            // lint: allow(blocking, change-feed poll cadence on a dedicated streaming connection)
            std::thread::sleep(inner.config.poll_interval.min(HEARTBEAT_EVERY));
            continue;
        }
        for rec in &records {
            if cdc {
                for event in cdc_buf.push(rec)? {
                    send_change(inner, stream, event)?;
                }
            } else {
                send_change(inner, stream, feed::record_frame(rec))?;
            }
            cursor = rec.next_lsn;
        }
        // Records just flowed; the next heartbeat can wait a full period.
        last_beat = Instant::now();
    }
}

fn send_change(inner: &ServerInner, stream: &TcpStream, event: Value) -> Result<()> {
    let mut w = stream;
    frame::write_frame(&mut w, &Response::Change(event).encode(), inner.config.max_frame_len)
}

fn apply_op(s: &mut Session, op: &SessionOp) -> Result<Response> {
    Ok(match op {
        SessionOp::InsertDocument { collection, doc } => {
            Response::Key(s.insert_document(collection, doc.clone())?)
        }
        SessionOp::UpdateDocument { collection, key, doc } => {
            s.update_document(collection, key, doc.clone())?;
            Response::Ok
        }
        SessionOp::RemoveDocument { collection, key } => {
            s.remove_document(collection, key)?;
            Response::Ok
        }
        SessionOp::GetDocument { collection, key } => {
            Response::Maybe(s.get_document(collection, key)?)
        }
        SessionOp::KvPut { bucket, key, value } => {
            s.kv_put(bucket, key, value.clone())?;
            Response::Ok
        }
        SessionOp::KvDelete { bucket, key } => {
            s.kv_delete(bucket, key)?;
            Response::Ok
        }
        SessionOp::KvGet { bucket, key } => Response::Maybe(s.kv_get(bucket, key)?),
        SessionOp::InsertRow { table, row } => {
            s.insert_row(table, row.clone())?;
            Response::Ok
        }
        SessionOp::UpdateRow { table, row } => {
            s.update_row(table, row.clone())?;
            Response::Ok
        }
        SessionOp::DeleteRow { table, pk } => {
            s.delete_row(table, pk)?;
            Response::Ok
        }
        SessionOp::GetRow { table, pk } => Response::Maybe(s.get_row(table, pk)?),
        SessionOp::AddVertex { graph, collection, doc } => {
            Response::Key(s.add_vertex(graph, collection, doc.clone())?)
        }
        SessionOp::AddEdge { graph, collection, from, to, properties } => {
            Response::Key(s.add_edge(graph, collection, from, to, properties.clone())?)
        }
        SessionOp::RdfInsert { subject, predicate, object } => {
            s.rdf_insert(subject, predicate, object.clone())?;
            Response::Ok
        }
        SessionOp::RdfRemove { subject, predicate, object } => {
            s.rdf_remove(subject, predicate, object)?;
            Response::Ok
        }
    })
}

fn apply_ddl(db: &mmdb_core::Database, op: &DdlOp) -> Result<Response> {
    match op {
        DdlOp::CreateCollection { name } => db.create_collection(name)?,
        DdlOp::CreateBucket { name } => db.create_bucket(name)?,
        DdlOp::CreateGraph { name } => {
            db.create_graph(name)?;
        }
        DdlOp::CreateVertexCollection { graph, name } => {
            db.world().graph(graph)?.create_vertex_collection(name)?;
        }
        DdlOp::CreateEdgeCollection { graph, name } => {
            db.world().graph(graph)?.create_edge_collection(name)?;
        }
        DdlOp::CreateTable { name, schema } => {
            let schema = mmdb_protocol::schema_from_value(schema)?;
            db.create_table(name, schema)?;
        }
        DdlOp::CreateFulltextIndex { name, collection, field } => {
            db.create_fulltext_index(name, collection, field)?;
        }
    }
    Ok(Response::Ok)
}

/// The data model a typed operation belongs to, for the per-model
/// operation counters in `ADMIN STATS`.
fn op_model(op: &SessionOp) -> &'static str {
    match op {
        SessionOp::InsertDocument { .. }
        | SessionOp::UpdateDocument { .. }
        | SessionOp::RemoveDocument { .. }
        | SessionOp::GetDocument { .. } => "document",
        SessionOp::KvPut { .. } | SessionOp::KvDelete { .. } | SessionOp::KvGet { .. } => "kv",
        SessionOp::InsertRow { .. }
        | SessionOp::UpdateRow { .. }
        | SessionOp::DeleteRow { .. }
        | SessionOp::GetRow { .. } => "relational",
        SessionOp::AddVertex { .. } | SessionOp::AddEdge { .. } => "graph",
        SessionOp::RdfInsert { .. } | SessionOp::RdfRemove { .. } => "rdf",
    }
}

/// Record a successfully executed query in the slow-query log when its
/// execution time reached the configured threshold.
fn note_slow_query(
    inner: &ServerInner,
    kind: &str,
    text: &str,
    stats: &mmdb_core::ExecStats,
) {
    if stats.total < inner.config.slow_query_threshold {
        return;
    }
    let mut entry = stats.to_value();
    if let Ok(obj) = entry.as_object_mut() {
        obj.insert("kind", Value::str(kind));
        obj.insert("query", Value::str(text));
    }
    inner.push_slowlog(entry);
}

/// The effective execution budget for one query: the client's requested
/// deadline, capped by the server's `max_query_time`. Minted when the
/// request is *enqueued*, so pipeline queue time counts against it.
fn query_budget(inner: &ServerInner, deadline_ms: Option<u64>) -> CancelToken {
    let cap = inner.config.max_query_time;
    let budget = match deadline_ms {
        Some(ms) => cap.min(Duration::from_millis(ms)),
        None => cap,
    };
    CancelToken::with_timeout(budget)
}

fn run_admin(inner: &ServerInner, command: &str) -> Result<Response> {
    match command.trim().to_ascii_uppercase().as_str() {
        "STATS" => {
            let mut stats = inner.metrics.snapshot();
            let (commits, aborts) = inner.db.mvcc().stats();
            let group = inner.db.mvcc().group_commit_stats();
            let (ckpt_count, ckpt_micros, ckpt_reclaimed) = inner.db.checkpoint_stats();
            let world = inner.db.world();
            let rdf = world.rdf.read().stats();
            if let Ok(obj) = stats.as_object_mut() {
                obj.insert(
                    "engine",
                    Value::object([
                        ("commits", Value::int(commits as i64)),
                        ("aborts", Value::int(aborts as i64)),
                        ("group_commit_batches", Value::int(group.batches as i64)),
                        ("group_commit_txns", Value::int(group.txns as i64)),
                        ("group_commit_fsyncs_saved", Value::int(group.fsyncs_saved as i64)),
                        ("group_commit_max_size", Value::int(group.max_group_size as i64)),
                        ("checkpoint_count", Value::int(ckpt_count as i64)),
                        ("checkpoint_total_micros", Value::int(ckpt_micros as i64)),
                        ("checkpoint_bytes_reclaimed", Value::int(ckpt_reclaimed as i64)),
                    ]),
                );
                // Log footprint: current on-disk size and the LSN below
                // which the prefix has been checkpointed away.
                obj.insert(
                    "wal",
                    Value::object([
                        ("size_bytes", Value::int(inner.db.wal_size_bytes() as i64)),
                        (
                            "truncated_lsn",
                            match inner.db.wal() {
                                Some(wal) => Value::int(wal.truncated_lsn() as i64),
                                None => Value::Null,
                            },
                        ),
                    ]),
                );
                // Access paths taken by query operators since startup:
                // index-served scans vs full scans, plus the RDF triple
                // store's own indexed-vs-scan fallback counters.
                obj.insert(
                    "access_paths",
                    Value::object([
                        ("index_scans", Value::int(world.access.index_scans() as i64)),
                        ("full_scans", Value::int(world.access.full_scans() as i64)),
                        ("rdf_indexed", Value::int(rdf.indexed as i64)),
                        ("rdf_scans", Value::int(rdf.scans as i64)),
                    ]),
                );
            }
            Ok(Response::Stats(stats))
        }
        "SLOWLOG" => {
            let entries: Vec<Value> = inner.slowlog.lock().iter().cloned().collect();
            Ok(Response::Stats(Value::Array(entries)))
        }
        "SLOWLOG RESET" => {
            let dropped = {
                let mut log = inner.slowlog.lock();
                let n = log.len();
                log.clear();
                n
            };
            Ok(Response::Stats(Value::object([("dropped", Value::int(dropped as i64))])))
        }
        "PING" => Ok(Response::Pong),
        // Health summary for load balancers and operators: `ok` while the
        // engine accepts writes, `degraded` once a durability failure has
        // latched it read-only (reads keep serving; drain writes elsewhere).
        // A read replica reports `replica` plus its lag figures — it is
        // intentionally read-only, not degraded, even when its primary is
        // unreachable (it keeps serving reads and its staleness grows).
        "HEALTH" => {
            if let Some(provider) = inner.replica_status.get() {
                let mut status = provider();
                if let Ok(obj) = status.as_object_mut() {
                    obj.insert("status", Value::str("replica"));
                }
                return Ok(Response::Stats(status));
            }
            let degraded = inner.db.is_degraded();
            let mut fields = vec![(
                "status".to_string(),
                Value::str(if degraded { "degraded" } else { "ok" }),
            )];
            if let Some(reason) = inner.db.degraded_reason() {
                fields.push(("reason".to_string(), Value::str(&reason)));
            }
            // How stale the last checkpoint is; Null until the first one
            // runs (the stamp survives restarts via the snapshot file's
            // mtime). Operators alert on this growing unbounded while
            // the WAL keeps expanding.
            fields.push((
                "seconds_since_checkpoint".to_string(),
                match inner.db.seconds_since_checkpoint() {
                    Some(s) => Value::int(s as i64),
                    None => Value::Null,
                },
            ));
            Ok(Response::Stats(Value::object(fields)))
        }
        // Take a checkpoint right now: snapshot live state, append the
        // marker, truncate the WAL prefix, vacuum dead versions. Returns
        // what it cost and what it reclaimed.
        "CHECKPOINT" => {
            let summary = inner.db.checkpoint()?;
            Ok(Response::Stats(Value::object([
                ("snapshot_lsn", Value::int(summary.snapshot_lsn as i64)),
                ("entries", Value::int(summary.entries as i64)),
                ("snapshot_bytes", Value::int(summary.snapshot_bytes as i64)),
                ("wal_bytes_reclaimed", Value::int(summary.wal_bytes_reclaimed as i64)),
                ("versions_vacuumed", Value::int(summary.versions_vacuumed as i64)),
                ("micros", Value::int(summary.micros as i64)),
            ])))
        }
        // Replication summary: on a replica, the live runner status
        // (connection state, applied LSN, lag); on a primary, the WAL
        // tail and commit watermark that feed session tokens.
        "REPL" => {
            if let Some(provider) = inner.replica_status.get() {
                return Ok(Response::Stats(provider()));
            }
            let db = &inner.db;
            Ok(Response::Stats(match db.wal() {
                Some(wal) => Value::object([
                    ("role", Value::str("primary")),
                    ("wal_tail_lsn", Value::int(wal.tail_lsn() as i64)),
                    ("last_commit_lsn", Value::int(db.last_commit_lsn() as i64)),
                ]),
                // No WAL: nothing to ship, but answer rather than error so
                // clients can probe capability.
                None => Value::object([
                    ("role", Value::str("primary")),
                    ("wal_tail_lsn", Value::Null),
                    ("last_commit_lsn", Value::Null),
                ]),
            }))
        }
        other => Err(Error::Unsupported(format!("unknown admin command '{other}'"))),
    }
}
