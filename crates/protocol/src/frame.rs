//! Length-prefixed framing.
//!
//! Every message on the wire is one frame: a 4-byte big-endian payload
//! length followed by that many payload bytes. The length never includes
//! the header itself. Both sides enforce a maximum payload length so a
//! corrupt or hostile peer cannot make the other side allocate
//! arbitrarily much memory; an oversized header is a protocol error and
//! the connection should be closed.
//!
//! Readers that talk to a socket use a [`FrameBuf`]: one `read` takes in
//! everything the peer has sent so far, and [`split_frame`] cuts whole
//! frames off its front, so a burst of pipelined frames costs one
//! syscall instead of two or three per frame.

use std::borrow::Cow;
use std::io::{self, Read, Write};

use mmdb_types::{Error, Result};

/// Size of the frame header in bytes.
pub const HEADER_LEN: usize = 4;

/// Default cap on a frame payload (16 MiB). Large enough for bulk query
/// results, small enough to bound per-connection memory.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Capacity of a [`FrameBuf`]: frames up to this size (header included)
/// are read in place; larger ones get their own allocation.
pub const READ_BUF_LEN: usize = 32 * 1024;

/// The part of a [`FrameBuf`] backed by initialized memory at first.
/// It doubles up to the capacity whenever a read fills it, so a
/// connection that only ever sees small frames (an idle client, a
/// handshake) touches a kilobyte rather than the whole buffer.
const FIRST_WINDOW: usize = 1024;

/// Write one frame (header + payload) with a single `write_all` and
/// flush. On a `TCP_NODELAY` socket two writes would put the header and
/// the payload in separate segments.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_len: u32) -> Result<()> {
    if payload.len() > max_len as usize {
        return Err(Error::Protocol(format!(
            "outgoing frame of {} bytes exceeds the {} byte limit",
            payload.len(),
            max_len
        )));
    }
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. Blocks until a full frame arrives.
///
/// Returns `Error::Protocol` when the announced length exceeds `max_len`
/// (the caller must close the connection: the stream position is inside
/// a frame that will never be read). I/O failures — including read
/// timeouts configured on the stream — surface as `Error::Storage` via
/// the `io::Error` conversion.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = announced_len(header, max_len)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Where the front of a byte buffer stands relative to the next frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// A whole frame is buffered; its payload is this many bytes long
    /// and starts at [`HEADER_LEN`].
    Whole(usize),
    /// Fewer than [`HEADER_LEN`] bytes are buffered.
    Header,
    /// The header announces a payload of this many bytes, not all of
    /// which is buffered yet.
    Payload(usize),
}

/// Look at the front of `buf` for one frame. The announced length is
/// checked against `max_len` before anything is allocated for it: an
/// oversized header is an `Error::Protocol`.
pub fn split_frame(buf: &[u8], max_len: u32) -> Result<Split> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        return Ok(Split::Header);
    };
    let len = announced_len(*header, max_len)?;
    Ok(if buf.len() - HEADER_LEN >= len { Split::Whole(len) } else { Split::Payload(len) })
}

fn announced_len(header: [u8; HEADER_LEN], max_len: u32) -> Result<usize> {
    let len = u32::from_be_bytes(header);
    if len > max_len {
        return Err(Error::Protocol(format!(
            "incoming frame announces {len} bytes, exceeding the {max_len} byte limit"
        )));
    }
    Ok(len as usize)
}

/// A fixed-capacity receive buffer that splits a byte stream into
/// frames. The buffer never grows past its capacity: a frame larger
/// than that is handed out in its own allocation
/// ([`FrameBuf::take_oversized`]).
#[derive(Debug)]
pub struct FrameBuf {
    /// Initialized prefix of the buffer; its length only grows, up to
    /// `cap`.
    buf: Vec<u8>,
    cap: usize,
    /// Buffered, unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// The last read filled all the free space: the peer likely has
    /// more to send, so the next read gets a larger window.
    saturated: bool,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::with_capacity(READ_BUF_LEN)
    }
}

impl FrameBuf {
    /// A buffer holding at most `cap` bytes (at least one header).
    pub fn with_capacity(cap: usize) -> FrameBuf {
        FrameBuf { buf: Vec::new(), cap: cap.max(HEADER_LEN), start: 0, end: 0, saturated: false }
    }

    /// Whether no bytes at all are buffered (the stream sits between
    /// frames).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The front of the buffer, relative to the next frame.
    pub fn split(&self, max_len: u32) -> Result<Split> {
        split_frame(&self.buf[self.start..self.end], max_len)
    }

    /// Consume the whole frame at the front, returning its payload, or
    /// `None` when no whole frame is buffered.
    pub fn next_frame(&mut self, max_len: u32) -> Result<Option<&[u8]>> {
        let Split::Whole(len) = self.split(max_len)? else {
            return Ok(None);
        };
        let payload = self.start + HEADER_LEN;
        self.start = payload + len;
        Ok(Some(&self.buf[payload..payload + len]))
    }

    /// Whether the frame at the front, whose header announced `len`
    /// payload bytes, is too large to be read in place.
    pub fn oversized(&self, len: usize) -> bool {
        HEADER_LEN + len > self.cap
    }

    /// Take the frame at the front, whose header announced `len` payload
    /// bytes, out of the buffer: returns its payload in a new allocation
    /// with the buffered prefix copied in, plus how many bytes of it are
    /// filled. The caller reads the rest from the stream itself.
    pub fn take_oversized(&mut self, len: usize) -> (Vec<u8>, usize) {
        let buffered = &self.buf[self.start + HEADER_LEN..self.end];
        let filled = buffered.len().min(len);
        let mut payload = vec![0u8; len];
        payload[..filled].copy_from_slice(&buffered[..filled]);
        self.start += HEADER_LEN + filled;
        (payload, filled)
    }

    /// One `read` from `r` into the free tail of the buffer, first
    /// moving a partial frame to the front. Returns the bytes read; `0`
    /// is end of stream. Call only when no whole frame is buffered and
    /// the partial one fits ([`FrameBuf::oversized`] is false).
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() || self.saturated {
            let grown = (self.buf.len() * 2).clamp(FIRST_WINDOW.min(self.cap), self.cap);
            self.buf.resize(grown, 0);
        }
        let free = self.buf.len() - self.end;
        if free == 0 {
            return Err(io::Error::other("frame buffer full"));
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        self.saturated = n == free;
        Ok(n)
    }

    /// Block on `r` until one whole frame is available and return its
    /// payload: borrowed from the buffer, or owned when the frame is
    /// larger than the buffer. End of stream is an I/O error
    /// (`UnexpectedEof`), like [`read_frame`]'s.
    pub fn read_frame(&mut self, r: &mut impl Read, max_len: u32) -> Result<Cow<'_, [u8]>> {
        loop {
            match self.split(max_len)? {
                Split::Whole(_) => break,
                Split::Payload(len) if self.oversized(len) => {
                    let (mut payload, filled) = self.take_oversized(len);
                    r.read_exact(&mut payload[filled..])?;
                    return Ok(Cow::Owned(payload));
                }
                Split::Header | Split::Payload(_) => {
                    if self.fill(r)? == 0 {
                        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
                    }
                }
            }
        }
        Ok(Cow::Borrowed(self.next_frame(max_len)?.unwrap_or_default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", MAX_FRAME_LEN).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 5);
        let got = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn empty_payload_is_legal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"", MAX_FRAME_LEN).unwrap();
        let got = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn oversized_incoming_frame_is_a_protocol_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        buf.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), "protocol");
        let err = split_frame(&buf, MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn oversized_outgoing_frame_is_rejected_before_writing() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &[0u8; 32], 16).unwrap_err();
        assert_eq!(err.kind(), "protocol");
        assert!(buf.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef", MAX_FRAME_LEN).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), "storage");
        let err = FrameBuf::default().read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), "storage");
    }

    /// A `Write` that counts the calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [&b""[..], b"x", &[7u8; 70_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload, MAX_FRAME_LEN).unwrap();
            assert_eq!(w.writes, 1, "payload of {} bytes", payload.len());
            assert_eq!(read_frame(&mut &w.bytes[..], MAX_FRAME_LEN).unwrap(), payload);
        }
    }

    #[test]
    fn split_frame_reports_each_stage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc", MAX_FRAME_LEN).unwrap();
        assert_eq!(split_frame(&buf[..2], MAX_FRAME_LEN).unwrap(), Split::Header);
        assert_eq!(split_frame(&buf[..5], MAX_FRAME_LEN).unwrap(), Split::Payload(3));
        assert_eq!(split_frame(&buf, MAX_FRAME_LEN).unwrap(), Split::Whole(3));
        buf.extend_from_slice(&[0, 0]);
        assert_eq!(split_frame(&buf, MAX_FRAME_LEN).unwrap(), Split::Whole(3));
    }

    /// A reader that hands out at most `chunk` bytes per `read`.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = self.chunk.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_buf_splits_any_chunking_and_reads_big_frames_whole() {
        let payloads: Vec<Vec<u8>> = vec![
            b"a".to_vec(),
            Vec::new(),
            vec![3u8; 200],
            vec![9u8; 5_000], // larger than the buffer below
            b"tail".to_vec(),
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p, MAX_FRAME_LEN).unwrap();
        }
        for chunk in [1, 3, 4, 5, 64, 1_000, usize::MAX] {
            let mut r = Trickle { data: &wire, chunk, reads: 0 };
            let mut fb = FrameBuf::with_capacity(1_024);
            for want in &payloads {
                let got = fb.read_frame(&mut r, MAX_FRAME_LEN).unwrap();
                assert_eq!(&*got, &want[..], "chunk {chunk}");
            }
            assert!(fb.is_empty());
            assert!(fb.buf.len() <= 1_024, "the buffer never grows past its capacity");
        }
    }

    #[test]
    fn frames_already_buffered_cost_no_read() {
        let mut wire = Vec::new();
        for i in 0..50u8 {
            write_frame(&mut wire, &[i; 10], MAX_FRAME_LEN).unwrap();
        }
        let mut r = Trickle { data: &wire, chunk: usize::MAX, reads: 0 };
        let mut fb = FrameBuf::default();
        for i in 0..50u8 {
            assert_eq!(&*fb.read_frame(&mut r, MAX_FRAME_LEN).unwrap(), &[i; 10]);
        }
        assert_eq!(r.reads, 1, "one read took in the whole burst");
    }

    #[test]
    fn frame_buf_rejects_an_oversized_header_before_allocating() {
        let mut wire = (u32::MAX).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0; 8]);
        let mut fb = FrameBuf::with_capacity(64);
        let err = fb.read_frame(&mut &wire[..], 1_024).unwrap_err();
        assert_eq!(err.kind(), "protocol");
        assert!(fb.buf.len() <= 64);
    }
}
