//! Versioned, length-prefixed binary wire protocol.
//!
//! Everything on the wire is little-endian and CRC-guarded:
//!
//! * **Handshake** — each side opens with 8 bytes: the 4-byte magic
//!   `b"CuRT"`, a `u16` protocol version and a reserved `u16` (zero). The
//!   server answers with its own hello; a magic or version mismatch is
//!   answered with a typed error frame and the connection is closed —
//!   never silently dropped.
//! * **Frame** — `u32` payload length, `u32` CRC-32 of the payload (the
//!   same CRC-32/ISO-HDLC the snapshot format uses:
//!   [`cuart::persist::crc32`], sliced by 16), then the payload.
//!   Length is capped ([`MAX_FRAME_BYTES`]) so a garbage header cannot
//!   balloon memory, and the encoders check the cap on the sending side
//!   too: they compute a payload's exact length, refuse it as
//!   [`WireError::TooLarge`] before allocating when it is over, and
//!   otherwise allocate once.
//! * **Request payload** — `u64` request id (echoed verbatim in the
//!   response, so pipelined responses can return out of order), `u8`
//!   opcode, `u32` per-op deadline in µs (0 = none), then the op body.
//! * **Response payload** — `u64` request id, `u8` status (0 = OK, else
//!   an [`ErrorCode`]), then the result body (or an error message).
//!
//! Key/value encodings mirror the in-process API: keys are
//! `u16`-length-prefixed byte strings (a longer key is `TooLarge`),
//! values and statuses are `u64`s, range results are row lists of
//! `(key, value)` pairs. An error body always encodes ([`encode_error`]):
//! the server answers a request whose answer cannot be encoded with a
//! [`ErrorCode::TooLarge`] frame under its id.

use cuart::persist::crc32;
use cuart_host::scheduler::RangeRows;
use std::fmt;

/// Leading magic of every handshake hello.
pub const MAGIC: [u8; 4] = *b"CuRT";
/// Protocol version spoken by this build.
pub const VERSION: u16 = 1;
/// Hard cap on a frame's payload length; a header announcing more is a
/// decode error, not an allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Bytes of a handshake hello (magic + version + reserved).
pub const HELLO_BYTES: usize = 8;
/// Bytes of a frame header (length + CRC).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Request opcodes. Single-op codes carry exactly one operation; `*Batch`
/// codes carry a `u32`-counted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// One point lookup (one key, one `u64` result).
    Lookup = 1,
    /// One point update (`DELETE` as the value deletes).
    Update = 2,
    /// One point insert.
    Insert = 3,
    /// One inclusive range query (`[lo, hi]`, one row list back).
    Range = 4,
    /// Liveness probe; empty body, empty OK response.
    Ping = 5,
    /// Ask the server to begin its drain-safe shutdown (honored only when
    /// the server was started with remote shutdown allowed).
    Shutdown = 6,
    /// Batched point lookups.
    LookupBatch = 17,
    /// Batched point updates.
    UpdateBatch = 18,
    /// Batched point inserts.
    InsertBatch = 19,
    /// Batched range queries.
    RangeBatch = 20,
}

impl Opcode {
    /// Decode a wire opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b {
            1 => Opcode::Lookup,
            2 => Opcode::Update,
            3 => Opcode::Insert,
            4 => Opcode::Range,
            5 => Opcode::Ping,
            6 => Opcode::Shutdown,
            17 => Opcode::LookupBatch,
            18 => Opcode::UpdateBatch,
            19 => Opcode::InsertBatch,
            20 => Opcode::RangeBatch,
            _ => return None,
        })
    }

    /// Stable lowercase identifier (span/trace attribute).
    pub fn as_str(self) -> &'static str {
        match self {
            Opcode::Lookup => "lookup",
            Opcode::Update => "update",
            Opcode::Insert => "insert",
            Opcode::Range => "range",
            Opcode::Ping => "ping",
            Opcode::Shutdown => "shutdown",
            Opcode::LookupBatch => "lookup_batch",
            Opcode::UpdateBatch => "update_batch",
            Opcode::InsertBatch => "insert_batch",
            Opcode::RangeBatch => "range_batch",
        }
    }
}

/// Typed error codes carried in response frames, mirroring
/// [`SchedError`](cuart_host::SchedError) and the session's
/// [`CuartError`](cuart::CuartError) (rendered into `Session`), plus the
/// wire-level failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed frame or body (truncation, bad counts, trailing bytes).
    Protocol = 1,
    /// Handshake magic/version mismatch.
    BadVersion = 2,
    /// Frame CRC did not match its payload.
    BadCrc = 3,
    /// Frame length over [`MAX_FRAME_BYTES`].
    TooLarge = 4,
    /// Unknown or refused opcode.
    Unsupported = 5,
    /// `SchedError::QueueFull` — admission refused, fail-fast.
    QueueFull = 16,
    /// `SchedError::AdmissionTimeout`.
    AdmissionTimeout = 17,
    /// `SchedError::DeadlineExceeded` — shed at coalesce time.
    DeadlineExceeded = 18,
    /// `SchedError::Shutdown` — the backend is draining.
    Shutdown = 19,
    /// `SchedError::Disconnected` — the executor is gone.
    Disconnected = 20,
    /// `SchedError::ExecutorPanicked`.
    ExecutorPanicked = 21,
    /// `SchedError::Session` — a rendered `CuartError`.
    Session = 22,
    /// `SchedError::NoShards`.
    NoShards = 23,
}

impl ErrorCode {
    /// Decode a wire status byte (0 is OK, not an error code).
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::BadCrc,
            4 => ErrorCode::TooLarge,
            5 => ErrorCode::Unsupported,
            16 => ErrorCode::QueueFull,
            17 => ErrorCode::AdmissionTimeout,
            18 => ErrorCode::DeadlineExceeded,
            19 => ErrorCode::Shutdown,
            20 => ErrorCode::Disconnected,
            21 => ErrorCode::ExecutorPanicked,
            22 => ErrorCode::Session,
            23 => ErrorCode::NoShards,
            _ => return None,
        })
    }

    /// The scheduler error this wire code maps back to client-side.
    pub fn to_sched_error(self, message: &str) -> Option<cuart_host::SchedError> {
        use cuart_host::SchedError;
        Some(match self {
            ErrorCode::QueueFull => SchedError::QueueFull,
            ErrorCode::AdmissionTimeout => SchedError::AdmissionTimeout,
            ErrorCode::DeadlineExceeded => SchedError::DeadlineExceeded,
            ErrorCode::Shutdown => SchedError::Shutdown,
            ErrorCode::Disconnected => SchedError::Disconnected,
            ErrorCode::ExecutorPanicked => SchedError::ExecutorPanicked(message.to_string()),
            ErrorCode::Session => SchedError::Session(message.to_string()),
            ErrorCode::NoShards => SchedError::NoShards,
            _ => return None,
        })
    }
}

/// Map a backend refusal onto its wire code.
pub fn error_code_of(e: &cuart_host::SchedError) -> ErrorCode {
    use cuart_host::SchedError;
    match e {
        SchedError::QueueFull => ErrorCode::QueueFull,
        SchedError::AdmissionTimeout => ErrorCode::AdmissionTimeout,
        SchedError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        SchedError::Shutdown => ErrorCode::Shutdown,
        SchedError::Disconnected => ErrorCode::Disconnected,
        SchedError::ExecutorPanicked(_) => ErrorCode::ExecutorPanicked,
        SchedError::Session(_) => ErrorCode::Session,
        SchedError::NoShards => ErrorCode::NoShards,
    }
}

/// Why a wire blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes / trailing bytes / impossible counts.
    Truncated,
    /// Handshake magic mismatch.
    BadMagic,
    /// Handshake version this build does not speak.
    BadVersion(u16),
    /// Frame CRC mismatch.
    BadCrc,
    /// A frame length over [`MAX_FRAME_BYTES`] (announced by a header, or
    /// computed by an encoder), or a key over the 65,535 bytes its `u16`
    /// prefix can count.
    TooLarge(usize),
    /// Unknown opcode or status byte.
    BadTag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated or malformed payload"),
            WireError::BadMagic => write!(f, "bad handshake magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadCrc => write!(f, "frame CRC mismatch"),
            WireError::TooLarge(n) => write!(f, "length {n} over the wire's cap"),
            WireError::BadTag(b) => write!(f, "unknown opcode/status byte {b}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The wire code a decode failure is answered with.
pub fn wire_error_code(e: &WireError) -> ErrorCode {
    match e {
        WireError::Truncated => ErrorCode::Protocol,
        WireError::BadMagic | WireError::BadVersion(_) => ErrorCode::BadVersion,
        WireError::BadCrc => ErrorCode::BadCrc,
        WireError::TooLarge(_) => ErrorCode::TooLarge,
        WireError::BadTag(_) => ErrorCode::Unsupported,
    }
}

/// One decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Per-op latency budget in microseconds; 0 means none.
    pub deadline_us: u32,
    /// The operation.
    pub op: Op,
}

/// A decoded operation body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point lookups (one key for `Lookup`, many for `LookupBatch`).
    Lookup(Vec<Vec<u8>>),
    /// Point updates.
    Update(Vec<(Vec<u8>, u64)>),
    /// Point inserts.
    Insert(Vec<(Vec<u8>, u64)>),
    /// Inclusive range queries.
    Range(Vec<(Vec<u8>, Vec<u8>)>),
    /// Liveness probe.
    Ping,
    /// Drain-safe shutdown request.
    Shutdown,
}

impl Op {
    /// Number of point operations this request admits into the scheduler.
    pub fn ops(&self) -> usize {
        match self {
            Op::Lookup(keys) => keys.len(),
            Op::Update(ops) | Op::Insert(ops) => ops.len(),
            Op::Range(ranges) => ranges.len(),
            Op::Ping | Op::Shutdown => 0,
        }
    }

    /// The opcode this op encodes as (batch form for multi-op bodies).
    pub fn opcode(&self) -> Opcode {
        match self {
            Op::Lookup(keys) if keys.len() == 1 => Opcode::Lookup,
            Op::Lookup(_) => Opcode::LookupBatch,
            Op::Update(ops) if ops.len() == 1 => Opcode::Update,
            Op::Update(_) => Opcode::UpdateBatch,
            Op::Insert(ops) if ops.len() == 1 => Opcode::Insert,
            Op::Insert(_) => Opcode::InsertBatch,
            Op::Range(ranges) if ranges.len() == 1 => Opcode::Range,
            Op::Range(_) => Opcode::RangeBatch,
            Op::Ping => Opcode::Ping,
            Op::Shutdown => Opcode::Shutdown,
        }
    }
}

/// One decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// The outcome.
    pub body: RespBody,
}

/// A decoded response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespBody {
    /// Lookup results / update statuses / insert statuses, one per op.
    Values(Vec<u64>),
    /// Range rows, one list per queried range.
    Rows(Vec<RangeRows>),
    /// Empty OK (ping, shutdown ack).
    Ok,
    /// Typed failure with a rendered message.
    Error(ErrorCode, String),
}

// ---------------------------------------------------------------------------
// Primitive cursor
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn bytes16(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u16()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes16(out: &mut Vec<u8>, b: &[u8]) -> Result<(), WireError> {
    let n = u16::try_from(b.len()).map_err(|_| WireError::TooLarge(b.len()))?;
    put_u16(out, n);
    out.extend_from_slice(b);
    Ok(())
}

/// A count that must be consistent with at least `min_bytes_per` bytes of
/// remaining payload — rejects absurd counts before allocating.
fn checked_count(c: &Cursor<'_>, count: u32, min_bytes_per: usize) -> Result<usize, WireError> {
    let count = count as usize;
    let need = count
        .checked_mul(min_bytes_per)
        .ok_or(WireError::Truncated)?;
    if c.buf.len().saturating_sub(c.at) < need {
        return Err(WireError::Truncated);
    }
    Ok(count)
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Encode a handshake hello for `version`.
pub fn encode_hello(version: u16) -> [u8; HELLO_BYTES] {
    let mut out = [0u8; HELLO_BYTES];
    out[..4].copy_from_slice(&MAGIC);
    out[4..6].copy_from_slice(&version.to_le_bytes());
    out
}

/// Validate a hello and return the peer's version. Any version other than
/// [`VERSION`] is refused — there is exactly one protocol revision so far,
/// so negotiation is equality.
pub fn decode_hello(buf: &[u8]) -> Result<u16, WireError> {
    if buf.len() != HELLO_BYTES {
        return Err(WireError::Truncated);
    }
    if buf[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    Ok(version)
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Wrap a payload in a frame: length, CRC-32, payload.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Validate a frame header; returns the payload length to read next.
pub fn decode_frame_header(header: &[u8]) -> Result<(usize, u32), WireError> {
    if header.len() != FRAME_HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    Ok((len, crc))
}

/// Verify a payload against its header CRC.
pub fn check_frame_crc(payload: &[u8], crc: u32) -> Result<(), WireError> {
    if crc32(payload) != crc {
        return Err(WireError::BadCrc);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Bytes of a request payload's fixed head: id, opcode, deadline.
const REQUEST_HEAD_BYTES: usize = 8 + 1 + 4;
/// Bytes of a response payload's fixed head: id, status.
const RESPONSE_HEAD_BYTES: usize = 8 + 1;

/// Encoded bytes of a `u16`-length-prefixed byte string.
fn bytes16_len(b: &[u8]) -> usize {
    2 + b.len()
}

/// Bytes of an op list's `u32` count: single-op opcodes carry none.
fn count_len(n: usize) -> usize {
    if n == 1 {
        0
    } else {
        4
    }
}

/// An empty payload buffer for `len` bytes, or `TooLarge` when `len` is
/// over [`MAX_FRAME_BYTES`]: the cap is checked before any allocation, so
/// neither side ever sends a frame its peer must refuse.
fn payload_buf(len: usize) -> Result<Vec<u8>, WireError> {
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    Ok(Vec::with_capacity(len))
}

/// Exact payload length of `req` (what [`encode_request`] writes).
fn request_len(req: &Request) -> usize {
    REQUEST_HEAD_BYTES
        + match &req.op {
            Op::Lookup(keys) => {
                count_len(keys.len()) + keys.iter().map(|k| bytes16_len(k)).sum::<usize>()
            }
            Op::Update(ops) | Op::Insert(ops) => {
                count_len(ops.len()) + ops.iter().map(|(k, _)| bytes16_len(k) + 8).sum::<usize>()
            }
            Op::Range(ranges) => {
                count_len(ranges.len())
                    + ranges
                        .iter()
                        .map(|(lo, hi)| bytes16_len(lo) + bytes16_len(hi))
                        .sum::<usize>()
            }
            Op::Ping | Op::Shutdown => 0,
        }
}

/// Encode a request into a frame payload (not yet framed). A key over
/// 65,535 bytes or a payload over [`MAX_FRAME_BYTES`] is `TooLarge`.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, WireError> {
    let len = request_len(req);
    let mut out = payload_buf(len)?;
    put_u64(&mut out, req.id);
    out.push(req.op.opcode() as u8);
    put_u32(&mut out, req.deadline_us);
    match &req.op {
        Op::Lookup(keys) => {
            if keys.len() != 1 {
                put_u32(&mut out, keys.len() as u32);
            }
            for k in keys {
                put_bytes16(&mut out, k)?;
            }
        }
        Op::Update(ops) | Op::Insert(ops) => {
            if ops.len() != 1 {
                put_u32(&mut out, ops.len() as u32);
            }
            for (k, v) in ops {
                put_bytes16(&mut out, k)?;
                put_u64(&mut out, *v);
            }
        }
        Op::Range(ranges) => {
            if ranges.len() != 1 {
                put_u32(&mut out, ranges.len() as u32);
            }
            for (lo, hi) in ranges {
                put_bytes16(&mut out, lo)?;
                put_bytes16(&mut out, hi)?;
            }
        }
        Op::Ping | Op::Shutdown => {}
    }
    debug_assert_eq!(out.len(), len, "request_len disagrees with the encoder");
    Ok(out)
}

/// Decode a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let opcode = c.u8()?;
    let opcode = Opcode::from_u8(opcode).ok_or(WireError::BadTag(opcode))?;
    let deadline_us = c.u32()?;
    let op = match opcode {
        Opcode::Lookup => Op::Lookup(vec![c.bytes16()?]),
        Opcode::LookupBatch => {
            let n = c.u32()?;
            let n = checked_count(&c, n, 2)?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(c.bytes16()?);
            }
            Op::Lookup(keys)
        }
        Opcode::Update | Opcode::Insert => {
            let op = vec![(c.bytes16()?, c.u64()?)];
            if opcode == Opcode::Update {
                Op::Update(op)
            } else {
                Op::Insert(op)
            }
        }
        Opcode::UpdateBatch | Opcode::InsertBatch => {
            let n = c.u32()?;
            let n = checked_count(&c, n, 10)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push((c.bytes16()?, c.u64()?));
            }
            if opcode == Opcode::UpdateBatch {
                Op::Update(ops)
            } else {
                Op::Insert(ops)
            }
        }
        Opcode::Range => Op::Range(vec![(c.bytes16()?, c.bytes16()?)]),
        Opcode::RangeBatch => {
            let n = c.u32()?;
            let n = checked_count(&c, n, 4)?;
            let mut ranges = Vec::with_capacity(n);
            for _ in 0..n {
                ranges.push((c.bytes16()?, c.bytes16()?));
            }
            Op::Range(ranges)
        }
        Opcode::Ping => Op::Ping,
        Opcode::Shutdown => Op::Shutdown,
    };
    c.done()?;
    Ok(Request {
        id,
        deadline_us,
        op,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Response status byte for OK bodies carrying values.
const STATUS_VALUES: u8 = 0;
/// Response status byte for OK bodies carrying range rows.
const STATUS_ROWS: u8 = 200;
/// Response status byte for empty OK bodies.
const STATUS_OK: u8 = 201;

/// Bytes of an error message on the wire: truncated to what a `u16`
/// length prefix can count.
fn error_message(msg: &str) -> &[u8] {
    let msg = msg.as_bytes();
    &msg[..msg.len().min(u16::MAX as usize)]
}

/// Exact payload length of `resp` (what [`encode_response`] writes).
fn response_len(resp: &Response) -> usize {
    RESPONSE_HEAD_BYTES
        + match &resp.body {
            RespBody::Values(vals) => 4 + 8 * vals.len(),
            RespBody::Rows(per_range) => {
                4 + per_range
                    .iter()
                    .map(|rows| 4 + rows.iter().map(|(k, _)| bytes16_len(k) + 8).sum::<usize>())
                    .sum::<usize>()
            }
            RespBody::Ok => 0,
            RespBody::Error(_, msg) => bytes16_len(error_message(msg)),
        }
}

/// Encode a response into a frame payload (not yet framed). A row key
/// over 65,535 bytes or a payload over [`MAX_FRAME_BYTES`] is `TooLarge`;
/// an error body always encodes (its message is truncated to fit).
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, WireError> {
    let len = response_len(resp);
    let mut out = payload_buf(len)?;
    put_u64(&mut out, resp.id);
    match &resp.body {
        RespBody::Values(vals) => {
            out.push(STATUS_VALUES);
            put_u32(&mut out, vals.len() as u32);
            for v in vals {
                put_u64(&mut out, *v);
            }
        }
        RespBody::Rows(per_range) => {
            out.push(STATUS_ROWS);
            put_u32(&mut out, per_range.len() as u32);
            for rows in per_range {
                put_u32(&mut out, rows.len() as u32);
                for (k, v) in rows {
                    put_bytes16(&mut out, k)?;
                    put_u64(&mut out, *v);
                }
            }
        }
        RespBody::Ok => out.push(STATUS_OK),
        RespBody::Error(code, msg) => put_error(&mut out, *code, msg),
    }
    debug_assert_eq!(out.len(), len, "response_len disagrees with the encoder");
    Ok(out)
}

fn put_error(out: &mut Vec<u8>, code: ErrorCode, msg: &str) {
    let msg = error_message(msg);
    out.push(code as u8);
    put_u16(out, msg.len() as u16);
    out.extend_from_slice(msg);
}

/// Encode an error response payload, the same bytes [`encode_response`]
/// writes for a [`RespBody::Error`]. It cannot fail: the message is cut
/// to what its `u16` prefix counts, so the payload stays far under the
/// frame cap.
pub fn encode_error(id: u64, code: ErrorCode, msg: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(RESPONSE_HEAD_BYTES + bytes16_len(error_message(msg)));
    put_u64(&mut out, id);
    put_error(&mut out, code, msg);
    out
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let status = c.u8()?;
    let body = match status {
        STATUS_VALUES => {
            let n = c.u32()?;
            let n = checked_count(&c, n, 8)?;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(c.u64()?);
            }
            RespBody::Values(vals)
        }
        STATUS_ROWS => {
            let n = c.u32()?;
            let n = checked_count(&c, n, 4)?;
            let mut per_range = Vec::with_capacity(n);
            for _ in 0..n {
                let rows_n = c.u32()?;
                let rows_n = checked_count(&c, rows_n, 10)?;
                let mut rows = Vec::with_capacity(rows_n);
                for _ in 0..rows_n {
                    rows.push((c.bytes16()?, c.u64()?));
                }
                per_range.push(rows);
            }
            RespBody::Rows(per_range)
        }
        STATUS_OK => RespBody::Ok,
        code => {
            let code = ErrorCode::from_u8(code).ok_or(WireError::BadTag(code))?;
            let msg = c.bytes16()?;
            RespBody::Error(code, String::from_utf8_lossy(&msg).into_owned())
        }
    };
    c.done()?;
    Ok(Response { id, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(op: Op) -> Request {
        Request {
            id: 42,
            deadline_us: 1_000,
            op,
        }
    }

    fn roundtrip_request(r: &Request) {
        let payload = encode_request(r).unwrap();
        let framed = encode_frame(&payload);
        let (len, crc) = decode_frame_header(&framed[..FRAME_HEADER_BYTES]).unwrap();
        assert_eq!(len, payload.len());
        check_frame_crc(&framed[FRAME_HEADER_BYTES..], crc).unwrap();
        assert_eq!(&decode_request(&payload).unwrap(), r);
    }

    fn roundtrip_response(r: &Response) {
        let payload = encode_response(r).unwrap();
        assert_eq!(&decode_response(&payload).unwrap(), r);
    }

    #[test]
    fn hello_roundtrip_and_mismatches() {
        let hello = encode_hello(VERSION);
        assert_eq!(decode_hello(&hello), Ok(VERSION));
        let mut bad_magic = hello;
        bad_magic[0] = b'X';
        assert_eq!(decode_hello(&bad_magic), Err(WireError::BadMagic));
        let wrong = encode_hello(VERSION + 7);
        assert_eq!(
            decode_hello(&wrong),
            Err(WireError::BadVersion(VERSION + 7))
        );
        assert_eq!(decode_hello(&hello[..4]), Err(WireError::Truncated));
    }

    #[test]
    fn every_op_shape_roundtrips() {
        roundtrip_request(&req(Op::Lookup(vec![b"k".to_vec()])));
        roundtrip_request(&req(Op::Lookup(vec![b"a".to_vec(), Vec::new()])));
        roundtrip_request(&req(Op::Update(vec![(b"k".to_vec(), 7)])));
        roundtrip_request(&req(Op::Update(vec![
            (b"a".to_vec(), 1),
            (b"b".to_vec(), 2),
        ])));
        roundtrip_request(&req(Op::Insert(vec![(b"k".to_vec(), u64::MAX)])));
        roundtrip_request(&req(Op::Insert(vec![(Vec::new(), 0), (b"z".to_vec(), 9)])));
        roundtrip_request(&req(Op::Range(vec![(b"a".to_vec(), b"z".to_vec())])));
        roundtrip_request(&req(Op::Range(vec![
            (b"a".to_vec(), b"m".to_vec()),
            (b"n".to_vec(), b"z".to_vec()),
        ])));
        roundtrip_request(&req(Op::Ping));
        roundtrip_request(&req(Op::Shutdown));
    }

    #[test]
    fn every_response_shape_roundtrips() {
        roundtrip_response(&Response {
            id: 1,
            body: RespBody::Values(vec![0, 7, u64::MAX]),
        });
        roundtrip_response(&Response {
            id: 2,
            body: RespBody::Rows(vec![Vec::new(), vec![(b"k".to_vec(), 9)]]),
        });
        roundtrip_response(&Response {
            id: 3,
            body: RespBody::Ok,
        });
        roundtrip_response(&Response {
            id: 4,
            body: RespBody::Error(ErrorCode::QueueFull, "full".into()),
        });
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn request_frame(id: u64, op: Op) -> String {
        let r = Request {
            id,
            deadline_us: 250,
            op,
        };
        hex(&encode_frame(&encode_request(&r).unwrap()))
    }

    fn response_frame(id: u64, body: RespBody) -> String {
        hex(&encode_frame(
            &encode_response(&Response { id, body }).unwrap(),
        ))
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // Whole frames (header, CRC, payload) as the protocol's first
        // revision wrote them: a change to the codec or the checksum that
        // moves one byte on the wire fails here.
        let kv = |k: &[u8], v: u64| (k.to_vec(), v);
        let requests = [
            (
                request_frame(1, Op::Lookup(vec![b"k1".to_vec()])),
                "11000000e25c474a010000000000000001fa00000002006b31",
            ),
            (
                request_frame(2, Op::Lookup(vec![b"a".to_vec(), b"bc".to_vec()])),
                "18000000e5e3516e020000000000000011fa0000000200000001006102006263",
            ),
            (
                request_frame(3, Op::Update(vec![kv(b"u", 7)])),
                "180000002941d422030000000000000002fa0000000100750700000000000000",
            ),
            (
                request_frame(4, Op::Update(vec![kv(b"u1", 1), kv(b"u2", u64::MAX)])),
                "2900000050271f4b040000000000000012fa000000020000000200753101000000\
                 0000000002007532ffffffffffffffff",
            ),
            (
                request_frame(5, Op::Insert(vec![kv(b"i", 9)])),
                "18000000bf21ff63050000000000000003fa0000000100690900000000000000",
            ),
            (
                request_frame(6, Op::Insert(vec![kv(b"i1", 10), kv(b"i2", 11)])),
                "29000000dc894a2c060000000000000013fa00000002000000020069310a000000\
                 00000000020069320b00000000000000",
            ),
            (
                request_frame(7, Op::Range(vec![(b"a".to_vec(), b"m".to_vec())])),
                "13000000e719865d070000000000000004fa00000001006101006d",
            ),
            (
                request_frame(
                    8,
                    Op::Range(vec![
                        (b"a".to_vec(), b"f".to_vec()),
                        (b"p".to_vec(), b"z".to_vec()),
                    ]),
                ),
                "1d0000000b47ffc3080000000000000014fa0000000200000001006101006601\
                 007001007a",
            ),
            (
                request_frame(9, Op::Ping),
                "0d000000d935daa9090000000000000005fa000000",
            ),
        ];
        let responses = [
            (
                response_frame(10, RespBody::Values(vec![1, 2, u64::MAX])),
                "2500000073bddb620a000000000000000003000000010000000000000002000000\
                 00000000ffffffffffffffff",
            ),
            (
                response_frame(
                    11,
                    RespBody::Rows(vec![Vec::new(), vec![kv(b"r1", 5), kv(b"r2", 6)]]),
                ),
                "2d000000f06d6e930b00000000000000c802000000000000000200000002007231\
                 0500000000000000020072320600000000000000",
            ),
            (
                response_frame(12, RespBody::Ok),
                "09000000ae9d85e20c00000000000000c9",
            ),
            (
                response_frame(13, RespBody::Error(ErrorCode::TooLarge, "too big".into())),
                "120000005bf0558f0d00000000000000040700746f6f20626967",
            ),
        ];
        for (got, pinned) in requests.iter().chain(responses.iter()) {
            assert_eq!(got, pinned);
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let payload = encode_request(&req(Op::Ping)).unwrap();
        let framed = encode_frame(&payload);
        // Flip a payload byte: CRC must catch it.
        let (_, crc) = decode_frame_header(&framed[..FRAME_HEADER_BYTES]).unwrap();
        let mut body = framed[FRAME_HEADER_BYTES..].to_vec();
        body[0] ^= 0xFF;
        assert_eq!(check_frame_crc(&body, crc), Err(WireError::BadCrc));
        // Oversized header length.
        let mut hdr = [0u8; FRAME_HEADER_BYTES];
        hdr[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame_header(&hdr),
            Err(WireError::TooLarge(_))
        ));
        // Truncated payloads at every length never panic.
        for cut in 0..payload.len() {
            let _ = decode_request(&payload[..cut]);
        }
    }

    #[test]
    fn unencodable_and_over_cap_payloads_are_too_large() {
        // A range row whose key a `u16` prefix cannot count.
        let long_row = Response {
            id: 1,
            body: RespBody::Rows(vec![vec![(vec![0xEE; 70_000], 1)]]),
        };
        assert_eq!(encode_response(&long_row), Err(WireError::TooLarge(70_000)));
        // Payloads over the frame cap, refused from their computed length.
        let values = Response {
            id: 2,
            body: RespBody::Values(vec![0; MAX_FRAME_BYTES / 8]),
        };
        assert_eq!(
            encode_response(&values),
            Err(WireError::TooLarge(
                RESPONSE_HEAD_BYTES + 4 + MAX_FRAME_BYTES
            ))
        );
        let keys = (0..1025).map(|_| vec![0u8; u16::MAX as usize]).collect();
        assert_eq!(
            encode_request(&req(Op::Lookup(keys))),
            Err(WireError::TooLarge(REQUEST_HEAD_BYTES + 4 + 1025 * 65_537))
        );
        // An error body always encodes, its message cut to the prefix.
        let long_msg = "x".repeat(70_000);
        let payload = encode_error(3, ErrorCode::TooLarge, &long_msg);
        assert_eq!(payload.len(), RESPONSE_HEAD_BYTES + 2 + u16::MAX as usize);
        let back = encode_response(&Response {
            id: 3,
            body: RespBody::Error(ErrorCode::TooLarge, long_msg),
        });
        assert_eq!(back, Ok(payload));
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        // LookupBatch claiming u32::MAX keys with a near-empty body.
        let mut p = Vec::new();
        p.extend_from_slice(&7u64.to_le_bytes());
        p.push(Opcode::LookupBatch as u8);
        p.extend_from_slice(&0u32.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&p), Err(WireError::Truncated));
    }

    #[test]
    fn error_codes_map_to_sched_errors_and_back() {
        use cuart_host::SchedError;
        let errs = [
            SchedError::QueueFull,
            SchedError::AdmissionTimeout,
            SchedError::DeadlineExceeded,
            SchedError::Shutdown,
            SchedError::Disconnected,
            SchedError::ExecutorPanicked("boom".into()),
            SchedError::Session("oom".into()),
            SchedError::NoShards,
        ];
        for e in errs {
            let code = error_code_of(&e);
            let back = code.to_sched_error(&e.to_string()).unwrap();
            match (&e, &back) {
                (SchedError::ExecutorPanicked(_), SchedError::ExecutorPanicked(_)) => {}
                (SchedError::Session(_), SchedError::Session(_)) => {}
                _ => assert_eq!(e, back),
            }
        }
    }

    proptest! {
        #[test]
        fn request_roundtrip_property(
            id in any::<u64>(),
            deadline in any::<u32>(),
            keys in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 1..20),
            values in proptest::collection::vec(any::<u64>(), 20),
            kind in 0u8..4,
        ) {
            let op = match kind {
                0 => Op::Lookup(keys.clone()),
                1 => Op::Update(keys.iter().cloned().zip(values.iter().copied()).collect()),
                2 => Op::Insert(keys.iter().cloned().zip(values.iter().copied()).collect()),
                _ => {
                    let mut ranges = Vec::new();
                    for pair in keys.chunks(2) {
                        let lo = pair[0].clone();
                        let hi = pair.get(1).cloned().unwrap_or_default();
                        ranges.push((lo, hi));
                    }
                    Op::Range(ranges)
                }
            };
            let r = Request { id, deadline_us: deadline, op };
            let payload = encode_request(&r).unwrap();
            prop_assert_eq!(decode_request(&payload).unwrap(), r);
        }

        #[test]
        fn response_roundtrip_property(
            id in any::<u64>(),
            vals in proptest::collection::vec(any::<u64>(), 0..50),
        ) {
            let r = Response { id, body: RespBody::Values(vals) };
            let payload = encode_response(&r).unwrap();
            prop_assert_eq!(decode_response(&payload).unwrap(), r);
        }

        #[test]
        fn random_bytes_never_panic_decoders(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
            let _ = decode_hello(&bytes);
            if bytes.len() >= FRAME_HEADER_BYTES {
                let _ = decode_frame_header(&bytes[..FRAME_HEADER_BYTES]);
            }
        }
    }
}
