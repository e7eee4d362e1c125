//! Blocking client: one connection per [`NetClient`].
//!
//! A `NetClient` keeps exactly one request in flight, so responses arrive
//! in order; the request id is still checked defensively. Concurrency
//! comes from holding several clients (one per thread), which is how the
//! bench and the loopback tests drive a server hard.

use crate::proto::{self, Op, RespBody, Response};
use cuart_host::scheduler::RangeRows;
use cuart_host::SchedError;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, EOF mid-frame).
    Io(io::Error),
    /// The peer sent bytes this protocol build cannot decode.
    Wire(proto::WireError),
    /// The server answered with a typed error frame.
    Remote(proto::ErrorCode, String),
}

impl NetError {
    /// If the remote error mirrors a [`SchedError`], recover it — lets
    /// callers match on backend refusals (queue full, shed, breaker)
    /// exactly as they would in-process.
    pub fn as_sched_error(&self) -> Option<SchedError> {
        match self {
            NetError::Remote(code, msg) => code.to_sched_error(msg),
            _ => None,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "net io: {e}"),
            NetError::Wire(e) => write!(f, "net wire: {e}"),
            NetError::Remote(code, msg) => write!(f, "server error {code:?}: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<proto::WireError> for NetError {
    fn from(e: proto::WireError) -> NetError {
        NetError::Wire(e)
    }
}

/// One connected, handshaken client.
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
    /// Latency budget attached to every request, in µs (0 = none).
    deadline_us: u32,
}

impl NetClient {
    /// Connect and handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.write_all(&proto::encode_hello(proto::VERSION))?;
        let mut hello = [0u8; proto::HELLO_BYTES];
        stream.read_exact(&mut hello)?;
        proto::decode_hello(&hello)?;
        Ok(NetClient {
            stream,
            next_id: 1,
            deadline_us: 0,
        })
    }

    /// Attach a per-op latency budget to every subsequent request (the
    /// server maps it onto the scheduler's deadline shedding). Saturates
    /// at ~71 minutes (`u32` µs).
    pub fn set_deadline(&mut self, budget: Option<Duration>) {
        self.deadline_us = match budget {
            None => 0,
            Some(b) => u32::try_from(b.as_micros()).unwrap_or(u32::MAX).max(1),
        };
    }

    /// Send one op and wait for its response body.
    fn call(&mut self, op: Op) -> Result<RespBody, NetError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let req = proto::Request {
            id,
            deadline_us: self.deadline_us,
            op,
        };
        let payload = proto::encode_request(&req)?;
        self.stream.write_all(&proto::encode_frame(&payload))?;
        let resp = self.read_response()?;
        // One request in flight → ids match unless the stream desynced.
        if resp.id != id && resp.id != 0 {
            return Err(NetError::Wire(proto::WireError::Truncated));
        }
        Ok(resp.body)
    }

    fn read_response(&mut self) -> Result<Response, NetError> {
        let mut header = [0u8; proto::FRAME_HEADER_BYTES];
        self.stream.read_exact(&mut header)?;
        let (len, crc) = proto::decode_frame_header(&header)?;
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        proto::check_frame_crc(&payload, crc)?;
        Ok(proto::decode_response(&payload)?)
    }

    fn values(&mut self, op: Op) -> Result<Vec<u64>, NetError> {
        match self.call(op)? {
            RespBody::Values(v) => Ok(v),
            RespBody::Error(code, msg) => Err(NetError::Remote(code, msg)),
            _ => Err(NetError::Wire(proto::WireError::Truncated)),
        }
    }

    /// Point lookups; one result per key in order.
    pub fn lookup(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, NetError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        self.values(Op::Lookup(keys))
    }

    /// One point lookup.
    pub fn lookup_one(&mut self, key: Vec<u8>) -> Result<u64, NetError> {
        let mut v = self.values(Op::Lookup(vec![key]))?;
        v.pop().ok_or(NetError::Wire(proto::WireError::Truncated))
    }

    /// Point updates; one status per op.
    pub fn update(&mut self, ops: Vec<(Vec<u8>, u64)>) -> Result<Vec<u64>, NetError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        self.values(Op::Update(ops))
    }

    /// Point inserts; one status per op.
    pub fn insert(&mut self, ops: Vec<(Vec<u8>, u64)>) -> Result<Vec<u64>, NetError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        self.values(Op::Insert(ops))
    }

    /// Inclusive range queries; one sorted row list per `[lo, hi]` pair.
    pub fn range(&mut self, ranges: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Vec<RangeRows>, NetError> {
        if ranges.is_empty() {
            return Ok(Vec::new());
        }
        match self.call(Op::Range(ranges))? {
            RespBody::Rows(rows) => Ok(rows),
            RespBody::Error(code, msg) => Err(NetError::Remote(code, msg)),
            _ => Err(NetError::Wire(proto::WireError::Truncated)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(Op::Ping)? {
            RespBody::Ok => Ok(()),
            RespBody::Error(code, msg) => Err(NetError::Remote(code, msg)),
            _ => Err(NetError::Wire(proto::WireError::Truncated)),
        }
    }

    /// Ask the server to begin its drain-safe shutdown (the server must
    /// have been started with remote shutdown allowed).
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.call(Op::Shutdown)? {
            RespBody::Ok => Ok(()),
            RespBody::Error(code, msg) => Err(NetError::Remote(code, msg)),
            _ => Err(NetError::Wire(proto::WireError::Truncated)),
        }
    }
}
