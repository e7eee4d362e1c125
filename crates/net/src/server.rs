//! Backpressure-aware multi-threaded TCP server.
//!
//! The server owns a scheduler stack — a plain [`Scheduler`] or a
//! [`ShardedScheduler`] fleet — and serves the wire protocol from
//! [`proto`] over any number of connections:
//!
//! * **Per connection, two threads.** The *reader* decodes frames,
//!   **submits** each request to the scheduler stack (a non-blocking
//!   [`SchedulerClient::submit`](cuart_host::SchedulerClient::submit);
//!   admission control applies there) and pushes the resulting ticket
//!   into a *bounded* in-flight window (a `sync_channel` of
//!   [`NetServerConfig::window`] slots). The *writer* pops tickets in
//!   order, waits on each, encodes and writes its response frame. So
//!   every in-flight request of a connection is in the scheduler at once
//!   — a pipelining client coalesces with itself — and responses on one
//!   connection are written **in request order** (the frame still carries
//!   the request id).
//! * **Backpressure.** When the window is full the reader blocks, which
//!   stops draining the socket, which backs the TCP flow-control window
//!   up to the client. Overload never silently drops a connection —
//!   backend refusals ([`SchedError`]) come back as typed error frames.
//! * **Malformed input** (bad magic, wrong version, CRC mismatch,
//!   truncated or oversized frames) is answered with a typed error frame
//!   — after the responses to everything admitted before it — and *that
//!   one connection* is closed; the server survives.
//! * **Drain-safe shutdown** ([`ShutdownHandle::shutdown`] or a remote
//!   [`Op::Shutdown`] frame when enabled):
//!   stop accepting, stop reading new frames, answer every admitted
//!   ticket, flush writers, then `join()` the scheduler so its own FIFO
//!   drain contract applies. [`names::NET_DRAINED`] flips to 1.0 only
//!   after all of that succeeded.

use crate::proto::{self, ErrorCode, Op, Opcode, RespBody, Response, WireError};
use cuart_host::sharded::{ShardedClient, ShardedScheduler, ShardedStats};
use cuart_host::{
    SchedAnswer, SchedError, SchedOp, Scheduler, SchedulerClient, SchedulerStats, ShardedTicket,
    Ticket,
};
use cuart_telemetry::{names, CounterHandle, GaugeHandle, HistogramHandle, SpanNode, Telemetry};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll tick for reads and accepts; shutdown latency is bounded by this
/// (it is a poll interval, not a hard idle cutoff).
const TICK: Duration = Duration::from_millis(20);

/// Tuning for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-connection in-flight window: at most this many submitted
    /// requests may queue behind the one whose answer the writer is
    /// waiting for; beyond it the reader stops draining the socket (TCP
    /// backpressure).
    pub window: usize,
    /// Close a connection whose peer has sent no byte for this long:
    /// between frames quietly, mid-header likewise, mid-payload after a
    /// `Truncated` error frame (as EOF there would). `None` keeps idle
    /// and stalled connections open until shutdown.
    pub idle_timeout: Option<Duration>,
    /// Honor the wire [`Op::Shutdown`]
    /// opcode. Meant for drills and tests; defaults to off so a stray
    /// client cannot stop a server.
    pub allow_remote_shutdown: bool,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            window: 32,
            idle_timeout: None,
            allow_remote_shutdown: false,
        }
    }
}

/// Counters shared by every thread of one server.
#[derive(Default)]
struct NetCounters {
    accepted: AtomicU64,
    open: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    decode_errors: AtomicU64,
    error_frames: AtomicU64,
    window_stalls: AtomicU64,
    served_ops: AtomicU64,
}

/// Final report of a drained server (see [`NetServer::join`]).
#[derive(Debug)]
pub struct NetReport {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Point/range operations answered with an OK frame.
    pub served_ops: u64,
    /// Frames read (requests decoded or attempted).
    pub frames_in: u64,
    /// Frames written (responses, OK or error).
    pub frames_out: u64,
    /// Wire-level decode failures (each also closed its connection).
    pub decode_errors: u64,
    /// Typed error frames sent (decode failures + backend refusals).
    pub error_frames: u64,
    /// Times a connection's in-flight window was full when a frame
    /// arrived (reader blocked → TCP backpressure).
    pub window_stalls: u64,
    /// The drained scheduler stack's own statistics.
    pub sched: SchedReport,
}

/// Stats of whichever scheduler stack the server owned.
#[derive(Debug)]
pub enum SchedReport {
    /// Single-device scheduler.
    Single(SchedulerStats),
    /// Sharded fleet.
    Sharded(ShardedStats),
}

impl SchedReport {
    /// The stack's aggregate scheduler counters (field-wise sum across
    /// shards for the fleet case).
    pub fn aggregate(&self) -> SchedulerStats {
        match self {
            SchedReport::Single(s) => s.clone(),
            SchedReport::Sharded(s) => s.aggregate(),
        }
    }
}

/// The scheduler stack a server owns until drain.
enum AnySched {
    Single(Scheduler),
    Sharded(ShardedScheduler),
}

/// A per-connection producer handle onto [`AnySched`].
#[derive(Clone)]
enum AnyClient {
    Single(SchedulerClient),
    Sharded(ShardedClient),
}

/// The claim on one submitted request's answer.
enum AnyTicket {
    Single(Ticket),
    Sharded(ShardedTicket),
}

impl AnyClient {
    fn submit(&self, op: SchedOp, budget: Option<Duration>) -> AnyTicket {
        match self {
            AnyClient::Single(c) => AnyTicket::Single(c.submit(op, budget)),
            AnyClient::Sharded(c) => AnyTicket::Sharded(c.submit(op, budget)),
        }
    }
}

impl AnyTicket {
    fn wait(self) -> Result<SchedAnswer, SchedError> {
        match self {
            AnyTicket::Single(t) => t.wait(),
            AnyTicket::Sharded(t) => t.wait(),
        }
    }
}

/// Requests the server's drain-safe shutdown from any thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Begin the drain: stop accepting, finish in-flight work, join the
    /// scheduler. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// The server's telemetry: the registry and every series a connection
/// writes, resolved once per server and shared by its threads.
struct NetTelemetry {
    registry: Arc<Telemetry>,
    accepted: CounterHandle,
    frames_in: CounterHandle,
    frames_out: CounterHandle,
    bytes_out: CounterHandle,
    window_stalls: CounterHandle,
    error_frames: CounterHandle,
    decode_errors: CounterHandle,
    connections: GaugeHandle,
    drained: GaugeHandle,
    request_ns: HistogramHandle,
}

impl NetTelemetry {
    fn new(t: &Arc<Telemetry>) -> NetTelemetry {
        NetTelemetry {
            registry: Arc::clone(t),
            accepted: t.counter(names::NET_ACCEPTED),
            frames_in: t.counter(names::NET_FRAMES_IN),
            frames_out: t.counter(names::NET_FRAMES_OUT),
            bytes_out: t.counter(names::NET_BYTES_OUT),
            window_stalls: t.counter(names::NET_WINDOW_STALLS),
            error_frames: t.counter(names::NET_ERROR_FRAMES),
            decode_errors: t.counter(names::NET_DECODE_ERRORS),
            connections: t.gauge(names::NET_CONNECTIONS),
            drained: t.gauge(names::NET_DRAINED),
            request_ns: t.histogram(names::NET_REQUEST_NS),
        }
    }
}

/// A running server; see the [module docs](self) for the thread layout.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    sched: Arc<Mutex<Option<AnySched>>>,
    counters: Arc<NetCounters>,
    telemetry: Option<Arc<NetTelemetry>>,
}

impl NetServer {
    /// Serve a single-device [`Scheduler`].
    pub fn serve_single(
        listener: TcpListener,
        sched: Scheduler,
        telemetry: Option<Arc<Telemetry>>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServer> {
        let client = sched
            .client()
            .map_err(|e| io::Error::other(e.to_string()))?;
        Self::serve(
            listener,
            AnySched::Single(sched),
            AnyClient::Single(client),
            telemetry,
            cfg,
        )
    }

    /// Serve a [`ShardedScheduler`] fleet.
    pub fn serve_sharded(
        listener: TcpListener,
        sched: ShardedScheduler,
        telemetry: Option<Arc<Telemetry>>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServer> {
        let client = sched
            .client()
            .map_err(|e| io::Error::other(e.to_string()))?;
        Self::serve(
            listener,
            AnySched::Sharded(sched),
            AnyClient::Sharded(client),
            telemetry,
            cfg,
        )
    }

    fn serve(
        listener: TcpListener,
        sched: AnySched,
        client: AnyClient,
        telemetry: Option<Arc<Telemetry>>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServer> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        let telemetry = telemetry.map(|t| Arc::new(NetTelemetry::new(&t)));
        if let Some(t) = &telemetry {
            t.drained.set(0.0);
            t.connections.set(0.0);
        }
        let accept = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let telemetry = telemetry.clone();
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || {
                    accept_loop(listener, stop, client, counters, telemetry, cfg);
                })?
        };
        Ok(NetServer {
            addr,
            stop,
            accept,
            sched: Arc::new(Mutex::new(Some(sched))),
            counters,
            telemetry,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Block until a shutdown is requested (via [`Self::shutdown_handle`]
    /// or a remote shutdown frame), drain every connection's in-flight
    /// work, join the scheduler stack, and return the final report.
    pub fn join(self) -> Result<NetReport, SchedError> {
        // The accept thread owns the per-connection threads and joins
        // them before exiting, so this blocks until all in-flight
        // requests have been answered and flushed.
        if self.accept.join().is_err() {
            return Err(SchedError::ExecutorPanicked("net accept thread".into()));
        }
        let sched = {
            self.sched
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
        };
        let sched = match sched {
            Some(AnySched::Single(s)) => SchedReport::Single(s.join()?),
            Some(AnySched::Sharded(s)) => SchedReport::Sharded(s.join()?),
            None => return Err(SchedError::Shutdown),
        };
        if let Some(t) = &self.telemetry {
            t.drained.set(1.0);
            t.connections.set(0.0);
        }
        let c = &self.counters;
        Ok(NetReport {
            accepted: c.accepted.load(Ordering::Relaxed),
            served_ops: c.served_ops.load(Ordering::Relaxed),
            frames_in: c.frames_in.load(Ordering::Relaxed),
            frames_out: c.frames_out.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            error_frames: c.error_frames.load(Ordering::Relaxed),
            window_stalls: c.window_stalls.load(Ordering::Relaxed),
            sched,
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    client: AnyClient,
    counters: Arc<NetCounters>,
    telemetry: Option<Arc<NetTelemetry>>,
    cfg: NetServerConfig,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                let open = counters.open.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(t) = &telemetry {
                    t.accepted.incr(1);
                    t.connections.set(open as f64);
                }
                let ctx = ConnCtx {
                    stop: Arc::clone(&stop),
                    client: client.clone(),
                    counters: Arc::clone(&counters),
                    telemetry: telemetry.clone(),
                    cfg: cfg.clone(),
                };
                let h = std::thread::Builder::new()
                    .name("net-conn".into())
                    .spawn(move || connection(stream, ctx));
                match h {
                    Ok(h) => conns.push(h),
                    Err(_) => {
                        counters.open.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                // Reap finished connections so the handle list stays small.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(TICK),
        }
    }
    // Drain: every connection finishes its admitted requests and exits.
    for h in conns {
        let _ = h.join();
    }
}

/// Everything a connection's threads need.
struct ConnCtx {
    stop: Arc<AtomicBool>,
    client: AnyClient,
    counters: Arc<NetCounters>,
    telemetry: Option<Arc<NetTelemetry>>,
    cfg: NetServerConfig,
}

/// Read exactly `buf.len()` bytes, tolerating read-timeout ticks so the
/// stop flag stays responsive. Partial progress is kept across ticks.
/// Returns `Ok(false)` on clean EOF *before any byte* of `buf`. The host
/// clock is read once per pass, right after the read (the first pass
/// needs none: no time has passed that a rule could count), and
/// [`read_step`] applies the time rules at that instant.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    idle_timeout: Option<Duration>,
    last_byte: &mut Instant,
) -> io::Result<bool> {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let (mut filled, mut stop_seen, mut now) = (0, None, *last_byte);
    while filled < buf.len() {
        let stopping = stop.load(Ordering::SeqCst);
        match read_step(filled, stopping, stop_seen, *last_byte, idle_timeout, now) {
            ReadStep::More => {}
            end => return end.into_result(),
        }
        if stopping {
            stop_seen.get_or_insert(now);
        }
        let read = stream.read(&mut buf[filled..]);
        now = Instant::now();
        match read {
            Ok(0) => return ReadStep::end(filled).into_result(),
            Ok(n) => {
                filled += n;
                *last_byte = now;
            }
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// How long a draining server lets a frame it is midway through finish
/// arriving; then the connection closes (the request was never admitted).
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// What [`read_full`] does next: read on, end as if nothing of the buffer
/// had arrived (`Ok(false)`), or end mid-buffer (`UnexpectedEof`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadStep {
    More,
    Clean,
    Truncated,
}

impl ReadStep {
    /// A read cut off with `filled` bytes in: clean before the first byte.
    fn end(filled: usize) -> ReadStep {
        if filled == 0 {
            ReadStep::Clean
        } else {
            ReadStep::Truncated
        }
    }

    fn into_result(self) -> io::Result<bool> {
        match self {
            ReadStep::Truncated => Err(io::ErrorKind::UnexpectedEof.into()),
            _ => Ok(false),
        }
    }
}

/// The time rules of [`read_full`] at `now`, with `filled` bytes of the
/// buffer in. A peer that has sent nothing for `idle` since `last_byte`
/// ends the read as EOF at that point would, mid-frame included. Once
/// draining (`stop`, first seen at `stop_seen`, or now when `None`), no
/// new buffer starts, and one midway gets [`DRAIN_GRACE`] to finish.
fn read_step(
    filled: usize,
    stop: bool,
    stop_seen: Option<Instant>,
    last_byte: Instant,
    idle: Option<Duration>,
    now: Instant,
) -> ReadStep {
    let since = |t: Instant| now.saturating_duration_since(t);
    if idle.is_some_and(|idle| since(last_byte) > idle) {
        ReadStep::end(filled)
    } else if stop && (filled == 0 || since(stop_seen.unwrap_or(now)) > DRAIN_GRACE) {
        ReadStep::Clean
    } else {
        ReadStep::More
    }
}

/// One admitted request travelling from the reader to the writer.
struct InFlight {
    id: u64,
    opcode: Opcode,
    ops: u64,
    /// When the request's frame header had arrived.
    t0: Instant,
    answer: Answer,
}

/// What the writer turns into the response body.
enum Answer {
    /// Decided by the reader (ping, shutdown).
    Ready(RespBody),
    /// Submitted to the scheduler stack; the writer waits.
    Ticket(AnyTicket),
}

fn connection(mut stream: TcpStream, ctx: ConnCtx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TICK));
    let outcome = connection_inner(&mut stream, &ctx);
    let open = ctx.counters.open.fetch_sub(1, Ordering::Relaxed) - 1;
    if let Some(t) = &ctx.telemetry {
        t.connections.set(open as f64);
    }
    // Socket errors mid-connection (including client disconnects) end
    // that one connection only; nothing to escalate.
    let _ = outcome;
}

fn connection_inner(stream: &mut TcpStream, ctx: &ConnCtx) -> io::Result<()> {
    // --- Handshake: exchange hellos before any frame. -----------------
    let mut last_byte = Instant::now();
    let mut hello = [0u8; proto::HELLO_BYTES];
    if !read_full(
        stream,
        &mut hello,
        &ctx.stop,
        ctx.cfg.idle_timeout,
        &mut last_byte,
    )? {
        return Ok(());
    }
    if let Err(e) = proto::decode_hello(&hello) {
        // Answer with a typed error frame (id 0: no request exists yet)
        // and close; the server survives bad peers.
        return refuse_malformed(stream, ctx, &e);
    }
    let our_hello = proto::encode_hello(proto::VERSION);
    stream.write_all(&our_hello)?;

    // --- Per-connection pipeline: reader (this thread) → bounded window
    // of tickets → writer. -------------------------------------------
    let (window_tx, window_rx) = sync_channel::<InFlight>(ctx.cfg.window.max(1));
    let writer = {
        let mut out = stream.try_clone()?;
        let counters = Arc::clone(&ctx.counters);
        let telemetry = ctx.telemetry.clone();
        std::thread::Builder::new()
            .name("net-writer".into())
            .spawn(move || write_answers(&mut out, window_rx, &counters, telemetry.as_deref()))?
    };

    let read_outcome = read_and_submit(stream, ctx, &window_tx, &mut last_byte);

    // Close the window: the writer answers every ticket still in it,
    // flushes and exits, so every admitted request is answered before
    // the connection tears down — and before a malformed frame's error,
    // which this thread writes once it is the socket's only writer.
    drop(window_tx);
    let _ = writer.join();
    match read_outcome? {
        Some(malformed) => refuse_malformed(stream, ctx, &malformed),
        None => Ok(()),
    }
}

/// Read, decode and submit frames until the peer closes, the server
/// drains, or a frame is malformed (returned, for the caller to answer
/// once the window has emptied).
fn read_and_submit(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    window_tx: &SyncSender<InFlight>,
    last_byte: &mut Instant,
) -> io::Result<Option<WireError>> {
    let mut header = [0u8; proto::FRAME_HEADER_BYTES];
    loop {
        if !read_full(
            stream,
            &mut header,
            &ctx.stop,
            ctx.cfg.idle_timeout,
            last_byte,
        )? {
            return Ok(None);
        }
        let t0 = Instant::now();
        let decoded = proto::decode_frame_header(&header).and_then(|(len, crc)| {
            let mut payload = vec![0u8; len];
            let idle = ctx.cfg.idle_timeout;
            if !read_full(stream, &mut payload, &ctx.stop, idle, last_byte)? {
                // EOF or a stall mid-frame: treat as truncation.
                return Err(WireError::Truncated);
            }
            proto::check_frame_crc(&payload, crc)?;
            proto::decode_request(&payload)
        });
        ctx.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &ctx.telemetry {
            t.frames_in.incr(1);
        }
        let req = match decoded {
            Ok(req) => req,
            // A peer whose framing we cannot trust gets its connection
            // closed; everyone else is unaffected.
            Err(e) => return Ok(Some(e)),
        };
        let in_flight = InFlight {
            id: req.id,
            opcode: req.op.opcode(),
            ops: req.op.ops() as u64,
            t0,
            answer: submit(req, ctx),
        };
        // Bounded in-flight window. A full window blocks the reader —
        // that *is* the backpressure (the socket stops draining).
        match window_tx.try_send(in_flight) {
            Ok(()) => {}
            Err(TrySendError::Full(in_flight)) => {
                ctx.counters.window_stalls.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &ctx.telemetry {
                    t.window_stalls.incr(1);
                }
                if window_tx.send(in_flight).is_err() {
                    return Ok(None);
                }
            }
            Err(TrySendError::Disconnected(_)) => return Ok(None),
        }
    }
}

/// `read_full` for the payload leg, mapped into `WireError` so it can
/// join the decode pipeline.
impl From<io::Error> for WireError {
    fn from(_: io::Error) -> WireError {
        WireError::Truncated
    }
}

/// Hand one decoded request to the scheduler stack without waiting for
/// its batch; the control opcodes are decided on the spot.
fn submit(req: proto::Request, ctx: &ConnCtx) -> Answer {
    let budget = match req.deadline_us {
        0 => None,
        us => Some(Duration::from_micros(u64::from(us))),
    };
    let op = match req.op {
        Op::Lookup(keys) => SchedOp::Lookup(keys),
        Op::Update(ops) => SchedOp::Update(ops),
        Op::Insert(ops) => SchedOp::Insert(ops),
        Op::Range(ranges) => SchedOp::Range(ranges),
        Op::Ping => return Answer::Ready(RespBody::Ok),
        Op::Shutdown => {
            return Answer::Ready(if ctx.cfg.allow_remote_shutdown {
                // The reader sees the flag before its next frame: what
                // was admitted ahead of this request is still answered.
                ctx.stop.store(true, Ordering::SeqCst);
                RespBody::Ok
            } else {
                RespBody::Error(ErrorCode::Unsupported, "remote shutdown disabled".into())
            });
        }
    };
    Answer::Ticket(ctx.client.submit(op, budget))
}

/// The response body for one waited ticket; a refusal, a shed or a dead
/// executor becomes a typed error frame.
fn response_body(outcome: Result<SchedAnswer, SchedError>) -> RespBody {
    match outcome {
        Ok(SchedAnswer::Values(values)) => RespBody::Values(values),
        Ok(SchedAnswer::Rows(rows)) => RespBody::Rows(rows),
        Err(e) => RespBody::Error(proto::error_code_of(&e), e.to_string()),
    }
}

/// The connection's only writer while it runs: answer the window's
/// tickets in request order until the reader closes it.
fn write_answers(
    out: &mut TcpStream,
    window_rx: Receiver<InFlight>,
    counters: &NetCounters,
    telemetry: Option<&NetTelemetry>,
) {
    // Once a write fails the client is gone; keep waiting on tickets so
    // the reader never blocks on a full window, and drop the answers
    // (each backend call still completes and releases its slots).
    let mut peer_alive = true;
    while let Ok(in_flight) = window_rx.recv() {
        let body = match in_flight.answer {
            Answer::Ready(body) => body,
            Answer::Ticket(ticket) => response_body(ticket.wait()),
        };
        let wall_ns = in_flight.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let (payload, ok) = encode_answer(in_flight.id, body);
        if ok {
            counters
                .served_ops
                .fetch_add(in_flight.ops, Ordering::Relaxed);
        } else {
            counters.error_frames.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t) = telemetry {
            if !ok {
                t.error_frames.incr(1);
            }
            t.request_ns.observe(wall_ns);
            let span = SpanNode::leaf(names::spans::NET_REQUEST, wall_ns)
                .with_attr("op", in_flight.opcode.as_str())
                .with_attr("ops", in_flight.ops)
                .with_attr("ok", ok);
            t.registry.record_span_tree(span);
        }
        if peer_alive {
            peer_alive =
                write_frame(out, &proto::encode_frame(&payload), counters, telemetry).is_ok();
        }
    }
    let _ = out.flush();
}

/// Encode one answer, and whether it is the OK body it was asked to be.
/// A body the wire cannot carry (a range row whose key is over 65,535
/// bytes, a payload over the frame cap) goes out as a `TooLarge` error
/// frame under the same id: the in-order client gets an answer, never
/// silence or a frame it must refuse.
fn encode_answer(id: u64, body: RespBody) -> (Vec<u8>, bool) {
    let ok = !matches!(body, RespBody::Error(..));
    match proto::encode_response(&Response { id, body }) {
        Ok(payload) => (payload, ok),
        Err(e) => {
            let msg = format!("answer not encodable: {e}");
            (
                proto::encode_error(id, proto::wire_error_code(&e), &msg),
                false,
            )
        }
    }
}

/// Write one encoded frame and count it.
fn write_frame(
    out: &mut TcpStream,
    frame: &[u8],
    counters: &NetCounters,
    telemetry: Option<&NetTelemetry>,
) -> io::Result<()> {
    out.write_all(frame)?;
    counters.frames_out.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = telemetry {
        t.frames_out.incr(1);
        t.bytes_out.incr(frame.len() as u64);
    }
    Ok(())
}

/// Answer a malformed hello or frame with a typed error frame (id 0: it
/// belongs to no request). Called only while this thread is the socket's
/// sole writer; the caller closes the connection afterwards.
fn refuse_malformed(stream: &mut TcpStream, ctx: &ConnCtx, e: &WireError) -> io::Result<()> {
    ctx.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
    ctx.counters.error_frames.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = &ctx.telemetry {
        t.decode_errors.incr(1);
        t.error_frames.incr(1);
    }
    let payload = proto::encode_error(0, proto::wire_error_code(e), &e.to_string());
    write_frame(
        stream,
        &proto::encode_frame(&payload),
        &ctx.counters,
        ctx.telemetry.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: Duration = Duration::from_nanos(1);

    /// The drain grace and the idle stall, each 1 ns either side of its
    /// boundary, before and after the first byte of the buffer.
    #[test]
    fn read_step_time_rules_at_exact_instants() {
        use ReadStep::{Clean, More, Truncated};
        let t0 = Instant::now();
        let idle = Duration::from_millis(250);
        // Draining, no idle timeout: a buffer not yet begun ends at once,
        // whatever the time; one midway gets the grace, and not 1 ns more.
        let drain = |filled, now| read_step(filled, true, Some(t0), t0, None, now);
        for at in [t0 + DRAIN_GRACE - NS, t0 + DRAIN_GRACE + NS] {
            assert_eq!(drain(0, at), Clean);
        }
        assert_eq!(drain(3, t0 + DRAIN_GRACE - NS), More);
        assert_eq!(drain(3, t0 + DRAIN_GRACE), More);
        assert_eq!(drain(3, t0 + DRAIN_GRACE + NS), Clean);
        // The stop is seen for the first time now: the grace starts now.
        let late = t0 + 10 * DRAIN_GRACE;
        assert_eq!(read_step(3, true, None, late, None, late), More);
        // Idle, not draining: a stall before the first byte is a clean
        // end, after it a truncation.
        let stall = |filled, now| read_step(filled, false, None, t0, Some(idle), now);
        assert_eq!(stall(0, t0 + idle - NS), More);
        assert_eq!(stall(0, t0 + idle), More);
        assert_eq!(stall(0, t0 + idle + NS), Clean);
        assert_eq!(stall(3, t0 + idle - NS), More);
        assert_eq!(stall(3, t0 + idle + NS), Truncated);
        // No idle timeout never stalls; a byte resets the stall clock.
        assert_eq!(read_step(3, false, None, t0, None, t0 + 1000 * idle), More);
        let byte = t0 + idle;
        assert_eq!(
            read_step(3, false, None, byte, Some(idle), byte + idle - NS),
            More
        );
        // A stall inside the drain grace still truncates.
        let both = read_step(3, true, Some(t0), t0, Some(idle), t0 + idle + NS);
        assert_eq!(both, Truncated);
    }
}
