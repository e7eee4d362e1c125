//! Loopback integration suite for the `cuart-net` serving subsystem.
//!
//! Eight contracts are pinned here (the mixed workload the wire serves,
//! and the breaker storm over it, are checked against the one oracle by
//! `tests/differential.rs` as well):
//!
//! 1. **Oracle equivalence** — concurrent TCP clients spraying lookups
//!    through a [`ShardedScheduler`]-backed server, and updates, inserts
//!    and ranges over one connection, get the answers of the one oracle
//!    (`cuart_integration_tests::Model`).
//! 2. **Typed refusals** — queue-cap rejects and deadline sheds surface
//!    as typed error frames on a connection that stays usable; overload
//!    never drops a peer.
//! 3. **Hostile input** — bad magic, wrong version, CRC corruption,
//!    oversized and truncated frames each get an error frame (where the
//!    socket allows one) and cost at most that one connection.
//! 4. **No slot leaks** — a client that disconnects mid-flight leaves no
//!    resident ops behind: a full-queue-cap request still admits after
//!    the storm.
//! 5. **Drain ordering** — shutdown answers everything already admitted
//!    (tickets still held by a lingering executor included) before
//!    closing, then the listener is really gone and the metrics spill
//!    shows the drained gauge.
//! 6. **Reader submits, writer waits** — every in-flight request of one
//!    pipelining connection reaches the scheduler at once (so the
//!    connection coalesces with itself), responses come back in request
//!    order, and a dead executor is an error frame, not a hung writer.
//! 7. **Every request is answered** — an answer the wire cannot carry (a
//!    range row whose key is over 65,535 bytes) comes back as a typed
//!    `TooLarge` frame on a connection that stays usable, and a client
//!    refuses an over-cap request before sending a byte.
//! 8. **Idle timeout** — a peer silent for `idle_timeout` is closed
//!    between frames and mid-frame alike (mid-payload after a truncation
//!    error frame); one that keeps sending is served.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_host::scheduler::{AdmissionPolicy, SchedAnswer, SchedulerConfig};
use cuart_host::sharded::ShardedScheduler;
use cuart_host::Scheduler;
use cuart_integration_tests::{dense_index, mix, sized, Model};
use cuart_net::proto::{self, ErrorCode, Op, RespBody};
use cuart_net::{NetClient, NetError, NetServer, NetServerConfig};
use cuart_telemetry::{names, Telemetry};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A dense index (`cuart_integration_tests::dense_index`) on the test LUT.
fn build_index(n: u64, telemetry: Option<&Arc<Telemetry>>) -> Arc<CuartIndex> {
    let index = dense_index(n, &CuartConfig::for_tests());
    Arc::new(match telemetry {
        Some(t) => index.with_telemetry(Arc::clone(t)),
        None => index,
    })
}

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind loopback")
}

/// The model of `dense_index(n, _)`.
fn dense_model(n: u64) -> Model {
    (0..n).map(|i| (key(i), i * 3 + 1)).collect()
}

#[test]
fn concurrent_clients_match_the_cpu_engine_through_a_sharded_fleet() {
    let clients = 4u64;
    // ≥100k ops per client, ≥400k total over the fleet, at release size.
    let (chunks, chunk) = (sized(8, 100) as u64, sized(512, 1024));
    let index = build_index(64 * 1024, None);
    let devs = [devices::rtx3090(), devices::gtx1070()];
    let cfg = SchedulerConfig {
        batch_target: 4 * 1024,
        deadline: Duration::from_micros(300),
        ..SchedulerConfig::default()
    };
    let sharded = ShardedScheduler::spawn(Arc::clone(&index), &devs, cfg).unwrap();
    let server = NetServer::serve_sharded(listener(), sharded, None, NetServerConfig::default())
        .expect("serve");
    let addr = server.local_addr();
    let stop = server.shutdown_handle();

    let mut handles = Vec::new();
    for p in 0..clients {
        let mut model = dense_model(64 * 1024);
        handles.push(std::thread::spawn(move || {
            let mut conn = NetClient::connect(addr).expect("connect");
            let mut done = 0u64;
            for c in 0..chunks {
                // Mix of stored keys and (mostly missing) random ones.
                let keys: Vec<Vec<u8>> = (0..chunk as u64)
                    .map(|i| {
                        let r = mix(p.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ (done + i));
                        if r.is_multiple_of(2) {
                            key(r % (64 * 1024))
                        } else {
                            r.to_be_bytes().to_vec()
                        }
                    })
                    .collect();
                let expect = model.lookup(&keys);
                let got = conn.lookup(keys).expect("serving fleet alive");
                assert_eq!(got, expect, "client {p} diverged in chunk {c}");
                done += chunk as u64;
            }
            done
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, clients * chunks * chunk as u64);

    stop.shutdown();
    let report = server.join().expect("clean drain");
    assert_eq!(report.accepted, clients);
    assert_eq!(report.served_ops, total);
    assert_eq!(report.decode_errors, 0);
    let agg = report.sched.aggregate();
    assert_eq!(agg.ops_enqueued, total);
}

#[test]
fn updates_inserts_and_ranges_roundtrip_over_the_wire() {
    let index = build_index(4096, None);
    let mut model = dense_model(4096);
    let sched = Scheduler::spawn(
        Arc::clone(&index),
        devices::gtx1070(),
        SchedulerConfig {
            batch_target: 256,
            deadline: Duration::from_micros(200),
            ..SchedulerConfig::default()
        },
    );
    let server =
        NetServer::serve_single(listener(), sched, None, NetServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let mut conn = NetClient::connect(addr).unwrap();

    conn.ping().expect("ping");
    // Update an existing key, insert a brand-new one.
    let update = vec![(key(100), 9999)];
    let st = conn.update(update.clone()).unwrap();
    assert_eq!(st, model.update(&update));
    let insert = vec![(b"zz-new-key".to_vec(), 4242)];
    let st = conn.insert(insert.clone()).unwrap();
    assert_eq!(st.len(), 1);
    model.answer(&Op::Insert(insert));
    // Point-read both back over the wire.
    assert_eq!(conn.lookup_one(key(100)).unwrap(), 9999);
    assert_eq!(conn.lookup_one(b"zz-new-key".to_vec()).unwrap(), 4242);
    // An inclusive range spanning the update sees the new value, in key
    // order; an inverted range is empty, not an error.
    let ranges = vec![(key(98), key(102)), (key(50), key(40))];
    let rows = conn.range(ranges.clone()).unwrap();
    assert_eq!(rows.len(), 2);
    let got: Vec<(Vec<u8>, u64)> = rows[0].clone();
    let expect: Vec<(Vec<u8>, u64)> = (98..=102)
        .map(|i| (key(i), if i == 100 { 9999 } else { i * 3 + 1 }))
        .collect();
    assert_eq!(got, expect);
    assert!(rows[1].is_empty());
    let SchedAnswer::Rows(want) = model.answer(&Op::Range(ranges)) else {
        unreachable!("a range answers rows")
    };
    assert_eq!(rows, want);
    // A long key list in frames of 64 keys: results concatenate in order.
    let keys: Vec<Vec<u8>> = (0..300).map(key).collect();
    let mut got = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(64) {
        got.extend(conn.lookup(chunk.to_vec()).unwrap());
    }
    assert_eq!(got, model.lookup(&keys));

    stop.shutdown();
    let report = server.join().unwrap();
    assert_eq!(report.error_frames, 0);
}

#[test]
fn overload_refusals_are_typed_error_frames_on_a_live_connection() {
    let index = build_index(4096, None);
    let cfg = SchedulerConfig {
        batch_target: 1_000_000,
        deadline: Duration::from_millis(5),
        queue_cap: 64,
        admission: AdmissionPolicy::Reject,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let server =
        NetServer::serve_single(listener(), sched, None, NetServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let mut conn = NetClient::connect(addr).unwrap();

    // A single request over the resident-op cap: typed QueueFull frame.
    let keys: Vec<Vec<u8>> = (0..65).map(key).collect();
    let err = conn.lookup(keys).expect_err("over the cap");
    match &err {
        NetError::Remote(code, _) => assert_eq!(*code, ErrorCode::QueueFull),
        other => panic!("expected a typed error frame, got {other}"),
    }
    assert_eq!(
        err.as_sched_error(),
        Some(cuart_host::SchedError::QueueFull)
    );

    // A 1 µs budget against a 5 ms coalesce deadline: shed, typed frame.
    conn.set_deadline(Some(Duration::from_micros(1)));
    let err = conn.lookup(vec![key(1)]).expect_err("must be shed");
    match &err {
        NetError::Remote(code, _) => assert_eq!(*code, ErrorCode::DeadlineExceeded),
        other => panic!("expected a typed error frame, got {other}"),
    }

    // The same connection keeps serving after both refusals.
    conn.set_deadline(None);
    conn.ping().expect("connection survived the refusals");
    assert_eq!(conn.lookup_one(key(7)).unwrap(), 7 * 3 + 1);

    stop.shutdown();
    let report = server.join().unwrap();
    assert_eq!(report.error_frames, 2);
    assert_eq!(report.decode_errors, 0);
    assert_eq!(report.sched.aggregate().shed_ops, 1);
}

// ---------------------------------------------------------------------------
// Hostile-input helpers
// ---------------------------------------------------------------------------

/// Read one response frame off a raw socket, checking its CRC.
fn read_response(s: &mut TcpStream) -> proto::Response {
    let mut header = [0u8; proto::FRAME_HEADER_BYTES];
    s.read_exact(&mut header).expect("response frame header");
    let (len, crc) = proto::decode_frame_header(&header).expect("frame header");
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).expect("response frame payload");
    proto::check_frame_crc(&payload, crc).expect("frame crc");
    proto::decode_response(&payload).expect("response")
}

fn read_error_frame(stream: &mut TcpStream) -> (ErrorCode, String) {
    match read_response(stream).body {
        RespBody::Error(code, msg) => (code, msg),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

fn handshake_raw(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&proto::encode_hello(proto::VERSION)).unwrap();
    let mut hello = [0u8; proto::HELLO_BYTES];
    s.read_exact(&mut hello).unwrap();
    proto::decode_hello(&hello).unwrap();
    s
}

#[test]
fn hostile_frames_get_error_frames_and_cost_one_connection_each() {
    let telemetry = Arc::new(Telemetry::new());
    let index = build_index(4096, Some(&telemetry));
    let sched = Scheduler::spawn(
        Arc::clone(&index),
        devices::gtx1070(),
        SchedulerConfig {
            batch_target: 64,
            deadline: Duration::from_micros(200),
            ..SchedulerConfig::default()
        },
    );
    let server = NetServer::serve_single(
        listener(),
        sched,
        Some(Arc::clone(&telemetry)),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();

    // (a) Bad magic: typed BadVersion-class frame, no handshake echo.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"XXXXzzzz").unwrap();
    assert_eq!(read_error_frame(&mut s).0, ErrorCode::BadVersion);

    // (b) Right magic, future version: refused the same way.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&proto::encode_hello(proto::VERSION + 9))
        .unwrap();
    assert_eq!(read_error_frame(&mut s).0, ErrorCode::BadVersion);

    // (c) Valid handshake, then a CRC-corrupted request frame.
    let mut s = handshake_raw(addr);
    let payload = proto::encode_request(&proto::Request {
        id: 9,
        deadline_us: 0,
        op: Op::Ping,
    })
    .unwrap();
    let mut frame = proto::encode_frame(&payload);
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    s.write_all(&frame).unwrap();
    assert_eq!(read_error_frame(&mut s).0, ErrorCode::BadCrc);

    // (d) Header announcing an absurd length: rejected before allocating.
    let mut s = handshake_raw(addr);
    let mut header = [0u8; proto::FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
    s.write_all(&header).unwrap();
    assert_eq!(read_error_frame(&mut s).0, ErrorCode::TooLarge);

    // (e) Unknown opcode inside a well-formed frame.
    let mut s = handshake_raw(addr);
    let mut payload = Vec::new();
    payload.extend_from_slice(&11u64.to_le_bytes());
    payload.push(99); // no such opcode
    payload.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&proto::encode_frame(&payload)).unwrap();
    assert_eq!(read_error_frame(&mut s).0, ErrorCode::Unsupported);

    // (f) Truncated frame then hang-up: the server just moves on.
    let mut s = handshake_raw(addr);
    let mut frame = proto::encode_frame(&payload);
    frame.truncate(proto::FRAME_HEADER_BYTES + 2);
    s.write_all(&frame).unwrap();
    drop(s);

    // After all of that, a well-behaved client is served normally.
    let mut conn = NetClient::connect(addr).unwrap();
    assert_eq!(conn.lookup_one(key(3)).unwrap(), 3 * 3 + 1);

    stop.shutdown();
    let report = server.join().unwrap();
    assert!(
        report.decode_errors >= 5,
        "five hostile peers should be on the books: {report:?}"
    );
    assert_eq!(report.served_ops, 1);
    assert_eq!(
        telemetry.counter(names::NET_DECODE_ERRORS).get(),
        report.decode_errors
    );
}

#[test]
fn mid_flight_disconnects_leak_no_scheduler_slots() {
    let index = build_index(4096, None);
    let cfg = SchedulerConfig {
        batch_target: 1_000_000,
        deadline: Duration::from_millis(1),
        queue_cap: 64,
        admission: AdmissionPolicy::Reject,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let server =
        NetServer::serve_single(listener(), sched, None, NetServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();

    // 16 clients each admit a 32-op request and vanish without reading
    // the response.
    for round in 0..16u64 {
        let mut s = handshake_raw(addr);
        let payload = proto::encode_request(&proto::Request {
            id: round,
            deadline_us: 0,
            op: Op::Lookup((0..32).map(key).collect()),
        })
        .unwrap();
        s.write_all(&proto::encode_frame(&payload)).unwrap();
        drop(s);
    }

    // If any of those 512 ops leaked a resident slot, a request of
    // exactly `queue_cap` ops could never admit again. Retry briefly to
    // let the in-flight batches finish executing.
    let mut conn = NetClient::connect(addr).unwrap();
    let mut admitted = false;
    for _ in 0..100 {
        match conn.lookup((0..64).map(key).collect()) {
            Ok(values) => {
                assert_eq!(values.len(), 64);
                admitted = true;
                break;
            }
            Err(NetError::Remote(ErrorCode::QueueFull, _)) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(admitted, "disconnected requests must release their slots");

    stop.shutdown();
    server.join().expect("clean drain after disconnect storm");
}

#[test]
fn graceful_drain_answers_everything_admitted_then_closes_the_listener() {
    let telemetry = Arc::new(Telemetry::new());
    let index = build_index(4096, Some(&telemetry));
    let sched = Scheduler::spawn(
        Arc::clone(&index),
        devices::gtx1070(),
        SchedulerConfig {
            batch_target: 64,
            deadline: Duration::from_micros(500),
            ..SchedulerConfig::default()
        },
    );
    let server = NetServer::serve_single(
        listener(),
        sched,
        Some(Arc::clone(&telemetry)),
        NetServerConfig {
            allow_remote_shutdown: true,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Pipeline ten lookups and a shutdown on one raw socket without
    // reading a single response. The reader admits frames in order, so
    // all ten sit in the window before the shutdown op flips the stop
    // flag — drain MUST still answer every one of them.
    let mut s = handshake_raw(addr);
    let mut expected = std::collections::BTreeMap::new();
    for i in 0..10u64 {
        let payload = proto::encode_request(&proto::Request {
            id: i + 1,
            deadline_us: 0,
            op: Op::Lookup(vec![key(i)]),
        })
        .unwrap();
        s.write_all(&proto::encode_frame(&payload)).unwrap();
        expected.insert(i + 1, i * 3 + 1);
    }
    let payload = proto::encode_request(&proto::Request {
        id: 999,
        deadline_us: 0,
        op: Op::Shutdown,
    })
    .unwrap();
    s.write_all(&proto::encode_frame(&payload)).unwrap();

    // Eleven responses (matched by id), then EOF.
    let mut got = std::collections::BTreeMap::new();
    let mut shutdown_acked = false;
    for _ in 0..11 {
        // A missing frame here means the drain did not flush in-flight work.
        let resp = read_response(&mut s);
        match resp.body {
            RespBody::Values(v) => {
                got.insert(resp.id, v[0]);
            }
            RespBody::Ok => {
                assert_eq!(resp.id, 999);
                shutdown_acked = true;
            }
            other => panic!("unexpected drain response: {other:?}"),
        }
    }
    assert!(shutdown_acked);
    assert_eq!(got, expected, "every admitted request is answered");
    let mut byte = [0u8; 1];
    assert_eq!(s.read(&mut byte).unwrap_or(0), 0, "then the socket closes");

    let report = server.join().expect("remote-triggered drain");
    assert_eq!(report.served_ops, 10);
    assert_eq!(report.frames_in, 11);
    assert_eq!(report.frames_out, 11);
    // The metrics spill records the drain.
    assert_eq!(telemetry.gauge(names::NET_DRAINED).get(), 1.0);
    assert_eq!(telemetry.gauge(names::NET_CONNECTIONS).get(), 0.0);
    assert!(telemetry.counter(names::NET_FRAMES_IN).get() >= 11);

    // And the listener is really gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "accept loop must be stopped after drain"
    );
}

/// Write `requests` back to back on a handshaken raw socket without
/// reading anything.
fn pipeline(s: &mut TcpStream, requests: impl IntoIterator<Item = proto::Request>) {
    for req in requests {
        let payload = proto::encode_request(&req).unwrap();
        s.write_all(&proto::encode_frame(&payload)).unwrap();
    }
}

#[test]
fn one_pipelining_connection_coalesces_with_itself_and_is_answered_in_order() {
    const REQUESTS: u64 = 32;
    const KEYS: u64 = 8;
    let index = build_index(4096, None);
    // A long linger and a size target of exactly the pipeline: the one
    // batch forms only if all 32 requests sit in the scheduler together.
    // A server that let fewer through at a time would flush them in
    // several lingering batches.
    let cfg = SchedulerConfig {
        batch_target: (REQUESTS * KEYS) as usize,
        deadline: Duration::from_secs(30),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let server =
        NetServer::serve_single(listener(), sched, None, NetServerConfig::default()).unwrap();
    let stop = server.shutdown_handle();

    let mut s = handshake_raw(server.local_addr());
    pipeline(
        &mut s,
        (0..REQUESTS).map(|r| proto::Request {
            id: r + 1,
            deadline_us: 0,
            op: Op::Lookup((0..KEYS).map(|i| key(r * KEYS + i)).collect()),
        }),
    );
    for r in 0..REQUESTS {
        let resp = read_response(&mut s);
        assert_eq!(resp.id, r + 1, "responses come back in request order");
        let want: Vec<u64> = (0..KEYS).map(|i| (r * KEYS + i) * 3 + 1).collect();
        assert_eq!(resp.body, RespBody::Values(want));
    }
    drop(s);

    stop.shutdown();
    let report = server.join().unwrap();
    let agg = report.sched.aggregate();
    assert_eq!(report.served_ops, REQUESTS * KEYS);
    assert!(
        agg.mean_batch_fill() > KEYS as f64,
        "a pipelining connection must coalesce: {agg:?}"
    );
    assert_eq!((agg.batches, agg.size_flushes), (1, 1), "{agg:?}");
}

#[test]
fn drain_answers_tickets_a_lingering_executor_still_holds() {
    let index = build_index(4096, None);
    let cfg = SchedulerConfig {
        batch_target: 1_000_000,
        deadline: Duration::from_millis(200),
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let server = NetServer::serve_single(
        listener(),
        sched,
        None,
        NetServerConfig {
            allow_remote_shutdown: true,
            ..NetServerConfig::default()
        },
    )
    .unwrap();

    // Ten lookups, then the shutdown: the reader has submitted all ten —
    // the executor is holding them open — when the drain begins.
    let mut s = handshake_raw(server.local_addr());
    let lookups = (0..10u64).map(|i| proto::Request {
        id: i + 1,
        deadline_us: 0,
        op: Op::Lookup(vec![key(i)]),
    });
    pipeline(
        &mut s,
        lookups.chain([proto::Request {
            id: 999,
            deadline_us: 0,
            op: Op::Shutdown,
        }]),
    );
    for i in 0..10u64 {
        let resp = read_response(&mut s);
        assert_eq!(
            (resp.id, resp.body),
            (i + 1, RespBody::Values(vec![i * 3 + 1]))
        );
    }
    assert_eq!(read_response(&mut s).body, RespBody::Ok);

    let report = server.join().expect("remote-triggered drain");
    assert_eq!((report.served_ops, report.frames_out), (10, 11));
    let agg = report.sched.aggregate();
    assert_eq!((agg.batches, agg.keys_dispatched), (1, 10), "{agg:?}");
}

#[test]
fn a_dead_executor_is_an_error_frame_not_a_hung_writer() {
    let index = build_index(4096, None);
    // A device with no DRAM channels: the memory model divides by the
    // channel count, so the first batch panics the executor mid-launch —
    // with this connection's ticket in its hands.
    let mut broken = devices::gtx1070();
    broken.mem.channels = 0;
    let sched = Scheduler::spawn(Arc::clone(&index), broken, SchedulerConfig::default());
    let server =
        NetServer::serve_single(listener(), sched, None, NetServerConfig::default()).unwrap();
    let stop = server.shutdown_handle();
    let mut conn = NetClient::connect(server.local_addr()).unwrap();

    let err = conn.lookup(vec![key(1)]).expect_err("the executor died");
    assert_eq!(
        err.as_sched_error(),
        Some(cuart_host::SchedError::Disconnected),
        "{err}"
    );
    // The connection outlives the executor. A later request is refused at
    // admission — or, admitted while the executor's frame is still
    // unwinding, orphaned like the first.
    let err = conn
        .lookup(vec![key(2)])
        .expect_err("nothing serves any more");
    assert!(
        matches!(
            err.as_sched_error(),
            Some(cuart_host::SchedError::Shutdown | cuart_host::SchedError::Disconnected)
        ),
        "{err}"
    );
    conn.ping().expect("the connection itself is fine");

    stop.shutdown();
    match server.join() {
        Err(cuart_host::SchedError::ExecutorPanicked(_)) => {}
        other => panic!("join must report the executor's panic, got {other:?}"),
    }
}

#[test]
fn an_unencodable_answer_is_a_too_large_frame_on_a_live_connection() {
    // CpuRoute keeps a key of any length in a host leaf, so a range can
    // find a row the wire's u16 key prefix cannot carry.
    let mut art = Art::new();
    for i in 0..4096u64 {
        art.insert(&i.to_be_bytes(), i * 3 + 1).unwrap();
    }
    let long_key = vec![0xEE; 70_000];
    art.insert(&long_key, 77).unwrap();
    let index = Arc::new(CuartIndex::build(&art, &CuartConfig::for_tests()));
    assert_eq!(index.lookup_cpu(&long_key), Some(77));
    let sched = Scheduler::spawn(
        Arc::clone(&index),
        devices::gtx1070(),
        SchedulerConfig::default(),
    );
    let server =
        NetServer::serve_single(listener(), sched, None, NetServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();

    // The client runs on its own thread: a server that drops the answer
    // leaves it blocked on the read, and the wait below fails the test.
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut conn = NetClient::connect(addr).unwrap();
        let range = conn.range(vec![(vec![0xEE], vec![0xEF])]);
        tx.send(range.map(|rows| rows.len())).unwrap();
        let lookup = conn.lookup(vec![key(3), key(5)]);
        tx.send(lookup.map(|values| values.len())).unwrap();
        // Over the frame cap: refused locally, nothing is sent.
        let keys = (0..1025).map(|_| vec![0u8; u16::MAX as usize]).collect();
        let refused = conn.lookup(keys);
        assert!(
            matches!(
                refused,
                Err(NetError::Wire(proto::WireError::TooLarge(n))) if n > proto::MAX_FRAME_BYTES
            ),
            "{refused:?}"
        );
        conn.lookup(vec![key(7)])
    });
    let wait = Duration::from_secs(60);
    match rx.recv_timeout(wait).expect("the range must be answered") {
        Err(NetError::Remote(code, msg)) => assert_eq!(code, ErrorCode::TooLarge, "{msg}"),
        other => panic!("expected a TooLarge error frame, got {other:?}"),
    }
    let after = rx
        .recv_timeout(wait)
        .expect("the connection must stay usable");
    assert_eq!(after.unwrap(), 2);
    assert_eq!(client.join().unwrap().unwrap(), vec![7 * 3 + 1]);

    stop.shutdown();
    let report = server.join().unwrap();
    assert_eq!(report.error_frames, 1);
    assert_eq!(report.served_ops, 3);
}

/// A raw connection whose reads give up after 10 s: a server that never
/// closes it fails the test instead of hanging it.
fn handshake_with_read_timeout(addr: std::net::SocketAddr) -> TcpStream {
    let s = handshake_raw(addr);
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// The server closed the connection: a read finds EOF, not a timeout.
fn assert_closed(s: &mut TcpStream, case: &str) {
    let mut byte = [0u8; 1];
    match s.read(&mut byte) {
        Ok(0) => {}
        other => panic!("{case}: expected the server to close, got {other:?}"),
    }
}

#[test]
fn idle_timeout_closes_idle_and_stalled_peers_and_serves_busy_ones() {
    let index = build_index(64, None);
    let sched = Scheduler::spawn(
        Arc::clone(&index),
        devices::gtx1070(),
        SchedulerConfig::default(),
    );
    let idle = Duration::from_millis(300);
    let cfg = NetServerConfig {
        idle_timeout: Some(idle),
        ..NetServerConfig::default()
    };
    let server = NetServer::serve_single(listener(), sched, None, cfg).unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let lookup = |id| {
        let payload = proto::encode_request(&proto::Request {
            id,
            deadline_us: 0,
            op: Op::Lookup(vec![key(id)]),
        })
        .unwrap();
        proto::encode_frame(&payload)
    };

    // Idle between frames: served once, then closed.
    let mut s = handshake_with_read_timeout(addr);
    s.write_all(&lookup(1)).unwrap();
    assert_eq!(read_response(&mut s).body, RespBody::Values(vec![4]));
    assert_closed(&mut s, "idle between frames");

    // Stalled mid-header: closed with no answer.
    let mut s = handshake_with_read_timeout(addr);
    s.write_all(&lookup(2)[..proto::FRAME_HEADER_BYTES - 1])
        .unwrap();
    assert_closed(&mut s, "stalled mid-header");

    // Stalled mid-payload: a truncation error frame, then closed.
    let mut s = handshake_with_read_timeout(addr);
    s.write_all(&lookup(3)[..proto::FRAME_HEADER_BYTES + 2])
        .unwrap();
    let (code, msg) = read_error_frame(&mut s);
    assert_eq!(code, ErrorCode::Protocol, "{msg}");
    assert_closed(&mut s, "stalled mid-payload");

    // A peer that keeps sending is served, though the frame takes longer
    // than the timeout to arrive: the timeout runs from the last byte.
    let mut s = handshake_with_read_timeout(addr);
    let frame = lookup(4);
    let piece = frame.len().div_ceil(8);
    for chunk in frame.chunks(piece) {
        s.write_all(chunk).unwrap();
        std::thread::sleep(idle / 6);
    }
    assert_eq!(read_response(&mut s).body, RespBody::Values(vec![13]));

    stop.shutdown();
    let report = server.join().unwrap();
    assert_eq!(report.decode_errors, 1, "{report:?}");
    assert_eq!(report.served_ops, 2, "{report:?}");
}
