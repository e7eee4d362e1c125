//! `cuart serve` and `cuart bench-net`: the server both build, the
//! serving drills and the drained server's report.

use crate::{stored_keys, two_clock_line, CliError, Spill};
use cuart::CuartIndex;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::{DeviceConfig, FaultConfig, FaultInjector};
use cuart_host::scheduler::{SchedError, Scheduler, SchedulerConfig};
use cuart_host::sharded::ShardedScheduler;
use cuart_net::{NetClient, NetError, NetServer, NetServerConfig, SchedReport};
use cuart_telemetry::Telemetry;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Start the server `cuart serve` runs: one scheduler per device in
/// `devs` built from `sched` — a sharded fleet when there are several —
/// behind `listener`, every layer recording into `telemetry`.
fn start_server(
    index: CuartIndex,
    telemetry: &Arc<Telemetry>,
    devs: &[DeviceConfig],
    sched: SchedulerConfig,
    net: NetServerConfig,
    listener: TcpListener,
) -> Result<NetServer, CliError> {
    let index = Arc::new(index.with_telemetry(telemetry.clone()));
    let telemetry = Some(Arc::clone(telemetry));
    if let [dev] = devs {
        let single = Scheduler::spawn(index, *dev, sched);
        NetServer::serve_single(listener, single, telemetry, net)
    } else {
        // Several devices, or none, which the fleet refuses.
        let fleet = ShardedScheduler::spawn(index, devs, sched)
            .map_err(|e| CliError::Input(format!("scheduler: {e}")))?;
        NetServer::serve_sharded(listener, fleet, telemetry, net)
    }
    .map_err(CliError::Io)
}

/// Serve a saved index over TCP (`cuart serve INDEX --listen ADDR`): the
/// binary RPC protocol of [`cuart_net`] in front of the server
/// `start_server` builds from `devs` and `sched`. Blocks until a remote
/// shutdown frame arrives (requires `net.allow_remote_shutdown`) or the
/// process is killed; on a clean drain the final summary (and the spill,
/// including the `cuart.net.*` series and the `cuart.net.drained` gauge)
/// is emitted.
pub fn cmd_serve(
    path: &Path,
    listen: &str,
    devs: &[DeviceConfig],
    sched: SchedulerConfig,
    net: NetServerConfig,
    spill: &Spill,
) -> Result<String, CliError> {
    let index = CuartIndex::load(path)?;
    let telemetry = Arc::new(Telemetry::new());
    let listener = TcpListener::bind(listen)
        .map_err(|e| CliError::Input(format!("cannot listen on {listen}: {e}")))?;
    let (window, armed) = (net.window, net.allow_remote_shutdown);
    let server = start_server(index, &telemetry, devs, sched, net, listener)?;
    let addr = server.local_addr();
    // Liveness line on stderr before blocking, so scripts (and the CI
    // drill) know the listener is up even when stdout is buffered.
    eprintln!(
        "serving {} on {addr} ({} shard(s), window {window}{})",
        path.display(),
        devs.len(),
        if armed { ", remote shutdown armed" } else { "" }
    );
    let report = server
        .join()
        .map_err(|e| CliError::Input(format!("serve: {e}")))?;
    let mut out = render_net_report(&report, &addr.to_string());
    spill.write(&mut out, &telemetry)?;
    Ok(out)
}

/// The drained server's summary; a sharded fleet adds its modeled
/// scale-out throughput (total keys over the slowest shard) and one line
/// per shard.
fn render_net_report(report: &cuart_net::NetReport, addr: &str) -> String {
    let agg = report.sched.aggregate();
    let mut out = format!(
        "drained {addr} cleanly — {} connection(s), {} ops served\n\
         frames {} in / {} out, {} decode errors, {} error frames, \
         {} window stalls\nscheduler: {} batches (mean fill {:.0}), \
         {} shed / {} rejected / {} admission timeouts, {} breaker trips",
        report.accepted,
        report.served_ops,
        report.frames_in,
        report.frames_out,
        report.decode_errors,
        report.error_frames,
        report.window_stalls,
        agg.batches,
        agg.mean_batch_fill(),
        agg.shed_ops,
        agg.rejected_ops,
        agg.admission_timeout_ops,
        agg.breaker_trips,
    );
    if let SchedReport::Sharded(s) = &report.sched {
        let _ = write!(
            out,
            "\nsharded: {} requests routed over {} shards, modeled scale-out \
             {:.1} MOps/s (slowest shard {:.1} µs busy)",
            s.routed_requests,
            s.shards.len(),
            s.modeled_aggregate_mops(),
            s.modeled_time_ns() / 1e3,
        );
        for shard in &s.shards {
            let st = &shard.stats;
            let _ = write!(
                out,
                "\nshard {} ({}): {} ops, {} batches, kernel {:.1} µs, \
                 {} shed / {} rejected, {} breaker trips",
                shard.shard,
                shard.device.name,
                st.ops_enqueued,
                st.batches,
                st.kernel_time_ns / 1e3,
                st.shed_ops,
                st.rejected_ops,
                st.breaker_trips,
            );
        }
    }
    out
}

/// The server `cuart bench-net` sends its load to.
#[expect(
    clippy::large_enum_variant,
    reason = "one value per run, moved into the drill"
)]
pub enum Target<'a> {
    /// An external `cuart serve` at `addr` (the dial is retried until its
    /// listener is up); `shutdown` sends it the drain frame when done.
    Connect {
        /// The server's address.
        addr: &'a str,
        /// Send the remote-shutdown frame after the load.
        shutdown: bool,
    },
    /// The server `cuart serve` builds from `devs` and `sched`, self-hosted
    /// on an ephemeral loopback port and drained when done; its telemetry
    /// goes to `spill`.
    Host {
        /// One device, or one per key-space shard.
        devs: Vec<DeviceConfig>,
        /// Every scheduler's config.
        sched: SchedulerConfig,
        /// Where the server's telemetry is written.
        spill: Spill,
    },
}

/// Loopback/remote serving drill (`cuart bench-net`): `clients` client
/// threads spray point lookups at the [`Target`] server in `req_keys`-key
/// frames, `ops` in all. A self-hosted server is drained when done, and
/// the drill reports both clocks and the server's summary.
///
/// Clients count overload refusals (`QueueFull`, `AdmissionTimeout`,
/// `DeadlineExceeded`) instead of failing on them; goodput is the ops
/// that were not refused. `smoke` pins the load (4 clients × 8192 ops in
/// 256-key frames) for comparable CI runs and, self-hosted, adds the
/// deterministic drill:
/// - with faults on one device, a pinned fault storm (device ops 0..8
///   fail, a 2 ms breaker cooldown, one probe batch) replaces the random
///   rate, and 1-key lookups follow the load until the circuit breaker's
///   `Open → HalfOpen → Closed` walk shows a `recovered` event;
/// - with an op deadline, 1 µs-budget lookups follow until one is shed.
pub fn cmd_bench_net(
    path: &Path,
    target: Target<'_>,
    clients: usize,
    ops: usize,
    req_keys: usize,
    smoke: bool,
) -> Result<String, CliError> {
    let (clients, ops, req_keys) = if smoke {
        (4, 8192, 256)
    } else {
        (clients.max(1), ops.max(1), req_keys.max(1))
    };
    let index = CuartIndex::load(path)?;
    let stored = stored_keys(&index)?;

    let telemetry = Arc::new(Telemetry::new());
    let (addr, shutdown, hosted) = match target {
        Target::Connect { addr, shutdown } => (addr.to_string(), shutdown, None),
        Target::Host {
            devs,
            mut sched,
            spill,
        } => {
            let storm = smoke && devs.len() == 1 && sched.fault_injector.is_some();
            if let Some(f) = sched.fault_injector.as_mut().filter(|_| storm) {
                // Early device ops fail (degrade + breaker trip), later
                // ones are clean, and a short cooldown lets the Open →
                // HalfOpen → Closed walk finish inside the drill.
                *f =
                    FaultInjector::new(FaultConfig::uniform(f.config().seed, 0.0).fail_range(0, 8));
                sched.breaker.open_cooldown = Duration::from_millis(2);
                sched.breaker.probe_batches = 1;
            }
            let shed = smoke && sched.op_deadline.is_some();
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let server = start_server(
                index,
                &telemetry,
                &devs,
                sched,
                NetServerConfig::default(),
                listener,
            )?;
            let addr = server.local_addr().to_string();
            (addr, false, Some((server, devs, spill, storm, shed)))
        }
    };

    // An external listener may still be binding; retry the dial briefly.
    let dial = |what: &str| -> Result<NetClient, CliError> {
        let mut last = None;
        for _ in 0..100 {
            match NetClient::connect(&addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        Err(CliError::Input(format!(
            "{what}: cannot reach {addr}: {}",
            last.map(|e| e.to_string()).unwrap_or_default()
        )))
    };
    dial("probe")?.ping().map_err(net_err)?;

    let per_client = ops.div_ceil(clients).max(1);
    let t0 = std::time::Instant::now();
    let mut handles = Vec::new();
    for p in 0..clients {
        let mut conn = dial("client")?;
        // Each client strides through the stored keys from its own
        // offset, so arrival order at the executor is interleaved.
        let probes: Vec<Vec<u8>> = (0..per_client)
            .map(|i| {
                stored[p.wrapping_mul(131).wrapping_add(i.wrapping_mul(7)) % stored.len()]
                    .0
                    .clone()
            })
            .collect();
        handles.push(std::thread::spawn(move || -> Result<_, NetError> {
            let (mut hits, mut refused) = (0u64, 0u64);
            for chunk in probes.chunks(req_keys) {
                match conn.lookup(chunk.to_vec()) {
                    Ok(results) => {
                        hits += results.iter().filter(|&&r| r != NOT_FOUND).count() as u64;
                    }
                    Err(e) if is_refusal(&e) => refused += chunk.len() as u64,
                    Err(e) => return Err(e),
                }
            }
            Ok((hits, refused))
        }));
    }
    let (mut hits, mut refused) = (0u64, 0u64);
    for h in handles {
        let (h, r) = h
            .join()
            .map_err(|_| CliError::Input("client thread panicked".into()))?
            .map_err(net_err)?;
        hits += h;
        refused += r;
    }
    let wall = t0.elapsed();
    let sent = (per_client * clients) as u64;
    let served = sent - refused;
    let mut out = format!(
        "{sent} lookups from {clients} client(s) over TCP to {addr} — \
         {hits} hits, {refused} refused, {:.1} ms wall, {:.0} ops/s goodput",
        wall.as_secs_f64() * 1e3,
        served as f64 / wall.as_secs_f64().max(1e-9),
    );
    let Some((server, devs, spill, storm, shed)) = hosted else {
        if shutdown {
            dial("shutdown")?.shutdown_server().map_err(net_err)?;
        }
        return Ok(out);
    };
    let key = &stored[0].0;
    if storm {
        drive_breaker_recovery(&mut dial("recovery drive")?, &telemetry, key)?;
    }
    if shed {
        shed_probe(&mut dial("shed probe")?, key)?;
    }
    server.shutdown_handle().shutdown();
    let report = server
        .join()
        .map_err(|e| CliError::Input(format!("drain: {e}")))?;
    let modeled_ns = match &report.sched {
        SchedReport::Single(s) => s.modeled_time_ns(&devs[0]),
        SchedReport::Sharded(s) => s.modeled_time_ns(),
    };
    let _ = write!(
        out,
        "\n{}\n{}",
        two_clock_line(served, modeled_ns, wall),
        render_net_report(&report, &addr)
    );
    spill.write(&mut out, &telemetry)?;
    Ok(out)
}

/// An overload refusal, which a drill counts instead of failing on.
fn is_refusal(e: &NetError) -> bool {
    matches!(
        e.as_sched_error(),
        Some(SchedError::QueueFull | SchedError::AdmissionTimeout | SchedError::DeadlineExceeded)
    )
}

/// Send 1-key lookups until the circuit breaker's recovery is visible in
/// telemetry (a `recovered` session event: the half-open probe
/// re-uploaded the device image), for at most 500 rounds. The pinned
/// storm's load may drain before the breaker's cooldown does.
fn drive_breaker_recovery(
    conn: &mut NetClient,
    telemetry: &Telemetry,
    key: &[u8],
) -> Result<(), CliError> {
    use cuart_telemetry::BatchKind;
    // A generous budget: the drill's tight `--op-deadline-us` default
    // would shed this traffic before it reaches the device.
    conn.set_deadline(Some(Duration::from_secs(5)));
    for _ in 0..500 {
        let snap = telemetry.snapshot();
        if snap.events.iter().any(|ev| ev.kind == BatchKind::Recovered) {
            return Ok(());
        }
        match conn.lookup(vec![key.to_vec()]) {
            Ok(_) => {}
            Err(e) if matches!(e.as_sched_error(), Some(SchedError::DeadlineExceeded)) => {}
            Err(e) => return Err(CliError::Input(format!("recovery drive: {e}"))),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(CliError::Input(
        "breaker never recovered within the drill budget".into(),
    ))
}

/// Send 1 µs-budget lookups (the wire encodes "no budget" as 0) until one
/// is shed with `DeadlineExceeded`, at most 100, so the drill always
/// exercises the shedding path.
fn shed_probe(conn: &mut NetClient, key: &[u8]) -> Result<(), CliError> {
    conn.set_deadline(Some(Duration::from_micros(1)));
    for _ in 0..100 {
        match conn.lookup(vec![key.to_vec()]) {
            Err(e) if matches!(e.as_sched_error(), Some(SchedError::DeadlineExceeded)) => {
                return Ok(())
            }
            Ok(_) => {}
            Err(e) => return Err(net_err(e)),
        }
    }
    Err(CliError::Input(
        "shed probe: no 1 µs-budget lookup was shed in 100 tries".into(),
    ))
}

fn net_err(e: NetError) -> CliError {
    CliError::Input(format!("net: {e}"))
}
