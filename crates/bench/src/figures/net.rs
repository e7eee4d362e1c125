//! Figure "net" (extension) — the binary RPC serving layer over TCP.
//!
//! Not a paper figure: the paper's engine is driven in-process, while
//! the ROADMAP north-star asks for a network-facing serving surface.
//! This sweep drives the [`cuart_net`] subsystem end to end on the
//! loopback interface — N blocking clients, each with its own TCP
//! connection, issuing pipelined point-lookup requests against a
//! [`NetServer`] that owns a single-device scheduler.
//!
//! * **client connections** (x-axis) — concurrent TCP connections, each
//!   a closed loop (one request in flight per client),
//! * **request size** (series) — small requests lean on the scheduler's
//!   coalescing window (and pay per-frame overhead per few keys), large
//!   requests arrive pre-batched.
//!
//! Two quantities are reported per cell, distinguished by series label:
//! *goodput* (successful looked-up keys over wall-clock time, MOps/s)
//! and *mean request latency* (µs per request, measured client-side).
//! Unlike the modeled figures, these are wall-clock numbers — the wire,
//! the framing and the thread handoffs are exactly what this figure is
//! about — so absolute values vary by machine; the shapes (scaling with
//! connections, the small- vs large-request gap) are the point. The
//! deterministic modeled counterpart lives in `fig-regress`
//! (`served_lookup_modeled_mops`), which gates regressions.

use crate::context::RunCtx;
use crate::series::{Figure, Series};
use cuart_host::scheduler::SchedulerConfig;
use cuart_net::{NetClient, NetServer, NetServerConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size target for the server-side scheduler's adaptive batches.
const BATCH_TARGET: usize = 8 * 1024;

/// One (connections, request-size) cell: serve on loopback, hammer it
/// from `clients` closed-loop connections, return (goodput MOps/s,
/// mean request latency µs).
fn run_cell(
    index: &Arc<cuart::CuartIndex>,
    dev: &cuart_gpu_sim::DeviceConfig,
    keys: &[Vec<u8>],
    clients: usize,
    requests_per_client: usize,
    req_keys: usize,
) -> (f64, f64) {
    let cfg = SchedulerConfig {
        batch_target: BATCH_TARGET,
        deadline: Duration::from_micros(500),
        ..SchedulerConfig::default()
    };
    let sched = cuart_host::scheduler::Scheduler::spawn(Arc::clone(index), *dev, cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let server = NetServer::serve_single(listener, sched, None, NetServerConfig::default())
        .expect("serve on loopback");
    let addr = server.local_addr();

    let start = Instant::now();
    let mut latency_ns_total = 0u128;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            // Each client walks its own stride of the key space, cycling
            // when the pool is smaller than its request volume so every
            // cell issues exactly `requests_per_client` full requests.
            let stride: Vec<&Vec<u8>> = keys.iter().skip(c).step_by(clients).collect();
            let slice: Vec<Vec<u8>> = (0..requests_per_client * req_keys)
                .map(|i| stride[i % stride.len()].clone())
                .collect();
            handles.push(scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("loopback connect");
                let mut lat_ns = 0u128;
                for chunk in slice.chunks(req_keys) {
                    let t = Instant::now();
                    client.lookup(chunk.to_vec()).expect("server alive");
                    lat_ns += t.elapsed().as_nanos();
                }
                lat_ns
            }));
        }
        for h in handles {
            latency_ns_total += h.join().expect("client thread");
        }
    });
    let wall_ns = start.elapsed().as_nanos() as f64;

    server.shutdown_handle().shutdown();
    let report = server.join().expect("clean drain");
    let total_requests = clients * requests_per_client;
    let total_keys = (total_requests * req_keys) as u64;
    assert_eq!(report.served_ops, total_keys, "every lookup must be served");

    let goodput_mops = total_keys as f64 * 1_000.0 / wall_ns;
    let mean_latency_us = latency_ns_total as f64 / total_requests as f64 / 1_000.0;
    (goodput_mops, mean_latency_us)
}

/// Figure "net" — *wall-clock goodput and mean request latency vs client
/// connections, per request size* (extension; see module docs).
pub fn fig_net(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig-net",
        "RPC serving: loopback goodput (MOps/s) and latency (us) vs connections (8Ki batch target)",
        "client connections",
        "goodput MOps/s / mean latency us (per series label)",
    );
    let (conn_counts, requests_per_client, n): (&[usize], usize, usize) = if ctx.smoke() {
        (&[1, 2], 4, 16 * 1024)
    } else {
        (&[1, 2, 4, 8], 16, ctx.tree_size(4_000_000))
    };
    let req_sizes: &[usize] = if ctx.smoke() { &[256] } else { &[256, 4096] };

    let (art, keys) = ctx.build_art(n, 8, 2207);
    let index = Arc::new(ctx.cuart(&art));
    let dev = ctx.workstation();

    for &req_keys in req_sizes {
        let mut goodput = Series::new(format!("goodput MOps/s, {req_keys}-key requests"));
        let mut latency = Series::new(format!("mean latency us, {req_keys}-key requests"));
        for &clients in conn_counts {
            let (g, l) = run_cell(&index, &dev, &keys, clients, requests_per_client, req_keys);
            goodput.push(clients as f64, g);
            latency.push(clients as f64, l);
        }
        fig.series.push(goodput);
        fig.series.push(latency);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig_net_serves_over_loopback() {
        let ctx = RunCtx::new(256, std::env::temp_dir().join("cuart-fig-net")).with_smoke(true);
        let fig = fig_net(&ctx);
        assert_eq!(fig.series.len(), 2, "goodput + latency for one req size");
        for s in &fig.series {
            assert_eq!(s.points.len(), 2);
            assert!(s.max_y() > 0.0, "every cell must be positive: {s:?}");
        }
    }
}
