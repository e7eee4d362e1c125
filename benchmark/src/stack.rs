//! Set-up of the system under test — keys → ART → `CuartIndex` → session
//! or served fleet, configured as `cuart serve` ships — and one `Caller`
//! per layer a request can enter at.

use crate::oracle::{build_value, Answer};
use crate::workload::{Scale, Spec};
use cuart::{CuartConfig, CuartIndex, CuartSession};
use cuart_art::Art;
use cuart_gpu_sim::{devices, DeviceConfig};
use cuart_host::{Scheduler, SchedulerClient, SchedulerConfig, ShardedClient, ShardedScheduler};
use cuart_net::{NetClient, NetServer, NetServerConfig, Op};
use cuart_telemetry::Telemetry;
use cuart_workloads::uniform_keys;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

/// The device every workload runs on: `cuart serve`'s default, unscaled.
pub fn device() -> DeviceConfig {
    devices::rtx3090()
}

/// A built index with the keys it holds (in build order) and what each
/// set-up stage cost, in seconds.
pub struct Built {
    pub index: CuartIndex,
    pub keys: Vec<Vec<u8>>,
    pub gen_s: f64,
    pub art_s: f64,
    pub index_s: f64,
}

impl Built {
    pub fn total_s(&self) -> f64 {
        self.gen_s + self.art_s + self.index_s
    }
}

/// Key generation → ART → `CuartIndex::build`, each stage timed.
pub fn build(spec: &Spec, scale: &Scale, seed: u64) -> Built {
    let t = Instant::now();
    let keys = uniform_keys(scale.index_keys(spec), spec.key_len, seed);
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, build_value(i))
            .expect("unique fixed-length keys are prefix-free");
    }
    let art_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let index = CuartIndex::build(&art, &CuartConfig::default());
    let index_s = t.elapsed().as_secs_f64();
    Built {
        index,
        keys,
        gen_s,
        art_s,
        index_s,
    }
}

/// Something a request can be handed to.
pub trait Caller {
    fn call(&mut self, op: Op) -> Answer;
}

fn answer<T, E: std::fmt::Display>(r: Result<T, E>, wrap: fn(T) -> Answer) -> Answer {
    match r {
        Ok(v) => wrap(v),
        Err(e) => Answer::Failed(e.to_string()),
    }
}

/// The three client types share one method surface (by-value batches).
macro_rules! impl_caller {
    ($ty:ty) => {
        impl Caller for $ty {
            fn call(&mut self, op: Op) -> Answer {
                match op {
                    Op::Lookup(keys) => answer(self.lookup(keys), Answer::Values),
                    Op::Update(ops) => answer(self.update(ops), Answer::Values),
                    Op::Insert(ops) => answer(self.insert(ops), Answer::Values),
                    Op::Range(ranges) => answer(self.range(ranges), Answer::Rows),
                    Op::Ping | Op::Shutdown => Answer::Failed("not a data request".into()),
                }
            }
        }
    };
}

impl_caller!(NetClient);
impl_caller!(SchedulerClient);
impl_caller!(ShardedClient);

/// A fresh device session. `as_served` configures it as the scheduler's
/// executor configures the one it owns: the scheduler records the span
/// tree itself, and shadows every mutation in the journal.
pub fn open_session(index: &CuartIndex, as_served: bool) -> CuartSession<'_> {
    let mut session = index.device_session(&device());
    session.set_span_recording(!as_served);
    session.set_journal_shadowing(as_served);
    session
}

/// `CuartSession::*_batch` called directly; also adds up the simulator's
/// raw memory accesses so its wall cost per access can be stated.
pub struct SessionCaller<'s, 'i> {
    session: &'s mut CuartSession<'i>,
    pub raw_accesses: u64,
}

impl<'s, 'i> SessionCaller<'s, 'i> {
    pub fn new(session: &'s mut CuartSession<'i>) -> Self {
        SessionCaller {
            session,
            raw_accesses: 0,
        }
    }
}

impl Caller for SessionCaller<'_, '_> {
    fn call(&mut self, op: Op) -> Answer {
        let r = match &op {
            Op::Lookup(keys) => self
                .session
                .lookup_batch(keys)
                .map(|(v, r)| (Answer::Values(v), r)),
            Op::Update(ops) => self
                .session
                .update_batch(ops)
                .map(|(v, r)| (Answer::Values(v), r)),
            Op::Insert(ops) => self
                .session
                .insert_batch(ops)
                .map(|(v, r)| (Answer::Values(v), r)),
            Op::Range(ranges) => self
                .session
                .range_batch(ranges)
                .map(|(v, r)| (Answer::Rows(v), r)),
            Op::Ping | Op::Shutdown => return Answer::Failed("not a data request".into()),
        };
        match r {
            Ok((a, report)) => {
                self.raw_accesses += report.raw_accesses;
                a
            }
            Err(e) => Answer::Failed(e.to_string()),
        }
    }
}

/// Attach a fresh telemetry registry, as `cuart serve` does.
pub fn with_telemetry(index: CuartIndex) -> (Arc<CuartIndex>, Arc<Telemetry>) {
    let telemetry = Arc::new(Telemetry::new());
    (Arc::new(index.with_telemetry(telemetry.clone())), telemetry)
}

/// An in-process scheduler over one device, `cuart serve`'s configuration.
pub fn spawn_scheduler(index: &Arc<CuartIndex>) -> Scheduler {
    Scheduler::spawn(Arc::clone(index), device(), SchedulerConfig::default())
}

/// An in-process fleet over `shards` devices, `cuart serve`'s configuration.
pub fn spawn_fleet(index: &Arc<CuartIndex>, shards: usize) -> ShardedScheduler {
    ShardedScheduler::spawn(
        Arc::clone(index),
        &vec![device(); shards],
        SchedulerConfig::default(),
    )
    .expect("at least one shard")
}

/// `cuart serve` on an ephemeral loopback port, with connected callers.
pub struct Served {
    pub server: NetServer,
    pub clients: Vec<NetClient>,
}

/// Start the server, connect `clients` callers and wait until every
/// shard's executor has opened its session and answered a probe: the
/// sessions open on the executor threads after `spawn` returns, and a
/// server that cannot answer yet is not set up.
pub fn serve(index: &Arc<CuartIndex>, shards: usize, clients: usize) -> io::Result<Served> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let telemetry = index.telemetry().cloned();
    let cfg = NetServerConfig::default();
    let server = if shards > 1 {
        NetServer::serve_sharded(listener, spawn_fleet(index, shards), telemetry, cfg)?
    } else {
        NetServer::serve_single(listener, spawn_scheduler(index), telemetry, cfg)?
    };
    let addr = server.local_addr();
    let mut clients: Vec<NetClient> = (0..clients)
        .map(|_| NetClient::connect(addr).map_err(|e| io::Error::other(e.to_string())))
        .collect::<io::Result<_>>()?;
    // The router splits the 8-byte key prefix space into equal shares, so
    // the first key of each share reaches every shard.
    let probes = (0..shards as u128)
        .map(|s| {
            let first = (s << 64).div_ceil(shards as u128) as u64;
            first.to_be_bytes().to_vec()
        })
        .collect();
    clients[0]
        .lookup(probes)
        .map_err(|e| io::Error::other(format!("readiness probe: {e}")))?;
    Ok(Served { server, clients })
}

impl Served {
    /// Disconnect, drain and return the server's final report.
    pub fn drain(self) -> io::Result<cuart_net::NetReport> {
        drop(self.clients);
        self.server.shutdown_handle().shutdown();
        self.server
            .join()
            .map_err(|e| io::Error::other(format!("drain: {e}")))
    }
}
