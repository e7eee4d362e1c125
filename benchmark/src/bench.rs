//! The two runs of a workload: untraced (end-to-end metrics) and traced
//! (the six-rung ladder, per-layer metrics).

use crate::alloc::{self, AllocCount};
use crate::drive::{drive, request_id, Outcome, Rung};
use crate::metrics::{Metrics, WorkloadResult, END_TO_END, PER_LAYER};
use crate::modeled::{device_pass, Modeled, KINDS};
use crate::oracle::{Answer, Checked, ClientModel, Oracle};
use crate::procfs::peak_rss_mib;
use crate::span::{now_ns, self_times_ns, Span};
use crate::stack::{
    build, device, open_session, serve, spawn_fleet, spawn_scheduler, with_telemetry, Caller,
    Served, SessionCaller,
};
use crate::stats::{median, percentile, tail};
use crate::workload::{stream_hash, Front, Generator, Mix, Scale, Spec};
use cuart::{CuartIndex, CuartSession};
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_net::{proto, NetReport, Op, SchedReport};
use std::io;
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = (1 << 20) as f64;

/// How one invocation runs a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Wall time the timed segments must add up to.
    pub seconds: f64,
    pub scale: Scale,
}

/// Untraced segments the traced run times for comparison: at least this
/// many, and a quarter of `--seconds`.
const REFERENCE_SEGMENTS: usize = 3;
const REFERENCE_SHARE: f64 = 0.25;

/// Requests sent and answers found wrong, over a whole run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, first_failure: &Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(first_failure);
        }
    }

    fn outcome(&mut self, o: &Outcome) {
        self.add(o.requests(), o.failed, &o.first_failure);
    }

    fn modeled(&mut self, m: &Modeled) {
        self.add(m.batches, m.failed, &m.first_failure);
    }

    /// An error frame or a decode error is a failure whether or not a
    /// caller was still there to see it.
    fn drained(&mut self, r: &NetReport) {
        let bad = r.error_frames + r.decode_errors;
        if bad > 0 {
            let why = format!(
                "server drained with {} error frame(s), {} decode error(s)",
                r.error_frames, r.decode_errors
            );
            self.add(0, bad, &Some(why));
        }
    }
}

/// Generated segments paired with the answers they must get. The models
/// live here because an answer depends on everything its caller wrote in
/// earlier segments.
struct Feed {
    generator: Generator,
    oracle: Oracle,
    models: Vec<ClientModel>,
    requests_per_client: usize,
}

impl Feed {
    fn new(spec: &Spec, scale: &Scale, keys: Vec<Vec<u8>>, seed: u64) -> Feed {
        Feed {
            oracle: Oracle::new(&keys, spec.mix == Mix::Mixed),
            generator: Generator::new(spec, keys, seed),
            models: (0..spec.clients).map(|_| ClientModel::default()).collect(),
            requests_per_client: scale.requests_per_client(spec),
        }
    }

    /// The next segment, its stream hash, and its expected answers.
    fn next(&mut self, index: &CuartIndex) -> (Vec<Vec<Checked>>, u64) {
        let ops = self.generator.segment(self.requests_per_client);
        let hash = stream_hash(&ops);
        let checked = ops
            .into_iter()
            .zip(&mut self.models)
            .map(|(reqs, model)| self.oracle.check(index, model, reqs))
            .collect();
        (checked, hash)
    }
}

/// The outermost layer of a workload, opened and ready to answer.
enum FrontEnd<'i> {
    Direct(Box<CuartSession<'i>>),
    Wire(Served),
}

impl<'i> FrontEnd<'i> {
    fn open(index: &'i Arc<CuartIndex>, spec: &Spec) -> io::Result<FrontEnd<'i>> {
        Ok(match spec.front {
            Front::Direct => FrontEnd::Direct(Box::new(open_session(index, false))),
            Front::Wire { shards } => FrontEnd::Wire(serve(index, shards, spec.clients)?),
        })
    }

    fn rung(&self) -> Rung {
        match self {
            FrontEnd::Direct(_) => Rung::Session,
            FrontEnd::Wire(_) => Rung::Wire,
        }
    }

    /// Replay one segment through this front end.
    fn drive(&mut self, segment: Vec<Vec<Checked>>) -> Outcome {
        let rung = self.rung();
        match self {
            FrontEnd::Direct(session) => {
                drive(&mut [SessionCaller::new(session)], segment, rung, None)
            }
            FrontEnd::Wire(served) => drive(&mut served.clients, segment, rung, None),
        }
    }

    /// Tear down; a served front end drains and reports.
    fn close(self) -> io::Result<Option<NetReport>> {
        match self {
            FrontEnd::Direct(_) => Ok(None),
            FrontEnd::Wire(served) => served.drain().map(Some),
        }
    }
}

/// Seconds from a built index to a front end that answers, with both.
fn timed_open<'i>(index: &'i Arc<CuartIndex>, spec: &Spec) -> io::Result<(FrontEnd<'i>, f64)> {
    let t = Instant::now();
    let front = FrontEnd::open(index, spec)?;
    Ok((front, t.elapsed().as_secs_f64()))
}

/// Timed segments until they add up to `seconds` (and at least
/// `min_segments` ran). Generation and the oracle run between segments,
/// outside every measured interval.
fn timed_segments(
    front: &mut FrontEnd<'_>,
    feed: &mut Feed,
    index: &CuartIndex,
    seconds: f64,
    min_segments: usize,
    tally: &mut Tally,
) -> Vec<Outcome> {
    let mut outs: Vec<Outcome> = Vec::new();
    let mut measured_ns = 0u64;
    while outs.len() < min_segments || (measured_ns as f64) < seconds * 1e9 {
        let (segment, _) = feed.next(index);
        let out = front.drive(segment);
        tally.outcome(&out);
        measured_ns += out.wall_ns;
        outs.push(out);
    }
    outs
}

/// One set-up and its share of the timed segments.
struct Instance {
    setup_s: f64,
    timed: Vec<Outcome>,
    /// Of segment 0; the device pass of the first instance.
    stream_hash: u64,
    modeled: Option<Modeled>,
}

/// Set the stack up, warm it up on segment 0, and time segments for
/// `seconds`. The first instance (whose request stream is the seed's own)
/// also runs the device pass, after its front end has closed.
fn instance(
    spec: &Spec,
    opt: &Options,
    nth: usize,
    seconds: f64,
    min_segments: usize,
    tally: &mut Tally,
) -> io::Result<Instance> {
    let built = build(spec, &opt.scale, opt.seed);
    let built_s = built.total_s();
    let (index, _telemetry) = with_telemetry(built.index);
    let (mut front, open_s) = timed_open(&index, spec)?;
    // Same index every time, another request stream.
    let stream_seed = opt.seed.wrapping_add((nth as u64) << 32);
    let mut feed = Feed::new(spec, &opt.scale, built.keys, stream_seed);
    let (segment0, stream_hash) = feed.next(&index);
    let for_device_pass = (nth == 0).then(|| segment0.clone());
    tally.outcome(&front.drive(segment0));
    let timed = timed_segments(&mut front, &mut feed, &index, seconds, min_segments, tally);
    if let Some(report) = front.close()? {
        tally.drained(&report);
    }
    let modeled = match for_device_pass {
        Some(segment0) => {
            let m = device_pass(&index, spec, &feed.oracle, &segment0).map_err(io::Error::other)?;
            tally.modeled(&m);
            Some(m)
        }
        None => None,
    };
    Ok(Instance {
        setup_s: built_s + open_s,
        timed,
        stream_hash,
        modeled,
    })
}

/// The untraced run: every end-to-end metric.
///
/// The timed segments are spread evenly over `scale.setups` set-ups of the
/// stack rather than run on one: on this kind of host a process's pages
/// and threads land well or badly for as long as they live, and a run that
/// samples one landing reads several percent off the next run.
pub fn run(spec: &'static Spec, opt: &Options) -> io::Result<WorkloadResult> {
    let setups = opt.scale.setups;
    let mut tally = Tally::default();
    let instances: Vec<Instance> = (0..setups)
        .map(|nth| {
            let seconds = opt.seconds / setups as f64;
            let min_segments = opt.scale.min_segments.div_ceil(setups);
            instance(spec, opt, nth, seconds, min_segments, &mut tally)
        })
        .collect::<io::Result<_>>()?;
    let rss = peak_rss_mib();

    let setup_s: Vec<f64> = instances.iter().map(|i| i.setup_s).collect();
    let all: Vec<&Outcome> = instances.iter().flat_map(|i| &i.timed).collect();
    // Time the hypervisor took from this guest says nothing about the
    // program. Segments it cut into are set aside, unless that leaves
    // fewer than the run must have.
    let calm: Vec<&Outcome> = all.iter().copied().filter(|o| !o.disturbed()).collect();
    let timed = if calm.len() >= opt.scale.min_segments {
        calm
    } else {
        all
    };
    let keys: u64 = timed.iter().map(|o| o.keys).sum();
    let cpu_s: f64 = timed.iter().map(|o| o.cpu_s).sum();
    let ops_per_s: Vec<f64> = timed.iter().map(|o| o.ops_per_s()).collect();
    let p50_us: Vec<f64> = timed
        .iter()
        .map(|o| percentile(&o.latencies_ns(), 50.0) as f64 / 1e3)
        .collect();
    let modeled = instances[0]
        .modeled
        .as_ref()
        .expect("first instance runs the device pass");
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median(&setup_s));
    m.set("wall_ops_per_s", median(&ops_per_s));
    m.set("wall_lat_p50_us", median(&p50_us));
    m.set("cpu_us_per_key", cpu_s * 1e6 / keys as f64);
    m.set("peak_rss_mib", rss);
    m.set("modeled_mops", modeled.mops());
    let hash = instances[0].stream_hash;
    Ok(result(spec, "run", opt.seed, tally, hash, m))
}

fn result(
    spec: &'static Spec,
    mode: &'static str,
    seed: u64,
    tally: Tally,
    stream_hash: u64,
    metrics: Metrics,
) -> WorkloadResult {
    WorkloadResult {
        workload: spec.name,
        mode,
        seed,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        stream_hash,
        metrics,
    }
}

/// Requests of a segment in round-robin caller order: (request id, caller, request).
fn in_order(segment: &[Vec<Checked>]) -> impl Iterator<Item = (u64, usize, &Checked)> {
    let clients = segment.len();
    let longest = segment.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(move |seq| {
        segment
            .iter()
            .enumerate()
            .filter_map(move |(c, reqs)| Some((request_id(seq, c, clients), c, reqs.get(seq)?)))
    })
}

/// A copy of `segment` for `callers` callers: as generated, or — for the
/// single-threaded rungs — one list in round-robin order, which keeps
/// every request's id.
fn for_callers(segment: &[Vec<Checked>], callers: usize) -> Vec<Vec<Checked>> {
    if callers == segment.len() {
        segment.to_vec()
    } else {
        assert_eq!(callers, 1, "a rung has the workload's callers or one");
        vec![in_order(segment).map(|(_, _, r)| r.clone()).collect()]
    }
}

/// What one rung of the ladder did and what it allocated doing it.
#[derive(Debug, Default)]
struct RungCost {
    out: Outcome,
    allocs: AllocCount,
}

impl RungCost {
    /// Time inside the rung's calls, all requests together.
    fn total_ns(&self) -> f64 {
        self.out.spans.iter().map(|s| s.duration_ns() as f64).sum()
    }
}

/// The ladder's shared inputs: segment 0 from a pristine image, and its
/// lookups alone as a warm-up that leaves that image pristine.
struct Ladder<'a> {
    spec: &'a Spec,
    segment0: Vec<Vec<Checked>>,
    warm_up: Vec<Vec<Checked>>,
    tally: Tally,
}

impl Ladder<'_> {
    /// Warm `callers` up, then replay segment 0 with spans and allocation
    /// counting on.
    fn replay<C: Caller + Send>(&mut self, callers: &mut [C], rung: Rung) -> RungCost {
        let warm = drive(
            callers,
            for_callers(&self.warm_up, callers.len()),
            rung,
            None,
        );
        self.tally.outcome(&warm);
        let segment = for_callers(&self.segment0, callers.len());
        let parent = self.parent_of(rung);
        let (out, allocs) = alloc::count(|| drive(callers, segment, rung, parent));
        self.tally.outcome(&out);
        RungCost { out, allocs }
    }

    /// Rung 3: `session` called once per request. Also states what one of
    /// the simulator's raw memory accesses costs in wall time.
    fn replay_session(&mut self, session: &mut CuartSession<'_>, m: &mut Metrics) -> RungCost {
        let mut caller = [SessionCaller::new(session)];
        let cost = self.replay(&mut caller, Rung::Session);
        let accesses = caller[0].raw_accesses.max(1) as f64;
        m.set("gpu-sim.wall_ns_per_access", cost.total_ns() / accesses);
        cost
    }

    /// The layer a rung's call is nested in when the whole stack serves it.
    fn parent_of(&self, rung: Rung) -> Option<Rung> {
        let Front::Wire { shards } = self.spec.front else {
            return None;
        };
        match rung {
            Rung::Proto => Some(Rung::Wire),
            Rung::Session => Some(Rung::Sched),
            Rung::Sched if shards > 1 => Some(Rung::Sharded),
            Rung::Sched | Rung::Sharded => Some(Rung::Wire),
            Rung::Cpu | Rung::Wire => None,
        }
    }

    /// Rung 1: the wire codec alone — request and response, each encoded,
    /// framed, unframed, CRC-checked and decoded. Returns the frame bytes.
    fn proto(&mut self) -> (RungCost, u64) {
        let prepared: Vec<(u64, usize, proto::Request, proto::Response)> = in_order(&self.segment0)
            .map(|(id, client, (op, want))| {
                let req = proto::Request {
                    id: id + 1,
                    deadline_us: 0,
                    op: op.clone(),
                };
                let body = match want {
                    Answer::Values(v) => proto::RespBody::Values(v.clone()),
                    Answer::Rows(r) => proto::RespBody::Rows(r.clone()),
                    Answer::Failed(_) => proto::RespBody::Ok,
                };
                (id, client, req, proto::Response { id: id + 1, body })
            })
            .collect();
        let mut cost = RungCost::default();
        let mut bytes = 0u64;
        let mut failed = 0u64;
        for (id, client, req, resp) in &prepared {
            let start_ns = now_ns();
            let round_trip = (|| -> Result<(bool, usize), proto::WireError> {
                let frame = proto::encode_frame(&proto::encode_request(req)?);
                let (header, payload) = frame.split_at(proto::FRAME_HEADER_BYTES);
                let (_, crc) = proto::decode_frame_header(header)?;
                proto::check_frame_crc(payload, crc)?;
                let req_back = proto::decode_request(payload)?;
                let rframe = proto::encode_frame(&proto::encode_response(resp)?);
                let (header, payload) = rframe.split_at(proto::FRAME_HEADER_BYTES);
                let (_, crc) = proto::decode_frame_header(header)?;
                proto::check_frame_crc(payload, crc)?;
                let resp_back = proto::decode_response(payload)?;
                Ok((
                    req_back == *req && resp_back == *resp,
                    frame.len() + rframe.len(),
                ))
            })();
            let end_ns = now_ns();
            cost.out
                .spans
                .push(Rung::Proto.span(Some(Rung::Wire), *id, *client, start_ns, end_ns));
            match round_trip {
                Ok((true, n)) => bytes += n as u64,
                _ => failed += 1,
            }
        }
        let why = (failed > 0).then(|| "proto round trip changed a message".to_string());
        self.tally.add(prepared.len() as u64, failed, &why);
        (cost, bytes)
    }

    /// Rung 2: the CPU engine on the lookup requests. Returns keys looked up.
    fn cpu(&mut self, index: &CuartIndex) -> (RungCost, u64) {
        let static_answers = matches!(self.spec.mix, Mix::Lookup { .. });
        let mut cost = RungCost::default();
        let (mut keys_total, mut attempted, mut failed) = (0u64, 0u64, 0u64);
        for (id, client, (op, want)) in in_order(&self.segment0) {
            let Op::Lookup(keys) = op else { continue };
            let start_ns = now_ns();
            let got = index.lookup_batch_cpu(keys);
            let end_ns = now_ns();
            cost.out
                .spans
                .push(Rung::Cpu.span(None, id, client, start_ns, end_ns));
            keys_total += keys.len() as u64;
            attempted += 1;
            // The mixed workload's answers include the caller's own
            // writes, which the build image the CPU engine reads lacks.
            if static_answers {
                let got = got.into_iter().map(|v| v.unwrap_or(NOT_FOUND)).collect();
                failed += u64::from(Answer::Values(got) != *want);
            }
        }
        let why = (failed > 0).then(|| "cpu engine disagrees with the oracle".to_string());
        self.tally.add(attempted, failed, &why);
        (cost, keys_total)
    }
}

/// What the traced run hands back besides its metrics.
pub struct Traced {
    pub result: WorkloadResult,
    pub spans: Vec<Span>,
    /// Median self time of every layer a served request crosses, summed.
    pub ladder_sum_us: f64,
    /// Median latency of the untraced reference segments, to hold it against.
    pub untraced_p50_us: f64,
}

/// The traced run: the ladder, and every per-layer metric.
pub fn trace(spec: &'static Spec, opt: &Options) -> io::Result<Traced> {
    let scale = &opt.scale;
    let built = build(spec, scale, opt.seed);
    let (gen_s, art_s, index_s) = (built.gen_s, built.art_s, built.index_s);
    let plain_index = built.index;
    let device_mib = plain_index.device_bytes() as f64 / MIB;
    let mut feed = Feed::new(spec, scale, built.keys, opt.seed);
    let (segment0, hash) = feed.next(&plain_index);
    // Lookups change nothing, so every rung can warm up on them and still
    // replay segment 0 from a pristine image. Their answers are those of
    // callers that have written nothing yet.
    let warm_up = segment0
        .iter()
        .map(|reqs| {
            let lookups = reqs
                .iter()
                .filter(|(op, _)| matches!(op, Op::Lookup(_)))
                .map(|(op, _)| op.clone())
                .collect();
            feed.oracle
                .check(&plain_index, &mut ClientModel::default(), lookups)
        })
        .collect();
    let mut ladder = Ladder {
        spec,
        segment0,
        warm_up,
        tally: Tally::default(),
    };
    let seg_keys: u64 = ladder
        .segment0
        .iter()
        .flatten()
        .map(|(op, _)| op.ops() as u64)
        .sum();
    let per_key = |v: f64| v / seg_keys as f64;
    let served = matches!(spec.front, Front::Wire { .. });
    let mut m = Metrics::new(PER_LAYER);
    let mut spans: Vec<Span> = Vec::new();

    // Rung 3 first, without telemetry: the index can gain a registry but
    // not lose one.
    let plain_ns = {
        let mut session = open_session(&plain_index, served);
        ladder.replay_session(&mut session, &mut m).total_ns()
    };
    let (index, telemetry) = with_telemetry(plain_index);

    // Rungs 1 and 2: no state, one thread.
    if served {
        let (proto, bytes) = ladder.proto();
        m.set("net.proto_ns_per_key", per_key(proto.total_ns()));
        m.set("net.wire_bytes_per_key", per_key(bytes as f64));
        spans.extend(proto.out.spans);
    }
    let (cpu, cpu_keys) = ladder.cpu(&index);
    m.set(
        "core.cpu_ns_per_key",
        cpu.total_ns() / cpu_keys.max(1) as f64,
    );
    spans.extend(cpu.out.spans);

    // Every rung below the outermost opens a fresh stack on the same index.
    let mut below: Vec<RungCost> = Vec::new();
    if let Front::Wire { shards } = spec.front {
        // Rung 3 again, as the scheduler's executor configures it.
        let mut session = open_session(&index, true);
        below.push(ladder.replay_session(&mut session, &mut m));
        drop(session);

        // Rung 4: the in-process scheduler, one device.
        let sched = spawn_scheduler(&index);
        let mut callers = clients(spec.clients, || sched.client())?;
        below.push(ladder.replay(&mut callers, Rung::Sched));
        drop(callers);
        sched.join().map_err(io::Error::other)?;

        // Rung 5: the in-process fleet.
        if shards > 1 {
            let fleet = spawn_fleet(&index, shards);
            let mut callers = clients(spec.clients, || fleet.client())?;
            below.push(ladder.replay(&mut callers, Rung::Sharded));
            drop(callers);
            fleet.join().map_err(io::Error::other)?;
        }
    }

    // The outermost rung — over loopback TCP, or the session itself — then
    // keeps its front end for the untraced reference segments.
    let (mut front, open_s) = timed_open(&index, spec)?;
    let top = match &mut front {
        FrontEnd::Wire(wire) => ladder.replay(&mut wire.clients, Rung::Wire),
        FrontEnd::Direct(session) => ladder.replay_session(session, &mut m),
    };
    let reference = timed_segments(
        &mut front,
        &mut feed,
        &index,
        opt.seconds * REFERENCE_SHARE,
        REFERENCE_SEGMENTS,
        &mut ladder.tally,
    );
    let report = front.close()?;
    if let Some(r) = &report {
        ladder.tally.drained(r);
    }
    let snapshot = telemetry.snapshot();
    let modeled =
        device_pass(&index, spec, &feed.oracle, &ladder.segment0).map_err(io::Error::other)?;
    ladder.tally.modeled(&modeled);

    // Allocation counts are cumulative down the stack: a layer's own are
    // its rung's minus the rung below.
    let session_cost = below.first().unwrap_or(&top);
    let session_ns = session_cost.total_ns();
    m.set("core.session_wall_ns_per_key", per_key(session_ns));
    m.set(
        "core.allocs_per_key",
        per_key(session_cost.allocs.allocs as f64),
    );
    m.set(
        "telemetry.overhead_share",
        (session_ns - plain_ns) / plain_ns,
    );
    if served {
        let host = below.last().expect("sched rung ran");
        let session = &below[0];
        m.set(
            "host.allocs_per_key",
            per_key(host.allocs.allocs as f64 - session.allocs.allocs as f64),
        );
        m.set(
            "net.allocs_per_key",
            per_key(top.allocs.allocs as f64 - host.allocs.allocs as f64),
        );
        m.set(
            "net.alloc_bytes_per_key",
            per_key(top.allocs.bytes as f64 - host.allocs.bytes as f64),
        );
    }
    let traced_ops_per_s = top.out.ops_per_s();
    spans.extend(below.into_iter().flat_map(|c| c.out.spans));
    spans.extend(top.out.spans);

    let self_times = self_times_ns(&spans);
    let self_us = |name: &str| self_times.get(name).map_or(0.0, |v| median(v) / 1e3);
    m.set("net.wire_self_us_per_req", self_us("wire"));
    m.set("host.sched_self_us_per_req", self_us("sched"));
    m.set("host.shard_self_us_per_req", self_us("sharded"));

    m.set("workloads.gen_s", gen_s);
    m.set("art.build_s", art_s);
    m.set("core.index_build_s", index_s);
    m.set("core.session_open_s", open_s);
    m.set("core.device_mib", device_mib);
    m.set("core.overflow_len", modeled.overflow_len as f64);
    m.set("core.free_leaves", modeled.free_leaves as f64);
    set_device_metrics(&mut m, &modeled);
    if let Some(r) = &report {
        set_served_metrics(&mut m, r, &modeled);
    }
    m.set("telemetry.spans_dropped", snapshot.spans_dropped as f64);
    m.set("telemetry.events_dropped", snapshot.events_dropped as f64);

    let mut latencies: Vec<u64> = reference.iter().flat_map(|o| o.latencies_ns()).collect();
    latencies.sort_unstable();
    let (tail_pct, tail_ns) = tail(&latencies);
    let ref_ops: Vec<f64> = reference.iter().map(Outcome::ops_per_s).collect();
    let ref_median = median(&ref_ops);
    let (lo, hi) = ref_ops
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    m.set("client.lat_tail_us", tail_ns as f64 / 1e3);
    m.set("client.lat_tail_pct", tail_pct);
    m.set(
        "client.lat_max_us",
        latencies.last().copied().unwrap_or(0) as f64 / 1e3,
    );
    m.set("client.requests", latencies.len() as f64);
    m.set("client.segment_spread", (hi - lo) / ref_median);
    m.set(
        "client.trace_overhead_share",
        1.0 - traced_ops_per_s / ref_median,
    );

    let ladder_sum_us = self_times
        .iter()
        .filter(|(name, _)| **name != Rung::Cpu.name())
        .map(|(_, v)| median(v) / 1e3)
        .sum();
    Ok(Traced {
        result: result(spec, "trace", opt.seed, ladder.tally, hash, m),
        ladder_sum_us,
        untraced_p50_us: percentile(&latencies, 50.0) as f64 / 1e3,
        spans,
    })
}

fn clients<C, E: std::fmt::Display>(
    n: usize,
    make: impl Fn() -> Result<C, E>,
) -> io::Result<Vec<C>> {
    (0..n)
        .map(|_| make().map_err(|e| io::Error::other(e.to_string())))
        .collect()
}

/// `gpu-sim.*`: the device pass, per key.
fn set_device_metrics(m: &mut Metrics, d: &Modeled) {
    let keys = d.total_keys() as f64;
    for (kind, name) in KINDS.iter().enumerate() {
        let v = if d.keys[kind] == 0 {
            0.0
        } else {
            d.ns[kind] / d.keys[kind] as f64
        };
        m.set(&format!("gpu-sim.modeled_ns_per_key.{name}"), v);
    }
    let r = &d.report;
    let total = d.total_ns();
    m.set_all(
        "gpu-sim.",
        &[
            ("sectors_per_key", r.sectors as f64 / keys),
            ("dram_tx_per_key", r.dram_transactions as f64 / keys),
            ("raw_accesses_per_key", r.raw_accesses as f64 / keys),
            ("l2_hit_rate", r.l2_hits as f64 / r.sectors.max(1) as f64),
            ("warp_efficiency", r.warp_efficiency()),
            ("stage_share.h2d", d.h2d_ns / total),
            ("stage_share.dram", d.dram_ns / total),
            ("stage_share.exec", d.exec_ns / total),
            ("stage_share.d2h", d.d2h_ns / total),
        ],
    );
}

/// `net.*` and `host.*` counters from the drained server.
fn set_served_metrics(m: &mut Metrics, r: &NetReport, modeled: &Modeled) {
    m.set_all(
        "net.",
        &[
            ("frames_in", r.frames_in as f64),
            ("window_stalls", r.window_stalls as f64),
            ("error_frames", r.error_frames as f64),
            ("decode_errors", r.decode_errors as f64),
        ],
    );
    let s = r.sched.aggregate();
    let flushes = (s.size_flushes + s.deadline_flushes + s.final_flushes).max(1) as f64;
    // Kernel time plus one launch overhead per batch: the fig19 convention.
    let (served_mops, imbalance) = match &r.sched {
        SchedReport::Single(s) => {
            let ns = s.kernel_time_ns + s.batches as f64 * device().launch_overhead_us * 1e3;
            (s.keys_dispatched as f64 * 1e3 / ns, 0.0)
        }
        SchedReport::Sharded(f) => {
            let per_shard: Vec<f64> = f
                .shards
                .iter()
                .map(|s| s.stats.keys_dispatched as f64)
                .collect();
            let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
            let max = per_shard.iter().copied().fold(0.0, f64::max);
            (f.modeled_aggregate_mops(), max / mean)
        }
    };
    m.set_all(
        "host.",
        &[
            ("batches", s.batches as f64),
            ("mean_batch_fill", s.mean_batch_fill()),
            ("deadline_flush_share", s.deadline_flushes as f64 / flushes),
            ("size_flush_share", s.size_flushes as f64 / flushes),
            ("max_queue_depth", s.max_queue_depth as f64),
            ("shed_ops", s.shed_ops as f64),
            ("rejected_ops", s.rejected_ops as f64),
            ("failed_batches", s.failed_batches as f64),
            ("breaker_trips", s.breaker_trips as f64),
            ("shard_imbalance", imbalance),
            ("modeled_mops_served", served_mops),
            ("coalesce_efficiency", served_mops / modeled.mops()),
        ],
    );
}
