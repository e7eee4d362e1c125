//! Heap allocations per served request, counted by the one
//! `CountingAllocator` installed as this binary's global allocator.
//!
//! A request's keys cross the serving path as one flat buffer: the frame's
//! payload is decoded into a `KeyBatch` over itself, the router copies
//! each shard's share once into a batch of its own, the executor sorts a
//! permutation over the batches and the session stages each key straight
//! from its store. So once the scheduler is warm, decoding a frame,
//! serving it and encoding the answer allocates a fixed number of times
//! (the payload, its extents and values, the reply channel, the answer
//! and the encoded frame, per shard share) however many keys the frame
//! carries. Before, every decoded key was its own allocation. A fleet of
//! one — spawned over one device, or a lone scheduler converted — queues
//! each request whole and allocates exactly what the lone scheduler does,
//! and so does a fleet of two with a request one shard owns whole.
//! One test only: the counter is process-wide.

use cuart::{CuartConfig, CuartIndex, ShardRouter};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_host::{SchedAnswer, Scheduler, SchedulerClient, SchedulerConfig, ShardedScheduler};
use cuart_integration_tests::{allocations_of, CountingAllocator};
use cuart_net::proto::{self, FlatOp, Op, Request, RespBody, Response};
use cuart_workloads::uniform_keys;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A request frame as a client sends it: header, CRC, payload.
fn frame(op: Op) -> Vec<u8> {
    let req = Request {
        id: 7,
        deadline_us: 0,
        op,
    };
    proto::encode_frame(&proto::encode_request(&req).unwrap())
}

/// A lookup and an update frame pair of 1 Ki and 8 Ki keys of `keys`.
fn frames(keys: &[Vec<u8>]) -> [(&'static str, Vec<u8>, Vec<u8>); 2] {
    let small = &keys[..1 << 10];
    let large = &keys[8 << 10..16 << 10];
    let updates = |keys: &[Vec<u8>]| keys.iter().map(|k| (k.clone(), 42)).collect::<Vec<_>>();
    [
        (
            "lookup",
            frame(Op::Lookup(small.to_vec())),
            frame(Op::Lookup(large.to_vec())),
        ),
        (
            "update",
            frame(Op::Update(updates(small))),
            frame(Op::Update(updates(large))),
        ),
    ]
}

/// What a connection does with one frame, minus the socket: copy the
/// payload out as the reader reads it, check and decode it, submit it,
/// wait, and encode the answer into a frame. Returns the allocations made
/// meanwhile, on every thread.
fn serve(frame: &[u8], client: &SchedulerClient) -> u64 {
    let (made, _answer) = allocations_of(|| {
        let (header, payload) = frame.split_at(proto::FRAME_HEADER_BYTES);
        let (_, crc) = proto::decode_frame_header(header).unwrap();
        let payload = payload.to_vec();
        proto::check_frame_crc(&payload, crc).unwrap();
        let FlatOp::Sched(op) = proto::decode_request_flat(payload).unwrap().op else {
            panic!("a data frame");
        };
        let SchedAnswer::Values(values) = client.submit(op, None).wait().unwrap() else {
            panic!("point answers");
        };
        let body = RespBody::Values(values);
        proto::encode_frame(&proto::encode_response(&Response { id: 7, body }).unwrap())
    });
    made
}

/// The allocations of serving each kind's 8 Ki-key frame of `frames` on
/// `client`'s stack, named `shards`, once warm; a 1 Ki-key frame must
/// allocate as many.
fn per_kind(
    client: &SchedulerClient,
    shards: &str,
    frames: &[(&str, Vec<u8>, Vec<u8>)],
) -> Vec<u64> {
    // Warm-up, largest first: it sizes every executor's scratch and
    // staging, and writes every key the measured updates rewrite.
    for (_, small, large) in frames {
        serve(large, client);
        serve(small, client);
    }
    frames
        .iter()
        .map(|(kind, small, large)| {
            let (at_1k, at_8k) = (serve(small, client), serve(large, client));
            assert_eq!(at_1k, at_8k, "{kind} on {shards}: 1 Ki vs 8 Ki keys");
            assert!(at_8k <= 64, "{kind} on {shards} allocated {at_8k}×");
            at_8k
        })
        .collect()
}

#[test]
fn a_served_request_allocates_per_request_not_per_key() {
    let keys = uniform_keys(40_000, 8, 5);
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    let index = Arc::new(CuartIndex::build(&art, &CuartConfig::for_tests()));
    let spread_frames = frames(&keys);
    // Keys the first of two shards owns.
    let router = ShardRouter::new(2);
    let local: Vec<Vec<u8>> = keys
        .iter()
        .filter(|k| router.shard_of(k) == 0)
        .cloned()
        .collect();
    let local_frames = frames(&local);

    let dev = devices::rtx3090();
    let cfg = SchedulerConfig::default;
    let single = Scheduler::spawn(Arc::clone(&index), dev, cfg());
    let fleet_of_one = ShardedScheduler::spawn(Arc::clone(&index), &[dev], cfg()).unwrap();
    let lone_as_fleet = ShardedScheduler::from(Scheduler::spawn(Arc::clone(&index), dev, cfg()));
    let fleet = ShardedScheduler::spawn(Arc::clone(&index), &[dev, dev], cfg()).unwrap();
    let clients = [
        single.client().unwrap(),
        fleet_of_one.client().unwrap().0,
        lone_as_fleet.client().unwrap().0,
        fleet.client().unwrap().0,
    ];
    let names = [
        "1 shard",
        "a spawned fleet of one",
        "a lone scheduler as a fleet",
        "2 shards",
    ];
    let per_path: Vec<Vec<u64>> = names
        .into_iter()
        .zip(&clients)
        .map(|(shards, client)| per_kind(client, shards, &spread_frames))
        .collect();
    // A fleet of one queues a request whole, as a lone scheduler does,
    // and costs exactly as much, per kind and at both frame sizes.
    for (shards, counts) in names.iter().zip(&per_path).take(3).skip(1) {
        assert_eq!(counts, &per_path[0], "{shards} vs 1 shard (lookup, update)");
    }
    // So does a fleet of two with a request one shard owns whole: it goes
    // to that shard as it came, with no split and no merge.
    let local_on_one = per_kind(&clients[1], "a spawned fleet of one", &local_frames);
    let local_on_two = per_kind(&clients[3], "2 shards, shard-local keys", &local_frames);
    assert_eq!(
        local_on_two, local_on_one,
        "a shard-local request on 2 shards vs a spawned fleet of one (lookup, update)"
    );
    drop(clients);
    single.join().unwrap();
    for stack in [fleet_of_one, lone_as_fleet, fleet] {
        stack.join().unwrap();
    }
}
