//! Heap allocations per served request, counted by this binary's own
//! global allocator.
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
//! each request whole and allocates exactly what the lone scheduler does.
//! One test only: the counter is process-wide.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_host::{SchedAnswer, SchedOp, Scheduler, SchedulerConfig, ShardedScheduler};
use cuart_net::proto::{self, FlatOp, Op, Request, RespBody, Response};
use cuart_workloads::uniform_keys;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

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

/// What a connection does with one frame, minus the socket: copy the
/// payload out as the reader reads it, check and decode it, submit it,
/// wait, and encode the answer into a frame. Returns the allocations made
/// meanwhile, on every thread.
fn serve(frame: &[u8], submit: &dyn Fn(SchedOp) -> SchedAnswer) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (header, payload) = frame.split_at(proto::FRAME_HEADER_BYTES);
    let (_, crc) = proto::decode_frame_header(header).unwrap();
    let payload = payload.to_vec();
    proto::check_frame_crc(&payload, crc).unwrap();
    let FlatOp::Sched(op) = proto::decode_request_flat(payload).unwrap().op else {
        panic!("a data frame");
    };
    let SchedAnswer::Values(values) = submit(op) else {
        panic!("point answers");
    };
    let body = RespBody::Values(values);
    let answer = proto::encode_frame(&proto::encode_response(&Response { id: 7, body }).unwrap());
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(answer);
    made
}

#[test]
fn a_served_request_allocates_per_request_not_per_key() {
    let keys = uniform_keys(40_000, 8, 5);
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    let index = Arc::new(CuartIndex::build(&art, &CuartConfig::for_tests()));
    let small = &keys[..1 << 10];
    let large = &keys[8 << 10..16 << 10];
    let updates = |keys: &[Vec<u8>]| keys.iter().map(|k| (k.clone(), 42)).collect::<Vec<_>>();
    let frames = [
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
    ];

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
    let mut per_path = Vec::new();
    for (shards, client) in names.into_iter().zip(&clients) {
        let submit = &|op| client.submit(op, None).wait().unwrap();
        // Warm-up, largest first: it sizes every executor's scratch and
        // staging, and writes every key the measured updates rewrite.
        for (_, small, large) in &frames {
            serve(large, submit);
            serve(small, submit);
        }
        let counts: Vec<u64> = frames
            .iter()
            .map(|(kind, small, large)| {
                let (at_1k, at_8k) = (serve(small, submit), serve(large, submit));
                assert_eq!(at_1k, at_8k, "{kind} on {shards}: 1 Ki vs 8 Ki keys");
                assert!(at_8k <= 64, "{kind} on {shards} allocated {at_8k}×");
                at_8k
            })
            .collect();
        per_path.push(counts);
    }
    // A fleet of one queues a request whole, as a lone scheduler does,
    // and costs exactly as much, per kind and at both frame sizes.
    for (shards, counts) in names.iter().zip(&per_path).take(3).skip(1) {
        assert_eq!(counts, &per_path[0], "{shards} vs 1 shard (lookup, update)");
    }
    drop(clients);
    single.join().unwrap();
    for stack in [fleet_of_one, lone_as_fleet, fleet] {
        stack.join().unwrap();
    }
}
