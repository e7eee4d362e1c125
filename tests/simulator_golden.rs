//! Golden `KernelReport`s: a simulator speed-up must leave every modeled
//! statistic identical.
//!
//! The expected strings were captured at the commit before the trace arena
//! replaced the nested-`Vec` traces (PR 11's simulator). Every field of every
//! report is compared, `f64`s by their bit pattern, so a change to the walk
//! order of the timing pass (L2 decisions, DRAM issue order, float
//! accumulation order) fails here even when it moves a number by one ulp.
//!
//! One change to the *model* has re-derived part of it since: PR 24 sized
//! the claim table to the launch, which moved the session's `update` and
//! `insert` lines (fewer DRAM transactions, a smaller clear) and, through
//! the L2 those kernels leave behind, the hit counts of the `range` and
//! `relookup` lines after them. The first `lookup` and every one-shot line
//! are still PR 11's.

use cuart::{CuartConfig, CuartIndex, LongKeyPolicy, DELETE};
use cuart_art::Art;
use cuart_gpu_sim::{devices, KernelReport};
use cuart_grt::GrtIndex;
use cuart_workloads::queries::range_queries;
use cuart_workloads::{long_key_mix, uniform_keys, QueryStream, UpdateStream};

/// Every field, in declaration order; floats as `to_bits()` hex.
fn render(r: &KernelReport) -> String {
    format!(
        "time={:016x} threads={} warps={} steps={} chain={} raw={} sectors={} l2_hits={} \
         dram_tx={} dram_bytes={} imb={:016x} compute={} conflicts={} active={} issued={} \
         lat={:016x} bw={:016x} cmp={:016x}",
        r.time_ns.to_bits(),
        r.threads,
        r.warps,
        r.steps_total,
        r.max_chain_steps,
        r.raw_accesses,
        r.sectors,
        r.l2_hits,
        r.dram_transactions,
        r.dram_bytes,
        r.dram_imbalance.to_bits(),
        r.compute_cycles,
        r.atomic_conflicts,
        r.active_lane_steps,
        r.issued_lane_steps,
        r.latency_bound_ns.to_bits(),
        r.bandwidth_bound_ns.to_bits(),
        r.compute_bound_ns.to_bits(),
    )
}

fn art_of(keys: &[Vec<u8>]) -> Art<u64> {
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    art
}

fn check(got: &[(&str, KernelReport)], want: &[&str]) {
    let got: Vec<String> = got
        .iter()
        .map(|(name, r)| format!("{name}: {}", render(r)))
        .collect();
    assert_eq!(got, want, "\nactual reports:\n{}\n", got.join("\n"));
}

/// One session, every kernel: lookup (half misses), update with in-batch
/// duplicates and deletes, insert (new keys, existing keys and in-batch
/// duplicates), range spans, and a second lookup over the mutated tree with
/// the warm L2 — so staging reuse and the 2-phase kernels sit between two
/// 1-phase launches.
#[test]
fn session_kernels_reproduce_parent_reports() {
    let keys = uniform_keys(20_000, 8, 7);
    let index = CuartIndex::build(&art_of(&keys), &CuartConfig::for_tests());
    let mut dev = devices::rtx3090();
    // Scale the L2 so the 20k-key tree overflows it: hits, misses and
    // evictions all occur.
    dev.l2.size_bytes = 256 << 10;
    let mut session = index.device_session(&dev);

    let mut lookups = QueryStream::new(keys.clone(), 0.5, 11);
    let mut updates = UpdateStream::new(keys.clone(), 1.0 / 16.0, 0.25, 12);
    let (_, lookup) = session.lookup_batch(&lookups.next_batch(4096)).unwrap();
    let (_, update) = session
        .update_batch(&updates.next_batch(2048, DELETE))
        .unwrap();
    let fresh = uniform_keys(700, 8, 99);
    let mut inserts: Vec<(Vec<u8>, u64)> = fresh
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), 1_000_000 + i as u64))
        .collect();
    inserts.extend(keys[..200].iter().map(|k| (k.clone(), 5)));
    inserts.extend(fresh[..124].iter().map(|k| (k.clone(), 6)));
    let (_, insert) = session.insert_batch(&inserts).unwrap();
    let (_, range) = session
        .range_batch(&range_queries(&keys, 64, 8, 13))
        .unwrap();
    let (_, relookup) = session.lookup_batch(&lookups.next_batch(1000)).unwrap();

    check(
        &[
            ("lookup", lookup),
            ("update", update),
            ("insert", insert),
            ("range", range),
            ("relookup", relookup),
        ],
        &SESSION_GOLDEN,
    );
}

/// The traversal arms the 8-byte session never reaches: dynamic leaves,
/// multi-layer nodes, no LUT, long keys — and the GRT kernel on the same
/// tree, whose unaligned packed reads straddle sectors.
#[test]
fn one_shot_kernels_reproduce_parent_reports() {
    let keys = long_key_mix(6_000, 12, 48, 0.2, 21);
    let art = art_of(&keys);
    let dev = devices::a100();
    let probes: Vec<Vec<u8>> = QueryStream::new(keys.clone(), 0.8, 22).next_batch(1500);

    let dynamic = CuartIndex::build(
        &art,
        &CuartConfig {
            lut_span: 0,
            long_key_policy: LongKeyPolicy::DynamicLeaf,
            multi_layer_nodes: true,
            single_leaf_class: false,
        },
    );
    let (_, dyn_report) = dynamic.lookup_batch_device(&dev, &probes, 48);
    let host_leaf = CuartIndex::build(
        &art,
        &CuartConfig {
            lut_span: 2,
            long_key_policy: LongKeyPolicy::HostLeafLink,
            multi_layer_nodes: false,
            single_leaf_class: true,
        },
    );
    let (_, host_report) = host_leaf.lookup_batch_device(&dev, &probes, 48);
    let (_, grt_report) = GrtIndex::build(&art).lookup_batch_device(&dev, &probes, 48);

    check(
        &[
            ("dyn-leaf", dyn_report),
            ("host-leaf", host_report),
            ("grt", grt_report),
        ],
        &ONE_SHOT_GOLDEN,
    );
}

#[rustfmt::skip]
const SESSION_GOLDEN: [&str; 5] = [
    "lookup: time=40b544bd0bd0bd1c threads=4096 warps=128 steps=17473 chain=6 raw=17473 sectors=16161 l2_hits=9147 dram_tx=7014 dram_bytes=224448 imb=3ff0eac20691d905 compute=140304 conflicts=0 active=17473 issued=20640 lat=40a29c2f819b8fbc bw=40b544bd0bd0bd1c cmp=408f8ba19f85fec8",
    "update: time=40cb8ea038e2da81 threads=2048 warps=64 steps=29198 chain=17 raw=29198 sectors=22664 l2_hits=17217 dram_tx=5447 dram_bytes=174304 imb=3ff3cd7d214a9e6f compute=70032 conflicts=67 active=29198 issued=41312 lat=40c39b9e08bfd851 bw=40b1f6f42f42f437 cmp=407f7dd140ecefd0",
    "insert: time=40c89beb7eb89181 threads=1024 warps=32 steps=15745 chain=14 raw=15745 sectors=10271 l2_hits=8069 dram_tx=2202 dram_bytes=70464 imb=3ff616a7a5616a7a compute=15294 conflicts=469 active=15745 issued=20608 lat=40c0ba6a66a71069 bw=409ed5fd5fd5fd63 cmp=405b82592ecd384e",
    "range: time=40c435358ee81fa4 threads=64 warps=2 steps=2292 chain=37 raw=2292 sectors=2466 l2_hits=1947 dram_tx=519 dram_bytes=16608 imb=3ff9e55d39b602f2 compute=14752 conflicts=0 active=2292 issued=2368 lat=40c435358ee81fa4 bw=408345be5be5be5b cmp=405a88c6c5fff691",
    "relookup: time=409f13addb6b8826 threads=1000 warps=32 steps=4278 chain=5 raw=4278 sectors=3980 l2_hits=1958 dram_tx=2022 dram_bytes=64704 imb=3ff38f929c7c94e7 compute=34448 conflicts=0 active=4278 issued=5120 lat=409f13addb6b8826 bw=409c5ba6ba6ba6c2 cmp=406efb0b9f43fba7",
];

#[rustfmt::skip]
const ONE_SHOT_GOLDEN: [&str; 3] = [
    "dyn-leaf: time=40a89b96a673e278 threads=1500 warps=47 steps=7978 chain=7 raw=9478 sectors=7325 l2_hits=4379 dram_tx=2946 dram_bytes=94272 imb=3ff355ae50fd0ba1 compute=120588 conflicts=0 active=7978 issued=9216 lat=40a6597487ee40ce bw=40a89b96a673e278 cmp=4088bf1125b964ab",
    "host-leaf: time=40a739add3c0ca3f threads=1500 warps=47 steps=5870 chain=5 raw=5870 sectors=7592 l2_hits=4635 dram_tx=2957 dram_bytes=94624 imb=3ff22e3b0b2b0701 compute=48312 conflicts=0 active=5870 issued=7520 lat=40a1001a4f6e33d8 bw=40a739add3c0ca3f cmp=4073d41f786f5b64",
    "grt: time=40b52a9a3987423f threads=1500 warps=47 steps=13532 chain=11 raw=13532 sectors=16283 l2_hits=13612 dram_tx=2671 dram_bytes=85472 imb=3ff17dd7efe5ee2b compute=158454 conflicts=0 active=13532 issued=16544 lat=40b52a9a3987423f bw=40a42f140436c828 cmp=4090422cc8ed3d21",
];
