//! The touch-ahead and the split launch change nothing a launch can
//! observe.
//!
//! Each case runs the same staged batches twice on twin device memories
//! (built by the same sequence of allocations, so every address agrees):
//! once through the kernels as they ship and once through [`Unwarmed`]
//! twins that withhold the `warm` hook and do not opt in to the split
//! (`independent`), so they run serially. Results buffers must be equal
//! and every `KernelReport` equal field by field, floats by bit pattern.
//! A batch above the split threshold runs every opted-in kernel split on
//! one side (on a host with two or more threads) and serially on the
//! other; there device memory must be equal byte for byte too.

#![allow(
    clippy::expect_used,
    reason = "test helpers: a broken fixture is the test failing"
)]

use cuart::claim::{ClaimTable, Staging};
use cuart::insert::{ArenaTails, CuartInsertKernel};
use cuart::kernels::CuartLookupKernel;
use cuart::link::{LinkType, NodeLink};
use cuart::mapper::lut_slot;
use cuart::range::{RangeSpanKernel, RANGE_RECORD_BYTES, RANGE_RESULT_BYTES};
use cuart::update::{CuartUpdateKernel, FreeLists};
use cuart::{CuartConfig, CuartIndex, DeviceTree, LongKeyPolicy, DELETE};
use cuart_art::Art;
use cuart_gpu_sim::batch::{pack_keys_into, KeyBatchLayout};
use cuart_gpu_sim::cache::Cache;
use cuart_gpu_sim::exec::{KernelReport, Launcher};
use cuart_gpu_sim::{devices, DeviceConfig, DeviceMemory, PhasedKernel, ThreadCtx};
use cuart_grt::kernels::GrtLookupKernel;
use cuart_grt::GrtIndex;

/// A kernel with its `warm` hook withheld (the provided no-op stays) and
/// no `independent` opt-in, so its launches run serially.
struct Unwarmed<K>(K);

impl<K: PhasedKernel> PhasedKernel for Unwarmed<K> {
    fn phases(&self) -> usize {
        self.0.phases()
    }

    fn execute_phase(&self, phase: usize, tid: usize, ctx: &mut ThreadCtx<'_>) {
        self.0.execute_phase(phase, tid, ctx);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Lookup,
    Update,
    Insert,
}

/// One launch's worth of `(key, value)` ops and the kernel they go to.
type Batch = (Kind, Vec<(Vec<u8>, u64)>);

/// Staging capacity: above the largest thread count any case launches.
const CAPACITY: usize = 256;

fn mix(i: u64) -> u64 {
    i.wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// A key of `len` bytes: `head`, then pseudo-random filler from `i`.
fn keyed(head: &[u8], len: usize, i: u64) -> Vec<u8> {
    let mut key = head.to_vec();
    let mut word = mix(i);
    while key.len() < len {
        word = mix(word);
        key.extend_from_slice(&word.to_be_bytes());
    }
    key.truncate(len);
    key
}

/// A prefix-free population (the first byte names the length class) that
/// puts every record type behind the compacted root: leaves of all three
/// classes directly under a slot and under N4…N256 nodes, keys longer than
/// any device leaf (host-routed, host-leaf-linked or dynamic, by policy),
/// keys shorter than a 2- or 3-byte span, and a dense block that merges
/// into a multi-layer node when those are on.
fn population() -> Vec<Vec<u8>> {
    let mut keys = Vec::new();
    keys.extend((0..600).map(|i| keyed(&[0x10, (i % 4) as u8], 8, i)));
    keys.extend((0..40).map(|i| keyed(&[0x11, 0x00], 8, i)));
    keys.extend((0..100).map(|i| keyed(&[0x20, (i % 7) as u8], 12, i)));
    keys.extend((0..60).map(|i| keyed(&[0x30, (i % 5) as u8], 20, i)));
    keys.extend((0..20).map(|i| keyed(&[0x40, (i % 3) as u8], 40, i)));
    keys.push(vec![0x50]);
    keys.push(vec![0x51, 0x01]);
    for b2 in 0..=255u8 {
        keys.extend((0..4u8).map(|b3| vec![0x60, 0x60, b2, b3 * 64, 5, 5]));
    }
    keys.extend((0..50).map(|i| keyed(&[0x70, i as u8], 10, i)));
    keys
}

fn art(keys: &[Vec<u8>]) -> Art<u64> {
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).expect("prefix-free population");
    }
    art
}

fn build(cfg: &CuartConfig) -> (CuartIndex, Vec<Vec<u8>>) {
    let keys = population();
    (CuartIndex::build(&art(&keys), cfg), keys)
}

/// One drawn op → its key: hits, misses deep in the tree, misses at a null
/// LUT slot, a small pool of fresh keys (so inserts collide in a batch),
/// and the odd ones — empty, shorter than the span, longer than any leaf.
fn key_of(pop: &[Vec<u8>], sel: u8, id: u16) -> Vec<u8> {
    let id = usize::from(id);
    let stored = || pop[id * 37 % pop.len()].clone();
    match sel {
        0..=3 => stored(),
        4 => {
            let mut key = stored();
            *key.last_mut().expect("no stored key is empty") ^= 0xFF;
            key
        }
        5 => keyed(&[0xEE, id as u8], 8, id as u64),
        6 if id % 2 == 0 => keyed(&[0x10, (id % 4) as u8, 0xFF], 8, (id % 16) as u64),
        6 => keyed(&[0x11, 0x00, 0xF0 | (id % 16) as u8], 8, 0),
        _ => match id % 5 {
            0 => Vec::new(),
            1 => vec![0x50],
            2 => vec![0x10],
            3 => vec![0x51, 0x01],
            _ => keyed(&[0x40, 0xFF], 40, id as u64),
        },
    }
}

/// Leaf slots of headroom per class, and claim-table slots per launch.
const HEADROOM: usize = 1024;
const TABLE_SLOTS: usize = 1 << 10;

/// A device image as a session opens one: the tree with leaf headroom,
/// empty free lists, arena tails at the record counts, and one staging
/// area. Built by a fixed sequence of allocations, so twins agree on every
/// address.
struct Device {
    mem: DeviceMemory,
    tree: DeviceTree,
    free_lists: FreeLists,
    tails: ArenaTails,
    st: Staging,
}

fn device(index: &CuartIndex) -> Device {
    device_for(index, CAPACITY)
}

/// [`device`] with staging for `capacity` ops.
fn device_for(index: &CuartIndex, capacity: usize) -> Device {
    const LEAVES: [LinkType; 3] = [LinkType::Leaf8, LinkType::Leaf16, LinkType::Leaf32];
    let mut mem = DeviceMemory::new();
    let tree = index.upload(&mut mem, HEADROOM);
    let records = |ty| index.buffers().record_count(ty);
    let [leaf8, leaf16, leaf32] =
        LEAVES.map(|ty| mem.alloc("free-list", 16 + (records(ty) + HEADROOM) * 8, 32));
    let tails = ArenaTails(mem.alloc("arena-tails", 24, 32));
    for ty in LEAVES {
        mem.write_u64(tails.0, ArenaTails::offset(ty), records(ty) as u64);
    }
    let layout = KeyBatchLayout {
        stride: index.device_key_stride(),
    };
    let st = Staging {
        queries: mem.alloc("stage-queries", capacity * layout.record_bytes(), 32),
        layout,
        results: mem.alloc("stage-results", capacity * 8, 32),
        values: mem.alloc("stage-values", capacity * 8, 32),
        loc: mem.alloc("stage-loc", capacity * 8, 32),
        parent: mem.alloc("stage-parent", capacity * 8, 32),
        aux: mem.alloc("stage-leaf", capacity * 8, 32),
        capacity,
    };
    Device {
        mem,
        tree,
        free_lists: FreeLists {
            leaf8,
            leaf16,
            leaf32,
        },
        tails,
        st,
    }
}

/// Every field, in declaration order; floats as bit patterns.
fn fields(r: &KernelReport) -> [u64; 18] {
    [
        r.time_ns.to_bits(),
        r.threads as u64,
        r.warps as u64,
        r.steps_total,
        r.max_chain_steps as u64,
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
    ]
}

/// What a session launches through, plus the choice of twin.
struct Rig {
    dev: DeviceConfig,
    launcher: Launcher,
    l2: Cache,
    threads: usize,
    warmed: bool,
}

impl Rig {
    /// Launch `kernel`, or its un-warmed twin.
    fn launch(&mut self, mem: &mut DeviceMemory, kernel: impl PhasedKernel) -> KernelReport {
        let (dev, l2) = (&self.dev, &mut self.l2);
        if self.warmed {
            self.launcher.launch(dev, mem, &kernel, self.threads, l2)
        } else {
            self.launcher
                .launch(dev, mem, &Unwarmed(kernel), self.threads, l2)
        }
    }
}

/// Run `batches` in order on a fresh device image — one launcher, one L2,
/// one staging area, as a session would; a write launch gets a fresh
/// (all-zero) claim table — launching `threads` threads over the first
/// `count` staged ops, through the kernels (`warmed`) or their un-warmed
/// twins. Returns each launch's results buffer and report fields.
fn run(
    index: &CuartIndex,
    batches: &[Batch],
    threads: usize,
    count: usize,
    warmed: bool,
) -> Vec<(Vec<u8>, [u64; 18])> {
    let mut dev = devices::a100();
    dev.l2.size_bytes = 64 << 10; // hits, misses and evictions all occur
    let mut rig = Rig {
        dev,
        launcher: Launcher::default(),
        l2: Cache::new(&dev.l2),
        threads,
        warmed,
    };
    let Device {
        mut mem,
        tree,
        free_lists,
        tails,
        st,
    } = device(index);
    let mut out = Vec::new();
    for (kind, ops) in batches {
        pack_keys_into(&mut mem, st.queries, &st.layout, ops.iter().map(|o| &o.0))
            .expect("ops fit the staging area");
        for (j, (_, value)) in ops.iter().enumerate() {
            mem.write_u64(st.values, j * 8, *value);
        }
        let report = match kind {
            Kind::Lookup => rig.launch(
                &mut mem,
                CuartLookupKernel {
                    tree,
                    queries: st.queries,
                    layout: st.layout,
                    results: st.results,
                    count,
                },
            ),
            Kind::Update => {
                let claims = ClaimTable::alloc(&mut mem, TABLE_SLOTS);
                rig.launch(
                    &mut mem,
                    CuartUpdateKernel {
                        tree,
                        staging: st,
                        count,
                        claims,
                        free_lists,
                    },
                )
            }
            Kind::Insert => {
                let claims = ClaimTable::alloc(&mut mem, TABLE_SLOTS);
                rig.launch(
                    &mut mem,
                    CuartInsertKernel {
                        tree,
                        staging: st,
                        count,
                        claims,
                        free_lists,
                        tails,
                    },
                )
            }
        };
        let mut results = vec![0; CAPACITY * 8];
        mem.read_into(st.results, 0, &mut results);
        out.push((results, fields(&report)));
    }
    out
}

/// Ops of `kind` from a drawn spec, dropping keys the staging stride cannot
/// hold (the session routes those to the host before staging). `None`
/// deletes in an update batch.
fn ops_of(
    index: &CuartIndex,
    pop: &[Vec<u8>],
    kind: Kind,
    spec: &[(u8, u16, Option<u64>)],
) -> Vec<(Vec<u8>, u64)> {
    let max = KeyBatchLayout {
        stride: index.device_key_stride(),
    }
    .max_key_len();
    let absent = if kind == Kind::Update { DELETE } else { 7 };
    spec.iter()
        .map(|&(sel, id, value)| (key_of(pop, sel, id), value.unwrap_or(absent)))
        .filter(|(key, _)| key.len() <= max)
        .collect()
}

fn assert_twins_agree(index: &CuartIndex, batches: &[Batch], threads: usize, count: usize) {
    let warmed = run(index, batches, threads, count, true);
    let unwarmed = run(index, batches, threads, count, false);
    for (((kind, _), w), u) in batches.iter().zip(&warmed).zip(&unwarmed) {
        assert_eq!(w.1, u.1, "{kind:?} report, {threads} threads / {count} ops");
        assert_eq!(
            w.0, u.0,
            "{kind:?} results, {threads} threads / {count} ops"
        );
    }
}

const SPANS: [usize; 2] = [0, 2];
const POLICIES: [LongKeyPolicy; 3] = [
    LongKeyPolicy::CpuRoute,
    LongKeyPolicy::HostLeafLink,
    LongKeyPolicy::DynamicLeaf,
];
const THREADS: [usize; 6] = [0, 1, 63, 64, 65, 200];
const KINDS: [Kind; 3] = [Kind::Lookup, Kind::Update, Kind::Insert];

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]

    /// A drawn batch of one kind, then a lookup of the same keys over what
    /// it left behind, under a drawn configuration and grid shape.
    #[test]
    fn a_warmed_launch_equals_its_unwarmed_twin(
        (span, policy, multi_layer) in (0usize..2, 0usize..3, proptest::prelude::any::<bool>()),
        (kind, threads, idle) in (0usize..3, 0usize..6, 0usize..3),
        spec in proptest::collection::vec(
            (0u8..8, 0u16..160, proptest::option::of(1u64..1_000)),
            200,
        ),
    ) {
        let cfg = CuartConfig {
            lut_span: SPANS[span],
            long_key_policy: POLICIES[policy],
            multi_layer_nodes: multi_layer,
            single_leaf_class: false,
        };
        let (index, pop) = build(&cfg);
        let (kind, threads) = (KINDS[kind], THREADS[threads]);
        let mut ops = ops_of(&index, &pop, kind, &spec);
        ops.truncate(threads);
        // Fewer live ops than launched threads: the tail threads idle.
        let count = ops.len().saturating_sub(idle);
        let lookups = ops.clone();
        assert_twins_agree(&index, &[(kind, ops), (Kind::Lookup, lookups)], threads, count);
    }
}

/// Threads of a split-sized launch: four parts' worth at the smallest
/// part size, so it splits on any host with two or more threads, with a
/// ragged last warp.
const SPLIT_THREADS: usize = (8 << 10) + 5;

/// Every byte of every buffer.
fn memory_image(mem: &DeviceMemory) -> Vec<u8> {
    let mut image = Vec::new();
    for id in mem.buffer_ids() {
        let mut bytes = vec![0; mem.buffer(id).len()];
        mem.read_into(id, 0, &mut bytes);
        image.extend(bytes);
    }
    image
}

/// On memory an insert and an update batch have partly written, a
/// split-sized batch through each kernel that opts in to the split — the
/// lookup kernel, the range kernel, GRT's lookup kernel — as shipped, or
/// through its serial twin. Returns device memory and the report fields
/// after each launch.
fn split_run(
    index: &CuartIndex,
    grt: &GrtIndex,
    pop: &[Vec<u8>],
    shipped: bool,
) -> Vec<(Vec<u8>, [u64; 18])> {
    let mut dev = devices::a100();
    dev.l2.size_bytes = 64 << 10;
    let mut rig = Rig {
        dev,
        launcher: Launcher::default(),
        l2: Cache::new(&dev.l2),
        threads: 0,
        warmed: shipped,
    };
    let Device {
        mut mem,
        tree,
        free_lists,
        tails,
        st,
    } = device_for(index, SPLIT_THREADS);
    let grt_tree = grt.upload(&mut mem);
    let range_queries = mem.alloc("range-queries", SPLIT_THREADS * RANGE_RECORD_BYTES, 32);
    let range_results = mem.alloc("range-results", SPLIT_THREADS * RANGE_RESULT_BYTES, 32);
    let grt_results = mem.alloc("grt-results", SPLIT_THREADS * 8, 32);
    let mut out = Vec::new();

    let spec: Vec<(u8, u16, Option<u64>)> = (0..200u64)
        .map(|i| {
            let r = mix(i + 7);
            (
                (r >> 8) as u8 % 8,
                (r >> 16) as u16 % 160,
                Some(r % 1_000 + 1),
            )
        })
        .collect();
    for kind in [Kind::Insert, Kind::Update] {
        let ops = ops_of(index, pop, kind, &spec);
        pack_keys_into(&mut mem, st.queries, &st.layout, ops.iter().map(|o| &o.0))
            .expect("ops fit the staging area");
        for (j, (_, value)) in ops.iter().enumerate() {
            mem.write_u64(st.values, j * 8, *value);
        }
        let (count, claims) = (ops.len(), ClaimTable::alloc(&mut mem, TABLE_SLOTS));
        rig.threads = count;
        let report = match kind {
            Kind::Insert => rig.launch(
                &mut mem,
                CuartInsertKernel {
                    tree,
                    staging: st,
                    count,
                    claims,
                    free_lists,
                    tails,
                },
            ),
            _ => rig.launch(
                &mut mem,
                CuartUpdateKernel {
                    tree,
                    staging: st,
                    count,
                    claims,
                    free_lists,
                },
            ),
        };
        out.push((memory_image(&mem), fields(&report)));
    }

    // Hits, misses and odd keys, cycled to the split size; the last three
    // threads idle.
    let max = st.layout.max_key_len();
    let keys: Vec<Vec<u8>> = (0..)
        .map(|i: u64| {
            let r = mix(i);
            key_of(pop, (r >> 8) as u8 % 8, (r >> 16) as u16 % 160)
        })
        .filter(|key| key.len() <= max)
        .take(SPLIT_THREADS)
        .collect();
    pack_keys_into(&mut mem, st.queries, &st.layout, keys.iter()).expect("keys fit");
    let count = SPLIT_THREADS - 3;
    rig.threads = SPLIT_THREADS;
    let report = rig.launch(
        &mut mem,
        CuartLookupKernel {
            tree,
            queries: st.queries,
            layout: st.layout,
            results: st.results,
            count,
        },
    );
    out.push((memory_image(&mem), fields(&report)));
    let report = rig.launch(
        &mut mem,
        GrtLookupKernel {
            tree: grt_tree.tree,
            root: grt_tree.root,
            queries: st.queries,
            layout: st.layout,
            results: grt_results,
            count,
        },
    );
    out.push((memory_image(&mem), fields(&report)));

    // Ranges from one key to the next, bounds clamped to the record's
    // 32-byte fields.
    for (i, pair) in keys.windows(2).take(SPLIT_THREADS).enumerate() {
        let mut record = [0u8; RANGE_RECORD_BYTES];
        let (lo, hi) = (
            &pair[0][..pair[0].len().min(32)],
            &pair[1][..pair[1].len().min(32)],
        );
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        for (at, bound) in [(0, lo), (33, hi)] {
            record[at] = bound.len() as u8;
            record[at + 1..at + 1 + bound.len()].copy_from_slice(bound);
        }
        mem.write_bytes(range_queries, i * RANGE_RECORD_BYTES, &record);
    }
    let mapped = |ty| index.buffers().record_count(ty) as u64;
    let report = rig.launch(
        &mut mem,
        RangeSpanKernel {
            tree,
            queries: range_queries,
            results: range_results,
            count,
            mapped: [
                mapped(LinkType::Leaf8),
                mapped(LinkType::Leaf16),
                mapped(LinkType::Leaf32),
            ],
        },
    );
    out.push((memory_image(&mem), fields(&report)));
    out
}

#[test]
fn split_launches_equal_their_serial_twins() {
    let cfg = CuartConfig::for_tests();
    let pop = population();
    let art = art(&pop);
    let (index, grt) = (CuartIndex::build(&art, &cfg), GrtIndex::build(&art));
    let shipped = split_run(&index, &grt, &pop, true);
    let serial = split_run(&index, &grt, &pop, false);
    let launches = ["insert", "update", "lookup", "grt lookup", "range"];
    assert_eq!(shipped.len(), launches.len());
    for ((name, split), serial) in launches.iter().zip(&shipped).zip(&serial) {
        assert_eq!(split.1, serial.1, "{name} report");
        assert!(split.0 == serial.0, "{name}: device memory differs");
    }
    let (results, _) = &shipped[2];
    assert!(results.iter().any(|&b| b != 0), "the lookups wrote results");
}

/// The shipping configuration: a 3-byte span, so most entries link straight
/// to a leaf and two-byte keys are shorter than the span. One image pair
/// (the LUT alone is 128 MiB), every kernel.
#[test]
fn twins_agree_under_a_three_byte_span() {
    let cfg = CuartConfig {
        multi_layer_nodes: true,
        ..CuartConfig::default()
    };
    assert_eq!(cfg.lut_span, 3);
    let (index, pop) = build(&cfg);
    let spec: Vec<(u8, u16, Option<u64>)> = (0..200u64)
        .map(|i| {
            let r = mix(i);
            let value = (r >> 32 & 3 != 0).then_some(r % 1_000 + 1);
            ((r >> 8) as u8 % 8, (r >> 16) as u16 % 160, value)
        })
        .collect();
    let batches: Vec<Batch> = [Kind::Insert, Kind::Update, Kind::Lookup]
        .into_iter()
        .map(|kind| (kind, ops_of(&index, &pop, kind, &spec)))
        .collect();
    let count = batches.iter().map(|(_, ops)| ops.len()).min().unwrap_or(0);
    assert!(count > 150, "the spec should survive the stride filter");
    assert_twins_agree(&index, &batches, 200, count);
}

/// `warm` runs ahead of every check the kernels make, on whatever the
/// buffers hold. Hostile staging and a corrupted root table must cost
/// nothing but the touch: no panic, in a build with overflow checks on.
#[test]
fn warm_survives_hostile_staging() {
    let (index, pop) = build(&CuartConfig::for_tests());
    let Device {
        mut mem,
        tree,
        free_lists,
        st,
        ..
    } = device(&index);
    let victims: Vec<&Vec<u8>> = pop.iter().filter(|k| k[0] == 0x70).take(6).collect();
    pack_keys_into(&mut mem, st.queries, &st.layout, victims.iter()).expect("ten-byte keys fit");
    let hostile = [
        0xF << 60 | 5,                                  // unknown tag
        NodeLink::new(LinkType::Leaf8, 1 << 40).0,      // index past its arena
        NodeLink::new(LinkType::N256, (1 << 55) - 1).0, // index × stride overflows
        NodeLink::new(LinkType::DynLeaf, u64::from(u32::MAX)).0,
        NodeLink::new(LinkType::HostLeaf, 1 << 30).0,
        NodeLink::with_aux(LinkType::N2L, 1 << 50, 31).0,
    ];
    for (key, entry) in victims.iter().zip(hostile) {
        mem.write_u64(tree.lut, lut_slot(key, 2) * 8, entry);
    }
    // A length byte above the stride, and one that runs off the record.
    let rec = st.layout.record_bytes();
    mem.write_u8(st.queries, 6 * rec, st.layout.stride as u8 + 1);
    mem.write_u8(st.queries, 7 * rec, u8::MAX);

    let lookup = CuartLookupKernel {
        tree,
        queries: st.queries,
        layout: st.layout,
        results: st.results,
        count: CAPACITY,
    };
    let update = CuartUpdateKernel {
        tree,
        staging: st,
        count: usize::MAX,
        claims: ClaimTable::alloc(&mut mem, TABLE_SLOTS),
        free_lists,
    };
    // Thread ranges inside, across and far past the staging buffer.
    for tids in [0..8, 0..CAPACITY, 200..1_000, usize::MAX - 3..usize::MAX] {
        PhasedKernel::warm(&lookup, 0, tids.clone(), &mem);
        PhasedKernel::warm(&update, 0, tids.clone(), &mem);
        PhasedKernel::warm(&update, 1, tids, &mem);
    }
    // Without a LUT the hook reads the root word and nothing else.
    let mut rootless = lookup;
    rootless.tree.lut_span = 0;
    PhasedKernel::warm(&rootless, 0, 0..CAPACITY, &mem);
}
