//! Laws of the memory model: metamorphic properties that say what the
//! timing pass *means*, so a change to how it is computed is checked
//! against more than the numbers it printed before
//! (`tests/simulator_golden.rs`).
//!
//! The laws run the real CuART lookup kernel over random trees, batches
//! and devices, or (where the law is about lanes, not keys) a kernel that
//! replays random traces:
//!
//! * **(a)** Answers do not depend on the device, on cutting a batch into
//!   pieces at warp boundaries, or on arrival versus sorted order: a
//!   session's lookup values and update and insert statuses, mapped back
//!   to arrival order, are the same under every combination. The writes
//!   are of distinct keys — a duplicate's `SUPERSEDED` is what sharing a
//!   batch with its twin means.
//! * **(b)** Permuting lanes within a warp leaves every warp step's set of
//!   accesses unchanged, so no number of the report moves.
//!   Splitting a lookup batch at warp boundaries leaves total sectors
//!   unchanged: coalescing happens within a warp, never across warps.
//! * **(c)** Re-running a batch on a warm L2 never issues more DRAM
//!   transactions than the cold run. LRU is a stack algorithm: at every
//!   access the warm cache holds a superset of what the cold one holds. On
//!   a tree that fits the L2, the warm run issues strictly fewer.
//! * **(g)** On a lookup batch, sorted order never issues more sectors than
//!   arrival order, and over all cases it issues strictly fewer: sorting is
//!   what makes adjacent lanes share tree paths (§3.1).
//! * **(d)** With the same kind of memory, a higher command clock, or a
//!   whole multiple of the channels, never lengthens a launch's
//!   `bandwidth_bound_ns`. Any other channel count may: channels are
//!   picked by address modulo the count, and a hot group of sectors that
//!   shared two channels of eight can land on one channel of twelve
//!   (`more_channels_of_another_count_can_lengthen_the_bound`; DESIGN §2).
//! * **L2 replacement.** The L2 model answers hit or miss exactly as a
//!   stamp-based LRU reference does, access for access, including heavy
//!   set conflicts, 1-way sets and more ways than lines.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::batch::{gather, scatter_inverse, sort_permutation};
use cuart_gpu_sim::cache::Cache;
use cuart_gpu_sim::dram::{DramModel, CHANNEL_STRIDE};
use cuart_gpu_sim::{
    devices, BufferId, CacheConfig, Dep, DeviceConfig, DeviceMemory, Kernel, KernelReport,
    Launcher, ThreadCtx,
};
use cuart_workloads::uniform_keys;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const WARP: usize = 32;
const STRIDE: usize = 32;

/// An index over `n` random keys of `key_len` bytes, and its keys.
fn index(n: usize, key_len: usize, seed: u64) -> (CuartIndex, Vec<Vec<u8>>) {
    let keys = uniform_keys(n, key_len, seed);
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    (CuartIndex::build(&art, &CuartConfig::for_tests()), keys)
}

/// A lookup batch in arrival order: stored keys (some repeated) mixed with
/// misses of the same length.
fn batch(rng: &mut StdRng, keys: &[Vec<u8>], len: usize) -> Vec<Vec<u8>> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.25) {
                let mut miss = vec![0u8; keys[0].len()];
                rng.fill_bytes(&mut miss);
                miss
            } else {
                keys[rng.gen_range(0..keys.len())].clone()
            }
        })
        .collect()
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The devices every law runs on, plus one whose L2 a 1 Ki-key tree
/// overflows, so replacement decisions matter.
fn devices_under_test() -> Vec<DeviceConfig> {
    let mut small = devices::rtx3090();
    small.l2.size_bytes = 16 << 10;
    let mut all = devices::all();
    all.push(small);
    all
}

fn lookup(index: &CuartIndex, dev: &DeviceConfig, keys: &[Vec<u8>]) -> KernelReport {
    index.lookup_batch_device(dev, keys, STRIDE).1
}

/// One step of a replayed thread: a group of reads the thread has in
/// flight at once, or a single write or atomic, then some compute.
#[derive(Clone)]
enum Step {
    Reads(Vec<(usize, usize)>),
    Write(usize, usize),
    Atomic(usize),
}

/// Replays a generated trace per thread: thread `tid` runs
/// `traces[lanes[tid]]`, so `lanes` decides which lane carries which trace.
struct Replay {
    buf: BufferId,
    traces: Vec<Vec<(Step, u32)>>,
    lanes: Vec<usize>,
}

impl Kernel for Replay {
    fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
        for (step, compute) in &self.traces[self.lanes[tid]] {
            match step {
                Step::Reads(reads) => {
                    for (i, &(at, len)) in reads.iter().enumerate() {
                        let dep = if i == 0 {
                            Dep::Dependent
                        } else {
                            Dep::Independent
                        };
                        ctx.read_bytes_dep(self.buf, at, len, dep);
                    }
                }
                Step::Write(at, len) => ctx.write_bytes(self.buf, *at, &vec![7; *len]),
                Step::Atomic(at) => {
                    ctx.atomic_add_u64(self.buf, *at, 1);
                }
            }
            ctx.compute(*compute);
        }
    }
}

/// A random trace of up to 8 steps over a 64 KiB buffer: reads cluster on
/// a few hundred "nodes" so lanes share sectors, and atomics on a handful
/// of words so lanes conflict.
fn random_trace(rng: &mut StdRng) -> Vec<(Step, u32)> {
    (0..rng.gen_range(0..9usize))
        .map(|_| {
            let step = match rng.gen_range(0..10u8) {
                0 => Step::Write(rng.gen_range(0..8_000usize) * 8, rng.gen_range(1..40usize)),
                1 => Step::Atomic(rng.gen_range(0..6usize) * 8),
                _ => Step::Reads(
                    (0..rng.gen_range(1..4usize))
                        .map(|_| (rng.gen_range(0..400usize) * 48, rng.gen_range(1..64usize)))
                        .collect(),
                ),
            };
            (step, rng.gen_range(0..3u32) * 10)
        })
        .collect()
}

/// A session script: lookups, updates (distinct keys, some deleted, some
/// absent), inserts (distinct keys, fresh and stored), lookups again.
struct Script {
    lookups: Vec<Vec<u8>>,
    updates: Vec<(Vec<u8>, u64)>,
    inserts: Vec<(Vec<u8>, u64)>,
}

fn script(rng: &mut StdRng, keys: &[Vec<u8>]) -> Script {
    let len = WARP * rng.gen_range(3..8usize) + rng.gen_range(0..WARP);
    let lookups = batch(rng, keys, len);
    let mut distinct = batch(rng, keys, 2 * len);
    distinct.sort();
    distinct.dedup();
    shuffle(rng, &mut distinct);
    let (updates, inserts) = distinct.split_at(distinct.len() / 2);
    let valued = |keys: &[Vec<u8>], rng: &mut StdRng| -> Vec<(Vec<u8>, u64)> {
        keys.iter()
            .map(|k| {
                let value = if rng.gen_bool(0.2) {
                    cuart::DELETE
                } else {
                    rng.gen_range(1..1_000_000u64)
                };
                (k.clone(), value)
            })
            .collect()
    };
    let updates = valued(updates, rng);
    let inserts = valued(inserts, rng)
        .into_iter()
        .map(|(k, v)| (k, if v == cuart::DELETE { 7 } else { v }))
        .collect();
    Script {
        lookups,
        updates,
        inserts,
    }
}

/// Run `batch` as pieces cut at `cuts` (warp multiples), each in arrival
/// order or sorted; the answers in arrival order.
fn pieces<T: Clone + Default>(
    batch: &[T],
    key: impl Fn(&T) -> &Vec<u8>,
    cuts: &[usize],
    sorted: bool,
    mut run: impl FnMut(&[T]) -> Vec<u64>,
) -> Vec<u64> {
    let mut out = Vec::new();
    let mut start = 0;
    for end in cuts
        .iter()
        .copied()
        .filter(|&c| c < batch.len())
        .chain([batch.len()])
    {
        let piece = &batch[start..end];
        if sorted {
            let keys: Vec<Vec<u8>> = piece.iter().map(|op| key(op).clone()).collect();
            let perm = sort_permutation(&keys);
            out.extend(scatter_inverse(&run(&gather(piece, &perm)), &perm));
        } else {
            out.extend(run(piece));
        }
        start = end;
    }
    out
}

/// The script's answers through a fresh session on `dev`.
fn answers(
    index: &CuartIndex,
    dev: &DeviceConfig,
    s: &Script,
    cuts: &[usize],
    sorted: bool,
) -> Vec<Vec<u64>> {
    let mut session = index.device_session(dev);
    let mut out = Vec::new();
    let lookup = |session: &mut cuart::CuartSession<'_>, keys: &[Vec<u8>]| {
        pieces(
            keys,
            |k| k,
            cuts,
            sorted,
            |p| session.lookup_batch(p).unwrap().0,
        )
    };
    out.push(lookup(&mut session, &s.lookups));
    out.push(pieces(
        &s.updates,
        |op| &op.0,
        cuts,
        sorted,
        |p| session.update_batch(p).unwrap().0,
    ));
    out.push(pieces(
        &s.inserts,
        |op| &op.0,
        cuts,
        sorted,
        |p| session.insert_batch(p).unwrap().0,
    ));
    out.push(lookup(&mut session, &s.lookups));
    out
}

/// (a) One script's answers on every device, whole or cut at warp
/// boundaries, in arrival or sorted order.
#[test]
fn answers_do_not_depend_on_device_split_or_order() {
    let mut rng = StdRng::seed_from_u64(0xa);
    for (case, key_len) in [8, 16, 32].into_iter().enumerate() {
        let (index, keys) = index(1_024, key_len, 40 + case as u64);
        let s = script(&mut rng, &keys);
        let reference = answers(&index, &devices::rtx3090(), &s, &[], false);
        let cuts: Vec<usize> = (1..s.inserts.len().div_ceil(WARP))
            .filter(|_| rng.gen_bool(0.5))
            .map(|w| w * WARP)
            .collect();
        for dev in devices_under_test() {
            for cuts in [&[][..], &cuts] {
                for sorted in [false, true] {
                    assert_eq!(
                        answers(&index, &dev, &s, cuts, sorted),
                        reference,
                        "{} key_len {key_len}, cuts {cuts:?}, sorted {sorted}",
                        dev.name
                    );
                }
            }
        }
        let statuses = |batch: usize| -> Vec<u64> {
            let mut seen = reference[batch].clone();
            seen.sort();
            seen.dedup();
            seen
        };
        assert!(
            statuses(1).len() > 1 && statuses(2).len() > 1,
            "{reference:?}"
        );
    }
}

/// (d) The same batches, launched on a device whose memory differs only in
/// a higher command clock or a whole multiple of the channels.
#[test]
fn faster_or_multiplied_channels_never_lengthen_the_bandwidth_bound() {
    let mut rng = StdRng::seed_from_u64(0xd);
    for (case, key_len) in [8, 16, 32].into_iter().enumerate() {
        let (index, keys) = index(4_096, key_len, 50 + case as u64);
        for dev in devices_under_test() {
            let len = WARP * rng.gen_range(2..40usize) + rng.gen_range(0..WARP);
            let keys = batch(&mut rng, &keys, len);
            let base = lookup(&index, &dev, &keys).bandwidth_bound_ns;
            assert!(
                base > 0.0,
                "{} key_len {key_len}: no DRAM traffic",
                dev.name
            );
            let mut variants = Vec::new();
            for factor in [1.01, 1.5, 2.0] {
                let mut faster = dev;
                faster.mem.command_clock_mhz *= factor;
                variants.push((format!("clock ×{factor}"), faster));
            }
            for factor in [2, 3] {
                let mut wider = dev;
                wider.mem.channels *= factor;
                variants.push((format!("channels ×{factor}"), wider));
            }
            for (what, variant) in variants {
                let bound = lookup(&index, &variant, &keys).bandwidth_bound_ns;
                assert!(
                    bound <= base,
                    "{} key_len {key_len}, {what}: {bound} ns > {base} ns",
                    dev.name
                );
            }
        }
    }
}

/// (d)'s limit, pinned: the channel of a sector is its 256-byte block
/// modulo the channel count, so more channels of a count that is no
/// multiple can pile blocks that were spread onto one channel. Blocks 0,
/// 12 and 24 fall on channels 0, 4, 0 of eight, but all on channel 0 of
/// twelve.
#[test]
fn more_channels_of_another_count_can_lengthen_the_bound() {
    let busiest = |channels: usize| {
        let mut mem = devices::gtx1070().mem;
        mem.channels = channels;
        let mut dram = DramModel::new(mem);
        for block in [0u64, 12, 24] {
            dram.issue(block * CHANNEL_STRIDE, 32);
        }
        dram.max_channel_busy_ns()
    };
    assert!(busiest(12) > busiest(8));
    assert!(busiest(16) <= busiest(8));
}

/// (b) Lanes permuted within each warp: every warp step sees the same
/// accesses, only carried by other lanes, so the report does not move at
/// all. (Permuting the *keys* of a lookup batch is not the same thing: a
/// lane writes its result slot after its last step, so which result
/// sectors share a step depends on which lane holds which depth.)
#[test]
fn permuting_lanes_within_a_warp_leaves_the_report_unchanged() {
    let mut rng = StdRng::seed_from_u64(0xb1);
    for dev in devices_under_test() {
        for _ in 0..4 {
            let threads = WARP * rng.gen_range(1..12usize) + rng.gen_range(0..WARP);
            let traces: Vec<_> = (0..threads).map(|_| random_trace(&mut rng)).collect();
            let mut lanes: Vec<usize> = (0..threads).collect();
            let run = |lanes: &[usize]| {
                let mut mem = DeviceMemory::new();
                let buf = mem.alloc("replay", 64 << 10, 32);
                let kernel = Replay {
                    buf,
                    traces: traces.clone(),
                    lanes: lanes.to_vec(),
                };
                let mut l2 = Cache::new(&dev.l2);
                Launcher::default().launch(&dev, &mut mem, &kernel, threads, &mut l2)
            };
            let before = run(&lanes);
            for warp in lanes.chunks_mut(dev.warp_size) {
                shuffle(&mut rng, warp);
            }
            let after = run(&lanes);
            assert!(before.sectors > 0 && before.atomic_conflicts > 0);
            assert_eq!(format!("{before:?}"), format!("{after:?}"), "{}", dev.name);
        }
    }
}

/// (b) A batch cut at warp boundaries into pieces issues, summed over the
/// pieces, exactly the sectors of the whole.
#[test]
fn splitting_a_batch_at_warp_boundaries_leaves_total_sectors_unchanged() {
    let mut rng = StdRng::seed_from_u64(0xb2);
    for (case, key_len) in [8, 16, 32].into_iter().enumerate() {
        let (index, keys) = index(1_024, key_len, 10 + case as u64);
        for dev in devices_under_test() {
            let warps = rng.gen_range(3..10usize);
            let len = WARP * warps + rng.gen_range(0..WARP);
            let whole = batch(&mut rng, &keys, len);
            let mut cuts: Vec<usize> = (1..warps)
                .filter(|_| rng.gen_bool(0.4))
                .map(|w| w * WARP)
                .collect();
            if cuts.is_empty() {
                cuts.push(WARP);
            }
            cuts.push(whole.len());
            let mut start = 0;
            let mut pieces = 0;
            for end in cuts {
                pieces += lookup(&index, &dev, &whole[start..end]).sectors;
                start = end;
            }
            assert_eq!(
                pieces,
                lookup(&index, &dev, &whole).sectors,
                "{} key_len {key_len}",
                dev.name
            );
        }
    }
}

/// (c) The same batch twice through one session: the second launch finds
/// the first one's lines in the L2.
#[test]
fn a_warm_l2_never_issues_more_dram_transactions_than_a_cold_one() {
    let mut rng = StdRng::seed_from_u64(0xc);
    for (case, key_len) in [8, 16, 32].into_iter().enumerate() {
        let (index, keys) = index(1_024, key_len, 20 + case as u64);
        for dev in devices_under_test() {
            let len = WARP * rng.gen_range(4..16usize);
            let keys = batch(&mut rng, &keys, len);
            let mut session = index.device_session(&dev);
            let cold = session.lookup_batch(&keys).unwrap().1;
            let warm = session.lookup_batch(&keys).unwrap().1;
            assert!(
                warm.dram_transactions <= cold.dram_transactions,
                "{} key_len {key_len}: warm {} > cold {}",
                dev.name,
                warm.dram_transactions,
                cold.dram_transactions
            );
            // A 1 Ki-key tree fits every stock L2: the rerun must hit.
            if dev.l2.size_bytes >= 1 << 20 {
                assert!(
                    warm.dram_transactions < cold.dram_transactions,
                    "{} key_len {key_len}: the L2 served nothing on a rerun ({})",
                    dev.name,
                    warm.dram_transactions
                );
            }
        }
    }
}

/// (g) Sorting a lookup batch never costs sectors, and on random arrival
/// orders it saves some.
#[test]
fn sorted_order_never_issues_more_sectors_than_arrival_order() {
    let mut rng = StdRng::seed_from_u64(0x9);
    let (mut sorted_total, mut arrival_total) = (0u64, 0u64);
    for (case, key_len) in [8, 16, 32].into_iter().enumerate() {
        let (index, keys) = index(1_024, key_len, 30 + case as u64);
        for dev in devices_under_test() {
            let len = WARP * rng.gen_range(2..12usize);
            let arrival = batch(&mut rng, &keys, len);
            let sorted = gather(&arrival, &sort_permutation(&arrival));
            let (a, s) = (
                lookup(&index, &dev, &arrival).sectors,
                lookup(&index, &dev, &sorted).sectors,
            );
            assert!(
                s <= a,
                "{} key_len {key_len}: sorted {s} > arrival {a}",
                dev.name
            );
            sorted_total += s;
            arrival_total += a;
        }
    }
    assert!(
        sorted_total < arrival_total,
        "sorting saved no sectors: {sorted_total} vs {arrival_total}"
    );
}

/// A set-associative LRU cache kept the textbook way: a use stamp per way,
/// invalid ways (stamp 0) filled first, the smallest stamp evicted.
struct StampLru {
    line_bytes: u64,
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
}

impl StampLru {
    /// The geometry `Cache::new` derives from the same config.
    fn new(cfg: &CacheConfig) -> StampLru {
        let lines = (cfg.size_bytes / cfg.line_bytes).max(1);
        let ways = cfg.ways.min(lines).max(1);
        let sets = (lines / ways).max(1);
        StampLru {
            line_bytes: cfg.line_bytes as u64,
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / self.line_bytes;
        let base = (line % self.sets as u64) as usize * self.ways;
        let set = base..base + self.ways;
        if let Some(way) = set.clone().find(|&i| self.tags[i] == line) {
            self.stamps[way] = self.clock;
            return true;
        }
        let victim = set.min_by_key(|&i| self.stamps[i]).unwrap();
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }
}

#[test]
fn the_l2_replaces_exactly_like_a_stamp_lru() {
    let mut rng = StdRng::seed_from_u64(0x12);
    // (size, ways): 8 lines in 4 × 2, 1-way (direct-mapped), fully
    // associative, ways beyond the line count, one line, a ragged split.
    let shapes = [
        (1024, 2),
        (1024, 1),
        (2048, 16),
        (512, 64),
        (128, 4),
        (1280, 4),
    ];
    for (size_bytes, ways) in shapes {
        let cfg = CacheConfig {
            size_bytes,
            line_bytes: 128,
            ways,
            hit_latency_ns: 10.0,
        };
        for pool in [3u64, 9, 40, 400] {
            let (mut l2, mut reference) = (Cache::new(&cfg), StampLru::new(&cfg));
            // Lines drawn from a small pool collide in few sets; a pool
            // multiple of the set count piles every line into one set.
            let stride = if pool == 9 { reference.sets as u64 } else { 1 };
            let (mut hits, mut misses) = (0u64, 0u64);
            for i in 0..4_000 {
                let line = rng.gen_range(0..pool) * stride;
                let addr = line * 128 + rng.gen_range(0..128u64);
                let want = reference.access(addr);
                assert_eq!(
                    l2.access(addr),
                    want,
                    "access {i} of line {line}, {size_bytes} B / {ways} ways, pool {pool}"
                );
                if want {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            assert_eq!((l2.hits(), l2.misses()), (hits, misses));
        }
    }
}
