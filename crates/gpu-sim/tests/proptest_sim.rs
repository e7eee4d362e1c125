//! Property tests of the simulator's invariants: coalescing algebra,
//! cache bounds, DRAM accounting, pipeline monotonicity.

use cuart_gpu_sim::cache::Cache;
use cuart_gpu_sim::coalesce::{sectors, sectors_of_access, SECTOR_BYTES};
use cuart_gpu_sim::config::CacheConfig;
use cuart_gpu_sim::devices;
use cuart_gpu_sim::dram::DramModel;
use cuart_gpu_sim::pipeline::{simulate, PipelineParams};
use cuart_gpu_sim::DeviceMemory;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Record strides the CuART arenas are uploaded with (`cuart::layout`),
/// the LUT's 8, and 0 for variable-size records.
const STRIDES: [usize; 10] = [8, 24, 32, 48, 64, 160, 656, 2064, 524_304, 0];

proptest! {
    // Cheap cases: many of them.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn an_uploaded_buffer_reads_like_a_private_copy(
        pick in 0usize..STRIDES.len(),
        records in 0usize..48,
        headroom in 0usize..24,
        ops in prop::collection::vec((0u8..7, any::<u64>(), 1usize..80, any::<u64>()), 1..120),
    ) {
        let stride = STRIDES[pick];
        // At most ~48 KiB of image and of headroom, so a case stays cheap
        // whatever the stride, and one more record so it is never empty.
        let width = if stride == 0 { 24 } else { stride };
        let (records, headroom) = (records.min(49_152 / width), headroom.min(49_152 / width));
        let pristine: Vec<u8> = (0..records * width).map(|i| (i * 31 % 251) as u8).collect();
        let image = Arc::new(pristine.clone());
        let len = pristine.len() + (headroom + 1) * width;
        let mut mem = DeviceMemory::new();
        let id = mem.upload("image", &image, stride, len, 32);
        let mut model = pristine.clone();
        model.resize(len, 0);
        let mut written = BTreeSet::new();
        let chunk = |mem: &DeviceMemory, at: usize| mem.buffer(id).chunk_of(at);
        for &(kind, at, n, value) in &ops {
            let n = n.min(len);
            let off = (at % (len - n + 1) as u64) as usize;
            let word = (off + 8 <= len).then(|| u64::from_le_bytes(model[off..off + 8].try_into().unwrap()));
            // What the op stores, if anything.
            let store: Option<Vec<u8>> = match (kind, word) {
                (0, _) => {
                    let mut got = vec![0; n];
                    mem.read_into(id, off, &mut got);
                    prop_assert_eq!(&got[..], &model[off..off + n]);
                    None
                }
                (1, Some(old)) => {
                    prop_assert_eq!(mem.read_u64(id, off), old);
                    prop_assert_eq!(mem.read_u32(id, off), old as u32);
                    prop_assert_eq!(mem.read_u16(id, off), old as u16);
                    prop_assert_eq!(mem.read_u8(id, off), old as u8);
                    None
                }
                (2, Some(_)) => {
                    mem.write_u64(id, off, value);
                    Some(value.to_le_bytes().to_vec())
                }
                (3, _) => {
                    let bytes: Vec<u8> = (0..n).map(|i| (value >> (i % 8 * 8)) as u8).collect();
                    mem.write_bytes(id, off, &bytes);
                    Some(bytes)
                }
                (4, Some(old)) => {
                    let (got, new) = match value % 3 {
                        0 => {
                            let expected = if value & 8 == 0 { old } else { value };
                            let cas = mem.atomic_cas_u64(id, off, expected, value);
                            (cas, (old == expected).then_some(value))
                        }
                        1 => (mem.atomic_max_u64(id, off, value), (value > old).then_some(value)),
                        _ => (mem.atomic_add_u64(id, off, value), Some(old.wrapping_add(value))),
                    };
                    prop_assert_eq!(got, old);
                    new.map(|v| v.to_le_bytes().to_vec())
                }
                (5, _) => {
                    mem.bytes_mut(id, off, n).fill(value as u8);
                    Some(vec![value as u8; n])
                }
                _ => {
                    // A whole record is one borrowed slice, written or not
                    // (unwritten headroom records up to a page wide: the
                    // leaf classes are the ones uploaded with headroom).
                    // Variable-size records may sit anywhere in the image.
                    let (start, end) = match stride {
                        0 => (0, pristine.len().max(1)),
                        _ => (off / stride * stride, off / stride * stride + stride),
                    };
                    if end <= pristine.len() || (end <= len && stride <= 4096) {
                        let got = mem.get(id, start, end - start);
                        prop_assert!(got.is_some(), "record {}..{} split", start, end);
                        prop_assert_eq!(got.unwrap(), &model[start..end]);
                    }
                    None
                }
            };
            if let Some(bytes) = store {
                model[off..off + bytes.len()].copy_from_slice(&bytes);
                written.extend(chunk(&mem, off)..=chunk(&mem, off + bytes.len() - 1));
            }
        }
        let mut whole = vec![0; len];
        mem.read_into(id, 0, &mut whole);
        prop_assert_eq!(&whole, &model);
        prop_assert_eq!(&image[..], &pristine[..], "the device wrote through to its image");
        // An image byte is owned once its chunk is written, shared until.
        let owned = |at: &usize| written.contains(&chunk(&mem, *at));
        let image_chunks = pristine.len().checked_sub(1).map_or(0, |last| chunk(&mem, last) + 1);
        let copied = written.iter().filter(|&&c| c < image_chunks).count();
        prop_assert_eq!(mem.buffer(id).copied_chunks(), copied);
        prop_assert_eq!(mem.owned_bytes(), (0..pristine.len()).filter(owned).count());
        prop_assert_eq!(mem.shared_bytes(), (0..pristine.len()).filter(|at| !owned(at)).count());
    }

    #[test]
    fn no_record_straddles_a_chunk(pick in 0usize..STRIDES.len() - 1, first in 0usize..1 << 20) {
        // A 1 GiB upload costs its bit map only.
        let stride = STRIDES[pick];
        let mut mem = DeviceMemory::new();
        let id = mem.upload("huge", &Arc::new(Vec::new()), stride, 1 << 30, 32);
        let buf = mem.buffer(id);
        for record in (first..first + 64).filter(|r| (r + 1) * stride <= 1 << 30) {
            let at = record * stride;
            prop_assert_eq!(buf.chunk_of(at), buf.chunk_of(at + stride - 1), "stride {} record {}", stride, record);
        }
    }
}

proptest! {
    #[test]
    fn sector_count_bounds(accesses in prop::collection::vec((0u64..1_000_000, 1u32..256), 1..64)) {
        let secs = sectors(accesses.iter().copied());
        // At least 1, at most the sum of per-access spans.
        let upper: u64 = accesses.iter().map(|&(a, l)| sectors_of_access(a, l)).sum();
        prop_assert!(!secs.is_empty());
        prop_assert!(secs.len() as u64 <= upper);
        // Sorted and unique.
        prop_assert!(secs.windows(2).all(|w| w[0] < w[1]));
        // Every access's bytes are covered by the sector set.
        for &(addr, len) in &accesses {
            for b in [addr, addr + len as u64 - 1] {
                prop_assert!(secs.contains(&(b / SECTOR_BYTES)));
            }
        }
    }

    #[test]
    fn single_access_span_formula(addr in 0u64..10_000_000, len in 1u32..4096) {
        let n = sectors_of_access(addr, len);
        // Between ceil(len/32) and ceil(len/32)+1 sectors.
        let min = (len as u64).div_ceil(SECTOR_BYTES);
        prop_assert!(n >= min && n <= min + 1, "addr {addr} len {len} -> {n}");
    }

    #[test]
    fn cache_hits_never_exceed_accesses(addrs in prop::collection::vec(0u64..100_000, 1..500)) {
        let mut cache = Cache::new(&CacheConfig {
            size_bytes: 4096,
            line_bytes: 128,
            ways: 4,
            hit_latency_ns: 1.0,
        });
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        prop_assert!(cache.hit_rate() <= 1.0);
        // Distinct lines lower-bound the misses (each needs one cold miss).
        let mut lines: Vec<u64> = addrs.iter().map(|a| a / 128).collect();
        lines.sort_unstable();
        lines.dedup();
        prop_assert!(cache.misses() >= lines.len() as u64);
    }

    #[test]
    fn dram_busy_is_sum_of_service_times(
        txs in prop::collection::vec((0u64..1_000_000, 32usize..129), 1..200)
    ) {
        let mut dram = DramModel::new(devices::a100().mem);
        let mut total = 0.0f64;
        for &(addr, bytes) in &txs {
            total += dram.issue(addr, bytes);
        }
        prop_assert_eq!(dram.transactions(), txs.len() as u64);
        // Max channel busy <= total service <= channels * max busy.
        prop_assert!(dram.max_channel_busy_ns() <= total + 1e-9);
        prop_assert!(total <= dram.max_channel_busy_ns() * 40.0 + 1e-9);
        prop_assert!(dram.imbalance() >= 1.0 - 1e-9);
    }

    #[test]
    fn pipeline_makespan_monotone_in_work(
        batches in 1usize..40,
        kernel_us in 1.0f64..500.0,
    ) {
        let base = PipelineParams {
            batches,
            items_per_batch: 1024,
            host_threads: 4,
            streams: 4,
            host_prepare_ns: 5_000.0,
            host_post_ns: 5_000.0,
            h2d_ns: 20_000.0,
            kernel_ns: kernel_us * 1000.0,
            d2h_ns: 10_000.0,
            launch_overhead_ns: 5_000.0,
        };
        let r1 = simulate(&base);
        // More batches cannot shrink the makespan.
        let r2 = simulate(&PipelineParams { batches: batches + 1, ..base });
        prop_assert!(r2.makespan_ns >= r1.makespan_ns);
        // A slower kernel cannot raise throughput.
        let r3 = simulate(&PipelineParams { kernel_ns: base.kernel_ns * 2.0, ..base });
        prop_assert!(r3.mops <= r1.mops + 1e-9);
        // Makespan is at least the best possible serial floor of any stage.
        let floor = base.batches as f64 * base.kernel_ns;
        prop_assert!(r1.makespan_ns >= floor.min(r1.makespan_ns));
    }

    #[test]
    fn pipeline_threads_never_hurt(threads in 1usize..16) {
        let mk = |t: usize| {
            simulate(&PipelineParams {
                batches: 32,
                items_per_batch: 4096,
                host_threads: t,
                streams: 4,
                host_prepare_ns: 100_000.0,
                host_post_ns: 100_000.0,
                h2d_ns: 10_000.0,
                kernel_ns: 50_000.0,
                d2h_ns: 5_000.0,
                launch_overhead_ns: 5_000.0,
            })
            .mops
        };
        prop_assert!(mk(threads + 1) >= mk(threads) * 0.999);
    }
}
