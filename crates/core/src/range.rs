//! Range queries as leaf-buffer index spans (§3.2.1).
//!
//! Leaves are emitted in lexicographic key order within each leaf class, so
//! "transferring range queries from the accelerator to the host is trivial
//! because it is only required to transmit both the start and the end index
//! within the leaf arrays". A range query therefore returns one
//! [`LeafSpan`] per class (plus any matches from the host-side tables);
//! materialisation walks the spans and skips leaves deleted since the map.

use crate::buffers::CuartBuffers;
use crate::layout::{leaf, stride};
use crate::link::LinkType;

/// A contiguous index range `[start, end)` within one leaf class arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafSpan {
    /// The leaf class.
    pub class: LinkType,
    /// First leaf index in range.
    pub start: u64,
    /// One past the last leaf index in range.
    pub end: u64,
}

impl LeafSpan {
    /// Number of leaves covered (including deleted holes).
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` if the span covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// The stored key of leaf `i` in `class`, or `None` if the slot was
/// deleted/cleared.
fn leaf_key(b: &CuartBuffers, class: LinkType, i: u64) -> Option<&[u8]> {
    let rec = b.record(class, i);
    if rec[leaf::live_at(class)] == 0 {
        return None;
    }
    let len = rec[leaf::len_at(class)] as usize;
    Some(&rec[..len])
}

/// The value of leaf `i`.
#[expect(
    clippy::expect_used,
    reason = "the slice is cut to the exact field width, so the conversion cannot fail"
)]
fn leaf_value(b: &CuartBuffers, class: LinkType, i: u64) -> u64 {
    let rec = b.record(class, i);
    let at = leaf::value_at(class);
    u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"))
}

/// First index whose key is `>= bound`, skipping deleted holes. The arenas
/// are sorted at map time; deleted slots are treated as "equal to their
/// nearest live successor" during the search.
fn partition(b: &CuartBuffers, class: LinkType, bound: &[u8], include_equal: bool) -> u64 {
    let n = b.record_count(class) as u64;
    let mut lo = 0u64;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        // Probe the nearest live leaf at or after mid.
        let mut probe = mid;
        let key = loop {
            if probe >= hi {
                break None;
            }
            match leaf_key(b, class, probe) {
                Some(k) => break Some(k),
                None => probe += 1,
            }
        };
        let goes_right = match key {
            Some(k) => {
                if include_equal {
                    k < bound
                } else {
                    k <= bound
                }
            }
            None => false, // all dead up to hi: shrink right side
        };
        if goes_right {
            lo = probe + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Compute one [`LeafSpan`] per leaf class for the **inclusive key
/// interval** `[lo, hi]`.
///
/// Contract (one sentence, both halves): the *key* interval is closed on
/// both ends — a stored key equal to `lo` or `hi` is in range — while the
/// returned *index* span is half-open `[start, end)`, per [`LeafSpan`].
/// Degenerate inputs follow from the same rule: `lo == hi` selects exactly
/// the leaves storing that key (a span of length 0 or 1 per class);
/// `lo > hi` yields empty spans; bounds absent from the tree snap to the
/// nearest stored neighbors; a class with no leaves yields `0..0`.
pub fn range_spans(b: &CuartBuffers, lo: &[u8], hi: &[u8]) -> Vec<LeafSpan> {
    [LinkType::Leaf8, LinkType::Leaf16, LinkType::Leaf32]
        .into_iter()
        .map(|class| LeafSpan {
            class,
            start: partition(b, class, lo, true),
            end: partition(b, class, hi, false),
        })
        .collect()
}

/// Materialise a span into `(key, value)` pairs, skipping deleted holes.
pub fn materialize_span(b: &CuartBuffers, span: &LeafSpan) -> Vec<(Vec<u8>, u64)> {
    (span.start..span.end)
        .filter_map(|i| {
            leaf_key(b, span.class, i).map(|k| (k.to_vec(), leaf_value(b, span.class, i)))
        })
        .collect()
}

/// Full range query over the **inclusive key interval** `[lo, hi]`:
/// ordered leaf-arena spans, the (unordered, scanned) dynamic leaves and
/// the host-side tables, merged in lexicographic order. Matches
/// `Art::range` on the same data.
pub fn range_query(b: &CuartBuffers, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, u64)> {
    let mut out: Vec<(Vec<u8>, u64)> = Vec::new();
    for span in range_spans(b, lo, hi) {
        out.extend(materialize_span(b, &span));
    }
    // Dynamic leaves are not index-ordered; scan them.
    let mut off = 0usize;
    while off + 2 <= b.dyn_leaves.len() {
        #[expect(
            clippy::expect_used,
            reason = "the slice is cut to the exact field width, so the conversion cannot fail"
        )]
        let len =
            u16::from_le_bytes(b.dyn_leaves[off..off + 2].try_into().expect("2 bytes")) as usize;
        if len == 0 {
            break;
        }
        let key = &b.dyn_leaves[off + 2..off + 2 + len];
        #[expect(
            clippy::expect_used,
            reason = "the slice is cut to the exact field width, so the conversion cannot fail"
        )]
        let value = u64::from_le_bytes(
            b.dyn_leaves[off + 2 + len..off + 2 + len + 8]
                .try_into()
                .expect("8 bytes"),
        );
        if key >= lo && key <= hi {
            out.push((key.to_vec(), value));
        }
        off = (off + 2 + len + 8).next_multiple_of(8);
    }
    for table in [&b.short_keys, &b.host_leaves] {
        for (k, v) in table {
            if k.as_slice() >= lo && k.as_slice() <= hi {
                out.push((k.clone(), *v));
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::CuartConfig;
    use crate::mapper::map_art;
    use cuart_art::Art;

    fn build(keys: &[Vec<u8>]) -> (Art<u64>, CuartBuffers) {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        let b = map_art(&art, &CuartConfig::for_tests());
        (art, b)
    }

    #[test]
    fn span_matches_art_range_fixed_len() {
        let keys: Vec<Vec<u8>> = (0..500u64)
            .map(|i| (i * 3).to_be_bytes().to_vec())
            .collect();
        let (art, b) = build(&keys);
        let lo = 100u64.to_be_bytes();
        let hi = 700u64.to_be_bytes();
        let got = range_query(&b, &lo, &hi);
        let want: Vec<(Vec<u8>, u64)> = art.range(&lo, &hi).map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn span_is_contiguous_indices() {
        let keys: Vec<Vec<u8>> = (0..100u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let (_, b) = build(&keys);
        let spans = range_spans(&b, &10u64.to_be_bytes(), &20u64.to_be_bytes());
        let leaf8 = spans.iter().find(|s| s.class == LinkType::Leaf8).unwrap();
        // §3.2.1: the result is literally (start, end) indices.
        assert_eq!(leaf8.start, 10);
        assert_eq!(leaf8.end, 21);
        assert_eq!(leaf8.len(), 11);
    }

    #[test]
    fn empty_range() {
        let keys: Vec<Vec<u8>> = (0..50u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let (_, b) = build(&keys);
        let spans = range_spans(&b, &100u64.to_be_bytes(), &200u64.to_be_bytes());
        assert!(spans.iter().all(|s| s.is_empty()));
        assert!(range_query(&b, &100u64.to_be_bytes(), &200u64.to_be_bytes()).is_empty());
    }

    #[test]
    fn mixed_leaf_classes_merge_sorted() {
        // Keys of different lengths land in different arenas but must merge
        // into one ordered result.
        let keys = vec![
            vec![1u8, 0, 0, 0],                   // leaf8
            vec![1u8, 0, 0, 2, 0, 0, 0, 0, 0, 1], // leaf16
            vec![2u8; 20],                        // leaf32
            vec![3u8, 3, 3],                      // leaf8
        ];
        let (art, b) = build(&keys);
        let lo = vec![0u8];
        let hi = vec![0xFFu8; 32];
        let got = range_query(&b, &lo, &hi);
        let want: Vec<(Vec<u8>, u64)> = art.range(&lo, &hi).map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn materialize_skips_deleted_holes() {
        let keys: Vec<Vec<u8>> = (0..20u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let (_, mut b) = build(&keys);
        // Manually clear leaf 5 (simulating a device-side delete).
        let rec = b.record_mut(LinkType::Leaf8, 5);
        rec.fill(0);
        let span = LeafSpan {
            class: LinkType::Leaf8,
            start: 0,
            end: 20,
        };
        let got = materialize_span(&b, &span);
        assert_eq!(got.len(), 19);
        assert!(got.iter().all(|(k, _)| k != &5u64.to_be_bytes().to_vec()));
        // Range search still works around the hole.
        let q = range_query(&b, &4u64.to_be_bytes(), &6u64.to_be_bytes());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn point_interval_lo_equals_hi() {
        // `lo == hi` under the inclusive-key contract selects exactly that
        // key: a one-element index span when stored, empty when absent.
        let keys: Vec<Vec<u8>> = (0..100u64)
            .map(|i| (i * 2).to_be_bytes().to_vec())
            .collect();
        let (_, b) = build(&keys);
        let stored = 40u64.to_be_bytes();
        let spans = range_spans(&b, &stored, &stored);
        let total: u64 = spans.iter().map(|s| s.len()).sum();
        assert_eq!(total, 1, "stored point interval covers exactly one leaf");
        let rows = range_query(&b, &stored, &stored);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, stored.to_vec());
        // An absent key (odd — only evens stored) yields nothing.
        let absent = 41u64.to_be_bytes();
        let spans = range_spans(&b, &absent, &absent);
        assert!(spans.iter().all(|s| s.is_empty()));
        assert!(range_query(&b, &absent, &absent).is_empty());
    }

    #[test]
    fn bounds_absent_from_tree_snap_to_neighbors() {
        // lo/hi not stored: the span still covers every stored key inside
        // the inclusive interval, exactly like Art::range.
        let keys: Vec<Vec<u8>> = (0..200u64)
            .map(|i| (i * 10).to_be_bytes().to_vec())
            .collect();
        let (art, b) = build(&keys);
        // 95 and 1234 are not multiples of 10.
        let lo = 95u64.to_be_bytes();
        let hi = 1234u64.to_be_bytes();
        let got = range_query(&b, &lo, &hi);
        let want: Vec<(Vec<u8>, u64)> = art.range(&lo, &hi).map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, want);
        assert_eq!(got.first().unwrap().0, 100u64.to_be_bytes().to_vec());
        assert_eq!(got.last().unwrap().0, 1230u64.to_be_bytes().to_vec());
    }

    #[test]
    fn empty_leaf_class_yields_zero_span() {
        // All keys are 8-byte: leaf16/leaf32 arenas are empty and must
        // report the 0..0 span, not panic or fabricate indices.
        let keys: Vec<Vec<u8>> = (0..30u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let (_, b) = build(&keys);
        let spans = range_spans(&b, &0u64.to_be_bytes(), &29u64.to_be_bytes());
        for span in &spans {
            if span.class != LinkType::Leaf8 {
                assert_eq!((span.start, span.end), (0, 0), "class {:?}", span.class);
                assert!(span.is_empty());
            }
        }
    }

    #[test]
    fn inverted_interval_is_empty() {
        let keys: Vec<Vec<u8>> = (0..50u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let (_, b) = build(&keys);
        let spans = range_spans(&b, &40u64.to_be_bytes(), &10u64.to_be_bytes());
        assert!(spans.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn host_and_dynamic_leaves_included() {
        let mut art = Art::new();
        art.insert(b"ab", 1).unwrap(); // host (short)
        art.insert(&[0x61u8; 40], 2).unwrap(); // host (long, CpuRoute)
        art.insert(b"axcdef", 3).unwrap(); // device
        let b = map_art(
            &art,
            &CuartConfig {
                lut_span: 3,
                ..CuartConfig::for_tests()
            },
        );
        let got = range_query(&b, b"a", b"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz");
        assert_eq!(got.len(), 3);
        let want: Vec<(Vec<u8>, u64)> = art
            .range(b"a", b"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz")
            .map(|(k, &v)| (k, v))
            .collect();
        assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// Device-side range spans (§3.2.1 on the GPU)
// ---------------------------------------------------------------------------

use crate::kernels::DeviceTree;
use cuart_gpu_sim::{BufferId, Independent, Kernel, ThreadCtx};

/// Query record layout for the range kernel: `[lo_len u8][lo 32B][hi_len
/// u8][hi 32B]`, padded to 72 bytes.
pub const RANGE_RECORD_BYTES: usize = 72;
/// Result layout: 3 leaf classes × (start u64, end u64) = 48 bytes/query.
pub const RANGE_RESULT_BYTES: usize = 48;

/// One inclusive range query per thread: binary searches each ordered leaf
/// arena and writes the `[start, end)` index pair per class — exactly the
/// two indices §3.2.1 says a range result consists of.
///
/// Operates on the *mapped snapshot*: arenas are sorted at map time, so
/// this kernel must not be used after device-side structural inserts have
/// recycled slots (use the host-side [`range_query`] then).
#[derive(Clone)]
pub struct RangeSpanKernel {
    /// Device tree handles.
    pub tree: DeviceTree,
    /// Packed range records.
    pub queries: BufferId,
    /// `RANGE_RESULT_BYTES` per query.
    pub results: BufferId,
    /// Number of queries.
    pub count: usize,
    /// Mapped record counts per class (leaf8, leaf16, leaf32): the sorted
    /// prefix of each arena.
    pub mapped: [u64; 3],
}

/// Write one [`RANGE_RECORD_BYTES`] query record per range into `out`, in
/// full (a reused buffer keeps nothing of its previous batch). Bounds
/// longer than the 32-byte field are clamped to it.
pub(crate) fn pack_range_records(out: &mut [u8], ranges: &[(Vec<u8>, Vec<u8>)]) {
    for (record, (lo, hi)) in out.chunks_exact_mut(RANGE_RECORD_BYTES).zip(ranges) {
        record.fill(0);
        for (at, bound) in [(0, lo), (33, hi)] {
            let n = bound.len().min(32);
            record[at] = n as u8;
            record[at + 1..at + 1 + n].copy_from_slice(&bound[..n]);
        }
    }
}

const CLASSES: [LinkType; 3] = [LinkType::Leaf8, LinkType::Leaf16, LinkType::Leaf32];

impl Kernel for RangeSpanKernel {
    fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
        if tid >= self.count {
            return;
        }
        let rec = ctx.read_bytes(self.queries, tid * RANGE_RECORD_BYTES, RANGE_RECORD_BYTES);
        let lo = &rec[1..1 + rec[0] as usize];
        let hi = &rec[34..34 + rec[33] as usize];
        for (ci, class) in CLASSES.into_iter().enumerate() {
            let n = self.mapped[ci];
            let start = self.partition_dev(class, n, lo, true, ctx);
            let end = self.partition_dev(class, n, hi, false, ctx);
            let at = tid * RANGE_RESULT_BYTES + ci * 16;
            ctx.write_u64(self.results, at, start);
            ctx.write_u64(self.results, at + 8, end);
        }
    }

    /// A thread reads its range record and the leaf arenas, and writes its
    /// own result slots: independent.
    fn independent(&self) -> Option<Independent<'_>> {
        Some(Independent::new(self, self.results))
    }
}

impl RangeSpanKernel {
    /// Device-side twin of [`partition`]: first index whose key is
    /// `>= bound` (or `> bound`), skipping deleted holes. Each probe is one
    /// dependent leaf read — a log₂(n) chain, far shorter than scanning.
    fn partition_dev(
        &self,
        class: LinkType,
        n: u64,
        bound: &[u8],
        include_equal: bool,
        ctx: &mut ThreadCtx<'_>,
    ) -> u64 {
        let arena = self.tree.dev_arena(class);
        let mut lo = 0u64;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let mut probe = mid;
            // The first live record at or after `mid` decides; a run of
            // deleted holes up to `hi` sends the search left.
            let goes_right = loop {
                if probe >= hi {
                    break false;
                }
                let base = probe as usize * stride(class);
                let rec = ctx.read_bytes(arena, base, leaf::read_bytes(class));
                if rec[leaf::live_at(class)] == 0 {
                    probe += 1;
                    continue;
                }
                let key = &rec[..rec[leaf::len_at(class)] as usize];
                break if include_equal {
                    key < bound
                } else {
                    key <= bound
                };
            };
            ctx.compute(8);
            if goes_right {
                lo = probe + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod device_tests {
    use super::*;
    use crate::buffers::CuartConfig;
    use crate::CuartIndex;
    use cuart_art::Art;
    use cuart_gpu_sim::{devices, DeviceConfig, DeviceMemory, KernelReport};

    /// Run `ranges` through [`RangeSpanKernel`] on a fresh upload of `idx`,
    /// one thread per range, and read back each range's per-class
    /// `[start, end)` pairs: the output a session's range leg computes.
    fn device_spans(
        idx: &CuartIndex,
        dev: &DeviceConfig,
        ranges: &[(Vec<u8>, Vec<u8>)],
    ) -> (Vec<Vec<LeafSpan>>, KernelReport) {
        let mut mem = DeviceMemory::new();
        let tree = idx.upload(&mut mem, 0);
        let mut data = vec![0u8; ranges.len() * RANGE_RECORD_BYTES];
        pack_range_records(&mut data, ranges);
        let queries = mem.alloc_from("range-queries", &data, 32);
        let results = mem.alloc("range-results", ranges.len() * RANGE_RESULT_BYTES, 32);
        let kernel = RangeSpanKernel {
            tree,
            queries,
            results,
            count: ranges.len(),
            mapped: CLASSES.map(|class| idx.buffers().record_count(class) as u64),
        };
        let report = cuart_gpu_sim::launch(dev, &mut mem, &kernel, ranges.len());
        let spans = (0..ranges.len())
            .map(|i| {
                CLASSES
                    .into_iter()
                    .enumerate()
                    .map(|(ci, class)| {
                        let at = i * RANGE_RESULT_BYTES + ci * 16;
                        LeafSpan {
                            class,
                            start: mem.read_u64(results, at),
                            end: mem.read_u64(results, at + 8),
                        }
                    })
                    .collect()
            })
            .collect();
        (spans, report)
    }

    fn index(keys: &[Vec<u8>]) -> (Art<u64>, CuartIndex) {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        let idx = CuartIndex::build(&art, &CuartConfig::for_tests());
        (art, idx)
    }

    #[test]
    fn device_spans_match_host_spans() {
        let keys: Vec<Vec<u8>> = (0..2000u64)
            .map(|i| (i * 5).to_be_bytes().to_vec())
            .collect();
        let (_, idx) = index(&keys);
        let ranges: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (100u64.to_be_bytes().to_vec(), 900u64.to_be_bytes().to_vec()),
            (
                0u64.to_be_bytes().to_vec(),
                10_000u64.to_be_bytes().to_vec(),
            ),
            (
                9_999u64.to_be_bytes().to_vec(),
                9_999u64.to_be_bytes().to_vec(),
            ),
        ];
        let (device, report) = device_spans(&idx, &devices::a100(), &ranges);
        for ((lo, hi), dev_spans) in ranges.iter().zip(&device) {
            let host = range_spans(idx.buffers(), lo, hi);
            assert_eq!(dev_spans, &host, "range {lo:x?}..{hi:x?}");
        }
        // Binary search: the chain must be logarithmic, not linear.
        assert!(
            report.max_chain_steps < 150,
            "chain {} should be ~6·log2(2000)",
            report.max_chain_steps
        );
    }

    #[test]
    fn device_spans_across_leaf_classes() {
        let keys = vec![
            vec![1u8, 1, 1, 1],
            vec![2u8; 12],
            vec![3u8; 24],
            vec![4u8, 4, 4, 4],
        ];
        let (art, idx) = index(&keys);
        let lo = vec![0u8];
        let hi = vec![0xFFu8; 30];
        let (device, _) = device_spans(&idx, &devices::gtx1070(), &[(lo.clone(), hi.clone())]);
        let total: u64 = device[0].iter().map(|s| s.len()).sum();
        assert_eq!(total as usize, art.len());
        // Materialising the device spans gives the same rows as the host.
        let host_rows = range_query(idx.buffers(), &lo, &hi);
        let dev_rows: Vec<(Vec<u8>, u64)> = {
            let mut rows: Vec<(Vec<u8>, u64)> = device[0]
                .iter()
                .flat_map(|s| materialize_span(idx.buffers(), s))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(dev_rows, host_rows);
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let keys: Vec<Vec<u8>> = (0..100u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let (_, idx) = index(&keys);
        let (device, _) = device_spans(
            &idx,
            &devices::rtx3090(),
            &[
                (
                    5_000u64.to_be_bytes().to_vec(),
                    6_000u64.to_be_bytes().to_vec(),
                ),
                (50u64.to_be_bytes().to_vec(), 10u64.to_be_bytes().to_vec()),
            ],
        );
        assert!(device[0].iter().all(|s| s.is_empty()));
        assert!(device[1].iter().all(|s| s.is_empty() || s.start >= s.end));
    }
}
