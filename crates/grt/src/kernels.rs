//! The GRT GPU lookup kernel.
//!
//! The traversal issues, per inner node, a **dependent header read** (the
//! node type is inside the node, §3.1) followed by one or more dependent
//! body reads whose size was only known after the header arrived. Nothing
//! is aligned, so reads regularly straddle 32-byte sectors. Key comparison
//! is byte-oriented with early exit (§4.4).
//!
//! The packed-buffer traversal indexes with plain brackets, mirroring the
//! GRT layout contract: offsets come from in-buffer tags the mapper
//! validated, and the kernel is modeled per access, so checked indexing
//! would distort the cycle counts.

use crate::layout::{self, tag, EMPTY48, HEADER_BYTES, PREFIX_CAP};
use cuart_gpu_sim::batch::{record_key, KeyBatchLayout, NOT_FOUND};
use cuart_gpu_sim::{BufferId, Independent, Kernel, ThreadCtx};

/// Cycles for the branchy per-node bookkeeping (≈ the 20 cycles/node §3.1
/// quotes).
const NODE_OVERHEAD_CYCLES: u32 = 14;
/// Cycles per byte in GRT's byte-oriented compare loop.
const BYTE_CMP_CYCLES: u32 = 3;

/// One lookup per thread over a packed GRT buffer.
#[derive(Clone)]
pub struct GrtLookupKernel {
    /// The packed tree.
    pub tree: BufferId,
    /// Root node offset.
    pub root: u64,
    /// Packed query keys.
    pub queries: BufferId,
    /// Layout of the query records.
    pub layout: KeyBatchLayout,
    /// One u64 result slot per query.
    pub results: BufferId,
    /// Number of queries; excess threads idle.
    pub count: usize,
}

impl Kernel for GrtLookupKernel {
    fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
        if tid >= self.count {
            return;
        }
        // Load the query record (coalesced across the warp).
        let rec_off = self.layout.offset(tid);
        let rec = ctx.read_bytes(self.queries, rec_off, self.layout.record_bytes());
        let value = self.traverse(record_key(&rec), ctx);
        ctx.write_u64(self.results, tid * 8, value);
    }

    /// A thread reads its staged key and the tree, and writes its own
    /// result slot: independent.
    fn independent(&self) -> Option<Independent<'_>> {
        Some(Independent::new(self, self.results))
    }
}

impl GrtLookupKernel {
    fn traverse(&self, key: &[u8], ctx: &mut ThreadCtx<'_>) -> u64 {
        if key.is_empty() || ctx.memory().buffer(self.tree).is_empty() {
            return NOT_FOUND;
        }
        let mut off = self.root as usize;
        let mut depth = 0usize;
        loop {
            // Dependent read #1: the header. Size of the node is unknown
            // until this arrives.
            let header = ctx.read_bytes(self.tree, off, HEADER_BYTES);
            let t = header[0];
            ctx.compute(NODE_OVERHEAD_CYCLES);
            if t == 0 {
                // Null node (empty tree upload slack).
                return NOT_FOUND;
            }
            if t == tag::LEAF {
                let len = u16::from_le_bytes([header[1], header[2]]) as usize;
                // Dependent read #2: the dynamically sized key + value.
                let body = ctx.read_bytes(self.tree, off + layout::LEAF_HEADER_BYTES, len + 8);
                let stored = &body[..len];
                // Byte compare with early exit.
                let agree = stored.iter().zip(key).take_while(|(a, b)| a == b).count();
                ctx.compute(BYTE_CMP_CYCLES * (agree.min(len) as u32 + 1));
                if stored == key {
                    #[expect(
                        clippy::expect_used,
                        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
                    )]
                    return u64::from_le_bytes(body[len..len + 8].try_into().expect("8 bytes"));
                }
                return NOT_FOUND;
            }
            // Inner node: byte-compare the stored prefix.
            let prefix_len = header[2] as usize;
            let stored = prefix_len.min(PREFIX_CAP);
            if key.len() < depth + prefix_len {
                return NOT_FOUND;
            }
            ctx.compute(BYTE_CMP_CYCLES * stored as u32);
            if header[3..3 + stored] != key[depth..depth + stored] {
                return NOT_FOUND;
            }
            depth += prefix_len;
            if depth >= key.len() {
                return NOT_FOUND;
            }
            let b = key[depth];
            // Dependent read #2..: the body, sized per the header's type.
            let next = match t {
                tag::N4 | tag::N16 => {
                    let body =
                        ctx.read_bytes(self.tree, off + HEADER_BYTES, layout::inner_body_bytes(t));
                    let cap = if t == tag::N4 { 4 } else { 16 };
                    let count = (header[1] as usize).min(cap);
                    ctx.compute(count as u32);
                    match body[..count].iter().position(|&k| k == b) {
                        #[expect(
                            clippy::expect_used,
                            reason = "the slice is cut to the exact field width, so the conversion cannot fail"
                        )]
                        Some(i) => {
                            let at = cap + i * 8;
                            u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"))
                        }
                        None => 0,
                    }
                }
                tag::N48 => {
                    // Dependent read: one child-index byte...
                    let slot = ctx.read_u8(self.tree, off + HEADER_BYTES + b as usize);
                    if slot == EMPTY48 {
                        0
                    } else {
                        // ...then (dependent again) the offset it selects.
                        ctx.read_u64(self.tree, off + layout::offsets_at(t) + slot as usize * 8)
                    }
                }
                tag::N256 => ctx.read_u64(self.tree, off + layout::offsets_at(t) + b as usize * 8),
                #[expect(
                    clippy::panic,
                    reason = "caller contract documented on the function: only validated classes reach here"
                )]
                _ => panic!("corrupt GRT buffer: tag {t} at offset {off}"),
            };
            if next == 0 {
                return NOT_FOUND;
            }
            off = next as usize;
            depth += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::map_art;
    use cuart_art::Art;
    use cuart_gpu_sim::batch::{alloc_results, pack_keys, read_results};
    use cuart_gpu_sim::{devices, launch, DeviceMemory};

    fn build(keys: &[Vec<u8>]) -> (Art<u64>, crate::layout::GrtBuffer) {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64 + 1).unwrap();
        }
        let buf = map_art(&art);
        (art, buf)
    }

    fn run_lookups(buf: &crate::layout::GrtBuffer, queries: &[Vec<u8>], stride: usize) -> Vec<u64> {
        let dev = devices::a100();
        let mut mem = DeviceMemory::new();
        let tree = mem.alloc_from("grt", &buf.padded_bytes(), 16);
        let (qbuf, layout) = pack_keys(&mut mem, "queries", queries, stride).unwrap();
        let results = alloc_results(&mut mem, "results", queries.len());
        let kernel = GrtLookupKernel {
            tree,
            root: buf.root,
            queries: qbuf,
            layout,
            results,
            count: queries.len(),
        };
        launch(&dev, &mut mem, &kernel, queries.len());
        read_results(&mem, results, queries.len())
    }

    #[test]
    fn kernel_finds_all_keys() {
        let keys: Vec<Vec<u8>> = (0..500u64)
            .map(|i| (i * 31).to_be_bytes().to_vec())
            .collect();
        let (_, buf) = build(&keys);
        let results = run_lookups(&buf, &keys, 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i as u64 + 1, "query {i}");
        }
    }

    #[test]
    fn kernel_misses_return_sentinel() {
        let keys: Vec<Vec<u8>> = (0..100u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let (_, buf) = build(&keys);
        let probes: Vec<Vec<u8>> = (1000..1010u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let results = run_lookups(&buf, &probes, 8);
        assert!(results.iter().all(|&r| r == NOT_FOUND));
    }

    #[test]
    fn kernel_agrees_with_cpu_reference() {
        let keys: Vec<Vec<u8>> = (0..2000u64)
            .map(|i| {
                let mut k = vec![0u8; 16];
                k[..8].copy_from_slice(&(i.wrapping_mul(0x9E3779B97F4A7C15)).to_be_bytes());
                k[8..].copy_from_slice(&i.to_be_bytes());
                k
            })
            .collect();
        let (_, buf) = build(&keys);
        let mut probes = keys.clone();
        probes.push(vec![9u8; 16]); // a miss
        let results = run_lookups(&buf, &probes, 16);
        for (probe, got) in probes.iter().zip(&results) {
            let want = crate::cpu::lookup(&buf, probe).unwrap_or(NOT_FOUND);
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn traversal_issues_two_plus_dependent_reads_per_node() {
        // A 3-level path: root N4 -> N4 -> leaves. Each lookup must issue
        // header+body per inner node plus record + leaf + result writes.
        let keys: Vec<Vec<u8>> = vec![b"aaaa".to_vec(), b"aabb".to_vec(), b"abcc".to_vec()];
        let (_, buf) = build(&keys);
        let dev = devices::a100();
        let mut mem = DeviceMemory::new();
        let tree = mem.alloc_from("grt", &buf.padded_bytes(), 16);
        let (qbuf, layout) = pack_keys(&mut mem, "q", &keys[..1], 8).unwrap();
        let results = alloc_results(&mut mem, "r", 1);
        let kernel = GrtLookupKernel {
            tree,
            root: buf.root,
            queries: qbuf,
            layout,
            results,
            count: 1,
        };
        let report = launch(&dev, &mut mem, &kernel, 1);
        // Steps: query read, (header, body) x 2 inner nodes, leaf header,
        // leaf body, result write = 8 dependent steps.
        assert_eq!(
            report.max_chain_steps, 8,
            "chain {}",
            report.max_chain_steps
        );
    }

    #[test]
    fn excess_threads_idle() {
        let keys = vec![b"k1".to_vec()];
        let (_, buf) = build(&keys);
        let dev = devices::gtx1070();
        let mut mem = DeviceMemory::new();
        let tree = mem.alloc_from("grt", &buf.padded_bytes(), 16);
        let (qbuf, layout) = pack_keys(&mut mem, "q", &keys, 8).unwrap();
        let results = alloc_results(&mut mem, "r", 1);
        let kernel = GrtLookupKernel {
            tree,
            root: buf.root,
            queries: qbuf,
            layout,
            results,
            count: 1,
        };
        // Launch a full warp; 31 threads must do nothing harmful.
        launch(&dev, &mut mem, &kernel, 32);
        assert_eq!(read_results(&mem, results, 1)[0], 1);
    }
}
