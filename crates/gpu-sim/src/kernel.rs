//! Kernels and the per-thread execution context.
//!
//! A [`Kernel`] is executed once per thread id, like a CUDA `__global__`
//! function over a one-dimensional grid (§3.4 of the paper uses exactly such
//! a grid for its update engine). All device-memory traffic flows through
//! [`ThreadCtx`], which performs the access *and* records it for the timing
//! model.
//!
//! [`PhasedKernel`] adds grid-wide synchronisation between phases — the
//! cooperative-groups `grid.sync()` the two-stage update engine needs
//! between publishing claims to the hash table and applying the winning
//! writes.
//!
//! Both traits carry a provided `warm` hook, which the launcher calls for a
//! chunk of thread ids just before it executes them. It is a *host-side*
//! speed-up only: a kernel uses it to load, for the whole chunk at once,
//! the host cache lines its threads are about to chase one by one. The
//! hook is handed `&DeviceMemory` and no [`ThreadCtx`], so it may read but
//! can neither write device memory nor record an access — nothing it does
//! can reach a [`KernelReport`](crate::exec::KernelReport).

use crate::memory::{BufferId, DeviceMemory};
use crate::trace::{Access, AccessKind, Dep, TraceArena};
use std::ops::Range;

/// Largest read [`DeviceBytes`] holds inline: a 255-byte key with its length
/// byte, or a 255-byte dynamic leaf with its value, rounded up to 8. Node
/// records (≤ 160 B) and leaf records fit with room to spare.
const INLINE_BYTES: usize = 264;

/// The bytes a [`ThreadCtx::read_bytes`] loaded — a thread's registers.
///
/// Owned (the kernel keeps using the context while it holds them) but
/// stored inline, so a read costs no heap allocation. Reads longer than
/// [`INLINE_BYTES`] (a query stride or stored key above 255 bytes) spill to
/// the heap. Dereferences to `[u8]`.
pub struct DeviceBytes(Repr);

#[allow(
    clippy::large_enum_variant,
    reason = "the large variant is the point: it is what keeps reads off the heap"
)]
enum Repr {
    Inline { len: usize, buf: [u8; INLINE_BYTES] },
    Spilled(Vec<u8>),
}

impl DeviceBytes {
    fn read(mem: &DeviceMemory, id: BufferId, offset: usize, len: usize) -> Self {
        DeviceBytes(if len <= INLINE_BYTES {
            let mut buf = [0u8; INLINE_BYTES];
            mem.read_into(id, offset, &mut buf[..len]);
            Repr::Inline { len, buf }
        } else {
            let mut bytes = vec![0; len];
            mem.read_into(id, offset, &mut bytes);
            Repr::Spilled(bytes)
        })
    }
}

impl std::ops::Deref for DeviceBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len],
            Repr::Spilled(bytes) => bytes,
        }
    }
}

/// Per-thread execution context: performs device-memory accesses and
/// records them, in the launch's [`TraceArena`], for the timing model.
pub struct ThreadCtx<'a> {
    mem: &'a mut DeviceMemory,
    trace: &'a mut TraceArena,
}

impl<'a> ThreadCtx<'a> {
    /// A context for the next thread of the phase `trace` is recording.
    pub(crate) fn new(mem: &'a mut DeviceMemory, trace: &'a mut TraceArena) -> Self {
        trace.begin_thread();
        ThreadCtx { mem, trace }
    }

    fn log(&mut self, id: BufferId, offset: usize, len: usize, kind: AccessKind, dep: Dep) {
        let addr = self.mem.address(id, offset);
        self.trace.record(
            Access {
                addr,
                len: len as u32,
                kind,
            },
            dep,
        );
    }

    /// Read raw bytes (dependent access — opens a new step).
    pub fn read_bytes(&mut self, id: BufferId, offset: usize, len: usize) -> DeviceBytes {
        self.read_bytes_dep(id, offset, len, Dep::Dependent)
    }

    /// Read raw bytes with an explicit dependency marker.
    pub fn read_bytes_dep(
        &mut self,
        id: BufferId,
        offset: usize,
        len: usize,
        dep: Dep,
    ) -> DeviceBytes {
        self.log(id, offset, len, AccessKind::Read, dep);
        DeviceBytes::read(self.mem, id, offset, len)
    }

    /// Read a u64 (dependent).
    pub fn read_u64(&mut self, id: BufferId, offset: usize) -> u64 {
        self.read_u64_dep(id, offset, Dep::Dependent)
    }

    /// Read a u64 with an explicit dependency marker.
    pub fn read_u64_dep(&mut self, id: BufferId, offset: usize, dep: Dep) -> u64 {
        self.log(id, offset, 8, AccessKind::Read, dep);
        self.mem.read_u64(id, offset)
    }

    /// Read a u32 (dependent).
    pub fn read_u32(&mut self, id: BufferId, offset: usize) -> u32 {
        self.log(id, offset, 4, AccessKind::Read, Dep::Dependent);
        self.mem.read_u32(id, offset)
    }

    /// Read one byte (dependent).
    pub fn read_u8(&mut self, id: BufferId, offset: usize) -> u8 {
        self.read_u8_dep(id, offset, Dep::Dependent)
    }

    /// Read one byte with an explicit dependency marker.
    pub fn read_u8_dep(&mut self, id: BufferId, offset: usize, dep: Dep) -> u8 {
        self.log(id, offset, 1, AccessKind::Read, dep);
        self.mem.read_u8(id, offset)
    }

    /// Write raw bytes (dependent).
    pub fn write_bytes(&mut self, id: BufferId, offset: usize, bytes: &[u8]) {
        self.log(id, offset, bytes.len(), AccessKind::Write, Dep::Dependent);
        self.mem.write_bytes(id, offset, bytes);
    }

    /// Write a u64 (dependent).
    pub fn write_u64(&mut self, id: BufferId, offset: usize, value: u64) {
        self.log(id, offset, 8, AccessKind::Write, Dep::Dependent);
        self.mem.write_u64(id, offset, value);
    }

    /// Atomic compare-and-swap on a u64; returns the previous value.
    pub fn atomic_cas_u64(&mut self, id: BufferId, offset: usize, expected: u64, new: u64) -> u64 {
        self.log(id, offset, 8, AccessKind::Atomic, Dep::Dependent);
        self.mem.atomic_cas_u64(id, offset, expected, new)
    }

    /// Atomic max on a u64; returns the previous value.
    pub fn atomic_max_u64(&mut self, id: BufferId, offset: usize, value: u64) -> u64 {
        self.log(id, offset, 8, AccessKind::Atomic, Dep::Dependent);
        self.mem.atomic_max_u64(id, offset, value)
    }

    /// Atomic add on a u64; returns the previous value.
    pub fn atomic_add_u64(&mut self, id: BufferId, offset: usize, value: u64) -> u64 {
        self.log(id, offset, 8, AccessKind::Atomic, Dep::Dependent);
        self.mem.atomic_add_u64(id, offset, value)
    }

    /// Attribute `cycles` of arithmetic/control work at the current point
    /// (e.g. the key-comparison loops whose byte-vs-word orientation drives
    /// the Figure 11 crossover).
    pub fn compute(&mut self, cycles: u32) {
        self.trace.record_compute(cycles);
    }

    /// Immutable access to device memory for address arithmetic (not
    /// recorded — use the `read_*` methods for actual data access).
    pub fn memory(&self) -> &DeviceMemory {
        self.mem
    }
}

/// A single-phase device kernel over a 1-D grid.
pub trait Kernel {
    /// Execute the kernel body for thread `tid`.
    fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>);

    /// Touch the host memory threads `tids` are about to read (see the
    /// module docs). May read `mem`; cannot write it or trace. Default:
    /// nothing.
    fn warm(&self, _tids: Range<usize>, _mem: &DeviceMemory) {}
}

/// A kernel with grid-wide barriers between phases (cooperative launch).
pub trait PhasedKernel {
    /// Number of phases (≥ 1); a grid-wide sync separates consecutive phases.
    fn phases(&self) -> usize;
    /// Execute `phase` for thread `tid`.
    fn execute_phase(&self, phase: usize, tid: usize, ctx: &mut ThreadCtx<'_>);

    /// [`Kernel::warm`] for one phase: called before threads `tids` execute
    /// `phase`. Default: nothing.
    fn warm(&self, _phase: usize, _tids: Range<usize>, _mem: &DeviceMemory) {}
}

impl<K: Kernel> PhasedKernel for K {
    fn phases(&self) -> usize {
        1
    }

    fn execute_phase(&self, _phase: usize, tid: usize, ctx: &mut ThreadCtx<'_>) {
        self.execute(tid, ctx);
    }

    fn warm(&self, _phase: usize, tids: Range<usize>, mem: &DeviceMemory) {
        Kernel::warm(self, tids, mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DeviceMemory;

    #[test]
    fn ctx_reads_are_functional_and_traced() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("b", 64, 16);
        mem.write_u64(buf, 8, 777);
        let mut trace = TraceArena::default();
        let mut ctx = ThreadCtx::new(&mut mem, &mut trace);
        assert_eq!(ctx.read_u64(buf, 8), 777);
        ctx.compute(12);
        assert_eq!(trace.depth(0), 1);
        assert_eq!(trace.total_compute(0), 12);
    }

    #[test]
    fn read_bytes_returns_the_bytes_inline_or_spilled() {
        let mut mem = DeviceMemory::new();
        let data: Vec<u8> = (0..400u32).map(|i| i as u8).collect();
        let buf = mem.alloc_from("b", &data, 16);
        let mut trace = TraceArena::default();
        let mut ctx = ThreadCtx::new(&mut mem, &mut trace);
        for (offset, len) in [(0, 0), (3, 16), (8, 160), (100, INLINE_BYTES), (0, 400)] {
            let got = ctx.read_bytes(buf, offset, len);
            assert_eq!(&got[..], &data[offset..offset + len], "{offset}+{len}");
        }
        // A read is held across further use of the context, as kernels hold
        // their query key across the traversal.
        let key = ctx.read_bytes(buf, 1, 4);
        ctx.write_u64(buf, 0, u64::MAX);
        assert_eq!(&key[..], &[1, 2, 3, 4]);
        assert_eq!(trace.depth(0), 7);
        assert_eq!(trace.bytes(0), 16 + 160 + INLINE_BYTES as u64 + 400 + 4 + 8);
    }

    #[test]
    fn ctx_writes_mutate_memory() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("b", 64, 16);
        {
            let mut trace = TraceArena::default();
            let mut ctx = ThreadCtx::new(&mut mem, &mut trace);
            ctx.write_u64(buf, 0, 123);
            ctx.write_bytes(buf, 8, b"xyz");
        }
        assert_eq!(mem.read_u64(buf, 0), 123);
        assert_eq!(mem.get(buf, 8, 3).unwrap(), b"xyz");
    }

    #[test]
    fn independent_reads_share_step() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("b", 64, 16);
        let mut trace = TraceArena::default();
        let mut ctx = ThreadCtx::new(&mut mem, &mut trace);
        ctx.read_u64_dep(buf, 0, Dep::Dependent);
        ctx.read_u64_dep(buf, 16, Dep::Independent);
        ctx.read_u64_dep(buf, 32, Dep::Dependent);
        assert_eq!(trace.depth(0), 2);
        assert_eq!(trace.step(0, 0).unwrap().0.len(), 2);
    }

    #[test]
    fn atomics_work_through_ctx() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("b", 8, 16);
        {
            let mut trace = TraceArena::default();
            let mut ctx = ThreadCtx::new(&mut mem, &mut trace);
            assert_eq!(ctx.atomic_max_u64(buf, 0, 9), 0);
            assert_eq!(ctx.atomic_add_u64(buf, 0, 1), 9);
            assert_eq!(ctx.atomic_cas_u64(buf, 0, 10, 20), 10);
        }
        assert_eq!(mem.read_u64(buf, 0), 20);
    }

    struct TouchKernel(BufferId);
    impl Kernel for TouchKernel {
        fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
            ctx.write_u64(self.0, tid * 8, tid as u64);
        }
    }

    #[test]
    fn single_phase_kernel_is_a_phased_kernel() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc("b", 8, 16);
        let k = TouchKernel(buf);
        assert_eq!(PhasedKernel::phases(&k), 1);
        let mut trace = TraceArena::default();
        k.execute_phase(0, 0, &mut ThreadCtx::new(&mut mem, &mut trace));
        assert_eq!(mem.read_u64(buf, 0), 0);
    }
}
