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
//!
//! Both traits also carry a provided `independent` opt-in, off by default,
//! by which a phase declares that its threads do not observe one another:
//!
//! * no thread reads what any thread of the phase writes — a thread reads
//!   nothing of the phase's *output* buffer;
//! * a thread writes only `u64` result slots, all in that output buffer;
//! * there are no atomics.
//!
//! The launcher may then run the phase as warp-aligned parts on several
//! host threads (see [`exec`](crate::exec)). A part's [`ThreadCtx`] reads
//! the shared memory and *logs* its writes; the launcher applies the logs
//! in thread-id order, which is the order the serial pass writes in, so
//! memory and reports come out bit-identical. A context checks the
//! contract on every access: a read of the output buffer, a write that is
//! not a `u64` into it, or an atomic marks the part refused, and the
//! launcher discards the split and runs the phase serially — nothing was
//! written yet. What the check cannot see is a read through
//! [`ThreadCtx::memory`], which kernels use for address arithmetic only.

use crate::memory::{BufferId, DeviceMemory};
use crate::trace::{Access, AccessKind, Dep, TraceArena};
use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

/// Largest read [`DeviceBytes`] holds inline: a 255-byte key with its length
/// byte, or a 255-byte dynamic leaf with its value, rounded up to 8. Node
/// records (≤ 160 B) and leaf records fit with room to spare.
const INLINE_BYTES: usize = 264;

/// The bytes a [`ThreadCtx::read_bytes`] loaded — a thread's registers.
///
/// Owned (the kernel keeps using the context while it holds them) but
/// stored inline, so a read costs no heap allocation. Reads longer than
/// `INLINE_BYTES` (a query stride or stored key above 255 bytes) spill to
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
    mem: Target<'a>,
    trace: &'a mut TraceArena,
}

/// Where a thread's accesses act.
pub(crate) enum Target<'a> {
    /// The serial pass: reads and writes act on device memory at once.
    Direct(&'a mut DeviceMemory),
    /// A part of a split phase: memory is shared and read-only, and writes
    /// are logged for the launcher to apply.
    Logged(&'a DeviceMemory, &'a mut WriteLog),
}

impl Target<'_> {
    /// Device memory, for reading.
    pub(crate) fn memory(&self) -> &DeviceMemory {
        match self {
            Target::Direct(mem) => mem,
            Target::Logged(mem, _) => mem,
        }
    }

    /// The same target for one more thread.
    pub(crate) fn reborrow(&mut self) -> Target<'_> {
        match self {
            Target::Direct(mem) => Target::Direct(mem),
            Target::Logged(mem, log) => Target::Logged(mem, log),
        }
    }

    /// `true` once a thread of a split part broke the independence
    /// contract.
    pub(crate) fn refused(&self) -> bool {
        matches!(self, Target::Logged(_, log) if log.refused)
    }
}

/// The writes of one part of a split phase, in thread-id order, and
/// whether one of its threads broke the contract (module docs).
#[derive(Debug)]
pub(crate) struct WriteLog {
    /// The one buffer the phase may write, and must not read.
    output: BufferId,
    /// `(offset, value)` of every `u64` written to `output`.
    writes: Vec<(usize, u64)>,
    refused: bool,
}

impl Default for WriteLog {
    fn default() -> Self {
        WriteLog {
            output: BufferId(usize::MAX),
            writes: Vec::new(),
            refused: false,
        }
    }
}

impl WriteLog {
    /// Forget every write, keeping the allocation, and log for `output`.
    pub(crate) fn reset(&mut self, output: BufferId) {
        self.output = output;
        self.writes.clear();
        self.refused = false;
    }

    /// `true` if a thread broke the contract; the log is then incomplete.
    pub(crate) fn refused(&self) -> bool {
        self.refused
    }

    /// Apply the logged writes to `mem`, in the order they were made.
    pub(crate) fn apply(&self, mem: &mut DeviceMemory) {
        for &(offset, value) in &self.writes {
            mem.write_u64(self.output, offset, value);
        }
    }

    /// Check one access against the contract.
    fn check(&mut self, id: BufferId, len: usize, kind: AccessKind) {
        let allowed = match kind {
            AccessKind::Read => id != self.output,
            AccessKind::Write => id == self.output && len == 8,
            AccessKind::Atomic => false,
        };
        self.refused |= !allowed;
    }
}

impl<'a> ThreadCtx<'a> {
    /// A serial context (tests build threads by hand).
    #[cfg(test)]
    pub(crate) fn new(mem: &'a mut DeviceMemory, trace: &'a mut TraceArena) -> Self {
        Self::on(Target::Direct(mem), trace)
    }

    /// A context for the next thread of the phase `trace` is recording,
    /// acting on `mem`.
    pub(crate) fn on(mem: Target<'a>, trace: &'a mut TraceArena) -> Self {
        trace.begin_thread();
        ThreadCtx { mem, trace }
    }

    fn log(&mut self, id: BufferId, offset: usize, len: usize, kind: AccessKind, dep: Dep) {
        if let Target::Logged(_, log) = &mut self.mem {
            log.check(id, len, kind);
        }
        let addr = self.mem.memory().address(id, offset);
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
        DeviceBytes::read(self.mem.memory(), id, offset, len)
    }

    /// Read a u64 (dependent).
    pub fn read_u64(&mut self, id: BufferId, offset: usize) -> u64 {
        self.read_u64_dep(id, offset, Dep::Dependent)
    }

    /// Read a u64 with an explicit dependency marker.
    pub fn read_u64_dep(&mut self, id: BufferId, offset: usize, dep: Dep) -> u64 {
        self.log(id, offset, 8, AccessKind::Read, dep);
        self.mem.memory().read_u64(id, offset)
    }

    /// Read a u32 (dependent).
    pub fn read_u32(&mut self, id: BufferId, offset: usize) -> u32 {
        self.log(id, offset, 4, AccessKind::Read, Dep::Dependent);
        self.mem.memory().read_u32(id, offset)
    }

    /// Read one byte (dependent).
    pub fn read_u8(&mut self, id: BufferId, offset: usize) -> u8 {
        self.read_u8_dep(id, offset, Dep::Dependent)
    }

    /// Read one byte with an explicit dependency marker.
    pub fn read_u8_dep(&mut self, id: BufferId, offset: usize, dep: Dep) -> u8 {
        self.log(id, offset, 1, AccessKind::Read, dep);
        self.mem.memory().read_u8(id, offset)
    }

    /// Write raw bytes (dependent). A split part refuses them.
    pub fn write_bytes(&mut self, id: BufferId, offset: usize, bytes: &[u8]) {
        self.log(id, offset, bytes.len(), AccessKind::Write, Dep::Dependent);
        if let Target::Direct(mem) = &mut self.mem {
            mem.write_bytes(id, offset, bytes);
        }
    }

    /// Write a u64 (dependent).
    pub fn write_u64(&mut self, id: BufferId, offset: usize, value: u64) {
        self.log(id, offset, 8, AccessKind::Write, Dep::Dependent);
        match &mut self.mem {
            Target::Direct(mem) => mem.write_u64(id, offset, value),
            Target::Logged(_, log) => log.writes.push((offset, value)),
        }
    }

    /// Atomic compare-and-swap on a u64; returns the previous value.
    pub fn atomic_cas_u64(&mut self, id: BufferId, offset: usize, expected: u64, new: u64) -> u64 {
        self.log(id, offset, 8, AccessKind::Atomic, Dep::Dependent);
        match &mut self.mem {
            Target::Direct(mem) => mem.atomic_cas_u64(id, offset, expected, new),
            // Refused (the split is discarded): report success, so that a
            // retry loop ends.
            Target::Logged(..) => expected,
        }
    }

    /// Atomic max on a u64; returns the previous value.
    pub fn atomic_max_u64(&mut self, id: BufferId, offset: usize, value: u64) -> u64 {
        self.log(id, offset, 8, AccessKind::Atomic, Dep::Dependent);
        match &mut self.mem {
            Target::Direct(mem) => mem.atomic_max_u64(id, offset, value),
            Target::Logged(mem, _) => mem.read_u64(id, offset),
        }
    }

    /// Atomic add on a u64; returns the previous value.
    pub fn atomic_add_u64(&mut self, id: BufferId, offset: usize, value: u64) -> u64 {
        self.log(id, offset, 8, AccessKind::Atomic, Dep::Dependent);
        match &mut self.mem {
            Target::Direct(mem) => mem.atomic_add_u64(id, offset, value),
            Target::Logged(mem, _) => mem.read_u64(id, offset),
        }
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
        self.mem.memory()
    }
}

/// A phase's declaration that its threads are independent (module docs),
/// returned by [`Kernel::independent`] / [`PhasedKernel::independent`].
/// Building one requires a kernel that is plain `'static` data the
/// launcher can copy to its helper threads.
pub struct Independent<'a> {
    kernel: &'a dyn Share,
    output: BufferId,
}

impl<'a> Independent<'a> {
    /// `kernel`'s phase writes only `u64` slots of `output`, reads nothing
    /// of it, and issues no atomics.
    pub fn new<K: PhasedKernel + Clone + Send + Sync + 'static>(
        kernel: &'a K,
        output: BufferId,
    ) -> Self {
        Independent { kernel, output }
    }

    /// The buffer the phase writes.
    pub(crate) fn output(&self) -> BufferId {
        self.output
    }

    /// A copy of the kernel helper threads can hold, kept on `shelf` (one
    /// per kernel type) and overwritten in place when the shelf already
    /// holds one of its type — so a warm launch allocates nothing.
    pub(crate) fn share(&self, shelf: &mut Vec<Arc<dyn SharedKernel>>) -> Arc<dyn SharedKernel> {
        self.kernel.share(shelf)
    }
}

/// A kernel copy that helper threads run parts of a phase with.
pub(crate) trait SharedKernel: PhasedKernel + Any + Send + Sync {}

impl<K: PhasedKernel + Any + Send + Sync> SharedKernel for K {}

/// [`Independent::share`], for a kernel of a concrete type.
trait Share {
    fn share(&self, shelf: &mut Vec<Arc<dyn SharedKernel>>) -> Arc<dyn SharedKernel>;
}

impl<K: PhasedKernel + Clone + Send + Sync + 'static> Share for K {
    fn share(&self, shelf: &mut Vec<Arc<dyn SharedKernel>>) -> Arc<dyn SharedKernel> {
        for slot in shelf.iter_mut() {
            let copy = Arc::get_mut(slot).and_then(|k| (k as &mut dyn Any).downcast_mut::<K>());
            if let Some(copy) = copy {
                copy.clone_from(self);
                return Arc::clone(slot);
            }
        }
        let copy: Arc<dyn SharedKernel> = Arc::new(self.clone());
        shelf.push(Arc::clone(&copy));
        copy
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

    /// Opt in to running on several host threads: `Some` declares the
    /// kernel's threads independent (module docs). Default: `None`, the
    /// serial pass.
    fn independent(&self) -> Option<Independent<'_>> {
        None
    }
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

    /// [`Kernel::independent`] for one phase. Default: `None`.
    fn independent(&self, _phase: usize) -> Option<Independent<'_>> {
        None
    }
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

    fn independent(&self, _phase: usize) -> Option<Independent<'_>> {
        Kernel::independent(self)
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
