//! Per-launch execution traces: the raw material of the timing model.
//!
//! A thread's trace is a sequence of **steps**. One step bundles the memory
//! accesses a thread can have in flight simultaneously (memory-level
//! parallelism); consecutive steps are **dependent** — the address of step
//! *n+1* was computed from data loaded in step *n*. Pointer chasing through
//! a radix tree is exactly a chain of dependent steps, which is why latency,
//! not bandwidth, bounds tree traversal on GPUs (§3.1 of the paper).
//!
//! All threads of a launch phase record into one [`TraceArena`]: three flat
//! vectors (accesses, steps, threads) that are cleared — not freed — between
//! phases and launches. Threads run one after another, so a thread's steps
//! are contiguous in `steps` and a step's accesses are contiguous in
//! `accesses`; a step therefore needs only the *end* of its access range
//! (its start is the previous step's end) and a thread only its step range.

/// Dependency marker for an access issued through
/// [`ThreadCtx`](crate::ThreadCtx).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dep {
    /// Opens a new step: the address depends on previously loaded data.
    Dependent,
    /// Joins the current step: the address was independently computable, so
    /// the hardware can overlap it with the other accesses of the step.
    Independent,
}

/// Kind of memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Global-memory read.
    Read,
    /// Global-memory write.
    Write,
    /// Read-modify-write with conflict serialisation.
    Atomic,
}

/// One memory access: device address range + kind.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// Flat device address of the first byte.
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Read / write / atomic.
    pub kind: AccessKind,
}

/// A group of accesses a thread has in flight at once, plus the compute
/// cycles spent before issuing the *next* step.
#[derive(Debug, Clone, Copy)]
struct StepRecord {
    /// One past the step's last access in the arena's flat access list.
    access_end: u32,
    /// Compute cycles attributed after this step's data arrived.
    compute_cycles: u32,
}

/// One thread's slice of the arena.
#[derive(Debug, Clone, Copy)]
struct ThreadRecord {
    step_start: u32,
    step_end: u32,
    /// Compute cycles before the first memory access.
    lead_compute_cycles: u32,
}

/// The traces of every thread of one launch phase, in thread-id order.
#[derive(Debug, Default)]
pub struct TraceArena {
    accesses: Vec<Access>,
    steps: Vec<StepRecord>,
    threads: Vec<ThreadRecord>,
}

impl TraceArena {
    /// Forget every trace, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.accesses.clear();
        self.steps.clear();
        self.threads.clear();
    }

    /// Open the next thread's trace; accesses and compute recorded from
    /// here on belong to it.
    pub(crate) fn begin_thread(&mut self) {
        let at = self.steps.len() as u32;
        self.threads.push(ThreadRecord {
            step_start: at,
            step_end: at,
            lead_compute_cycles: 0,
        });
    }

    /// `true` while the flat lists fit the 32-bit indices the records hold.
    /// Checked once per phase: if the final lengths fit, every index
    /// narrowed while recording was exact.
    pub(crate) fn indices_fit(&self) -> bool {
        self.accesses.len() <= u32::MAX as usize && self.steps.len() <= u32::MAX as usize
    }

    /// Record an access of the current thread.
    pub(crate) fn record(&mut self, access: Access, dep: Dep) {
        let Some(thread) = self.threads.last_mut() else {
            return;
        };
        self.accesses.push(access);
        let access_end = self.accesses.len() as u32;
        match self.steps.last_mut() {
            // An independent access joins the thread's open step; a thread's
            // first access opens one whatever its marker.
            Some(step) if dep == Dep::Independent && thread.step_end > thread.step_start => {
                step.access_end = access_end;
            }
            _ => {
                self.steps.push(StepRecord {
                    access_end,
                    compute_cycles: 0,
                });
                thread.step_end = self.steps.len() as u32;
            }
        }
    }

    /// Attribute compute cycles at the current thread's current position.
    pub(crate) fn record_compute(&mut self, cycles: u32) {
        let Some(thread) = self.threads.last_mut() else {
            return;
        };
        match self.steps.last_mut() {
            Some(step) if thread.step_end > thread.step_start => step.compute_cycles += cycles,
            _ => thread.lead_compute_cycles += cycles,
        }
    }

    /// Number of threads traced.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of dependent steps of thread `tid` (the pointer-chase depth).
    pub fn depth(&self, tid: usize) -> usize {
        let t = &self.threads[tid];
        (t.step_end - t.step_start) as usize
    }

    /// Compute cycles thread `tid` spent before its first memory access.
    pub fn lead_compute(&self, tid: usize) -> u32 {
        self.threads[tid].lead_compute_cycles
    }

    /// Step `s` of thread `tid`: its concurrent accesses and the compute
    /// cycles attributed after its data arrived. `None` past the thread's
    /// last step.
    pub fn step(&self, tid: usize, s: usize) -> Option<(&[Access], u32)> {
        let t = &self.threads[tid];
        let at = t.step_start as usize + s;
        if at >= t.step_end as usize {
            return None;
        }
        let start = match at.checked_sub(1) {
            Some(prev) => self.steps[prev].access_end as usize,
            None => 0,
        };
        let step = &self.steps[at];
        Some((
            &self.accesses[start..step.access_end as usize],
            step.compute_cycles,
        ))
    }

    /// Total compute cycles in thread `tid`'s trace.
    pub fn total_compute(&self, tid: usize) -> u64 {
        let t = &self.threads[tid];
        t.lead_compute_cycles as u64
            + self.steps[t.step_start as usize..t.step_end as usize]
                .iter()
                .map(|s| s.compute_cycles as u64)
                .sum::<u64>()
    }

    /// Total bytes thread `tid` touched.
    pub fn bytes(&self, tid: usize) -> u64 {
        (0..self.depth(tid))
            .filter_map(|s| self.step(tid, s))
            .flat_map(|(accesses, _)| accesses)
            .map(|a| a.len as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(addr: u64, len: u32) -> Access {
        Access {
            addr,
            len,
            kind: AccessKind::Read,
        }
    }

    fn one_thread() -> TraceArena {
        let mut t = TraceArena::default();
        t.begin_thread();
        t
    }

    #[test]
    fn dependent_accesses_open_steps() {
        let mut t = one_thread();
        t.record(read(0, 8), Dep::Dependent);
        t.record(read(100, 8), Dep::Dependent);
        t.record(read(200, 8), Dep::Dependent);
        assert_eq!(t.depth(0), 3);
        assert_eq!(t.bytes(0), 24);
    }

    #[test]
    fn independent_accesses_share_a_step() {
        let mut t = one_thread();
        t.record(read(0, 16), Dep::Dependent);
        t.record(read(64, 8), Dep::Independent);
        t.record(read(128, 8), Dep::Independent);
        assert_eq!(t.depth(0), 1);
        assert_eq!(t.step(0, 0).unwrap().0.len(), 3);
    }

    #[test]
    fn leading_independent_access_still_creates_step() {
        let mut t = one_thread();
        t.record(read(0, 8), Dep::Independent);
        assert_eq!(t.depth(0), 1);
    }

    #[test]
    fn compute_attribution() {
        let mut t = one_thread();
        t.record_compute(10); // before any access
        t.record(read(0, 8), Dep::Dependent);
        t.record_compute(20);
        t.record_compute(5);
        assert_eq!(t.lead_compute(0), 10);
        assert_eq!(t.step(0, 0).unwrap().1, 25);
        assert_eq!(t.total_compute(0), 35);
    }

    #[test]
    fn threads_do_not_share_steps_or_leading_compute() {
        // The flat lists are shared; the thread records keep them apart. A
        // thread's leading independent access or compute must not join the
        // previous thread's last step.
        let mut t = one_thread();
        t.record(read(0, 8), Dep::Dependent);
        t.record_compute(3);
        t.begin_thread(); // thread 1 records nothing
        t.begin_thread();
        t.record_compute(7);
        t.record(read(64, 4), Dep::Independent);
        t.record(read(96, 4), Dep::Independent);
        t.record(read(128, 2), Dep::Dependent);
        assert_eq!(t.threads(), 3);
        assert_eq!((t.depth(0), t.depth(1), t.depth(2)), (1, 0, 2));
        assert_eq!(t.step(0, 0).unwrap().1, 3);
        assert!(t.step(0, 1).is_none() && t.step(1, 0).is_none());
        assert_eq!(t.lead_compute(2), 7);
        let (first, _) = t.step(2, 0).unwrap();
        assert_eq!(first.iter().map(|a| a.addr).collect::<Vec<_>>(), [64, 96]);
        assert_eq!(t.step(2, 1).unwrap().0[0].addr, 128);
        assert_eq!((t.bytes(0), t.bytes(1), t.bytes(2)), (8, 0, 10));
    }

    #[test]
    fn clear_keeps_nothing_but_capacity() {
        let mut t = one_thread();
        t.record(read(0, 8), Dep::Dependent);
        t.clear();
        assert_eq!(t.threads(), 0);
        t.begin_thread();
        t.record(read(32, 4), Dep::Independent);
        assert_eq!(t.depth(0), 1);
        assert_eq!(t.step(0, 0).unwrap().0[0].addr, 32);
    }
}
