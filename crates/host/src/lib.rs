//! # cuart-host — the end-to-end query engine
//!
//! The paper measures throughput "in an end-to-end manner, including CPU
//! overhead for processing the lookups afterwards, PCIe transfer times and
//! pipelining" (§4.1). This crate is that measurement harness:
//!
//! * [`gpu_runner`] — composes per-batch kernel times (sampled from the
//!   `cuart-gpu-sim` simulator) with the PCIe and multi-stream pipeline
//!   models into end-to-end throughput, for CuART and both GRT variants
//!   (CUDA / OpenCL, §4.1),
//! * [`cpu_runner`] — *real, measured* multi-threaded CPU lookups over the
//!   classic ART and over the CuART layout (Figure 7), plus mutex-guarded
//!   atomic CPU updates (Figure 17),
//! * [`hybrid`] — the CPU/GPU split of §3.2.3 option 1: long keys answered
//!   by host threads while the GPU serves the rest (Figures 13/14),
//! * [`scheduler`] — the concurrent serving layer: N producer threads
//!   submit point ops through an MPSC queue (submit returns a ticket, wait
//!   yields the answer); a work-conserving executor thread drains whatever
//!   is queued whenever it is free, sorts each batch for locality and
//!   inverts the permutation on return; its one client routes a request
//!   over one queue whole and over several by split / submit-all /
//!   wait-and-merge,
//! * [`sharded`] — the multi-device scale-out layer: one scheduler per
//!   simulated device, key space partitioned by the §3.3 LUT prefix, with
//!   per-shard overload isolation; a lone scheduler is a fleet of one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpu_runner;
pub mod gpu_runner;
pub mod hybrid;
pub mod scheduler;
pub mod sharded;

pub use gpu_runner::{E2eReport, Engine, RunConfig};
pub use hybrid::HybridReport;
pub use scheduler::{
    RangeRows, SchedAnswer, SchedError, SchedOp, Scheduler, SchedulerClient, SchedulerConfig,
    SchedulerStats, Ticket,
};
pub use sharded::{ShardStats, ShardedClient, ShardedScheduler, ShardedStats};
