//! # cuart-gpu-sim — a functional + timing SIMT GPU simulator
//!
//! The CuART paper (ICPP 2021) evaluates GPU radix-tree kernels on real
//! NVIDIA hardware (A100, RTX 3090, GTX 1070). This reproduction has no GPU,
//! so this crate provides the substrate the paper's argument actually rests
//! on: a **memory-transaction-accurate** model of a CUDA device.
//!
//! Two things are simulated at once:
//!
//! 1. **Function** — kernels are ordinary Rust routines executed once per
//!    thread against real [`DeviceBuffer`]s through a [`ThreadCtx`]. Lookups
//!    really find values; updates really mutate the buffers. Correctness is
//!    therefore testable independent of timing.
//! 2. **Timing** — every access a thread makes is recorded. Threads are
//!    grouped into warps of 32 executing in lockstep; each warp step's
//!    accesses are coalesced into 32-byte sectors ([`coalesce`]), filtered
//!    through a set-associative L2 model ([`cache`]), and the misses are
//!    serviced by a per-channel DRAM model ([`dram`]) parameterised with each
//!    device's real channel count, width, data rate and command clock — the
//!    quantities §4.6 of the paper uses to explain why GDDR6X beats HBM2 for
//!    pointer chasing.
//!
//! The [`launch`] entry point returns a [`KernelReport`] with
//! the modeled kernel time and full transaction statistics. [`pcie`] models
//! host↔device transfers and [`pipeline`] models multi-stream software
//! pipelining, so an end-to-end throughput in the paper's sense (§4.1:
//! including PCIe and pipelining) can be computed.
//!
//! ```
//! use cuart_gpu_sim::{devices, DeviceMemory, Kernel, ThreadCtx, exec};
//!
//! // A kernel that sums 8 u64s from a buffer, strided by thread id.
//! struct SumKernel { src: cuart_gpu_sim::BufferId, dst: cuart_gpu_sim::BufferId }
//! impl Kernel for SumKernel {
//!     fn execute(&self, tid: usize, ctx: &mut ThreadCtx<'_>) {
//!         let mut acc = 0u64;
//!         for i in 0..8 {
//!             acc = acc.wrapping_add(ctx.read_u64(self.src, (tid * 8 + i) * 8));
//!         }
//!         ctx.write_u64(self.dst, tid * 8, acc);
//!     }
//! }
//!
//! let mut mem = DeviceMemory::new();
//! let src = mem.alloc("src", 1024 * 64, 16);
//! let dst = mem.alloc("dst", 1024 * 8, 16);
//! for i in 0..1024 * 8 {
//!     mem.write_u64(src, i * 8, i as u64);
//! }
//! let report = exec::launch(&devices::rtx3090(), &mut mem, &SumKernel { src, dst }, 1024);
//! assert!(report.time_ns > 0.0);
//! assert_eq!(mem.read_u64(dst, 0), (0u64..8).sum());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod devices;
pub mod dram;
pub mod exec;
pub mod faults;
pub mod kernel;
pub mod memory;
pub mod pcie;
pub mod pipeline;
pub mod trace;

pub use config::{CacheConfig, DeviceConfig, MemConfig, MemKind, PcieConfig};
pub use exec::{launch, KernelReport, KernelSeries, Launcher};
pub use faults::{DeviceFault, FaultConfig, FaultInjector, FaultSite};
pub use kernel::{DeviceBytes, Independent, Kernel, PhasedKernel, ThreadCtx};
pub use memory::{BufferId, DeviceBuffer, DeviceMemory};
pub use trace::Dep;
