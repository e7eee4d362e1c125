//! cuart-net: the binary RPC serving subsystem.
//!
//! Puts the scheduler stack behind a TCP socket with the same semantics
//! it has in-process: CRC-guarded, versioned frames ([`proto`]), a
//! backpressure-aware multi-threaded server with drain-safe shutdown
//! ([`server`]), and a blocking client ([`client`]). Overload and
//! faults surface as *typed error frames* mirroring
//! [`SchedError`](cuart_host::SchedError) — a refused request is an
//! answer, never a dropped connection.
//!
//! Std-only by design: the wire format is hand-rolled little-endian with
//! the snapshot CRC-32, and the server is plain `std::net` + threads.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{NetClient, NetError};
pub use proto::{ErrorCode, Op, Opcode, Request, RespBody, Response, WireError};
pub use server::{NetReport, NetServer, NetServerConfig, SchedReport, ShutdownHandle};
