//! The closed loop: each caller sends its next request only after the
//! previous answer arrived and was checked.

use crate::oracle::{first_difference, matches, Checked};
use crate::procfs::{cpu_seconds, steal_seconds};
use crate::span::{now_ns, Span};
use crate::stack::Caller;
use cuart_net::Op;
use std::sync::Barrier;

/// The layers a request stream is replayed at, outermost last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Proto,
    Cpu,
    Session,
    Sched,
    Sharded,
    Wire,
}

impl Rung {
    pub fn name(self) -> &'static str {
        match self {
            Rung::Proto => "proto",
            Rung::Cpu => "cpu",
            Rung::Session => "session",
            Rung::Sched => "sched",
            Rung::Sharded => "sharded",
            Rung::Wire => "wire",
        }
    }

    /// Span id of `request_id` at this rung: ids are shared across rungs,
    /// so a span finds its parent without a lookup.
    pub fn span_id(self, request_id: u64) -> u64 {
        ((self as u64 + 1) << 40) | (request_id + 1)
    }

    /// A span of this rung whose parent is the same request's span at `parent`.
    pub fn span(
        self,
        parent: Option<Rung>,
        request_id: u64,
        client: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id: self.span_id(request_id),
            parent: parent.map_or(0, |p| p.span_id(request_id)),
            name: self.name(),
            request_id,
            client: client as u32,
            start_ns,
            end_ns,
        }
    }
}

/// Share of a segment's wall time the hypervisor may steal before the
/// segment counts as disturbed. The counter moves in 10 ms ticks; one tick
/// in the shortest segments (0.2 s) passes, two do not.
const STEAL_LIMIT: f64 = 0.06;

/// What one segment did, all callers together.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One span per request, callers concatenated.
    pub spans: Vec<Span>,
    pub keys: u64,
    pub failed: u64,
    /// The first wrong answer, for the error message.
    pub first_failure: Option<String>,
    /// First request sent to last answer received.
    pub wall_ns: u64,
    /// Process CPU (user + system, every thread) over the segment.
    pub cpu_s: f64,
    /// Time the hypervisor ran something else on this guest's CPUs.
    pub steal_s: f64,
}

impl Outcome {
    pub fn requests(&self) -> u64 {
        self.spans.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.keys as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Whether stolen time exceeds [`STEAL_LIMIT`] of the segment.
    pub fn disturbed(&self) -> bool {
        self.steal_s * 1e9 > STEAL_LIMIT * self.wall_ns as f64
    }

    /// Request latencies in nanoseconds, ascending.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        v.sort_unstable();
        v
    }

    fn absorb(&mut self, other: Outcome) {
        self.spans.extend(other.spans);
        self.keys += other.keys;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }
}

/// Request `seq` of caller `client`: its position in round-robin order.
pub fn request_id(seq: usize, client: usize, clients: usize) -> u64 {
    (seq * clients + client) as u64
}

fn drive_one<C: Caller>(
    caller: &mut C,
    client: usize,
    clients: usize,
    requests: Vec<Checked>,
    rung: Rung,
    parent: Option<Rung>,
) -> Outcome {
    let mut out = Outcome {
        spans: Vec::with_capacity(requests.len()),
        ..Outcome::default()
    };
    for (seq, (op, want)) in requests.into_iter().enumerate() {
        let id = request_id(seq, client, clients);
        let is_insert = matches!(op, Op::Insert(_));
        let opcode = op.opcode();
        out.keys += op.ops() as u64;
        let start_ns = now_ns();
        let got = caller.call(op);
        let end_ns = now_ns();
        out.spans
            .push(rung.span(parent, id, client, start_ns, end_ns));
        if !matches(is_insert, &got, &want) {
            out.failed += 1;
            out.first_failure.get_or_insert_with(|| {
                format!(
                    "{} request {id} ({}): {}",
                    rung.name(),
                    opcode.as_str(),
                    first_difference(&got, &want)
                )
            });
        }
    }
    out
}

/// Replay one segment: `segment[c]` is sent by `callers[c]`, all callers
/// starting together. A single caller runs on the calling thread.
pub fn drive<C: Caller + Send>(
    callers: &mut [C],
    segment: Vec<Vec<Checked>>,
    rung: Rung,
    parent: Option<Rung>,
) -> Outcome {
    assert_eq!(callers.len(), segment.len(), "one request list per caller");
    let clients = callers.len();
    let (cpu_before, steal_before) = (cpu_seconds(), steal_seconds());
    let mut out = Outcome::default();
    if let [caller] = callers {
        let requests = segment.into_iter().next().unwrap_or_default();
        out = drive_one(caller, 0, 1, requests, rung, parent);
    } else {
        let barrier = Barrier::new(clients);
        let parts: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = callers
                .iter_mut()
                .zip(segment)
                .enumerate()
                .map(|(client, (caller, requests))| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        drive_one(caller, client, clients, requests, rung, parent)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        parts.into_iter().for_each(|p| out.absorb(p));
    }
    out.cpu_s = cpu_seconds() - cpu_before;
    out.steal_s = steal_seconds() - steal_before;
    let first = out.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let last = out.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    out.wall_ns = last - first;
    out
}
