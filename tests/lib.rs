//! The one oracle and the one harness every serving path is checked by.
//!
//! * [`Model`] is the batch rule of §3.4 (DESIGN §7) on a `BTreeMap`, once.
//! * [`Path`] is one `call(Op) -> SchedAnswer` over a session, a scheduler, a
//!   sharded fleet or a wire client.
//! * [`Harness`] drives N producers, each with its own seeded op stream,
//!   through a path, checks every answer against the model, then sweeps
//!   every key once the path is quiescent.
//!
//! Every key has one owner producer, chosen by a hash of the key, and a
//! producer's ops touch only keys it owns: each producer's model stays exact
//! while the others run, and its batches still cross every shard.
//!
//! The allocation tests count heap allocations with the one
//! [`CountingAllocator`], which each installs as its binary's global
//! allocator.

use cuart::insert::insert_status;
use cuart::update::status;
use cuart::{CuartConfig, CuartIndex, CuartSession, ShardRouter, DELETE};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_host::scheduler::{RangeRows, SchedAnswer, SchedOp, SchedulerClient};
use cuart_host::sharded::ShardedClient;
use cuart_net::{NetClient, Op};
use cuart_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// The model answers a losing write `status::SUPERSEDED` for both kinds.
const _: () = assert!(status::SUPERSEDED == insert_status::SUPERSEDED);

/// §3.4's batch rule: lookups and ranges read the map; a write batch
/// resolves against the pre-batch map, and per key the highest index wins.
/// Each op that loses to a later op on its key answers `SUPERSEDED`, and
/// every update of a key absent at batch start `MISS`. An empty key is
/// refused op by op. `benchmark/src/oracle.rs` keeps its own copy of the
/// rule.
#[derive(Debug, Clone, Default)]
pub struct Model(BTreeMap<Vec<u8>, u64>);

/// A model holding the pairs an index was built from.
impl FromIterator<(Vec<u8>, u64)> for Model {
    fn from_iter<I: IntoIterator<Item = (Vec<u8>, u64)>>(pairs: I) -> Self {
        Model(pairs.into_iter().collect())
    }
}

impl Model {
    /// The values `keys` read, `NOT_FOUND` for a missing key.
    pub fn lookup(&mut self, keys: &[Vec<u8>]) -> Vec<u64> {
        self.values(&Op::Lookup(keys.to_vec()))
    }

    /// The statuses `ops` answer as one update batch, which is applied.
    pub fn update(&mut self, ops: &[(Vec<u8>, u64)]) -> Vec<u64> {
        self.values(&Op::Update(ops.to_vec()))
    }

    fn values(&mut self, op: &Op) -> Vec<u64> {
        match self.answer(op) {
            SchedAnswer::Values(values) => values,
            SchedAnswer::Rows(_) => unreachable!("{op:?} answers values"),
        }
    }

    /// The answer `op` must get; its writes are applied.
    pub fn answer(&mut self, op: &Op) -> SchedAnswer {
        match op {
            Op::Lookup(keys) => {
                let get = |k: &Vec<u8>| self.0.get(k).copied().unwrap_or(NOT_FOUND);
                SchedAnswer::Values(keys.iter().map(get).collect())
            }
            Op::Update(ops) => SchedAnswer::Values(self.write(ops, false)),
            Op::Insert(ops) => SchedAnswer::Values(self.write(ops, true)),
            Op::Range(ranges) => {
                SchedAnswer::Rows(ranges.iter().map(|(lo, hi)| self.rows(lo, hi)).collect())
            }
            Op::Ping | Op::Shutdown => panic!("{op:?} is not a data op"),
        }
    }

    fn rows(&self, lo: &[u8], hi: &[u8]) -> RangeRows {
        if lo > hi {
            return RangeRows::new();
        }
        let bounds = (Bound::Included(lo), Bound::Included(hi));
        let rows = self.0.range::<[u8], _>(bounds);
        rows.map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Visited last-first, the first op seen per key is its winner.
    fn write(&mut self, ops: &[(Vec<u8>, u64)], insert: bool) -> Vec<u64> {
        let mut out = vec![0; ops.len()];
        let mut won: HashMap<&[u8], u64> = HashMap::new();
        for (i, (key, value)) in ops.iter().enumerate().rev() {
            out[i] = match won.get(key.as_slice()) {
                _ if key.is_empty() && insert => insert_status::REJECTED,
                _ if key.is_empty() => status::MISS,
                Some(&status::MISS) if !insert => status::MISS,
                Some(_) => status::SUPERSEDED,
                None => self.apply(key, *value, insert),
            };
            won.entry(key).or_insert(out[i]);
        }
        out
    }

    fn apply(&mut self, key: &[u8], value: u64, insert: bool) -> u64 {
        let present = self.0.contains_key(key);
        match (insert, present) {
            (false, false) => return status::MISS,
            (false, true) if value == DELETE => self.0.remove(key),
            _ => self.0.insert(key.to_vec(), value),
        };
        match (insert, present) {
            (false, _) => status::APPLIED,
            (true, true) => insert_status::UPDATED,
            (true, false) => insert_status::INSERTED,
        }
    }
}

/// Fail with where `got` first departs from `want`. Exact, but for
/// `SPILLED` counting as `INSERTED`: a new key may attach on the device or
/// park on the host, the one spelling two paths may differ on
/// (`benchmark/src/oracle.rs::matches` treats it the same way).
fn check(op: &Op, got: &SchedAnswer, want: &SchedAnswer, context: std::fmt::Arguments<'_>) {
    let insert = matches!(op, Op::Insert(_));
    let stored = |s: &u64| match *s {
        insert_status::SPILLED if insert => insert_status::INSERTED,
        s => s,
    };
    let first = match (got, want) {
        (SchedAnswer::Values(g), SchedAnswer::Values(w)) if g.len() == w.len() => {
            g.iter().map(stored).zip(w).position(|(g, &w)| g != w)
        }
        (SchedAnswer::Rows(g), SchedAnswer::Rows(w)) if g.len() == w.len() => {
            g.iter().zip(w).position(|(g, w)| g != w)
        }
        _ => Some(0),
    };
    let Some(i) = first else { return };
    let at = |a: &SchedAnswer| match a {
        SchedAnswer::Values(v) => format!("{:?}", v.get(i)),
        SchedAnswer::Rows(r) => format!("{:?}", r.get(i)),
    };
    let input = match op {
        Op::Lookup(keys) => format!("{:?}", keys.get(i)),
        Op::Update(ops) | Op::Insert(ops) => format!("{:?}", ops.get(i)),
        Op::Range(ranges) => format!("{:?}", ranges.get(i)),
        Op::Ping | Op::Shutdown => String::new(),
    };
    panic!(
        "{context}, op {i} {input}: got {}, want {}",
        at(got),
        at(want)
    );
}

/// One serving path: every data op in, its answer out.
pub trait Path {
    /// Serve `op`; a refusal or a dead path fails the test.
    fn call(&mut self, op: Op) -> SchedAnswer;
}

impl Path for CuartSession<'_> {
    fn call(&mut self, op: Op) -> SchedAnswer {
        let answer = match op {
            Op::Lookup(keys) => self.lookup_batch(&keys).map(|a| SchedAnswer::Values(a.0)),
            Op::Update(ops) => self.update_batch(&ops).map(|a| SchedAnswer::Values(a.0)),
            Op::Insert(ops) => self.insert_batch(&ops).map(|a| SchedAnswer::Values(a.0)),
            Op::Range(ranges) => self.range_batch(&ranges).map(|a| SchedAnswer::Rows(a.0)),
            Op::Ping | Op::Shutdown => panic!("{op:?} is not a data op"),
        };
        answer.expect("the session answers")
    }
}

fn sched_op(op: Op) -> SchedOp {
    match op {
        Op::Lookup(keys) => SchedOp::lookups(&keys),
        Op::Update(ops) => SchedOp::updates(&ops),
        Op::Insert(ops) => SchedOp::inserts(&ops),
        Op::Range(ranges) => SchedOp::Range(ranges),
        Op::Ping | Op::Shutdown => panic!("{op:?} is not a data op"),
    }
}

impl Path for SchedulerClient {
    fn call(&mut self, op: Op) -> SchedAnswer {
        let ticket = self.submit(sched_op(op), None);
        ticket.wait().expect("the scheduler answers")
    }
}

impl Path for ShardedClient {
    fn call(&mut self, op: Op) -> SchedAnswer {
        self.0.call(op)
    }
}

impl Path for NetClient {
    fn call(&mut self, op: Op) -> SchedAnswer {
        let answer = match op {
            Op::Lookup(keys) => self.lookup(keys).map(SchedAnswer::Values),
            Op::Update(ops) => self.update(ops).map(SchedAnswer::Values),
            Op::Insert(ops) => self.insert(ops).map(SchedAnswer::Values),
            Op::Range(ranges) => self.range(ranges).map(SchedAnswer::Rows),
            Op::Ping | Op::Shutdown => panic!("{op:?} is not a data op"),
        };
        answer.expect("the server answers")
    }
}

/// splitmix64's finalizer: a bijection on `u64` that spreads consecutive
/// inputs over the whole range — the one source of test randomness.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An index over the 8-byte big-endian keys `0..n`, key `i` storing
/// `i * 3 + 1`.
pub fn dense_index(n: u64, cfg: &CuartConfig) -> CuartIndex {
    let mut art = Art::new();
    for i in 0..n {
        art.insert(&i.to_be_bytes(), i * 3 + 1).unwrap();
    }
    CuartIndex::build(&art, cfg)
}

/// Key `id` of a universe, in every class by `id % 64`: 8-, 16- and 32-byte
/// device keys, 20-byte keys (over the device stride when no stored key is
/// longer than 16 bytes), 40-byte keys (over `MAX_DEVICE_KEY`, host-routed
/// under `CpuRoute`), 1-byte keys (below `lut_span` 2, host-routed) and the
/// empty key. A multi-byte key leads with a byte in `8..248` and no 1-byte
/// key does, so no key is a prefix of another.
fn key(id: u64) -> Vec<u8> {
    let p = mix(id.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let len = match id % 64 {
        0..30 => 8,
        30..46 => 16,
        46..56 => 32,
        56..59 => 20,
        59..62 => 40,
        62 => return vec![(p as u8 % 16).wrapping_sub(8)],
        _ => return Vec::new(),
    };
    let mut key = p.to_be_bytes().to_vec();
    key[0] = 8 + key[0] % 240;
    if len > 8 {
        key.extend_from_slice(&id.to_le_bytes());
        key.resize(len, b'.');
    }
    key
}

/// A key's producer out of `producers` (FNV-1a of its bytes).
fn owner(key: &[u8], producers: usize) -> usize {
    let hash = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (hash % producers as u64) as usize
}

/// One producer's seeded op stream over the keys it owns. Each request
/// holds a single kind, in a fixed cycle of 16 that opens with an update:
/// 13 lookups, an update (about one op in seven a delete), an insert of
/// fresh and existing keys, and 8 ranges of up to 24 universe keys (one in
/// eight inverted). Writes draw their keys from a pool a quarter their
/// size, and each ends with a delete-then-update (or an insert-twice) of
/// one key.
struct Stream<'u> {
    rng: u64,
    sent: usize,
    owned: Vec<Vec<u8>>,
    universe: &'u [Vec<u8>],
    batch: usize,
}

impl Stream<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (mix(self.rng) % n as u64) as usize
    }

    fn pick(&mut self) -> Vec<u8> {
        let at = self.below(self.owned.len());
        self.owned[at].clone()
    }

    fn next_op(&mut self) -> Op {
        self.sent += 1;
        match self.sent % 16 {
            1 => Op::Update(self.writes(true)),
            6 => Op::Insert(self.writes(false)),
            11 => Op::Range((0..8).map(|_| self.range()).collect()),
            _ => Op::Lookup((0..self.batch).map(|_| self.pick()).collect()),
        }
    }

    fn writes(&mut self, update: bool) -> Vec<(Vec<u8>, u64)> {
        let n = (self.batch / 8).clamp(8, 256);
        let pool: Vec<Vec<u8>> = (0..n / 4).map(|_| self.pick()).collect();
        let mut ops = Vec::with_capacity(n + 2);
        for _ in 0..n {
            let (at, value) = (self.below(pool.len()), self.below(1 << 30) as u64);
            let delete = update && value % 7 == 0;
            ops.push((pool[at].clone(), if delete { DELETE } else { value }));
        }
        let first = if update { DELETE } else { 1 };
        ops.extend([(pool[0].clone(), first), (pool[0].clone(), 2)]);
        ops
    }

    fn range(&mut self) -> (Vec<u8>, Vec<u8>) {
        let keys = self.universe;
        let lo = self.below(keys.len());
        let hi = (lo + self.below(24)).min(keys.len() - 1);
        let flip = self.below(8) == 0;
        let (lo, hi) = if flip { (hi, lo) } else { (lo, hi) };
        (keys[lo].clone(), keys[hi].clone())
    }
}

/// How one cell drives each producer: it seeds the streams, sends
/// `lookups` lookup keys in requests of `batch` (writes carry an eighth of
/// it), and pauses `pace` after each request so a breaker's cooldown can
/// elapse.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub seed: u64,
    pub lookups: usize,
    pub batch: usize,
    pub pace: Duration,
}

impl Cell {
    /// A cell that never pauses.
    pub fn new(seed: u64, lookups: usize, batch: usize) -> Cell {
        let pace = Duration::ZERO;
        Cell {
            seed,
            lookups,
            batch,
            pace,
        }
    }
}

/// An index over a key universe, one [`Model`] per producer, and the
/// driver that checks a path against them.
pub struct Harness {
    /// The index every path serves, built from the stored keys.
    pub index: Arc<CuartIndex>,
    /// Every key a stream names, sorted.
    universe: Vec<Vec<u8>>,
    models: Vec<Model>,
    /// Ops checked so far (a range counts once).
    pub checked: u64,
}

impl Harness {
    /// A universe of `n` ids, two in three stored at build time (value
    /// `id + 1`) under `CuartConfig::for_tests()`, owned by `producers`.
    /// Unless `wide`, no key over 16 bytes is stored, so the device stride
    /// is 16 and the 20- and 32-byte keys are over it.
    pub fn new(n: u64, producers: usize, wide: bool, telemetry: Option<&Arc<Telemetry>>) -> Self {
        let mut stored = BTreeMap::new();
        let mut universe: Vec<Vec<u8>> = (0..n).map(key).collect();
        for (id, key) in universe.iter().enumerate() {
            if id % 3 != 0 && !key.is_empty() && (wide || key.len() <= 16) {
                stored.insert(key.clone(), id as u64 + 1);
            }
        }
        universe.sort();
        universe.dedup();
        let mut art = Art::new();
        for (key, value) in &stored {
            art.insert(key, *value).expect("no key is a prefix");
        }
        let mut index = CuartIndex::build(&art, &CuartConfig::for_tests());
        if let Some(t) = telemetry {
            index = index.with_telemetry(Arc::clone(t));
        }
        let mut models = vec![Model::default(); producers];
        for (key, value) in stored {
            models[owner(&key, producers)].0.insert(key, value);
        }
        let (index, checked) = (Arc::new(index), 0);
        Harness {
            index,
            universe,
            models,
            checked,
        }
    }

    /// Producers the models are split between.
    pub fn producers(&self) -> usize {
        self.models.len()
    }

    /// Run `cell` with one producer per path (the first on this thread),
    /// checking every answer; a producer's ranges are compared on the rows
    /// it owns. Then sweep through the first path.
    pub fn run<P: Path + Send>(&mut self, paths: &mut [P], cell: Cell) {
        let (producers, universe) = (self.models.len(), &self.universe);
        assert_eq!(paths.len(), producers, "one path per producer");
        let drive = |p: usize, path: &mut P, model: &mut Model| {
            let owned = universe.iter().filter(|k| owner(k, producers) == p);
            let mut stream = Stream {
                rng: mix(cell.seed ^ p as u64),
                sent: 0,
                owned: owned.cloned().collect(),
                universe,
                batch: cell.batch,
            };
            let (mut lookups, mut checked) = (0, 0);
            while lookups < cell.lookups {
                let op = stream.next_op();
                let want = model.answer(&op);
                let mut got = path.call(op.clone());
                if let SchedAnswer::Rows(rows) = &mut got {
                    for rows in rows {
                        rows.retain(|(k, _)| owner(k, producers) == p);
                    }
                }
                check(&op, &got, &want, format_args!("producer {p}"));
                if let Op::Lookup(keys) = &op {
                    lookups += keys.len();
                }
                checked += op.ops() as u64;
                std::thread::sleep(cell.pace);
            }
            checked
        };
        let (first, rest) = paths.split_first_mut().expect("a producer");
        let (model, models) = self.models.split_first_mut().expect("a model");
        self.checked += std::thread::scope(|s| {
            let drive = &drive;
            let others: Vec<_> = (1..)
                .zip(rest.iter_mut().zip(models))
                .map(|(p, (path, model))| s.spawn(move || drive(p, path, model)))
                .collect();
            let joined = others.into_iter().map(|h| h.join().expect("a producer"));
            drive(0, first, model) + joined.sum::<u64>()
        });
        self.sweep(first);
    }

    /// Once quiescent: every key of the universe, and ranges over the
    /// whole universe and across every shard boundary of up to four
    /// shards, against the union of the models.
    pub fn sweep(&mut self, path: &mut impl Path) {
        let mut union = Model::default();
        for model in &self.models {
            union.0.extend(model.0.iter().map(|(k, v)| (k.clone(), *v)));
        }
        let keys = &self.universe;
        let router = ShardRouter::new(4);
        let mut ranges = vec![(Vec::new(), vec![0xFF; 41])];
        for shard in 1..4 {
            let at = keys.partition_point(|k| router.shard_of(k) < shard);
            let hi = keys[(at + 16).min(keys.len() - 1)].clone();
            ranges.push((keys[at.saturating_sub(16)].clone(), hi));
        }
        let lookups = keys.chunks(1024).map(|chunk| Op::Lookup(chunk.to_vec()));
        for op in lookups.chain([Op::Range(ranges)]) {
            let want = union.answer(&op);
            check(&op, &path.call(op.clone()), &want, format_args!("sweep"));
            self.checked += op.ops() as u64;
        }
    }
}

/// `debug` in a debug build, `release` otherwise: the simulator's
/// functional pass is too slow for the full sizes unoptimised, and CI runs
/// the harness with `--release`.
pub fn sized(debug: usize, release: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// The system allocator, counting every allocation and reallocation. A
/// test binary installs it with
/// `#[global_allocator] static GLOBAL: CountingAllocator = CountingAllocator;`
/// and reads the count through [`allocations_of`]. The count is
/// process-wide, so such a binary holds one test.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// The allocations made while `f` runs, on every thread of a binary that
/// installed [`CountingAllocator`], and what `f` returned.
pub fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}
