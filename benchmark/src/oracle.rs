//! The correctness gate: what every response must be.
//!
//! Static keys are answered by the repo's reference engine
//! (`lookup_batch_cpu`), keys a caller has written by that caller's own
//! ordered map, ranges by a scan of the sorted build rows overlaid with
//! that map. In-batch duplicates follow §3.4: the last occurrence wins.

use cuart::insert::insert_status;
use cuart::update::status;
use cuart::{CuartIndex, DELETE};
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_host::scheduler::RangeRows;
use cuart_net::Op;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A response, or why there is none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Lookup values, update statuses or insert statuses, one per op.
    Values(Vec<u64>),
    /// Range rows, one list per range.
    Rows(Vec<RangeRows>),
    /// The call failed or was refused.
    Failed(String),
}

/// One request with the answer it must get.
pub type Checked = (Op, Answer);

/// Whether `got` is the answer `want` for a request. A new key may attach
/// on the device or spill to the host overflow depending on what the other
/// caller's inserts did to the same node first; both store it.
pub fn matches(is_insert: bool, got: &Answer, want: &Answer) -> bool {
    match (got, want) {
        (Answer::Values(g), Answer::Values(w)) if is_insert => {
            let stored = |s: u64| {
                if s == insert_status::SPILLED {
                    insert_status::INSERTED
                } else {
                    s
                }
            };
            g.len() == w.len() && g.iter().zip(w).all(|(&g, &w)| stored(g) == w)
        }
        _ => got == want,
    }
}

/// Where `got` first departs from `want`, for the failure message.
pub fn first_difference(got: &Answer, want: &Answer) -> String {
    match (got, want) {
        (Answer::Values(g), Answer::Values(w)) if g.len() == w.len() => {
            match g.iter().zip(w).position(|(g, w)| g != w) {
                Some(i) => format!("op {i} of {}: got {}, want {}", g.len(), g[i], w[i]),
                None => "equal but for spilled inserts".into(),
            }
        }
        (Answer::Rows(g), Answer::Rows(w)) if g.len() == w.len() => {
            match g.iter().zip(w).position(|(g, w)| g != w) {
                Some(i) => format!(
                    "range {i} of {}: got {} rows, want {}",
                    g.len(),
                    g[i].len(),
                    w[i].len()
                ),
                None => "equal".into(),
            }
        }
        (Answer::Failed(why), _) => format!("call failed: {why}"),
        _ => "answer of another shape or length".into(),
    }
}

/// Everything one caller has written: `None` marks a deleted key.
#[derive(Debug, Default)]
pub struct ClientModel {
    written: BTreeMap<Vec<u8>, Option<u64>>,
}

/// The build's rows in key order, for range scans (empty when the
/// workload has no ranges).
pub struct Oracle {
    sorted: Vec<(Vec<u8>, u64)>,
}

impl Oracle {
    /// `keys` in build order: key `i` was stored with value `i + 1`.
    pub fn new(keys: &[Vec<u8>], with_ranges: bool) -> Oracle {
        let mut sorted = Vec::new();
        if with_ranges {
            sorted = keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), build_value(i)))
                .collect();
            sorted.sort();
        }
        Oracle { sorted }
    }

    /// The answers a caller's requests must get, in order, advancing its model.
    pub fn check(&self, index: &CuartIndex, model: &mut ClientModel, ops: Vec<Op>) -> Vec<Checked> {
        ops.into_iter()
            .map(|op| {
                let want = self.expect(index, model, &op);
                (op, want)
            })
            .collect()
    }

    fn expect(&self, index: &CuartIndex, model: &mut ClientModel, op: &Op) -> Answer {
        match op {
            Op::Lookup(keys) => {
                let mut values: Vec<u64> = index
                    .lookup_batch_cpu(keys)
                    .into_iter()
                    .map(|v| v.unwrap_or(NOT_FOUND))
                    .collect();
                if !model.written.is_empty() {
                    for (k, v) in keys.iter().zip(&mut values) {
                        if let Some(w) = model.written.get(k) {
                            *v = w.unwrap_or(NOT_FOUND);
                        }
                    }
                }
                Answer::Values(values)
            }
            Op::Update(ops) => Answer::Values(self.write(index, model, ops, false)),
            Op::Insert(ops) => Answer::Values(self.write(index, model, ops, true)),
            Op::Range(ranges) => Answer::Rows(
                ranges
                    .iter()
                    .map(|(lo, hi)| self.scan(model, lo, hi))
                    .collect(),
            ),
            Op::Ping | Op::Shutdown => Answer::Failed("not a data request".into()),
        }
    }

    /// Statuses of an update or insert batch, applied to the model.
    fn write(
        &self,
        index: &CuartIndex,
        model: &mut ClientModel,
        ops: &[(Vec<u8>, u64)],
        insert: bool,
    ) -> Vec<u64> {
        let mut last: BTreeMap<&[u8], usize> = BTreeMap::new();
        for (i, (k, _)) in ops.iter().enumerate() {
            last.insert(k, i);
        }
        let mut statuses = Vec::with_capacity(ops.len());
        for (i, (k, v)) in ops.iter().enumerate() {
            let exists = match model.written.get(k) {
                Some(w) => w.is_some(),
                None => index.lookup_cpu(k).is_some(),
            };
            let wins = last[k.as_slice()] == i;
            statuses.push(match (insert, exists, wins) {
                (false, false, _) => status::MISS,
                (false, true, true) => status::APPLIED,
                (false, true, false) => status::SUPERSEDED,
                (true, _, false) => insert_status::SUPERSEDED,
                (true, true, true) => insert_status::UPDATED,
                (true, false, true) => insert_status::INSERTED,
            });
            if wins && (insert || exists) {
                let stored = if !insert && *v == DELETE {
                    None
                } else {
                    Some(*v)
                };
                model.written.insert(k.clone(), stored);
            }
        }
        statuses
    }

    fn scan(&self, model: &ClientModel, lo: &[u8], hi: &[u8]) -> RangeRows {
        if lo > hi {
            return Vec::new();
        }
        let from = self.sorted.partition_point(|(k, _)| k.as_slice() < lo);
        let to = self.sorted.partition_point(|(k, _)| k.as_slice() <= hi);
        let mut rows: BTreeMap<&[u8], u64> = self.sorted[from..to]
            .iter()
            .map(|(k, v)| (k.as_slice(), *v))
            .collect();
        for (k, w) in model
            .written
            .range::<[u8], _>((Bound::Included(lo), Bound::Included(hi)))
        {
            match w {
                Some(v) => rows.insert(k, *v),
                None => rows.remove(k.as_slice()),
            };
        }
        rows.into_iter().map(|(k, v)| (k.to_vec(), v)).collect()
    }
}

/// The value the benchmark stores under the `i`-th generated key.
pub fn build_value(i: usize) -> u64 {
    i as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuart::CuartConfig;
    use cuart_art::Art;

    fn fixture() -> (CuartIndex, Vec<Vec<u8>>) {
        let keys: Vec<Vec<u8>> = (0..64u64).map(|i| (i * 4).to_be_bytes().to_vec()).collect();
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, build_value(i)).unwrap();
        }
        (CuartIndex::build(&art, &CuartConfig::for_tests()), keys)
    }

    fn key(v: u64) -> Vec<u8> {
        v.to_be_bytes().to_vec()
    }

    #[test]
    fn last_write_wins_and_reads_follow_writes() {
        let (index, keys) = fixture();
        let oracle = Oracle::new(&keys, true);
        let mut m = ClientModel::default();
        let want = |m: &mut ClientModel, op: Op| oracle.expect(&index, m, &op);

        // Stored key 8 -> value 3; key 9 is absent.
        assert_eq!(
            want(&mut m, Op::Lookup(vec![key(8), key(9)])),
            Answer::Values(vec![3, NOT_FOUND])
        );
        // Duplicate update: the later op wins; a missing key misses.
        assert_eq!(
            want(
                &mut m,
                Op::Update(vec![(key(8), 70), (key(9), 1), (key(8), 71)])
            ),
            Answer::Values(vec![status::SUPERSEDED, status::MISS, status::APPLIED])
        );
        // Delete, then the key is gone for lookups and updates alike.
        assert_eq!(
            want(&mut m, Op::Update(vec![(key(12), DELETE)])),
            Answer::Values(vec![status::APPLIED])
        );
        assert_eq!(
            want(&mut m, Op::Update(vec![(key(12), 5)])),
            Answer::Values(vec![status::MISS])
        );
        // Insert of a new and of an existing key.
        assert_eq!(
            want(&mut m, Op::Insert(vec![(key(9), 90), (key(16), 91)])),
            Answer::Values(vec![insert_status::INSERTED, insert_status::UPDATED])
        );
        assert_eq!(
            want(&mut m, Op::Lookup(vec![key(8), key(9), key(12), key(16)])),
            Answer::Values(vec![71, 90, NOT_FOUND, 91])
        );
        // Range over [4, 16]: 4 untouched, 8 updated, 9 inserted, 12 deleted, 16 updated.
        assert_eq!(
            want(
                &mut m,
                Op::Range(vec![(key(4), key(16)), (key(16), key(4))])
            ),
            Answer::Rows(vec![
                vec![(key(4), 2), (key(8), 71), (key(9), 90), (key(16), 91)],
                vec![]
            ])
        );
    }

    #[test]
    fn spilled_inserts_count_as_stored_and_nothing_else_is_forgiven() {
        let want = Answer::Values(vec![insert_status::INSERTED, insert_status::UPDATED]);
        let spilled = Answer::Values(vec![insert_status::SPILLED, insert_status::UPDATED]);
        assert!(matches(true, &spilled, &want));
        assert!(!matches(false, &spilled, &want));
        let rejected = Answer::Values(vec![insert_status::REJECTED, insert_status::UPDATED]);
        assert!(!matches(true, &rejected, &want));
        assert!(!matches(true, &Answer::Failed("queue full".into()), &want));
        assert!(!matches(
            true,
            &Answer::Values(vec![insert_status::INSERTED]),
            &want
        ));
    }
}
