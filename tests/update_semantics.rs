//! Update/delete semantics across engines: the two-stage device kernel
//! must answer and apply a batch exactly like the one oracle
//! (`cuart_integration_tests::Model`, §3.4's priority rule), deletes free
//! their slots for good, and GRT's host-side updates converge to the
//! device engine's state for conflict-free batches.

use cuart::update::status;
use cuart::{CuartConfig, CuartIndex, DELETE};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::devices;
use cuart_grt::GrtIndex;
use cuart_integration_tests::Model;
use cuart_workloads::{uniform_keys, UpdateStream};
use proptest::prelude::*;

fn build(keys: &[Vec<u8>]) -> (Art<u64>, CuartIndex) {
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    let cuart = CuartIndex::build(&art, &CuartConfig::for_tests());
    (art, cuart)
}

/// The model of the pairs `art` holds.
fn model_of(art: &Art<u64>) -> Model {
    art.iter().map(|(k, v)| (k, *v)).collect()
}

#[test]
fn batched_updates_match_reference_over_many_rounds() {
    let keys = uniform_keys(2000, 8, 21);
    let (art, cuart) = build(&keys);
    let mut model = model_of(&art);
    let dev = devices::a100();
    let mut session = cuart.device_session_with_table(&dev, 1 << 14);
    let mut us = UpdateStream::new(keys.clone(), 0.2, 0.3, 99);
    for round in 0..5 {
        let ops = us.next_batch(512, DELETE);
        let (statuses, _) = session.update_batch(&ops).unwrap();
        assert_eq!(statuses, model.update(&ops), "round {round} statuses");
        // Verify every key's state through the device lookup kernel.
        let (results, _) = session.lookup_batch(&keys).unwrap();
        let want = model.lookup(&keys);
        for ((k, got), want) in keys.iter().zip(&results).zip(&want) {
            assert_eq!(got, want, "round {round}, key {k:x?}");
        }
    }
}

#[test]
fn deleted_keys_free_slots_and_stay_deleted() {
    let keys = uniform_keys(500, 16, 31);
    let (_, cuart) = build(&keys);
    let dev = devices::rtx3090();
    let mut session = cuart.device_session(&dev);
    let victims: Vec<(Vec<u8>, u64)> = keys[..100].iter().map(|k| (k.clone(), DELETE)).collect();
    let (statuses, _) = session.update_batch(&victims).unwrap();
    assert!(statuses.iter().all(|&s| s == status::APPLIED));
    assert_eq!(session.free_count(cuart::link::LinkType::Leaf16), 100);
    // Deleted keys miss; survivors unaffected.
    let (results, _) = session.lookup_batch(&keys).unwrap();
    for (i, r) in results.iter().enumerate() {
        if i < 100 {
            assert_eq!(*r, NOT_FOUND, "victim {i} still visible");
        } else {
            assert_eq!(*r, i as u64 + 1, "survivor {i} damaged");
        }
    }
    // Deleting again is a miss, not a double-free.
    let (statuses, _) = session.update_batch(&victims[..10]).unwrap();
    assert!(statuses.iter().all(|&s| s == status::MISS));
    assert_eq!(session.free_count(cuart::link::LinkType::Leaf16), 100);
}

#[test]
fn grt_and_cuart_converge_on_conflict_free_batches() {
    let keys = uniform_keys(800, 8, 41);
    let (art, cuart) = build(&keys);
    let mut grt = GrtIndex::build(&art);
    let dev = devices::a100();
    let mut session = cuart.device_session(&dev);
    // Conflict-free value updates (each key once).
    let ops: Vec<(Vec<u8>, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), 10_000 + i as u64))
        .collect();
    session.update_batch(&ops).unwrap();
    grt.update_batch(&ops, &dev);
    let (cu_results, _) = session.lookup_batch(&keys).unwrap();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(cu_results[i], 10_000 + i as u64);
        assert_eq!(grt.lookup_cpu(k), Some(10_000 + i as u64));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn update_kernel_matches_reference_semantics(
        ops_spec in prop::collection::vec((0usize..60, prop::option::of(0u64..1000)), 1..120),
    ) {
        // 60 fixed keys; ops pick (key index, Some(value) | None=delete).
        let keys = uniform_keys(60, 8, 77);
        let (art, cuart) = build(&keys);
        let mut model = model_of(&art);
        let ops: Vec<(Vec<u8>, u64)> = ops_spec
            .iter()
            .map(|(i, v)| (keys[*i].clone(), v.unwrap_or(DELETE)))
            .collect();
        let dev = devices::a100();
        let mut session = cuart.device_session_with_table(&dev, 1 << 10);
        let (statuses, _) = session.update_batch(&ops).unwrap();
        prop_assert_eq!(statuses, model.update(&ops));
        let (results, _) = session.lookup_batch(&keys).unwrap();
        prop_assert_eq!(results, model.lookup(&keys));
    }
}
