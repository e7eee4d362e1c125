//! Property tests for the CuART buffers: mapping agreement, LUT
//! invariants, session ops vs a reference model (mixed inserts, updates,
//! deletes over many batches).

#![allow(
    clippy::unwrap_used,
    reason = "test helpers: a failed build is the test failing"
)]

use cuart::insert::insert_status;
use cuart::link::{LinkType, NodeLink};
use cuart::mapper::lut_slot;
use cuart::update::status;
use cuart::{CuartConfig, CuartIndex, DELETE};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::devices;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn art_of(keys: &[Vec<u8>]) -> Art<u64> {
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    art
}

proptest! {
    #[test]
    fn cpu_engine_agrees_with_art(
        keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 10), 1..120),
        span in 0usize..3,
    ) {
        let keys: Vec<Vec<u8>> = keys.into_iter().collect();
        let art = art_of(&keys);
        let cfg = CuartConfig { lut_span: span, ..CuartConfig::for_tests() };
        let idx = CuartIndex::build(&art, &cfg);
        for k in &keys {
            prop_assert_eq!(idx.lookup_cpu(k), art.get(k).copied(), "span {}", span);
        }
    }

    #[test]
    fn lut_entries_are_sound(
        keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 5), 1..100)
    ) {
        // Every stored key's LUT slot must be non-null; every null slot
        // must mean "no key with that prefix".
        let keys: Vec<Vec<u8>> = keys.into_iter().collect();
        let idx = CuartIndex::build(&art_of(&keys), &CuartConfig::for_tests());
        let b = idx.buffers();
        for k in &keys {
            let slot = lut_slot(k, 2);
            prop_assert!(!NodeLink(b.lut_entry(slot)).is_null(), "key {:x?} has null LUT slot", k);
        }
        let prefixes: std::collections::HashSet<usize> =
            keys.iter().map(|k| lut_slot(k, 2)).collect();
        for slot in 0..b.lut_slots() {
            if b.lut_entry(slot) != 0 {
                // Some stored key must own this prefix.
                prop_assert!(prefixes.contains(&slot), "orphan LUT slot {slot:#x}");
            }
        }
    }

    #[test]
    fn leaf_arenas_are_sorted_per_class(
        keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 7), 2..150)
    ) {
        let keys: Vec<Vec<u8>> = keys.into_iter().collect();
        let idx = CuartIndex::build(&art_of(&keys), &CuartConfig::for_tests());
        let b = idx.buffers();
        for class in [LinkType::Leaf8, LinkType::Leaf16, LinkType::Leaf32] {
            let mut prev: Option<Vec<u8>> = None;
            for i in 0..b.record_count(class) {
                let rec = b.record(class, i as u64);
                let len = rec[cuart::layout::leaf::len_at(class)] as usize;
                let key = rec[..len].to_vec();
                if let Some(p) = &prev {
                    prop_assert!(p < &key, "arena {class:?} out of order at {i}");
                }
                prev = Some(key);
            }
        }
    }

    #[test]
    fn session_mixed_ops_match_model(
        ops_spec in prop::collection::vec(
            (0u8..80, prop::option::of(1u64..1_000_000), any::<bool>()),
            1..100,
        ),
    ) {
        // 40 pre-loaded keys + 40 fresh candidates. Each op: (key id,
        // Some(v)=write | None=delete, insert_or_update flag).
        let preloaded: Vec<Vec<u8>> = (0..40u64).map(|i| (i * 2).to_be_bytes().to_vec()).collect();
        let fresh: Vec<Vec<u8>> = (0..40u64)
            .map(|i| (0xF000_0000_0000_0000u64 | i).to_be_bytes().to_vec())
            .collect();
        let art = art_of(&preloaded);
        let idx = CuartIndex::build(&art, &CuartConfig::for_tests());
        let dev = devices::a100();
        let mut session = idx.device_session_with_table(&dev, 1 << 12);
        let mut model: BTreeMap<Vec<u8>, u64> =
            preloaded.iter().enumerate().map(|(i, k)| (k.clone(), i as u64 + 1)).collect();

        for (kid, val, is_insert) in &ops_spec {
            let key = if *kid < 40 {
                preloaded[*kid as usize].clone()
            } else {
                fresh[*kid as usize - 40].clone()
            };
            match (val, is_insert) {
                (Some(v), true) => {
                    let (st, _) = session.insert_batch(&[(key.clone(), *v)]).unwrap();
                    prop_assert_ne!(st[0], insert_status::REJECTED);
                    model.insert(key, *v);
                }
                (Some(v), false) => {
                    let (st, _) = session.update_batch(&[(key.clone(), *v)]).unwrap();
                    if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(key) {
                        prop_assert_eq!(st[0], status::APPLIED);
                        e.insert(*v);
                    } else {
                        prop_assert_eq!(st[0], status::MISS);
                    }
                }
                (None, _) => {
                    let (st, _) = session.update_batch(&[(key.clone(), DELETE)]).unwrap();
                    if model.remove(&key).is_some() {
                        prop_assert_eq!(st[0], status::APPLIED);
                    } else {
                        prop_assert_eq!(st[0], status::MISS);
                    }
                }
            }
        }
        // Final state agrees for every key ever touched.
        let mut all = preloaded.clone();
        all.extend(fresh);
        let (results, _) = session.lookup_batch(&all).unwrap();
        for (k, got) in all.iter().zip(&results) {
            prop_assert_eq!(*got, model.get(k).copied().unwrap_or(NOT_FOUND), "key {:x?}", k);
        }
    }
}
