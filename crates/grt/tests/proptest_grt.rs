//! Property tests: the packed GRT buffer must agree with the source ART
//! under arbitrary key sets and update streams.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers: a failed build is the test failing"
)]

use cuart_art::Art;
use cuart_gpu_sim::devices;
use cuart_grt::{map_art, GrtIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn art_of(keys: &[Vec<u8>]) -> Art<u64> {
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    art
}

proptest! {
    #[test]
    fn mapped_buffer_agrees_with_art(
        keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 6), 1..150)
    ) {
        let keys: Vec<Vec<u8>> = keys.into_iter().collect();
        let art = art_of(&keys);
        let buf = map_art(&art);
        prop_assert_eq!(buf.entries, keys.len());
        for k in &keys {
            prop_assert_eq!(cuart_grt::cpu::lookup(&buf, k), art.get(k).copied());
        }
        // Perturbed probes agree on hit/miss.
        for k in keys.iter().take(20) {
            let mut probe = k.clone();
            probe[5] ^= 0x0F;
            prop_assert_eq!(cuart_grt::cpu::lookup(&buf, &probe), art.get(&probe).copied());
        }
    }

    #[test]
    fn update_stream_converges_with_model(
        seed in 0u64..1000,
        rounds in 1usize..4,
    ) {
        let keys: Vec<Vec<u8>> = (0..200u64).map(|i| (i * 3).to_be_bytes().to_vec()).collect();
        let art = art_of(&keys);
        let mut index = GrtIndex::build(&art);
        let mut model: std::collections::HashMap<Vec<u8>, u64> =
            keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64 + 1)).collect();
        let dev = devices::a100();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..rounds {
            let ops: Vec<(Vec<u8>, u64)> = (0..50)
                .map(|_| {
                    let k = keys[rng.gen_range(0..keys.len())].clone();
                    (k, rng.gen_range(1..1_000_000u64))
                })
                .collect();
            index.update_batch(&ops, &dev);
            for (k, v) in &ops {
                model.insert(k.clone(), *v);
            }
        }
        for k in &keys {
            prop_assert_eq!(index.lookup_cpu(k), model.get(k).copied());
        }
    }

    #[test]
    fn buffer_size_accounting(keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 8), 1..100)) {
        let keys: Vec<Vec<u8>> = keys.into_iter().collect();
        let buf = map_art(&art_of(&keys));
        // Every key contributes at least its leaf record.
        let min: usize = keys.iter().map(|k| cuart_grt::layout::leaf_bytes(k.len())).sum();
        prop_assert!(buf.bytes.len() >= min);
        // And the buffer is finite/sane: < 3 KB per key for 8-byte keys.
        prop_assert!(buf.bytes.len() <= keys.len() * 3000 + 64);
    }
}
