//! The generators' outputs, pinned byte for byte.
//!
//! Figures, goldens and the benchmark's indexes are built from these keys,
//! so a change to how a generator draws or deduplicates must leave every
//! key, and the order of the keys, as it was. Each case hashes the whole
//! output (FNV-1a 64 over each key's length and bytes, in order) for a
//! fixed `(n, len, seed)`; the cases with tiny key spaces reject most
//! draws as duplicates.

use cuart_workloads::{btc_keys, long_key_mix, uniform_keys};

fn fnv(keys: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for key in keys {
        for &b in (key.len() as u32).to_le_bytes().iter().chain(key) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn uniform_keys_are_pinned() {
    let cases: [(usize, usize, u64, u64); 6] = [
        (50_000, 8, 1, 0xe29c_c923_529c_517a),
        (20_000, 16, 7, 0xf420_0386_7c55_e5af),
        (5_000, 32, 3, 0xe9db_e038_fe35_8219),
        (1_000, 4, 2, 0x645c_cde7_2246_5648),
        (40_000, 2, 5, 0x470d_d7f1_d2fe_ac2c),
        (200, 1, 9, 0x028b_cbf3_dc43_53a9),
    ];
    for (n, len, seed, want) in cases {
        let got = fnv(&uniform_keys(n, len, seed));
        assert_eq!(got, want, "uniform_keys({n}, {len}, {seed}): {got:#018x}");
    }
}

#[test]
fn long_key_mixes_are_pinned() {
    let cases: [(usize, usize, usize, f64, u64, u64); 3] = [
        (4_000, 16, 48, 0.25, 42, 0x3624_d99f_76d5_2bd2),
        (3_000, 2, 40, 0.1, 3, 0x7e2d_66cd_4b45_44e9),
        (500, 8, 40, 1.0, 1, 0x3ee7_47ab_f383_c4ee),
    ];
    for (n, short, long, frac, seed, want) in cases {
        let got = fnv(&long_key_mix(n, short, long, frac, seed));
        assert_eq!(
            got, want,
            "long_key_mix({n}, {short}, {long}, {frac}, {seed}): {got:#018x}"
        );
    }
}

#[test]
fn btc_keys_are_pinned() {
    for (n, seed, want) in [
        (5_000usize, 1u64, 0x431a_1ea9_bfd2_07a4u64),
        (20_000, 4, 0x917b_24e3_b3d9_d5ab),
    ] {
        let got = fnv(&btc_keys(n, seed));
        assert_eq!(got, want, "btc_keys({n}, {seed}): {got:#018x}");
    }
}
