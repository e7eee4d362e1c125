//! Synthetic BTC-2019 stand-in (Figure 12).
//!
//! The real Billion Triple Challenge dataset (Herrera, Hogan, Käfer 2019)
//! is tens of gigabytes of crawled RDF. The paper extracts "all keys of
//! 32 byte length" (15.4 M of them) and observes lower throughput than on
//! synthetic data because "long duplicate segments are quite common, which
//! adds computational overhead during prefix compression and increases the
//! overall tree depth" (§4.4).
//!
//! This generator reproduces exactly those structural properties with RDF
//! term shapes: a Zipf-skewed choice of namespace prefix (long shared
//! byte runs), repeated path segments, and an entity id — truncated or
//! padded to exactly 32 bytes.

use crate::keys::DistinctKeys;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;

/// Namespace prefixes mimicking common RDF hosts (long shared runs).
const NAMESPACES: &[&str] = &[
    "http://dbpedia.org/resource/",
    "http://dbpedia.org/ontology/",
    "http://www.wikidata.org/entity/",
    "http://xmlns.com/foaf/0.1/per",
    "http://schema.org/Organization/",
    "http://purl.org/dc/terms/subj",
    "http://www.w3.org/2002/07/owl#",
    "https://www.openstreetmap.org/",
];

/// Repeated path segments (the "long duplicate segments" of §4.4).
const SEGMENTS: &[&str] = &[
    "Category:",
    "Person/",
    "Place/",
    "node/",
    "Q",
    "item/",
    "rev/",
];

/// Zipf-ish index: heavy skew toward low indices.
fn zipf_index(rng: &mut StdRng, n: usize) -> usize {
    // Simple inverse-power transform (s ≈ 1): cheap and deterministic.
    let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
    let idx = ((n as f64).powf(u) - 1.0) as usize;
    idx.min(n - 1)
}

/// Hex digits of entity id preserved in every key, so the 32-byte
/// truncation never destroys uniqueness (12 hex chars = 2^48 ids per
/// prefix — ample for any generatable `n`).
const ID_CHARS: usize = 12;

/// `n` unique 32-byte BTC-like keys.
pub fn btc_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB7C2019);
    let mut out = DistinctKeys::with_capacity(n);
    let mut key = Vec::with_capacity(64);
    while out.len() < n {
        let ns = NAMESPACES[zipf_index(&mut rng, NAMESPACES.len())];
        let seg = SEGMENTS[zipf_index(&mut rng, SEGMENTS.len())];
        let id: u64 = rng.gen::<u64>() & 0xFFFF_FFFF_FFFF;
        // Long URI prefix truncated so the id always fits: exactly the
        // "long duplicate segments" shape of §4.4, without losing entropy.
        key.clear();
        key.extend_from_slice(ns.as_bytes());
        key.extend_from_slice(seg.as_bytes());
        key.truncate(32 - ID_CHARS);
        // Writing into a `Vec` cannot fail.
        let _ = write!(key, "{id:012x}");
        key.resize(32, b'_');
        out.insert(&key);
    }
    out.into_keys()
}

/// Structural summary used by tests and the figure harness to verify the
/// generator has the §4.4 properties.
#[derive(Debug, Clone, Copy)]
pub struct BtcProfile {
    /// Mean length of the longest common prefix between lexicographic
    /// neighbours.
    pub mean_neighbor_lcp: f64,
    /// Fraction of keys sharing the most popular 8-byte prefix.
    pub top_prefix_share: f64,
}

/// Profile a key set.
pub fn profile(keys: &[Vec<u8>]) -> BtcProfile {
    let mut sorted: Vec<&Vec<u8>> = keys.iter().collect();
    sorted.sort();
    let mut total_lcp = 0usize;
    for w in sorted.windows(2) {
        total_lcp += w[0]
            .iter()
            .zip(w[1].iter())
            .take_while(|(a, b)| a == b)
            .count();
    }
    let mean_neighbor_lcp = if sorted.len() > 1 {
        total_lcp as f64 / (sorted.len() - 1) as f64
    } else {
        0.0
    };
    let mut counts = std::collections::HashMap::new();
    for k in keys {
        *counts.entry(&k[..8.min(k.len())]).or_insert(0usize) += 1;
    }
    let top = counts.values().copied().max().unwrap_or(0);
    BtcProfile {
        mean_neighbor_lcp,
        top_prefix_share: top as f64 / keys.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::uniform_keys;
    use std::collections::HashSet;

    #[test]
    fn keys_are_unique_32_bytes() {
        let keys = btc_keys(5000, 1);
        assert_eq!(keys.len(), 5000);
        assert!(keys.iter().all(|k| k.len() == 32));
        let set: HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), 5000);
    }

    #[test]
    fn deterministic() {
        assert_eq!(btc_keys(500, 9), btc_keys(500, 9));
        assert_ne!(btc_keys(500, 9), btc_keys(500, 10));
    }

    #[test]
    fn much_longer_shared_prefixes_than_uniform() {
        let btc = profile(&btc_keys(4000, 2));
        let uni = profile(&uniform_keys(4000, 32, 2));
        // §4.4: long duplicate segments -> deep shared prefixes.
        assert!(
            btc.mean_neighbor_lcp > uni.mean_neighbor_lcp * 4.0,
            "btc lcp {} vs uniform {}",
            btc.mean_neighbor_lcp,
            uni.mean_neighbor_lcp
        );
        assert!(btc.mean_neighbor_lcp > 10.0);
    }

    #[test]
    fn skewed_namespace_distribution() {
        let p = profile(&btc_keys(4000, 3));
        // The Zipf skew concentrates a visible share on one namespace.
        assert!(p.top_prefix_share > 0.2, "share {}", p.top_prefix_share);
    }

    #[test]
    fn keys_are_prefix_free_by_fixed_length() {
        let keys = btc_keys(1000, 4);
        // Fixed 32-byte length: no key can prefix another.
        let mut art = cuart_art_check(&keys);
        assert_eq!(art.len(), 1000);
        assert!(art.get(&keys[17]).is_some());
        art.remove(&keys[17]);
        assert_eq!(art.len(), 999);
    }

    fn cuart_art_check(keys: &[Vec<u8>]) -> cuart_art::Art<u64> {
        let mut art = cuart_art::Art::new();
        for (i, k) in keys.iter().enumerate() {
            art.insert(k, i as u64)
                .expect("fixed-length keys are prefix-free");
        }
        art
    }
}
