//! CPU reference lookup over the packed GRT buffer.
//!
//! Functionally identical to the GPU kernel in [`kernels`](crate::kernels);
//! used as the correctness oracle in tests and by the hybrid host pipeline.

use crate::layout::{self, tag, GrtBuffer, EMPTY48, HEADER_BYTES, PREFIX_CAP};

/// Look up `key`; returns its value if present.
pub fn lookup(buf: &GrtBuffer, key: &[u8]) -> Option<u64> {
    lookup_value_offset(buf, key).map(|off| buf.u64_at(off))
}

/// Look up `key`; returns the byte offset of its **value** field inside the
/// buffer. This is what the host-side update engine patches.
pub fn lookup_value_offset(buf: &GrtBuffer, key: &[u8]) -> Option<usize> {
    if buf.is_empty() || key.is_empty() {
        return None;
    }
    let mut off = buf.root as usize;
    let mut depth = 0usize;
    loop {
        let t = buf.u8_at(off);
        if t == tag::LEAF {
            let len = buf.u16_at(off + 1) as usize;
            let stored = buf.slice(off + layout::LEAF_HEADER_BYTES, len);
            return (stored == key).then_some(off + layout::LEAF_HEADER_BYTES + len);
        }
        // Inner node: check the stored prefix bytes, skip the rest
        // optimistically (the leaf verifies the full key).
        let prefix_len = buf.u8_at(off + 2) as usize;
        let stored = prefix_len.min(PREFIX_CAP);
        if key.len() < depth + prefix_len {
            return None;
        }
        if buf.slice(off + 3, stored) != &key[depth..depth + stored] {
            return None;
        }
        depth += prefix_len;
        if depth >= key.len() {
            return None;
        }
        let b = key[depth];
        let next = match t {
            tag::N4 | tag::N16 => {
                let cap = if t == tag::N4 { 4 } else { 16 };
                let count = (buf.u8_at(off + 1) as usize).min(cap);
                let keys = buf.slice(off + HEADER_BYTES, count);
                match keys.iter().position(|&k| k == b) {
                    Some(i) => buf.u64_at(off + layout::offsets_at(t) + i * 8),
                    None => 0,
                }
            }
            tag::N48 => {
                let slot = buf.u8_at(off + HEADER_BYTES + b as usize);
                if slot == EMPTY48 {
                    0
                } else {
                    buf.u64_at(off + layout::offsets_at(t) + slot as usize * 8)
                }
            }
            tag::N256 => buf.u64_at(off + layout::offsets_at(t) + b as usize * 8),
            #[expect(
                clippy::panic,
                reason = "caller contract documented on the function: only validated classes reach here"
            )]
            _ => panic!("corrupt GRT buffer: tag {t} at offset {off}"),
        };
        if next == 0 {
            return None;
        }
        off = next as usize;
        depth += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::map_art;
    use cuart_art::Art;

    #[test]
    fn empty_buffer_misses() {
        assert_eq!(lookup(&GrtBuffer::empty(), b"x"), None);
    }

    #[test]
    fn empty_key_misses() {
        let mut art = Art::new();
        art.insert(b"a", 1u64).unwrap();
        assert_eq!(lookup(&map_art(&art), b""), None);
    }

    #[test]
    fn agrees_with_art_on_random_keys() {
        let mut art = Art::new();
        let mut x = 42u64;
        let mut keys = Vec::new();
        for i in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x.to_be_bytes().to_vec();
            art.insert(&key, i).unwrap();
            keys.push(key);
        }
        let buf = map_art(&art);
        for k in &keys {
            assert_eq!(lookup(&buf, k).as_ref(), art.get(k), "key {k:x?}");
        }
        // Misses agree too.
        for i in 0..100u64 {
            let probe = (i | 0xDEAD_0000_0000_0000).to_be_bytes();
            assert_eq!(lookup(&buf, &probe).as_ref(), art.get(&probe));
        }
    }

    #[test]
    fn key_shorter_than_path_misses() {
        let mut art = Art::new();
        art.insert(b"abcdef", 1u64).unwrap();
        art.insert(b"abcxyz", 2).unwrap();
        let buf = map_art(&art);
        assert_eq!(lookup(&buf, b"abc"), None);
        assert_eq!(lookup(&buf, b"ab"), None);
    }
}
