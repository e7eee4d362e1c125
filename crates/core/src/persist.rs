//! Crash-safe index persistence: save/load the mapped CuART buffers.
//!
//! Mapping a large ART into the structure of buffers is the expensive
//! setup step of the paper's pipeline (§4.1). Persisting the mapped image
//! lets a process restart skip both the ART build and the map.
//!
//! # Format (version 2)
//!
//! ```text
//! header : MAGIC "CUARTIDX" (8 B) | version u32 LE | section_count u32 LE
//! section: payload_len u64 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! Fourteen sections: the config/scalar block, the nine arenas, the
//! sparse LUT, and the two host tables. Every section carries its own
//! IEEE CRC-32, so a torn write, truncation, or bit flip anywhere in the
//! file is detected at load time and rejected with
//! [`CuartError::SnapshotCorrupt`] instead of deserialising garbage.
//!
//! [`crc32`] is the workspace's one CRC-32 (CRC-32/ISO-HDLC, zlib's):
//! `cuart-net` checksums every wire frame with it too. It folds 16 bytes
//! per step through sixteen compile-time tables (slicing-by-16) and the
//! tail bytewise, about five times the speed of the bytewise table loop
//! and bit-identical to it.
//!
//! # Crash safety
//!
//! [`CuartIndex::save`] never writes the destination in place: the image
//! goes to a process-unique temporary file in the same directory, is
//! flushed and fsynced, and is then atomically renamed over the target.
//! A crash mid-save leaves either the old snapshot or no snapshot —
//! never a half-written one.
//!
//! ```
//! use cuart::{CuartConfig, CuartIndex};
//! use cuart_art::Art;
//!
//! let mut art = Art::new();
//! art.insert(b"key-0001", 7u64).unwrap();
//! let index = CuartIndex::build(&art, &CuartConfig::for_tests());
//!
//! let path = std::env::temp_dir().join("doc.cuart");
//! index.save(&path).unwrap();
//! let loaded = CuartIndex::load(&path).unwrap();
//! assert_eq!(loaded.lookup_cpu(b"key-0001"), Some(7));
//! assert!(cuart::persist::verify_snapshot(&path).is_ok());
//! ```

use crate::buffers::{CuartBuffers, CuartConfig, LongKeyPolicy};
use crate::error::CuartError;
use crate::link::NodeLink;
use crate::CuartIndex;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"CUARTIDX";
/// Current snapshot format version (see the module docs).
pub const VERSION: u32 = 2;
const SECTIONS: u32 = 14;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), sliced by 16; the tables are built at compile time
// so the crate stays free of external checksum dependencies.
// ---------------------------------------------------------------------

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// `tables[0]` is the classic bytewise table (the CRC of one byte);
/// `tables[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// one step folds 16 input bytes with 16 independent lookups.
const fn crc32_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; SLICE] = crc32_tables();

/// IEEE CRC-32 of `data` (the polynomial used by zip/png/ethernet; the
/// CRC-32/ISO-HDLC of the catalogues). Slicing-by-16: each step XORs the
/// running CRC into the next 16 bytes and looks each byte up in the
/// table for its distance from the end of the block; a tail shorter than
/// a block goes bytewise. Snapshot sections and wire frames both use it.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(SLICE);
    for b in &mut blocks {
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Section encoding helpers.
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    put_u64(out, data.len() as u64);
    out.extend_from_slice(data);
}

fn put_table(out: &mut Vec<u8>, table: &[(Vec<u8>, u64)]) {
    put_u64(out, table.len() as u64);
    for (k, v) in table {
        put_bytes(out, k);
        put_u64(out, *v);
    }
}

/// Bounds-checked reader over a fully-loaded snapshot. Every read that
/// would run past the end is a corruption, not a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CuartError> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            CuartError::corrupt(format!("{what}: length overflows the file offset"))
        })?;
        if end > self.buf.len() {
            return Err(CuartError::corrupt(format!(
                "{what}: need {n} bytes at offset {}, file has {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    #[expect(
        clippy::expect_used,
        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
    )]
    fn u32(&mut self, what: &str) -> Result<u32, CuartError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    #[expect(
        clippy::expect_used,
        reason = "the slice is cut to the exact field width, so the conversion cannot fail"
    )]
    fn u64(&mut self, what: &str) -> Result<u64, CuartError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn get_bytes<'a>(c: &mut Cursor<'a>, what: &str) -> Result<&'a [u8], CuartError> {
    let len = c.u64(what)? as usize;
    c.take(len, what)
}

fn get_table(c: &mut Cursor<'_>, what: &str) -> Result<Vec<(Vec<u8>, u64)>, CuartError> {
    let n = c.u64(what)? as usize;
    // Each entry is at least 16 bytes; reject counts the file cannot hold.
    if n.saturating_mul(16) > c.buf.len() {
        return Err(CuartError::corrupt(format!(
            "{what}: entry count {n} exceeds file capacity"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = get_bytes(c, what)?.to_vec();
        let v = c.u64(what)?;
        out.push((k, v));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Snapshot assembly / parsing.
// ---------------------------------------------------------------------

fn encode_sections(b: &CuartBuffers) -> Vec<Vec<u8>> {
    let mut sections = Vec::with_capacity(SECTIONS as usize);
    // Section 0: config + scalars.
    let mut meta = Vec::with_capacity(56);
    put_u64(&mut meta, b.config.lut_span as u64);
    put_u64(
        &mut meta,
        match b.config.long_key_policy {
            LongKeyPolicy::CpuRoute => 0,
            LongKeyPolicy::HostLeafLink => 1,
            LongKeyPolicy::DynamicLeaf => 2,
        },
    );
    put_u64(&mut meta, b.config.multi_layer_nodes as u64);
    put_u64(&mut meta, b.config.single_leaf_class as u64);
    put_u64(&mut meta, b.root.0);
    put_u64(&mut meta, b.entries as u64);
    put_u64(&mut meta, b.max_key_len as u64);
    sections.push(meta);
    // Sections 1–9: arenas (raw).
    for arena in [
        &b.n4,
        &b.n16,
        &b.n48,
        &b.n256,
        &b.n2l,
        &b.leaf8,
        &b.leaf16,
        &b.leaf32,
        &b.dyn_leaves,
    ] {
        sections.push(arena.to_vec());
    }
    // Section 10: LUT, stored sparsely (most of the 2^24 table is null).
    let mut lut = Vec::new();
    let occupied: Vec<(u64, u64)> = b
        .lut
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().unwrap_or_default()))
        .enumerate()
        .filter(|&(_, v)| v != 0)
        .map(|(i, v)| (i as u64, v))
        .collect();
    put_u64(&mut lut, occupied.len() as u64);
    for (slot, v) in occupied {
        put_u64(&mut lut, slot);
        put_u64(&mut lut, v);
    }
    sections.push(lut);
    // Sections 11–12: host tables.
    let mut short_keys = Vec::new();
    put_table(&mut short_keys, &b.short_keys);
    sections.push(short_keys);
    let mut host_leaves = Vec::new();
    put_table(&mut host_leaves, &b.host_leaves);
    sections.push(host_leaves);
    // Section 13: reserved trailer (empty; room for future metadata
    // without a version bump breaking old readers' section count).
    sections.push(Vec::new());
    sections
}

/// Split a raw snapshot into CRC-verified section payloads.
fn checked_sections(data: &[u8]) -> Result<Vec<&[u8]>, CuartError> {
    let mut c = Cursor::new(data);
    let magic = c.take(8, "magic")?;
    if magic != MAGIC {
        return Err(CuartError::corrupt("bad magic (not a CuART snapshot)"));
    }
    let version = c.u32("version")?;
    if version != VERSION {
        return Err(CuartError::corrupt(format!(
            "unsupported snapshot version {version} (this build reads {VERSION})"
        )));
    }
    let count = c.u32("section count")?;
    if count != SECTIONS {
        return Err(CuartError::corrupt(format!(
            "expected {SECTIONS} sections, header claims {count}"
        )));
    }
    let mut sections = Vec::with_capacity(count as usize);
    for i in 0..count {
        let what = format!("section {i}");
        let len = c.u64(&what)? as usize;
        let stored_crc = c.u32(&what)?;
        let payload = c.take(len, &what)?;
        let actual = crc32(payload);
        if actual != stored_crc {
            return Err(CuartError::corrupt(format!(
                "section {i}: CRC mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
            )));
        }
        sections.push(payload);
    }
    if !c.done() {
        return Err(CuartError::corrupt(format!(
            "{} trailing bytes after the last section",
            data.len() - c.pos
        )));
    }
    Ok(sections)
}

fn parse_buffers(sections: &[&[u8]]) -> Result<CuartBuffers, CuartError> {
    let mut meta = Cursor::new(sections[0]);
    let lut_span = meta.u64("lut_span")? as usize;
    if lut_span > 3 {
        return Err(CuartError::corrupt(format!(
            "lut_span {lut_span} out of range"
        )));
    }
    let long_key_policy = match meta.u64("long_key_policy")? {
        0 => LongKeyPolicy::CpuRoute,
        1 => LongKeyPolicy::HostLeafLink,
        2 => LongKeyPolicy::DynamicLeaf,
        p => return Err(CuartError::corrupt(format!("unknown long-key policy {p}"))),
    };
    let multi_layer_nodes = meta.u64("multi_layer_nodes")? != 0;
    let single_leaf_class = meta.u64("single_leaf_class")? != 0;
    let config = CuartConfig {
        lut_span,
        long_key_policy,
        multi_layer_nodes,
        single_leaf_class,
    };
    let root = NodeLink(meta.u64("root")?);
    let entries = meta.u64("entries")? as usize;
    let max_key_len = meta.u64("max_key_len")? as usize;
    if !meta.done() {
        return Err(CuartError::corrupt("config section has trailing bytes"));
    }
    let mut b = CuartBuffers::new(config);
    b.root = root;
    b.entries = entries;
    b.max_key_len = max_key_len;
    b.n4 = Arc::new(sections[1].to_vec());
    b.n16 = Arc::new(sections[2].to_vec());
    b.n48 = Arc::new(sections[3].to_vec());
    b.n256 = Arc::new(sections[4].to_vec());
    b.n2l = Arc::new(sections[5].to_vec());
    b.leaf8 = Arc::new(sections[6].to_vec());
    b.leaf16 = Arc::new(sections[7].to_vec());
    b.leaf32 = Arc::new(sections[8].to_vec());
    b.dyn_leaves = Arc::new(sections[9].to_vec());
    let mut lut = Cursor::new(sections[10]);
    let occupied = lut.u64("LUT occupancy")? as usize;
    for _ in 0..occupied {
        let slot = lut.u64("LUT slot")? as usize;
        let v = lut.u64("LUT value")?;
        if slot >= b.lut_slots() {
            return Err(CuartError::corrupt(format!(
                "LUT slot {slot} out of range ({} slots)",
                b.lut_slots()
            )));
        }
        b.set_lut(slot, v);
    }
    if !lut.done() {
        return Err(CuartError::corrupt("LUT section has trailing bytes"));
    }
    b.short_keys = get_table(&mut Cursor::new(sections[11]), "short-key table")?;
    b.host_leaves = get_table(&mut Cursor::new(sections[12]), "host-leaf table")?;
    Ok(b)
}

/// Summary returned by [`verify_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version of the verified file.
    pub version: u32,
    /// Number of CRC-verified sections.
    pub sections: u32,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Keys stored in the index (device + host side).
    pub entries: u64,
}

/// Fully validate a snapshot without keeping the index: header, every
/// section CRC, and a structural parse of all buffers. Returns a summary
/// on success; any corruption is a [`CuartError::SnapshotCorrupt`].
pub fn verify_snapshot(path: impl AsRef<Path>) -> Result<SnapshotInfo, CuartError> {
    let data = std::fs::read(path)?;
    let sections = checked_sections(&data)?;
    let b = parse_buffers(&sections)?;
    Ok(SnapshotInfo {
        version: VERSION,
        sections: SECTIONS,
        file_bytes: data.len() as u64,
        entries: b.entries as u64,
    })
}

impl CuartIndex {
    /// Serialise the mapped buffers to `path`, crash-safely: the image is
    /// written to a temporary file in the same directory, fsynced, then
    /// atomically renamed over `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CuartError> {
        let path = path.as_ref();
        let sections = encode_sections(self.buffers());
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&SECTIONS.to_le_bytes());
        for payload in &sections {
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        // Unique per process so concurrent savers never tear each other's
        // temporary; rename() then makes the publish atomic.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        Ok(result?)
    }

    /// Load an index previously written by [`save`](Self::save). Every
    /// section CRC is checked before any bytes are interpreted; torn,
    /// truncated or bit-flipped snapshots are rejected with
    /// [`CuartError::SnapshotCorrupt`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CuartError> {
        let data = std::fs::read(path)?;
        let sections = checked_sections(&data)?;
        Ok(CuartIndex::from_buffers(parse_buffers(&sections)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuart_art::Art;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cuart-persist-{name}-{}", std::process::id()))
    }

    fn sample(cfg: &CuartConfig) -> CuartIndex {
        let mut art = Art::new();
        for i in 0..3000u64 {
            art.insert(&(i * 7).to_be_bytes(), i).unwrap();
        }
        art.insert(&[3u8; 40], 999_999).unwrap(); // long key
        CuartIndex::build(&art, cfg)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let idx = sample(&CuartConfig::for_tests());
        let path = temp("roundtrip");
        idx.save(&path).unwrap();
        let loaded = CuartIndex::load(&path).unwrap();
        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.device_bytes(), idx.device_bytes());
        assert_eq!(loaded.buffers().config, idx.buffers().config);
        for i in (0..3000u64).step_by(17) {
            let k = (i * 7).to_be_bytes();
            assert_eq!(loaded.lookup_cpu(&k), idx.lookup_cpu(&k));
        }
        assert_eq!(loaded.lookup_cpu(&[3u8; 40]), Some(999_999));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_all_policies_and_flags() {
        for policy in [
            LongKeyPolicy::CpuRoute,
            LongKeyPolicy::HostLeafLink,
            LongKeyPolicy::DynamicLeaf,
        ] {
            let cfg = CuartConfig {
                lut_span: 2,
                long_key_policy: policy,
                multi_layer_nodes: true,
                single_leaf_class: false,
            };
            let idx = sample(&cfg);
            let path = temp("policies");
            idx.save(&path).unwrap();
            let loaded = CuartIndex::load(&path).unwrap();
            assert_eq!(loaded.buffers().config, cfg);
            assert_eq!(loaded.lookup_cpu(&[3u8; 40]), Some(999_999), "{policy:?}");
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn loaded_index_works_on_device() {
        let idx = sample(&CuartConfig::for_tests());
        let path = temp("device");
        idx.save(&path).unwrap();
        let loaded = CuartIndex::load(&path).unwrap();
        let dev = cuart_gpu_sim::devices::a100();
        let keys: Vec<Vec<u8>> = (0..100u64)
            .map(|i| (i * 7).to_be_bytes().to_vec())
            .collect();
        let (results, _) = loaded.lookup_batch_device(&dev, &keys, 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i as u64);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn garbage_rejected() {
        let path = temp("garbage");
        std::fs::write(&path, b"definitely not an index").unwrap();
        assert!(matches!(
            CuartIndex::load(&path),
            Err(CuartError::SnapshotCorrupt { .. })
        ));
        std::fs::write(&path, b"CUARTIDX").unwrap(); // truncated after magic
        assert!(matches!(
            CuartIndex::load(&path),
            Err(CuartError::SnapshotCorrupt { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let idx = sample(&CuartConfig::for_tests());
        let path = temp("truncate");
        idx.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop at a spread of prefixes, including mid-header and mid-CRC.
        for cut in [0, 4, 11, 15, 17, full.len() / 3, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(
                    CuartIndex::load(&path),
                    Err(CuartError::SnapshotCorrupt { .. })
                ),
                "truncation at {cut} must be rejected"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bit_flips_are_rejected() {
        let idx = sample(&CuartConfig::for_tests());
        let path = temp("bitflip");
        idx.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip one bit at a spread of offsets beyond the header; each must
        // trip a section CRC (or a structural check).
        for pos in [20usize, 40, full.len() / 2, full.len() - 2] {
            let mut copy = full.clone();
            copy[pos] ^= 0x10;
            std::fs::write(&path, &copy).unwrap();
            assert!(
                CuartIndex::load(&path).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
        // The pristine image still loads.
        std::fs::write(&path, &full).unwrap();
        assert!(CuartIndex::load(&path).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn verify_snapshot_reports_and_rejects() {
        let idx = sample(&CuartConfig::for_tests());
        let path = temp("verify");
        idx.save(&path).unwrap();
        let info = verify_snapshot(&path).unwrap();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.sections, SECTIONS);
        assert_eq!(info.entries, idx.len() as u64);
        assert_eq!(
            info.file_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "info must report the real file size"
        );
        let mut copy = std::fs::read(&path).unwrap();
        let mid = copy.len() / 2;
        copy[mid] ^= 0x01;
        std::fs::write(&path, &copy).unwrap();
        assert!(matches!(
            verify_snapshot(&path),
            Err(CuartError::SnapshotCorrupt { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let idx = sample(&CuartConfig::for_tests());
        let path = temp("notmp");
        idx.save(&path).unwrap();
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        assert!(!tmp.exists(), "temporary file must be renamed away");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sparse_lut_encoding_is_compact() {
        let idx = sample(&CuartConfig::for_tests());
        let path = temp("sparse");
        idx.save(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        // The dense LUT alone would be 512 KiB; the file must be far below
        // arenas + dense LUT.
        assert!(
            file_len < idx.device_bytes(),
            "file {} !< device bytes {}",
            file_len,
            idx.device_bytes()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // Captured on the parent of the copy-on-write image change (PR 26):
        // holding the LUT as little-endian bytes must not move one byte of
        // the format.
        let pinned = |cfg: &CuartConfig| {
            let path = temp("pinned");
            sample(cfg).save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(path).ok();
            (bytes.len(), crc32(&bytes))
        };
        assert_eq!(pinned(&CuartConfig::for_tests()), (128_256, 1_224_748_654));
        assert_eq!(pinned(&CuartConfig::default()), (128_256, 303_933_702));
    }

    /// The bytewise table loop `crc32` replaced: one table, one byte per
    /// step. Kept here as the reference the sliced form must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_equals_the_bytewise_reference(
            buf in proptest::collection::vec(proptest::any::<u8>(), 316),
            start in 0usize..16,
            len in 0usize..=300,
        ) {
            // The start offset moves the slice's alignment; the length
            // covers empty, tail-only and many-block inputs.
            let data = &buf[start..start + len];
            proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}
