//! Device memory: named, aligned buffers in one flat device address space.
//!
//! The CuART layout is a *structure of buffers* — one buffer per node type —
//! while GRT packs everything into a single buffer. Both are [`DeviceBuffer`]s
//! here. Each buffer receives a base address in a flat 64-bit device address
//! space so that the cache and DRAM-channel models can hash real addresses.
//!
//! # One image, shared copy-on-write
//!
//! A buffer is the host image it was [`upload`](DeviceMemory::upload)ed
//! from plus the chunks the device has written. The paper keeps one coherent
//! set of buffers for host and device (§3.3 uses unified memory); this is
//! the simulator's form of that. An upload clones the image's `Arc` and
//! allocates one flag per chunk — no image byte is copied — so every session,
//! shard and recovery re-upload of one index shares it. An
//! [`alloc`](DeviceMemory::alloc)ed buffer is an upload of nothing: zeros
//! that cost no memory until written.
//!
//! * A chunk is 2^k whole records of the stride the buffer was uploaded with
//!   (about one host page), so a read inside one record never straddles a
//!   written/unwritten boundary and [`get`](DeviceMemory::get) returns one
//!   slice. The chunk of an offset is a shift and, for strides that are not
//!   a power of two, a multiply-high by a precomputed reciprocal — never a
//!   divide.
//! * A read tests its chunk's flag and takes its slice from the image or
//!   from the buffer's private backing — and tests nothing while no flag or
//!   every flag is set (a lookup session's index; warm staging). Bytes past
//!   the image's end (leaf headroom) read as zeros until written.
//! * The first write allocates the private backing (full length, zeroed; a
//!   large zeroed allocation is handed out untouched, so unwritten chunks
//!   cost no resident memory) and owns the chunks past the image at once;
//!   the first write to a chunk with image bytes copies that one chunk.
//!
//! This is host storage only. Base addresses, lengths and every access
//! the timing model sees are those of a private copy, so no modeled
//! number depends on it. [`shared_bytes`](DeviceMemory::shared_bytes) and
//! [`owned_bytes`](DeviceMemory::owned_bytes) say how much of the uploaded
//! images is still shared and how much was copied, kept current in O(1) per
//! first write.

use std::sync::Arc;

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// Bytes a chunk aims at: one host page.
const CHUNK_TARGET: usize = 4096;

/// What an unwritten chunk past its image's end reads as.
static ZEROS: [u8; CHUNK_TARGET] = [0; CHUNK_TARGET];

/// How offsets of an uploaded buffer map to chunks:
/// `chunk = ((offset >> shift) × magic) >> 64`.
#[derive(Debug, Clone, Copy)]
struct Chunking {
    shift: u32,
    magic: u64,
    /// Bytes per chunk.
    bytes: usize,
}

impl Chunking {
    /// Chunks of 2^k records of `stride` bytes, k the largest with
    /// `stride · 2^k ≤ CHUNK_TARGET` (k = 0 for wider records). Stride 0
    /// (records of varying size) makes the whole `len`-byte buffer one chunk.
    fn new(stride: usize, len: usize) -> Self {
        if stride == 0 {
            // Every valid offset shifts to 0.
            return Chunking {
                shift: usize::BITS - 1,
                magic: 1 << 63,
                bytes: len.max(1),
            };
        }
        let bytes = stride << (CHUNK_TARGET / stride).max(1).ilog2();
        let twos = bytes.trailing_zeros();
        match (bytes >> twos) as u64 {
            // x / 2^t = (x >> (t - 1)) · 2^63 >> 64: the same multiply-high
            // as the odd strides, so a read never branches on the stride.
            // `bytes` is a power of two ≥ CHUNK_TARGET here, so t ≥ 1.
            1 => Chunking {
                shift: twos - 1,
                magic: 1 << 63,
                bytes,
            },
            // Division by an odd d as a multiply-high by ⌈2^64 / d⌉: exact
            // for every operand below 2^32 (Lemire, Kaser & Kurz 2019), which
            // `DeviceMemory::upload` checks against the buffer's length.
            odd => Chunking {
                shift: twos,
                magic: u64::MAX / odd + 1,
                bytes,
            },
        }
    }

    #[inline]
    fn of(&self, offset: usize) -> usize {
        ((u128::from((offset >> self.shift) as u64) * u128::from(self.magic)) >> 64) as usize
    }
}

/// One allocation in device memory: the image it was uploaded from plus the
/// chunks the device has written.
#[derive(Debug, Clone)]
pub struct DeviceBuffer {
    /// Base address in the flat device address space.
    pub base: u64,
    len: usize,
    /// Set flags of `written`: the two common states — nothing written,
    /// everything written — need no chunk index.
    written_count: usize,
    /// What unwritten chunks read: the uploaded image, zeros past its end
    /// (all of an `alloc`ed buffer, whose image is empty).
    image: Arc<Vec<u8>>,
    /// The private backing: empty until the first write, then full-length
    /// with the written chunks valid.
    own: Vec<u8>,
    chunks: Chunking,
    /// One flag per chunk, set once the buffer owns it; from then on its
    /// bytes live in `own`.
    written: Vec<bool>,
    /// Guaranteed alignment of `base` in bytes.
    pub align: usize,
    /// Debug name (shown in reports).
    pub name: String,
}

impl DeviceBuffer {
    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk `offset` falls in.
    pub fn chunk_of(&self, offset: usize) -> usize {
        self.chunks.of(offset)
    }

    /// Chunks holding image bytes.
    fn image_chunks(&self) -> usize {
        self.image.len().div_ceil(self.chunks.bytes)
    }

    /// Chunks the device's writes copied out of the image.
    pub fn copied_chunks(&self) -> usize {
        self.written[..self.image_chunks()]
            .iter()
            .filter(|&&w| w)
            .count()
    }

    #[inline]
    fn is_written(&self, chunk: usize) -> bool {
        self.written.get(chunk).copied().unwrap_or(false)
    }

    /// `len` bytes at `offset` as one slice (see [`DeviceMemory::get`]).
    #[inline(always)]
    pub fn get(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let end = offset.checked_add(len)?;
        // The states a buffer spends most of its life in need no chunk index:
        // written all over (staging, once warm; the backing is full-length),
        // or never written (an index arena under lookups).
        if self.written_count == self.written.len() {
            return self.own.get(offset..end);
        }
        if self.written_count == 0 {
            if let Some(bytes) = self.image.get(offset..end) {
                return Some(bytes);
            }
            return self.get_chunked(offset, end);
        }
        // Partly written: inside one chunk — any read of one record — its
        // flag picks the slice.
        let chunk = self.chunks.of(offset);
        if end <= (chunk + 1) * self.chunks.bytes {
            let source = if self.is_written(chunk) {
                &self.own
            } else {
                &*self.image
            };
            if let Some(bytes) = source.get(offset..end) {
                return Some(bytes);
            }
        }
        self.get_chunked(offset, end)
    }

    /// [`get`](Self::get) across chunks, and past an image's end.
    #[inline(never)]
    fn get_chunked(&self, offset: usize, end: usize) -> Option<&[u8]> {
        if end > self.len {
            return None;
        }
        let chunk = self.chunks.of(offset);
        let written = self.is_written(chunk);
        if end > (chunk + 1) * self.chunks.bytes {
            let last = self.chunks.of(end - 1);
            if (chunk + 1..=last).any(|c| self.is_written(c) != written) {
                return None;
            }
        }
        if written {
            return self.own.get(offset..end);
        }
        match self.image.get(offset..end) {
            Some(bytes) => Some(bytes),
            None if offset >= self.image.len() => ZEROS.get(..end - offset),
            None => None,
        }
    }

    /// [`get`](Self::get)'s fallback for a copy: chunk by chunk.
    #[cold]
    #[inline(never)]
    fn copy_across(&self, offset: usize, dst: &mut [u8]) {
        let end = offset.saturating_add(dst.len());
        assert!(
            end <= self.len,
            "read of {offset}..{end} past the end of `{}` ({} bytes)",
            self.name,
            self.len
        );
        let mut at = offset;
        while at < end {
            let chunk = self.chunks.of(at);
            let stop = end.min((chunk + 1) * self.chunks.bytes);
            let out = &mut dst[at - offset..stop - offset];
            if self.is_written(chunk) {
                out.copy_from_slice(&self.own[at..stop]);
            } else {
                let imaged = stop.min(self.image.len()).max(at);
                let (from_image, past_it) = out.split_at_mut(imaged - at);
                from_image.copy_from_slice(self.image.get(at..imaged).unwrap_or_default());
                past_it.fill(0);
            }
            at = stop;
        }
    }

    /// Make `offset..offset + len` writable: allocate the backing on the
    /// first write and copy in every unwritten chunk the span touches.
    /// Returns the image bytes copied, which are no longer shared.
    #[inline(always)]
    fn own_span(&mut self, offset: usize, len: usize) -> usize {
        if self.written_count == self.written.len() {
            return 0;
        }
        let chunk = self.chunks.of(offset);
        if offset + len <= (chunk + 1) * self.chunks.bytes && self.is_written(chunk) {
            return 0;
        }
        self.own_chunks(offset, len)
    }

    #[inline(never)]
    fn own_chunks(&mut self, offset: usize, len: usize) -> usize {
        let Some(last) = (offset + len).checked_sub(1).filter(|&l| l < self.len) else {
            return 0; // empty, or out of bounds: the caller's slice reports it
        };
        if self.own.is_empty() {
            // The backing reads as the zeros the chunks past the image read
            // as, so those are the buffer's own from here on (all of an
            // `alloc`ed buffer): a buffer whose image chunks are all written
            // reads without a chunk index. Untouched pages cost no memory.
            self.own = vec![0; self.len];
            let past_image = self.image_chunks();
            self.written[past_image..].fill(true);
            self.written_count = self.written.len() - past_image;
        }
        let mut copied = 0;
        for chunk in self.chunks.of(offset)..=self.chunks.of(last) {
            if self.is_written(chunk) {
                continue;
            }
            let start = chunk * self.chunks.bytes;
            let imaged = (start + self.chunks.bytes).min(self.image.len());
            self.own[start..imaged].copy_from_slice(&self.image[start..imaged]);
            self.written[chunk] = true;
            self.written_count += 1;
            copied += imaged - start;
        }
        copied
    }
}

/// The device's global memory: a set of buffers with stable base addresses.
#[derive(Debug, Default)]
pub struct DeviceMemory {
    buffers: Vec<DeviceBuffer>,
    next_base: u64,
    /// Image bytes still read in place, and image bytes copied out.
    shared_bytes: usize,
    owned_bytes: usize,
}

/// Buffers are spaced out so that channel interleaving sees distinct
/// address regions (mirrors a real allocator's page granularity).
const BASE_ALIGN: u64 = 4096;

impl DeviceMemory {
    /// Empty device memory.
    pub fn new() -> Self {
        DeviceMemory {
            // Non-zero so address 0 never aliases a valid access.
            next_base: BASE_ALIGN,
            ..DeviceMemory::default()
        }
    }

    /// Allocate a zero-initialised buffer of `len` bytes aligned to `align`:
    /// an upload of nothing, so its memory is allocated on its first write.
    ///
    /// `align` must be a power of two. CuART guarantees ≥16-byte alignment
    /// for all node buffers (§3.2.1); GRT's single buffer has no such
    /// guarantee for the nodes *inside* it.
    pub fn alloc(&mut self, name: &str, len: usize, align: usize) -> BufferId {
        self.upload(name, &Arc::default(), 0, len, align)
    }

    /// Allocate and fill with a copy of `data`.
    pub fn alloc_from(&mut self, name: &str, data: &[u8], align: usize) -> BufferId {
        let id = self.alloc(name, data.len(), align);
        self.write_bytes(id, 0, data);
        id
    }

    /// Upload `image` into a `len`-byte buffer (`len ≥ image.len()`; the
    /// rest reads as zeros) of records `stride` bytes wide (0: of varying
    /// size) — by sharing it, see the module docs. Costs O(chunks) and
    /// copies nothing; the device's writes never reach `image`.
    pub fn upload(
        &mut self,
        name: &str,
        image: &Arc<Vec<u8>>,
        stride: usize,
        len: usize,
        align: usize,
    ) -> BufferId {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(len >= image.len(), "`{name}` is shorter than its image");
        let chunks = Chunking::new(stride, len);
        // The reciprocal is exact for quotient operands below 2^32.
        assert!(
            len >> chunks.shift <= u32::MAX as usize,
            "`{name}` is too large to chunk"
        );
        let count = len.checked_sub(1).map_or(0, |last| chunks.of(last) + 1);
        let align64 = (align as u64).max(1);
        let base = self.next_base.next_multiple_of(align64.max(BASE_ALIGN));
        self.next_base = (base + len as u64).next_multiple_of(BASE_ALIGN) + BASE_ALIGN;
        self.shared_bytes += image.len();
        self.buffers.push(DeviceBuffer {
            name: name.to_string(),
            base,
            align,
            len,
            image: Arc::clone(image),
            chunks,
            written: vec![false; count],
            written_count: 0,
            own: Vec::new(),
        });
        BufferId(self.buffers.len() - 1)
    }

    /// Look up a buffer.
    pub fn buffer(&self, id: BufferId) -> &DeviceBuffer {
        &self.buffers[id.0]
    }

    /// Image bytes the buffers still read in place.
    pub fn shared_bytes(&self) -> usize {
        self.shared_bytes
    }

    /// Image bytes the buffers hold a copy of: those of the chunks the
    /// device has written. `shared_bytes() + owned_bytes()` is the total
    /// uploaded, always.
    pub fn owned_bytes(&self) -> usize {
        self.owned_bytes
    }

    /// Number of buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Every buffer's handle, in allocation order.
    pub fn buffer_ids(&self) -> impl Iterator<Item = BufferId> {
        (0..self.buffers.len()).map(BufferId)
    }

    /// The flat device address of `(buffer, offset)`.
    #[inline]
    pub fn address(&self, id: BufferId, offset: usize) -> u64 {
        let buf = &self.buffers[id.0];
        debug_assert!(offset <= buf.len());
        buf.base + offset as u64
    }

    /// `len` bytes at `offset` as one borrowed slice; `None` out of bounds,
    /// or where the span mixes chunks the device has written with ones it
    /// has not (never inside one record of the stride it was uploaded with),
    /// or is wider than a page of unwritten zeros.
    #[inline]
    pub fn get(&self, id: BufferId, offset: usize, len: usize) -> Option<&[u8]> {
        self.buffers.get(id.0)?.get(offset, len)
    }

    /// Copy the bytes at `offset` into `dst`. Panics out of bounds.
    #[inline]
    pub fn read_into(&self, id: BufferId, offset: usize, dst: &mut [u8]) {
        let buf = &self.buffers[id.0];
        match buf.get(offset, dst.len()) {
            Some(bytes) => dst.copy_from_slice(bytes),
            None => buf.copy_across(offset, dst),
        }
    }

    /// `N` bytes at `offset`, as a value: a fixed-width load, not a copy of
    /// unknown length.
    #[inline]
    fn read_array<const N: usize>(&self, id: BufferId, offset: usize) -> [u8; N] {
        let buf = &self.buffers[id.0];
        match buf.get(offset, N).map(<[u8; N]>::try_from) {
            Some(Ok(word)) => word,
            _ => {
                let mut word = [0; N];
                buf.copy_across(offset, &mut word);
                word
            }
        }
    }

    /// Read a little-endian u64.
    #[inline]
    pub fn read_u64(&self, id: BufferId, offset: usize) -> u64 {
        u64::from_le_bytes(self.read_array(id, offset))
    }

    /// Read a little-endian u32.
    #[inline]
    pub fn read_u32(&self, id: BufferId, offset: usize) -> u32 {
        u32::from_le_bytes(self.read_array(id, offset))
    }

    /// Read a little-endian u16.
    #[inline]
    pub fn read_u16(&self, id: BufferId, offset: usize) -> u16 {
        u16::from_le_bytes(self.read_array(id, offset))
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, id: BufferId, offset: usize) -> u8 {
        let [byte] = self.read_array(id, offset);
        byte
    }

    /// Mutable view of `len` bytes, for writers that fill a region in place.
    /// This is a write: every chunk the span touches becomes the buffer's own.
    #[inline]
    pub fn bytes_mut(&mut self, id: BufferId, offset: usize, len: usize) -> &mut [u8] {
        let buf = &mut self.buffers[id.0];
        let copied = buf.own_span(offset, len);
        if copied > 0 {
            self.owned_bytes += copied;
            self.shared_bytes -= copied;
        }
        if len == 0 {
            return &mut [];
        }
        &mut buf.own[offset..offset + len]
    }

    /// Write raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, id: BufferId, offset: usize, bytes: &[u8]) {
        self.bytes_mut(id, offset, bytes.len())
            .copy_from_slice(bytes);
    }

    /// Write `bytes` at `offset`: a fixed-width store.
    #[inline]
    fn write_array<const N: usize>(&mut self, id: BufferId, offset: usize, bytes: [u8; N]) {
        // `bytes_mut` hands back exactly `N` bytes, or panics.
        if let Ok(dst) = <&mut [u8; N]>::try_from(self.bytes_mut(id, offset, N)) {
            *dst = bytes;
        }
    }

    /// Write a little-endian u64.
    #[inline]
    pub fn write_u64(&mut self, id: BufferId, offset: usize, value: u64) {
        self.write_array(id, offset, value.to_le_bytes());
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, id: BufferId, offset: usize, value: u8) {
        self.write_array(id, offset, [value]);
    }

    /// Atomic compare-and-swap on a u64 (the simulator executes threads
    /// sequentially, so device atomicity is trivially preserved). Returns
    /// the previous value.
    pub fn atomic_cas_u64(&mut self, id: BufferId, offset: usize, expected: u64, new: u64) -> u64 {
        let old = self.read_u64(id, offset);
        if old == expected {
            self.write_u64(id, offset, new);
        }
        old
    }

    /// Atomic max on a u64; returns the previous value.
    pub fn atomic_max_u64(&mut self, id: BufferId, offset: usize, value: u64) -> u64 {
        let old = self.read_u64(id, offset);
        if value > old {
            self.write_u64(id, offset, value);
        }
        old
    }

    /// Atomic add on a u64; returns the previous value.
    pub fn atomic_add_u64(&mut self, id: BufferId, offset: usize, value: u64) -> u64 {
        let old = self.read_u64(id, offset);
        self.write_u64(id, offset, old.wrapping_add(value));
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut mem = DeviceMemory::new();
        for (i, align) in [16usize, 32, 4096, 64].into_iter().enumerate() {
            let id = mem.alloc(&format!("b{i}"), 100, align);
            assert_eq!(mem.buffer(id).base % align as u64, 0);
        }
    }

    #[test]
    fn buffers_do_not_overlap() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 1000, 16);
        let b = mem.alloc("b", 1000, 16);
        let (abase, bbase) = (mem.buffer(a).base, mem.buffer(b).base);
        assert!(abase + 1000 <= bbase || bbase + 1000 <= abase);
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc("x", 64, 16);
        mem.write_u64(id, 0, 0x1122334455667788);
        mem.write_bytes(id, 8, &0xAABBCCDDu32.to_le_bytes());
        mem.write_u8(id, 12, 0x7F);
        mem.write_bytes(id, 16, b"hello");
        assert_eq!(mem.read_u64(id, 0), 0x1122334455667788);
        assert_eq!(mem.read_u32(id, 8), 0xAABBCCDD);
        assert_eq!(mem.read_u16(id, 8), 0xCCDD);
        assert_eq!(mem.read_u8(id, 12), 0x7F);
        assert_eq!(mem.get(id, 16, 5).unwrap(), b"hello");
    }

    #[test]
    fn zero_initialised() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc("z", 256, 16);
        assert!(mem.get(id, 0, 256).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn alloc_from_copies_data() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc_from("f", &[1, 2, 3, 4], 16);
        assert_eq!(mem.get(id, 0, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(mem.buffer(id).len(), 4);
    }

    #[test]
    fn atomics() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc("a", 8, 16);
        assert_eq!(mem.atomic_cas_u64(id, 0, 0, 42), 0);
        assert_eq!(mem.read_u64(id, 0), 42);
        // Failed CAS leaves the value untouched.
        assert_eq!(mem.atomic_cas_u64(id, 0, 0, 99), 42);
        assert_eq!(mem.read_u64(id, 0), 42);
        assert_eq!(mem.atomic_max_u64(id, 0, 10), 42);
        assert_eq!(mem.read_u64(id, 0), 42);
        assert_eq!(mem.atomic_max_u64(id, 0, 100), 42);
        assert_eq!(mem.read_u64(id, 0), 100);
        assert_eq!(mem.atomic_add_u64(id, 0, 5), 100);
        assert_eq!(mem.read_u64(id, 0), 105);
    }

    #[test]
    fn address_is_base_plus_offset() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc("a", 128, 16);
        assert_eq!(mem.address(id, 40), mem.buffer(id).base + 40);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc("a", 8, 16);
        mem.read_u64(id, 4);
    }

    #[test]
    fn chunk_index_is_the_quotient_for_every_stride() {
        for stride in [
            1usize, 8, 24, 32, 48, 64, 160, 656, 2064, 4096, 8192, 524_304,
        ] {
            let c = Chunking::new(stride, 1 << 30);
            assert_eq!(c.bytes % stride, 0, "stride {stride}");
            assert!((c.bytes / stride).is_power_of_two(), "stride {stride}");
            for offset in (0..1 << 22).step_by(7).chain([(1 << 30) - 1]) {
                assert_eq!(
                    c.of(offset),
                    offset / c.bytes,
                    "stride {stride}, offset {offset}"
                );
            }
        }
        let whole = Chunking::new(0, 1000);
        assert_eq!((whole.of(0), whole.of(999), whole.bytes), (0, 0, 1000));
    }

    #[test]
    fn an_upload_shares_until_written_and_never_writes_its_image() {
        let image = Arc::new((0..10_000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let mut mem = DeviceMemory::new();
        let id = mem.upload("up", &image, 24, 12_000, 32);
        assert_eq!((mem.shared_bytes(), mem.owned_bytes()), (10_000, 0));
        assert_eq!(mem.get(id, 24, 24).unwrap(), &image[24..48]);
        assert_eq!(
            mem.get(id, 10_008, 24).unwrap(),
            &[0; 24],
            "headroom reads as zeros"
        );
        mem.write_u64(id, 24, u64::MAX);
        let chunk = mem.buffer(id).chunk_of(24);
        assert_eq!((chunk, mem.buffer(id).copied_chunks()), (0, 1));
        assert_eq!(
            (mem.shared_bytes(), mem.owned_bytes()),
            (10_000 - 3072, 3072)
        );
        mem.write_u64(id, 48, 1);
        assert_eq!(mem.owned_bytes(), 3072, "a chunk is copied once");
        assert_eq!(mem.read_u64(id, 24), u64::MAX);
        assert_eq!(
            mem.get(id, 56, 16).unwrap(),
            &image[56..72],
            "the chunk was copied"
        );
        assert_eq!(image[24], 24, "the image is untouched");
        // A copy across the written/unwritten boundary still reads right;
        // a borrowed slice across it does not exist.
        let mut across = [0u8; 16];
        mem.read_into(id, 3064, &mut across);
        assert_eq!(&across[..8], &image[3064..3072]);
        assert_eq!(&across[8..], &image[3072..3080]);
        assert!(mem.get(id, 3064, 16).is_none());
        // Writing headroom copies the image bytes its chunk holds.
        mem.write_u8(id, 11_000, 9);
        assert_eq!(mem.read_u8(id, 11_000), 9);
        assert_eq!(mem.owned_bytes(), 3072 + (10_000 - 9216));
        assert_eq!(mem.shared_bytes() + mem.owned_bytes(), 10_000);
    }

    #[test]
    fn an_alloc_costs_nothing_until_written() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc("scratch", 1 << 24, 32);
        assert_eq!(mem.read_u64(id, 8 << 20), 0);
        mem.write_u64(id, 8 << 20, 5);
        assert_eq!((mem.read_u64(id, 8 << 20), mem.read_u64(id, 0)), (5, 0));
        assert_eq!(mem.buffer(id).copied_chunks(), 0);
        assert_eq!(
            (mem.shared_bytes(), mem.owned_bytes()),
            (0, 0),
            "no image bytes"
        );
    }
}
