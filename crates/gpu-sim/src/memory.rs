//! Device memory: named, aligned buffers in one flat device address space.
//!
//! The CuART layout is a *structure of buffers* — one buffer per node type —
//! while GRT packs everything into a single buffer. Both are [`DeviceBuffer`]s
//! here. Each buffer receives a base address in a flat 64-bit device address
//! space so that the cache and DRAM-channel models can hash real addresses.

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// One allocation in device memory.
#[derive(Debug, Clone)]
pub struct DeviceBuffer {
    /// Debug name (shown in reports).
    pub name: String,
    /// Base address in the flat device address space.
    pub base: u64,
    /// Guaranteed alignment of `base` in bytes.
    pub align: usize,
    data: Vec<u8>,
}

impl DeviceBuffer {
    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw contents.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

/// The device's global memory: a set of buffers with stable base addresses.
#[derive(Debug, Default)]
pub struct DeviceMemory {
    buffers: Vec<DeviceBuffer>,
    next_base: u64,
}

/// Buffers are spaced out so that channel interleaving sees distinct
/// address regions (mirrors a real allocator's page granularity).
const BASE_ALIGN: u64 = 4096;

impl DeviceMemory {
    /// Empty device memory.
    pub fn new() -> Self {
        DeviceMemory {
            buffers: Vec::new(),
            // Non-zero so address 0 never aliases a valid access.
            next_base: BASE_ALIGN,
        }
    }

    /// Allocate a zero-initialised buffer of `len` bytes aligned to `align`.
    ///
    /// `align` must be a power of two. CuART guarantees ≥16-byte alignment
    /// for all node buffers (§3.2.1); GRT's single buffer has no such
    /// guarantee for the nodes *inside* it.
    pub fn alloc(&mut self, name: &str, len: usize, align: usize) -> BufferId {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align64 = (align as u64).max(1);
        let base = self.next_base.next_multiple_of(align64.max(BASE_ALIGN));
        self.next_base = (base + len as u64).next_multiple_of(BASE_ALIGN) + BASE_ALIGN;
        self.buffers.push(DeviceBuffer {
            name: name.to_string(),
            base,
            align,
            data: vec![0; len],
        });
        BufferId(self.buffers.len() - 1)
    }

    /// Allocate and fill from `data`.
    pub fn alloc_from(&mut self, name: &str, data: &[u8], align: usize) -> BufferId {
        let id = self.alloc(name, data.len(), align);
        self.buffers[id.0].data.copy_from_slice(data);
        id
    }

    /// Look up a buffer.
    pub fn buffer(&self, id: BufferId) -> &DeviceBuffer {
        &self.buffers[id.0]
    }

    /// Total allocated bytes.
    pub fn total_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.len()).sum()
    }

    /// Number of buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// The flat device address of `(buffer, offset)`.
    pub fn address(&self, id: BufferId, offset: usize) -> u64 {
        let buf = &self.buffers[id.0];
        debug_assert!(offset <= buf.len());
        buf.base + offset as u64
    }

    /// Read `len` bytes.
    pub fn read_bytes(&self, id: BufferId, offset: usize, len: usize) -> &[u8] {
        &self.buffers[id.0].data[offset..offset + len]
    }

    /// Read a little-endian u64.
    pub fn read_u64(&self, id: BufferId, offset: usize) -> u64 {
        // cuart-allow: panic-path read_bytes returns exactly 8 bytes
        u64::from_le_bytes(self.read_bytes(id, offset, 8).try_into().expect("8 bytes"))
    }

    /// Read a little-endian u32.
    pub fn read_u32(&self, id: BufferId, offset: usize) -> u32 {
        // cuart-allow: panic-path read_bytes returns exactly 4 bytes
        u32::from_le_bytes(self.read_bytes(id, offset, 4).try_into().expect("4 bytes"))
    }

    /// Read a little-endian u16.
    pub fn read_u16(&self, id: BufferId, offset: usize) -> u16 {
        // cuart-allow: panic-path read_bytes returns exactly 2 bytes
        u16::from_le_bytes(self.read_bytes(id, offset, 2).try_into().expect("2 bytes"))
    }

    /// Read one byte.
    pub fn read_u8(&self, id: BufferId, offset: usize) -> u8 {
        self.buffers[id.0].data[offset]
    }

    /// Mutable view of `len` bytes, for writers that fill a region in place.
    pub fn bytes_mut(&mut self, id: BufferId, offset: usize, len: usize) -> &mut [u8] {
        &mut self.buffers[id.0].data[offset..offset + len]
    }

    /// Write raw bytes.
    pub fn write_bytes(&mut self, id: BufferId, offset: usize, bytes: &[u8]) {
        self.bytes_mut(id, offset, bytes.len())
            .copy_from_slice(bytes);
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, id: BufferId, offset: usize, value: u64) {
        self.write_bytes(id, offset, &value.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn write_u32(&mut self, id: BufferId, offset: usize, value: u32) {
        self.write_bytes(id, offset, &value.to_le_bytes());
    }

    /// Write one byte.
    pub fn write_u8(&mut self, id: BufferId, offset: usize, value: u8) {
        self.buffers[id.0].data[offset] = value;
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
        mem.write_u32(id, 8, 0xAABBCCDD);
        mem.write_u8(id, 12, 0x7F);
        mem.write_bytes(id, 16, b"hello");
        assert_eq!(mem.read_u64(id, 0), 0x1122334455667788);
        assert_eq!(mem.read_u32(id, 8), 0xAABBCCDD);
        assert_eq!(mem.read_u16(id, 8), 0xCCDD);
        assert_eq!(mem.read_u8(id, 12), 0x7F);
        assert_eq!(mem.read_bytes(id, 16, 5), b"hello");
    }

    #[test]
    fn zero_initialised() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc("z", 256, 16);
        assert!(mem.buffer(id).bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn alloc_from_copies_data() {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc_from("f", &[1, 2, 3, 4], 16);
        assert_eq!(mem.read_bytes(id, 0, 4), &[1, 2, 3, 4]);
        assert_eq!(mem.total_bytes(), 4);
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
}
