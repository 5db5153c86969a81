//! Slab allocator for the data region (§4.1).
//!
//! "Because the data region is random-access in nature, the memory pool for
//! DataEntries is governed by a slab-based allocator and tuned to the
//! deployment's workload. Slabs can be repurposed to different size classes
//! as values come and go."
//!
//! The allocator carves the data region into fixed-size slabs; each slab is
//! bound to a size class (power-of-two slots) while it has live slots and
//! returns to the shared free pool when it empties — that is the
//! repurposing. Allocation never touches the bytes themselves; offsets are
//! handed to the backend, which writes DataEntries through the
//! [`RegionTable`](rma::RegionTable). The allocator's *capacity* tracks the
//! populated prefix of the data buffer, so on-demand region growth (§4.1
//! reshaping) is just `set_capacity` with a larger value.

use simnet::IdMap;

/// Default slab size: 64 KiB.
pub const DEFAULT_SLAB_BYTES: usize = 64 * 1024;
/// Smallest slot class.
pub const MIN_SLOT: usize = 64;

/// Outcome of an allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No space: the caller should evict or grow the region.
    OutOfMemory,
    /// The request can never be satisfied (zero or absurd length).
    Unsatisfiable,
}

#[derive(Debug)]
struct Slab {
    /// Size class index, or `HUGE` for multi-slab allocations.
    class: u32,
    /// Free slot indices within this slab.
    free_slots: Vec<u32>,
    /// Live slot count.
    live: u32,
}

const HUGE: u32 = u32::MAX;

/// Slab allocator over a contiguous byte range `[0, capacity)`.
#[derive(Debug)]
pub struct SlabAllocator {
    slab_bytes: usize,
    /// Slot size per class: MIN_SLOT << i.
    class_slots: Vec<usize>,
    /// Per-class stack of slab indices that (may) have free slots.
    partial: Vec<Vec<usize>>,
    /// Every slab below the bump pointer, by slab index; `None` while the
    /// slab sits in the free pool.
    slabs: Vec<Option<Slab>>,
    /// Fully-free slab indices, available to any class.
    free_slabs: Vec<usize>,
    /// Bump pointer (bytes) for carving new slabs.
    next_slab: usize,
    /// Populated capacity in bytes.
    capacity: usize,
    /// Huge allocations: start slab index -> slab count.
    huge: IdMap<usize, usize>,
    /// Bytes currently allocated (slot-rounded).
    used: usize,
}

impl SlabAllocator {
    /// Create an allocator over `capacity` bytes with the default slab size.
    pub fn new(capacity: usize) -> SlabAllocator {
        SlabAllocator::with_slab_size(capacity, DEFAULT_SLAB_BYTES)
    }

    /// Create with an explicit slab size (power of two, >= MIN_SLOT).
    pub fn with_slab_size(capacity: usize, slab_bytes: usize) -> SlabAllocator {
        assert!(slab_bytes.is_power_of_two() && slab_bytes >= MIN_SLOT);
        let mut class_slots = Vec::new();
        let mut s = MIN_SLOT;
        while s <= slab_bytes {
            class_slots.push(s);
            s *= 2;
        }
        let n = class_slots.len();
        SlabAllocator {
            slab_bytes,
            class_slots,
            partial: vec![Vec::new(); n],
            slabs: Vec::new(),
            free_slabs: Vec::new(),
            next_slab: 0,
            capacity,
            huge: IdMap::default(),
            used: 0,
        }
    }

    /// The size class (slot bytes) a request of `len` lands in, or `None`
    /// for huge requests.
    pub fn class_of(&self, len: usize) -> Option<usize> {
        self.class_slots.iter().position(|&s| s >= len)
    }

    /// Slot size that a request of `len` actually consumes.
    pub fn rounded_size(&self, len: usize) -> usize {
        match self.class_of(len) {
            Some(c) => self.class_slots[c],
            None => len.div_ceil(self.slab_bytes) * self.slab_bytes,
        }
    }

    /// Allocate `len` bytes; returns the byte offset.
    pub fn alloc(&mut self, len: usize) -> Result<u64, AllocError> {
        if len == 0 {
            return Err(AllocError::Unsatisfiable);
        }
        match self.class_of(len) {
            Some(class) => self.alloc_small(class),
            None => self.alloc_huge(len),
        }
    }

    fn alloc_small(&mut self, class: usize) -> Result<u64, AllocError> {
        let slot_bytes = self.class_slots[class];
        // Reuse a slot in a partially-filled slab of this class.
        while let Some(&slab_idx) = self.partial[class].last() {
            // Entries go stale when a slab empties and is repurposed; skip.
            let Some(slab) = self.slabs[slab_idx].as_mut() else {
                self.partial[class].pop();
                continue;
            };
            if slab.class != class as u32 || slab.free_slots.is_empty() {
                // Stale entry (slab was repurposed or filled); drop it.
                self.partial[class].pop();
                continue;
            }
            let slot = slab.free_slots.pop().expect("checked non-empty");
            slab.live += 1;
            if slab.free_slots.is_empty() {
                self.partial[class].pop();
            }
            self.used += slot_bytes;
            return Ok((slab_idx * self.slab_bytes + slot as usize * slot_bytes) as u64);
        }
        // Bind a fresh slab to this class.
        let slab_idx = self.take_free_slab()?;
        let slots = (self.slab_bytes / slot_bytes) as u32;
        let mut free_slots: Vec<u32> = (1..slots).rev().collect();
        free_slots.shrink_to_fit();
        self.slabs[slab_idx] = Some(Slab {
            class: class as u32,
            free_slots,
            live: 1,
        });
        if slots > 1 {
            self.partial[class].push(slab_idx);
        }
        self.used += slot_bytes;
        Ok((slab_idx * self.slab_bytes) as u64)
    }

    fn alloc_huge(&mut self, len: usize) -> Result<u64, AllocError> {
        let k = len.div_ceil(self.slab_bytes);
        // Huge allocations need k *contiguous* slabs; take them from the
        // bump frontier (free slabs are not necessarily adjacent).
        let start_byte = self.next_slab * self.slab_bytes;
        if start_byte + k * self.slab_bytes > self.capacity {
            return Err(AllocError::OutOfMemory);
        }
        let start = self.next_slab;
        self.next_slab += k;
        self.slabs.extend((0..k).map(|_| {
            Some(Slab {
                class: HUGE,
                free_slots: Vec::new(),
                live: 1,
            })
        }));
        self.huge.insert(start, k);
        self.used += k * self.slab_bytes;
        Ok((start * self.slab_bytes) as u64)
    }

    fn take_free_slab(&mut self) -> Result<usize, AllocError> {
        if let Some(idx) = self.free_slabs.pop() {
            return Ok(idx);
        }
        if (self.next_slab + 1) * self.slab_bytes <= self.capacity {
            let idx = self.next_slab;
            self.next_slab += 1;
            self.slabs.push(None);
            return Ok(idx);
        }
        Err(AllocError::OutOfMemory)
    }

    /// Free an allocation made with `alloc(len)` at `offset`.
    pub fn free(&mut self, offset: u64, len: usize) {
        let offset = offset as usize;
        let slab_idx = offset / self.slab_bytes;
        if let Some(&k) = self.huge.get(&slab_idx) {
            debug_assert_eq!(offset % self.slab_bytes, 0);
            self.huge.remove(&slab_idx);
            for i in slab_idx..slab_idx + k {
                self.slabs[i] = None;
                self.free_slabs.push(i);
            }
            self.used -= k * self.slab_bytes;
            return;
        }
        let slab = self
            .slabs
            .get_mut(slab_idx)
            .and_then(Option::as_mut)
            .expect("free of unallocated slab");
        let class = slab.class as usize;
        let slot_bytes = self.class_slots[class];
        debug_assert!(len <= slot_bytes, "free size mismatch");
        let slot = ((offset % self.slab_bytes) / slot_bytes) as u32;
        debug_assert!(
            !slab.free_slots.contains(&slot),
            "double free at offset {offset}"
        );
        slab.live -= 1;
        self.used -= slot_bytes;
        if slab.live == 0 {
            // Repurposing: the emptied slab returns to the shared pool.
            self.slabs[slab_idx] = None;
            self.free_slabs.push(slab_idx);
        } else {
            let was_full = slab.free_slots.is_empty();
            slab.free_slots.push(slot);
            if was_full {
                self.partial[class].push(slab_idx);
            }
        }
    }

    /// Grow (or, at restart, reset) the populated capacity.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(
            capacity >= self.next_slab * self.slab_bytes,
            "cannot shrink below carved slabs at runtime"
        );
        self.capacity = capacity;
    }

    /// Populated capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated (rounded to slot sizes).
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Utilization in [0, 1] against populated capacity.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        self.used as f64 / self.capacity as f64
    }

    /// Whether an allocation of `len` would currently succeed, without
    /// performing it.
    pub fn can_alloc(&self, len: usize) -> bool {
        if len == 0 {
            return false;
        }
        match self.class_of(len) {
            Some(class) => {
                self.partial[class].iter().any(|&i| {
                    self.slabs[i]
                        .as_ref()
                        .is_some_and(|s| s.class == class as u32 && !s.free_slots.is_empty())
                }) || !self.free_slabs.is_empty()
                    || (self.next_slab + 1) * self.slab_bytes <= self.capacity
            }
            None => {
                let k = len.div_ceil(self.slab_bytes);
                (self.next_slab + k) * self.slab_bytes <= self.capacity
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_alloc() -> SlabAllocator {
        SlabAllocator::with_slab_size(4096, 1024)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = small_alloc();
        let o1 = a.alloc(100).unwrap();
        let o2 = a.alloc(100).unwrap();
        assert_ne!(o1, o2);
        assert_eq!(a.used_bytes(), 256); // two 128B slots
        a.free(o1, 100);
        a.free(o2, 100);
        assert_eq!(a.used_bytes(), 0);
    }

    #[test]
    fn distinct_offsets_no_overlap() {
        let mut a = SlabAllocator::with_slab_size(1 << 20, 4096);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for i in 0..1000 {
            let len = 64 + (i % 500);
            let off = a.alloc(len).unwrap();
            let size = a.rounded_size(len) as u64;
            for &(s, e) in &ranges {
                assert!(off + size <= s || off >= e, "overlap at {off}");
            }
            ranges.push((off, off + size));
        }
    }

    #[test]
    fn exhaustion_then_recovery() {
        let mut a = small_alloc(); // 4 slabs of 1024
        let mut offs = Vec::new();
        loop {
            match a.alloc(1000) {
                Ok(o) => offs.push(o),
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("{e:?}"),
            }
        }
        assert_eq!(offs.len(), 4);
        assert!(!a.can_alloc(1000));
        a.free(offs.pop().unwrap(), 1000);
        assert!(a.can_alloc(1000));
        assert!(a.alloc(1000).is_ok());
    }

    #[test]
    fn slab_repurposing_across_classes() {
        let mut a = small_alloc();
        // Fill everything with 1024B slots.
        let offs: Vec<u64> = (0..4).map(|_| a.alloc(1024).unwrap()).collect();
        assert!(!a.can_alloc(64));
        // Free one slab; it must now serve small slots.
        a.free(offs[0], 1024);
        let small: Vec<u64> = (0..16).map(|_| a.alloc(64).unwrap()).collect();
        // All sixteen 64B slots fit inside the single repurposed slab.
        let slab_base = offs[0];
        for &o in &small {
            assert!(o >= slab_base && o < slab_base + 1024);
        }
    }

    #[test]
    fn huge_allocation_spans_slabs() {
        let mut a = SlabAllocator::with_slab_size(16 * 1024, 1024);
        let o = a.alloc(3_000).unwrap(); // 3 slabs
        assert_eq!(o % 1024, 0);
        assert_eq!(a.used_bytes(), 3 * 1024);
        a.free(o, 3_000);
        assert_eq!(a.used_bytes(), 0);
        // The freed slabs are reusable for small allocations.
        for _ in 0..10 {
            a.alloc(512).unwrap();
        }
    }

    #[test]
    fn capacity_growth_enables_allocation() {
        let mut a = SlabAllocator::with_slab_size(1024, 1024);
        let _ = a.alloc(512).unwrap();
        assert!(!a.can_alloc(1024));
        assert!(matches!(a.alloc(1024), Err(AllocError::OutOfMemory)));
        a.set_capacity(4096);
        assert!(a.can_alloc(1024));
        assert!(a.alloc(1024).is_ok());
        assert_eq!(a.capacity(), 4096);
    }

    #[test]
    fn zero_len_rejected() {
        let mut a = small_alloc();
        assert_eq!(a.alloc(0), Err(AllocError::Unsatisfiable));
        assert!(!a.can_alloc(0));
    }

    #[test]
    fn utilization_tracks() {
        let mut a = SlabAllocator::with_slab_size(2048, 1024);
        assert_eq!(a.utilization(), 0.0);
        let o = a.alloc(1024).unwrap();
        assert!((a.utilization() - 0.5).abs() < 1e-9);
        a.free(o, 1024);
        assert_eq!(a.utilization(), 0.0);
    }

    #[test]
    fn rounded_size_classes() {
        let a = small_alloc();
        assert_eq!(a.rounded_size(1), 64);
        assert_eq!(a.rounded_size(64), 64);
        assert_eq!(a.rounded_size(65), 128);
        assert_eq!(a.rounded_size(1024), 1024);
        assert_eq!(a.rounded_size(1025), 2048); // huge: 2 slabs
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let mut a = small_alloc();
        let o1 = a.alloc(64).unwrap();
        let _o2 = a.alloc(64).unwrap(); // keep the slab partially live
        a.free(o1, 64);
        a.free(o1, 64);
    }
}
