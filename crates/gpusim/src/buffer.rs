//! Device-global memory buffers.
//!
//! A [`DeviceBuffer`] owns typed storage plus a *simulated base address*
//! used by the coalescing analysis (so that accesses to different buffers
//! never alias a cache line). Every element lives in the atomic integer of
//! its width as its bit pattern, and all element access — from kernel
//! threads and from the host — is a relaxed atomic load or store. That
//! keeps even a misbehaving (racy) kernel free of undefined behaviour in
//! the simulator; the optional race detector then reports such kernels
//! instead of the process corrupting itself.

use crate::ctx::ThreadCtx;
use perfport_half::F16;
use std::convert::identity;
use std::mem::size_of;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Element types storable in device memory: `f64`, `f32`, [`F16`] and the
/// unsigned integers `u64`, `u32`, `u8`. Each stores its bit pattern in
/// the atomic of matching width.
pub trait DeviceCopy: Copy + Send + Sync + 'static {
    /// The atomic holding one element's bits.
    type Cell: Send + Sync;

    /// Wraps `self` in a fresh cell.
    fn into_cell(self) -> Self::Cell;

    /// Relaxed atomic load of the element in `cell`.
    fn load(cell: &Self::Cell) -> Self;

    /// Relaxed atomic store of `value` into `cell`.
    fn store(cell: &Self::Cell, value: Self);
}

macro_rules! device_copy {
    ($($t:ty => $atomic:ident($to_bits:path, $from_bits:path)),* $(,)?) => {$(
        impl DeviceCopy for $t {
            type Cell = $atomic;

            #[inline]
            fn into_cell(self) -> $atomic {
                $atomic::new($to_bits(self))
            }

            #[inline]
            fn load(cell: &$atomic) -> Self {
                $from_bits(cell.load(Ordering::Relaxed))
            }

            #[inline]
            fn store(cell: &$atomic, value: Self) {
                cell.store($to_bits(value), Ordering::Relaxed)
            }
        }
    )*};
}

device_copy! {
    f64 => AtomicU64(f64::to_bits, f64::from_bits),
    u64 => AtomicU64(identity, identity),
    f32 => AtomicU32(f32::to_bits, f32::from_bits),
    u32 => AtomicU32(identity, identity),
    F16 => AtomicU16(F16::to_bits, F16::from_bits),
    u8 => AtomicU8(identity, identity),
}

/// A typed allocation in simulated device-global memory.
pub struct DeviceBuffer<T: DeviceCopy> {
    data: Box<[T::Cell]>,
    base: u64,
    id: u32,
}

impl<T: DeviceCopy> DeviceBuffer<T> {
    pub(crate) fn new(id: u32, base: u64, host: impl IntoIterator<Item = T>) -> Self {
        let data = host.into_iter().map(T::into_cell).collect();
        DeviceBuffer { data, base, id }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The simulated device address of element 0.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Allocation id within its [`crate::Gpu`].
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Simulated address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base + (idx * size_of::<T>()) as u64
    }

    /// Device-side load: returns element `idx` and records the access on
    /// the calling thread (for coalescing analysis and traffic counters).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access — the simulator's equivalent of
    /// `CUDA_ERROR_ILLEGAL_ADDRESS`.
    #[inline]
    pub fn read(&self, ctx: &ThreadCtx, idx: usize) -> T {
        assert!(
            idx < self.data.len(),
            "illegal device address: load at index {idx} of buffer {} (len {})",
            self.id,
            self.data.len()
        );
        ctx.record_load(self.addr_of(idx), size_of::<T>() as u8);
        T::load(&self.data[idx])
    }

    /// Device-side store of `value` into element `idx`, recording the
    /// access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn write(&self, ctx: &ThreadCtx, idx: usize, value: T) {
        assert!(
            idx < self.data.len(),
            "illegal device address: store at index {idx} of buffer {} (len {})",
            self.id,
            self.data.len()
        );
        ctx.record_store(self.addr_of(idx), size_of::<T>() as u8);
        T::store(&self.data[idx], value)
    }

    /// Host-side read (no traffic recorded) — a `cudaMemcpy` back.
    pub fn get(&self, idx: usize) -> T {
        assert!(idx < self.data.len(), "host read out of bounds");
        T::load(&self.data[idx])
    }

    /// Host-side write (no traffic recorded).
    pub fn set(&self, idx: usize, value: T) {
        assert!(idx < self.data.len(), "host write out of bounds");
        T::store(&self.data[idx], value)
    }

    /// Copies the whole buffer back to the host.
    pub fn to_host(&self) -> Vec<T> {
        self.data.iter().map(T::load).collect()
    }
}

/// Element types supporting device atomics (`atomicAdd`).
pub trait DeviceAtomicAdd: DeviceCopy {
    /// Atomically adds `value` to the element in `cell`, returning the
    /// previous value.
    fn fetch_add(cell: &Self::Cell, value: Self) -> Self;
}

impl DeviceAtomicAdd for u32 {
    fn fetch_add(cell: &AtomicU32, value: u32) -> u32 {
        cell.fetch_add(value, Ordering::Relaxed)
    }
}

impl DeviceAtomicAdd for u64 {
    fn fetch_add(cell: &AtomicU64, value: u64) -> u64 {
        cell.fetch_add(value, Ordering::Relaxed)
    }
}

// Floats add through a compare-exchange loop on the bit pattern — how
// pre-sm_60 atomicAdd(double) is implemented, and exactly equivalent to
// the hardware instruction's result.

impl DeviceAtomicAdd for f32 {
    fn fetch_add(cell: &AtomicU32, value: f32) -> f32 {
        let add = |bits| Some((f32::from_bits(bits) + value).to_bits());
        let (Ok(old) | Err(old)) = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
        f32::from_bits(old)
    }
}

impl DeviceAtomicAdd for f64 {
    fn fetch_add(cell: &AtomicU64, value: f64) -> f64 {
        let add = |bits| Some((f64::from_bits(bits) + value).to_bits());
        let (Ok(old) | Err(old)) = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
        f64::from_bits(old)
    }
}

impl<T: DeviceAtomicAdd> DeviceBuffer<T> {
    /// Device-side `atomicAdd`: atomically adds `value` to element `idx`
    /// and returns the previous value. Recorded as an atomic RMW (exempt
    /// from race detection, counted in `LaunchStats::atomic_ops`).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn atomic_add(&self, ctx: &ThreadCtx, idx: usize, value: T) -> T {
        assert!(
            idx < self.data.len(),
            "illegal device address: atomic at index {idx} of buffer {} (len {})",
            self.id,
            self.data.len()
        );
        ctx.record_atomic(self.addr_of(idx), size_of::<T>() as u8);
        T::fetch_add(&self.data[idx], value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_f64() {
        let b = DeviceBuffer::new(0, 0x1000, vec![1.0f64, 2.0, 3.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_host(), vec![1.0, 2.0, 3.0]);
        b.set(1, 20.0);
        assert_eq!(b.get(1), 20.0);
    }

    #[test]
    fn round_trip_f16() {
        let b = DeviceBuffer::new(1, 0x2000, vec![F16::ONE, F16::from_f32(0.5)]);
        assert_eq!(b.get(1).to_f32(), 0.5);
        b.set(0, F16::from_f32(-2.0));
        assert_eq!(b.get(0).to_f32(), -2.0);
    }

    #[test]
    fn addresses_follow_element_size() {
        let b = DeviceBuffer::new(0, 0x100, vec![0.0f32; 8]);
        assert_eq!(b.addr_of(0), 0x100);
        assert_eq!(b.addr_of(3), 0x100 + 12);
        let h = DeviceBuffer::new(0, 0x100, vec![F16::ZERO; 8]);
        assert_eq!(h.addr_of(3), 0x100 + 6);
    }

    #[test]
    fn concurrent_disjoint_device_writes_are_visible() {
        let b = DeviceBuffer::new(0, 0, vec![0u64; 1024]);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let b = &b;
                s.spawn(move || {
                    for i in (t as usize..1024).step_by(4) {
                        b.set(i, t + 1);
                    }
                });
            }
        });
        let host = b.to_host();
        for (i, v) in host.iter().enumerate() {
            assert_eq!(*v, (i % 4) as u64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "host read out of bounds")]
    fn host_oob_read_panics() {
        let b = DeviceBuffer::new(0, 0, vec![0u8; 4]);
        let _ = b.get(4);
    }

    #[test]
    fn empty_buffer() {
        let b = DeviceBuffer::<f32>::new(0, 0, vec![]);
        assert!(b.is_empty());
        assert_eq!(b.to_host(), Vec::<f32>::new());
    }
}
