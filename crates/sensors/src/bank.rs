//! Per-tick scratch storage sized by the IMU bank.
//!
//! The consensus voter builds several instance-indexed buffers every tick
//! (the trusted subset, one per-axis median column, the health report).
//! Real autopilots carry two to four IMUs, so [`BankVec`] keeps up to
//! [`INLINE_INSTANCES`] elements inline and only spills to the heap for
//! larger banks: the steady-state vote never allocates.

use std::ops::{Deref, DerefMut};

/// Bank sizes up to this many instances vote from inline buffers.
pub const INLINE_INSTANCES: usize = 8;

/// A growable list of up to `N` elements stored inline, with a heap
/// fallback beyond that. Dereferences to a slice of the pushed elements.
#[derive(Clone)]
pub enum BankVec<T: Copy, const N: usize = INLINE_INSTANCES> {
    /// Elements `items[..len]` are live; the rest hold the fill value.
    Inline {
        /// Number of live elements.
        len: usize,
        /// Inline storage.
        items: [T; N],
    },
    /// Heap storage, used once more than `N` elements are needed.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> BankVec<T, N> {
    /// An empty list with room for `capacity` elements: inline when
    /// `capacity <= N`, on the heap otherwise. `fill` initialises the
    /// unused inline slots and is never observable.
    pub fn with_capacity(capacity: usize, fill: T) -> Self {
        if capacity <= N {
            BankVec::Inline {
                len: 0,
                items: [fill; N],
            }
        } else {
            BankVec::Heap(Vec::with_capacity(capacity))
        }
    }

    /// Appends `value`, spilling to the heap if the inline storage is full.
    pub fn push(&mut self, value: T) {
        match self {
            BankVec::Inline { len, items } if *len < N => {
                items[*len] = value;
                *len += 1;
            }
            BankVec::Inline { len, items } => {
                let mut heap = Vec::with_capacity(*len * 2);
                heap.extend_from_slice(&items[..*len]);
                heap.push(value);
                *self = BankVec::Heap(heap);
            }
            BankVec::Heap(heap) => heap.push(value),
        }
    }
}

impl<T: Copy, const N: usize> Deref for BankVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            BankVec::Inline { len, items } => &items[..*len],
            BankVec::Heap(heap) => heap,
        }
    }
}

impl<T: Copy, const N: usize> DerefMut for BankVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            BankVec::Inline { len, items } => &mut items[..*len],
            BankVec::Heap(heap) => heap,
        }
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for BankVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for BankVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_until_full_then_spills() {
        let mut v: BankVec<u32, 2> = BankVec::with_capacity(2, 0);
        v.push(1);
        v.push(2);
        assert!(matches!(v, BankVec::Inline { len: 2, .. }));
        v.push(3);
        assert!(matches!(v, BankVec::Heap(_)));
        assert_eq!(&*v, &[1, 2, 3]);
    }

    #[test]
    fn large_capacity_starts_on_the_heap() {
        let mut v: BankVec<f64, 2> = BankVec::with_capacity(5, 0.0);
        assert!(matches!(v, BankVec::Heap(_)));
        for x in [3.0, 1.0, 2.0] {
            v.push(x);
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(&*v, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn equality_ignores_fill_and_storage() {
        let mut a: BankVec<u8, 4> = BankVec::with_capacity(4, 0);
        let mut b: BankVec<u8, 4> = BankVec::with_capacity(9, 7);
        a.push(5);
        b.push(5);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[5]");
    }
}
