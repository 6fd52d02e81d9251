//! Shared, possibly memory-mapped slice storage for graph topology arrays.
//!
//! [`SharedSlice`] is the storage type behind every CSR array in a
//! [`crate::Graph`] and every workload data column: an immutable `[T]`
//! that is either *owned* (the `Vec` of a normal build, moved into an
//! `Arc` without copying its elements) or *mapped* (a raw pointer into a
//! memory region kept alive by an opaque keeper object, the result of a
//! zero-copy load from `graphmine-store`). Both variants share one API —
//! `Deref<Target = [T]>` — so the engine and every algorithm are oblivious
//! to where the bytes live. Clones are cheap for both variants (an `Arc`
//! bump, never a data copy), which also removes the historical cost of
//! cloning a `Graph`: topology arrays are now shared, not duplicated.

use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The keeper that owns the memory behind a mapped [`SharedSlice`]. The
/// slice holds it purely for its `Drop`: as long as any clone of the slice
/// is alive, the mapping (or owned buffer) it points into stays valid.
pub type SliceKeeper = Arc<dyn Any + Send + Sync>;

/// What keeps the elements of a [`SharedSlice`] alive.
enum Keeper<T> {
    /// Heap-owned storage; produced by builds and deserialization.
    Owned(Arc<Vec<T>>),
    /// A region owned by an opaque keeper (typically an mmap).
    Mapped(SliceKeeper),
}

/// An immutable shared slice: owned (an `Arc`-held `Vec`) or borrowed
/// from a mapped region. Dereferences to `[T]`; clones are O(1).
pub struct SharedSlice<T> {
    /// First element: of the `Vec`'s buffer, or inside the mapped region.
    ptr: *const T,
    len: usize,
    keep: Keeper<T>,
}

// SAFETY: the slice is immutable for its whole lifetime. `ptr..ptr + len`
// lies in memory owned by `keep`, which every clone holds: an
// `Arc<Vec<T>>` (Send + Sync when T is) whose buffer is never mutated or
// reallocated once wrapped, or an `Arc<dyn Any + Send + Sync>` owning the
// mapped region. No `&mut` access is ever handed out.
unsafe impl<T: Send + Sync> Send for SharedSlice<T> {}
unsafe impl<T: Send + Sync> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Wrap an owned vector. The elements are not copied: the `Vec` moves
    /// into an `Arc`, keeping its buffer, after dropping any spare
    /// capacity.
    pub fn from_vec(mut v: Vec<T>) -> SharedSlice<T> {
        v.shrink_to_fit();
        let v = Arc::new(v);
        SharedSlice {
            ptr: v.as_ptr(),
            len: v.len(),
            keep: Keeper::Owned(v),
        }
    }

    /// Wrap an owned boxed slice.
    pub fn from_boxed(b: Box<[T]>) -> SharedSlice<T> {
        SharedSlice::from_vec(b.into_vec())
    }

    /// Borrow `len` elements starting at `ptr` from a region owned by
    /// `keep`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that:
    /// * `ptr` is aligned for `T` and `ptr..ptr + len` is a valid
    ///   initialized `[T]` for as long as `keep` is alive;
    /// * the region is never mutated while `keep` (or any clone of the
    ///   returned slice) is alive;
    /// * `T` has no drop glue and tolerates any bit pattern present in the
    ///   region (plain-old-data such as `u32`/`u64`/`f64`).
    pub unsafe fn from_raw(ptr: *const T, len: usize, keep: SliceKeeper) -> SharedSlice<T> {
        SharedSlice {
            ptr,
            len,
            keep: Keeper::Mapped(keep),
        }
    }

    /// The contents as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr..ptr + len` is the buffer of the `Vec` that `keep`
        // owns (`from_vec`), or upheld by the `from_raw` contract; either
        // way `keep` lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Whether this slice borrows from a mapped region (true) or owns its
    /// storage on the heap (false).
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.keep, Keeper::Mapped(_))
    }

    /// Heap bytes charged to this slice: the full payload for owned
    /// storage, zero for mapped storage (the pager owns those bytes and
    /// reclaims them under pressure).
    #[inline]
    pub fn heap_bytes(&self) -> u64 {
        match self.keep {
            Keeper::Owned(_) => (self.len * std::mem::size_of::<T>()) as u64,
            Keeper::Mapped(_) => 0,
        }
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> SharedSlice<T> {
        let keep = match &self.keep {
            Keeper::Owned(v) => Keeper::Owned(Arc::clone(v)),
            Keeper::Mapped(k) => Keeper::Mapped(Arc::clone(k)),
        };
        SharedSlice {
            ptr: self.ptr,
            len: self.len,
            keep,
        }
    }
}

impl<T> From<Vec<T>> for SharedSlice<T> {
    fn from(v: Vec<T>) -> SharedSlice<T> {
        SharedSlice::from_vec(v)
    }
}

impl<T> From<Box<[T]>> for SharedSlice<T> {
    fn from(b: Box<[T]>) -> SharedSlice<T> {
        SharedSlice::from_boxed(b)
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &SharedSlice<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Serialize> Serialize for SharedSlice<T> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for SharedSlice<T> {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> Result<SharedSlice<T>, D::Error> {
        Vec::<T>::deserialize(deserializer).map(SharedSlice::from_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_round_trip() {
        let s = SharedSlice::from_vec(vec![1u32, 2, 3]);
        assert_eq!(&*s, &[1, 2, 3]);
        assert!(!s.is_mapped());
        assert_eq!(s.heap_bytes(), 12);
        let t = s.clone();
        assert_eq!(&*t, &[1, 2, 3]);
        assert_eq!(t.as_ptr(), s.as_ptr());
    }

    #[test]
    fn from_vec_moves_the_buffer_instead_of_copying_it() {
        let v = vec![4u64; 1000];
        let buffer = v.as_ptr();
        let s = SharedSlice::from_vec(v);
        assert_eq!(s.as_ptr(), buffer);
        assert_eq!(s.heap_bytes(), 8000);
        assert!(SharedSlice::from_vec(Vec::<u64>::with_capacity(8)).is_empty());
    }

    #[test]
    fn mapped_borrows_and_keeps_owner_alive() {
        let backing: Arc<Vec<u64>> = Arc::new(vec![7, 8, 9]);
        let ptr = backing.as_ptr();
        let keep: SliceKeeper = backing.clone();
        let s = unsafe { SharedSlice::from_raw(ptr, 3, keep) };
        assert!(s.is_mapped());
        assert_eq!(s.heap_bytes(), 0);
        assert_eq!(&*s, &[7, 8, 9]);
        let t = s.clone();
        drop(s);
        assert_eq!(&*t, &[7, 8, 9]);
    }

    #[test]
    fn serde_round_trips_to_owned() {
        let s = SharedSlice::from_vec(vec![4u32, 5]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "[4,5]");
        let back: SharedSlice<u32> = serde_json::from_str(&json).unwrap();
        assert!(!back.is_mapped());
        assert_eq!(s, back);
    }
}
