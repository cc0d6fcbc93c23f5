//! Shared mutable array views for disjoint multi-threaded writes.
//!
//! OpenMP (and the paper's Java port) lets every thread of a parallel
//! region write to *its own* slice of a shared array — e.g. the z-solve of
//! BT/SP parallelizes over the second grid dimension, so no single
//! `chunks_mut` decomposition fits. [`SharedMut`] is the equivalent view:
//! a raw-pointer window over a `&mut [T]` that many threads may read and
//! write, with the disjointness obligation front-loaded into the single
//! `unsafe` constructor.

use std::marker::PhantomData;

/// A `Send + Sync` view over a mutable slice that permits concurrent
/// element access from many threads.
///
/// # Safety contract (checked at construction)
///
/// [`SharedMut::new`] is `unsafe`: by constructing the view, the caller
/// asserts that between any two synchronization points (barriers / region
/// boundaries), **no element is written by one thread while being read or
/// written by another**. The NPB kernels satisfy this by construction —
/// each thread touches only the grid planes of its static partition. With
/// that contract upheld, the element accessors are safe to call. The two
/// slice views, [`SharedMut::row`] and [`SharedMut::row_mut`], stay
/// `unsafe`: a reference outlives the call that made it, so their callers
/// also answer for what happens to the range while it is borrowed.
///
/// Element bounds are always checked in the `SAFE = true` ("Java") style
/// and `debug_assert!`ed in the `SAFE = false` ("Fortran") style, matching
/// [`npb_core::access`](https://docs.rs) semantics; the range of a slice
/// view is `assert!`ed in both.
pub struct SharedMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: access discipline is asserted by the caller of `new`; the view
// itself carries no thread-affine state.
unsafe impl<T: Send> Send for SharedMut<'_, T> {}
unsafe impl<T: Send> Sync for SharedMut<'_, T> {}

impl<'a, T> SharedMut<'a, T> {
    /// Create a shared-mutable view of `slice`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that, for the lifetime of the view, every
    /// element is accessed by at most one thread between synchronization
    /// points whenever any of those accesses is a write (concurrent reads
    /// of an element nobody writes are always fine).
    pub unsafe fn new(slice: &'a mut [T]) -> Self {
        SharedMut { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: PhantomData }
    }

    /// Borrow the `len` contiguous elements from `start` as a plain slice,
    /// so a unit-stride inner loop runs over `&[T]` (known length, no
    /// aliasing with any `&mut`) instead of per-element raw-pointer reads.
    /// The range is `assert!`ed in both styles: once per row, not per
    /// element.
    ///
    /// # Safety
    ///
    /// While the returned slice is live, no thread — this one included,
    /// through [`SharedMut::set`]/[`SharedMut::add`]/[`SharedMut::row_mut`]
    /// — writes any element of the range. Between synchronization points
    /// that is the contract of [`SharedMut::new`]; within one thread it
    /// means a `row_mut` of the same array must not overlap a live `row`.
    #[inline(always)]
    pub unsafe fn row(&self, start: usize, len: usize) -> &[T] {
        self.check_range(start, len);
        // SAFETY: the range is inside the slice `new` was given, and the
        // caller guarantees nothing writes it while the borrow lives.
        unsafe { std::slice::from_raw_parts(self.ptr.add(start), len) }
    }

    /// Mutable counterpart of [`SharedMut::row`].
    ///
    /// # Safety
    ///
    /// While the returned slice is live, no other access to any element of
    /// the range exists: no other thread reads or writes it (the contract
    /// of [`SharedMut::new`]), and this thread holds no other `row` or
    /// `row_mut` overlapping it and reaches it through no other accessor.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)] // the point of the type; see `new`
    pub unsafe fn row_mut(&self, start: usize, len: usize) -> &mut [T] {
        self.check_range(start, len);
        // SAFETY: the range is inside the slice `new` was given, and the
        // caller guarantees exclusive access while the borrow lives.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }

    /// Number of elements in the view.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view is empty.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn check_range(&self, start: usize, len: usize) {
        assert!(
            start <= self.len && len <= self.len - start,
            "row {start}+{len} out of bounds (len {})",
            self.len
        );
    }

    #[inline(always)]
    fn check<const SAFE: bool>(&self, i: usize) {
        if SAFE {
            assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        } else {
            debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        }
    }
}

impl<'a, T: Copy> SharedMut<'a, T> {
    /// Read element `i`.
    #[inline(always)]
    pub fn get<const SAFE: bool>(&self, i: usize) -> T {
        self.check::<SAFE>(i);
        // SAFETY: `i` is in bounds (checked above in the safe style; in the
        // opt style the kernel's index arithmetic answers for it, as in
        // Fortran), and the contract of `new` excludes a concurrent write.
        unsafe { *self.ptr.add(i) }
    }

    /// Write element `i`.
    #[inline(always)]
    pub fn set<const SAFE: bool>(&self, i: usize, v: T) {
        self.check::<SAFE>(i);
        // SAFETY: in bounds as for `get`; the contract of `new` makes this
        // the only access to element `i` until the next synchronization.
        unsafe {
            *self.ptr.add(i) = v;
        }
    }

    /// Read-modify-write: `a[i] += v`.
    #[inline(always)]
    pub fn add<const SAFE: bool>(&self, i: usize, v: T)
    where
        T: std::ops::AddAssign,
    {
        self.check::<SAFE>(i);
        // SAFETY: as for `set`.
        unsafe {
            *self.ptr.add(i) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_roundtrip() {
        let mut v = vec![0.0f64; 8];
        // SAFETY: one thread.
        let s = unsafe { SharedMut::new(&mut v) };
        for i in 0..8 {
            s.set::<true>(i, i as f64);
        }
        for i in 0..8 {
            assert_eq!(s.get::<false>(i), i as f64);
        }
        s.add::<true>(3, 10.0);
        drop(s);
        assert_eq!(v[3], 13.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn safe_style_checks_bounds() {
        let mut v = vec![0.0f64; 4];
        // SAFETY: one thread.
        let s = unsafe { SharedMut::new(&mut v) };
        s.get::<true>(4);
    }

    #[test]
    fn rows_are_windows_onto_the_same_elements() {
        let mut v: Vec<f64> = (0..12).map(f64::from).collect();
        // SAFETY: one thread.
        let s = unsafe { SharedMut::new(&mut v) };
        // SAFETY: single thread; the two ranges are disjoint.
        let (src, dst) = unsafe { (s.row(4, 4), s.row_mut(8, 4)) };
        assert_eq!(src, [4.0, 5.0, 6.0, 7.0]);
        dst.copy_from_slice(src);
        assert_eq!(s.get::<true>(11), 7.0);
        // SAFETY: no view is live any more.
        assert!(unsafe { s.row(12, 0) }.is_empty(), "an empty row at the end is in range");
    }

    // The range check of `row`/`row_mut` is an `assert!` whatever the style
    // of the element accesses made through the slice afterwards, so these
    // hold in release builds too.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_panics_past_the_end() {
        let mut v = vec![0.0f64; 8];
        // SAFETY: one thread; the range check panics before a borrow exists.
        let s = unsafe { SharedMut::new(&mut v) };
        let _ = unsafe { s.row(6, 3) };
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_mut_panics_past_the_end() {
        let mut v = vec![0.0f64; 8];
        // SAFETY: one thread; the range check panics before a borrow exists.
        let s = unsafe { SharedMut::new(&mut v) };
        let _ = unsafe { s.row_mut(9, 0) };
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_length_cannot_wrap_the_check() {
        let mut v = vec![0.0f64; 8];
        // SAFETY: one thread; the range check panics before a borrow exists.
        let s = unsafe { SharedMut::new(&mut v) };
        let _ = unsafe { s.row(1, usize::MAX) };
    }

    #[test]
    fn disjoint_concurrent_writes() {
        let n = 1024;
        let mut v = vec![0usize; n];
        // SAFETY: each thread writes only its own partition.
        let s = unsafe { SharedMut::new(&mut v) };
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    let r = crate::partition(n, 4, t);
                    for i in r {
                        s.set::<true>(i, i * 2);
                    }
                });
            }
        });
        drop(s);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }
}
