//! Minimal complex-double type for the FFT kernel.
//!
//! The paper cites the lack of a native complex type as one of Java's
//! numerical handicaps (§1, [9]); Fortran's `double complex` maps here to
//! a two-field `Copy` struct with the layout of an interleaved pair, so
//! the NPB generator can fill complex arrays directly.

/// Complex number with `f64` components, laid out as `(re, im)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor.
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = c64(0.0, 0.0);

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> C64 {
        c64(self.re, -self.im)
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> C64 {
        c64(self.re * s, self.im * s)
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    #[inline(always)]
    fn add(self, o: C64) -> C64 {
        c64(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    #[inline(always)]
    fn sub(self, o: C64) -> C64 {
        c64(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, o: C64) -> C64 {
        c64(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

/// `n` complex zeros straight from the zeroing allocator. `vec!` hands
/// only primitive zeros to it; `vec![C64::ZERO; n]` writes every element
/// on the calling thread. Here no page is written until its first user
/// writes it, so a field filled on a Team is first touched by the ranks
/// that fill it.
pub fn zeroed(n: usize) -> Vec<C64> {
    let layout = std::alloc::Layout::array::<C64>(n).expect("complex array size overflows");
    if layout.size() == 0 {
        return Vec::new();
    }
    // SAFETY: the layout has a non-zero size.
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<C64>();
    if ptr.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    // SAFETY: `ptr` comes from the global allocator with the layout of
    // `n` `C64`s, and all-zero bytes are `C64::ZERO` (two `+0.0`s), so
    // all `n` elements are initialized; the capacity is exactly `n`.
    unsafe { Vec::from_raw_parts(ptr, n, n) }
}

/// View a complex slice as its interleaved `f64` representation (for the
/// NPB generator, which produces real deviate streams).
pub fn as_f64_mut(x: &mut [C64]) -> &mut [f64] {
    let len = 2 * x.len();
    // SAFETY: C64 is repr(C) with exactly two f64 fields, so the memory
    // of [C64; n] is precisely [f64; 2n] with the same alignment.
    unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast::<f64>(), len) }
}

/// Shared view of a complex slice as interleaved `f64` (for checksums
/// and the SDC guard, which hash/scan raw doubles).
pub fn as_f64(x: &[C64]) -> &[f64] {
    let len = 2 * x.len();
    // SAFETY: same layout argument as `as_f64_mut`.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast::<f64>(), len) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -1.0);
        assert_eq!(a + b, c64(4.0, 1.0));
        assert_eq!(a - b, c64(-2.0, 3.0));
        assert_eq!(a * b, c64(5.0, 5.0)); // (1+2i)(3-i) = 5+5i
        assert_eq!(a.conj(), c64(1.0, -2.0));
        assert_eq!(a.scale(2.0), c64(2.0, 4.0));
    }

    #[test]
    fn interleaved_view_round_trips() {
        let mut v = vec![c64(1.0, 2.0), c64(3.0, 4.0)];
        {
            let f = as_f64_mut(&mut v);
            assert_eq!(f, &[1.0, 2.0, 3.0, 4.0]);
            f[3] = 9.0;
        }
        assert_eq!(v[1], c64(3.0, 9.0));
    }

    /// The allocation reads `C64::ZERO` (bit for bit: `+0.0`, not `-0.0`)
    /// everywhere, takes writes and pushes like any `Vec`, and drops.
    #[test]
    fn zeroed_reads_zero_everywhere_and_drops_cleanly() {
        for n in [0usize, 1, 3, 4096, 1 << 18] {
            let mut v = zeroed(n);
            assert_eq!((v.len(), v.capacity()), (n, n));
            assert!(as_f64(&v).iter().all(|x| x.to_bits() == 0), "n = {n}");
            if let Some(last) = v.last_mut() {
                *last = c64(1.0, -1.0);
            }
            v.push(c64(2.0, 3.0));
            assert_eq!(v[n], c64(2.0, 3.0));
            drop(v);
        }
    }
}
