//! Dual-style element access: the paper's Java-vs-Fortran axis.
//!
//! The paper compares Fortran (`f77 -O3`: no bounds checks, fused
//! multiply-add) against Java of 2001–2003 (per-access bounds checks, a
//! rounding model that forbade `madd`). We reproduce that axis inside one
//! code base: every hot loop in every kernel reads and writes array
//! elements through [`ld`]/[`st`]/[`fmadd`], generic over a
//! `const SAFE: bool`:
//!
//! * `SAFE = true` — the **"Java" style**: every access is bounds-checked,
//!   the overhead §3 of the paper attributes most of the gap to;
//! * `SAFE = false` — the **"Fortran" style**: unchecked access.
//!
//! The paper's second difference, `madd`, is not reproduced as shipped:
//! both styles compute `a*b + c` with two roundings (see [`fmadd`], which
//! would fuse only in a build that sets `target-feature=fma`; none does),
//! and the vector tier in [`crate::lane`] enables no FMA either, so the
//! two styles agree bit for bit.
//!
//! # Soundness contract
//!
//! With `SAFE = false` the index must be in bounds; the kernels guarantee
//! this by construction (all indices are affine functions of loop bounds
//! derived from the array extents). The full test suite runs in the dev
//! profile where `debug_assert!` re-checks every unchecked access, so any
//! index-arithmetic defect is caught as a panic in `cargo test` rather
//! than UB in a release build. This is the standard HPC-Rust compromise; the
//! unchecked path is confined to the two functions below.

/// Execution style selector used at the public API level (the const
/// generic is the implementation device; this enum is the user-facing
/// switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Style {
    /// "Fortran" style: unchecked element access.
    Opt,
    /// "Java" style: bounds-checked access.
    Safe,
}

impl Style {
    /// Short label used in reports (`"opt"` / `"safe"`).
    pub fn label(self) -> &'static str {
        match self {
            Style::Opt => "opt",
            Style::Safe => "safe",
        }
    }
}

impl std::str::FromStr for Style {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "opt" | "fortran" | "fast" => Ok(Style::Opt),
            "safe" | "java" | "checked" => Ok(Style::Safe),
            other => Err(format!("unknown style {other:?} (expected opt|safe)")),
        }
    }
}

/// Load `a[i]`, bounds-checked iff `SAFE`.
#[inline(always)]
pub fn ld<T: Copy, const SAFE: bool>(a: &[T], i: usize) -> T {
    if SAFE {
        a[i]
    } else {
        debug_assert!(i < a.len(), "opt-style load out of bounds: {i} >= {}", a.len());
        // SAFETY: opt style trusts the kernel's index, as the Fortran it
        // models does; the safe style runs the same indices checked, and
        // debug builds check them here.
        unsafe { *a.get_unchecked(i) }
    }
}

/// Store `a[i] = v`, bounds-checked iff `SAFE`.
#[inline(always)]
pub fn st<T: Copy, const SAFE: bool>(a: &mut [T], i: usize, v: T) {
    if SAFE {
        a[i] = v;
    } else {
        debug_assert!(i < a.len(), "opt-style store out of bounds: {i} >= {}", a.len());
        // SAFETY: as for `ld`.
        unsafe {
            *a.get_unchecked_mut(i) = v;
        }
    }
}

/// `a*b + c`: fused in opt style (the `madd` instruction the paper's
/// Java rounding model could not emit), split in safe style.
///
/// The fused form is only used when the build target actually has an FMA
/// unit (`target-feature=fma`, e.g. via `-C target-cpu=native`); without
/// it `f64::mul_add` lowers to a libm call that is drastically *slower*,
/// which would invert the comparison the style axis exists to make. This
/// repository sets no target features — there is no `.cargo/config.toml`
/// and the release build is baseline x86-64 — so as shipped both styles
/// compute `a * b + c` and differ only in bounds checking.
#[inline(always)]
pub fn fmadd<const SAFE: bool>(a: f64, b: f64, c: f64) -> f64 {
    if !SAFE && cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_styles_read_and_write_identically() {
        let mut a = vec![1.0, 2.0, 3.0];
        assert_eq!(ld::<_, true>(&a, 1), 2.0);
        assert_eq!(ld::<_, false>(&a, 1), 2.0);
        st::<_, true>(&mut a, 0, 5.0);
        st::<_, false>(&mut a, 2, 7.0);
        assert_eq!(a, vec![5.0, 2.0, 7.0]);
    }

    #[test]
    fn integer_elements_work_too() {
        let mut a = vec![1i32, 2, 3];
        assert_eq!(ld::<_, true>(&a, 2), 3);
        st::<_, false>(&mut a, 0, -7);
        assert_eq!(a[0], -7);
    }

    #[test]
    #[should_panic]
    fn safe_style_panics_out_of_bounds() {
        let a = vec![0.0f64; 4];
        ld::<_, true>(&a, 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn opt_style_debug_asserts_out_of_bounds() {
        let a = vec![0.0f64; 4];
        ld::<_, false>(&a, 4);
    }

    #[test]
    fn fmadd_styles_agree_where_fma_is_exact() {
        // For values where the double rounding of a*b+c is exact, the two
        // must agree bit-for-bit.
        assert_eq!(fmadd::<true>(2.0, 3.0, 4.0), fmadd::<false>(2.0, 3.0, 4.0));
        assert_eq!(fmadd::<true>(0.5, 8.0, -1.0), fmadd::<false>(0.5, 8.0, -1.0));
    }

    #[test]
    fn style_parsing() {
        assert_eq!("opt".parse::<Style>().unwrap(), Style::Opt);
        assert_eq!("java".parse::<Style>().unwrap(), Style::Safe);
        assert!("x".parse::<Style>().is_err());
    }
}
