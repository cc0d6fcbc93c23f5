//! Verification outcomes and the NPB relative-error comparison.

use std::cell::Cell;

thread_local! {
    /// One-shot NaN fault: when armed, the next computed quantity offered
    /// to [`rel_err_ok`] *on this thread* is replaced by NaN before
    /// comparison. This is the verification end of the runtime's
    /// deterministic fault injection (`--inject nan:<seed>`): every
    /// floating-point verification goes through this comparison (by way
    /// of [`verify_all`]), so arming here corrupts "the kernel's output"
    /// as seen by the verifier without touching any kernel.
    /// Thread-local rather than process-global so concurrent benchmark
    /// runs (e.g. parallel tests in one binary) cannot steal or trip each
    /// other's armed fault.
    static NAN_CORRUPTION: Cell<bool> = const { Cell::new(false) };
}

/// Arm the one-shot NaN corruption of the next quantity verified **on the
/// calling thread**. Kernels verify on the thread that drives the
/// benchmark, so arm on the same thread that will call
/// `try_run_benchmark` (the driver and the chaos tests do).
pub fn arm_nan_corruption() {
    NAN_CORRUPTION.with(|c| c.set(true));
}

/// True while a NaN corruption is armed on this thread but not consumed.
pub fn nan_corruption_armed() -> bool {
    NAN_CORRUPTION.with(|c| c.get())
}

#[inline]
fn take_nan_corruption() -> bool {
    NAN_CORRUPTION.with(|c| c.replace(false))
}

/// Outcome of a benchmark's built-in verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verified {
    /// All computed quantities matched the reference within tolerance.
    Success,
    /// At least one quantity missed the reference.
    Failure,
    /// No reference values exist for this configuration.
    NotPerformed,
}

impl Verified {
    /// `true` only for [`Verified::Success`].
    pub fn is_success(self) -> bool {
        matches!(self, Verified::Success)
    }

    /// Combine two partial verdicts: any failure poisons the result,
    /// `NotPerformed` is the identity.
    pub fn and(self, other: Verified) -> Verified {
        use Verified::*;
        match (self, other) {
            (Failure, _) | (_, Failure) => Failure,
            (NotPerformed, x) | (x, NotPerformed) => x,
            (Success, Success) => Success,
        }
    }
}

/// NPB's verification comparison: relative error of `computed` against
/// `reference` within `epsilon` (NPB uses `1e-8` almost everywhere).
///
/// A zero reference falls back to absolute error, as the Fortran does.
#[inline]
pub fn rel_err_ok(computed: f64, reference: f64, epsilon: f64) -> bool {
    let computed = if take_nan_corruption() { f64::NAN } else { computed };
    let err =
        if reference != 0.0 { ((computed - reference) / reference).abs() } else { computed.abs() };
    err <= epsilon && err.is_finite() && computed.is_finite()
}

/// NPB's verification of a run: every computed quantity within
/// `epsilon` of its reference ([`rel_err_ok`], in order, stopping at the
/// first miss). No reference for the class reads `NotPerformed`; a
/// reference of another length reads `Failure`.
pub fn verify_all(
    computed: &[f64],
    reference: Option<impl AsRef<[f64]>>,
    epsilon: f64,
) -> Verified {
    let Some(reference) = reference else {
        return Verified::NotPerformed;
    };
    let reference = reference.as_ref();
    let ok = computed.len() == reference.len()
        && computed.iter().zip(reference).all(|(&c, &r)| rel_err_ok(c, r, epsilon));
    if ok {
        Verified::Success
    } else {
        Verified::Failure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_passes() {
        assert!(rel_err_ok(1.23456789, 1.23456789, 1e-8));
    }

    #[test]
    fn within_tolerance_passes() {
        assert!(rel_err_ok(1.0 + 0.5e-8, 1.0, 1e-8));
        assert!(!rel_err_ok(1.0 + 2e-8, 1.0, 1e-8));
    }

    #[test]
    fn zero_reference_uses_absolute() {
        assert!(rel_err_ok(0.5e-9, 0.0, 1e-8));
        assert!(!rel_err_ok(1e-7, 0.0, 1e-8));
    }

    #[test]
    fn nan_and_inf_fail() {
        assert!(!rel_err_ok(f64::NAN, 1.0, 1e-8));
        assert!(!rel_err_ok(f64::INFINITY, 1.0, 1e-8));
        assert!(!rel_err_ok(1.0, f64::NAN, 1e-8));
    }

    #[test]
    fn vector_verification() {
        let r = Some([1.0, 2.0, 3.0]);
        assert_eq!(verify_all(&[1.0, 2.0, 3.0], r, 1e-8), Verified::Success);
        assert_eq!(verify_all(&[1.0, 2.1, 3.0], r, 1e-8), Verified::Failure);
        assert_eq!(verify_all(&[1.0, 2.0], r, 1e-8), Verified::Failure);
        assert_eq!(verify_all(&[1.0], None::<[f64; 1]>, 1e-8), Verified::NotPerformed);
    }

    #[test]
    fn verdict_combination() {
        use Verified::*;
        assert_eq!(Success.and(Success), Success);
        assert_eq!(Success.and(Failure), Failure);
        assert_eq!(NotPerformed.and(Success), Success);
        assert_eq!(NotPerformed.and(NotPerformed), NotPerformed);
        assert_eq!(Failure.and(NotPerformed), Failure);
    }
}
