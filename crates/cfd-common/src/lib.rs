//! # npb-cfd-common
//!
//! Shared substrate of the BT and SP simulated CFD applications: the two
//! benchmarks discretize the same 3-D compressible Navier–Stokes system
//! on the same grids with the same forcing, and differ only in how the
//! implicit operator is approximately factored (block-tridiagonal 5×5
//! solves for BT, diagonalized scalar-pentadiagonal solves for SP).
//! Everything before the factorization — constants, exact solution,
//! initialization, forcing, the explicit right-hand side, the `u += rhs`
//! update, and the verification norms — lives here, with the line
//! geometry ([`lines`]) both factorizations sweep.

pub mod consts;
pub mod exact;
pub mod fields;
pub mod jacobians;
pub mod lines;
pub mod norms;
pub mod rhs;

pub use consts::{Consts, CE};
pub use exact::{exact_rhs, initialize};
pub use fields::{idx, idx5, Fields};
pub use norms::{error_norm, rhs_norm};
pub use rhs::{add, compute_rhs};

use npb_core::Verified;

/// Reference residual/error norms for one class of BT or SP.
#[derive(Debug, Clone, Copy)]
pub struct VerifySet {
    /// Time step that must match for verification to apply.
    pub dt: f64,
    /// Reference residual norms (`xcr`).
    pub xcr: [f64; 5],
    /// Reference error norms (`xce`).
    pub xce: [f64; 5],
}

/// NPB's verification procedure: both norm vectors within 1e-8 relative
/// of the references, and the run's `dt` equal to the reference `dt`.
pub fn verify_norms(set: Option<&VerifySet>, dt: f64, xcr: &[f64; 5], xce: &[f64; 5]) -> Verified {
    let Some(s) = set else {
        return Verified::NotPerformed;
    };
    let eps = 1.0e-8;
    if (dt - s.dt).abs() > eps {
        return Verified::NotPerformed;
    }
    for m in 0..5 {
        if !npb_core::rel_err_ok(xcr[m], s.xcr[m], eps)
            || !npb_core::rel_err_ok(xce[m], s.xce[m], eps)
        {
            return Verified::Failure;
        }
    }
    Verified::Success
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_norms_logic() {
        let set = VerifySet { dt: 0.01, xcr: [1.0; 5], xce: [2.0; 5] };
        assert_eq!(verify_norms(Some(&set), 0.01, &[1.0; 5], &[2.0; 5]), Verified::Success);
        assert_eq!(verify_norms(Some(&set), 0.01, &[1.1; 5], &[2.0; 5]), Verified::Failure);
        assert_eq!(verify_norms(Some(&set), 0.02, &[1.0; 5], &[2.0; 5]), Verified::NotPerformed);
        assert_eq!(verify_norms(None, 0.01, &[1.0; 5], &[2.0; 5]), Verified::NotPerformed);
    }
}
