//! 5×5 block primitives of BT's Gaussian elimination: `matvec_sub`,
//! `matmul_sub`, `binvcrhs`, `binvrhs` — ports of the hand-unrolled
//! `solve_subs.f`, with the same operation order (no pivoting; the
//! diagonal blocks of BT's operator are safely dominant).
//!
//! Generic over [`Lane`]: at `f64` they work one block, at the sweeps'
//! dispatched width one block of each of `L::N` grid lines, every lane
//! running the scalar operation sequence. `#[inline(always)]` because an
//! out-of-line copy would be compiled without the sweep's AVX2.

pub use npb_cfd_common::jacobians::{Block, ZERO_BLOCK};
use npb_core::lane::Lane;

/// `bvec -= ablock · avec`.
#[inline(always)]
pub fn matvec_sub<L: Lane>(ablock: &Block<L>, avec: &[L; 5], bvec: &mut [L; 5]) {
    for i in 0..5 {
        bvec[i] = bvec[i]
            - ablock[i][0] * avec[0]
            - ablock[i][1] * avec[1]
            - ablock[i][2] * avec[2]
            - ablock[i][3] * avec[3]
            - ablock[i][4] * avec[4];
    }
}

/// `cblock -= ablock · bblock`.
#[inline(always)]
pub fn matmul_sub<L: Lane>(ablock: &Block<L>, bblock: &Block<L>, cblock: &mut Block<L>) {
    for j in 0..5 {
        for i in 0..5 {
            cblock[i][j] = cblock[i][j]
                - ablock[i][0] * bblock[0][j]
                - ablock[i][1] * bblock[1][j]
                - ablock[i][2] * bblock[2][j]
                - ablock[i][3] * bblock[3][j]
                - ablock[i][4] * bblock[4][j];
        }
    }
}

/// Gauss–Jordan invert `lhs` in place, applying the same row operations
/// to the coupling block `c` and the right-hand side `r`:
/// on exit `c := lhs⁻¹ c` and `r := lhs⁻¹ r`.
#[inline(always)]
pub fn binvcrhs<L: Lane>(lhs: &mut Block<L>, c: &mut Block<L>, r: &mut [L; 5]) {
    for p in 0..5 {
        let pivot = L::splat(1.0) / lhs[p][p];
        for col in p + 1..5 {
            lhs[p][col] = lhs[p][col] * pivot;
        }
        for col in 0..5 {
            c[p][col] = c[p][col] * pivot;
        }
        r[p] = r[p] * pivot;
        for row in 0..5 {
            if row == p {
                continue;
            }
            let coeff = lhs[row][p];
            for col in p + 1..5 {
                lhs[row][col] = lhs[row][col] - coeff * lhs[p][col];
            }
            for col in 0..5 {
                c[row][col] = c[row][col] - coeff * c[p][col];
            }
            r[row] = r[row] - coeff * r[p];
        }
    }
}

/// Gauss–Jordan solve `lhs · x = r` in place (`r := lhs⁻¹ r`).
#[inline(always)]
pub fn binvrhs<L: Lane>(lhs: &mut Block<L>, r: &mut [L; 5]) {
    for p in 0..5 {
        let pivot = L::splat(1.0) / lhs[p][p];
        for col in p + 1..5 {
            lhs[p][col] = lhs[p][col] * pivot;
        }
        r[p] = r[p] * pivot;
        for row in 0..5 {
            if row == p {
                continue;
            }
            let coeff = lhs[row][p];
            for col in p + 1..5 {
                lhs[row][col] = lhs[row][col] - coeff * lhs[p][col];
            }
            r[row] = r[row] - coeff * r[p];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(seed: f64) -> Block {
        let mut b = ZERO_BLOCK;
        for i in 0..5 {
            for j in 0..5 {
                b[i][j] = ((i * 5 + j) as f64 * 0.37 + seed).sin() * 0.3;
            }
            b[i][i] += 3.0; // diagonally dominant
        }
        b
    }

    fn mat_vec(a: &Block, x: &[f64; 5]) -> [f64; 5] {
        let mut y = [0.0; 5];
        for i in 0..5 {
            for j in 0..5 {
                y[i] += a[i][j] * x[j];
            }
        }
        y
    }

    #[test]
    fn matvec_sub_subtracts_product() {
        let a = sample_block(1.0);
        let x = [1.0, -2.0, 0.5, 3.0, -1.5];
        let mut b = [10.0; 5];
        matvec_sub(&a, &x, &mut b);
        let ax = mat_vec(&a, &x);
        for i in 0..5 {
            assert!((b[i] - (10.0 - ax[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_sub_subtracts_product() {
        let a = sample_block(1.0);
        let b = sample_block(2.0);
        let mut c = sample_block(3.0);
        let c0 = c;
        matmul_sub(&a, &b, &mut c);
        for i in 0..5 {
            for j in 0..5 {
                let mut ab = 0.0;
                for k in 0..5 {
                    ab += a[i][k] * b[k][j];
                }
                assert!((c[i][j] - (c0[i][j] - ab)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn binvrhs_solves_linear_system() {
        let a = sample_block(4.0);
        let x_true = [1.0, 2.0, -1.0, 0.5, 3.0];
        let mut r = mat_vec(&a, &x_true);
        let mut lhs = a;
        binvrhs(&mut lhs, &mut r);
        for i in 0..5 {
            assert!((r[i] - x_true[i]).abs() < 1e-10, "x[{i}] = {}", r[i]);
        }
    }

    #[test]
    fn binvcrhs_applies_inverse_to_both() {
        let a = sample_block(5.0);
        let x_true = [0.3, -1.2, 2.2, 0.9, -0.4];
        let mut r = mat_vec(&a, &x_true);
        let c0 = sample_block(6.0);
        let mut c = c0;
        let mut lhs = a;
        binvcrhs(&mut lhs, &mut c, &mut r);
        // r == a^-1 (a x) == x
        for i in 0..5 {
            assert!((r[i] - x_true[i]).abs() < 1e-10);
        }
        // a * c == c0
        for j in 0..5 {
            let col = [c[0][j], c[1][j], c[2][j], c[3][j], c[4][j]];
            let back = mat_vec(&a, &col);
            for i in 0..5 {
                assert!((back[i] - c0[i][j]).abs() < 1e-9, "({i},{j})");
            }
        }
    }
}
