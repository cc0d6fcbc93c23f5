//! LU's field storage, setup (`setbv`/`setiv`/`erhs`) and steady-state
//! residual evaluation (`rhs`). Unlike BT/SP, LU differences physical
//! fluxes of the field directly; the same flux machinery serves both the
//! forcing generation (applied to the exact solution) and the timed
//! residual (applied to `u`), exactly as `erhs.f`/`rhs.f` share their
//! structure.

use npb_cfd_common::{idx5, Consts};
use npb_core::ld;
use npb_runtime::{run_par, SharedMut, Team};

/// LU grids: conserved variables, SSOR residual, forcing.
#[derive(Debug, Clone)]
pub struct LuFields {
    /// Grid extent (cubic).
    pub n: usize,
    /// Conserved variables, `5 n^3`.
    pub u: Vec<f64>,
    /// Residual / SSOR working vector, `5 n^3`.
    pub rsd: Vec<f64>,
    /// Forcing, `5 n^3`.
    pub frct: Vec<f64>,
}

impl LuFields {
    /// Zeroed fields.
    pub fn new(n: usize) -> LuFields {
        LuFields {
            n,
            u: vec![0.0; 5 * n * n * n],
            rsd: vec![0.0; 5 * n * n * n],
            frct: vec![0.0; 5 * n * n * n],
        }
    }

    /// Flat index of the 5-component grids.
    #[inline(always)]
    pub fn id5(&self, m: usize, i: usize, j: usize, k: usize) -> usize {
        idx5(self.n, self.n, m, i, j, k)
    }
}

/// `setbv`: exact solution on the six boundary faces.
pub fn setbv(f: &mut LuFields, c: &Consts) {
    let n = f.n;
    let co = |i: usize, nn: usize| i as f64 / (nn as f64 - 1.0);
    for k in 0..n {
        for j in 0..n {
            for &(i, xi) in &[(0usize, 0.0f64), (n - 1, 1.0)] {
                let e = c.exact_solution(xi, co(j, n), co(k, n));
                for m in 0..5 {
                    let id = f.id5(m, i, j, k);
                    f.u[id] = e[m];
                }
            }
        }
        for i in 0..n {
            for &(j, eta) in &[(0usize, 0.0f64), (n - 1, 1.0)] {
                let e = c.exact_solution(co(i, n), eta, co(k, n));
                for m in 0..5 {
                    let id = f.id5(m, i, j, k);
                    f.u[id] = e[m];
                }
            }
        }
    }
    for j in 0..n {
        for i in 0..n {
            for &(k, zeta) in &[(0usize, 0.0f64), (n - 1, 1.0)] {
                let e = c.exact_solution(co(i, n), co(j, n), zeta);
                for m in 0..5 {
                    let id = f.id5(m, i, j, k);
                    f.u[id] = e[m];
                }
            }
        }
    }
}

/// `setiv`: transfinite blend of the face solutions in the interior.
pub fn setiv(f: &mut LuFields, c: &Consts) {
    let n = f.n;
    let nf = n as f64 - 1.0;
    for k in 1..n - 1 {
        let zeta = k as f64 / nf;
        for j in 1..n - 1 {
            let eta = j as f64 / nf;
            for i in 1..n - 1 {
                let xi = i as f64 / nf;
                let ue_1jk = c.exact_solution(0.0, eta, zeta);
                let ue_nx0jk = c.exact_solution(1.0, eta, zeta);
                let ue_i1k = c.exact_solution(xi, 0.0, zeta);
                let ue_iny0k = c.exact_solution(xi, 1.0, zeta);
                let ue_ij1 = c.exact_solution(xi, eta, 0.0);
                let ue_ijnz = c.exact_solution(xi, eta, 1.0);
                for m in 0..5 {
                    let pxi = (1.0 - xi) * ue_1jk[m] + xi * ue_nx0jk[m];
                    let peta = (1.0 - eta) * ue_i1k[m] + eta * ue_iny0k[m];
                    let pzeta = (1.0 - zeta) * ue_ij1[m] + zeta * ue_ijnz[m];
                    let id = f.id5(m, i, j, k);
                    f.u[id] = pxi + peta + pzeta - pxi * peta - peta * pzeta - pzeta * pxi
                        + pxi * peta * pzeta;
                }
            }
        }
    }
}

/// Add the flux differences of field `v` into `out` (`+=`), with LU's
/// convective + viscous + fourth-order-dissipation structure. This is
/// the common body of `erhs` (v = exact solution, out = frct) and `rhs`
/// (v = u, out = rsd).
///
/// Each direction pass owns whole k- (or j-) planes and accumulates a
/// fixed sequence of terms into each cell, so the pass is disjoint-write
/// and bit-identical under any plane assignment — the three passes are
/// scheduled loops ([`npb_runtime::Par::for_chunks_in`]).
pub fn apply_fluxes<const SAFE: bool>(
    n: usize,
    c: &Consts,
    v: &[f64],
    out: &SharedMut<f64>,
    team: Option<&Team>,
) {
    let dssp = c.dssp;
    run_par(team, |par| {
        let vat = |m, i, j, k| ld::<_, SAFE>(v, idx5(n, n, m, i, j, k));
        let oid = |m, i, j, k| idx5(n, n, m, i, j, k);
        let mut flux = vec![[0.0f64; 5]; n];

        // ---- xi-direction ----
        par.for_chunks_in(1, n - 1, |ks| {
            for k in ks {
                for j in 1..n - 1 {
                    for i in 0..n {
                        let (v0, v1, v2, v3, v4) = (
                            vat(0, i, j, k),
                            vat(1, i, j, k),
                            vat(2, i, j, k),
                            vat(3, i, j, k),
                            vat(4, i, j, k),
                        );
                        flux[i][0] = v1;
                        let u21 = v1 / v0;
                        let q = 0.5 * (v1 * v1 + v2 * v2 + v3 * v3) / v0;
                        flux[i][1] = v1 * u21 + c.c2 * (v4 - q);
                        flux[i][2] = v2 * u21;
                        flux[i][3] = v3 * u21;
                        flux[i][4] = (c.c1 * v4 - c.c2 * q) * u21;
                    }
                    for i in 1..n - 1 {
                        for m in 0..5 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                -c.tx2 * (flux[i + 1][m] - flux[i - 1][m]),
                            );
                        }
                    }
                    for i in 1..n {
                        let tmp = 1.0 / vat(0, i, j, k);
                        let u21i = tmp * vat(1, i, j, k);
                        let u31i = tmp * vat(2, i, j, k);
                        let u41i = tmp * vat(3, i, j, k);
                        let u51i = tmp * vat(4, i, j, k);
                        let tmp = 1.0 / vat(0, i - 1, j, k);
                        let u21im1 = tmp * vat(1, i - 1, j, k);
                        let u31im1 = tmp * vat(2, i - 1, j, k);
                        let u41im1 = tmp * vat(3, i - 1, j, k);
                        let u51im1 = tmp * vat(4, i - 1, j, k);
                        flux[i][1] = (4.0 / 3.0) * c.tx3 * (u21i - u21im1);
                        flux[i][2] = c.tx3 * (u31i - u31im1);
                        flux[i][3] = c.tx3 * (u41i - u41im1);
                        flux[i][4] = 0.5
                            * (1.0 - c.c1 * c.c5)
                            * c.tx3
                            * ((u21i * u21i + u31i * u31i + u41i * u41i)
                                - (u21im1 * u21im1 + u31im1 * u31im1 + u41im1 * u41im1))
                            + (1.0 / 6.0) * c.tx3 * (u21i * u21i - u21im1 * u21im1)
                            + c.c1 * c.c5 * c.tx3 * (u51i - u51im1);
                    }
                    for i in 1..n - 1 {
                        out.add::<SAFE>(
                            oid(0, i, j, k),
                            c.dx[0]
                                * c.tx1
                                * (vat(0, i - 1, j, k) - 2.0 * vat(0, i, j, k)
                                    + vat(0, i + 1, j, k)),
                        );
                        for m in 1..5 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                c.tx3 * c.c3 * c.c4 * (flux[i + 1][m] - flux[i][m])
                                    + c.dx[m]
                                        * c.tx1
                                        * (vat(m, i - 1, j, k) - 2.0 * vat(m, i, j, k)
                                            + vat(m, i + 1, j, k)),
                            );
                        }
                    }
                    for m in 0..5 {
                        out.add::<SAFE>(
                            oid(m, 1, j, k),
                            -dssp
                                * (5.0 * vat(m, 1, j, k) - 4.0 * vat(m, 2, j, k) + vat(m, 3, j, k)),
                        );
                        out.add::<SAFE>(
                            oid(m, 2, j, k),
                            -dssp
                                * (-4.0 * vat(m, 1, j, k) + 6.0 * vat(m, 2, j, k)
                                    - 4.0 * vat(m, 3, j, k)
                                    + vat(m, 4, j, k)),
                        );
                        for i in 3..n - 3 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                -dssp
                                    * (vat(m, i - 2, j, k) - 4.0 * vat(m, i - 1, j, k)
                                        + 6.0 * vat(m, i, j, k)
                                        - 4.0 * vat(m, i + 1, j, k)
                                        + vat(m, i + 2, j, k)),
                            );
                        }
                        out.add::<SAFE>(
                            oid(m, n - 3, j, k),
                            -dssp
                                * (vat(m, n - 5, j, k) - 4.0 * vat(m, n - 4, j, k)
                                    + 6.0 * vat(m, n - 3, j, k)
                                    - 4.0 * vat(m, n - 2, j, k)),
                        );
                        out.add::<SAFE>(
                            oid(m, n - 2, j, k),
                            -dssp
                                * (vat(m, n - 4, j, k) - 4.0 * vat(m, n - 3, j, k)
                                    + 5.0 * vat(m, n - 2, j, k)),
                        );
                    }
                }
            }
        });
        par.barrier();

        // ---- eta-direction ----
        par.for_chunks_in(1, n - 1, |ks| {
            for k in ks {
                for i in 1..n - 1 {
                    for j in 0..n {
                        let (v0, v1, v2, v3, v4) = (
                            vat(0, i, j, k),
                            vat(1, i, j, k),
                            vat(2, i, j, k),
                            vat(3, i, j, k),
                            vat(4, i, j, k),
                        );
                        flux[j][0] = v2;
                        let u31 = v2 / v0;
                        let q = 0.5 * (v1 * v1 + v2 * v2 + v3 * v3) / v0;
                        flux[j][1] = v1 * u31;
                        flux[j][2] = v2 * u31 + c.c2 * (v4 - q);
                        flux[j][3] = v3 * u31;
                        flux[j][4] = (c.c1 * v4 - c.c2 * q) * u31;
                    }
                    for j in 1..n - 1 {
                        for m in 0..5 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                -c.ty2 * (flux[j + 1][m] - flux[j - 1][m]),
                            );
                        }
                    }
                    for j in 1..n {
                        let tmp = 1.0 / vat(0, i, j, k);
                        let u21j = tmp * vat(1, i, j, k);
                        let u31j = tmp * vat(2, i, j, k);
                        let u41j = tmp * vat(3, i, j, k);
                        let u51j = tmp * vat(4, i, j, k);
                        let tmp = 1.0 / vat(0, i, j - 1, k);
                        let u21jm1 = tmp * vat(1, i, j - 1, k);
                        let u31jm1 = tmp * vat(2, i, j - 1, k);
                        let u41jm1 = tmp * vat(3, i, j - 1, k);
                        let u51jm1 = tmp * vat(4, i, j - 1, k);
                        flux[j][1] = c.ty3 * (u21j - u21jm1);
                        flux[j][2] = (4.0 / 3.0) * c.ty3 * (u31j - u31jm1);
                        flux[j][3] = c.ty3 * (u41j - u41jm1);
                        flux[j][4] = 0.5
                            * (1.0 - c.c1 * c.c5)
                            * c.ty3
                            * ((u21j * u21j + u31j * u31j + u41j * u41j)
                                - (u21jm1 * u21jm1 + u31jm1 * u31jm1 + u41jm1 * u41jm1))
                            + (1.0 / 6.0) * c.ty3 * (u31j * u31j - u31jm1 * u31jm1)
                            + c.c1 * c.c5 * c.ty3 * (u51j - u51jm1);
                    }
                    for j in 1..n - 1 {
                        out.add::<SAFE>(
                            oid(0, i, j, k),
                            c.dy[0]
                                * c.ty1
                                * (vat(0, i, j - 1, k) - 2.0 * vat(0, i, j, k)
                                    + vat(0, i, j + 1, k)),
                        );
                        for m in 1..5 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                c.ty3 * c.c3 * c.c4 * (flux[j + 1][m] - flux[j][m])
                                    + c.dy[m]
                                        * c.ty1
                                        * (vat(m, i, j - 1, k) - 2.0 * vat(m, i, j, k)
                                            + vat(m, i, j + 1, k)),
                            );
                        }
                    }
                    for m in 0..5 {
                        out.add::<SAFE>(
                            oid(m, i, 1, k),
                            -dssp
                                * (5.0 * vat(m, i, 1, k) - 4.0 * vat(m, i, 2, k) + vat(m, i, 3, k)),
                        );
                        out.add::<SAFE>(
                            oid(m, i, 2, k),
                            -dssp
                                * (-4.0 * vat(m, i, 1, k) + 6.0 * vat(m, i, 2, k)
                                    - 4.0 * vat(m, i, 3, k)
                                    + vat(m, i, 4, k)),
                        );
                        for j in 3..n - 3 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                -dssp
                                    * (vat(m, i, j - 2, k) - 4.0 * vat(m, i, j - 1, k)
                                        + 6.0 * vat(m, i, j, k)
                                        - 4.0 * vat(m, i, j + 1, k)
                                        + vat(m, i, j + 2, k)),
                            );
                        }
                        out.add::<SAFE>(
                            oid(m, i, n - 3, k),
                            -dssp
                                * (vat(m, i, n - 5, k) - 4.0 * vat(m, i, n - 4, k)
                                    + 6.0 * vat(m, i, n - 3, k)
                                    - 4.0 * vat(m, i, n - 2, k)),
                        );
                        out.add::<SAFE>(
                            oid(m, i, n - 2, k),
                            -dssp
                                * (vat(m, i, n - 4, k) - 4.0 * vat(m, i, n - 3, k)
                                    + 5.0 * vat(m, i, n - 2, k)),
                        );
                    }
                }
            }
        });
        par.barrier();

        // ---- zeta-direction (lines along k; parallel over j) ----
        par.for_chunks_in(1, n - 1, |js| {
            for j in js {
                for i in 1..n - 1 {
                    for k in 0..n {
                        let (v0, v1, v2, v3, v4) = (
                            vat(0, i, j, k),
                            vat(1, i, j, k),
                            vat(2, i, j, k),
                            vat(3, i, j, k),
                            vat(4, i, j, k),
                        );
                        flux[k][0] = v3;
                        let u41 = v3 / v0;
                        let q = 0.5 * (v1 * v1 + v2 * v2 + v3 * v3) / v0;
                        flux[k][1] = v1 * u41;
                        flux[k][2] = v2 * u41;
                        flux[k][3] = v3 * u41 + c.c2 * (v4 - q);
                        flux[k][4] = (c.c1 * v4 - c.c2 * q) * u41;
                    }
                    for k in 1..n - 1 {
                        for m in 0..5 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                -c.tz2 * (flux[k + 1][m] - flux[k - 1][m]),
                            );
                        }
                    }
                    for k in 1..n {
                        let tmp = 1.0 / vat(0, i, j, k);
                        let u21k = tmp * vat(1, i, j, k);
                        let u31k = tmp * vat(2, i, j, k);
                        let u41k = tmp * vat(3, i, j, k);
                        let u51k = tmp * vat(4, i, j, k);
                        let tmp = 1.0 / vat(0, i, j, k - 1);
                        let u21km1 = tmp * vat(1, i, j, k - 1);
                        let u31km1 = tmp * vat(2, i, j, k - 1);
                        let u41km1 = tmp * vat(3, i, j, k - 1);
                        let u51km1 = tmp * vat(4, i, j, k - 1);
                        flux[k][1] = c.tz3 * (u21k - u21km1);
                        flux[k][2] = c.tz3 * (u31k - u31km1);
                        flux[k][3] = (4.0 / 3.0) * c.tz3 * (u41k - u41km1);
                        flux[k][4] = 0.5
                            * (1.0 - c.c1 * c.c5)
                            * c.tz3
                            * ((u21k * u21k + u31k * u31k + u41k * u41k)
                                - (u21km1 * u21km1 + u31km1 * u31km1 + u41km1 * u41km1))
                            + (1.0 / 6.0) * c.tz3 * (u41k * u41k - u41km1 * u41km1)
                            + c.c1 * c.c5 * c.tz3 * (u51k - u51km1);
                    }
                    for k in 1..n - 1 {
                        out.add::<SAFE>(
                            oid(0, i, j, k),
                            c.dz[0]
                                * c.tz1
                                * (vat(0, i, j, k - 1) - 2.0 * vat(0, i, j, k)
                                    + vat(0, i, j, k + 1)),
                        );
                        for m in 1..5 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                c.tz3 * c.c3 * c.c4 * (flux[k + 1][m] - flux[k][m])
                                    + c.dz[m]
                                        * c.tz1
                                        * (vat(m, i, j, k - 1) - 2.0 * vat(m, i, j, k)
                                            + vat(m, i, j, k + 1)),
                            );
                        }
                    }
                    for m in 0..5 {
                        out.add::<SAFE>(
                            oid(m, i, j, 1),
                            -dssp
                                * (5.0 * vat(m, i, j, 1) - 4.0 * vat(m, i, j, 2) + vat(m, i, j, 3)),
                        );
                        out.add::<SAFE>(
                            oid(m, i, j, 2),
                            -dssp
                                * (-4.0 * vat(m, i, j, 1) + 6.0 * vat(m, i, j, 2)
                                    - 4.0 * vat(m, i, j, 3)
                                    + vat(m, i, j, 4)),
                        );
                        for k in 3..n - 3 {
                            out.add::<SAFE>(
                                oid(m, i, j, k),
                                -dssp
                                    * (vat(m, i, j, k - 2) - 4.0 * vat(m, i, j, k - 1)
                                        + 6.0 * vat(m, i, j, k)
                                        - 4.0 * vat(m, i, j, k + 1)
                                        + vat(m, i, j, k + 2)),
                            );
                        }
                        out.add::<SAFE>(
                            oid(m, i, j, n - 3),
                            -dssp
                                * (vat(m, i, j, n - 5) - 4.0 * vat(m, i, j, n - 4)
                                    + 6.0 * vat(m, i, j, n - 3)
                                    - 4.0 * vat(m, i, j, n - 2)),
                        );
                        out.add::<SAFE>(
                            oid(m, i, j, n - 2),
                            -dssp
                                * (vat(m, i, j, n - 4) - 4.0 * vat(m, i, j, n - 3)
                                    + 5.0 * vat(m, i, j, n - 2)),
                        );
                    }
                }
            }
        });
    });
}

/// `erhs`: forcing so the exact solution is steady — evaluate the flux
/// operator on the exact-solution field.
pub fn erhs(f: &mut LuFields, c: &Consts, team: Option<&Team>) {
    let n = f.n;
    f.frct.fill(0.0);
    // Exact solution on the whole grid (the reference stages it in rsd;
    // we use a scratch field with the same values).
    let mut exact = vec![0.0f64; 5 * n * n * n];
    let nf = n as f64 - 1.0;
    for k in 0..n {
        let zeta = k as f64 / nf;
        for j in 0..n {
            let eta = j as f64 / nf;
            for i in 0..n {
                let xi = i as f64 / nf;
                let e = c.exact_solution(xi, eta, zeta);
                for m in 0..5 {
                    exact[idx5(n, n, m, i, j, k)] = e[m];
                }
            }
        }
    }
    // SAFETY: `apply_fluxes` writes only the planes of each rank's chunk
    // between barriers, and reads the separate `exact` field.
    let out = unsafe { SharedMut::new(&mut f.frct) };
    apply_fluxes::<false>(n, c, &exact, &out, team);
}

/// `rhs`: the steady-state residual `rsd = -frct + fluxes(u)`.
pub fn rhs<const SAFE: bool>(f: &mut LuFields, c: &Consts, team: Option<&Team>) {
    let n = f.n;
    let frct: &[f64] = &f.frct;
    let u: &[f64] = &f.u;
    // SAFETY: each element is written by the rank whose chunk holds it,
    // then `apply_fluxes` writes only the planes of each rank's chunk
    // between barriers; `rsd` is never read in these regions.
    let rsd = unsafe { SharedMut::new(&mut f.rsd) };
    run_par(team, |par| {
        let tot = 5 * n * n * n;
        par.for_chunks(tot, |ids| {
            for id in ids {
                rsd.set::<SAFE>(id, -ld::<_, SAFE>(frct, id));
            }
        });
    });
    apply_fluxes::<SAFE>(n, c, u, &rsd, team);
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_runtime::Team;

    #[test]
    fn residual_of_exact_field_is_zero() {
        // With u set to the exact solution everywhere, rhs = -frct +
        // fluxes(exact) = 0 identically (same code path on same data).
        let n = 10;
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        let nf = n as f64 - 1.0;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let e = c.exact_solution(i as f64 / nf, j as f64 / nf, k as f64 / nf);
                    for m in 0..5 {
                        let id = f.id5(m, i, j, k);
                        f.u[id] = e[m];
                    }
                }
            }
        }
        erhs(&mut f, &c, None);
        rhs::<false>(&mut f, &c, None);
        // rsd = -(x+y+z accumulated) + x + y + z: zero up to the
        // re-association rounding of the three directional sums.
        let max = f.rsd.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max < 1e-9, "max |rsd| = {max}");
    }

    #[test]
    fn initial_state_has_nonzero_residual() {
        let n = 10;
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        setbv(&mut f, &c);
        setiv(&mut f, &c);
        erhs(&mut f, &c, None);
        rhs::<false>(&mut f, &c, None);
        let max = f.rsd.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max > 1e-6, "max |rsd| = {max}");
    }

    #[test]
    fn rhs_parallel_matches_serial() {
        let n = 12;
        let c = Consts::new(n, n, n, 0.5);
        let mut fs = LuFields::new(n);
        setbv(&mut fs, &c);
        setiv(&mut fs, &c);
        erhs(&mut fs, &c, None);
        let mut fp = fs.clone();
        rhs::<false>(&mut fs, &c, None);
        let team = Team::new(3);
        rhs::<false>(&mut fp, &c, Some(&team));
        assert_eq!(fs.rsd, fp.rsd);
    }

    #[test]
    fn setbv_and_setiv_are_consistent_at_faces() {
        let n = 8;
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        setbv(&mut f, &c);
        setiv(&mut f, &c);
        // Face values are exact.
        let e = c.exact_solution(0.0, 3.0 / 7.0, 4.0 / 7.0);
        for m in 0..5 {
            assert_eq!(f.u[f.id5(m, 0, 3, 4)], e[m]);
        }
    }
}
