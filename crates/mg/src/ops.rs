//! The MG grid operators: `psinv` (smoother), `resid` (residual),
//! `rprj3` (restriction), `interp` (prolongation), `norm2u3` (norms),
//! `comm3` (periodic boundary exchange), `zero3`.
//!
//! All operators are ports of `mg.f` (same expression association, same
//! scratch-line structure), stated as whole-row operations along the
//! contiguous `i1` axis: per `(i2, i3)` row, the neighbour rows are
//! borrowed from the grid as plain slices ([`SharedMut::row`]) and handed
//! to a row kernel, an elementwise loop the compiler vectorizes. Each
//! output element still receives the scalar operation sequence of the
//! reference (the loop vectorizer does not reassociate floating point and
//! Rust never contracts `a*b + c`), so results are bit-identical to the
//! per-point form, which survives as the test oracle below. Grids are
//! cubes of extent `n` including one ghost layer per face; the interior
//! is `2..=n-1` in the 1-based coordinates of [`id1`], `1..n-1` within a
//! row slice.
//!
//! Parallelization follows the OpenMP version: each operator partitions
//! its outermost (`i3`) loop across the team; `comm3` updates the i1/i2
//! faces per-plane and then the i3 faces after a barrier.

use npb_core::{ld, st};
use npb_runtime::{run_par, Partials, RankScratch, SharedMut, Team};
use std::ops::Range;

/// Reusable per-rank line buffers for the stencil operators.
///
/// `resid`/`psinv`/`rprj3` work two scratch lines per row and `interp`
/// three; before this existed each operator call allocated them fresh —
/// per level, per V-cycle, inside the timed section. One triple per rank,
/// sized for the finest level (every operator uses the first `extent`
/// elements and each line is fully rewritten before it is read), serves
/// the whole hierarchy.
pub struct MgScratch {
    lines: RankScratch<[Vec<f64>; 3]>,
}

impl MgScratch {
    /// Per-rank line triples sized for finest extent `nmax`.
    pub fn new(ranks: usize, nmax: usize) -> MgScratch {
        MgScratch {
            lines: RankScratch::new(ranks, |_| std::array::from_fn(|_| vec![0.0; nmax + 2])),
        }
    }

    /// Number of rank slots this scratch was sized for.
    pub fn ranks(&self) -> usize {
        self.lines.len()
    }
}

/// 1-based flat index into a cube of extent `n`.
#[inline(always)]
pub fn id1(n: usize, i1: usize, i2: usize, i3: usize) -> usize {
    (i1 - 1) + n * ((i2 - 1) + n * (i3 - 1))
}

/// `out[i] = a[i] + b[i] + c[i] + d[i]`, summed left to right, over the
/// whole of `out` (all five rows at least that long).
///
/// Like every row kernel below it is `#[inline(never)]`: compiled on its
/// own, its slice parameters are `noalias` and re-sliced to one length,
/// so the bounds checks of the safe style fold away and the loop
/// vectorizes the same way whatever the call site looks like.
#[inline(never)]
fn sum4<const SAFE: bool>(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64], d: &[f64]) {
    let n = out.len();
    let (a, b, c, d) = (&a[..n], &b[..n], &c[..n], &d[..n]);
    for i in 0..n {
        let s = ld::<_, SAFE>(a, i) + ld::<_, SAFE>(b, i) + ld::<_, SAFE>(c, i);
        st::<_, SAFE>(out, i, s + ld::<_, SAFE>(d, i));
    }
}

/// Interior of one row of `r = v - A u`: `u` is the centre row, `u1`/`u2`
/// the sums of its four edge and four corner neighbour rows. `v = None`
/// is the in-place form `r = r - A u`: `r`'s row cannot also be borrowed
/// as `v`'s, so that form reads it through `r` itself (the choice is
/// loop-invariant and the optimizer hoists it).
#[inline(never)]
fn resid_row<const SAFE: bool>(
    r: &mut [f64],
    v: Option<&[f64]>,
    u: &[f64],
    u1: &[f64],
    u2: &[f64],
    a: &[f64; 4],
) {
    let n = r.len();
    let (v, u, u1, u2) = (v.map(|v| &v[..n]), &u[..n], &u1[..n], &u2[..n]);
    for i in 1..n - 1 {
        let vi = ld::<_, SAFE>(v.unwrap_or(r), i);
        // a[1] == 0: the corresponding term is dropped, as in the reference.
        let ri = vi
            - a[0] * ld::<_, SAFE>(u, i)
            - a[2] * (ld::<_, SAFE>(u2, i) + ld::<_, SAFE>(u1, i - 1) + ld::<_, SAFE>(u1, i + 1))
            - a[3] * (ld::<_, SAFE>(u2, i - 1) + ld::<_, SAFE>(u2, i + 1));
        st::<_, SAFE>(r, i, ri);
    }
}

/// Interior of one row of `u += S r`: `r` is the centre row, `r1`/`r2`
/// the sums of its four edge and four corner neighbour rows.
#[inline(never)]
fn psinv_row<const SAFE: bool>(u: &mut [f64], r: &[f64], r1: &[f64], r2: &[f64], c: &[f64; 4]) {
    let n = u.len();
    let (r, r1, r2) = (&r[..n], &r1[..n], &r2[..n]);
    for i in 1..n - 1 {
        // c[3] == 0: term dropped, as in the reference.
        let ui = ld::<_, SAFE>(u, i)
            + c[0] * ld::<_, SAFE>(r, i)
            + c[1] * (ld::<_, SAFE>(r, i - 1) + ld::<_, SAFE>(r, i + 1) + ld::<_, SAFE>(r1, i))
            + c[2] * (ld::<_, SAFE>(r2, i) + ld::<_, SAFE>(r1, i - 1) + ld::<_, SAFE>(r1, i + 1));
        st::<_, SAFE>(u, i, ui);
    }
}

/// Interior of one coarse row `s` from the fine centre row `r` and the
/// edge/corner sums `x`/`y` of its neighbour rows: coarse `j` sits on
/// fine `2j`. `mg.f` keeps `x`/`y` at even points in lines (`x1`, `y1`)
/// and at odd points in scalars (`x2`, `y2`); they are one expression, so
/// here both come from the same full-row sums.
#[inline(never)]
fn rprj3_row<const SAFE: bool>(s: &mut [f64], r: &[f64], x: &[f64], y: &[f64]) {
    let nc = s.len();
    let nf = 2 * nc - 2;
    let (r, x, y) = (&r[..nf], &x[..nf], &y[..nf]);
    for j in 1..nc - 1 {
        let i = 2 * j;
        let sj = 0.5 * ld::<_, SAFE>(r, i)
            + 0.25 * (ld::<_, SAFE>(r, i - 1) + ld::<_, SAFE>(r, i + 1) + ld::<_, SAFE>(x, i))
            + 0.125 * (ld::<_, SAFE>(x, i - 1) + ld::<_, SAFE>(x, i + 1) + ld::<_, SAFE>(y, i))
            + 0.0625 * (ld::<_, SAFE>(y, i - 1) + ld::<_, SAFE>(y, i + 1));
        st::<_, SAFE>(s, j, sj);
    }
}

/// One fine row `u` (extent `2 nc - 2`) of the prolongation: the points
/// over a coarse point take `even * z[i]`, those between two take
/// `odd * (z[i] + z[i + 1])`.
#[inline(never)]
fn interp_row<const SAFE: bool>(u: &mut [f64], z: &[f64], even: f64, odd: f64) {
    let nc = z.len();
    let u = &mut u[..2 * nc - 2];
    for i in 0..nc - 1 {
        let (e, o) = (ld::<_, SAFE>(u, 2 * i), ld::<_, SAFE>(u, 2 * i + 1));
        st::<_, SAFE>(u, 2 * i, e + even * ld::<_, SAFE>(z, i));
        st::<_, SAFE>(u, 2 * i + 1, o + odd * (ld::<_, SAFE>(z, i) + ld::<_, SAFE>(z, i + 1)));
    }
}

/// Zero a grid.
pub fn zero3(z: &SharedMut<f64>, _n: usize, team: Option<&Team>) {
    run_par(team, |p| {
        // SAFETY: the chunks of one region are disjoint, and nothing else
        // touches `z` while it runs.
        p.for_chunks(z.len(), |ids| unsafe { z.row_mut(ids.start, ids.len()) }.fill(0.0));
    });
}

/// Periodic boundary exchange (`comm3`): copy the opposite interior
/// faces into the ghost layers, axis by axis in the reference order.
pub fn comm3<const SAFE: bool>(u: &SharedMut<f64>, n: usize, team: Option<&Team>) {
    run_par(team, |p| {
        // SAFETY: `from` and `to` are different rows of the grid, so the two
        // views never overlap; the callers below say why no other rank
        // touches either.
        let copy_row = |from: usize, to: usize| unsafe {
            u.row_mut(to, n).copy_from_slice(u.row(from, n));
        };
        // Axis 1 then axis 2, per interior plane i3: a rank reads and
        // writes only the planes of its own chunk.
        p.for_chunks_in(2, n, |i3s| {
            for i3 in i3s {
                for i2 in 2..n {
                    // SAFETY: the only view of this row, in a plane this rank owns.
                    let row = unsafe { u.row_mut(id1(n, 1, i2, i3), n) };
                    st::<_, SAFE>(row, 0, ld::<_, SAFE>(row, n - 2));
                    st::<_, SAFE>(row, n - 1, ld::<_, SAFE>(row, 1));
                }
                copy_row(id1(n, 1, n - 1, i3), id1(n, 1, 1, i3));
                copy_row(id1(n, 1, 2, i3), id1(n, 1, n, i3));
            }
        });
        p.barrier();
        // Axis 3: whole-plane copies (including the ghosts just written),
        // split by row: a rank writes rows `i2s` of the two ghost planes and
        // reads the same rows of two interior planes nobody writes any more.
        p.for_chunks_in(1, n + 1, |i2s| {
            for i2 in i2s {
                copy_row(id1(n, 1, i2, n - 1), id1(n, 1, i2, 1));
                copy_row(id1(n, 1, i2, 2), id1(n, 1, i2, n));
            }
        });
    });
}

/// Run `row(i2, i3, lines)` for every `i2` and `i3` in `range`, the `i3`
/// planes split across the team and `lines` the calling rank's scratch.
fn for_rows(
    range: Range<usize>,
    scratch: &MgScratch,
    team: Option<&Team>,
    row: impl Fn(usize, usize, &mut [Vec<f64>; 3]) + Sync,
) {
    run_par(team, |p| {
        // SAFETY: rank `tid` of this region exclusively owns slot `tid`,
        // and the borrow ends with the region (RankScratch discipline).
        let lines = unsafe { scratch.lines.rank_mut(p.tid()) };
        p.for_chunks_in(range.start, range.end, |i3s| {
            for i3 in i3s {
                for i2 in range.clone() {
                    row(i2, i3, lines);
                }
            }
        });
    });
}

/// The two line sums `resid` and `psinv` share, for row `(i2, i3)` of the
/// grid whose rows `g` borrows: `s1` over the four rows sharing a face
/// with it, `s2` over the four sharing only an edge, in `mg.f`'s order.
#[inline(always)]
fn line_sums<'g, const SAFE: bool>(
    g: impl Fn(usize, usize) -> &'g [f64],
    i2: usize,
    i3: usize,
    s1: &mut [f64],
    s2: &mut [f64],
) {
    sum4::<SAFE>(s1, g(i2 - 1, i3), g(i2 + 1, i3), g(i2, i3 - 1), g(i2, i3 + 1));
    sum4::<SAFE>(s2, g(i2 - 1, i3 - 1), g(i2 + 1, i3 - 1), g(i2 - 1, i3 + 1), g(i2 + 1, i3 + 1));
}

/// Residual: `r = v - A u` followed by the boundary exchange on `r`;
/// `v = None` is the V-cycle's in-place `r = r - A u`. The update reads
/// `v` only at the point being written, so elementwise in-place is exact.
pub fn resid<const SAFE: bool>(
    u: &SharedMut<f64>,
    v: Option<&SharedMut<f64>>,
    r: &SharedMut<f64>,
    n: usize,
    a: &[f64; 4],
    scratch: &MgScratch,
    team: Option<&Team>,
) {
    // SAFETY: no rank writes `u` during the region below.
    let urow = |i2, i3| unsafe { u.row(id1(n, 1, i2, i3), n) };
    for_rows(2..n, scratch, team, |i2, i3, [u1, u2, _]| {
        let (u1, u2) = (&mut u1[..n], &mut u2[..n]);
        line_sums::<SAFE>(urow, i2, i3, u1, u2);
        let at = id1(n, 1, i2, i3);
        // SAFETY: no rank writes a separate `v`. Row `at` of `r` lies in a
        // plane of this rank's chunk, which no other rank touches, and this
        // is the only view of it: the in-place form reads `r` through it.
        let (vrow, rrow) = unsafe { (v.map(|v| v.row(at, n)), r.row_mut(at, n)) };
        resid_row::<SAFE>(rrow, vrow, urow(i2, i3), u1, u2, a);
    });
    comm3::<SAFE>(r, n, team);
}

/// Smoother: `u += S r` followed by the boundary exchange on `u`.
pub fn psinv<const SAFE: bool>(
    r: &SharedMut<f64>,
    u: &SharedMut<f64>,
    n: usize,
    c: &[f64; 4],
    scratch: &MgScratch,
    team: Option<&Team>,
) {
    // SAFETY: no rank writes `r` during the region below.
    let rrow = |i2, i3| unsafe { r.row(id1(n, 1, i2, i3), n) };
    for_rows(2..n, scratch, team, |i2, i3, [r1, r2, _]| {
        let (r1, r2) = (&mut r1[..n], &mut r2[..n]);
        line_sums::<SAFE>(rrow, i2, i3, r1, r2);
        // SAFETY: the only view of a row of `u` in a plane of this rank's
        // chunk, which no other rank touches.
        let urow = unsafe { u.row_mut(id1(n, 1, i2, i3), n) };
        psinv_row::<SAFE>(urow, rrow(i2, i3), r1, r2, c);
    });
    comm3::<SAFE>(u, n, team);
}

/// Restriction (`rprj3`): half-weighting projection of the fine residual
/// `r` (extent `nf`) onto the coarse grid `s` (extent `nc`), then the
/// boundary exchange on `s`.
pub fn rprj3<const SAFE: bool>(
    r: &SharedMut<f64>,
    nf: usize,
    s: &SharedMut<f64>,
    nc: usize,
    scratch: &MgScratch,
    team: Option<&Team>,
) {
    // The d1=2 branch of the reference only triggers for extent-3 grids,
    // which cannot occur with power-of-two levels (coarsest is 4).
    assert!(nf >= 4 && nc >= 4 && nf == 2 * nc - 2, "rprj3 sizes {nf}/{nc}");
    // SAFETY: no rank writes `r` during the region below.
    let g = |i2, i3| unsafe { r.row(id1(nf, 1, i2, i3), nf) };
    for_rows(2..nc, scratch, team, |j2, j3, [x, y, _]| {
        let (x, y) = (&mut x[..nf], &mut y[..nf]);
        let (i2, i3) = (2 * j2 - 1, 2 * j3 - 1);
        sum4::<SAFE>(x, g(i2 - 1, i3), g(i2 + 1, i3), g(i2, i3 - 1), g(i2, i3 + 1));
        sum4::<SAFE>(y, g(i2 - 1, i3 - 1), g(i2 - 1, i3 + 1), g(i2 + 1, i3 - 1), g(i2 + 1, i3 + 1));
        // SAFETY: the only view of a row of `s` in a plane of this rank's
        // chunk, which no other rank touches.
        let srow = unsafe { s.row_mut(id1(nc, 1, j2, j3), nc) };
        rprj3_row::<SAFE>(srow, g(i2, i3), x, y);
    });
    comm3::<SAFE>(s, nc, team);
}

/// Prolongation (`interp`): trilinear interpolation of the coarse
/// correction `z` (extent `nc`) **added** into the fine grid `u`
/// (extent `nf`). No boundary exchange (the following `resid`/`psinv`
/// re-establish the ghosts), as in the reference.
pub fn interp<const SAFE: bool>(
    z: &SharedMut<f64>,
    nc: usize,
    u: &SharedMut<f64>,
    nf: usize,
    scratch: &MgScratch,
    team: Option<&Team>,
) {
    assert!(nc >= 4 && nf == 2 * nc - 2, "interp sizes {nc}/{nf}");
    // SAFETY: no rank writes `z` during the region below.
    let zrow = |i2, i3| unsafe { z.row(id1(nc, 1, i2, i3), nc) };
    // SAFETY: coarse plane `i3` feeds fine planes `2 i3 - 1` and `2 i3`
    // only, so the fine rows of one rank's chunk are touched by no other
    // rank; each view is dropped before the next is taken.
    let urow = |i2, i3| unsafe { u.row_mut(id1(nf, 1, i2, i3), nf) };
    for_rows(1..nc, scratch, team, |i2, i3, [z1, z2, z3]| {
        let (z1, z2, z3) = (&mut z1[..nc], &mut z2[..nc], &mut z3[..nc]);
        let (z0, za, zb, zc) =
            (zrow(i2, i3), zrow(i2 + 1, i3), zrow(i2, i3 + 1), zrow(i2 + 1, i3 + 1));
        for i in 0..nc {
            let (z0i, zbi) = (ld::<_, SAFE>(z0, i), ld::<_, SAFE>(zb, i));
            let z1i = ld::<_, SAFE>(za, i) + z0i;
            st::<_, SAFE>(z1, i, z1i);
            st::<_, SAFE>(z2, i, zbi + z0i);
            st::<_, SAFE>(z3, i, ld::<_, SAFE>(zc, i) + zbi + z1i);
        }
        interp_row::<SAFE>(urow(2 * i2 - 1, 2 * i3 - 1), z0, 1.0, 0.5);
        interp_row::<SAFE>(urow(2 * i2, 2 * i3 - 1), z1, 0.5, 0.25);
        interp_row::<SAFE>(urow(2 * i2 - 1, 2 * i3), z2, 0.5, 0.25);
        interp_row::<SAFE>(urow(2 * i2, 2 * i3), z3, 0.25, 0.125);
    });
}

/// Norms over the interior: returns `(rnm2, rnmu)` = (scaled L2 norm,
/// max norm).
pub fn norm2u3<const SAFE: bool>(r: &SharedMut<f64>, n: usize, team: Option<&Team>) -> (f64, f64) {
    let nthreads = team.map_or(1, Team::size);
    let psum = Partials::new(nthreads);
    let pmax = Partials::new(nthreads);
    run_par(team, |p| {
        let id = |i1, i2, i3| id1(n, i1, i2, i3);
        let mut s = 0.0f64;
        let mut m = 0.0f64;
        for i3 in p.range_of(2, n) {
            for i2 in 2..n {
                for i1 in 2..n {
                    let v = r.get::<SAFE>(id(i1, i2, i3));
                    s += v * v;
                    m = m.max(v.abs());
                }
            }
        }
        psum.set(p.tid(), s);
        pmax.set(p.tid(), m);
    });
    let dn = ((n - 2) * (n - 2) * (n - 2)) as f64;
    ((psum.sum() / dn).sqrt(), pmax.max())
}

/// The per-point loop nests the row kernels replaced — `mg.f` line for
/// line, 1-based, serial, over plain slices — kept as the reference the
/// row kernels must reproduce bit for bit.
#[cfg(test)]
mod oracle {
    use super::id1;

    pub fn comm3(u: &mut [f64], n: usize) {
        let id = |i1, i2, i3| id1(n, i1, i2, i3);
        for i3 in 2..n {
            for i2 in 2..n {
                u[id(1, i2, i3)] = u[id(n - 1, i2, i3)];
                u[id(n, i2, i3)] = u[id(2, i2, i3)];
            }
            for i1 in 1..=n {
                u[id(i1, 1, i3)] = u[id(i1, n - 1, i3)];
                u[id(i1, n, i3)] = u[id(i1, 2, i3)];
            }
        }
        for i2 in 1..=n {
            for i1 in 1..=n {
                u[id(i1, i2, 1)] = u[id(i1, i2, n - 1)];
                u[id(i1, i2, n)] = u[id(i1, i2, 2)];
            }
        }
    }

    /// `v = None` reads `r` at the point being written (`resid(u, r, r)`).
    pub fn resid(u: &[f64], v: Option<&[f64]>, r: &mut [f64], n: usize, a: &[f64; 4]) {
        let id = |i1, i2, i3| id1(n, i1, i2, i3);
        let (mut u1, mut u2) = (vec![0.0; n + 2], vec![0.0; n + 2]);
        for i3 in 2..n {
            for i2 in 2..n {
                for i1 in 1..=n {
                    u1[i1] = u[id(i1, i2 - 1, i3)]
                        + u[id(i1, i2 + 1, i3)]
                        + u[id(i1, i2, i3 - 1)]
                        + u[id(i1, i2, i3 + 1)];
                    u2[i1] = u[id(i1, i2 - 1, i3 - 1)]
                        + u[id(i1, i2 + 1, i3 - 1)]
                        + u[id(i1, i2 - 1, i3 + 1)]
                        + u[id(i1, i2 + 1, i3 + 1)];
                }
                for i1 in 2..n {
                    r[id(i1, i2, i3)] = v.map_or(r[id(i1, i2, i3)], |v| v[id(i1, i2, i3)])
                        - a[0] * u[id(i1, i2, i3)]
                        - a[2] * (u2[i1] + u1[i1 - 1] + u1[i1 + 1])
                        - a[3] * (u2[i1 - 1] + u2[i1 + 1]);
                }
            }
        }
        comm3(r, n);
    }

    pub fn psinv(r: &[f64], u: &mut [f64], n: usize, c: &[f64; 4]) {
        let id = |i1, i2, i3| id1(n, i1, i2, i3);
        let (mut r1, mut r2) = (vec![0.0; n + 2], vec![0.0; n + 2]);
        for i3 in 2..n {
            for i2 in 2..n {
                for i1 in 1..=n {
                    r1[i1] = r[id(i1, i2 - 1, i3)]
                        + r[id(i1, i2 + 1, i3)]
                        + r[id(i1, i2, i3 - 1)]
                        + r[id(i1, i2, i3 + 1)];
                    r2[i1] = r[id(i1, i2 - 1, i3 - 1)]
                        + r[id(i1, i2 + 1, i3 - 1)]
                        + r[id(i1, i2 - 1, i3 + 1)]
                        + r[id(i1, i2 + 1, i3 + 1)];
                }
                for i1 in 2..n {
                    u[id(i1, i2, i3)] = u[id(i1, i2, i3)]
                        + c[0] * r[id(i1, i2, i3)]
                        + c[1] * (r[id(i1 - 1, i2, i3)] + r[id(i1 + 1, i2, i3)] + r1[i1])
                        + c[2] * (r2[i1] + r1[i1 - 1] + r1[i1 + 1]);
                }
            }
        }
        comm3(u, n);
    }

    pub fn rprj3(r: &[f64], nf: usize, s: &mut [f64], nc: usize) {
        let idf = |i1, i2, i3| id1(nf, i1, i2, i3);
        let (mut x1, mut y1) = (vec![0.0; nf + 2], vec![0.0; nf + 2]);
        for j3 in 2..nc {
            let i3 = 2 * j3 - 1;
            for j2 in 2..nc {
                let i2 = 2 * j2 - 1;
                for j1 in 2..=nc {
                    let i1 = 2 * j1 - 1;
                    x1[i1 - 1] = r[idf(i1 - 1, i2 - 1, i3)]
                        + r[idf(i1 - 1, i2 + 1, i3)]
                        + r[idf(i1 - 1, i2, i3 - 1)]
                        + r[idf(i1 - 1, i2, i3 + 1)];
                    y1[i1 - 1] = r[idf(i1 - 1, i2 - 1, i3 - 1)]
                        + r[idf(i1 - 1, i2 - 1, i3 + 1)]
                        + r[idf(i1 - 1, i2 + 1, i3 - 1)]
                        + r[idf(i1 - 1, i2 + 1, i3 + 1)];
                }
                for j1 in 2..nc {
                    let i1 = 2 * j1 - 1;
                    let y2 = r[idf(i1, i2 - 1, i3 - 1)]
                        + r[idf(i1, i2 - 1, i3 + 1)]
                        + r[idf(i1, i2 + 1, i3 - 1)]
                        + r[idf(i1, i2 + 1, i3 + 1)];
                    let x2 = r[idf(i1, i2 - 1, i3)]
                        + r[idf(i1, i2 + 1, i3)]
                        + r[idf(i1, i2, i3 - 1)]
                        + r[idf(i1, i2, i3 + 1)];
                    s[id1(nc, j1, j2, j3)] = 0.5 * r[idf(i1, i2, i3)]
                        + 0.25 * (r[idf(i1 - 1, i2, i3)] + r[idf(i1 + 1, i2, i3)] + x2)
                        + 0.125 * (x1[i1 - 1] + x1[i1 + 1] + y2)
                        + 0.0625 * (y1[i1 - 1] + y1[i1 + 1]);
                }
            }
        }
        comm3(s, nc);
    }

    pub fn interp(z: &[f64], nc: usize, u: &mut [f64], nf: usize) {
        let idc = |i1, i2, i3| id1(nc, i1, i2, i3);
        let idf = |i1, i2, i3| id1(nf, i1, i2, i3);
        let (mut z1, mut z2, mut z3) = (vec![0.0; nc + 2], vec![0.0; nc + 2], vec![0.0; nc + 2]);
        for i3 in 1..nc {
            for i2 in 1..nc {
                for i1 in 1..=nc {
                    z1[i1] = z[idc(i1, i2 + 1, i3)] + z[idc(i1, i2, i3)];
                    z2[i1] = z[idc(i1, i2, i3 + 1)] + z[idc(i1, i2, i3)];
                    z3[i1] = z[idc(i1, i2 + 1, i3 + 1)] + z[idc(i1, i2, i3 + 1)] + z1[i1];
                }
                for i1 in 1..nc {
                    u[idf(2 * i1 - 1, 2 * i2 - 1, 2 * i3 - 1)] += z[idc(i1, i2, i3)];
                    u[idf(2 * i1, 2 * i2 - 1, 2 * i3 - 1)] +=
                        0.5 * (z[idc(i1 + 1, i2, i3)] + z[idc(i1, i2, i3)]);
                }
                for i1 in 1..nc {
                    u[idf(2 * i1 - 1, 2 * i2, 2 * i3 - 1)] += 0.5 * z1[i1];
                    u[idf(2 * i1, 2 * i2, 2 * i3 - 1)] += 0.25 * (z1[i1] + z1[i1 + 1]);
                }
                for i1 in 1..nc {
                    u[idf(2 * i1 - 1, 2 * i2 - 1, 2 * i3)] += 0.5 * z2[i1];
                    u[idf(2 * i1, 2 * i2 - 1, 2 * i3)] += 0.25 * (z2[i1] + z2[i1 + 1]);
                }
                for i1 in 1..nc {
                    u[idf(2 * i1 - 1, 2 * i2, 2 * i3)] += 0.25 * z3[i1];
                    u[idf(2 * i1, 2 * i2, 2 * i3)] += 0.125 * (z3[i1] + z3[i1 + 1]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, f: impl Fn(usize, usize, usize) -> f64) -> Vec<f64> {
        let mut v = vec![0.0; n * n * n];
        for i3 in 1..=n {
            for i2 in 1..=n {
                for i1 in 1..=n {
                    v[id1(n, i1, i2, i3)] = f(i1, i2, i3);
                }
            }
        }
        v
    }

    #[test]
    fn comm3_wraps_all_axes() {
        let n = 6;
        let mut v = grid(n, |i1, i2, i3| (i1 * 100 + i2 * 10 + i3) as f64);
        let s = unsafe { SharedMut::new(&mut v) };
        comm3::<true>(&s, n, None);
        // Ghost at i1=1 must equal interior at i1=n-1.
        assert_eq!(s.get::<true>(id1(n, 1, 3, 3)), s.get::<true>(id1(n, n - 1, 3, 3)));
        assert_eq!(s.get::<true>(id1(n, n, 3, 3)), s.get::<true>(id1(n, 2, 3, 3)));
        assert_eq!(s.get::<true>(id1(n, 3, 1, 3)), s.get::<true>(id1(n, 3, n - 1, 3)));
        assert_eq!(s.get::<true>(id1(n, 3, 3, n)), s.get::<true>(id1(n, 3, 3, 2)));
        // Corner ghosts resolve through the axis ordering.
        assert_eq!(s.get::<true>(id1(n, 1, 1, 1)), s.get::<true>(id1(n, n - 1, n - 1, n - 1)));
    }

    #[test]
    fn resid_of_constant_field_is_rhs_scaled() {
        // A applied to a constant c gives c * (a0 + 12 a2 + 8 a3) + 6*a1*c;
        // with the NPB coefficients (-8/3, 0, 1/6, 1/12) that sum is
        // -8/3 + 12/6 + 8/12 = 0, so r = v exactly.
        let n = 8;
        let mut u = grid(n, |_, _, _| 3.5);
        let mut v = grid(n, |i1, i2, i3| (i1 + i2 + i3) as f64);
        let mut r = vec![0.0; n * n * n];
        let su = unsafe { SharedMut::new(&mut u) };
        let sv = unsafe { SharedMut::new(&mut v) };
        let sr = unsafe { SharedMut::new(&mut r) };
        let scratch = MgScratch::new(1, n);
        resid::<true>(&su, Some(&sv), &sr, n, &A, &scratch, None);
        for i3 in 2..n {
            for i2 in 2..n {
                for i1 in 2..n {
                    let got = sr.get::<true>(id1(n, i1, i2, i3));
                    let want = (i1 + i2 + i3) as f64;
                    assert!((got - want).abs() < 1e-12, "r({i1},{i2},{i3}) = {got}");
                }
            }
        }
    }

    #[test]
    fn operators_parallel_match_serial() {
        let n = 10;
        let init = |seed: f64| grid(n, |i1, i2, i3| ((i1 * 7 + i2 * 3 + i3) as f64).sin() * seed);

        let team = npb_runtime::Team::new(3);
        let run_ops = |team: Option<&Team>| {
            let mut u = init(1.0);
            let mut v = init(2.0);
            let mut r = vec![0.0; n * n * n];
            let nc = (n - 2) / 2 + 2;
            let mut sgrid = vec![0.0; nc * nc * nc];
            let scratch = MgScratch::new(team.map_or(1, Team::size), n);
            {
                let su = unsafe { SharedMut::new(&mut u) };
                let sv = unsafe { SharedMut::new(&mut v) };
                let sr = unsafe { SharedMut::new(&mut r) };
                let ss = unsafe { SharedMut::new(&mut sgrid) };
                comm3::<false>(&su, n, team);
                resid::<false>(&su, Some(&sv), &sr, n, &A, &scratch, team);
                psinv::<false>(&sr, &su, n, &C, &scratch, team);
                rprj3::<false>(&sr, n, &ss, nc, &scratch, team);
                interp::<false>(&ss, nc, &su, n, &scratch, team);
            }
            (u, r, sgrid)
        };
        let (u_s, r_s, s_s) = run_ops(None);
        let (u_p, r_p, s_p) = run_ops(Some(&team));
        assert_eq!(u_s, u_p);
        assert_eq!(r_s, r_p);
        assert_eq!(s_s, s_p);
    }

    const A: [f64; 4] = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];
    const C: [f64; 4] = [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0];

    /// A field with no two equal elements and no exactly representable
    /// sums, ghosts included.
    fn field(n: usize, seed: f64) -> Vec<f64> {
        grid(n, |i1, i2, i3| ((i1 * 7 + i2 * 3 + i3) as f64 + seed).sin() * (1.0 + seed))
    }

    fn view(v: &mut [f64]) -> SharedMut<'_, f64> {
        // SAFETY: the operators under test partition their writes by plane.
        unsafe { SharedMut::new(v) }
    }

    #[track_caller]
    fn same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g:e} vs oracle {w:e}");
        }
    }

    /// Every operator against the per-point oracle, every grid element by
    /// bits, chained the way a V-cycle chains them so each one also sees
    /// the ghosts its predecessor's `comm3` wrote.
    fn row_kernels_match_oracle<const SAFE: bool>(n: usize, team: Option<&Team>) {
        let what = |op: &str| format!("{op}, n = {n}, safe = {SAFE}, team = {}", team.is_some());
        let nc = n / 2 + 1;
        let scratch = MgScratch::new(team.map_or(1, Team::size), n);
        let (mut u, v, mut r, mut s) =
            (field(n, 1.0), field(n, 2.0), field(n, 3.0), field(nc, 4.0));
        let (mut ou, mut or, mut os) = (u.clone(), r.clone(), s.clone());

        comm3::<SAFE>(&view(&mut u), n, team);
        oracle::comm3(&mut ou, n);
        same_bits(&u, &ou, &what("comm3"));

        resid::<SAFE>(
            &view(&mut u),
            Some(&view(&mut v.clone())),
            &view(&mut r),
            n,
            &A,
            &scratch,
            team,
        );
        oracle::resid(&ou, Some(&v), &mut or, n, &A);
        same_bits(&r, &or, &what("resid"));

        psinv::<SAFE>(&view(&mut r), &view(&mut u), n, &C, &scratch, team);
        oracle::psinv(&or, &mut ou, n, &C);
        same_bits(&u, &ou, &what("psinv"));

        resid::<SAFE>(&view(&mut u), None, &view(&mut r), n, &A, &scratch, team);
        oracle::resid(&ou, None, &mut or, n, &A);
        same_bits(&r, &or, &what("resid in place"));

        rprj3::<SAFE>(&view(&mut r), n, &view(&mut s), nc, &scratch, team);
        oracle::rprj3(&or, n, &mut os, nc);
        same_bits(&s, &os, &what("rprj3"));

        interp::<SAFE>(&view(&mut s), nc, &view(&mut u), n, &scratch, team);
        oracle::interp(&os, nc, &mut ou, n);
        same_bits(&u, &ou, &what("interp"));

        zero3(&view(&mut u), n, team);
        assert!(u.iter().all(|x| x.to_bits() == 0), "{}", what("zero3"));
    }

    /// The extents the hierarchy really uses are `2^k + 2`: whatever the
    /// vector width, a row is a vector body plus a two-element tail, and
    /// the interior a body plus nothing. A Team of 3 splits 4, 8, 16 and 32
    /// interior planes unevenly.
    #[test]
    fn row_kernels_equal_the_per_point_reference_bit_for_bit() {
        let team = Team::new(3);
        for n in [6, 10, 18, 34] {
            for team in [None, Some(&team)] {
                row_kernels_match_oracle::<true>(n, team);
                row_kernels_match_oracle::<false>(n, team);
            }
        }
    }

    #[test]
    fn resid_in_place_equals_resid_into_a_copy() {
        for n in [6, 18] {
            let scratch = MgScratch::new(1, n);
            let (mut u, mut r) = (field(n, 5.0), field(n, 6.0));
            let (mut v, mut out) = (r.clone(), vec![0.0; n * n * n]);
            resid::<false>(
                &view(&mut u),
                Some(&view(&mut v)),
                &view(&mut out),
                n,
                &A,
                &scratch,
                None,
            );
            resid::<false>(&view(&mut u), None, &view(&mut r), n, &A, &scratch, None);
            same_bits(&r, &out, "resid in place vs into a copy");
        }
    }

    /// A grid one row short must stop at the row view's range check — in
    /// both styles, since that check is per row, not per element — rather
    /// than read or write past the allocation.
    fn resid_with_a_short_grid<const SAFE: bool>(short_output: bool) {
        let n = 6;
        let (mut u, mut v, mut r) = (field(n, 1.0), field(n, 2.0), field(n, 3.0));
        let cut = n * n * n - n;
        let (u, r) =
            if short_output { (&mut u[..], &mut r[..cut]) } else { (&mut u[..cut], &mut r[..]) };
        let scratch = MgScratch::new(1, n);
        resid::<SAFE>(&view(u), Some(&view(&mut v)), &view(r), n, &A, &scratch, None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn safe_style_panics_on_a_short_input_grid() {
        resid_with_a_short_grid::<true>(false);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn safe_style_panics_on_a_short_output_grid() {
        resid_with_a_short_grid::<true>(true);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn opt_style_panics_on_a_short_grid_too() {
        resid_with_a_short_grid::<false>(false);
    }

    #[test]
    fn norm2u3_computes_scaled_l2_and_max() {
        let n = 6;
        let mut r = grid(n, |i1, i2, i3| {
            if (2..n).contains(&i1) && (2..n).contains(&i2) && (2..n).contains(&i3) {
                2.0
            } else {
                99.0 // ghosts must be ignored
            }
        });
        let sr = unsafe { SharedMut::new(&mut r) };
        let (rnm2, rnmu) = norm2u3::<true>(&sr, n, None);
        assert!((rnm2 - 2.0).abs() < 1e-12);
        assert_eq!(rnmu, 2.0);
    }

    #[test]
    fn zero3_clears() {
        let n = 5;
        let mut v = grid(n, |_, _, _| 7.0);
        let s = unsafe { SharedMut::new(&mut v) };
        zero3(&s, n, None);
        drop(s);
        assert!(v.iter().all(|&x| x == 0.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use npb_runtime::SharedMut;

    /// The residual operator is affine: resid(u, v) - resid(u, 0)
    /// equals v on the interior (A u enters with one sign, v with
    /// the other). Seeds are a fixed deterministic sample.
    #[test]
    fn resid_is_affine_in_v() {
        for seed in [0u64, 17, 93, 256, 511, 760, 999] {
            let n = 8;
            let a = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];
            let field = |s: u64| -> Vec<f64> {
                (0..n * n * n)
                    .map(|i| {
                        (((i as u64).wrapping_mul(2654435761).wrapping_add(s)) % 1000) as f64 * 1e-3
                    })
                    .collect()
            };
            let mut u = field(seed);
            let mut v = field(seed.wrapping_add(17));
            let mut zero = vec![0.0; n * n * n];
            let mut r1 = vec![0.0; n * n * n];
            let mut r0 = vec![0.0; n * n * n];
            {
                let su = unsafe { SharedMut::new(&mut u) };
                let sv = unsafe { SharedMut::new(&mut v) };
                let sz = unsafe { SharedMut::new(&mut zero) };
                let sr1 = unsafe { SharedMut::new(&mut r1) };
                let sr0 = unsafe { SharedMut::new(&mut r0) };
                let scratch = MgScratch::new(1, n);
                resid::<true>(&su, Some(&sv), &sr1, n, &a, &scratch, None);
                resid::<true>(&su, Some(&sz), &sr0, n, &a, &scratch, None);
            }
            for i3 in 2..n - 1 {
                for i2 in 2..n - 1 {
                    for i1 in 2..n - 1 {
                        let id = id1(n, i1, i2, i3);
                        assert!((r1[id] - r0[id] - v[id]).abs() < 1e-12, "seed {seed}");
                    }
                }
            }
        }
    }

    /// Restriction of a constant field is (asymptotically) the same
    /// constant: the rprj3 weights sum to 2 over interior cells, and
    /// comm3 keeps the field periodic-consistent. Constants are a fixed
    /// deterministic sample of (0.5, 2.0).
    #[test]
    fn rprj3_weights_sum() {
        for c0 in [0.5f64, 0.75, 1.0, 1.3, 1.7, 2.0] {
            let nf = 10usize;
            let nc = 6usize;
            let mut r = vec![c0; nf * nf * nf];
            let mut s = vec![0.0; nc * nc * nc];
            {
                let sr = unsafe { SharedMut::new(&mut r) };
                let ss = unsafe { SharedMut::new(&mut s) };
                let scratch = MgScratch::new(1, nf);
                rprj3::<true>(&sr, nf, &ss, nc, &scratch, None);
            }
            // 0.5 + 0.25*6 + 0.125*12 + 0.0625*8 = 4*... the full-weighting
            // stencil sums to 4 in 3-D half-weighting form: check against
            // the value computed at one interior coarse point.
            let w = s[id1(nc, 3, 3, 3)] / c0;
            for i3 in 2..nc - 1 {
                for i2 in 2..nc - 1 {
                    for i1 in 2..nc - 1 {
                        assert!((s[id1(nc, i1, i2, i3)] - w * c0).abs() < 1e-12, "c0 {c0}");
                    }
                }
            }
        }
    }
}
