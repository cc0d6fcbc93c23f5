//! The SSOR triangular sweeps: `jacld`+`blts` (block lower) and
//! `jacu`+`buts` (block upper), with the pipelined wavefront
//! parallelization of the OpenMP reference — the structure the paper
//! singles out: "LU … performs the thread synchronization inside a loop
//! over one grid dimension, thus introducing higher overhead."
//!
//! Within a plane `k`, point `(i, j)` depends on `(i-1, j)` and
//! `(i, j-1)` (lower sweep; the mirror for the upper sweep), so the j
//! range is partitioned across threads and thread `t` may start its
//! chunk of plane `k` only after thread `t-1` has finished that plane —
//! a point-to-point flag synchronization per plane, not a full barrier.

use crate::params::OMEGA;
use crate::rhs::LuFields;
use npb_cfd_common::jacobians::{jac_x, jac_y, jac_z, Block, ZERO_BLOCK};
use npb_cfd_common::{idx5, Consts};
use npb_core::ld;
use npb_runtime::{run_par, SharedMut, Team};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The diagonal block `d` of `jacld`/`jacu` (identical in both) at one
/// point with conserved variables `u`.
fn d_block(c: &Consts, dt: f64, u: &[f64; 5]) -> Block {
    let tmp1 = 1.0 / u[0];
    let tmp2 = tmp1 * tmp1;
    let tmp3 = tmp1 * tmp2;
    let r43 = c.con43;
    let c34 = c.c3c4;
    let c1345 = c.c1345;
    let (tx1, ty1, tz1) = (c.tx1, c.ty1, c.tz1);

    let mut d = ZERO_BLOCK;
    d[0][0] = 1.0 + dt * 2.0 * (tx1 * c.dx[0] + ty1 * c.dy[0] + tz1 * c.dz[0]);

    d[1][0] = -dt * 2.0 * (tx1 * r43 + ty1 + tz1) * c34 * tmp2 * u[1];
    d[1][1] = 1.0
        + dt * 2.0 * c34 * tmp1 * (tx1 * r43 + ty1 + tz1)
        + dt * 2.0 * (tx1 * c.dx[1] + ty1 * c.dy[1] + tz1 * c.dz[1]);

    d[2][0] = -dt * 2.0 * (tx1 + ty1 * r43 + tz1) * c34 * tmp2 * u[2];
    d[2][2] = 1.0
        + dt * 2.0 * c34 * tmp1 * (tx1 + ty1 * r43 + tz1)
        + dt * 2.0 * (tx1 * c.dx[2] + ty1 * c.dy[2] + tz1 * c.dz[2]);

    d[3][0] = -dt * 2.0 * (tx1 + ty1 + tz1 * r43) * c34 * tmp2 * u[3];
    d[3][3] = 1.0
        + dt * 2.0 * c34 * tmp1 * (tx1 + ty1 + tz1 * r43)
        + dt * 2.0 * (tx1 * c.dx[3] + ty1 * c.dy[3] + tz1 * c.dz[3]);

    d[4][0] = -dt
        * 2.0
        * (((tx1 * (r43 * c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (c34 - c1345))
            * (u[1] * u[1])
            + (tx1 * (c34 - c1345) + ty1 * (r43 * c34 - c1345) + tz1 * (c34 - c1345))
                * (u[2] * u[2])
            + (tx1 * (c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (r43 * c34 - c1345))
                * (u[3] * u[3]))
            * tmp3
            + (tx1 + ty1 + tz1) * c1345 * tmp2 * u[4]);
    d[4][1] = dt
        * 2.0
        * tmp2
        * u[1]
        * (tx1 * (r43 * c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (c34 - c1345));
    d[4][2] = dt
        * 2.0
        * tmp2
        * u[2]
        * (tx1 * (c34 - c1345) + ty1 * (r43 * c34 - c1345) + tz1 * (c34 - c1345));
    d[4][3] = dt
        * 2.0
        * tmp2
        * u[3]
        * (tx1 * (c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (r43 * c34 - c1345));
    d[4][4] = 1.0
        + dt * 2.0 * (tx1 + ty1 + tz1) * c1345 * tmp1
        + dt * 2.0 * (tx1 * c.dx[4] + ty1 * c.dy[4] + tz1 * c.dz[4]);
    d
}

/// Off-diagonal Newton block for direction `dir` (0 = x, 1 = y, 2 = z)
/// built from the neighbor's state `u`:
/// lower (`UPPER = false`): `-dt·t2·F - dt·t1·N - dt·t1·d_diag`;
/// upper (`UPPER = true`):  `+dt·t2·F - dt·t1·N - dt·t1·d_diag`.
fn neighbor_block<const UPPER: bool>(c: &Consts, dt: f64, dir: usize, u: &[f64; 5]) -> Block {
    let tmp1 = 1.0 / u[0];
    let square = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) * tmp1;
    let qs = square * tmp1;
    let mut fj = ZERO_BLOCK;
    let mut nj = ZERO_BLOCK;
    let (t1, t2, d) = match dir {
        0 => {
            jac_x(c, u, qs, square, &mut fj, &mut nj);
            (dt * c.tx1, dt * c.tx2, &c.dx)
        }
        1 => {
            jac_y(c, u, qs, square, &mut fj, &mut nj);
            (dt * c.ty1, dt * c.ty2, &c.dy)
        }
        _ => {
            jac_z(c, u, qs, square, &mut fj, &mut nj);
            (dt * c.tz1, dt * c.tz2, &c.dz)
        }
    };
    let s = if UPPER { t2 } else { -t2 };
    let mut b = ZERO_BLOCK;
    for m in 0..5 {
        for n in 0..5 {
            let dm = if m == n { t1 * d[m] } else { 0.0 };
            b[m][n] = s * fj[m][n] - t1 * nj[m][n] - dm;
        }
    }
    b
}

/// Dense 5×5 solve (no pivoting) exactly as the unrolled elimination in
/// `blts.f`/`buts.f`: forward elimination on `tmat` + `tv`, then back
/// substitution into `tv`.
#[inline]
fn diag_solve(tmat: &mut Block, tv: &mut [f64; 5]) {
    for p in 0..4 {
        let tmp1 = 1.0 / tmat[p][p];
        for row in p + 1..5 {
            let tmp = tmp1 * tmat[row][p];
            for col in p + 1..5 {
                tmat[row][col] -= tmp * tmat[p][col];
            }
            tv[row] -= tv[p] * tmp;
        }
    }
    tv[4] /= tmat[4][4];
    tv[3] = (tv[3] - tmat[3][4] * tv[4]) / tmat[3][3];
    tv[2] = (tv[2] - tmat[2][3] * tv[3] - tmat[2][4] * tv[4]) / tmat[2][2];
    tv[1] = (tv[1] - tmat[1][2] * tv[2] - tmat[1][3] * tv[3] - tmat[1][4] * tv[4]) / tmat[1][1];
    tv[0] =
        (tv[0] - tmat[0][1] * tv[1] - tmat[0][2] * tv[2] - tmat[0][3] * tv[3] - tmat[0][4] * tv[4])
            / tmat[0][0];
}

#[inline(always)]
fn u_at<const SAFE: bool>(u: &[f64], base: usize) -> [f64; 5] {
    [
        ld::<_, SAFE>(u, base),
        ld::<_, SAFE>(u, base + 1),
        ld::<_, SAFE>(u, base + 2),
        ld::<_, SAFE>(u, base + 3),
        ld::<_, SAFE>(u, base + 4),
    ]
}

#[inline(always)]
fn rsd_at<const SAFE: bool>(rsd: &SharedMut<f64>, base: usize) -> [f64; 5] {
    [
        rsd.get::<SAFE>(base),
        rsd.get::<SAFE>(base + 1),
        rsd.get::<SAFE>(base + 2),
        rsd.get::<SAFE>(base + 3),
        rsd.get::<SAFE>(base + 4),
    ]
}

/// `jacld` + `blts` for plane `k` over `jrange` (ascending).
fn lower_plane<const SAFE: bool>(
    n: usize,
    c: &Consts,
    dt: f64,
    u: &[f64],
    rsd: &SharedMut<f64>,
    k: usize,
    jrange: std::ops::Range<usize>,
) {
    for j in jrange {
        for i in 1..n - 1 {
            let here = idx5(n, n, 0, i, j, k);
            let ub = u_at::<SAFE>(u, here);
            let mut d = d_block(c, dt, &ub);
            let az =
                neighbor_block::<false>(c, dt, 2, &u_at::<SAFE>(u, idx5(n, n, 0, i, j, k - 1)));
            let by =
                neighbor_block::<false>(c, dt, 1, &u_at::<SAFE>(u, idx5(n, n, 0, i, j - 1, k)));
            let cx =
                neighbor_block::<false>(c, dt, 0, &u_at::<SAFE>(u, idx5(n, n, 0, i - 1, j, k)));

            let rk = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i, j, k - 1));
            let rj = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i, j - 1, k));
            let ri = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i - 1, j, k));
            let rc = rsd_at::<SAFE>(rsd, here);

            let mut tv = [0.0f64; 5];
            for m in 0..5 {
                tv[m] = rc[m]
                    - OMEGA
                        * (az[m][0] * rk[0]
                            + az[m][1] * rk[1]
                            + az[m][2] * rk[2]
                            + az[m][3] * rk[3]
                            + az[m][4] * rk[4]);
            }
            for m in 0..5 {
                tv[m] -= OMEGA
                    * (by[m][0] * rj[0]
                        + cx[m][0] * ri[0]
                        + by[m][1] * rj[1]
                        + cx[m][1] * ri[1]
                        + by[m][2] * rj[2]
                        + cx[m][2] * ri[2]
                        + by[m][3] * rj[3]
                        + cx[m][3] * ri[3]
                        + by[m][4] * rj[4]
                        + cx[m][4] * ri[4]);
            }
            diag_solve(&mut d, &mut tv);
            for m in 0..5 {
                rsd.set::<SAFE>(here + m, tv[m]);
            }
        }
    }
}

/// `jacu` + `buts` for plane `k` over `jrange` (descending).
fn upper_plane<const SAFE: bool>(
    n: usize,
    c: &Consts,
    dt: f64,
    u: &[f64],
    rsd: &SharedMut<f64>,
    k: usize,
    jrange: std::ops::Range<usize>,
) {
    for j in jrange.rev() {
        for i in (1..n - 1).rev() {
            let here = idx5(n, n, 0, i, j, k);
            let ub = u_at::<SAFE>(u, here);
            let mut d = d_block(c, dt, &ub);
            let ax = neighbor_block::<true>(c, dt, 0, &u_at::<SAFE>(u, idx5(n, n, 0, i + 1, j, k)));
            let by = neighbor_block::<true>(c, dt, 1, &u_at::<SAFE>(u, idx5(n, n, 0, i, j + 1, k)));
            let cz = neighbor_block::<true>(c, dt, 2, &u_at::<SAFE>(u, idx5(n, n, 0, i, j, k + 1)));

            let rk = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i, j, k + 1));
            let rj = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i, j + 1, k));
            let ri = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i + 1, j, k));

            let mut tv = [0.0f64; 5];
            for m in 0..5 {
                tv[m] = OMEGA
                    * (cz[m][0] * rk[0]
                        + cz[m][1] * rk[1]
                        + cz[m][2] * rk[2]
                        + cz[m][3] * rk[3]
                        + cz[m][4] * rk[4]);
            }
            for m in 0..5 {
                tv[m] += OMEGA
                    * (by[m][0] * rj[0]
                        + ax[m][0] * ri[0]
                        + by[m][1] * rj[1]
                        + ax[m][1] * ri[1]
                        + by[m][2] * rj[2]
                        + ax[m][2] * ri[2]
                        + by[m][3] * rj[3]
                        + ax[m][3] * ri[3]
                        + by[m][4] * rj[4]
                        + ax[m][4] * ri[4]);
            }
            diag_solve(&mut d, &mut tv);
            for m in 0..5 {
                rsd.set::<SAFE>(here + m, rsd.get::<SAFE>(here + m) - tv[m]);
            }
        }
    }
}

/// Spin briefly, then yield: on machines with fewer free CPUs than
/// workers (including this reproduction's single-core host), a pure spin
/// would burn the quantum the predecessor thread needs to make progress.
#[inline]
fn wait_until(cond: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Lower triangular sweep over all interior planes, pipelined across the
/// team (thread `t` may enter plane `k` only after thread `t-1` left it).
///
/// The j-range comes from [`npb_runtime::Par::ordered_split`]: each point
/// is computed from exactly its already-updated neighbors in the exact
/// serial order, so the result is bit-identical for *any* contiguous
/// ordered partition of j — which lets `--sched feedback` move the
/// boundaries to equalize pipeline stage times (LU is the paper's
/// highest-sync benchmark, so this is where static imbalance hurts most).
/// Only compute time is reported to the timing history: charging the
/// `wait_until` pipeline stalls would re-split toward the wrong shares.
pub fn lower_sweep<const SAFE: bool>(f: &mut LuFields, c: &Consts, dt: f64, team: Option<&Team>) {
    let n = f.n;
    let u: &[f64] = &f.u;
    // SAFETY: rank `t` writes only its own j-range of plane `k`, and
    // reads a neighbour's rows of plane `k` only after that rank has
    // published it through `done` (Release/Acquire).
    let rsd = unsafe { SharedMut::new(&mut f.rsd) };
    let nthreads = team.map_or(1, Team::size);
    let done: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
    run_par(team, |par| {
        let split = par.ordered_split(1, n - 1);
        let jrange = split.range();
        let t = par.tid();
        let mut busy_ns = 0u64;
        for k in 1..n - 1 {
            if t > 0 {
                wait_until(|| done[t - 1].load(Ordering::Acquire) >= k);
            }
            if split.records() {
                let t0 = std::time::Instant::now();
                lower_plane::<SAFE>(n, c, dt, u, &rsd, k, jrange.clone());
                busy_ns += t0.elapsed().as_nanos() as u64;
            } else {
                lower_plane::<SAFE>(n, c, dt, u, &rsd, k, jrange.clone());
            }
            done[t].store(k, Ordering::Release);
        }
        par.ordered_finish(split, busy_ns);
    });
}

/// Upper triangular sweep (planes descending), pipelined in the mirror
/// direction (thread `t` waits on thread `t+1`). Scheduling as in
/// [`lower_sweep`].
pub fn upper_sweep<const SAFE: bool>(f: &mut LuFields, c: &Consts, dt: f64, team: Option<&Team>) {
    let n = f.n;
    let u: &[f64] = &f.u;
    // SAFETY: rank `t` writes only its own j-range of plane `k`, and
    // reads a neighbour's rows of plane `k` only after that rank has
    // published it through `done` (Release/Acquire).
    let rsd = unsafe { SharedMut::new(&mut f.rsd) };
    let nthreads = team.map_or(1, Team::size);
    // done[t] = number of planes thread t has completed.
    let done: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
    run_par(team, |par| {
        let split = par.ordered_split(1, n - 1);
        let jrange = split.range();
        let t = par.tid();
        let mut completed = 0usize;
        let mut busy_ns = 0u64;
        for k in (1..n - 1).rev() {
            if t + 1 < par.num_threads() {
                wait_until(|| done[t + 1].load(Ordering::Acquire) > completed);
            }
            if split.records() {
                let t0 = std::time::Instant::now();
                upper_plane::<SAFE>(n, c, dt, u, &rsd, k, jrange.clone());
                busy_ns += t0.elapsed().as_nanos() as u64;
            } else {
                upper_plane::<SAFE>(n, c, dt, u, &rsd, k, jrange.clone());
            }
            completed += 1;
            done[t].store(completed, Ordering::Release);
        }
        par.ordered_finish(split, busy_ns);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rhs::{erhs, rhs, setbv, setiv, LuFields};
    use npb_runtime::Team;

    fn setup(n: usize) -> (LuFields, Consts) {
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        setbv(&mut f, &c);
        setiv(&mut f, &c);
        erhs(&mut f, &c, None);
        rhs::<false>(&mut f, &c, None);
        for v in f.rsd.iter_mut() {
            *v *= 0.5; // dt scaling as in ssor
        }
        (f, c)
    }

    #[test]
    fn diag_solve_matches_dense_reference() {
        let mut m = ZERO_BLOCK;
        for i in 0..5 {
            for j in 0..5 {
                m[i][j] = ((i * 7 + j * 3) as f64).sin() * 0.2;
            }
            m[i][i] += 2.0;
        }
        let x_true = [1.0, -0.5, 2.0, 0.25, -1.25];
        let mut b = [0.0f64; 5];
        for i in 0..5 {
            for j in 0..5 {
                b[i] += m[i][j] * x_true[j];
            }
        }
        let mut tm = m;
        diag_solve(&mut tm, &mut b);
        for i in 0..5 {
            assert!((b[i] - x_true[i]).abs() < 1e-12, "x[{i}] = {}", b[i]);
        }
    }

    #[test]
    fn sweeps_parallel_match_serial_bitwise() {
        // The pipelined wavefront enforces the exact serial order of
        // cross-thread dependencies, so results are bit-identical.
        let (mut fs, c) = setup(12);
        let mut fp = fs.clone();
        lower_sweep::<false>(&mut fs, &c, 0.5, None);
        upper_sweep::<false>(&mut fs, &c, 0.5, None);
        for nt in [2usize, 4] {
            let team = Team::new(nt);
            let mut f2 = fp.clone();
            lower_sweep::<false>(&mut f2, &c, 0.5, Some(&team));
            upper_sweep::<false>(&mut f2, &c, 0.5, Some(&team));
            assert_eq!(fs.rsd, f2.rsd, "{nt} threads");
        }
        fp.rsd.clone_from(&fs.rsd); // silence unused warnings
    }

    #[test]
    fn ssor_step_reduces_residual_norm() {
        // One SSOR update must reduce the steady-state residual.
        let n = 12;
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        setbv(&mut f, &c);
        setiv(&mut f, &c);
        erhs(&mut f, &c, None);
        rhs::<false>(&mut f, &c, None);
        let norm0: f64 = f.rsd.iter().map(|v| v * v).sum::<f64>().sqrt();
        // dt-scale, sweep, update u.
        for v in f.rsd.iter_mut() {
            *v *= c.dt;
        }
        lower_sweep::<false>(&mut f, &c, c.dt, None);
        upper_sweep::<false>(&mut f, &c, c.dt, None);
        let tmp = 1.0 / (OMEGA * (2.0 - OMEGA));
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    for m in 0..5 {
                        let id = f.id5(m, i, j, k);
                        f.u[id] += tmp * f.rsd[id];
                    }
                }
            }
        }
        rhs::<false>(&mut f, &c, None);
        let norm1: f64 = f.rsd.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm1 < norm0, "{norm0} -> {norm1}");
    }
}
