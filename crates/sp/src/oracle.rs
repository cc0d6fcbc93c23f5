//! Test oracle: SP's line sweeps and eigenvector transforms as the
//! per-line, per-point loop nests of `sp.f`, one grid pass each — the
//! code the lane body in `crate::solve` replaced, run serially over plain
//! slices. Every `rhs` element the shipped sweeps produce is compared with
//! these by `to_bits`.

use npb_cfd_common::{compute_rhs, exact_rhs, idx, idx5, initialize, Consts, Fields};

/// Scratch for one line solve.
struct Line {
    lhs: Vec<f64>,
    lhsp: Vec<f64>,
    lhsm: Vec<f64>,
    cv: Vec<f64>,
    rho: Vec<f64>,
}

impl Line {
    fn new(n: usize) -> Line {
        Line {
            lhs: vec![0.0; 5 * n],
            lhsp: vec![0.0; 5 * n],
            lhsm: vec![0.0; 5 * n],
            cv: vec![0.0; n],
            rho: vec![0.0; n],
        }
    }
}

/// Place expression for the band-`m` coefficient at line position `i`
/// (usable on both sides of an assignment).
macro_rules! at {
    ($b:expr, $m:expr, $i:expr) => {
        $b[$m + 5 * $i]
    };
}

/// Build the three pentadiagonal operators for one line of length `n`.
/// `spd(i)` reads the speed of sound along the line; `dtt1/dtt2/c2dtt1`
/// are the direction's `dt*t?1`, `dt*t?2`, `2*dt*t?1`.
#[allow(clippy::too_many_arguments)]
fn build_lhs(
    line: &mut Line,
    n: usize,
    spd: impl Fn(usize) -> f64,
    dtt1: f64,
    dtt2: f64,
    c2dtt1: f64,
    c: &Consts,
) {
    let Line { lhs, lhsp, lhsm, cv, rho } = line;

    // Boundary rows are the identity.
    for &i in &[0, n - 1] {
        for m in 0..5 {
            at!(lhs, m, i) = 0.0;
            at!(lhsp, m, i) = 0.0;
            at!(lhsm, m, i) = 0.0;
        }
        at!(lhs, 2, i) = 1.0;
        at!(lhsp, 2, i) = 1.0;
        at!(lhsm, 2, i) = 1.0;
    }

    for i in 1..n - 1 {
        at!(lhs, 0, i) = 0.0;
        at!(lhs, 1, i) = -dtt2 * cv[i - 1] - dtt1 * rho[i - 1];
        at!(lhs, 2, i) = 1.0 + c2dtt1 * rho[i];
        at!(lhs, 3, i) = dtt2 * cv[i + 1] - dtt1 * rho[i + 1];
        at!(lhs, 4, i) = 0.0;
    }

    // Fourth-order dissipation terms.
    {
        let i = 1;
        at!(lhs, 2, i) = at!(lhs, 2, i) + c.comz5;
        at!(lhs, 3, i) = at!(lhs, 3, i) - c.comz4;
        at!(lhs, 4, i) = at!(lhs, 4, i) + c.comz1;

        let i = 2;
        at!(lhs, 1, i) = at!(lhs, 1, i) - c.comz4;
        at!(lhs, 2, i) = at!(lhs, 2, i) + c.comz6;
        at!(lhs, 3, i) = at!(lhs, 3, i) - c.comz4;
        at!(lhs, 4, i) = at!(lhs, 4, i) + c.comz1;
    }
    for i in 3..n - 3 {
        at!(lhs, 0, i) = at!(lhs, 0, i) + c.comz1;
        at!(lhs, 1, i) = at!(lhs, 1, i) - c.comz4;
        at!(lhs, 2, i) = at!(lhs, 2, i) + c.comz6;
        at!(lhs, 3, i) = at!(lhs, 3, i) - c.comz4;
        at!(lhs, 4, i) = at!(lhs, 4, i) + c.comz1;
    }
    {
        let i = n - 3;
        at!(lhs, 0, i) = at!(lhs, 0, i) + c.comz1;
        at!(lhs, 1, i) = at!(lhs, 1, i) - c.comz4;
        at!(lhs, 2, i) = at!(lhs, 2, i) + c.comz6;
        at!(lhs, 3, i) = at!(lhs, 3, i) - c.comz4;

        let i = n - 2;
        at!(lhs, 0, i) = at!(lhs, 0, i) + c.comz1;
        at!(lhs, 1, i) = at!(lhs, 1, i) - c.comz4;
        at!(lhs, 2, i) = at!(lhs, 2, i) + c.comz5;
    }

    // The u±c operators differ only in the sub/super diagonals.
    for i in 1..n - 1 {
        at!(lhsp, 0, i) = at!(lhs, 0, i);
        at!(lhsp, 1, i) = at!(lhs, 1, i) - dtt2 * spd(i - 1);
        at!(lhsp, 2, i) = at!(lhs, 2, i);
        at!(lhsp, 3, i) = at!(lhs, 3, i) + dtt2 * spd(i + 1);
        at!(lhsp, 4, i) = at!(lhs, 4, i);
        at!(lhsm, 0, i) = at!(lhs, 0, i);
        at!(lhsm, 1, i) = at!(lhs, 1, i) + dtt2 * spd(i - 1);
        at!(lhsm, 2, i) = at!(lhs, 2, i);
        at!(lhsm, 3, i) = at!(lhs, 3, i) - dtt2 * spd(i + 1);
        at!(lhsm, 4, i) = at!(lhs, 4, i);
    }
}

/// Forward elimination of one pentadiagonal operator applied to the RHS
/// components `ms`, exactly the `sp.f` stanza.
fn forward(
    lhs: &mut [f64],
    n: usize,
    rhs: &mut [f64],
    rix: &impl Fn(usize, usize) -> usize,
    ms: &[usize],
) {
    for i in 0..n - 2 {
        let (i1, i2) = (i + 1, i + 2);
        let fac1 = 1.0 / at!(lhs, 2, i);
        at!(lhs, 3, i) = fac1 * at!(lhs, 3, i);
        at!(lhs, 4, i) = fac1 * at!(lhs, 4, i);
        for &m in ms {
            rhs[rix(m, i)] = fac1 * rhs[rix(m, i)];
        }
        at!(lhs, 2, i1) = at!(lhs, 2, i1) - at!(lhs, 1, i1) * at!(lhs, 3, i);
        at!(lhs, 3, i1) = at!(lhs, 3, i1) - at!(lhs, 1, i1) * at!(lhs, 4, i);
        for &m in ms {
            rhs[rix(m, i1)] = rhs[rix(m, i1)] - at!(lhs, 1, i1) * rhs[rix(m, i)];
        }
        at!(lhs, 1, i2) = at!(lhs, 1, i2) - at!(lhs, 0, i2) * at!(lhs, 3, i);
        at!(lhs, 2, i2) = at!(lhs, 2, i2) - at!(lhs, 0, i2) * at!(lhs, 4, i);
        for &m in ms {
            rhs[rix(m, i2)] = rhs[rix(m, i2)] - at!(lhs, 0, i2) * rhs[rix(m, i)];
        }
    }
    // Last two rows.
    let i = n - 2;
    let i1 = n - 1;
    let fac1 = 1.0 / at!(lhs, 2, i);
    at!(lhs, 3, i) = fac1 * at!(lhs, 3, i);
    at!(lhs, 4, i) = fac1 * at!(lhs, 4, i);
    for &m in ms {
        rhs[rix(m, i)] = fac1 * rhs[rix(m, i)];
    }
    at!(lhs, 2, i1) = at!(lhs, 2, i1) - at!(lhs, 1, i1) * at!(lhs, 3, i);
    at!(lhs, 3, i1) = at!(lhs, 3, i1) - at!(lhs, 1, i1) * at!(lhs, 4, i);
    for &m in ms {
        rhs[rix(m, i1)] = rhs[rix(m, i1)] - at!(lhs, 1, i1) * rhs[rix(m, i)];
    }
    let fac2 = 1.0 / at!(lhs, 2, i1);
    for &m in ms {
        rhs[rix(m, i1)] = fac2 * rhs[rix(m, i1)];
    }
}

/// Back substitution for all five components using the three factored
/// operators.
fn backsub(line: &Line, n: usize, rhs: &mut [f64], rix: &impl Fn(usize, usize) -> usize) {
    let i = n - 2;
    let i1 = n - 1;
    for m in 0..3 {
        rhs[rix(m, i)] = rhs[rix(m, i)] - at!(&line.lhs, 3, i) * rhs[rix(m, i1)];
    }
    rhs[rix(3, i)] = rhs[rix(3, i)] - at!(&line.lhsp, 3, i) * rhs[rix(3, i1)];
    rhs[rix(4, i)] = rhs[rix(4, i)] - at!(&line.lhsm, 3, i) * rhs[rix(4, i1)];
    for i in (0..n - 2).rev() {
        let (i1, i2) = (i + 1, i + 2);
        for m in 0..3 {
            rhs[rix(m, i)] = rhs[rix(m, i)]
                - at!(&line.lhs, 3, i) * rhs[rix(m, i1)]
                - at!(&line.lhs, 4, i) * rhs[rix(m, i2)];
        }
        rhs[rix(3, i)] = rhs[rix(3, i)]
            - at!(&line.lhsp, 3, i) * rhs[rix(3, i1)]
            - at!(&line.lhsp, 4, i) * rhs[rix(3, i2)];
        rhs[rix(4, i)] = rhs[rix(4, i)]
            - at!(&line.lhsm, 3, i) * rhs[rix(4, i1)]
            - at!(&line.lhsm, 4, i) * rhs[rix(4, i2)];
    }
}

fn solve_line(line: &mut Line, n: usize, rhs: &mut [f64], rix: &impl Fn(usize, usize) -> usize) {
    forward(&mut line.lhs, n, rhs, rix, &[0, 1, 2]);
    forward(&mut line.lhsp, n, rhs, rix, &[3]);
    forward(&mut line.lhsm, n, rhs, rix, &[4]);
    backsub(line, n, rhs, rix);
}

fn max4(a: f64, b: f64, c: f64, d: f64) -> f64 {
    a.max(b).max(c).max(d)
}

/// x sweep: lines along i for each interior `(j, k)`.
fn x_solve(f: &mut Fields, c: &Consts) {
    let (nx, ny, nz) = (f.nx, f.ny, f.nz);
    let Fields { rho_i, us, speed, rhs, .. } = f;
    let mut line = Line::new(nx);
    for k in 1..nz - 1 {
        for j in 1..ny - 1 {
            for i in 0..nx {
                let s = idx(nx, ny, i, j, k);
                let ru1 = c.c3c4 * rho_i[s];
                line.cv[i] = us[s];
                line.rho[i] =
                    max4(c.dx[1] + c.con43 * ru1, c.dx[4] + c.c1c5 * ru1, c.dxmax + ru1, c.dx[0]);
            }
            let spd = |i| speed[idx(nx, ny, i, j, k)];
            build_lhs(&mut line, nx, spd, c.dttx1, c.dttx2, c.c2dttx1, c);
            solve_line(&mut line, nx, rhs, &|m, i| idx5(nx, ny, m, i, j, k));
        }
    }
}

/// y sweep: lines along j for each interior `(i, k)`.
fn y_solve(f: &mut Fields, c: &Consts) {
    let (nx, ny, nz) = (f.nx, f.ny, f.nz);
    let Fields { rho_i, vs, speed, rhs, .. } = f;
    let mut line = Line::new(ny);
    for k in 1..nz - 1 {
        for i in 1..nx - 1 {
            for j in 0..ny {
                let s = idx(nx, ny, i, j, k);
                let ru1 = c.c3c4 * rho_i[s];
                line.cv[j] = vs[s];
                line.rho[j] =
                    max4(c.dy[2] + c.con43 * ru1, c.dy[4] + c.c1c5 * ru1, c.dymax + ru1, c.dy[0]);
            }
            let spd = |j| speed[idx(nx, ny, i, j, k)];
            build_lhs(&mut line, ny, spd, c.dtty1, c.dtty2, c.c2dtty1, c);
            solve_line(&mut line, ny, rhs, &|m, j| idx5(nx, ny, m, i, j, k));
        }
    }
}

/// z sweep: lines along k for each interior `(i, j)`.
fn z_solve(f: &mut Fields, c: &Consts) {
    let (nx, ny, nz) = (f.nx, f.ny, f.nz);
    let Fields { rho_i, ws, speed, rhs, .. } = f;
    let mut line = Line::new(nz);
    for j in 1..ny - 1 {
        for i in 1..nx - 1 {
            for k in 0..nz {
                let s = idx(nx, ny, i, j, k);
                let ru1 = c.c3c4 * rho_i[s];
                line.cv[k] = ws[s];
                line.rho[k] =
                    max4(c.dz[3] + c.con43 * ru1, c.dz[4] + c.c1c5 * ru1, c.dzmax + ru1, c.dz[0]);
            }
            let spd = |k| speed[idx(nx, ny, i, j, k)];
            build_lhs(&mut line, nz, spd, c.dttz1, c.dttz2, c.c2dttz1, c);
            solve_line(&mut line, nz, rhs, &|m, k| idx5(nx, ny, m, i, j, k));
        }
    }
}

/// Apply `point(f, s, r)` — `s` the scalar index, `r` the five `rhs`
/// values — at every interior point.
fn pointwise(f: &mut Fields, mut point: impl FnMut(&Fields, usize, [f64; 5]) -> [f64; 5]) {
    for k in 1..f.nz - 1 {
        for j in 1..f.ny - 1 {
            for i in 1..f.nx - 1 {
                let (s, at) = (f.idx(i, j, k), f.idx5(0, i, j, k));
                let r: [f64; 5] = std::array::from_fn(|m| f.rhs[at + m]);
                let out = point(f, s, r);
                f.rhs[at..at + 5].copy_from_slice(&out);
            }
        }
    }
}

/// `txinvr`: multiply the RHS by T_ξ⁻¹ P.
pub fn txinvr(f: &mut Fields, c: &Consts) {
    pointwise(f, |f, s, [r1, r2, r3, r4, r5]| {
        let ru1 = f.rho_i[s];
        let (uu, vv, ww) = (f.us[s], f.vs[s], f.ws[s]);
        let ac = f.speed[s];
        let ac2inv = ac * ac;

        let t1 = c.c2 / ac2inv * (f.qs[s] * r1 - uu * r2 - vv * r3 - ww * r4 + r5);
        let t2 = c.bt * ru1 * (uu * r1 - r2);
        let t3 = (c.bt * ru1 * ac) * t1;

        [r1 - t1, -ru1 * (ww * r1 - r4), ru1 * (vv * r1 - r3), -t2 + t3, t2 + t3]
    });
}

/// `ninvr`: block-diagonal rotation applied after the x sweep.
pub fn ninvr(f: &mut Fields, c: &Consts) {
    pointwise(f, |_, _, [r1, r2, r3, r4, r5]| {
        let t1 = c.bt * r3;
        let t2 = 0.5 * (r4 + r5);
        [-r2, r1, c.bt * (r4 - r5), -t1 + t2, t1 + t2]
    });
}

/// `pinvr`: block-diagonal rotation applied after the y sweep.
pub fn pinvr(f: &mut Fields, c: &Consts) {
    pointwise(f, |_, _, [r1, r2, r3, r4, r5]| {
        let t1 = c.bt * r1;
        let t2 = 0.5 * (r4 + r5);
        [c.bt * (r4 - r5), -r3, r2, -t1 + t2, t1 + t2]
    });
}

/// `tzetar`: transform back to conserved-variable increments after the
/// z sweep.
pub fn tzetar(f: &mut Fields, c: &Consts) {
    pointwise(f, |f, s, [r1, r2, r3, r4, r5]| {
        let (xvel, yvel, zvel) = (f.us[s], f.vs[s], f.ws[s]);
        let ac = f.speed[s];
        let ac2u = ac * ac;

        let uzik1 = f.u[5 * s];
        let btuz = c.bt * uzik1;

        let t1 = btuz / ac * (r4 + r5);
        let t2 = r3 + t1;
        let t3 = btuz * (r4 - r5);

        [
            t2,
            -uzik1 * r2 + xvel * t2,
            uzik1 * r1 + yvel * t2,
            zvel * t2 + t3,
            uzik1 * (-xvel * r2 + yvel * r1) + f.qs[s] * t2 + c.c2iv * ac2u * t1 + zvel * t3,
        ]
    });
}

/// What the shipped direction-`dir` sweep does, as the passes it fused:
/// `txinvr`, x sweep, `ninvr`; y sweep, `pinvr`; z sweep, `tzetar`.
pub fn direction(dir: usize, f: &mut Fields, c: &Consts) {
    match dir {
        0 => {
            txinvr(f, c);
            x_solve(f, c);
            ninvr(f, c);
        }
        1 => {
            y_solve(f, c);
            pinvr(f, c);
        }
        _ => {
            z_solve(f, c);
            tzetar(f, c);
        }
    }
}

/// An `(nx, ny, nz)` grid's fields as one ADI step finds them after
/// `compute_rhs`, with every boundary point of `rhs` then set to a
/// distinct non-zero value (the benchmark leaves them zero, where a
/// transform applied by mistake would change nothing).
pub fn setup(nx: usize, ny: usize, nz: usize) -> (Fields, Consts) {
    let c = Consts::new(nx, ny, nz, 0.015);
    let mut f = Fields::new(nx, ny, nz);
    initialize(&mut f, &c);
    exact_rhs(&mut f, &c);
    compute_rhs::<false, true>(&mut f, &c, None);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                if [i == 0 || i == nx - 1, j == 0 || j == ny - 1, k == 0 || k == nz - 1]
                    .contains(&true)
                {
                    for m in 0..5 {
                        let at = f.idx5(m, i, j, k);
                        f.rhs[at] =
                            1.0 + (at % 97) as f64 / 64.0 * if m % 2 == 0 { 1.0 } else { -1.0 };
                    }
                }
            }
        }
    }
    (f, c)
}
