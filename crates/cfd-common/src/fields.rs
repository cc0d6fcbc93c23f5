//! Field storage for the BT/SP simulated CFD applications.
//!
//! Linearized arrays, exactly the translation strategy §3 of the paper
//! settles on after finding shape-preserving arrays 2–3× slower. The
//! conserved variables `u(5, nx, ny, nz)` are stored component-fastest
//! (the Fortran layout) and the seven auxiliary point quantities are
//! separate scalar grids. `compute_rhs` additionally keeps a
//! component-major copy of `u` ([`Fields::uc`]) so its stencils run over
//! unit-stride rows.

/// All grids a BT/SP run owns.
#[derive(Debug, Clone)]
pub struct Fields {
    /// Grid extents.
    pub nx: usize,
    /// Second extent.
    pub ny: usize,
    /// Third extent.
    pub nz: usize,
    /// Conserved variables, `5 * nx * ny * nz`, component fastest.
    pub u: Vec<f64>,
    /// Right-hand side, same shape as `u`.
    pub rhs: Vec<f64>,
    /// Forcing (steady-state source terms), same shape as `u`.
    pub forcing: Vec<f64>,
    /// 1/density.
    pub rho_i: Vec<f64>,
    /// x-velocity.
    pub us: Vec<f64>,
    /// y-velocity.
    pub vs: Vec<f64>,
    /// z-velocity.
    pub ws: Vec<f64>,
    /// Kinetic-energy density over density.
    pub qs: Vec<f64>,
    /// Kinetic-energy density.
    pub square: Vec<f64>,
    /// Speed of sound (used by SP only; BT leaves it zero).
    pub speed: Vec<f64>,
    /// Component-major copy of `u`, `uc[m * npoints + idx(i, j, k)]`:
    /// rewritten from `u` by every `compute_rhs` (phase 1) and read only
    /// by it. `u` stays the state of record — the sweeps, the norms, the
    /// SDC guard and `add` never look here.
    pub uc: Vec<f64>,
    /// `compute_rhs`'s accumulator lines, five of length `nx` per
    /// k-plane (`5 * nx * nz`, line `m` of plane `k` at
    /// `(5 * k + m) * nx`), so the region allocates nothing. Whichever
    /// rank the partition hands plane `k` owns that plane's five lines
    /// for the row it is producing; they carry nothing between rows.
    pub lines: Vec<f64>,
}

impl Fields {
    /// Allocate zeroed fields for an `(nx, ny, nz)` grid.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Fields {
        let n = nx * ny * nz;
        Fields {
            nx,
            ny,
            nz,
            u: vec![0.0; 5 * n],
            rhs: vec![0.0; 5 * n],
            forcing: vec![0.0; 5 * n],
            rho_i: vec![0.0; n],
            us: vec![0.0; n],
            vs: vec![0.0; n],
            ws: vec![0.0; n],
            qs: vec![0.0; n],
            square: vec![0.0; n],
            speed: vec![0.0; n],
            uc: vec![0.0; 5 * n],
            lines: vec![0.0; 5 * nx * nz],
        }
    }

    /// Number of grid points.
    #[inline(always)]
    pub fn npoints(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Flat index of scalar grids.
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.nx * (j + self.ny * k)
    }

    /// Flat index of the 5-component grids.
    #[inline(always)]
    pub fn idx5(&self, m: usize, i: usize, j: usize, k: usize) -> usize {
        m + 5 * (i + self.nx * (j + self.ny * k))
    }
}

/// Flat index of scalar grids (free function for use inside parallel
/// closures that only captured the extents).
#[inline(always)]
pub fn idx(nx: usize, ny: usize, i: usize, j: usize, k: usize) -> usize {
    i + nx * (j + ny * k)
}

/// Flat index of 5-component grids.
#[inline(always)]
pub fn idx5(nx: usize, ny: usize, m: usize, i: usize, j: usize, k: usize) -> usize {
    m + 5 * (i + nx * (j + ny * k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_component_fastest() {
        let f = Fields::new(4, 5, 6);
        assert_eq!(f.idx5(0, 0, 0, 0), 0);
        assert_eq!(f.idx5(4, 0, 0, 0), 4);
        assert_eq!(f.idx5(0, 1, 0, 0), 5);
        assert_eq!(f.idx5(0, 0, 1, 0), 5 * 4);
        assert_eq!(f.idx5(0, 0, 0, 1), 5 * 4 * 5);
        assert_eq!(f.u.len(), 5 * 4 * 5 * 6);
        assert_eq!(f.idx(3, 4, 5), f.npoints() - 1);
    }

    #[test]
    fn free_and_method_indexers_agree() {
        let f = Fields::new(7, 3, 2);
        assert_eq!(f.idx(2, 1, 1), idx(7, 3, 2, 1, 1));
        assert_eq!(f.idx5(4, 2, 1, 1), idx5(7, 3, 4, 2, 1, 1));
    }
}
