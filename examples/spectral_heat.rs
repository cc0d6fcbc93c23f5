//! Use the FT kernel's spectral machinery directly: solve the 3-D heat
//! equation `∂u/∂t = α ∇²u` on a periodic box by hand — forward FFT,
//! multiply by the exponential decay factors, inverse FFT — and check
//! the amplitude of a single Fourier mode against the analytic decay
//! rate.
//!
//! ```text
//! cargo run --release --example spectral_heat
//! ```

use npb_ft::{c64, fft3d_inplace, FftScratch, FftTable, FtParams, C64};

fn main() {
    let p = FtParams { nx: 32, ny: 32, nz: 32, niter: 5 };
    let n = p.ntotal();
    let table = FftTable::new(32);
    let scratch = FftScratch::for_run(&p, None);
    let alpha = 1.0e-2;

    // Initial condition: a single cosine mode (kx, ky, kz) = (3, 1, 2).
    let (kx, ky, kz) = (3i64, 1i64, 2i64);
    let mut u: Vec<C64> = (0..n)
        .map(|id| {
            let i = id % p.nx;
            let j = (id / p.nx) % p.ny;
            let k = id / (p.nx * p.ny);
            let phase = 2.0
                * std::f64::consts::PI
                * (kx as f64 * i as f64 / p.nx as f64
                    + ky as f64 * j as f64 / p.ny as f64
                    + kz as f64 * k as f64 / p.nz as f64);
            c64(phase.cos(), 0.0)
        })
        .collect();

    // Spectral decay factor per unit time for this mode.
    let k2 = (kx * kx + ky * ky + kz * kz) as f64;
    let ap = -4.0 * alpha * std::f64::consts::PI * std::f64::consts::PI;
    let decay = (ap * k2).exp();

    // March in time: FFT -> multiply every mode -> inverse FFT (the FT
    // benchmark's evolve loop, with our own alpha).
    fft3d_inplace(1, &p, &table, &mut u, &scratch, None);
    let factors: Vec<f64> = (0..n)
        .map(|id| {
            let fold = |x: usize, nn: usize| (((x + nn / 2) % nn) as i64 - (nn / 2) as i64) as f64;
            let ii = fold(id % p.nx, p.nx);
            let jj = fold((id / p.nx) % p.ny, p.ny);
            let kk = fold(id / (p.nx * p.ny), p.nz);
            (ap * (ii * ii + jj * jj + kk * kk)).exp()
        })
        .collect();

    println!("t    amplitude    analytic");
    let mut max_rel = 0.0f64;
    for t in 1..=p.niter {
        for (v, &f) in u.iter_mut().zip(&factors) {
            *v = v.scale(f);
        }
        // Peek at the physical field.
        let mut snapshot = u.clone();
        fft3d_inplace(-1, &p, &table, &mut snapshot, &scratch, None);
        let amp = snapshot[0].re / n as f64; // u(0,0,0) = amplitude of the cosine
        let analytic = decay.powi(t as i32);
        let rel = ((amp - analytic) / analytic).abs();
        max_rel = max_rel.max(rel);
        println!("{t}    {amp:.9}  {analytic:.9}");
    }
    assert!(max_rel < 1e-10, "spectral solution drifted: rel err {max_rel}");
    println!("\nspectral decay matches the analytic rate to {max_rel:.2e}.");
}
