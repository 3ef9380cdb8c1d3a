//! Piecewise-parabolic reconstruction (Colella & Woodward 1984) with
//! monotonization and shock flattening, as in FLASH's split PPM unit.
//!
//! Operates on 1-d pencils of zone averages and produces limited left/right
//! interface states per zone.
//!
//! Every kernel is generic over [`rflash_simd::Lane`] and runs `W` zones
//! at a time: [`reconstruct_lanes`] and [`flattening_lanes`], with the
//! per-chunk bodies below. Branches become masked selects on speculatively
//! computed values, and each width keeps the one-lane operation order (see
//! the bit-identity notes on each), so every backend produces the faces
//! of the one-lane instantiation `ScalarLane` bit for bit.

use rflash_simd::{Lane, LaneMask, ScalarLane};

/// CW84 monotonized central slope (eq. 1.8) on `W` consecutive zones
/// starting at `j0`.
///
/// Bit-identity across widths: on gated lanes (`dl*dr > 0`) the slope
/// `d = 0.5*(dl+dr)` is nonzero and non-NaN and the operands of `min` are
/// positive and non-NaN, where the x86 select `min` agrees with the
/// portable one. Ungated lanes select the literal `0.0`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn slope_at<L: Lane>(a: &[f64], j0: usize) -> L {
    let am1 = L::load(&a[j0 - 1..]);
    let a0 = L::load(&a[j0..]);
    let ap1 = L::load(&a[j0 + 1..]);
    let d = L::splat(0.5).mul(ap1.sub(am1));
    let dl = a0.sub(am1);
    let dr = ap1.sub(a0);
    let gate = dl.mul(dr).gt(L::splat(0.0));
    let lim = L::splat(2.0).mul(dl.abs().min(dr.abs()));
    let slope = d.abs().min(lim).copysign(d);
    L::select(gate, slope, L::splat(0.0))
}

/// One limited parabola per zone on `W` consecutive zones starting at
/// `i`, writing the low/high face values `minus[i..i+W]`/`plus[i..i+W]`.
///
/// The face values are the fourth-order interface values (CW84 eq. 1.6 on
/// a uniform grid) from limited slopes, blended toward the cell average by
/// the flattening coefficient. The CW84 monotonization (eq. 1.10) is an
/// if/else-if whose branches are mutually exclusive and each read only the
/// unmodified face pair, so it becomes a select cascade over values computed
/// from the *original* pair. NaN discriminants take the else-paths (lane
/// compares are false on NaN).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn reconstruct_at<L: Lane>(a: &[f64], flat: &[f64], minus: &mut [f64], plus: &mut [f64], i: usize) {
    let s_m = slope_at::<L>(a, i - 1);
    let s_0 = slope_at::<L>(a, i);
    let s_p = slope_at::<L>(a, i + 1);
    let am1 = L::load(&a[i - 1..]);
    let a0 = L::load(&a[i..]);
    let ap1 = L::load(&a[i + 1..]);
    let half = L::splat(0.5);
    let sixth = L::splat(6.0);
    // Interface values between zones i-1|i and i|i+1.
    let mut am = half.mul(am1.add(a0)).sub(s_0.sub(s_m).div(sixth));
    let mut ap = half.mul(a0.add(ap1)).sub(s_p.sub(s_0).div(sixth));

    // Blend toward the cell average where the flattening detector fired.
    let f = L::load(&flat[i..]);
    let one_m_f = L::splat(1.0).sub(f);
    am = f.mul(am).add(one_m_f.mul(a0));
    ap = f.mul(ap).add(one_m_f.mul(a0));

    // CW84 monotonization (eq. 1.10) as a masked cascade.
    let m_flat = ap.sub(a0).mul(a0.sub(am)).le(L::splat(0.0));
    let d = ap.sub(am);
    let six = sixth.mul(a0.sub(half.mul(am.add(ap))));
    let m_hi = d.mul(six).gt(d.mul(d));
    let m_lo = d.mul(d).neg().gt(d.mul(six)).and(m_hi.not());
    let am_new = L::splat(3.0).mul(a0).sub(L::splat(2.0).mul(ap));
    let ap_new = L::splat(3.0).mul(a0).sub(L::splat(2.0).mul(am));
    let out_m = L::select(m_flat, a0, L::select(m_hi, am_new, am));
    let out_p = L::select(m_flat, a0, L::select(m_lo, ap_new, ap));
    out_m.store(&mut minus[i..]);
    out_p.store(&mut plus[i..]);
}

/// Reconstruct limited parabola face values for zones `lo..hi` of the
/// pencil `a` (needs 2 ghost zones each side of that range) into separate
/// minus/plus lanes. `flat[i]` ∈ \[0,1\] blends toward first order at
/// shocks (1 = keep the parabola, 0 = flat). `W`-wide chunks run through
/// [`reconstruct_at`] and the tail through the *same* kernel at `W = 1`, so
/// the tail is bit-identical by construction.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn reconstruct_lanes<L: Lane>(
    a: &[f64],
    lo: usize,
    hi: usize,
    flat: &[f64],
    minus: &mut [f64],
    plus: &mut [f64],
) {
    assert!(lo >= 2 && hi + 2 <= a.len());
    assert!(minus.len() == a.len() && plus.len() == a.len());
    let mut i = lo;
    while i + L::W <= hi {
        reconstruct_at::<L>(a, flat, minus, plus, i);
        i += L::W;
    }
    while i < hi {
        reconstruct_at::<ScalarLane>(a, flat, minus, plus, i);
        i += 1;
    }
}

/// Pass 1 of the flattening detector on `W` zones starting at `i`
/// (callers restrict `i` to the guard-safe subrange).
///
/// A zone is flattened where the pressure jump across it is strong
/// (relative jump above `EPSILON`) and the flow compressive (CW84
/// appendix parameters).
///
/// Bit-identity notes: the pencil engine floors pressure lanes to
/// `f64::MIN_POSITIVE` before calling, so the `min`/`max` chain sees
/// positive non-NaN operands where every backend's select `min`/`max`
/// agree; `clamp` is the select chain `x<0 -> 0, x>1 -> 1, x` with NaN
/// passthrough; the guarded `dp/dp2` ratio is computed speculatively and
/// discarded by mask; the running `min(chi, out)` keeps a NaN `chi` from
/// touching `out`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn flatten_pass1_at<L: Lane>(pres: &[f64], velx: &[f64], out: &mut [f64], i: usize) {
    const OMEGA1: f64 = 0.75;
    const OMEGA2: f64 = 10.0;
    const EPSILON: f64 = 0.33;
    let dp = L::load(&pres[i + 1..]).sub(L::load(&pres[i - 1..]));
    let dp2 = L::load(&pres[i + 2..]).sub(L::load(&pres[i - 2..]));
    let compressive = L::load(&velx[i - 1..]).gt(L::load(&velx[i + 1..]));
    let denom = L::load(&pres[i + 1..])
        .min(L::load(&pres[i - 1..]))
        .max(L::splat(f64::MIN_POSITIVE));
    let strong = dp.abs().div(denom).gt(L::splat(EPSILON));
    let gate = compressive.and(strong);
    let ratio = L::select(dp2.abs().gt(L::splat(1e-300)), dp.div(dp2), L::splat(1.0));
    let x = L::splat(OMEGA2).mul(ratio.sub(L::splat(OMEGA1)));
    let clamped = L::select(
        x.lt(L::splat(0.0)),
        L::splat(0.0),
        L::select(x.gt(L::splat(1.0)), L::splat(1.0), x),
    );
    let chi = L::splat(1.0).sub(clamped);
    let cur = L::load(&out[i..]);
    L::select(gate, chi.min(cur), cur).store(&mut out[i..]);
}

/// Pass 2 on `W` zones starting at `i`: spread the minimum to immediate
/// neighbors (CW84 uses the neighbor in the shock direction; a symmetric
/// min is a robust simplification).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn flatten_pass2_at<L: Lane>(snap: &[f64], out: &mut [f64], i: usize) {
    L::load(&snap[i - 1..])
        .min(L::load(&snap[i..]))
        .min(L::load(&snap[i + 1..]))
        .store(&mut out[i..]);
}

/// CW84-style shock flattening coefficient per zone of `lo..hi`, from the
/// pressure and velocity pencils: detect strong compressive pressure jumps
/// and flatten the reconstruction there. `snap` is caller-provided scratch
/// for the neighbor-min pass (the pencil engine passes arena lanes). Zones
/// too close to the pencil ends for a pass's stencil keep that pass's
/// incoming value.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn flattening_lanes<L: Lane>(
    pres: &[f64],
    velx: &[f64],
    lo: usize,
    hi: usize,
    out: &mut [f64],
    snap: &mut [f64],
) {
    assert_eq!(out.len(), pres.len());
    assert_eq!(snap.len(), pres.len());
    out.fill(1.0);
    let s_lo = lo.max(2);
    let s_hi = hi.min(pres.len().saturating_sub(2));
    let mut i = s_lo;
    while i + L::W <= s_hi {
        flatten_pass1_at::<L>(pres, velx, out, i);
        i += L::W;
    }
    while i < s_hi {
        flatten_pass1_at::<ScalarLane>(pres, velx, out, i);
        i += 1;
    }
    snap.copy_from_slice(out);
    let t_lo = lo.max(1);
    let t_hi = hi.min(pres.len().saturating_sub(1));
    let mut i = t_lo;
    while i + L::W <= t_hi {
        flatten_pass2_at::<L>(snap, out, i);
        i += L::W;
    }
    while i < t_hi {
        flatten_pass2_at::<ScalarLane>(snap, out, i);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_simd::{Resolved, WithLanes};

    /// Flattening (optional) then reconstruction of one pencil, run on
    /// whichever lane backend it is dispatched to; yields
    /// `[flat, minus, plus]`.
    #[derive(Clone, Copy)]
    struct Ppm<'a> {
        a: &'a [f64],
        /// Velocity pencil and zone range to flatten; `None` keeps every
        /// flattening coefficient at 1 (the unflattened parabola).
        flatten: Option<(&'a [f64], usize, usize)>,
        /// Zone range to reconstruct.
        recon: (usize, usize),
    }

    impl WithLanes for Ppm<'_> {
        type Output = [Vec<f64>; 3];
        fn with_lanes<L: Lane>(self) -> [Vec<f64>; 3] {
            let n = self.a.len();
            let (mut flat, mut snap) = (vec![1.0; n], vec![0.0; n]);
            let (mut minus, mut plus) = (vec![0.0; n], vec![0.0; n]);
            if let Some((velx, lo, hi)) = self.flatten {
                flattening_lanes::<L>(self.a, velx, lo, hi, &mut flat, &mut snap);
            }
            let (lo, hi) = self.recon;
            reconstruct_lanes::<L>(self.a, lo, hi, &flat, &mut minus, &mut plus);
            [flat, minus, plus]
        }
    }

    /// `ppm` on every backend the host carries.
    fn on_every_backend(ppm: Ppm<'_>) -> Vec<(Resolved, [Vec<f64>; 3])> {
        Resolved::all()
            .iter()
            .map(|&backend| (backend, rflash_simd::dispatch(backend, ppm)))
            .collect()
    }

    /// Unflattened faces of zones `2..len-2` on every backend.
    fn reconstruct_simple(a: &[f64]) -> Vec<(Resolved, [Vec<f64>; 3])> {
        on_every_backend(Ppm {
            a,
            flatten: None,
            recon: (2, a.len() - 2),
        })
    }

    /// Flattening coefficients of `pres`/`velx` over `2..len-2` on every
    /// backend.
    fn flattening_all(pres: &[f64], velx: &[f64]) -> Vec<(Resolved, Vec<f64>)> {
        let n = pres.len();
        on_every_backend(Ppm {
            a: pres,
            flatten: Some((velx, 2, n - 2)),
            recon: (2, n - 2),
        })
        .into_iter()
        .map(|(backend, [flat, _, _])| (backend, flat))
        .collect()
    }

    #[test]
    fn linear_data_reconstructs_exactly() {
        for n in [12, 23] {
            let a: Vec<f64> = (0..n).map(|i| 3.0 + 2.0 * i as f64).collect();
            for (backend, [_, minus, plus]) in reconstruct_simple(&a) {
                for i in 2..n - 2 {
                    assert!((minus[i] - (a[i] - 1.0)).abs() < 1e-13, "{backend} zone {i}");
                    assert!((plus[i] - (a[i] + 1.0)).abs() < 1e-13, "{backend} zone {i}");
                }
            }
        }
    }

    #[test]
    fn parabola_mean_is_preserved() {
        // The parabola defined by (minus, plus, a) integrates back to a:
        // mean = (minus + plus)/2 + (a − (minus+plus)/2) = a by
        // construction; verify face values bracket sanely on smooth data.
        let smooth: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin() + 2.0).collect();
        let wide: Vec<f64> = (0..23).map(|i| (i as f64 * 0.25).cos() * 3.0 + 5.0).collect();
        for a in [smooth, wide] {
            for (backend, [_, minus, plus]) in reconstruct_simple(&a) {
                for i in 2..a.len() - 2 {
                    let lo = a[i - 1].min(a[i]).min(a[i + 1]);
                    let hi = a[i - 1].max(a[i]).max(a[i + 1]);
                    assert!(minus[i] >= lo - 1e-12 && minus[i] <= hi + 1e-12, "{backend} zone {i}");
                    assert!(plus[i] >= lo - 1e-12 && plus[i] <= hi + 1e-12, "{backend} zone {i}");
                }
            }
        }
    }

    #[test]
    fn local_extremum_flattens_to_constant() {
        let a = [1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0];
        for (backend, [_, minus, plus]) in reconstruct_simple(&a) {
            // Zone 3 is a local max: parabola must collapse (monotonization).
            assert_eq!((minus[3], plus[3]), (5.0, 5.0), "{backend}");
        }
    }

    #[test]
    fn step_is_monotone() {
        let narrow = vec![1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0];
        let wide: Vec<f64> = (0..19).map(|i| if i < 9 { 1.0 } else { 10.0 }).collect();
        for a in [narrow, wide] {
            for (backend, [_, minus, plus]) in reconstruct_simple(&a) {
                for i in 2..a.len() - 2 {
                    assert!(minus[i] >= 1.0 - 1e-12 && minus[i] <= 10.0 + 1e-12, "{backend} zone {i}");
                    assert!(plus[i] >= 1.0 - 1e-12 && plus[i] <= 10.0 + 1e-12, "{backend} zone {i}");
                    assert!(minus[i] <= plus[i] + 1e-12, "{backend}: monotone within zone {i}");
                }
            }
        }
    }

    #[test]
    fn flattening_fires_on_strong_compression() {
        for n in [12, 21] {
            // Strong pressure jump with converging velocity — a shock.
            let jump = n / 2;
            let pres: Vec<f64> = (0..n).map(|i| if i < jump { 100.0 } else { 1.0 }).collect();
            let velx: Vec<f64> = (0..n).map(|i| if i < jump { 1.0 } else { -1.0 }).collect();
            for (backend, flat) in flattening_all(&pres, &velx) {
                assert!(flat[jump - 1] < 0.5 || flat[jump] < 0.5, "{backend} at the jump: {flat:?}");
                // Smooth region untouched.
                assert_eq!(flat[2], 1.0, "{backend}");
            }
        }
    }

    #[test]
    fn flattening_ignores_expansion() {
        for n in [12, 21] {
            let pres: Vec<f64> = (0..n).map(|i| if i < n / 2 { 100.0 } else { 1.0 }).collect();
            // Diverging velocity: rarefaction, no flattening.
            let velx: Vec<f64> = (0..n).map(|i| if i < n / 2 { -1.0 } else { 1.0 }).collect();
            for (backend, flat) in flattening_all(&pres, &velx) {
                assert!(flat.iter().all(|&f| f == 1.0), "{backend}: {flat:?}");
            }
        }
    }

    #[test]
    fn every_backend_matches_the_one_lane_reference_bit_exactly() {
        // Positive, shock-bearing data (the pencil engine floors pressure
        // before flattening; replicate that precondition here). Length 23
        // (prime) exercises every chunk/tail split; flattening over the
        // whole pencil leaves the end zones outside the stencil.
        for (n, flatten) in [(16, (2, 14)), (23, (2, 21)), (23, (0, 23))] {
            let a: Vec<f64> = (0..n)
                .map(|i| ((i as f64 * 0.9).sin() * 3.0).exp() + if i > n / 2 { 40.0 } else { 0.0 })
                .collect();
            let velx: Vec<f64> = (0..n).map(|i| (11.0 - i as f64) * 0.3).collect();
            let ppm = Ppm {
                a: &a,
                flatten: Some((&velx, flatten.0, flatten.1)),
                recon: (2, n - 2),
            };
            let reference = rflash_simd::dispatch(Resolved::Scalar, ppm);
            for (backend, got) in on_every_backend(ppm) {
                for (k, what) in ["flat", "minus", "plus"].iter().enumerate() {
                    for i in 0..n {
                        let (g, r) = (got[k][i], reference[k][i]);
                        assert_eq!(g.to_bits(), r.to_bits(), "{backend} n={n} {what} {i}");
                    }
                }
            }
        }
    }
}
