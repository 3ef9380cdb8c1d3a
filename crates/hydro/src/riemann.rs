//! HLLC approximate Riemann solver (Toro), general-EOS via per-side Γ₁.
//!
//! [`hllc_lanes`] solves `W` interfaces at once over any
//! [`rflash_simd::Lane`] backend. It computes every branch of the wave fan
//! for all lanes and blends with masks; the blend is bitwise (inf/NaN
//! garbage from a masked-out branch's divisions is discarded), so every
//! width reproduces the one-lane result bit for bit.

use crate::state::PrimL;
use crate::NFLUX;
use rflash_simd::Lane;

/// HLLC star-region flux for one side, with wave speed `s_k`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn star_flux_lanes<L: Lane>(s: &PrimL<L>, s_k: L, s_star: L) -> [L; NFLUX] {
    let u = s.to_cons();
    let f = s.flux();
    let coef = s.dens.mul(s_k.sub(s.vel[0])).div(s_k.sub(s_star));
    let e_star = s.ener.add(
        s_star
            .sub(s.vel[0])
            .mul(s_star.add(s.pres.div(s.dens.mul(s_k.sub(s.vel[0]))))),
    );
    let u_star = [
        coef,
        coef.mul(s_star),
        coef.mul(s.vel[1]),
        coef.mul(s.vel[2]),
        coef.mul(e_star),
    ];
    let mut out = [L::splat(0.0); NFLUX];
    for n in 0..NFLUX {
        out[n] = f[n].add(s_k.mul(u_star[n].sub(u[n])));
    }
    out
}

/// Solve the Riemann problems between `l` and `r` (sweep-normal components
/// in `vel[0]`) and return the interface fluxes.
///
/// Davis wave-speed estimates, robust for strong shocks; contact speed from
/// Toro eq. 10.37. The wave-speed `min`/`max` use lane select semantics,
/// which agree across backends because the estimates are non-NaN and an
/// exact ±0 tie would need `u = c = 0`, impossible with floored pressure
/// (`c > 0`). The upwind picks (`s_l >= 0`, `s_r <= 0`) and the
/// contact-side pick (`s_star >= 0`) are a nested bitwise select;
/// divisions by `dl - dr` or `s_k - s_star` can only degenerate on lanes a
/// mask discards.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn hllc_lanes<L: Lane>(l: &PrimL<L>, r: &PrimL<L>) -> [L; NFLUX] {
    let cl = l.sound_speed();
    let cr = r.sound_speed();

    let s_l = l.vel[0].sub(cl).min(r.vel[0].sub(cr));
    let s_r = l.vel[0].add(cl).max(r.vel[0].add(cr));

    let fl = l.flux();
    let fr = r.flux();

    let dl = l.dens.mul(s_l.sub(l.vel[0]));
    let dr = r.dens.mul(s_r.sub(r.vel[0]));
    let s_star = r
        .pres
        .sub(l.pres)
        .add(l.vel[0].mul(dl))
        .sub(r.vel[0].mul(dr))
        .div(dl.sub(dr));

    let fsl = star_flux_lanes(l, s_l, s_star);
    let fsr = star_flux_lanes(r, s_r, s_star);

    let zero = L::splat(0.0);
    let m_l = s_l.ge(zero);
    let m_r = s_r.le(zero);
    let m_star = s_star.ge(zero);
    let mut out = [zero; NFLUX];
    for n in 0..NFLUX {
        out[n] = L::select(
            m_l,
            fl[n],
            L::select(m_r, fr[n], L::select(m_star, fsl[n], fsr[n])),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_simd::{Resolved, ScalarLane, WithLanes};

    /// One zone's face state, unpacked.
    #[derive(Clone, Copy, Debug)]
    struct Zone {
        dens: f64,
        vel: [f64; 3],
        pres: f64,
        ener: f64,
        gamc: f64,
    }

    fn prim(dens: f64, u: f64, pres: f64, gamma: f64) -> Zone {
        let eint = pres / ((gamma - 1.0) * dens);
        Zone {
            dens,
            vel: [u, 0.0, 0.0],
            pres,
            ener: eint + 0.5 * u * u,
            gamc: gamma,
        }
    }

    /// Zones `i..i+W` of `z` packed into lanes.
    fn pack<L: Lane>(z: &[Zone], i: usize) -> PrimL<L> {
        PrimL {
            dens: L::from_fn(|k| z[i + k].dens),
            vel: [
                L::from_fn(|k| z[i + k].vel[0]),
                L::from_fn(|k| z[i + k].vel[1]),
                L::from_fn(|k| z[i + k].vel[2]),
            ],
            pres: L::from_fn(|k| z[i + k].pres),
            ener: L::from_fn(|k| z[i + k].ener),
            gamc: L::from_fn(|k| z[i + k].gamc),
        }
    }

    /// The physical flux of one zone.
    fn flux(z: &Zone) -> [f64; NFLUX] {
        pack::<ScalarLane>(&[*z], 0).flux().map(|f| f.extract(0))
    }

    /// HLLC fluxes of face pairs `(l[i], r[i])` on the dispatched backend:
    /// `W`-wide chunks, then the one-lane tail.
    struct Hllc<'a> {
        l: &'a [Zone],
        r: &'a [Zone],
    }

    impl WithLanes for Hllc<'_> {
        type Output = Vec<[f64; NFLUX]>;
        fn with_lanes<L: Lane>(self) -> Vec<[f64; NFLUX]> {
            fn solve<M: Lane>(l: &[Zone], r: &[Zone], i: usize, out: &mut Vec<[f64; NFLUX]>) {
                let f = hllc_lanes(&pack::<M>(l, i), &pack::<M>(r, i));
                out.extend((0..M::W).map(|k| f.map(|ch| ch.extract(k))));
            }
            let (n, mut i) = (self.l.len(), 0);
            let mut out = Vec::with_capacity(n);
            while i + L::W <= n {
                solve::<L>(self.l, self.r, i, &mut out);
                i += L::W;
            }
            while i < n {
                solve::<ScalarLane>(self.l, self.r, i, &mut out);
                i += 1;
            }
            out
        }
    }

    /// HLLC fluxes of every `(l, r)` pair on every backend the host carries.
    fn hllc_all(pairs: &[(Zone, Zone)]) -> Vec<(Resolved, Vec<[f64; NFLUX]>)> {
        let (l, r): (Vec<Zone>, Vec<Zone>) = pairs.iter().copied().unzip();
        Resolved::all()
            .iter()
            .map(|&backend| (backend, rflash_simd::dispatch(backend, Hllc { l: &l, r: &r })))
            .collect()
    }

    #[test]
    fn uniform_state_gives_exact_advection_flux() {
        let states = [
            prim(1.0, 2.0, 1.0, 1.4),
            prim(1.0, -2.0, 1.0, 1.4),
            prim(0.3, 0.0, 5.0, 5.0 / 3.0),
            prim(2.0, 9.0, 0.5, 1.4),
            prim(0.125, -7.0, 0.1, 5.0 / 3.0),
        ];
        let pairs: Vec<_> = states.iter().map(|&p| (p, p)).collect();
        for (backend, fluxes) in hllc_all(&pairs) {
            for (p, f) in states.iter().zip(&fluxes) {
                let exact = flux(p);
                for n in 0..NFLUX {
                    assert!((f[n] - exact[n]).abs() < 1e-13, "{backend} {p:?} channel {n}");
                }
            }
        }
    }

    #[test]
    fn symmetry_of_mirrored_states() {
        // Mirroring left/right with negated velocities must negate the mass
        // flux and preserve the momentum flux.
        let mirror = |mut z: Zone| {
            z.vel[0] = -z.vel[0];
            z
        };
        let cases = [
            (prim(1.0, 0.3, 1.0, 1.4), prim(0.5, -0.1, 0.4, 1.4)),
            (prim(1.0, 0.0, 1.0, 1.4), prim(0.125, 0.0, 0.1, 1.4)),
            (prim(3.0, 1.5, 2.0, 5.0 / 3.0), prim(1.0, 0.5, 8.0, 5.0 / 3.0)),
        ];
        let pairs: Vec<_> = cases
            .iter()
            .flat_map(|&(l, r)| [(l, r), (mirror(r), mirror(l))])
            .collect();
        for (backend, fluxes) in hllc_all(&pairs) {
            for (f, fm) in fluxes.iter().step_by(2).zip(fluxes.iter().skip(1).step_by(2)) {
                assert!((f[0] + fm[0]).abs() < 1e-12, "{backend}: mass flux antisymmetry");
                assert!((f[1] - fm[1]).abs() < 1e-12, "{backend}: momentum flux symmetry");
                assert!((f[4] + fm[4]).abs() < 1e-12, "{backend}: energy flux antisymmetry");
            }
        }
    }

    #[test]
    fn supersonic_flows_upwind_fully() {
        let cases = [
            // Far supersonic to the right: the left state's flux.
            (prim(1.0, 10.0, 1.0, 1.4), prim(0.125, 10.0, 0.1, 1.4), true),
            // Far supersonic to the left: the right state's flux.
            (prim(1.0, -10.0, 1.0, 1.4), prim(0.125, -10.0, 0.1, 1.4), false),
            (prim(0.5, 20.0, 3.0, 5.0 / 3.0), prim(2.0, 15.0, 1.0, 5.0 / 3.0), true),
        ];
        let pairs: Vec<_> = cases.iter().map(|&(l, r, _)| (l, r)).collect();
        for (backend, fluxes) in hllc_all(&pairs) {
            for (&(l, r, rightward), f) in cases.iter().zip(&fluxes) {
                let exact = flux(if rightward { &l } else { &r });
                for n in 0..NFLUX {
                    assert!((f[n] - exact[n]).abs() < 1e-12, "{backend} channel {n}");
                }
            }
        }
    }

    #[test]
    fn sod_interface_flux_is_sane() {
        // Sod shock tube: interface flux must transport mass rightward with
        // positive momentum flux bounded by the left pressure.
        let pairs = [(prim(1.0, 0.0, 1.0, 1.4), prim(0.125, 0.0, 0.1, 1.4))];
        for (backend, fluxes) in hllc_all(&pairs) {
            let f = fluxes[0];
            assert!(f[0] > 0.0, "{backend}: mass flows right");
            assert!(f[1] > 0.1 && f[1] < 1.0, "{backend}: momentum flux between pressures");
            assert!(f[4] > 0.0, "{backend}: energy flows right");
            // The exact Sod solution has p* ≈ 0.30313 and u* ≈ 0.92745;
            // HLLC resolves the contact, so the mass flux should be close to
            // ρ*L u* ≈ 0.426·0.927.
            assert!((f[0] - 0.39).abs() < 0.06, "{backend}: mass flux {}", f[0]);
        }
    }

    #[test]
    fn transverse_momentum_is_passively_advected() {
        let mut l = prim(1.0, 0.5, 1.0, 1.4);
        let mut r = prim(1.0, 0.5, 1.0, 1.4);
        l.vel[1] = 3.0;
        r.vel[1] = -2.0;
        l.ener += 0.5 * 9.0;
        r.ener += 0.5 * 4.0;
        for (backend, fluxes) in hllc_all(&[(l, r)]) {
            let f = fluxes[0];
            // Positive contact speed: transverse momentum comes from the left.
            assert!((f[2] - f[0] * 3.0).abs() < 1e-12, "{backend}");
        }
    }

    #[test]
    fn strong_shock_does_not_nan() {
        let pairs = [(prim(1.0, 0.0, 1e10, 5.0 / 3.0), prim(1e-4, 0.0, 1e-4, 5.0 / 3.0))];
        for (backend, fluxes) in hllc_all(&pairs) {
            assert!(fluxes[0].iter().all(|v| v.is_finite()), "{backend}: {:?}", fluxes[0]);
        }
    }

    #[test]
    fn every_backend_matches_the_one_lane_hllc_bit_exactly() {
        // A spread of face states covering all four wave-fan branches:
        // supersonic left/right, subsonic with contact on either side.
        let pairs: Vec<(Zone, Zone)> = (0..21)
            .map(|i| {
                let g = if i % 2 == 0 { 1.4 } else { 5.0 / 3.0 };
                let u = (i as f64 - 10.0) * 1.3;
                let mut l = prim(1.0 + 0.07 * i as f64, u, 1.0 + 0.3 * i as f64, g);
                let mut r = prim(0.125 + 0.02 * i as f64, -u * 0.7, 0.1 + 0.05 * i as f64, g);
                l.vel[1] = 0.2 * i as f64;
                r.vel[2] = -0.1 * i as f64;
                (l, r)
            })
            .collect();
        let all = hllc_all(&pairs);
        let (_, reference) = all
            .iter()
            .find(|(backend, _)| *backend == Resolved::Scalar)
            .expect("the one-lane backend is always carried");
        for (backend, out) in &all {
            for (i, (got, want)) in out.iter().zip(reference).enumerate() {
                for ch in 0..NFLUX {
                    assert_eq!(
                        got[ch].to_bits(),
                        want[ch].to_bits(),
                        "{backend} face {i} channel {ch}: {} vs {}",
                        got[ch],
                        want[ch]
                    );
                }
            }
        }
    }
}
