//! Pencil-batched SoA sweep engine, vectorized through `rflash-simd`.
//!
//! Each pencil is gathered **once** into contiguous f64 lanes (one lane per
//! variable, guard cells included), the PPM/flattening/HLLC/update kernels
//! run as explicit-SIMD lane loops over those lanes, and the results scatter
//! back to `unk` in one pass. Real FLASH works the same way —
//! `hy_ppm_sweep` copies blocks into 1-d sweep arrays before touching
//! physics.
//!
//! The kernels are generic over [`rflash_simd::Lane`] and the whole block
//! body is entered through [`rflash_simd::dispatch`] exactly once per
//! block — the backend (`SweepConfig::simd`) is a single branch out here,
//! not a branch per loop iteration, and the AVX2 instantiation inlines
//! into the `#[target_feature]` wrapper. Every width keeps the one-lane
//! operation order (branches become bitwise masked selects; see the
//! per-kernel notes in `ppm.rs`/`riemann.rs`/`state.rs`), so every backend
//! produces bit-identical `unk` contents and the one-lane instantiation,
//! `Resolved::Scalar`, is the reference the wider backends are checked
//! against.
//!
//! Scratch comes from a per-rank [`HugeArena`] created on first use (the
//! rank pool's threads persist across epochs, so a `thread_local` is
//! per-rank persistent storage), sized for the largest pencil seen, and
//! `recycle()`d per block — steady state performs no allocations and the
//! lanes sit in one huge-page-backed VMA under the same policy/degradation
//! chain as `unk` itself.
//!
//! This module is under the `pencil_confinement` static-analysis rule: no
//! per-cell `unk` access (`slab_idx`/`get`/`set`) may appear here — all
//! `unk` traffic must flow through the gather/scatter helpers.

use std::cell::RefCell;

use rflash_eos::{EosBatch, EosMode};
use rflash_hugepages::{HugeArena, Policy};
use rflash_mesh::unk::UnkGeom;
use rflash_mesh::vars;
use rflash_perfmon::Probe;
use rflash_simd::{chunk_split, Lane, LaneMask, ScalarLane, WithLanes};

use crate::ppm::{flattening_lanes, reconstruct_lanes};
use crate::riemann::hllc_lanes;
use crate::state::{cons_to_vel_ener_lanes, Prim, PrimL};
use crate::sweep::{write_zone, BlockFluxes, SweepConfig, SweepEos, READ_VARS, WRITE_VARS};
use crate::NFLUX;

/// Everything about the block being swept that the engine needs and that is
/// constant across the block's pencils.
pub(crate) struct BlockCtx<'a> {
    pub geom: &'a UnkGeom,
    pub eos: &'a SweepEos<'a>,
    pub dir: usize,
    pub dt: f64,
    pub dx: f64,
    pub r_lo: f64,
    pub cylindrical_r: bool,
    pub block_idx: usize,
    pub cfg: &'a SweepConfig,
    pub nxb: usize,
    pub ng: usize,
    pub ndim: usize,
    pub vm: &'a [usize; 3],
}

/// Per-rank scratch: one arena reused for every block the rank sweeps.
struct Scratch {
    arena: HugeArena,
    /// The policy the arena was *requested* under (the region itself may
    /// have degraded along the chain); a config change rebuilds the arena.
    requested: Policy,
}

thread_local! {
    static SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
}

/// Split `len` elements off the front of `rest`.
fn carve<'s>(rest: &mut &'s mut [f64], len: usize) -> &'s mut [f64] {
    let whole = std::mem::take(rest);
    let (head, tail) = whole.split_at_mut(len);
    *rest = tail;
    head
}

/// Floor `lane` in place: `x = max(x, floor)` with the same bits as the
/// scalar `f64::max` (the floor is a positive constant, so the lane
/// select-`max` agrees — NaN or −0 in the data yields the floor either
/// way, and an exact tie is the same positive bit pattern).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn floor_lane<L: Lane>(lane: &mut [f64], floor: f64) {
    let fl = L::splat(floor);
    let n = lane.len();
    let mut i = 0;
    while i + L::W <= n {
        L::load(&lane[i..]).max(fl).store(&mut lane[i..]);
        i += L::W;
    }
    let f1 = ScalarLane::splat(floor);
    while i < n {
        ScalarLane::load(&lane[i..]).max(f1).store(&mut lane[i..]);
        i += 1;
    }
}

/// Primitive face states of `W` zones starting at `z` from one side's face
/// lanes: floored density and pressure, gamma-law internal energy from the
/// zone's `game`, and the zone's `gamc`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn face_prim_lanes<L: Lane>(
    face: &[&mut [f64]; 5],
    z: usize,
    game: L,
    gamc: L,
    dens_floor: f64,
) -> PrimL<L> {
    let dens = L::load(&face[0][z..]).max(L::splat(dens_floor));
    let pres = L::load(&face[4][z..]).max(L::splat(f64::MIN_POSITIVE));
    let vel = [
        L::load(&face[1][z..]),
        L::load(&face[2][z..]),
        L::load(&face[3][z..]),
    ];
    let eint = pres.div(game.sub(L::splat(1.0)).mul(dens));
    let ener = eint.add(L::splat(0.5).mul(
        vel[0]
            .mul(vel[0])
            .add(vel[1].mul(vel[1]))
            .add(vel[2].mul(vel[2])),
    ));
    PrimL {
        dens,
        vel,
        pres,
        ener,
        gamc,
    }
}

/// Predictor-state recovery, back to primitive face values (gamma-law
/// locally): unphysical lanes (`eint <= 0` or `dens <= 0`, NaN included —
/// the comparisons are false on NaN) keep the unpredicted face state via
/// masked select. A strong wave in one zone can produce such a state.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn to_prim_lanes<L: Lane>(u: &[L; NFLUX], fallback: &PrimL<L>, game: L, dens_floor: f64) -> [L; 5] {
    let (dens, vel, ener) = cons_to_vel_ener_lanes(u, L::splat(dens_floor));
    let eint = ener.sub(L::splat(0.5).mul(
        vel[0]
            .mul(vel[0])
            .add(vel[1].mul(vel[1]))
            .add(vel[2].mul(vel[2])),
    ));
    let ok = eint.gt(L::splat(0.0)).and(dens.gt(L::splat(0.0)));
    let pres = game.sub(L::splat(1.0)).mul(dens).mul(eint);
    [
        L::select(ok, dens, fallback.dens),
        L::select(ok, vel[0], fallback.vel[0]),
        L::select(ok, vel[1], fallback.vel[1]),
        L::select(ok, vel[2], fallback.vel[2]),
        L::select(ok, pres, fallback.pres),
    ]
}

/// MUSCL–Hancock predictor on `W` zones starting at `z`: evolve each
/// zone's pair of face states by a half step using the flux difference of
/// its own faces — second order in time without characteristic tracing (a
/// documented simplification of full PPM).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn muscl_at<L: Lane>(
    fm: &mut [&mut [f64]; 5],
    fp: &mut [&mut [f64]; 5],
    w_game: &[f64],
    w_gamc: &[f64],
    z: usize,
    half_dtdx: f64,
    dens_floor: f64,
) {
    let game = L::load(&w_game[z..]);
    let gamc = L::load(&w_gamc[z..]);
    let minus = face_prim_lanes::<L>(&*fm, z, game, gamc, dens_floor);
    let plus = face_prim_lanes::<L>(&*fp, z, game, gamc, dens_floor);
    let f_minus = minus.flux();
    let f_plus = plus.flux();
    let half = L::splat(half_dtdx);
    let mut um = minus.to_cons();
    let mut up = plus.to_cons();
    for ch in 0..NFLUX {
        let d = half.mul(f_plus[ch].sub(f_minus[ch]));
        um[ch] = um[ch].sub(d);
        up[ch] = up[ch].sub(d);
    }
    let pm = to_prim_lanes(&um, &minus, game, dens_floor);
    let pp = to_prim_lanes(&up, &plus, game, dens_floor);
    for v in 0..5 {
        pm[v].store(&mut fm[v][z..]);
        pp[v].store(&mut fp[v][z..]);
    }
}

/// HLLC interface fluxes for `W` faces starting at `f` into the interface
/// lanes (face `f` sees zone `f-1`'s plus side and zone `f`'s minus side).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn hllc_at<L: Lane>(
    fm: &[&mut [f64]; 5],
    fp: &[&mut [f64]; 5],
    w_game: &[f64],
    w_gamc: &[f64],
    ifl: &mut [&mut [f64]; NFLUX],
    f: usize,
    dens_floor: f64,
) {
    let l = face_prim_lanes::<L>(
        fp,
        f - 1,
        L::load(&w_game[f - 1..]),
        L::load(&w_gamc[f - 1..]),
        dens_floor,
    );
    let r = face_prim_lanes::<L>(
        fm,
        f,
        L::load(&w_game[f..]),
        L::load(&w_gamc[f..]),
        dens_floor,
    );
    let fx = hllc_lanes(&l, &r);
    for (ch, lane) in ifl.iter_mut().enumerate() {
        fx[ch].store(&mut lane[f..]);
    }
}

/// Conservative update + eint floor on `W` zones starting at `p`, writing
/// the out lanes (the lane form of `write_zone`'s conversion; the energy is
/// re-derived from the floored eint only on floored lanes, exactly like
/// `write_zone`'s branch).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
#[allow(clippy::too_many_arguments)] // flat lane-slice plumbing, no natural struct
fn update_at<L: Lane>(
    ctx: &BlockCtx<'_>,
    lanes: &PencilLanes<'_>,
    ifl: &[&mut [f64]; NFLUX],
    out: &mut OutLanes<'_>,
    p: usize,
    dtdx: f64,
) {
    let prim = PrimL {
        dens: L::load(&lanes.w_dens[p..]),
        vel: [
            L::load(&lanes.w_u[p..]),
            L::load(&lanes.w_v[p..]),
            L::load(&lanes.w_w[p..]),
        ],
        pres: L::load(&lanes.w_pres[p..]),
        ener: L::load(&lanes.w_ener[p..]),
        gamc: L::load(&lanes.w_gamc[p..]),
    };
    let mut u5 = prim.to_cons();
    if ctx.cylindrical_r {
        let ng = ctx.ng;
        let r_m = L::from_fn(|k| ctx.r_lo + (p - ng + k) as f64 * ctx.dx);
        let r_p = r_m.add(L::splat(ctx.dx));
        let r_c = r_m.add(L::splat(0.5 * ctx.dx));
        for (ch, lane) in ifl.iter().enumerate() {
            let lo = L::load(&lane[p..]);
            let hi = L::load(&lane[p + 1..]);
            u5[ch] = u5[ch].sub(
                L::splat(ctx.dt)
                    .div(r_c.mul(L::splat(ctx.dx)))
                    .mul(r_p.mul(hi).sub(r_m.mul(lo))),
            );
        }
        u5[1] = u5[1].add(L::splat(ctx.dt).mul(prim.pres).div(r_c));
    } else {
        for (ch, lane) in ifl.iter().enumerate() {
            let lo = L::load(&lane[p..]);
            let hi = L::load(&lane[p + 1..]);
            u5[ch] = u5[ch].sub(L::splat(dtdx).mul(hi.sub(lo)));
        }
    }
    let (dens, vel, ener) = cons_to_vel_ener_lanes(&u5, L::splat(ctx.cfg.dens_floor));
    let ekin = L::splat(0.5).mul(
        vel[0]
            .mul(vel[0])
            .add(vel[1].mul(vel[1]))
            .add(vel[2].mul(vel[2])),
    );
    let eint = ener.sub(ekin);
    let fl = L::splat(ctx.cfg.eint_floor);
    let m = eint.lt(fl);
    let eint_o = L::select(m, fl, eint);
    let ener_o = L::select(m, fl.add(ekin), ener);
    dens.store(&mut out.dens[p..]);
    vel[0].store(&mut out.u[p..]);
    vel[1].store(&mut out.v[p..]);
    vel[2].store(&mut out.w[p..]);
    ener_o.store(&mut out.ener[p..]);
    eint_o.store(&mut out.eint[p..]);
}

/// The gathered (read-side) pencil lanes.
struct PencilLanes<'a> {
    w_dens: &'a [f64],
    w_u: &'a [f64],
    w_v: &'a [f64],
    w_w: &'a [f64],
    w_pres: &'a [f64],
    w_ener: &'a [f64],
    w_gamc: &'a [f64],
}

/// The update-output pencil lanes.
struct OutLanes<'a> {
    dens: &'a mut [f64],
    u: &'a mut [f64],
    v: &'a mut [f64],
    w: &'a mut [f64],
    ener: &'a mut [f64],
    eint: &'a mut [f64],
}

/// The whole per-block sweep body, monomorphized per lane backend and
/// entered once through [`rflash_simd::dispatch`].
struct PencilBody<'a, 'b> {
    ctx: &'a BlockCtx<'a>,
    slab: &'a mut [f64],
    fluxes_out: &'a mut BlockFluxes,
    probe: &'a mut Probe,
    all: &'b mut [f64],
}

impl WithLanes for PencilBody<'_, '_> {
    type Output = ();
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn with_lanes<L: Lane>(self) {
        run_pencils::<L>(self.ctx, self.slab, self.fluxes_out, self.probe, self.all)
    }
}

#[cfg_attr(debug_assertions, inline)]

#[cfg_attr(not(debug_assertions), inline(always))]
fn run_pencils<L: Lane>(
    ctx: &BlockCtx<'_>,
    slab: &mut [f64],
    fluxes_out: &mut BlockFluxes,
    probe: &mut Probe,
    all: &mut [f64],
) {
    let (geom, dir, ng, nxb) = (ctx.geom, ctx.dir, ctx.ng, ctx.nxb);
    let n = geom.pencil_len(dir);
    let dtdx = ctx.dt / ctx.dx;
    let dens_floor = ctx.cfg.dens_floor;

    let mut rest = all;
    let w_dens = carve(&mut rest, n);
    let w_u = carve(&mut rest, n);
    let w_v = carve(&mut rest, n);
    let w_w = carve(&mut rest, n);
    let w_pres = carve(&mut rest, n);
    let w_game = carve(&mut rest, n);
    let w_gamc = carve(&mut rest, n);
    let w_ener = carve(&mut rest, n);
    let flat = carve(&mut rest, n);
    let snap = carve(&mut rest, n);
    let mut fm: [&mut [f64]; 5] = [
        carve(&mut rest, n),
        carve(&mut rest, n),
        carve(&mut rest, n),
        carve(&mut rest, n),
        carve(&mut rest, n),
    ];
    let mut fp: [&mut [f64]; 5] = [
        carve(&mut rest, n),
        carve(&mut rest, n),
        carve(&mut rest, n),
        carve(&mut rest, n),
        carve(&mut rest, n),
    ];
    let mut ifl: [&mut [f64]; NFLUX] = [
        carve(&mut rest, n + 1),
        carve(&mut rest, n + 1),
        carve(&mut rest, n + 1),
        carve(&mut rest, n + 1),
        carve(&mut rest, n + 1),
    ];
    let out_dens = carve(&mut rest, n);
    let out_u = carve(&mut rest, n);
    let out_v = carve(&mut rest, n);
    let out_w = carve(&mut rest, n);
    let out_ener = carve(&mut rest, n);
    let out_eint = carve(&mut rest, n);
    let eos_pres = carve(&mut rest, n);
    let eos_gamc = carve(&mut rest, n);
    let eos_game = carve(&mut rest, n);
    let temp_lane = carve(&mut rest, n);
    let abar_lane = carve(&mut rest, n);
    let zbar_lane = carve(&mut rest, n);

    let t1_range = ng..ng + nxb;
    let t2_range = if ctx.ndim == 3 { ng..ng + nxb } else { 0..1 };
    let mut pencil_counter = 0usize;

    for t2 in t2_range {
        for t1 in t1_range.clone() {
            // Gather all read variables into SoA lanes, one strided walk
            // per variable, then floor density, pressure and both gammas.
            geom.gather_pencil(slab, vars::DENS, dir, t1, t2, w_dens);
            geom.gather_pencil(slab, ctx.vm[0], dir, t1, t2, w_u);
            geom.gather_pencil(slab, ctx.vm[1], dir, t1, t2, w_v);
            geom.gather_pencil(slab, ctx.vm[2], dir, t1, t2, w_w);
            geom.gather_pencil(slab, vars::PRES, dir, t1, t2, w_pres);
            geom.gather_pencil(slab, vars::GAME, dir, t1, t2, w_game);
            geom.gather_pencil(slab, vars::GAMC, dir, t1, t2, w_gamc);
            geom.gather_pencil(slab, vars::ENER, dir, t1, t2, w_ener);
            probe.stats.gather_cells += (8 * n) as u64;
            floor_lane::<L>(w_dens, dens_floor);
            floor_lane::<L>(w_pres, f64::MIN_POSITIVE);
            floor_lane::<L>(w_gamc, 1.01);
            floor_lane::<L>(w_game, 1.01);

            // Flattening and reconstruction directly on the lanes.
            flattening_lanes::<L>(w_pres, w_u, ng - 1, ng + nxb + 1, flat, snap);
            reconstruct_lanes::<L>(w_dens, ng - 1, ng + nxb + 1, flat, fm[0], fp[0]);
            reconstruct_lanes::<L>(w_u, ng - 1, ng + nxb + 1, flat, fm[1], fp[1]);
            reconstruct_lanes::<L>(w_v, ng - 1, ng + nxb + 1, flat, fm[2], fp[2]);
            reconstruct_lanes::<L>(w_w, ng - 1, ng + nxb + 1, flat, fm[3], fp[3]);
            reconstruct_lanes::<L>(w_pres, ng - 1, ng + nxb + 1, flat, fm[4], fp[4]);

            // MUSCL–Hancock predictor (see `muscl_at`).
            let half_dtdx = 0.5 * dtdx;
            let mut z = ng - 1;
            while z + L::W <= ng + nxb + 1 {
                muscl_at::<L>(&mut fm, &mut fp, w_game, w_gamc, z, half_dtdx, dens_floor);
                z += L::W;
            }
            while z < ng + nxb + 1 {
                muscl_at::<ScalarLane>(&mut fm, &mut fp, w_game, w_gamc, z, half_dtdx, dens_floor);
                z += 1;
            }
            probe.stats.add_vec(60 * (nxb + 2) as u64);

            // Interface fluxes into the SoA interface lanes.
            let mut f = ng;
            while f + L::W <= ng + nxb + 1 {
                hllc_at::<L>(&fm, &fp, w_game, w_gamc, &mut ifl, f, dens_floor);
                f += L::W;
            }
            while f < ng + nxb + 1 {
                hllc_at::<ScalarLane>(&fm, &fp, w_game, w_gamc, &mut ifl, f, dens_floor);
                f += 1;
            }
            probe.stats.add_vec(240 * (nxb + 1) as u64);

            // Conservative update on interior zones.
            if let SweepEos::PerZone(_) = ctx.eos {
                // Per-zone callbacks are inherently cell-at-a-time; route
                // through the write-back helper the flux-correction
                // re-derive shares, so both call the callback alike.
                for p in ng..ng + nxb {
                    let mut u5 = Prim {
                        dens: w_dens[p],
                        vel: [w_u[p], w_v[p], w_w[p]],
                        ener: w_ener[p],
                    }
                    .to_cons();
                    if ctx.cylindrical_r {
                        let r_m = ctx.r_lo + (p - ng) as f64 * ctx.dx;
                        let r_p = r_m + ctx.dx;
                        let r_c = r_m + 0.5 * ctx.dx;
                        for (ch, lane) in ifl.iter().enumerate() {
                            u5[ch] -= ctx.dt / (r_c * ctx.dx) * (r_p * lane[p + 1] - r_m * lane[p]);
                        }
                        u5[1] += ctx.dt * w_pres[p] / r_c;
                    } else {
                        for (ch, lane) in ifl.iter().enumerate() {
                            u5[ch] -= dtdx * (lane[p + 1] - lane[p]);
                        }
                    }
                    write_zone(
                        slab, geom, dir, p, t1, t2, ctx.vm, &u5, ctx.cfg, ctx.eos, probe,
                    );
                    probe.stats.zones += 1;
                    probe.stats.add_fp(40);
                }
            } else {
                let lanes = PencilLanes {
                    w_dens: &*w_dens,
                    w_u: &*w_u,
                    w_v: &*w_v,
                    w_w: &*w_w,
                    w_pres: &*w_pres,
                    w_ener: &*w_ener,
                    w_gamc: &*w_gamc,
                };
                let mut out = OutLanes {
                    dens: &mut *out_dens,
                    u: &mut *out_u,
                    v: &mut *out_v,
                    w: &mut *out_w,
                    ener: &mut *out_ener,
                    eint: &mut *out_eint,
                };
                let mut p = ng;
                while p + L::W <= ng + nxb {
                    update_at::<L>(ctx, &lanes, &ifl, &mut out, p, dtdx);
                    p += L::W;
                }
                while p < ng + nxb {
                    update_at::<ScalarLane>(ctx, &lanes, &ifl, &mut out, p, dtdx);
                    p += 1;
                }
                probe.stats.zones += nxb as u64;
                probe.stats.add_fp(40 * nxb as u64);
            }

            // SIMD occupancy accounting over the lane-kernel spans of this
            // pencil: flattening + 5 reconstructions + MUSCL (nxb+2 zones
            // each), HLLC (nxb+1 faces), update (nxb zones, lane path only).
            let (c_wide, t_wide) = chunk_split(nxb + 2, L::W);
            let (c_face, t_face) = chunk_split(nxb + 1, L::W);
            let mut chunk = 7 * c_wide + c_face;
            let mut tail = 7 * t_wide + t_face;
            if !matches!(ctx.eos, SweepEos::PerZone(_)) {
                let (c_upd, t_upd) = chunk_split(nxb, L::W);
                chunk += c_upd;
                tail += t_upd;
            }
            probe.stats.simd_chunk_lanes += chunk as u64;
            probe.stats.simd_tail_lanes += tail as u64;

            // Batched EOS over the whole interior span of the pencil.
            if let SweepEos::Batch { eos, abar, zbar } = ctx.eos {
                geom.gather_pencil(slab, vars::TEMP, dir, t1, t2, temp_lane);
                probe.stats.gather_cells += n as u64;
                abar_lane[ng..ng + nxb].fill(*abar);
                zbar_lane[ng..ng + nxb].fill(*zbar);
                let mut batch = EosBatch {
                    dens: &out_dens[ng..ng + nxb],
                    eint: &mut out_eint[ng..ng + nxb],
                    temp: &mut temp_lane[ng..ng + nxb],
                    abar: &abar_lane[ng..ng + nxb],
                    zbar: &zbar_lane[ng..ng + nxb],
                    pres: &mut eos_pres[ng..ng + nxb],
                    gamc: &mut eos_gamc[ng..ng + nxb],
                    game: &mut eos_game[ng..ng + nxb],
                };
                let report = match eos.eos_batch(EosMode::DensEi, &mut batch) {
                    Ok(r) => r,
                    Err(e) => {
                        // analyze::allow(panic): an EOS failure leaves the
                        // pencil half-updated with no recovery path; the
                        // rank pool converts the unwind into a clean
                        // whole-simulation abort (same contract as
                        // `write_zone`'s per-zone arm).
                        panic!("EOS failure in pencil dir={dir} t1={t1} t2={t2}: {e}")
                    }
                };
                probe.stats.batch_lanes += report.lanes;
                probe.stats.batch_vector_lanes += report.vector_lanes;
                probe.stats.batch_plateau_lanes += report.plateau_lanes;
                for (bin, count) in report.iter_hist.iter().enumerate() {
                    probe.stats.newton_iter_hist[bin] += count;
                }
                probe.stats.eos_calls += nxb as u64;
            }

            // Scatter the write set back in one pass.
            match ctx.eos {
                SweepEos::PerZone(_) => {} // write_zone already stored the zones
                SweepEos::Defer => {
                    for (var, lane) in [
                        (vars::DENS, &*out_dens),
                        (ctx.vm[0], &*out_u),
                        (ctx.vm[1], &*out_v),
                        (ctx.vm[2], &*out_w),
                        (vars::ENER, &*out_ener),
                        (vars::EINT, &*out_eint),
                    ] {
                        geom.scatter_pencil(slab, var, dir, t1, t2, ng..ng + nxb, lane);
                    }
                    probe.stats.scatter_cells += (6 * nxb) as u64;
                }
                SweepEos::Batch { .. } => {
                    for (var, lane) in [
                        (vars::DENS, &*out_dens),
                        (ctx.vm[0], &*out_u),
                        (ctx.vm[1], &*out_v),
                        (ctx.vm[2], &*out_w),
                        (vars::ENER, &*out_ener),
                        (vars::EINT, &*out_eint),
                        (vars::PRES, &*eos_pres),
                        (vars::TEMP, &*temp_lane),
                        (vars::GAMC, &*eos_gamc),
                        (vars::GAME, &*eos_game),
                    ] {
                        geom.scatter_pencil(slab, var, dir, t1, t2, ng..ng + nxb, lane);
                    }
                    probe.stats.scatter_cells += (10 * nxb) as u64;
                }
            }

            // Boundary fluxes for the conservation fix-up.
            let c1 = t1 - ng;
            let c2 = if ctx.ndim == 3 { t2 - ng } else { 0 };
            let lo_face = [ifl[0][ng], ifl[1][ng], ifl[2][ng], ifl[3][ng], ifl[4][ng]];
            let hi_face = [
                ifl[0][ng + nxb],
                ifl[1][ng + nxb],
                ifl[2][ng + nxb],
                ifl[3][ng + nxb],
                ifl[4][ng + nxb],
            ];
            fluxes_out.store(0, c1, c2, &lo_face);
            fluxes_out.store(1, c1, c2, &hi_face);

            // Access-pattern recording (sampled).
            if ctx.cfg.pattern_every > 0 {
                if pencil_counter.is_multiple_of(ctx.cfg.pattern_every) {
                    for &v in &READ_VARS {
                        probe.record(geom.pencil_pattern(v, dir, t1, t2, ctx.block_idx));
                    }
                    for &v in &WRITE_VARS {
                        probe.record_write(geom.pencil_pattern(v, dir, t1, t2, ctx.block_idx));
                    }
                }
                pencil_counter += 1;
            }
        }
    }
}

/// Sweep one block with the pencil engine. Fails only when the rank's
/// scratch arena cannot be mapped under any policy. The lane backend
/// (`SweepConfig::simd`) is dispatched exactly once here, covering the
/// whole block body.
pub(crate) fn sweep_block(
    ctx: &BlockCtx<'_>,
    slab: &mut [f64],
    fluxes_out: &mut BlockFluxes,
    probe: &mut Probe,
) -> rflash_hugepages::Result<()> {
    let n = ctx.geom.pencil_len(ctx.dir);
    // Lane budget: 8 prim + flat/snap + 5×2 faces + 6 update outputs +
    // 3 EOS outputs + temp + abar/zbar, each `n` long, plus 5 interface
    // lanes of `n + 1`.
    let total = 32 * n + NFLUX * (n + 1);

    SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        let need = total * std::mem::size_of::<f64>();
        let policy = ctx.cfg.scratch_policy;
        let scratch = match slot.take() {
            Some(s) if s.arena.capacity() >= need && s.requested == policy => s,
            _ => Scratch {
                arena: HugeArena::new(need, policy)?,
                requested: policy,
            },
        };
        let scratch = slot.insert(scratch);
        scratch.arena.recycle();
        let all = scratch.arena.alloc_slice::<f64>(total)?;

        rflash_simd::dispatch(
            ctx.cfg.simd,
            PencilBody {
                ctx,
                slab,
                fluxes_out,
                probe,
                all,
            },
        );
        Ok(())
    })
}
