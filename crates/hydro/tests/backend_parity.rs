//! Property-based backend parity: every explicit SIMD backend the build
//! carries (portable 2/4-wide, SSE2, AVX2 where the CPU has them) must
//! produce **bit-identical** results to the 1-wide scalar lane on
//! randomized states — the contract DESIGN.md §16 pins (no FMA, scalar
//! operation order, select-semantics min/max, W-chunks + scalar tail
//! through one generic kernel).
//!
//! Two surfaces are exercised: full pencil-engine sweeps over randomized
//! smooth domains (PPM + HLLC + conservative update + batched gamma EOS),
//! and the batched Helmholtz DensEi inversion (bicubic table evaluation +
//! masked-re-iteration Newton) on randomized thermodynamic states.

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use rflash_eos::{Eos, EosBatch, EosMode, EosState, GammaLaw, Helmholtz, TableConfig};
use rflash_hugepages::Policy;
use rflash_hydro::{compute_dt_parallel, sweep_direction, SweepConfig, SweepEos, NFLUX};
use rflash_mesh::flux::FluxRegister;
use rflash_mesh::tree::MeshConfig;
use rflash_mesh::{vars, BoundaryCondition, Domain};
use rflash_simd::Resolved;

/// Randomized smooth initial condition: sinusoidal density/pressure/velocity
/// perturbations, thermodynamically consistent through the gamma law.
#[derive(Clone, Debug)]
struct InitParams {
    dens_amp: f64,
    pres_amp: f64,
    vel_amp: f64,
    kx: f64,
    ky: f64,
    phase: f64,
}

fn arb_init() -> impl Strategy<Value = InitParams> {
    (
        0.0f64..0.45,
        0.0f64..0.45,
        0.0f64..0.3,
        1.0f64..3.0,
        1.0f64..3.0,
        0.0f64..std::f64::consts::TAU,
    )
        .prop_map(|(dens_amp, pres_amp, vel_amp, kx, ky, phase)| InitParams {
            dens_amp,
            pres_amp,
            vel_amp,
            kx: kx.round(),
            ky: ky.round(),
            phase,
        })
}

fn build_domain(p: &InitParams) -> Domain {
    let mut cfg = MeshConfig::test_2d();
    cfg.bc = BoundaryCondition::Periodic;
    let mut d = Domain::new(cfg, Policy::None);
    let eos = GammaLaw::new(1.4);
    let tau = std::f64::consts::TAU;
    for id in d.tree.leaves() {
        for j in d.unk.interior() {
            for i in d.unk.interior() {
                let x = d.tree.cell_center(id, i, j, 0);
                let dens = 1.0 + p.dens_amp * (tau * p.kx * x[0] + p.phase).sin();
                let pres = 1.0 + p.pres_amp * (tau * p.ky * x[1]).cos();
                let u = p.vel_amp * (tau * p.kx * x[1]).sin();
                let v = p.vel_amp * (tau * p.ky * x[0] + p.phase).cos();
                let mut s = EosState::co_wd(dens, 0.0);
                s.abar = 1.0;
                s.zbar = 1.0;
                s.pres = pres;
                eos.call(EosMode::DensPres, &mut s).unwrap();
                d.unk.set(vars::DENS, i, j, 0, id.idx(), dens);
                d.unk.set(vars::VELX, i, j, 0, id.idx(), u);
                d.unk.set(vars::VELY, i, j, 0, id.idx(), v);
                d.unk.set(vars::PRES, i, j, 0, id.idx(), pres);
                d.unk.set(vars::TEMP, i, j, 0, id.idx(), s.temp);
                d.unk.set(vars::EINT, i, j, 0, id.idx(), s.eint);
                d.unk
                    .set(vars::ENER, i, j, 0, id.idx(), s.eint + 0.5 * (u * u + v * v));
                d.unk.set(vars::GAMC, i, j, 0, id.idx(), s.gamc);
                d.unk.set(vars::GAME, i, j, 0, id.idx(), s.game);
            }
        }
    }
    d
}

/// Run two steps of full (x, y) sweeps with the batched gamma EOS on one
/// backend.
fn run_backend(p: &InitParams, simd: Resolved) -> Domain {
    let mut d = build_domain(p);
    let eos = GammaLaw::new(1.4);
    let batch = SweepEos::Batch {
        eos: &eos,
        abar: 1.0,
        zbar: 1.0,
    };
    let cfg = SweepConfig {
        simd,
        ..SweepConfig::default()
    };
    let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
    for _ in 0..2 {
        let dt = compute_dt_parallel(&mut d, 0.3, 1);
        for dir in 0..2 {
            sweep_direction(&mut d, &batch, dir, dt, &mut reg, &cfg);
        }
    }
    d
}

/// Bit-compare every solution variable over the interiors of two domains.
fn assert_unk_identical(a: &Domain, b: &Domain, what: &str) -> Result<(), TestCaseError> {
    for id in a.tree.leaves() {
        for var in 0..vars::NVAR {
            for j in a.unk.interior() {
                for i in a.unk.interior() {
                    let va = a.unk.get(var, i, j, 0, id.idx());
                    let vb = b.unk.get(var, i, j, 0, id.idx());
                    prop_assert!(
                        va.to_bits() == vb.to_bits(),
                        "{what}: var {var} at ({i},{j}) block {}: {va:e} != {vb:e}",
                        id.idx()
                    );
                }
            }
        }
    }
    Ok(())
}

/// The coarse Helmholtz table is expensive to build; share one instance
/// across proptest cases (`set_simd` retargets it per backend).
fn helmholtz() -> &'static Mutex<Helmholtz> {
    static TABLE: OnceLock<Mutex<Helmholtz>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(
            Helmholtz::build(TableConfig::coarse(), Policy::None)
                .expect("coarse Helmholtz table"),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full pencil sweeps: every wider backend reproduces the 1-wide lane
    /// bit-for-bit on randomized smooth flows.
    #[test]
    fn pencil_sweeps_are_bit_identical_across_backends(p in arb_init()) {
        let reference = run_backend(&p, Resolved::Scalar);
        for &b in Resolved::all() {
            if b == Resolved::Scalar {
                continue;
            }
            let d = run_backend(&p, b);
            assert_unk_identical(&reference, &d, b.name())?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched Helmholtz DensEi inversion: randomized (ρ, T) states and a
    /// randomized (bad) temperature guess produce bit-identical
    /// temp/pres/gamc/game on every backend, and identical per-iteration
    /// occupancy histograms (the masked re-iteration walks the same
    /// trajectory regardless of lane width).
    #[test]
    fn helmholtz_batch_is_bit_identical_across_backends(
        states in proptest::collection::vec((-0.5f64..6.5, 6.1f64..8.9), 3..37),
        guess_scale in 0.4f64..2.5,
    ) {
        let n = states.len();
        let abar = vec![13.714285714285715; n];
        let zbar = vec![6.857142857142857; n];
        let dens: Vec<f64> = states.iter().map(|&(d, _)| 10f64.powf(d)).collect();
        let temp0: Vec<f64> = states.iter().map(|&(_, t)| 10f64.powf(t)).collect();
        let mut h = helmholtz().lock().unwrap();

        type Captured = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, [u64; 16]);
        let mut reference: Option<Captured> = None;
        for &b in Resolved::all() {
            // Forward pass fixes consistent energies for this backend run.
            let mut temp = temp0.clone();
            let mut eint = vec![0.0; n];
            let mut pres = vec![0.0; n];
            let mut gamc = vec![0.0; n];
            let mut game = vec![0.0; n];
            let mut fwd = EosBatch {
                dens: &dens,
                eint: &mut eint,
                temp: &mut temp,
                abar: &abar,
                zbar: &zbar,
                pres: &mut pres,
                gamc: &mut gamc,
                game: &mut game,
            };
            h.set_simd(b);
            h.eos_batch(EosMode::DensTemp, &mut fwd).expect("forward pass");
            for t in temp.iter_mut() {
                *t *= guess_scale;
            }
            let mut inv = EosBatch {
                dens: &dens,
                eint: &mut eint,
                temp: &mut temp,
                abar: &abar,
                zbar: &zbar,
                pres: &mut pres,
                gamc: &mut gamc,
                game: &mut game,
            };
            let report = h.eos_batch(EosMode::DensEi, &mut inv).expect("inversion");
            match &reference {
                None => reference = Some((temp, pres, gamc, game, report.iter_hist)),
                Some((rt, rp, rc, rg, rh)) => {
                    for k in 0..n {
                        prop_assert!(rt[k].to_bits() == temp[k].to_bits(),
                            "{}: temp lane {k}: {:e} != {:e}", b.name(), rt[k], temp[k]);
                        prop_assert!(rp[k].to_bits() == pres[k].to_bits(),
                            "{}: pres lane {k}", b.name());
                        prop_assert!(rc[k].to_bits() == gamc[k].to_bits(),
                            "{}: gamc lane {k}", b.name());
                        prop_assert!(rg[k].to_bits() == game[k].to_bits(),
                            "{}: game lane {k}", b.name());
                    }
                    prop_assert!(rh == &report.iter_hist,
                        "{}: newton histogram diverged", b.name());
                }
            }
        }
    }
}
