//! The step guardian: physicality validation and typed step errors.
//!
//! FLASH aborts a run the moment a zone goes unphysical (negative density
//! out of the Riemann solver, a NaN flux, a zero time step) — the long
//! production campaigns in the paper's §IV only produce numbers because
//! every step of every run stayed physical. `rflash` instead *degrades*
//! through transient bad states: [`crate::Simulation::try_step`] validates
//! the evolved state before committing it, rolls back to a shadow snapshot
//! ([`rflash_mesh::ShadowSnapshot`]) on violation, retries under a bounded
//! budget (first at the same `dt` — a transient fault recovers bit-exactly
//! — then at halved `dt`), and on exhaustion writes an emergency checkpoint
//! and returns a typed [`StepError`]. Every
//! intervention lands in [`rflash_perfmon::GuardianStats`].
//!
//! This module holds the pieces that are policy, not driver plumbing: the
//! [`GuardianConfig`] knobs, the [`StepError`] type, and the parallel
//! validation scan.

use std::path::PathBuf;

use rflash_mesh::{vars, Domain, MortonKey};
use serde::{Deserialize, Serialize};

use crate::checkpoint::CheckpointError;

/// Retry/validation policy for the step guardian. Lives in
/// [`crate::RuntimeParams`] (serde-defaulted, so pre-guardian checkpoints
/// and parameter files still load; keys this struct no longer has, such as
/// the retired engine-degrade switch, are ignored).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GuardianConfig {
    /// Master switch. Off restores the PR-4 unguarded step verbatim.
    pub enabled: bool,
    /// Retry budget per step (0 = validate but never retry).
    pub max_retries: u32,
    /// Exclusive floor for density: `dens > dens_min` must hold.
    pub dens_min: f64,
    /// Exclusive floor for pressure.
    pub pres_min: f64,
    /// Exclusive floor for specific total energy.
    pub ener_min: f64,
}

impl Default for GuardianConfig {
    fn default() -> GuardianConfig {
        GuardianConfig {
            enabled: true,
            max_retries: 2,
            dens_min: 0.0,
            pres_min: 0.0,
            ener_min: 0.0,
        }
    }
}

/// Why a step could not be committed. Returned (never panicked) by
/// [`crate::Simulation::try_step`] and
/// [`crate::Simulation::evolve_checkpointed`].
#[derive(Debug)]
pub enum StepError {
    /// `compute_dt` produced a non-finite or non-positive time step on
    /// every attempt.
    BadDt {
        /// Committed step count when the failure hit.
        step: u64,
        /// The offending dt of the last attempt.
        dt: f64,
        /// Attempts made (1 = no retries).
        attempts: u32,
        /// Emergency checkpoint of the last good state, if one was written.
        emergency_checkpoint: Option<PathBuf>,
    },
    /// Validation kept failing after every retry.
    Unphysical {
        step: u64,
        attempts: u32,
        /// First violation of the final attempt, e.g.
        /// `"block L1(0,1,0) zone (4, 4, 0): dens = -1.2e0 <= floor 0e0"`.
        detail: String,
        emergency_checkpoint: Option<PathBuf>,
    },
    /// A scheduled checkpoint write failed mid-evolution.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::BadDt {
                step,
                dt,
                attempts,
                emergency_checkpoint,
            } => {
                write!(
                    f,
                    "step {step}: unusable time step {dt:e} after {attempts} attempt(s)"
                )?;
                if let Some(p) = emergency_checkpoint {
                    write!(f, " (emergency checkpoint at {})", p.display())?;
                }
                Ok(())
            }
            StepError::Unphysical {
                step,
                attempts,
                detail,
                emergency_checkpoint,
            } => {
                write!(
                    f,
                    "step {step}: state unphysical after {attempts} attempt(s): {detail}"
                )?;
                if let Some(p) = emergency_checkpoint {
                    write!(f, " (emergency checkpoint at {})", p.display())?;
                }
                Ok(())
            }
            StepError::Checkpoint(e) => write!(f, "checkpoint during evolution: {e}"),
        }
    }
}

impl std::error::Error for StepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StepError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for StepError {
    fn from(e: CheckpointError) -> StepError {
        StepError::Checkpoint(e)
    }
}

/// Scan every interior zone of every leaf for non-finite values and floor
/// violations, in parallel over the rank pool. Returns the first violation
/// in Morton order (deterministic for any `nranks`), or `None` when the
/// state is physical.
pub fn validate_domain(domain: &mut Domain, cfg: &GuardianConfig, nranks: usize) -> Option<String> {
    let geom = domain.unk.geom();
    let interior = domain.unk.interior();
    let interior_k = domain.unk.interior_k();
    let cfg = *cfg;
    let (_probes, verdicts) = domain.par_leaf_map(nranks, move |tree, id, slab, _probe| {
        // Label violations with the Morton key, not the arena slot: slot
        // numbers depend on allocation history and are not stable across
        // otherwise identical runs, and reports must be replayable.
        let key = tree.block(id).key;
        check_block(key, slab, &geom, interior.clone(), interior_k.clone(), &cfg)
    });
    verdicts.into_iter().find_map(|(_, v)| v)
}

/// The per-block piece of [`validate_domain`]: first violation in this
/// block's interior, scanning zones in (k, j, i) order and variables in
/// index order so the report is deterministic. Also the body of the task
/// graph's fused per-leaf Validate tasks (interior-only, so a shared read
/// of the block slab suffices).
pub(crate) fn check_block(
    key: MortonKey,
    slab: &[f64],
    geom: &rflash_mesh::unk::UnkGeom,
    interior: std::ops::Range<usize>,
    interior_k: std::ops::Range<usize>,
    cfg: &GuardianConfig,
) -> Option<String> {
    let floors = [
        (vars::DENS, cfg.dens_min),
        (vars::PRES, cfg.pres_min),
        (vars::ENER, cfg.ener_min),
    ];
    let at = |i: usize, j: usize, k: usize| {
        format!(
            "block L{}({},{},{}) zone ({i}, {j}, {k})",
            key.level, key.ix, key.iy, key.iz
        )
    };
    for k in interior_k {
        for j in interior.clone() {
            for i in interior.clone() {
                for v in 0..geom.nvar {
                    let x = slab[geom.slab_idx(v, i, j, k)];
                    if !x.is_finite() {
                        return Some(format!(
                            "{}: {} = {x:e} is not finite",
                            at(i, j, k),
                            vars::VAR_NAMES[v],
                        ));
                    }
                }
                for (v, floor) in floors {
                    let x = slab[geom.slab_idx(v, i, j, k)];
                    if x <= floor {
                        return Some(format!(
                            "{}: {} = {x:e} <= floor {floor:e}",
                            at(i, j, k),
                            vars::VAR_NAMES[v],
                        ));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::Policy;
    use rflash_mesh::tree::MeshConfig;

    fn healthy_domain() -> Domain {
        let mut d = Domain::new(MeshConfig::test_2d(), Policy::None);
        for id in d.tree.leaves() {
            for j in 0..d.unk.padded().1 {
                for i in 0..d.unk.padded().0 {
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), 1.0);
                    d.unk.set(vars::PRES, i, j, 0, id.idx(), 0.6);
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), 1.5);
                    d.unk.set(vars::GAMC, i, j, 0, id.idx(), 1.4);
                    d.unk.set(vars::GAME, i, j, 0, id.idx(), 1.4);
                }
            }
        }
        d
    }

    #[test]
    fn healthy_state_passes() {
        let mut d = healthy_domain();
        let cfg = GuardianConfig::default();
        for nranks in [1, 3] {
            assert_eq!(validate_domain(&mut d, &cfg, nranks), None);
        }
    }

    #[test]
    fn nan_anywhere_is_reported() {
        let mut d = healthy_domain();
        let id = d.tree.leaves()[0];
        let i = d.unk.interior().start + 2;
        d.unk.set(vars::VELY, i, i, 0, id.idx(), f64::NAN);
        let v = validate_domain(&mut d, &GuardianConfig::default(), 2).unwrap();
        assert!(v.contains("vely") && v.contains("not finite"), "{v}");
    }

    #[test]
    fn floor_violations_are_reported_with_detail() {
        let mut d = healthy_domain();
        let id = d.tree.leaves()[0];
        let i = d.unk.interior().start;
        d.unk.set(vars::DENS, i, i, 0, id.idx(), -2.0);
        let v = validate_domain(&mut d, &GuardianConfig::default(), 1).unwrap();
        assert!(v.contains("dens") && v.contains("floor"), "{v}");
        // Raising the pressure floor above the healthy value trips it too.
        d.unk.set(vars::DENS, i, i, 0, id.idx(), 1.0);
        let cfg = GuardianConfig {
            pres_min: 1.0,
            ..GuardianConfig::default()
        };
        let v = validate_domain(&mut d, &cfg, 1).unwrap();
        assert!(v.contains("pres"), "{v}");
    }

    #[test]
    fn guard_cells_are_not_scanned() {
        let mut d = healthy_domain();
        let id = d.tree.leaves()[0];
        // Corner guard cell: outside the interior in both i and j.
        d.unk.set(vars::DENS, 0, 0, 0, id.idx(), f64::NAN);
        assert_eq!(validate_domain(&mut d, &GuardianConfig::default(), 2), None);
    }

    #[test]
    fn first_violation_is_deterministic_across_nranks() {
        let mut d = healthy_domain();
        let root = d.tree.leaves()[0];
        d.tree.refine_block(root, &mut d.unk); // healthy values prolong
        let leaves = d.tree.leaves();
        assert!(leaves.len() >= 4);
        let i = d.unk.interior().start;
        // Two violations on different blocks: Morton order decides.
        d.unk
            .set(vars::DENS, i, i, 0, leaves[leaves.len() - 1].idx(), -5.0);
        d.unk.set(vars::PRES, i + 1, i, 0, leaves[0].idx(), f64::NAN);
        let cfg = GuardianConfig::default();
        let serial = validate_domain(&mut d, &cfg, 1).unwrap();
        for nranks in [2, 4, 7] {
            assert_eq!(validate_domain(&mut d, &cfg, nranks).unwrap(), serial);
        }
        assert!(serial.contains("pres"), "first Morton leaf wins: {serial}");
    }

    #[test]
    fn step_error_display_mentions_checkpoint_path() {
        let e = StepError::Unphysical {
            step: 12,
            attempts: 3,
            detail: "block 0: dens = -1e0 at (4, 4, 0) <= floor 0e0".into(),
            emergency_checkpoint: Some(PathBuf::from("/tmp/em_000012.ckpt")),
        };
        let s = e.to_string();
        assert!(s.contains("step 12") && s.contains("em_000012.ckpt"), "{s}");
        let e = StepError::BadDt {
            step: 0,
            dt: f64::NAN,
            attempts: 1,
            emergency_checkpoint: None,
        };
        assert!(e.to_string().contains("unusable time step"), "{}", e);
    }

    #[test]
    fn config_serde_defaults_apply_to_old_params() {
        // A pre-guardian JSON blob (no `guardian` key) must deserialize.
        let g: GuardianConfig = serde_json::from_str(
            r#"{"enabled": false, "max_retries": 7,
                "dens_min": 0.0, "pres_min": 0.0, "ener_min": 0.0}"#,
        )
        .unwrap();
        assert!(!g.enabled);
        assert_eq!(g.max_retries, 7);
        let d = GuardianConfig::default();
        assert!(d.enabled);
        assert_eq!(d.max_retries, 2);

        // Parameters as an earlier build wrote them, into checkpoints too:
        // the retired engine-degrade key and the one-variant `sweep_engine`
        // still load. The derive's wire form of an enum value is its
        // variant name.
        let old = |engine: &str| {
            format!(
                r#"{{"mesh":{{"ndim":2,"nxb":8,"nguard":4,"nvar":11,"max_blocks":512,
                "nroot":[1,1,1],"domain_lo":[0.0,0.0,0.0],"domain_hi":[1.0,1.0,1.0],
                "min_refine":0,"max_refine":4,"bc":"Outflow",
                "bc_faces":[[null,null],[null,null],[null,null]],"geometry":"Cartesian",
                "layout":"VarFirst"}},"policy":"None","cfl":0.3,"dens_floor":1e-30,
                "eint_floor":1e-30,"nranks":1,"regrid_every":4,"gravity_every":2,
                "pattern_every":4,"gather_every":4,"tlb_sample_every":1,"use_hw":true,
                "checkpoint_every":0,"sweep_engine":"{engine}","simd_backend":"Native",
                "guardian":{{"enabled":true,"max_retries":2,"degrade_engine":true,
                "dens_min":0.0,"pres_min":0.0,"ener_min":0.0}},
                "step_scheduler":"TaskGraph","adversary_seed":null}}"#
            )
        };
        let p: crate::RuntimeParams = serde_json::from_str(&old("Pencil")).unwrap();
        assert_eq!(p.sweep_engine, rflash_hydro::SweepEngine::Pencil);
        assert!(p.guardian.enabled);
        assert_eq!(p.guardian.max_retries, 2);
        // The retired scalar engine is a typed error that names the value.
        for engine in ["Scalar", "scalar"] {
            let e = serde_json::from_str::<crate::RuntimeParams>(&old(engine)).unwrap_err();
            assert!(e.to_string().contains(&format!("`{engine}`")), "{e}");
        }
    }
}
