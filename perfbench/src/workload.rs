//! The benchmark's workloads and the inputs each one gets from a seed.

use rflash::core::registry::{self, IcPrimitive, SetupSpec};
use rflash::core::{RuntimeParams, StepScheduler};
use rflash::hydro::SweepEngine;

/// In-process rank count, and the fleet's worker count: one per core of
/// the 2-core host the baseline was recorded on.
pub const NRANKS: usize = 2;

/// Fleet series-checkpoint cadence.
pub const FLEET_CHECKPOINT_EVERY: u64 = 2;

/// The named workloads. Names are fixed: later changes cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Registry `sedov` at spec scale: the paper's 3-d Hydro test.
    Sedov3d,
    /// Registry `supernova` at spec scale: the paper's 2-d EOS test.
    Supernova2d,
    /// `run_fleet` on smoke-scale `sedov` with 2 workers.
    SedovFleet2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Sedov3d,
        Workload::Supernova2d,
        Workload::SedovFleet2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sedov3d => "sedov3d",
            Workload::Supernova2d => "supernova2d",
            Workload::SedovFleet2 => "sedov_fleet2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry scenario the workload runs.
    pub fn scenario(self) -> &'static str {
        match self {
            Workload::Sedov3d | Workload::SedovFleet2 => "sedov",
            Workload::Supernova2d => "supernova",
        }
    }

    /// Steps of one episode: a fresh build evolved this far, ending on a
    /// regrid step so the final digest covers one.
    pub fn steps(self) -> u64 {
        match self {
            // 120 → ~290 leaves, 15 regrids.
            Workload::Sedov3d => 60,
            // ~20 steps/s: a few hundred steps per episode.
            Workload::Supernova2d => 240,
            Workload::SedovFleet2 => 6,
        }
    }

    /// Episodes a timed in-process run makes, at least (the fleet's
    /// floor is its run count instead). Two 60-step Sedov episodes give
    /// 120 step samples, so the tail is p90: one would put p75 on the edge
    /// between its regrid steps (every fourth) and the rest. Two 240-step
    /// supernova episodes put 24 samples beyond its p95 tail instead of
    /// 12, and make the run (about 20 s on the 2-core baseline host)
    /// average over more of a shared host's few-second speed swings.
    pub fn min_episodes(self) -> usize {
        match self {
            Workload::Sedov3d | Workload::Supernova2d => 2,
            Workload::SedovFleet2 => 1,
        }
    }

    /// The fleet builds its scenario by name inside each worker, so it
    /// cannot take a seed.
    pub fn takes_seed(self) -> bool {
        self != Workload::SedovFleet2
    }

    /// How the workload's problem is scaled, for the run header.
    pub fn scale(self) -> &'static str {
        match self {
            Workload::Sedov3d => "spec scale: 3-d, nxb 8, max_refine 3, gamma-law",
            Workload::Supernova2d => {
                "spec scale: 2-d, nxb 16, max_refine 3, full Helmholtz table, flame, monopole gravity"
            }
            Workload::SedovFleet2 => "smoke scale (as the fleet builds it): 3-d, max_refine 2",
        }
    }
}

/// Largest `sedov3d` deposit shift per axis, in finest cells. Enough to
/// change every zone's bits; small enough that the refined mesh, and so
/// the work per step, stays that of seed 0. Half a cell per axis moves the
/// 60-step leaf count from 288 to as few as 211, and with it the timings.
pub const DEPOSIT_SHIFT_CELLS: f64 = 0.05;

/// SplitMix64: a tiny, well-mixed generator, so inputs follow from the
/// seed alone.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The spec a workload runs for `seed`. Seed 0 is the committed spec
/// verbatim. Otherwise `sedov3d` moves the deposit centre by under
/// [`DEPOSIT_SHIFT_CELLS`] of a finest cell per axis, and `supernova2d`
/// scales the ignition radius within ±5 %. The fleet ignores the seed.
pub fn spec_for(workload: Workload, seed: u64) -> Result<SetupSpec, String> {
    let mut spec = registry::load(workload.scenario()).map_err(|e| e.to_string())?;
    if workload == Workload::SedovFleet2 {
        return Ok(spec.at_smoke_scale());
    }
    if seed == 0 {
        return Ok(spec);
    }
    let mut rng = SplitMix64(seed);
    let m = &spec.mesh;
    let dx_min = (m.domain_hi[0] - m.domain_lo[0])
        / ((m.nroot[0] * m.nxb) as f64 * (1u64 << m.max_refine) as f64);
    let ndim = m.ndim;
    let mut touched = false;
    for prim in &mut spec.initial {
        match (workload, prim) {
            (Workload::Sedov3d, IcPrimitive::Deposit { center, .. }) => {
                for c in center.iter_mut().take(ndim) {
                    *c += (2.0 * rng.unit() - 1.0) * DEPOSIT_SHIFT_CELLS * dx_min;
                }
                touched = true;
            }
            (Workload::Supernova2d, IcPrimitive::Ignite { radius, .. }) => {
                *radius *= 1.0 + 0.05 * (2.0 * rng.unit() - 1.0);
                touched = true;
            }
            _ => {}
        }
    }
    if !touched {
        return Err(format!(
            "spec `{}` has no primitive for the seed to vary",
            spec.name
        ));
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Runtime parameters exactly as `rflash run-setup --full` sets them:
/// pencil engine, task graph, native SIMD, guardian on, no huge-page
/// policy, counters and pattern recording off.
pub fn bench_params(spec: &SetupSpec) -> RuntimeParams {
    registry::smoke_params(spec, NRANKS, SweepEngine::Pencil, StepScheduler::TaskGraph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_committed_spec() {
        for w in [Workload::Sedov3d, Workload::Supernova2d] {
            let committed = registry::load(w.scenario()).unwrap();
            assert_eq!(spec_for(w, 0).unwrap(), committed, "{}", w.name());
        }
    }

    #[test]
    fn other_seeds_vary_only_the_named_input_within_range() {
        let base = registry::load("sedov").unwrap();
        let dx_min = 1.0 / 64.0;
        for seed in 1..20 {
            let spec = spec_for(Workload::Sedov3d, seed).unwrap();
            let (IcPrimitive::Deposit { center: c, .. }, IcPrimitive::Deposit { center: c0, .. }) =
                (&spec.initial[1], &base.initial[1])
            else {
                panic!("sedov's second primitive is the deposit");
            };
            let shift: Vec<f64> = (0..3).map(|d| (c[d] - c0[d]).abs() / dx_min).collect();
            assert!(
                shift.iter().all(|&s| s < DEPOSIT_SHIFT_CELLS) && shift.iter().any(|&s| s > 0.0),
                "seed {seed}: shift {shift:?} cells"
            );
            assert_eq!(spec.mesh, base.mesh);
        }
        let base = registry::load("supernova").unwrap();
        for seed in 1..20 {
            let spec = spec_for(Workload::Supernova2d, seed).unwrap();
            let (IcPrimitive::Ignite { radius: r, .. }, IcPrimitive::Ignite { radius: r0, .. }) =
                (&spec.initial[1], &base.initial[1])
            else {
                panic!("supernova's second primitive is the ignition");
            };
            assert!(
                r != r0 && (r / r0 - 1.0).abs() <= 0.05,
                "seed {seed}: {r} vs {r0}"
            );
        }
        assert_eq!(
            spec_for(Workload::Sedov3d, 7),
            spec_for(Workload::Sedov3d, 7)
        );
    }
}
