//! The traced replay must reproduce `Simulation::evolve` bit for bit: it
//! is only a view of the same step if its digest is the same.

use perfbench::trace::{names, Replay};
use perfbench::workload::bench_params;
use rflash::core::registry::{self, StateDigest};

/// Evolve `scenario` at smoke scale for `steps` both ways and compare.
/// Returns the replay for span checks.
fn replay_matches_evolve(scenario: &str, steps: u64) -> Replay {
    // Keep this build's Helmholtz table cache out of the shared temporary
    // directory, where other builds read theirs. Every test sets the
    // same value.
    std::env::set_var("TMPDIR", env!("CARGO_TARGET_TMPDIR"));
    let spec = registry::load(scenario).unwrap().at_smoke_scale();
    let mut evolved = spec.build(bench_params(&spec)).unwrap();
    evolved.evolve(steps);

    let mut replayed = spec.build(bench_params(&spec)).unwrap();
    let mut replay = Replay::new(&replayed);
    for _ in 0..steps {
        replay.step(&mut replayed).unwrap();
    }
    assert_eq!(
        StateDigest::of(&replayed),
        StateDigest::of(&evolved),
        "{scenario}: replay drifted from evolve"
    );
    assert_eq!(replay.tracer.layer(names::STEP).calls, steps);
    // Steps 0..5 commit a regrid at step 4 (regrid_every = 4).
    assert_eq!(replay.tracer.layer(names::REGRID).calls, 1);
    replay
}

#[test]
fn replay_reproduces_sedov_across_a_regrid() {
    let replay = replay_matches_evolve("sedov", 5);
    let t = &replay.tracer;
    // 3 directions per step, plus the regrid's fill.
    assert_eq!(t.layer(names::GUARDCELL).calls, 5 * 3 + 1);
    assert_eq!(t.layer(names::FLAME).calls, 0);
}

#[test]
fn replay_reproduces_supernova_across_a_regrid() {
    let replay = replay_matches_evolve("supernova", 5);
    let t = &replay.tracer;
    assert_eq!(t.layer(names::FLAME).calls, 5);
    assert_eq!(t.layer(names::GRAVITY).calls, 5);
    // 2 directions + the flame's fill per step, plus the regrid's fill.
    assert_eq!(t.layer(names::GUARDCELL).calls, 5 * 3 + 1);
}

#[test]
fn self_times_partition_the_step_wall() {
    let replay = replay_matches_evolve("sedov", 5);
    let t = &replay.tracer;
    let wall: f64 = t
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.seconds())
        .sum();
    let selfs: f64 = t.self_seconds().iter().sum();
    assert!((wall - selfs).abs() <= 1e-9 * t.spans.len() as f64);
    assert!(t.self_seconds().iter().all(|&s| s >= 0.0));
}
