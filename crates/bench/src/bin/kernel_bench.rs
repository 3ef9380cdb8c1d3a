//! Auto vs. explicit-SIMD sweep matrix, plus the batched Helmholtz
//! inversion per lane backend → appends one record to `BENCH_kernels.json`.
//!
//! Two tiers, bit-identical (proven by the hydro parity tests):
//!
//! * **auto** — the baseline: the pencil SoA engine on the 1-wide portable
//!   lane (`Resolved::Scalar`): gather-once lanes, but vectorization is
//!   left entirely to the compiler.
//! * **explicit** — the same pencil engine on each wider backend
//!   (`v2`/`v4` portable, `sse2`/`avx2` intrinsics where the CPU has
//!   them): the explicit lane kernels this crate exists to measure.
//!
//! The workload is the paper's hydro-dominated case — a seeded 3-d Sedov
//! grid — swept in all three directions with the EOS folded into the sweep
//! (`SweepEos::Batch`), exactly the traffic Table II instruments. Records
//! written before the auto tier became the baseline also carry
//! `ns_per_zone_scalar` and `speedup` from the retired per-zone engine. A
//! separate micro-benchmark runs the batched Helmholtz `DensEi` inversion
//! (masked re-iteration Newton) once per backend and reports ns/lane plus
//! the vectorized-lane fraction (`batch_occupancy`; plateau-accepted lanes
//! are excluded from it).
//!
//! Usage: `kernel_bench [--smoke | --paper] [--enforce-explicit]`.
//! `--smoke` shrinks the grid and round count for CI. `--enforce-explicit`
//! exits non-zero when the best explicit backend is more than 10% slower
//! than the auto tier — the regression gate for the explicit kernels
//! (an uninlined `#[target_feature]` boundary shows up as a 3x+ cliff,
//! far outside the tolerance), while 5–10% scheduling noise on a loaded
//! CI box cannot fail the build.

use std::time::Instant;

use rflash_bench::RunScale;
use rflash_core::setups::sedov::SedovSetup;
use rflash_core::{RuntimeParams, Simulation};
use rflash_eos::{Eos, EosBatch, EosMode, Helmholtz, TableConfig};
use rflash_hugepages::Policy;
use rflash_hydro::{compute_dt_parallel, sweep_direction, SweepConfig, SweepEos, NFLUX};
use rflash_mesh::flux::FluxRegister;
use rflash_simd::Resolved;
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct KernelRecord {
    git_rev: String,
    host: String,
    smoke: bool,
    rounds: u64,
    zones_per_round: u64,
    /// What `Backend::Native` resolved to on this host.
    simd_resolved: String,
    /// Pencil SoA engine, 1-wide lanes (compiler autovectorization only):
    /// the baseline tier.
    ns_per_zone_auto: f64,
    /// Pencil SoA engine on the native explicit backend (field name kept
    /// from the pre-matrix records so the history stays comparable).
    ns_per_zone_batched: f64,
    /// Pencil engine ns/zone per explicit backend (v2/v4/sse2/avx2).
    explicit_ns_per_zone: Vec<(String, f64)>,
    /// Fastest explicit backend in `explicit_ns_per_zone`.
    best_explicit: String,
    /// auto / best-explicit per-zone time (>1: explicit SIMD beats
    /// autovectorization) — the `--enforce-explicit` gate.
    explicit_vs_auto: f64,
    /// Vectorized-lane fraction of the batched Helmholtz DensEi inversion
    /// (plateau-accepted lanes excluded).
    batch_occupancy: f64,
    /// Batched Helmholtz DensEi inversion ns/lane per backend.
    helmholtz_ns_per_lane: Vec<(String, f64)>,
}

fn sedov_sim(scale: &RunScale) -> Simulation {
    let setup = SedovSetup {
        ndim: 3,
        nxb: 8,
        max_refine: scale.max_refine,
        max_blocks: scale.max_blocks,
        ..SedovSetup::default()
    };
    setup.build(RuntimeParams {
        policy: Policy::None,
        pattern_every: 0,
        gather_every: 0,
        ..RuntimeParams::with_mesh(setup.mesh_config())
    })
}

/// Time `rounds` full (x, y, z) sweep triples with the sweep-integrated
/// EOS on one lane backend. Returns (ns per zone, zones per round). A
/// fresh deterministic Sedov grid per backend plus bit-identical backends
/// means every timing walks exactly the same states and dt sequence.
fn time_backend(scale: &RunScale, simd: Resolved, rounds: u64) -> (f64, u64) {
    let mut sim = sedov_sim(scale);
    let ndim = sim.domain.tree.config().ndim;
    let cfg = SweepConfig {
        simd,
        pattern_every: 0,
        ..SweepConfig::default()
    };
    let mut reg = FluxRegister::new(
        ndim,
        sim.domain.tree.config().nxb,
        NFLUX,
        sim.domain.tree.config().max_blocks,
    );
    let sweep_eos = SweepEos::Batch {
        eos: sim.eos.as_dyn(),
        abar: sim.comp.abar,
        zbar: sim.comp.zbar,
    };

    let mut run_round = |domain: &mut rflash_mesh::Domain| -> u64 {
        let dt = compute_dt_parallel(domain, 0.3, 1);
        let mut zones = 0;
        for dir in 0..ndim {
            for probe in sweep_direction(domain, &sweep_eos, dir, dt, &mut reg, &cfg) {
                zones += probe.stats.zones;
            }
        }
        zones
    };

    // Warm-up: first epoch builds the pencil scratch arenas and faults in
    // every page of unk; steady state is what the record should show.
    run_round(&mut sim.domain);

    let t0 = Instant::now();
    let mut zones = 0u64;
    for _ in 0..rounds {
        zones += run_round(&mut sim.domain);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (ns / zones.max(1) as f64, zones / rounds.max(1))
}

/// Batched Helmholtz DensEi inversion over a seeded (ρ, T) grid spanning
/// the table, once per lane backend. Returns (ns/lane per backend,
/// vectorized-lane fraction).
fn helmholtz_bench(lanes: usize, rounds: u32) -> (Vec<(String, f64)>, f64) {
    let mut h =
        Helmholtz::build(TableConfig::coarse(), Policy::None).expect("coarse Helmholtz table");
    let abar = vec![13.714285714285715; lanes];
    let zbar = vec![6.857142857142857; lanes];
    let mut dens = vec![0.0; lanes];
    let mut temp = vec![0.0; lanes];
    for i in 0..lanes {
        let f = i as f64 / lanes as f64;
        dens[i] = 10f64.powf(-1.0 + 8.0 * f); // 1e-1 .. 1e7 g/cc
        temp[i] = 10f64.powf(6.0 + 3.0 * ((7 * i + 3) % lanes) as f64 / lanes as f64);
    }
    let mut eint = vec![0.0; lanes];
    let mut pres = vec![0.0; lanes];
    let mut gamc = vec![0.0; lanes];
    let mut game = vec![0.0; lanes];
    // Forward pass at the seeded temperatures fixes consistent energies...
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
    h.eos_batch(EosMode::DensTemp, &mut fwd)
        .expect("forward DensTemp pass");
    // ...then every inversion starts from the same deliberately poor guess
    // so the Newton lanes do real work before converging.
    let guess: Vec<f64> = temp.iter().map(|t| t * 3.0).collect();

    let mut per_backend = Vec::new();
    let mut occupancy = 0.0;
    for &b in Resolved::all() {
        h.set_simd(b);
        let mut last_ns = 0.0;
        // One warm-up iteration, then the timed rounds.
        for round in 0..=rounds {
            temp.copy_from_slice(&guess);
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
            let t0 = Instant::now();
            let report = h
                .eos_batch(EosMode::DensEi, &mut inv)
                .expect("batched DensEi inversion");
            if round > 0 {
                last_ns += t0.elapsed().as_nanos() as f64;
            }
            occupancy = report.vector_lanes as f64 / report.lanes.max(1) as f64;
        }
        per_backend.push((
            b.name().to_string(),
            last_ns / (lanes as f64 * f64::from(rounds.max(1))),
        ));
    }
    (per_backend, occupancy)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce-explicit");
    let scale = RunScale::from_args(&args);
    let rounds = if scale.steps == 0 { 10 } else { scale.steps };
    let native = rflash_simd::resolve(rflash_simd::Backend::Native);

    let (ns_auto, zones_per_round) = time_backend(&scale, Resolved::Scalar, rounds);
    let mut explicit: Vec<(String, f64)> = Vec::new();
    for &b in Resolved::all() {
        if b == Resolved::Scalar {
            continue; // that's the auto tier
        }
        let (ns, _) = time_backend(&scale, b, rounds);
        explicit.push((b.name().to_string(), ns));
    }
    let ns_native = explicit
        .iter()
        .find(|(n, _)| n == native.name())
        .map(|&(_, ns)| ns)
        .unwrap_or(ns_auto);
    let (best_name, best_ns) = explicit
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(n, ns)| (n.clone(), *ns))
        .unwrap_or_else(|| ("auto".to_string(), ns_auto));
    let (helm_ns, occupancy) = helmholtz_bench(
        if smoke { 512 } else { 4096 },
        if smoke { 4 } else { 16 },
    );

    let rec = KernelRecord {
        git_rev: git_rev(),
        host: hostname(),
        smoke,
        rounds,
        zones_per_round,
        simd_resolved: native.name().to_string(),
        ns_per_zone_auto: ns_auto,
        ns_per_zone_batched: ns_native,
        explicit_ns_per_zone: explicit.clone(),
        best_explicit: best_name.clone(),
        explicit_vs_auto: ns_auto / best_ns.max(1e-12),
        batch_occupancy: occupancy,
        helmholtz_ns_per_lane: helm_ns.clone(),
    };
    println!("sedov_3d sweep+eos (native = {}):", rec.simd_resolved);
    println!("  pencil auto     {:>9.1} ns/zone", rec.ns_per_zone_auto);
    for (name, ns) in &explicit {
        println!(
            "  pencil {name:<8} {:>9.1} ns/zone  ({:.2}x vs auto)",
            ns,
            rec.ns_per_zone_auto / ns.max(1e-12)
        );
    }
    println!(
        "  -> best explicit: {} ({:.2}x vs auto); helmholtz occupancy {:.3}",
        best_name, rec.explicit_vs_auto, rec.batch_occupancy
    );
    for (name, ns) in &helm_ns {
        println!("  helmholtz DensEi {name:<8} {ns:>7.1} ns/lane");
    }

    // Append to the history file so regressions are visible across revs.
    let path = "BENCH_kernels.json";
    let mut records: Vec<serde_json::Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    records.push(serde_json::to_value(&rec).expect("serialize kernel record"));
    let json = serde_json::to_string_pretty(&records).expect("serialize kernel records");
    std::fs::write(path, json).expect("write BENCH_kernels.json");
    println!("-> {path} ({} records)", records.len());

    if enforce && rec.explicit_vs_auto < 0.9 {
        eprintln!(
            "FAIL: best explicit backend {} ({best_ns:.1} ns/zone) is >10% slower than \
             the auto tier ({:.1} ns/zone)",
            best_name, rec.ns_per_zone_auto
        );
        std::process::exit(1);
    }
}
