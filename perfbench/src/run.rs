//! The workload runners: correctness gates, the timed (untraced) runs
//! that give the end-to-end metrics, and the traced runs that give the
//! per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rflash::core::registry::{self, load_golden, StateDigest};
use rflash::core::{
    read_checkpoint, run_fleet, verify_checkpoint, CheckpointSeries, FleetConfig, FleetReport,
    Simulation, StepScheduler,
};
use rflash::hydro::SweepEngine;
use rflash::perfmon::{idle_fraction, imbalance};
use serde_json::Value;

use crate::header::run_header;
use crate::stats::{median, tail};
use crate::trace::{names, Replay, Tracer};
use crate::workload::{bench_params, spec_for, Workload, FLEET_CHECKPOINT_EVERY, NRANKS};

/// Timed set-ups per run: at least `SETUP_REPS`, and more (up to
/// `SETUP_MAX_REPS`) while they add up to under `SETUP_MIN_S`, so cheap
/// set-ups get more samples. The median absorbs the one cold build that
/// fills the Helmholtz table cache on a checkout's first run.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 9;
const SETUP_MIN_S: f64 = 2.0;

fn more_setups(setups: &[f64]) -> bool {
    setups.len() < SETUP_REPS
        || (setups.len() < SETUP_MAX_REPS && setups.iter().sum::<f64>() < SETUP_MIN_S)
}

/// Fleet set-ups are timed as a one-step `run_fleet`: it refuses zero
/// steps.
const FLEET_SETUP_STEPS: u64 = 1;

/// Fleet runs per invocation, at least: the figures are medians over runs.
const FLEET_MIN_RUNS: usize = 3;

/// Seed-0 final digests, one per workload.
const REFERENCE: &str = include_str!("../reference.json");

/// A run that did not produce trustworthy numbers, with the gate (or
/// stage) that stopped it.
#[derive(Debug)]
pub struct Failed {
    pub gate: &'static str,
    pub detail: String,
}

fn fail(gate: &'static str, detail: impl std::fmt::Display) -> Failed {
    Failed {
        gate,
        detail: detail.to_string(),
    }
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one invocation measured.
pub struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    /// Directory for traces, checkpoints and scratch files.
    out_dir: PathBuf,
    pub header: Option<Value>,
    /// Labels and evidence printed beside the metrics.
    pub detail: Vec<(String, Value)>,
    pub metrics: Vec<Metric>,
    /// Step attempts, and those that did not commit.
    pub attempted: u64,
    pub failed: u64,
    started: Instant,
}

/// One episode: a fresh build evolved for the workload's steps.
struct Episode {
    step_s: Vec<f64>,
    /// Σ over steps of the leaf interior zones the step advanced.
    zones: u64,
    digest: StateDigest,
}

impl Episode {
    fn wall(&self) -> f64 {
        self.step_s.iter().sum()
    }
}

struct Setup {
    sim: Simulation,
    /// Spec to ready simulation: parse, build, initial refine and EOS.
    setup_s: f64,
    /// `SetupSpec::build` alone.
    build_s: f64,
}

/// Checkpoint timings of one write/read pair.
struct CkptIo {
    write_s: f64,
    read_s: f64,
    bytes: u64,
}

impl Run {
    pub fn new(workload: Workload, seed: u64, seconds: f64, out_dir: PathBuf) -> Run {
        Run {
            workload,
            seed,
            seconds,
            out_dir,
            header: None,
            detail: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            started: Instant::now(),
        }
    }

    /// Record a label or piece of evidence; also logged to stderr with the
    /// time since the run started, as progress.
    fn note(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        eprintln!(
            "[perfbench {:7.2} s] {key}: {}",
            self.started.elapsed().as_secs_f64(),
            serde_json::to_string(&value).expect("note JSON")
        );
        self.detail.push((key, value));
    }

    /// Execute the workload; traced runs give per-layer metrics.
    pub fn execute(&mut self, traced: bool) -> Result<(), Failed> {
        std::fs::create_dir_all(&self.out_dir).map_err(|e| fail("io", e))?;
        let golden = gate_golden(self.workload.scenario())?;
        self.note("gate.golden", s(golden));
        match (self.workload, traced) {
            (Workload::SedovFleet2, false) => self.fleet_timed(),
            (Workload::SedovFleet2, true) => self.fleet_traced(),
            (_, false) => self.in_process_timed(),
            (_, true) => self.in_process_traced(),
        }
    }

    /// Spec to ready simulation. The first build of a run also records
    /// the run header, with the verified `unk` backing.
    fn setup(&mut self) -> Result<Setup, Failed> {
        let t0 = Instant::now();
        let spec = spec_for(self.workload, self.seed).map_err(|e| fail("spec", e))?;
        let params = bench_params(&spec);
        let t1 = Instant::now();
        let sim = spec.build(params).map_err(|e| fail("build", e))?;
        let (setup_s, build_s) = (t0.elapsed().as_secs_f64(), t1.elapsed().as_secs_f64());
        if self.header.is_none() {
            let report = sim.domain.unk.backing_report();
            self.header = Some(run_header(self.workload, self.seed, &sim.params, &report));
        }
        Ok(Setup {
            sim,
            setup_s,
            build_s,
        })
    }

    /// Step `sim` for `steps`, timing each `try_step`.
    fn episode(&mut self, sim: &mut Simulation, steps: u64) -> Result<Episode, Failed> {
        let mut step_s = Vec::with_capacity(steps as usize);
        let mut zones = 0u64;
        for _ in 0..steps {
            zones += sim.domain.total_zones() as u64;
            let retries = sim.guardian_stats.retries;
            let t0 = Instant::now();
            let result = sim.try_step();
            step_s.push(t0.elapsed().as_secs_f64());
            let retried = sim.guardian_stats.retries - retries;
            self.attempted += 1 + retried;
            self.failed += retried + u64::from(result.is_err());
            result.map_err(|e| fail("step", e))?;
        }
        Ok(Episode {
            step_s,
            zones,
            digest: StateDigest::of(sim),
        })
    }

    /// Seed-0 runs must end on the committed reference digest.
    fn check_reference(&mut self, digest: &StateDigest) -> Result<(), Failed> {
        let name = self.workload.name();
        self.note("digest", s(digest.to_string()));
        if self.workload.takes_seed() && self.seed != 0 {
            return Ok(());
        }
        let want = match reference()?.get(name) {
            Some(Value::Str(d)) => d.clone(),
            _ => return Err(fail("reference", format!("no reference digest for {name}"))),
        };
        if digest.to_string() != want {
            return Err(fail(
                "reference",
                format!("{name} seed 0 ended on {digest}, reference {want}"),
            ));
        }
        self.note(
            "gate.reference",
            s("digest matched perfbench/reference.json"),
        );
        Ok(())
    }

    fn in_process_timed(&mut self) -> Result<(), Failed> {
        let steps = self.workload.steps();
        let mut setups = Vec::new();
        let mut sim = None;
        while more_setups(&setups) {
            // Drop the previous build first so it never shares the peak.
            drop(sim.take());
            let s = self.setup()?;
            setups.push(s.setup_s);
            sim = Some(s.sim);
        }
        let mut episodes: Vec<Episode> = Vec::new();
        let mut wall = 0.0;
        loop {
            let mut current = sim.take().expect("a built simulation");
            let ep = self.episode(&mut current, steps)?;
            drop(current);
            if let Some(first) = episodes.first() {
                if first.digest != ep.digest {
                    return Err(fail(
                        "determinism",
                        format!("episodes ended on {} and {}", first.digest, ep.digest),
                    ));
                }
            } else {
                self.check_reference(&ep.digest)?;
            }
            wall += ep.wall();
            episodes.push(ep);
            if wall >= self.seconds && episodes.len() >= self.workload.min_episodes() {
                break;
            }
            let s = self.setup()?;
            setups.push(s.setup_s);
            sim = Some(s.sim);
        }
        let step_s: Vec<f64> = episodes
            .iter()
            .flat_map(|e| e.step_s.iter().copied())
            .collect();
        let zones: u64 = episodes.iter().map(|e| e.zones).sum();
        self.end_to_end(
            step_s.len() as f64 / wall,
            wall / zones as f64 * 1e9,
            &step_s,
            &setups,
            peak_rss_mb(),
        );
        self.note("steps_per_episode", Value::U64(steps));
        self.note(
            "episode_steps_per_s",
            Value::Array(
                episodes
                    .iter()
                    .map(|e| Value::F64(steps as f64 / e.wall()))
                    .collect(),
            ),
        );
        Ok(())
    }

    /// The end-to-end metrics, from step wall times (or per-run mean step
    /// times for the fleet), set-up times and peak RSS.
    fn end_to_end(
        &mut self,
        steps_per_s: f64,
        ns_per_zone_step: f64,
        step_s: &[f64],
        setups: &[f64],
        peak_rss_mb: f64,
    ) {
        let t = tail(step_s);
        self.note(
            "step_ms_tail",
            Value::Object(vec![
                ("percentile".into(), Value::F64(t.percentile)),
                ("samples".into(), Value::U64(t.samples as u64)),
                ("beyond".into(), Value::U64(t.beyond as u64)),
            ]),
        );
        self.note("setup_samples", Value::U64(setups.len() as u64));
        self.metrics = vec![
            ("steps_per_s", steps_per_s, "1/s"),
            ("ns_per_zone_step", ns_per_zone_step, "ns"),
            ("step_ms_p50", median(step_s) * 1e3, "ms"),
            ("step_ms_tail", t.value * 1e3, "ms"),
            ("setup_s", median(setups), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ];
    }

    fn in_process_traced(&mut self) -> Result<(), Failed> {
        let steps = self.workload.steps();

        let mut untraced = self.setup()?;
        let mut builds = vec![untraced.build_s];
        let ep = self.episode(&mut untraced.sim, steps)?;
        self.check_reference(&ep.digest)?;
        let timed = TimedLayers::of(&untraced.sim, &ep);
        drop(untraced);

        let traced = self.setup()?;
        builds.push(traced.build_s);
        let layers = self.replay(traced.sim, &ep.digest, timed, &builds, None)?;
        self.metrics = layers;
        Ok(())
    }

    /// Replay `sim` for the workload's steps under spans, check the digest
    /// against `want`, round-trip a checkpoint, run the TLB probe step,
    /// write the trace, and assemble the per-layer metrics.
    fn replay(
        &mut self,
        mut sim: Simulation,
        want: &StateDigest,
        timed: TimedLayers,
        builds: &[f64],
        fleet: Option<FleetLayers>,
    ) -> Result<Vec<Metric>, Failed> {
        let steps = timed.steps;
        let mut replay = Replay::new(&sim);
        for _ in 0..steps {
            self.attempted += 1;
            if let Err(e) = replay.step(&mut sim) {
                self.failed += 1;
                return Err(fail("replay", e));
            }
        }
        let digest = StateDigest::of(&sim);
        if digest != *want {
            return Err(fail(
                "replay",
                format!("traced replay ended on {digest}, untraced run on {want}"),
            ));
        }
        self.note(
            "gate.replay",
            s("traced replay digest equals the untraced run's"),
        );

        let spec = spec_for(self.workload, self.seed).map_err(|e| fail("spec", e))?;
        let ckpt = self.checkpoint_roundtrip(&sim, &spec)?;
        let dtlb_per_kzone = tlb_probe(&mut sim)?;
        let unk_huge = sim.domain.unk.backing_report().huge_fraction;
        let eos_stats = *sim.eos_session.stats_mut();

        let trace_path = self.out_dir.join(format!(
            "trace-{}-seed{}.json",
            self.workload.name(),
            self.seed
        ));
        replay
            .tracer
            .write_chrome_trace(&trace_path)
            .map_err(|e| fail("io", e))?;
        self.note("trace_file", s(trace_path.display().to_string()));

        let t: &Tracer = &replay.tracer;
        let step_wall: f64 = t
            .spans
            .iter()
            .filter(|sp| sp.name == names::STEP)
            .map(|sp| sp.seconds())
            .sum();
        let step_self = t.layer(names::STEP).self_s;
        let guard = t.layer(names::GUARDCELL);
        let sweep = t.layer(names::SWEEP);
        let eos = t.layer(names::EOS);
        let regrid = t.layer(names::REGRID);
        let guardian_s =
            t.layer(names::GUARDIAN_CAPTURE).self_s + t.layer(names::GUARDIAN_VALIDATE).self_s;
        let per_zone = |secs: f64, zones: i64| {
            if zones > 0 {
                secs / zones as f64 * 1e9
            } else {
                0.0
            }
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let traced_sps = steps as f64 / step_wall;
        self.note(
            "trace.gap_frac",
            s("1 - traced/untraced steps_per_s: bundles span overhead with the task graph's overlap (the replay runs the barrier order)"),
        );
        self.note(
            "tlbsim",
            s("simulated DTLB model, one probe step after the replay"),
        );
        let fleet = fleet.unwrap_or_default();
        if self.workload != Workload::SedovFleet2 {
            self.note("fleet.*", s("0: no fleet in this workload"));
        }
        let (read_s, read_bytes) = match fleet.readback {
            Some((secs, bytes)) => (secs, bytes),
            None => (ckpt.read_s, ckpt.bytes),
        };
        let mb = |bytes: u64, secs: f64| ratio(bytes as f64 / 1e6, secs);
        Ok(vec![
            ("mesh.guardcell.s", guard.self_s, "s"),
            (
                "mesh.guardcell.share",
                ratio(guard.self_s, step_wall),
                "share",
            ),
            ("mesh.guardcell.calls", guard.calls as f64, "count"),
            ("mesh.guardcell.bytes_computed", guard.work as f64, "B"),
            ("hydro.sweep.s", sweep.self_s, "s"),
            (
                "hydro.sweep.ns_per_zone",
                per_zone(sweep.self_s, sweep.work),
                "ns",
            ),
            ("hydro.dt.s", t.layer(names::DT).self_s, "s"),
            ("eos.pass.s", eos.self_s, "s"),
            ("eos.pass.ns_per_zone", per_zone(eos.self_s, eos.work), "ns"),
            ("eos.batch_occupancy", eos_stats.batch_occupancy(), "share"),
            (
                "eos.newton_plateau_frac",
                ratio(
                    eos_stats.batch_plateau_lanes as f64,
                    eos_stats.batch_lanes as f64,
                ),
                "share",
            ),
            ("flame.advance.s", t.layer(names::FLAME).self_s, "s"),
            ("gravity.s", t.layer(names::GRAVITY).self_s, "s"),
            ("guardian.s", guardian_s, "s"),
            (
                "guardian.attempts_per_step",
                timed.attempts_per_step,
                "1/step",
            ),
            ("mesh.regrid.s", regrid.self_s, "s"),
            ("mesh.regrid.leaves_delta", regrid.work as f64, "count"),
            ("executor.idle_frac", timed.idle_frac, "share"),
            ("executor.imbalance", timed.imbalance, "ratio"),
            ("stepgraph.steals_per_step", timed.steals_per_step, "1/step"),
            ("stepgraph.overlap_ratio", timed.overlap_ratio, "share"),
            ("checkpoint.write.s", ckpt.write_s, "s"),
            (
                "checkpoint.write.mb_per_s",
                mb(ckpt.bytes, ckpt.write_s),
                "MB/s",
            ),
            ("checkpoint.read.s", read_s, "s"),
            ("checkpoint.read.mb_per_s", mb(read_bytes, read_s), "MB/s"),
            ("checkpoint.bytes", ckpt.bytes as f64, "B"),
            ("fleet.bytes_per_step", fleet.bytes_per_step, "B/step"),
            ("fleet.frames_per_step", fleet.frames_per_step, "1/step"),
            ("fleet.heartbeat_misses", fleet.heartbeat_misses, "count"),
            ("fleet.overhead_x", fleet.overhead_x, "ratio"),
            ("hugepages.unk_huge_frac", unk_huge, "share"),
            ("tlbsim.dtlb_miss_per_kzone", dtlb_per_kzone, "1/kzone"),
            ("registry.build_s", median(builds), "s"),
            ("trace.coverage", 1.0 - ratio(step_self, step_wall), "share"),
            (
                "trace.gap_frac",
                1.0 - traced_sps / timed.steps_per_s,
                "share",
            ),
        ])
    }

    /// Write the live state through a checkpoint series, read it back,
    /// rebuild a simulation from it and require the same digest.
    fn checkpoint_roundtrip(
        &mut self,
        sim: &Simulation,
        spec: &registry::SetupSpec,
    ) -> Result<CkptIo, Failed> {
        let dir = self.out_dir.join(format!("ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| fail("io", e))?;
        let series = CheckpointSeries::new(&dir, self.workload.name());
        let t0 = Instant::now();
        let path = series.write(sim).map_err(|e| fail("checkpoint", e))?;
        let write_s = t0.elapsed().as_secs_f64();
        let bytes = std::fs::metadata(&path).map_err(|e| fail("io", e))?.len();
        verify_checkpoint(&path).map_err(|e| fail("checkpoint", e))?;
        let t0 = Instant::now();
        let restored = read_checkpoint(&path).map_err(|e| fail("checkpoint", e))?;
        let read_s = t0.elapsed().as_secs_f64();
        let rebuilt = restored.into_simulation(spec.make_eos(sim.params.policy), sim.comp);
        let (live, back) = (StateDigest::of(sim), StateDigest::of(&rebuilt));
        let _ = std::fs::remove_dir_all(&dir);
        if live != back {
            return Err(fail(
                "checkpoint",
                format!("rebuilt from checkpoint: {back}, live: {live}"),
            ));
        }
        self.note(
            "gate.checkpoint",
            s("checkpoint round-trip digest equals the live state"),
        );
        Ok(CkptIo {
            write_s,
            read_s,
            bytes,
        })
    }

    fn fleet_config(&self, steps: u64, series_dir: &Path) -> Result<FleetConfig, Failed> {
        let exe = std::env::current_exe().map_err(|e| fail("io", e))?;
        let mut cfg = FleetConfig::new(exe, self.workload.scenario(), steps, series_dir);
        cfg.workers = NRANKS;
        cfg.checkpoint_every = FLEET_CHECKPOINT_EVERY;
        cfg.keep_last = 0;
        Ok(cfg)
    }

    /// One `run_fleet` in a fresh series directory; with `readback`, the
    /// newest series entry is read back (timed) and must rebuild to the
    /// fleet's digest.
    fn fleet_once(&mut self, steps: u64, readback: bool) -> Result<FleetRun, Failed> {
        let dir = self.out_dir.join(format!("fleet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| fail("io", e))?;
        let cfg = self.fleet_config(steps, &dir)?;
        // The supervisor's own peak: reset the high-water mark here and
        // read it before this process does anything else.
        let rss_reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        let t0 = Instant::now();
        let result = run_fleet(cfg);
        let wall = t0.elapsed().as_secs_f64();
        let rss = rss_reset.then(peak_rss_mb);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                self.attempted += steps;
                self.failed += steps;
                return Err(fail("fleet", e));
            }
        };
        self.attempted += steps + report.rollbacks;
        self.failed += report.rollbacks;
        let read = readback.then(|| self.fleet_readback(&report));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(FleetRun {
            wall,
            peak_rss_mb: rss,
            report,
            readback: read.transpose()?,
        })
    }

    fn fleet_readback(&mut self, report: &FleetReport) -> Result<(f64, u64), Failed> {
        let path = report
            .newest_checkpoint
            .as_ref()
            .ok_or_else(|| fail("checkpoint", "the fleet recorded no checkpoint"))?;
        let bytes = std::fs::metadata(path).map_err(|e| fail("io", e))?.len();
        let t0 = Instant::now();
        let restored = read_checkpoint(path).map_err(|e| fail("checkpoint", e))?;
        let read_s = t0.elapsed().as_secs_f64();
        let spec = spec_for(self.workload, self.seed).map_err(|e| fail("spec", e))?;
        let rebuilt = restored.into_simulation(
            spec.make_eos(rflash::hugepages::Policy::None),
            spec.composition.to_composition(),
        );
        let back = StateDigest::of(&rebuilt);
        if back != report.digest {
            return Err(fail(
                "checkpoint",
                format!(
                    "newest fleet checkpoint rebuilt to {back}, fleet ended on {}",
                    report.digest
                ),
            ));
        }
        Ok((read_s, bytes))
    }

    /// The in-process run of the fleet's scenario and steps; its digest
    /// must equal the fleet's unanimous digest.
    fn fleet_twin(&mut self, fleet_digest: &StateDigest) -> Result<(Setup, Episode), Failed> {
        let mut twin = self.setup()?;
        let ep = self.episode(&mut twin.sim, self.workload.steps())?;
        if ep.digest != *fleet_digest {
            return Err(fail(
                "fleet",
                format!("fleet digest {fleet_digest}, in-process run {}", ep.digest),
            ));
        }
        self.note(
            "gate.fleet",
            s("fleet digest equals the in-process run of the same scenario and steps"),
        );
        Ok((twin, ep))
    }

    fn fleet_timed(&mut self) -> Result<(), Failed> {
        let steps = self.workload.steps();
        let mut setups = Vec::new();
        while more_setups(&setups) {
            let run = self.fleet_once(FLEET_SETUP_STEPS, false)?;
            setups.push(run.wall);
        }
        let mut runs: Vec<FleetRun> = Vec::new();
        let mut wall = 0.0;
        while wall < self.seconds || runs.len() < FLEET_MIN_RUNS {
            let run = self.fleet_once(steps, true)?;
            if runs.is_empty() {
                self.check_reference(&run.report.digest)?;
            } else if run.report.digest != runs[0].report.digest {
                return Err(fail("determinism", "fleet runs ended on different digests"));
            }
            wall += run.wall;
            runs.push(run);
        }
        let supervisor_rss = runs
            .iter()
            .map(|r| r.peak_rss_mb)
            .collect::<Option<Vec<f64>>>()
            .map(|v| v.into_iter().fold(0.0, f64::max));
        self.note(
            "gate.checkpoint",
            s("each run's newest series entry rebuilds to the fleet digest"),
        );
        let (twin, ep) = self.fleet_twin(&runs[0].report.digest)?;
        drop(twin);
        // Medians over runs: one slow spawn must not move the figures.
        let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
        let per_step: Vec<f64> = walls.iter().map(|w| w / steps as f64).collect();
        let run_wall = median(&walls);
        self.note(
            "fleet_run_walls_s",
            Value::Array(walls.into_iter().map(Value::F64).collect()),
        );
        self.end_to_end(
            steps as f64 / run_wall,
            run_wall / ep.zones as f64 * 1e9,
            &per_step,
            &setups,
            supervisor_rss.unwrap_or_else(peak_rss_mb),
        );
        self.note(
            "labels",
            s(format!(
                "steps_per_s and ns_per_zone_step over the median run_fleet wall, spawn included; step_ms_* are per-run mean step times; setup_s is a {FLEET_SETUP_STEPS}-step run_fleet wall (run_fleet refuses 0 steps); peak_rss_mb is {}",
                if supervisor_rss.is_some() {
                    "the supervisor's during run_fleet"
                } else {
                    "the whole process (the high-water mark could not be reset)"
                }
            )),
        );
        self.note("fleet_runs", Value::U64(runs.len() as u64));
        Ok(())
    }

    fn fleet_traced(&mut self) -> Result<(), Failed> {
        let steps = self.workload.steps();
        let run = self.fleet_once(steps, true)?;
        self.check_reference(&run.report.digest)?;
        let (twin, ep) = self.fleet_twin(&run.report.digest)?;
        let in_process_wall = twin.setup_s + ep.wall();
        let timed = TimedLayers::of(&twin.sim, &ep);
        let mut builds = vec![twin.build_s];
        drop(twin);

        let c = &run.report.counters;
        let fleet = FleetLayers {
            bytes_per_step: (c.bytes_tx + c.bytes_rx) as f64 / steps as f64,
            frames_per_step: (c.frames_tx + c.frames_rx) as f64 / steps as f64,
            heartbeat_misses: c.heartbeat_misses as f64,
            overhead_x: run.wall / in_process_wall,
            readback: run.readback,
        };
        self.note(
            "fleet.overhead_x",
            s("run_fleet wall over the same scenario in process at nranks=2, set-up included"),
        );
        let traced = self.setup()?;
        builds.push(traced.build_s);
        self.metrics = self.replay(traced.sim, &ep.digest, timed, &builds, Some(fleet))?;
        Ok(())
    }
}

struct FleetRun {
    wall: f64,
    /// Peak RSS of this process during `run_fleet`, when the high-water
    /// mark could be reset.
    peak_rss_mb: Option<f64>,
    report: FleetReport,
    /// Timed read-back of the newest series entry: seconds, bytes.
    readback: Option<(f64, u64)>,
}

/// Fleet wire counters for the per-layer table.
#[derive(Default)]
struct FleetLayers {
    bytes_per_step: f64,
    frames_per_step: f64,
    heartbeat_misses: f64,
    overhead_x: f64,
    readback: Option<(f64, u64)>,
}

/// Per-layer figures timed on the untraced run (the task graph's own
/// counters; spans cannot see inside it).
struct TimedLayers {
    steps: u64,
    steps_per_s: f64,
    attempts_per_step: f64,
    idle_frac: f64,
    imbalance: f64,
    steals_per_step: f64,
    overlap_ratio: f64,
}

impl TimedLayers {
    fn of(sim: &Simulation, ep: &Episode) -> TimedLayers {
        let steps = ep.step_s.len() as u64;
        let loads = sim.rank_loads();
        let g = &sim.guardian_stats;
        TimedLayers {
            steps,
            steps_per_s: steps as f64 / ep.wall(),
            attempts_per_step: (steps + g.retries) as f64 / steps as f64,
            idle_frac: idle_fraction(&loads),
            imbalance: imbalance(&loads),
            steals_per_step: sim.graph_report.total_steals() as f64 / steps as f64,
            overlap_ratio: sim.graph_report.overlap_ratio(),
        }
    }
}

fn s(x: impl Into<String>) -> Value {
    Value::Str(x.into())
}

/// The smoke-scale digest of `scenario` must match its golden record.
///
/// Known defect: the Helmholtz table a release build computes differs in
/// its last bits from a debug build's, and the golden records of
/// Helmholtz scenarios were blessed from debug test runs, so a release
/// build cannot reproduce them. For such a scenario the gate instead
/// requires the release smoke digest pinned in `reference.json`
/// (`golden_release`), reports the mismatch with the golden record, and
/// still fails on any other digest.
fn gate_golden(scenario: &str) -> Result<String, Failed> {
    let spec = registry::load(scenario).map_err(|e| fail("golden", e))?;
    let sim = registry::run_smoke(&spec, NRANKS, SweepEngine::Pencil, StepScheduler::TaskGraph)
        .map_err(|e| fail("golden", e))?;
    let golden = load_golden(Path::new("golden"), scenario).map_err(|e| fail("golden", e))?;
    let got = StateDigest::of(&sim);
    if got == golden.digest {
        return Ok(format!("golden/{scenario}.ron matched"));
    }
    let pinned = reference()?
        .get("golden_release")
        .and_then(|g| g.get(scenario))
        .cloned();
    match pinned {
        Some(Value::Str(want)) if want == got.to_string() => Ok(format!(
            "golden/{scenario}.ron NOT matched ({got} vs golden {}): known debug/release Helmholtz table defect; matched the pinned release smoke digest",
            golden.digest
        )),
        _ => Err(fail(
            "golden",
            format!("{scenario} smoke digest {got}, golden {}", golden.digest),
        )),
    }
}

fn reference() -> Result<Value, Failed> {
    serde_json::from_str(REFERENCE).map_err(|e| fail("reference", e))
}

/// One extra barrier step with every pencil and row recorded and replayed
/// through the simulated TLB: model DTLB misses per thousand zones.
fn tlb_probe(sim: &mut Simulation) -> Result<f64, Failed> {
    sim.params.pattern_every = 1;
    sim.params.gather_every = 1;
    sim.params.step_scheduler = StepScheduler::Barrier;
    let walks =
        |sim: &Simulation| sim.hydro_session.tlb_stats().walks + sim.eos_session.tlb_stats().walks;
    let before = walks(sim);
    let zones = sim.domain.total_zones() as f64;
    sim.try_step().map_err(|e| fail("step", e))?;
    Ok((walks(sim) - before) as f64 / (zones / 1000.0))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
