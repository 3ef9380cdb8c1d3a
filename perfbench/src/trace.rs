//! The traced replay: `Simulation`'s step driven from outside, one public
//! layer call at a time, with a span around each call.
//!
//! [`Replay::step`] repeats the barrier step of `Simulation::try_step` in
//! its exact order — guardian capture, dt; per direction (reversed on odd
//! steps) fill, sweep, EOS; flame, gravity; validate, commit, regrid — so
//! its final digest must equal an untraced run's bit for bit. It takes no
//! retries: a validation failure ends the replay with an error.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use rflash::core::guardian::validate_domain;
use rflash::core::instrument::eos_pass;
use rflash::core::Simulation;
use rflash::gravity::{apply_gravity, GravityField};
use rflash::hydro::{
    compute_dt_parallel_raw, sweep_direction_prefilled, SweepConfig, SweepEos, NFLUX,
};
use rflash::mesh::flux::FluxRegister;
use rflash::mesh::refine::lohner_marks;
use rflash::mesh::ShadowSnapshot;

/// One recorded span. Spans of one step share `step`; `parent` indexes
/// the enclosing span in [`Tracer::spans`].
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub step: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the layer's own unit (zones for
    /// sweeps and EOS passes, guard-zone bytes for fills, leaves added by
    /// a regrid).
    pub work: i64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder; written out once the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`end`](Self::end).
    fn begin(&mut self, name: &'static str, step: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            step,
            parent,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize, work: i64) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end_ns;
        s.work = work;
    }

    /// Run `f` inside a span with no children.
    fn leaf<R>(
        &mut self,
        name: &'static str,
        step: u64,
        parent: usize,
        f: impl FnOnce() -> (R, i64),
    ) -> R {
        let span = self.begin(name, step, Some(parent));
        let (out, work) = f();
        self.end(span, work);
        out
    }

    /// Each span's duration minus the time its children cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.seconds();
            }
        }
        out
    }

    /// Self time and work summed over the spans called `name`, and their
    /// count.
    pub fn layer(&self, name: &str) -> LayerTotals {
        let selfs = self.self_seconds();
        let mut t = LayerTotals::default();
        for (s, self_s) in self.spans.iter().zip(selfs) {
            if s.name == name {
                t.self_s += self_s;
                t.work += s.work;
                t.calls += 1;
            }
        }
        t
    }

    /// Write the spans in the Chrome trace-event format (complete events
    /// on one track), which Perfetto and chrome://tracing open offline.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"step\":{},\"work\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                s.step,
                s.work,
                s.parent.map_or(-1, |p| p as i64),
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Totals of one layer's spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub self_s: f64,
    pub work: i64,
    pub calls: u64,
}

/// Span names, one per public layer call.
pub mod names {
    pub const STEP: &str = "step";
    pub const GUARDIAN_CAPTURE: &str = "guardian.capture";
    pub const DT: &str = "hydro.dt";
    pub const GUARDCELL: &str = "mesh.guardcell";
    pub const SWEEP: &str = "hydro.sweep";
    pub const EOS: &str = "eos.pass";
    pub const FLAME: &str = "flame.advance";
    pub const GRAVITY: &str = "gravity";
    pub const GUARDIAN_VALIDATE: &str = "guardian.validate";
    pub const REGRID: &str = "mesh.regrid";
}

/// Guard-zone bytes one fill writes: every leaf's guard ring, all
/// variables.
fn guard_bytes(sim: &Simulation) -> i64 {
    let cfg = sim.domain.tree.config();
    let ndim = cfg.ndim as u32;
    let full = (cfg.nxb + 2 * cfg.nguard).pow(ndim);
    let interior = cfg.nxb.pow(ndim);
    let leaves = sim.domain.tree.leaves().len();
    (leaves * (full - interior) * sim.domain.unk.nvar() * 8) as i64
}

/// One `Domain::fill_guardcells` under a span.
fn traced_fill(t: &mut Tracer, sim: &mut Simulation, step: u64, parent: usize) {
    let bytes = guard_bytes(sim);
    let nranks = sim.params.nranks;
    t.leaf(names::GUARDCELL, step, parent, || {
        (sim.domain.fill_guardcells(nranks), bytes)
    });
}

/// One `eos_pass` over every leaf under a span.
fn traced_eos(t: &mut Tracer, sim: &mut Simulation, step: u64, parent: usize) {
    let zones = sim.domain.total_zones() as i64;
    t.leaf(names::EOS, step, parent, || {
        eos_pass(
            &mut sim.domain,
            &sim.eos,
            sim.comp,
            &sim.params,
            &mut sim.eos_session,
        );
        ((), zones)
    });
}

/// The replay's own state: the pieces `Simulation` keeps
/// crate-private, rebuilt from public constructors.
pub struct Replay {
    shadow: ShadowSnapshot,
    reg: FluxRegister,
    pub tracer: Tracer,
}

impl Replay {
    pub fn new(sim: &Simulation) -> Replay {
        let cfg = sim.domain.tree.config();
        Replay {
            shadow: ShadowSnapshot::new(sim.domain.unk.policy()),
            reg: FluxRegister::new(cfg.ndim, cfg.nxb, NFLUX, cfg.max_blocks),
            tracer: Tracer::default(),
        }
    }

    /// One step of `sim`, one span per layer call, all under one parent
    /// `step` span. Returns the committed dt.
    pub fn step(&mut self, sim: &mut Simulation) -> Result<f64, String> {
        use names::*;
        let step = sim.step;
        let nranks = sim.params.nranks;
        let guardian = sim.params.guardian;
        let t = &mut self.tracer;
        let root = t.begin(STEP, step, None);

        if guardian.enabled {
            let shadow = &mut self.shadow;
            let domain = &sim.domain;
            t.leaf(GUARDIAN_CAPTURE, step, root, || (shadow.capture(domain), 0));
        }
        let cfl = sim.params.cfl;
        let dt = t.leaf(DT, step, root, || {
            (compute_dt_parallel_raw(&mut sim.domain, cfl, nranks), 0)
        });
        if !(dt.is_finite() && dt > 0.0) {
            return Err(format!("replay step {step}: unusable dt {dt:e}"));
        }

        let ndim = sim.domain.tree.config().ndim;
        let sweep_cfg = SweepConfig {
            nranks,
            dens_floor: sim.params.dens_floor,
            eint_floor: sim.params.eint_floor,
            pattern_every: sim.params.pattern_every,
            engine: sim.params.sweep_engine,
            simd: rflash::simd::resolve(sim.params.simd_backend),
            scratch_policy: sim.params.policy,
        };
        let dirs: Vec<usize> = if step.is_multiple_of(2) {
            (0..ndim).collect()
        } else {
            (0..ndim).rev().collect()
        };
        for dir in dirs {
            traced_fill(t, sim, step, root);
            let zones = sim.domain.total_zones() as i64;
            let reg = &mut self.reg;
            t.leaf(SWEEP, step, root, || {
                sim.hydro_session.start_region();
                let probes = sweep_direction_prefilled(
                    &mut sim.domain,
                    &SweepEos::Defer,
                    dir,
                    dt,
                    reg,
                    &sweep_cfg,
                );
                for probe in probes {
                    sim.hydro_session.absorb(probe);
                }
                sim.hydro_session.stop_region();
                ((), zones)
            });
            traced_eos(t, sim, step, root);
        }

        if let Some(flame) = sim.flame.take() {
            traced_fill(t, sim, step, root);
            let zones = sim.domain.total_zones() as i64;
            let released = t.leaf(FLAME, step, root, || {
                let (probes, released) = flame.advance(&mut sim.domain, dt);
                for probe in probes {
                    sim.hydro_session.absorb(probe);
                }
                (released, zones)
            });
            sim.flame = Some(flame);
            sim.energy_released += released;
            traced_eos(t, sim, step, root);
        }

        if !matches!(sim.gravity.field, GravityField::None) || sim.gravity.monopole.is_some() {
            let gravity_every = sim.params.gravity_every;
            let zones = sim.domain.total_zones() as i64;
            t.leaf(GRAVITY, step, root, || {
                if let Some(solver) = &sim.gravity.monopole {
                    if step.is_multiple_of(gravity_every) {
                        sim.gravity.field = GravityField::Monopole(solver.solve(&sim.domain));
                    }
                }
                apply_gravity(&mut sim.domain, &sim.gravity.field, dt, nranks);
                ((), zones)
            });
        }

        if guardian.enabled {
            let verdict = t.leaf(GUARDIAN_VALIDATE, step, root, || {
                (validate_domain(&mut sim.domain, &guardian, nranks), 0)
            });
            if let Some(detail) = verdict {
                return Err(format!("replay step {step}: guardian violation: {detail}"));
            }
        }

        sim.step += 1;
        sim.time += dt;
        if sim.params.regrid_every > 0 && sim.step.is_multiple_of(sim.params.regrid_every) {
            let regrid = t.begin(REGRID, step, Some(root));
            traced_fill(t, sim, step, regrid);
            let before = sim.domain.tree.leaves().len() as i64;
            let marks = lohner_marks(
                &sim.domain.tree,
                &sim.domain.unk,
                &sim.refine_vars,
                &sim.lohner,
            );
            sim.domain.tree.adapt(&mut sim.domain.unk, &marks);
            let after = sim.domain.tree.leaves().len() as i64;
            t.end(regrid, after - before);
        }
        t.end(root, 0);
        Ok(dt)
    }
}
