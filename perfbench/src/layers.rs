//! Per-layer instrumentation that lives entirely in the benchmark: a
//! telemetry sink that folds the program's existing spans into layer
//! totals, a [`HostProgram`] wrapper timing host set-up and read-back, and
//! timed calls into the KIR lowering and batch-planning passes.

use crate::Report;
use hauberk::program::{CorrectnessSpec, HostProgram, MemBreakdown};
use hauberk::{build, BuildVariant, FtOptions};
use hauberk_kir::{KernelDef, Value};
use hauberk_sim::{Device, DeviceConfig, Launch};
use hauberk_swifi::campaign::{CampaignConfig, CampaignKind};
use hauberk_swifi::orchestrator::{
    run_orchestrated_campaign_traced, OrchestratorConfig, ShardedCampaignResult,
};
use hauberk_telemetry::{Event, Telemetry, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Folds `span` events into per-layer totals as they arrive, so a traced
/// campaign keeps no event log in memory.
#[derive(Debug, Default)]
pub struct LayerSink {
    plan_ns: AtomicU64,
    launches: AtomicU64,
    launch_ns: AtomicU64,
    prepare_ns: AtomicU64,
    exec_ns: AtomicU64,
    unit_ns: AtomicU64,
}

impl TelemetrySink for LayerSink {
    fn emit(&self, event: &Event) {
        let Event::Span {
            name,
            dur_ns,
            attrs,
            ..
        } = event
        else {
            return;
        };
        let attr = |key: &str| -> u64 {
            attrs
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0)
        };
        match *name {
            "plan" => {
                self.plan_ns.fetch_add(*dur_ns, Relaxed);
            }
            "unit" => {
                self.unit_ns.fetch_add(*dur_ns, Relaxed);
            }
            "launch" => {
                self.launches.fetch_add(1, Relaxed);
                self.launch_ns.fetch_add(*dur_ns, Relaxed);
                self.prepare_ns.fetch_add(attr("prepare_ns"), Relaxed);
                self.exec_ns.fetch_add(attr("exec_ns"), Relaxed);
            }
            _ => {}
        }
    }
}

/// Delegates to a program, timing the host-side input set-up (h2d) and
/// output read-back (d2h) calls the campaign makes through it.
pub struct TimedProgram<'a> {
    inner: &'a dyn HostProgram,
    setup_ns: AtomicU64,
    readback_ns: AtomicU64,
}

impl<'a> TimedProgram<'a> {
    pub fn new(inner: &'a dyn HostProgram) -> Self {
        TimedProgram {
            inner,
            setup_ns: AtomicU64::new(0),
            readback_ns: AtomicU64::new(0),
        }
    }
}

impl HostProgram for TimedProgram<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn build_kernel(&self) -> KernelDef {
        self.inner.build_kernel()
    }
    fn launch(&self) -> Launch {
        self.inner.launch()
    }
    fn setup(&self, dev: &mut Device, dataset: u64) -> Vec<Value> {
        let t = Instant::now();
        let args = self.inner.setup(dev, dataset);
        self.setup_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        args
    }
    fn read_output(&self, dev: &Device, args: &[Value]) -> Vec<f64> {
        let t = Instant::now();
        let out = self.inner.read_output(dev, args);
        self.readback_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        out
    }
    fn spec(&self) -> CorrectnessSpec {
        self.inner.spec()
    }
    fn memory_breakdown(&self) -> MemBreakdown {
        self.inner.memory_breakdown()
    }
    fn is_graphics(&self) -> bool {
        self.inner.is_graphics()
    }
    fn is_cpu(&self) -> bool {
        self.inner.is_cpu()
    }
    fn device_config(&self) -> DeviceConfig {
        self.inner.device_config()
    }
}

/// Layer figures of one traced campaign. Times are seconds.
#[derive(Debug, Clone, Default)]
pub struct CampaignLayers {
    pub wall_s: f64,
    pub plan_s: f64,
    pub launches: u64,
    pub work_cycles: u64,
    pub launch_s: f64,
    pub prepare_s: f64,
    pub exec_s: f64,
    pub unit_s: f64,
    pub threads: u64,
    pub host_setup_s: f64,
    pub host_readback_s: f64,
    pub classify_s: f64,
    pub journal_s: f64,
    pub ckpt_spliced: u64,
    pub ckpt_boundaries: u64,
}

impl CampaignLayers {
    /// Accumulate another campaign's figures (times and counts add).
    pub fn add(&mut self, o: &CampaignLayers) {
        self.wall_s += o.wall_s;
        self.plan_s += o.plan_s;
        self.launches += o.launches;
        self.work_cycles += o.work_cycles;
        self.launch_s += o.launch_s;
        self.prepare_s += o.prepare_s;
        self.exec_s += o.exec_s;
        self.unit_s += o.unit_s;
        self.threads = self.threads.max(o.threads);
        self.host_setup_s += o.host_setup_s;
        self.host_readback_s += o.host_readback_s;
        self.classify_s += o.classify_s;
        self.journal_s += o.journal_s;
        self.ckpt_spliced += o.ckpt_spliced;
        self.ckpt_boundaries += o.ckpt_boundaries;
    }

    /// Report every campaign-layer metric.
    pub fn report(&self, r: &mut Report) {
        r.metric("campaign.plan_s", self.plan_s, "s");
        r.metric("sim.launches", self.launches as f64, "count");
        r.metric("sim.work_cycles", self.work_cycles as f64, "cycles");
        r.metric("sim.prepare_s", self.prepare_s, "s");
        r.metric(
            "sim.prepare_us_per_launch",
            ratio(self.prepare_s * 1e6, self.launches as f64),
            "us",
        );
        r.metric("sim.exec_s", self.exec_s, "s");
        r.metric(
            "sim.cycles_per_exec_us",
            self.cycles_per_exec_us(),
            "cycles/us",
        );
        r.metric("host.setup_s", self.host_setup_s, "s");
        r.metric("host.readback_s", self.host_readback_s, "s");
        r.metric("swifi.classify_s", self.classify_s, "s");
        r.metric("swifi.journal_s", self.journal_s, "s");
        // Share of worker capacity inside work units not spent in kernel
        // launches: the per-unit barrier tail plus per-injection host work.
        let idle = if self.unit_s > 0.0 {
            1.0 - self.launch_s / (self.threads.max(1) as f64 * self.unit_s)
        } else {
            0.0
        };
        r.metric("swifi.unit_idle_frac", idle, "ratio");
        r.metric("checkpoint.spliced", self.ckpt_spliced as f64, "count");
        r.metric(
            "checkpoint.boundaries",
            self.ckpt_boundaries as f64,
            "count",
        );
    }

    pub fn cycles_per_exec_us(&self) -> f64 {
        ratio(self.work_cycles as f64, self.exec_s * 1e6)
    }
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Run one campaign through the orchestrator with a [`LayerSink`] attached
/// and the program wrapped in a [`TimedProgram`].
pub fn traced_campaign(
    prog: &dyn HostProgram,
    kind: CampaignKind,
    cfg: &CampaignConfig,
    orch: &OrchestratorConfig,
) -> Result<(ShardedCampaignResult, CampaignLayers), String> {
    let sink = Arc::new(LayerSink::default());
    let timed = TimedProgram::new(prog);
    let t = Instant::now();
    let res = run_orchestrated_campaign_traced(
        &timed,
        kind,
        cfg,
        orch,
        Telemetry::new(sink.clone() as Arc<dyn TelemetrySink>),
    )?;
    let wall_s = t.elapsed().as_secs_f64();
    let s = |ns: u64| ns as f64 / 1e9;
    let layers = CampaignLayers {
        wall_s,
        plan_s: s(sink.plan_ns.load(Relaxed)),
        launches: sink.launches.load(Relaxed),
        work_cycles: res.sim_cycles,
        launch_s: s(sink.launch_ns.load(Relaxed)),
        prepare_s: s(sink.prepare_ns.load(Relaxed)),
        exec_s: s(sink.exec_ns.load(Relaxed)),
        unit_s: s(sink.unit_ns.load(Relaxed)),
        threads: res.profile.threads,
        host_setup_s: s(timed.setup_ns.load(Relaxed)),
        host_readback_s: s(timed.readback_ns.load(Relaxed)),
        classify_s: s(res.profile.classify_ns),
        journal_s: s(res.profile.journal_ns),
        ckpt_spliced: res.checkpoint.as_ref().map_or(0, |c| c.spliced),
        ckpt_boundaries: res.checkpoint.as_ref().map_or(0, |c| c.boundaries),
    };
    Ok((res, layers))
}

/// KIR figures for a set of kernels: lowering and batch-planning time, and
/// the static share of lowered ops that fall inside batch regions.
#[derive(Debug, Clone, Copy, Default)]
pub struct KirLayers {
    pub lower_s: f64,
    pub plan_s: f64,
    pub ops: u64,
    pub batched_ops: u64,
}

impl KirLayers {
    /// Passes over each kernel; the pass times are their medians.
    const REPS: usize = 9;

    /// Lower and batch-plan `kernel`, accumulating the median pass times
    /// and the op counts.
    pub fn measure(&mut self, kernel: &KernelDef) {
        let mut lower = Vec::with_capacity(Self::REPS);
        let mut plan = Vec::with_capacity(Self::REPS);
        let mut last = None;
        for _ in 0..Self::REPS {
            let t = Instant::now();
            let lowered = std::hint::black_box(hauberk_kir::lower::lower_kernel(kernel));
            lower.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            // The planner's own structural rules with every value op
            // admitted: the batch engine may refuse a few op/type pairs
            // whose lane loop could trap, so this share is an upper bound.
            let bp = std::hint::black_box(hauberk_kir::batch::plan_batches(&lowered, &|_| true));
            plan.push(t.elapsed().as_secs_f64());
            last = Some((lowered.code.len() as u64, bp));
        }
        let (ops, bp) = last.expect("at least one repetition");
        self.lower_s += crate::median(&lower);
        self.plan_s += crate::median(&plan);
        self.ops += ops;
        self.batched_ops += bp
            .regions
            .iter()
            .map(|r| (r.end - r.start) as u64)
            .sum::<u64>();
    }

    pub fn share(&self) -> f64 {
        ratio(self.batched_ops as f64, self.ops as f64)
    }

    pub fn report(&self, r: &mut Report) {
        r.metric("kir.lower_us", self.lower_s * 1e6, "us");
        r.metric("kir.batch_plan_us", self.plan_s * 1e6, "us");
        r.metric("kir.batch_op_share", self.share(), "ratio");
    }
}

/// The Fig. 14 FI&FT build (Hauberk-L and -NL detectors) of `prog`'s kernel:
/// the instrumented kernel coverage campaigns execute.
pub fn instrumented_kernel(prog: &dyn HostProgram) -> KernelDef {
    build(
        &prog.build_kernel(),
        BuildVariant::FiFt(FtOptions::default()),
    )
    .expect("FI&FT build")
    .kernel
}
