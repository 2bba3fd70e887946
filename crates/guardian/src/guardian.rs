//! The guardian process and the error diagnosis & tolerance algorithm of the
//! paper's Fig. 11.

use crate::alpha::{AlphaConfig, AlphaController};
use crate::bist::run_bist;
use crate::cluster::Cluster;
use hauberk::control::ControlBlock;
use hauberk::program::{run_program_with_engine, CorrectnessSpec, HostProgram, ProgramRun};
use hauberk::ranges::RangeSet;
use hauberk::runtime::FiFtRuntime;
use hauberk_kir::KernelDef;
use hauberk_sim::LaunchOutcome;
use hauberk_telemetry::{Event, Telemetry};

/// Guardian configuration.
#[derive(Debug, Clone, Copy)]
pub struct GuardianConfig {
    /// Hang watchdog factor `T`: a run is killed when it exceeds `T×` the
    /// previous execution time (§VI i; paper default 10).
    pub watchdog_factor: u64,
    /// Absolute watchdog floor in cycles (the paper's "certain time
    /// interval (e.g., 1 minute)"), also used for the first run.
    pub watchdog_floor: u64,
    /// Consecutive failures on the same kernel/input before device
    /// diagnosis (paper: 2).
    pub failures_before_diagnosis: u32,
    /// Total attempts before giving up.
    pub max_attempts: u32,
    /// Whether the supervised program is nondeterministic: outputs within
    /// twice the correctness requirement still count as "identical" (§VI
    /// ii.a's conservative rule).
    pub nondeterministic: bool,
}

impl Default for GuardianConfig {
    fn default() -> Self {
        GuardianConfig {
            watchdog_factor: 10,
            watchdog_floor: 40_000_000,
            failures_before_diagnosis: 2,
            max_attempts: 8,
            nondeterministic: false,
        }
    }
}

/// Log of what the guardian did (drives tests and the experiment reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardianEvent {
    /// A run started on a device.
    RunStarted {
        /// Device id.
        device: usize,
    },
    /// The kernel crashed (detected by the GPU runtime).
    CrashDetected,
    /// The watchdog killed a hung/delayed kernel.
    HangKilled,
    /// The program was restarted after a failure.
    Restarted,
    /// An SDC alarm was reported by the detectors.
    AlarmRaised,
    /// The diagnostic re-execution ran.
    Reexecuted,
    /// Both executions alarmed with identical outputs: false positive;
    /// ranges updated (on-line learning).
    FalseAlarmDiagnosed,
    /// The re-execution was clean: transient fault tolerated.
    TransientTolerated,
    /// BIST ran on a device.
    BistRun {
        /// Device id.
        device: usize,
        /// Whether it passed.
        passed: bool,
    },
    /// A device was disabled.
    DeviceDisabled {
        /// Device id.
        device: usize,
    },
    /// Execution migrated to another device.
    Migrated {
        /// New device id.
        to: usize,
    },
    /// Repeated inconsistent behaviour with healthy hardware.
    UnsupportedSoftware,
}

impl GuardianEvent {
    /// Stable snake-case step name, used in telemetry traces.
    pub fn action(&self) -> &'static str {
        match self {
            GuardianEvent::RunStarted { .. } => "run_started",
            GuardianEvent::CrashDetected => "crash_detected",
            GuardianEvent::HangKilled => "hang_killed",
            GuardianEvent::Restarted => "restarted",
            GuardianEvent::AlarmRaised => "alarm_raised",
            GuardianEvent::Reexecuted => "reexecuted",
            GuardianEvent::FalseAlarmDiagnosed => "false_alarm_diagnosed",
            GuardianEvent::TransientTolerated => "transient_tolerated",
            GuardianEvent::BistRun { passed: true, .. } => "bist_passed",
            GuardianEvent::BistRun { passed: false, .. } => "bist_failed",
            GuardianEvent::DeviceDisabled { .. } => "device_disabled",
            GuardianEvent::Migrated { .. } => "migrated",
            GuardianEvent::UnsupportedSoftware => "unsupported_software",
        }
    }

    /// Device ordinal the step applies to, when it is device-specific.
    pub fn device(&self) -> Option<usize> {
        match self {
            GuardianEvent::RunStarted { device }
            | GuardianEvent::BistRun { device, .. }
            | GuardianEvent::DeviceDisabled { device } => Some(*device),
            GuardianEvent::Migrated { to } => Some(*to),
            _ => None,
        }
    }
}

/// Final outcome of a guarded execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// The program produced a trusted output.
    Success {
        /// The accepted output.
        output: Vec<f64>,
        /// Device that produced it.
        device: usize,
        /// Total program runs consumed.
        runs: u32,
        /// Whether a false alarm was diagnosed along the way.
        false_alarm: bool,
    },
    /// Healthy hardware but irreproducible behaviour: the paper reports an
    /// unsupported-software error (bug or nondeterminism).
    UnsupportedSoftware,
    /// No enabled device remained / attempts exhausted.
    Exhausted,
}

/// The guardian.
#[derive(Debug)]
pub struct Guardian {
    /// Configuration.
    pub cfg: GuardianConfig,
    /// The GPU node.
    pub cluster: Cluster,
    /// The adaptive range controller.
    pub alpha: AlphaController,
    /// Event log.
    pub events: Vec<GuardianEvent>,
    /// Telemetry handle (disabled by default): every logged
    /// [`GuardianEvent`] is mirrored as an [`Event::Guardian`], and the
    /// supervised launches emit kernel/detector/fault events.
    pub tele: Telemetry,
    prev_cycles: Option<u64>,
}

impl Guardian {
    /// A guardian over `cluster`.
    pub fn new(cfg: GuardianConfig, cluster: Cluster) -> Self {
        Guardian {
            cfg,
            cluster,
            alpha: AlphaController::new(AlphaConfig::default()),
            events: Vec::new(),
            tele: Telemetry::disabled(),
            prev_cycles: None,
        }
    }

    /// Attach a telemetry handle.
    pub fn with_telemetry(mut self, tele: Telemetry) -> Self {
        self.tele = tele;
        self
    }

    /// Record a guardian step in the event log and the telemetry trace.
    fn log(&mut self, ev: GuardianEvent) {
        self.tele.emit_with(|| Event::Guardian {
            action: ev.action().to_string(),
            device: ev.device().map_or(-1, |d| d as i64),
        });
        self.events.push(ev);
    }

    fn watchdog_budget(&self) -> u64 {
        match self.prev_cycles {
            Some(c) => (c.saturating_mul(self.cfg.watchdog_factor)).max(self.cfg.watchdog_floor),
            None => self.cfg.watchdog_floor,
        }
    }

    /// Execute once on `device`; returns the run and the control block.
    fn execute(
        &mut self,
        prog: &dyn HostProgram,
        kernel: &KernelDef,
        ranges: &[RangeSet],
        dataset: u64,
        device: usize,
    ) -> (ProgramRun, ControlBlock) {
        self.log(GuardianEvent::RunStarted { device });
        let effective: Vec<RangeSet> = ranges
            .iter()
            .map(|r| r.apply_alpha(self.alpha.alpha()))
            .collect();
        let fault = self.cluster.gpus[device].fault_for_run(self.cluster.now);
        let cb = ControlBlock::with_ranges(effective);
        let mut rt = FiFtRuntime::new(fault, cb).with_telemetry(self.tele.clone());
        let run = run_program_with_engine(
            prog,
            kernel,
            dataset,
            &mut rt,
            self.watchdog_budget(),
            &self.tele,
            None,
        );
        self.cluster.gpus[device].note_run();
        self.cluster
            .advance(run.outcome.stats().kernel_cycles.max(1));
        if let LaunchOutcome::Completed(stats) = &run.outcome {
            // Watchdog budgets are in work cycles (the interpreter's
            // progress metric); kernel time drives the cluster clock.
            self.prev_cycles = Some(stats.work_cycles);
        }
        (run, rt.cb)
    }

    fn diagnose_device(&mut self, device: usize) -> bool {
        let passed = run_bist(&self.cluster.gpus[device], self.cluster.now);
        self.log(GuardianEvent::BistRun { device, passed });
        if !passed {
            self.cluster.disable(device);
            self.log(GuardianEvent::DeviceDisabled { device });
        }
        passed
    }

    /// Run `prog` (its FT build `kernel` with profiled `ranges`) under full
    /// guardian protection, implementing Fig. 11. On a diagnosed false
    /// positive the `ranges` are updated in place (on-line learning).
    pub fn run_protected(
        &mut self,
        prog: &dyn HostProgram,
        kernel: &KernelDef,
        ranges: &mut Vec<RangeSet>,
        dataset: u64,
    ) -> RecoveryOutcome {
        let spec = prog.spec();
        let mut consecutive_failures = 0u32;
        let mut current_device = match self.cluster.pick_enabled() {
            Some(d) => d,
            None => return RecoveryOutcome::Exhausted,
        };
        let mut runs = 0u32;

        for _attempt in 0..self.cfg.max_attempts {
            let (run1, cb1) = self.execute(prog, kernel, ranges, dataset, current_device);
            runs += 1;
            match &run1.outcome {
                LaunchOutcome::Crash { .. } | LaunchOutcome::Hang { .. } => {
                    self.log(if run1.outcome.is_completed() {
                        unreachable!()
                    } else if matches!(run1.outcome, LaunchOutcome::Hang { .. }) {
                        GuardianEvent::HangKilled
                    } else {
                        GuardianEvent::CrashDetected
                    });
                    consecutive_failures += 1;
                    if consecutive_failures >= self.cfg.failures_before_diagnosis {
                        consecutive_failures = 0;
                        if self.diagnose_device(current_device) {
                            self.log(GuardianEvent::UnsupportedSoftware);
                            return RecoveryOutcome::UnsupportedSoftware;
                        }
                        match self.cluster.pick_enabled() {
                            Some(d) => {
                                self.log(GuardianEvent::Migrated { to: d });
                                current_device = d;
                            }
                            None => return RecoveryOutcome::Exhausted,
                        }
                    } else {
                        self.log(GuardianEvent::Restarted);
                    }
                    continue;
                }
                LaunchOutcome::Completed(_) => {
                    consecutive_failures = 0;
                    let out1 = run1.output.clone().expect("completed run has output");
                    if !cb1.sdc_flag {
                        self.alpha.observe(false);
                        return RecoveryOutcome::Success {
                            output: out1,
                            device: current_device,
                            runs,
                            false_alarm: false,
                        };
                    }
                    // SDC alarm: diagnose by re-execution.
                    self.log(GuardianEvent::AlarmRaised);
                    let (run2, mut cb2) =
                        self.execute(prog, kernel, ranges, dataset, current_device);
                    runs += 1;
                    self.log(GuardianEvent::Reexecuted);
                    match &run2.outcome {
                        LaunchOutcome::Crash { .. } | LaunchOutcome::Hang { .. } => {
                            consecutive_failures += 1;
                            self.log(GuardianEvent::Restarted);
                            continue;
                        }
                        LaunchOutcome::Completed(_) => {
                            let out2 = run2.output.clone().expect("completed run has output");
                            if !cb2.sdc_flag {
                                // (b) transient/short-intermittent fault:
                                // take the clean re-execution's result.
                                self.log(GuardianEvent::TransientTolerated);
                                self.alpha.observe(false);
                                return RecoveryOutcome::Success {
                                    output: out2,
                                    device: current_device,
                                    runs,
                                    false_alarm: false,
                                };
                            }
                            if outputs_identical(&spec, &out1, &out2, self.cfg.nondeterministic) {
                                // (a) false alarm: learn the outlier values.
                                self.log(GuardianEvent::FalseAlarmDiagnosed);
                                cb2.learn_outliers();
                                *ranges = cb2.ranges;
                                self.alpha.observe(true);
                                return RecoveryOutcome::Success {
                                    output: out1,
                                    device: current_device,
                                    runs,
                                    false_alarm: true,
                                };
                            }
                            // (c) long intermittent / permanent fault.
                            if self.diagnose_device(current_device) {
                                self.log(GuardianEvent::UnsupportedSoftware);
                                return RecoveryOutcome::UnsupportedSoftware;
                            }
                            match self.cluster.pick_enabled() {
                                Some(d) => {
                                    self.log(GuardianEvent::Migrated { to: d });
                                    current_device = d;
                                }
                                None => return RecoveryOutcome::Exhausted,
                            }
                        }
                    }
                }
            }
        }
        RecoveryOutcome::Exhausted
    }
}

/// The §VI ii.a identity rule: exact equality for deterministic programs;
/// within twice the correctness requirement for nondeterministic ones.
pub fn outputs_identical(
    spec: &CorrectnessSpec,
    a: &[f64],
    b: &[f64],
    nondeterministic: bool,
) -> bool {
    if !nondeterministic {
        return a == b;
    }
    let doubled = match *spec {
        CorrectnessSpec::Exact => CorrectnessSpec::Exact,
        CorrectnessSpec::RelAbs { rel, abs } => CorrectnessSpec::RelAbs {
            rel: 2.0 * rel,
            abs: 2.0 * abs,
        },
        CorrectnessSpec::RelPlusEps { rel, eps } => CorrectnessSpec::RelPlusEps {
            rel: 2.0 * rel,
            eps: 2.0 * eps,
        },
        CorrectnessSpec::MriStyle {
            global_rel,
            elem_rel,
        } => CorrectnessSpec::MriStyle {
            global_rel: 2.0 * global_rel,
            elem_rel: 2.0 * elem_rel,
        },
        CorrectnessSpec::GraphicsNoticeable {
            pixel_tol,
            min_bad_pixels,
        } => CorrectnessSpec::GraphicsNoticeable {
            pixel_tol: 2.0 * pixel_tol,
            min_bad_pixels,
        },
    };
    !doubled.is_violation(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regime::FaultRegime;
    use hauberk::builds::{build, BuildVariant, FtOptions};
    use hauberk::program::{golden_run, run_program};
    use hauberk::runtime::ProfilerRuntime;
    use hauberk_benchmarks::cp::Cp;
    use hauberk_benchmarks::ProblemScale;
    use hauberk_sim::fault::{ArmedFault, FaultSite};

    /// Profile CP and hand back (FT kernel, trained ranges, an in-loop FP
    /// fault that reliably trips the range detector).
    fn cp_setup() -> (Cp, KernelDef, Vec<RangeSet>, ArmedFault) {
        let prog = Cp::new(ProblemScale::Quick);
        let base = prog.build_kernel();
        let profiler = build(&base, BuildVariant::Profiler(FtOptions::default())).unwrap();
        let mut pr = ProfilerRuntime::default();
        let run = run_program(&prog, &profiler.kernel, 0, &mut pr, u64::MAX);
        assert!(run.outcome.is_completed());
        let ranges: Vec<RangeSet> = (0..profiler.detectors.len())
            .map(|d| hauberk::ranges::profile_ranges(pr.samples(d as u32)))
            .collect();
        let fift = build(&base, BuildVariant::FiFt(FtOptions::default())).unwrap();
        // Fault: blow up the protected energy accumulator in thread 3.
        let site = fift
            .fi
            .sites
            .iter()
            .find(|s| s.var_name.starts_with("energyx") && s.in_loop)
            .expect("CP has energy FI sites");
        let fault = ArmedFault {
            site: FaultSite::HookTarget { site: site.site },
            thread: 3,
            occurrence: 5,
            mask: 0x6000_0000, // high exponent bits: astronomically large change
        };
        (prog, fift.kernel, ranges, fault)
    }

    fn guardian(cluster: Cluster) -> Guardian {
        Guardian::new(
            GuardianConfig {
                watchdog_floor: 20_000_000,
                ..Default::default()
            },
            cluster,
        )
    }

    #[test]
    fn healthy_run_passes_straight_through() {
        let (prog, kernel, mut ranges, _) = cp_setup();
        let mut g = guardian(Cluster::healthy(2));
        let (golden, _) = golden_run(&prog, 0);
        match g.run_protected(&prog, &kernel, &mut ranges, 0) {
            RecoveryOutcome::Success {
                output,
                runs,
                false_alarm,
                ..
            } => {
                assert_eq!(runs, 1);
                assert!(!false_alarm);
                assert_eq!(output, golden);
            }
            other => panic!("{other:?}"),
        }
        assert!(!g.events.contains(&GuardianEvent::AlarmRaised));
    }

    #[test]
    fn transient_fault_is_tolerated_by_reexecution() {
        let (prog, kernel, mut ranges, fault) = cp_setup();
        let mut cluster = Cluster::healthy(2);
        cluster.gpus[0] =
            crate::cluster::ManagedGpu::faulty(0, FaultRegime::Transient { remaining: 1 }, fault);
        let mut g = guardian(cluster);
        let (golden, _) = golden_run(&prog, 0);
        match g.run_protected(&prog, &kernel, &mut ranges, 0) {
            RecoveryOutcome::Success { output, runs, .. } => {
                assert_eq!(runs, 2, "one faulted run + one clean re-execution");
                assert_eq!(output, golden, "re-execution output accepted");
            }
            other => panic!("{other:?}"),
        }
        assert!(g.events.contains(&GuardianEvent::AlarmRaised));
        assert!(g.events.contains(&GuardianEvent::TransientTolerated));
    }

    #[test]
    fn permanent_fault_disables_device_and_migrates() {
        let (prog, kernel, mut ranges, fault) = cp_setup();
        let mut cluster = Cluster::healthy(2);
        cluster.gpus[0] = crate::cluster::ManagedGpu::faulty(0, FaultRegime::Permanent, fault);
        let mut g = guardian(cluster);
        let (golden, _) = golden_run(&prog, 0);
        match g.run_protected(&prog, &kernel, &mut ranges, 0) {
            RecoveryOutcome::Success { output, device, .. } => {
                assert_eq!(device, 1, "work migrated to the healthy device");
                assert_eq!(output, golden);
            }
            other => panic!("{other:?}"),
        }
        assert!(g
            .events
            .contains(&GuardianEvent::DeviceDisabled { device: 0 }));
        assert!(g.events.contains(&GuardianEvent::Migrated { to: 1 }));
        assert!(!g.cluster.gpus[0].enabled);
    }

    #[test]
    fn false_alarm_is_diagnosed_and_learned() {
        let (prog, kernel, trained, _) = cp_setup();
        // Deliberately under-trained ranges (one per detector): a tiny range
        // that the real averages fall outside of.
        let mut ranges = vec![hauberk::ranges::profile_ranges(&[1e-30]); trained.len()];
        let mut g = guardian(Cluster::healthy(1));
        match g.run_protected(&prog, &kernel, &mut ranges, 0) {
            RecoveryOutcome::Success {
                runs, false_alarm, ..
            } => {
                assert!(false_alarm);
                assert_eq!(runs, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(g.events.contains(&GuardianEvent::FalseAlarmDiagnosed));
        // On-line learning: the updated ranges accept the program now.
        let mut g2 = guardian(Cluster::healthy(1));
        match g2.run_protected(&prog, &kernel, &mut ranges, 0) {
            RecoveryOutcome::Success {
                runs, false_alarm, ..
            } => {
                assert_eq!(runs, 1, "learned ranges: no alarm on the retry");
                assert!(!false_alarm);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deterministic_software_crash_is_reported_as_unsupported() {
        use hauberk::program::{CorrectnessSpec, MemBreakdown};
        use hauberk_kir::parser::parse_kernel;
        use hauberk_kir::{PrimTy, Value};
        use hauberk_sim::{Device, Launch};

        /// A buggy program: every run crashes (wild store beyond the device
        /// address space) — the paper's "unsupported SW error (either has a
        /// bug or is undeterministic)" leaf of Fig. 11.
        struct Buggy;
        impl hauberk::program::HostProgram for Buggy {
            fn name(&self) -> &'static str {
                "buggy"
            }
            fn build_kernel(&self) -> KernelDef {
                parse_kernel(
                    r#"kernel b(out: *global f32) {
                        store(out, 100000000, 1.0);
                    }"#,
                )
                .unwrap()
            }
            fn launch(&self) -> Launch {
                Launch::grid1d(1, 1)
            }
            fn setup(&self, dev: &mut Device, _dataset: u64) -> Vec<Value> {
                vec![Value::Ptr(dev.alloc(PrimTy::F32, 16))]
            }
            fn read_output(&self, dev: &Device, args: &[Value]) -> Vec<f64> {
                dev.mem
                    .copy_out_f32(args[0].as_ptr().unwrap(), 16)
                    .into_iter()
                    .map(|v| v as f64)
                    .collect()
            }
            fn spec(&self) -> CorrectnessSpec {
                CorrectnessSpec::Exact
            }
            fn memory_breakdown(&self) -> MemBreakdown {
                MemBreakdown::default()
            }
        }

        let mut g = guardian(Cluster::healthy(2));
        let kernel = Buggy.build_kernel();
        let mut ranges = vec![];
        match g.run_protected(&Buggy, &kernel, &mut ranges, 0) {
            RecoveryOutcome::UnsupportedSoftware => {}
            other => panic!("{other:?}"),
        }
        // Two failures, then a BIST that passes (the hardware is fine).
        assert!(g.events.contains(&GuardianEvent::Restarted));
        assert!(g.events.contains(&GuardianEvent::BistRun {
            device: 0,
            passed: true
        }));
        assert!(g.events.contains(&GuardianEvent::UnsupportedSoftware));
        assert!(g.cluster.gpus[0].enabled, "healthy device stays enabled");
    }

    #[test]
    fn outputs_identical_rules() {
        let spec = CorrectnessSpec::RelAbs {
            rel: 0.01,
            abs: 0.0,
        };
        let a = vec![100.0, 200.0];
        let near = vec![100.5, 200.0];
        assert!(outputs_identical(&spec, &a, &a, false));
        assert!(!outputs_identical(&spec, &a, &near, false));
        assert!(outputs_identical(&spec, &a, &near, true), "within 2x spec");
        let far = vec![150.0, 200.0];
        assert!(!outputs_identical(&spec, &a, &far, true));
    }
}
