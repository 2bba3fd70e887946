//! The simulated device: global memory, launch orchestration, SM time model.

use crate::backend::{ExecBackend, Prepared, WarpCtx};
use crate::config::DeviceConfig;
use crate::fault::MemoryBurst;
use crate::hooks::HookRuntime;
use crate::interp::{ExecErr, WarpGeom};
use crate::memory::MemRegion;
use crate::outcome::{LaunchOutcome, TrapReason};
use crate::snapshot::{CaptureRun, Fnv1a, Snapshot, SnapshotError, Spliced};
use crate::stats::ExecStats;
use hauberk_kir::validate::validate_kernel;
use hauberk_kir::{KernelDef, MemSpace, PrimTy, PtrVal, Value};
use hauberk_telemetry::span::SpanGuard;
use hauberk_telemetry::{next_launch_id, Telemetry};
use std::time::Instant;

/// Launch geometry and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Grid dimensions in blocks.
    pub grid: (u32, u32),
    /// Block dimensions in threads (the bundled kernels use ≤ 32 threads per
    /// block in x — one warp — so `__syncthreads` is exact; larger blocks
    /// execute warps sequentially).
    pub block: (u32, u32),
    /// Total work-cycle budget; exceeding it yields
    /// [`LaunchOutcome::Hang`]. Use [`Launch::DEFAULT_BUDGET`] for
    /// effectively unbounded runs.
    pub cycle_budget: u64,
}

impl Launch {
    /// A budget that no sane kernel reaches (but a corrupted infinite loop
    /// eventually does, in bounded wall-clock time).
    pub const DEFAULT_BUDGET: u64 = 2_000_000_000;

    /// 1-D launch helper.
    pub fn grid1d(blocks: u32, threads_per_block: u32) -> Launch {
        Launch {
            grid: (blocks, 1),
            block: (threads_per_block, 1),
            cycle_budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Set the hang budget.
    pub fn with_budget(mut self, budget: u64) -> Launch {
        self.cycle_budget = budget;
        self
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.block.0 as u64 * self.block.1 as u64
    }

    /// Total blocks in the grid (blocks execute in linear id order, so this
    /// is also the count of snapshot boundaries + 1).
    pub fn total_blocks(&self) -> u32 {
        self.grid.0 * self.grid.1
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.0 * self.block.1
    }
}

/// A simulated GPU (or, with [`DeviceConfig::cpu`], a protected CPU).
pub struct Device {
    /// Device configuration.
    pub config: DeviceConfig,
    /// Global memory.
    pub mem: MemRegion,
    /// Telemetry pipeline; [`Telemetry::disabled`] by default, so every
    /// emit site reduces to one branch.
    pub telemetry: Telemetry,
}

impl Device {
    /// Create a device.
    pub fn new(config: DeviceConfig) -> Self {
        let mem = MemRegion::new(
            MemSpace::Global,
            config.global_mem_bytes,
            config.strict_memory,
        );
        Device {
            config,
            mem,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry pipeline (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Default GT200-like GPU.
    pub fn gpu() -> Self {
        Device::new(DeviceConfig::gpu())
    }

    /// Small GPU for tests.
    pub fn small_gpu() -> Self {
        Device::new(DeviceConfig::small_gpu())
    }

    /// CPU-mode device (strict memory, single lane).
    pub fn cpu() -> Self {
        Device::new(DeviceConfig::cpu())
    }

    /// Allocate `n` elements of `elem` in global memory.
    ///
    /// # Panics
    /// Panics if global memory is exhausted (host-side allocation failure,
    /// not a simulated fault).
    pub fn alloc(&mut self, elem: PrimTy, n: u32) -> PtrVal {
        self.mem
            .alloc(elem, n)
            .expect("device global memory exhausted")
    }

    /// Apply a memory-corruption burst (graphics fault experiments).
    pub fn inject_memory_burst(&mut self, burst: &MemoryBurst) {
        debug_assert_eq!(burst.space, MemSpace::Global);
        self.mem.corrupt_words(burst.addr, burst.words, burst.mask);
    }

    /// Launch `kernel` with parameter values `args`.
    ///
    /// Checks shared-memory fit (the launch-time analogue of the R-Scatter
    /// compile failure) and argument arity/types, then executes every block
    /// deterministically and aggregates the SM time model.
    pub fn launch(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
    ) -> LaunchOutcome {
        let tele = self.telemetry.clone();
        let launch_id = if tele.enabled() { next_launch_id() } else { 0 };
        let mut span = self.launch_span(&tele, kernel, launch_id);
        let out = self.launch_inner(kernel, args, launch, runtime, &mut span);
        span.attr("outcome", out.label());
        span.attr_with("kernel_cycles", || out.stats().kernel_cycles.to_string());
        span.attr_with("work_cycles", || out.stats().work_cycles.to_string());
        out
    }

    /// Open the `launch` span, the one trace record of a kernel launch. It
    /// nests under whatever the caller has open (a campaign work unit,
    /// typically) and records engine-tier timing: which backend ran,
    /// prepare vs. warp-execution nanoseconds. At close it also carries the
    /// launch's `outcome` and modeled cost: `kernel_cycles` (the launch's
    /// modeled wall clock) and `work_cycles` (the work cycles it executed).
    fn launch_span(&self, tele: &Telemetry, kernel: &KernelDef, launch_id: u64) -> SpanGuard {
        let mut span = tele.span("launch");
        span.attr_with("kernel", || kernel.name.clone());
        span.attr("engine", self.config.engine.name());
        span.attr_with("launch_id", || launch_id.to_string());
        span
    }

    fn launch_inner(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        span: &mut SpanGuard,
    ) -> LaunchOutcome {
        if let Err(out) = self.validate_launch(kernel, args) {
            return out;
        }

        // Engine selection is a backend lookup; preparation (compilation
        // through the build caches) runs once per launch — campaigns
        // relaunch the same instrumented kernel thousands of times, so the
        // caches make this a lookup.
        let backend = self.config.engine.backend();
        let timed = span.active();
        let t_prepare = timed.then(Instant::now);
        let prepared = backend.prepare(kernel, &self.config);
        if let Some(t) = t_prepare {
            span.attr_with("prepare_ns", || (t.elapsed().as_nanos() as u64).to_string());
        }

        let mut st = LaunchState::fresh(&self.config, launch);
        let mut exec_ns: u64 = 0;
        let out = match self.run_block_range(
            RunCtx {
                kernel,
                args,
                launch,
                runtime,
                backend,
                prepared: &prepared,
            },
            &mut st,
            0,
            launch.total_blocks(),
            timed.then_some(&mut exec_ns),
        ) {
            Some(early) => early,
            None => st.complete(),
        };
        if timed {
            span.attr_with("exec_ns", || exec_ns.to_string());
            span.attr_with("warps", || out.stats().warps.to_string());
        }
        out
    }

    /// Argument/shared-memory validation shared by every launch entry point.
    /// `Err` carries the crash outcome to return.
    fn validate_launch(&self, kernel: &KernelDef, args: &[Value]) -> Result<(), LaunchOutcome> {
        assert_eq!(args.len(), kernel.n_params, "kernel argument count");
        for (i, a) in args.iter().enumerate() {
            assert_eq!(
                a.ty(),
                kernel.vars[i].ty,
                "argument {i} type mismatch for kernel `{}`",
                kernel.name
            );
        }
        debug_assert!(validate_kernel(kernel).is_ok(), "launching invalid kernel");
        if kernel.shared_mem_bytes > self.config.shared_mem_per_block {
            return Err(LaunchOutcome::Crash {
                reason: TrapReason::SharedMemOverflow {
                    requested: kernel.shared_mem_bytes,
                    available: self.config.shared_mem_per_block,
                },
                stats: ExecStats::default(),
            });
        }
        Ok(())
    }

    /// Execute blocks `[from, to)` in linear id order against launch state
    /// `st`. Returns `Some(outcome)` on an early exit (trap or hang, state
    /// finalized), `None` when the whole range ran to completion. Linear id
    /// `b` maps to grid position `(b % grid.0, b / grid.0)` — the same
    /// row-major order the nested grid loops always used, which is what
    /// makes "before block `b`" a well-defined resume point.
    fn run_block_range(
        &mut self,
        ctx: RunCtx<'_>,
        st: &mut LaunchState,
        from: u32,
        to: u32,
        mut exec_ns: Option<&mut u64>,
    ) -> Option<LaunchOutcome> {
        let kernel = ctx.kernel;
        let launch = ctx.launch;
        let warps_per_block = launch.threads_per_block().div_ceil(self.config.warp_width);
        for block_lin in from..to {
            let (bx, by) = (block_lin % launch.grid.0, block_lin / launch.grid.0);
            let mut shared = MemRegion::new(
                MemSpace::Shared,
                self.config.shared_mem_per_block,
                self.config.strict_memory,
            );
            if kernel.shared_mem_bytes > 0 {
                // Materialize the block's static shared allocation so
                // addresses 0..shared_mem_bytes are valid.
                shared
                    .alloc(PrimTy::F32, kernel.shared_mem_bytes / 4)
                    .expect("checked against device limit above");
            }
            let before = st.stats.work_cycles;
            for warp_id in 0..warps_per_block {
                let geom = WarpGeom {
                    grid: launch.grid,
                    block_dim: launch.block,
                    block_idx: (bx, by),
                    warp_id,
                };
                let t_warp = exec_ns.is_some().then(Instant::now);
                let run_result = ctx.backend.run_warp(
                    ctx.prepared,
                    kernel,
                    WarpCtx {
                        cfg: &self.config,
                        global: &mut self.mem,
                        shared: &mut shared,
                        runtime: ctx.runtime,
                        stats: &mut st.stats,
                        budget: &mut st.budget,
                        geom,
                        args: ctx.args,
                    },
                );
                if let (Some(ns), Some(t)) = (exec_ns.as_deref_mut(), t_warp) {
                    *ns += t.elapsed().as_nanos() as u64;
                }
                match run_result {
                    Ok(()) => {}
                    Err(ExecErr::Trap(reason)) => {
                        finalize(&mut st.stats, &st.sm_cycles);
                        return Some(LaunchOutcome::Crash {
                            reason,
                            stats: st.stats.clone(),
                        });
                    }
                    Err(ExecErr::Hang) => {
                        finalize(&mut st.stats, &st.sm_cycles);
                        return Some(LaunchOutcome::Hang {
                            stats: st.stats.clone(),
                        });
                    }
                }
            }
            st.stats.blocks += 1;
            let block_cycles = st.stats.work_cycles - before;
            st.sm_cycles[(block_lin % self.config.num_sms) as usize] += block_cycles;
        }
        None
    }

    /// Run `kernel` to completion like [`Device::launch`], capturing a
    /// [`Snapshot`] before each block in `boundaries` and a state
    /// fingerprint before each block in `fences` (boundary `b` = "block `b`
    /// has not executed yet"; boundary `total_blocks` is the post-run
    /// state). This is the checkpoint reference pass: one full fault-free
    /// execution whose snapshots every injection in the campaign restores.
    ///
    /// Boundaries the run never reaches (trap or hang first) are absent from
    /// the result, as are fences whose `runtime` declines
    /// [`HookRuntime::state_fingerprint`].
    pub fn capture_launch(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        boundaries: &[u32],
        fences: &[u32],
    ) -> CaptureRun {
        if let Err(out) = self.validate_launch(kernel, args) {
            return CaptureRun {
                outcome: out,
                snapshots: Vec::new(),
                fences: Vec::new(),
            };
        }
        let backend = self.config.engine.backend();
        let prepared = backend.prepare(kernel, &self.config);
        let total = launch.total_blocks();

        // Merge both boundary sets into one sorted stop list.
        let mut stops: Vec<u32> = boundaries
            .iter()
            .chain(fences.iter())
            .map(|b| (*b).min(total))
            .collect();
        stops.sort_unstable();
        stops.dedup();

        let mut st = LaunchState::fresh(&self.config, launch);
        let mut run = CaptureRun {
            outcome: LaunchOutcome::Completed(ExecStats::default()),
            snapshots: Vec::new(),
            fences: Vec::new(),
        };
        let mut cursor = 0u32;
        for stop in stops.into_iter().chain(std::iter::once(total)) {
            if let Some(early) = self.run_block_range(
                RunCtx {
                    kernel,
                    args,
                    launch,
                    runtime: &mut *runtime,
                    backend,
                    prepared: &prepared,
                },
                &mut st,
                cursor,
                stop,
                None,
            ) {
                run.outcome = early;
                return run;
            }
            cursor = stop;
            if boundaries.contains(&stop) {
                run.snapshots.push((stop, self.snapshot_at(&st, stop)));
            }
            if fences.contains(&stop) {
                if let Some(fp) = self.state_fingerprint(&st, &*runtime) {
                    run.fences.push((stop, fp));
                }
            }
            if stop == total {
                break;
            }
        }
        run.outcome = st.complete();
        run
    }

    /// Restore `snap` and run the remaining blocks to completion — the
    /// resumed launch is bit-identical (outcome, stats, memory, hook
    /// deliveries) to a full launch whose first `snap.next_block()` blocks
    /// were fault-free, because that is exactly what the snapshot recorded.
    pub fn resume_launch(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        snap: &Snapshot,
    ) -> Result<LaunchOutcome, SnapshotError> {
        self.resume_spliced(kernel, args, launch, runtime, snap, u32::MAX, 0)
            .map(|s| match s {
                Spliced::Ran(out) => out,
                Spliced::Reconverged { .. } => {
                    unreachable!("no fence below total_blocks never reconverges")
                }
            })
    }

    /// Restore `snap`, run blocks up to the `fence` boundary, and compare
    /// the state fingerprint against `expected_fp` (from the reference
    /// capture pass). On a match the remaining blocks provably replay the
    /// fault-free reference, so execution stops and the caller splices the
    /// reference finals ([`Spliced::Reconverged`]); otherwise the run
    /// continues to its own completion ([`Spliced::Ran`]).
    ///
    /// A `fence` at or beyond the last block degrades to a plain resume.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_spliced(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        snap: &Snapshot,
        fence: u32,
        expected_fp: u64,
    ) -> Result<Spliced, SnapshotError> {
        if snap.engine != self.config.engine {
            return Err(SnapshotError::EngineMismatch {
                snapshot: snap.engine,
                device: self.config.engine,
            });
        }
        let total = launch.total_blocks();
        if snap.next_block > total {
            return Err(SnapshotError::BlockOutOfRange {
                next_block: snap.next_block,
                total_blocks: total,
            });
        }
        let tele = self.telemetry.clone();
        let launch_id = if tele.enabled() { next_launch_id() } else { 0 };
        let mut span = self.launch_span(&tele, kernel, launch_id);
        let run = self.resume_inner(
            kernel,
            args,
            launch,
            runtime,
            snap,
            (fence, expected_fp),
            &mut span,
        );
        let (outcome, spliced) = match &run {
            Spliced::Ran(out) => {
                span.attr_with("kernel_cycles", || out.stats().kernel_cycles.to_string());
                (out.label(), "false")
            }
            // Only a completed reference has fence fingerprints to match.
            // A spliced launch takes its outcome (and modeled
            // `kernel_cycles`) from that reference.
            Spliced::Reconverged { .. } => ("completed", "true"),
        };
        span.attr("outcome", outcome);
        span.attr("spliced", spliced);
        Ok(run)
    }

    /// The body of [`Device::resume_spliced`] under its open `launch` span:
    /// besides the attributes [`Device::launch`] records, it times the
    /// snapshot restore (`restore_ns`), and `warps` and `work_cycles` count
    /// only what this resumed launch executed.
    #[allow(clippy::too_many_arguments)]
    fn resume_inner(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        snap: &Snapshot,
        (fence, expected_fp): (u32, u64),
        span: &mut SpanGuard,
    ) -> Spliced {
        if let Err(out) = self.validate_launch(kernel, args) {
            return Spliced::Ran(out);
        }
        let backend = self.config.engine.backend();
        let timed = span.active();
        let t_prepare = timed.then(Instant::now);
        let prepared = backend.prepare(kernel, &self.config);
        if let Some(t) = t_prepare {
            span.attr_with("prepare_ns", || (t.elapsed().as_nanos() as u64).to_string());
        }
        let t_restore = timed.then(Instant::now);
        self.mem = snap.mem.clone();
        let mut st = LaunchState {
            stats: snap.stats.clone(),
            sm_cycles: snap.sm_cycles.clone(),
            budget: snap.budget,
        };
        if let Some(t) = t_restore {
            span.attr_with("restore_ns", || (t.elapsed().as_nanos() as u64).to_string());
        }
        let mut exec_ns = 0u64;
        macro_rules! run_blocks {
            ($from:expr, $to:expr) => {
                self.run_block_range(
                    RunCtx {
                        kernel,
                        args,
                        launch,
                        runtime: &mut *runtime,
                        backend,
                        prepared: &prepared,
                    },
                    &mut st,
                    $from,
                    $to,
                    timed.then_some(&mut exec_ns),
                )
            };
        }

        let total = launch.total_blocks();
        let splice_at = (fence < total).then_some(fence.max(snap.next_block));
        let stop = splice_at.unwrap_or(total);
        let mut early = run_blocks!(snap.next_block, stop);
        let reconverged = early.is_none()
            && splice_at.is_some()
            && self.state_fingerprint(&st, &*runtime) == Some(expected_fp);
        if early.is_none() && !reconverged {
            early = run_blocks!(stop, total);
        }
        if timed {
            span.attr_with("exec_ns", || exec_ns.to_string());
            span.attr_with("warps", || (st.stats.warps - snap.stats.warps).to_string());
            span.attr_with("work_cycles", || {
                (st.stats.work_cycles - snap.stats.work_cycles).to_string()
            });
        }
        if reconverged {
            return Spliced::Reconverged {
                executed_cycles: st.stats.work_cycles - snap.stats.work_cycles,
            };
        }
        Spliced::Ran(early.unwrap_or_else(|| st.complete()))
    }

    /// Snapshot the current launch state at boundary `next_block`.
    fn snapshot_at(&self, st: &LaunchState, next_block: u32) -> Snapshot {
        Snapshot {
            engine: self.config.engine,
            next_block,
            mem: self.mem.clone(),
            stats: st.stats.clone(),
            sm_cycles: st.sm_cycles.clone(),
            budget: st.budget,
        }
    }

    /// Fingerprint everything that can influence the rest of the launch:
    /// global memory (backed extent + brk — unbacked reads are a pure
    /// function of the address), cumulative stats, per-SM tallies, the
    /// remaining budget, and the runtime's own suffix-observable state.
    /// `None` when the runtime opts out of fingerprinting.
    fn state_fingerprint(&self, st: &LaunchState, runtime: &dyn HookRuntime) -> Option<u64> {
        let rt = runtime.state_fingerprint()?;
        let mut h = Fnv1a::new();
        for w in self.mem.backed_words() {
            h.write(&w.to_le_bytes());
        }
        h.write_u64(self.mem.allocated() as u64);
        h.write_u64(st.stats.work_cycles);
        h.write_u64(st.stats.loop_cycles);
        for c in st.stats.class_counts {
            h.write_u64(c);
        }
        h.write_u64(st.stats.paired_ops);
        h.write_u64(st.stats.mem_segments);
        h.write_u64(st.stats.blocks);
        h.write_u64(st.stats.warps);
        h.write_u64(st.stats.syncs);
        h.write_u64(st.stats.hooks);
        for c in &st.sm_cycles {
            h.write_u64(*c);
        }
        h.write_u64(st.budget);
        h.write_u64(rt);
        Some(h.finish())
    }
}

/// Everything immutable a block-range execution needs (per-call view; the
/// runtime is the one mutable guest).
struct RunCtx<'a> {
    kernel: &'a KernelDef,
    args: &'a [Value],
    launch: &'a Launch,
    runtime: &'a mut dyn HookRuntime,
    backend: &'a dyn ExecBackend,
    prepared: &'a Prepared,
}

/// The launch-wide mutable state threaded through the block loop — exactly
/// what a [`Snapshot`] captures alongside global memory.
struct LaunchState {
    stats: ExecStats,
    sm_cycles: Vec<u64>,
    budget: u64,
}

impl LaunchState {
    fn fresh(config: &DeviceConfig, launch: &Launch) -> LaunchState {
        LaunchState {
            stats: ExecStats::default(),
            sm_cycles: vec![0u64; config.num_sms as usize],
            budget: launch.cycle_budget,
        }
    }

    /// Finalize after all blocks completed.
    fn complete(mut self) -> LaunchOutcome {
        finalize(&mut self.stats, &self.sm_cycles);
        LaunchOutcome::Completed(self.stats)
    }
}

fn finalize(stats: &mut ExecStats, sm_cycles: &[u64]) {
    stats.kernel_cycles = sm_cycles.iter().copied().max().unwrap_or(0).max(
        // Crashed/hung before any block finished: fall back to work cycles.
        if sm_cycles.iter().all(|c| *c == 0) {
            stats.work_cycles
        } else {
            0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullRuntime;
    use hauberk_kir::parser::parse_kernel;

    fn saxpy_kernel() -> KernelDef {
        parse_kernel(
            r#"kernel saxpy(y: *global f32, x: *global f32, a: f32, n: i32) {
                let i: i32 = block_idx_x() * block_dim_x() + thread_idx_x();
                if (i < n) {
                    let v: f32 = a * load(x, i) + load(y, i);
                    store(y, i, v);
                }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn saxpy_computes_correctly() {
        let mut dev = Device::small_gpu();
        let n = 100u32;
        let y = dev.alloc(PrimTy::F32, n);
        let x = dev.alloc(PrimTy::F32, n);
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5).collect();
        dev.mem.copy_in_f32(x, &xs);
        dev.mem.copy_in_f32(y, &ys);
        let k = saxpy_kernel();
        let launch = Launch::grid1d(n.div_ceil(32), 32);
        let out = dev.launch(
            &k,
            &[
                Value::Ptr(y),
                Value::Ptr(x),
                Value::F32(2.0),
                Value::I32(n as i32),
            ],
            &launch,
            &mut NullRuntime,
        );
        assert!(out.is_completed(), "{out:?}");
        let r = dev.mem.copy_out_f32(y, n);
        for (i, v) in r.iter().enumerate().take(n as usize) {
            assert_eq!(*v, 2.0 * i as f32 + (i as f32) * 0.5);
        }
        let s = out.stats();
        assert_eq!(s.blocks, 4);
        assert!(s.kernel_cycles > 0 && s.kernel_cycles <= s.work_cycles);
    }

    #[test]
    fn launch_span_is_the_one_record_of_a_launch() {
        let sink = std::sync::Arc::new(hauberk_telemetry::MemorySink::unbounded());
        let mut dev = Device::small_gpu().with_telemetry(Telemetry::new(sink.clone()));
        let n = 64u32;
        let y = dev.alloc(PrimTy::F32, n);
        let x = dev.alloc(PrimTy::F32, n);
        let args = [
            Value::Ptr(y),
            Value::Ptr(x),
            Value::F32(2.0),
            Value::I32(n as i32),
        ];
        let out = dev.launch(
            &saxpy_kernel(),
            &args,
            &Launch::grid1d(2, 32),
            &mut NullRuntime,
        );
        let events = sink.events();
        assert_eq!(events.len(), 1, "{events:?}");
        let hauberk_telemetry::Event::Span { name, attrs, .. } = &events[0] else {
            panic!("not a span: {events:?}");
        };
        assert_eq!(*name, "launch");
        let attr = |k: &str| attrs.iter().find(|(a, _)| *a == k).map(|(_, v)| v.clone());
        let s = out.stats();
        assert_eq!(attr("outcome").as_deref(), Some("completed"));
        assert_eq!(attr("kernel_cycles"), Some(s.kernel_cycles.to_string()));
        assert_eq!(attr("work_cycles"), Some(s.work_cycles.to_string()));
    }

    #[test]
    fn loop_kernel_attributes_loop_cycles() {
        let k = parse_kernel(
            r#"kernel acc(out: *global f32, x: *global f32, n: i32) {
                let i: i32 = thread_idx_x();
                let s: f32 = 0.0;
                for (j = 0; j < n; j = j + 1) {
                    s = s + load(x, j) * load(x, j);
                }
                store(out, i, s);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::F32, 32);
        let x = dev.alloc(PrimTy::F32, 64);
        dev.mem.copy_in_f32(x, &vec![1.0; 64]);
        let launch = Launch::grid1d(1, 32);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out), Value::Ptr(x), Value::I32(64)],
            &launch,
            &mut NullRuntime,
        );
        let s = r.completed_stats().unwrap();
        assert!(
            s.loop_fraction() > 0.9,
            "loop-dominant kernel: {}",
            s.loop_fraction()
        );
        assert_eq!(dev.mem.copy_out_f32(out, 1)[0], 64.0);
    }

    #[test]
    fn divergence_executes_both_arms() {
        let k = parse_kernel(
            r#"kernel d(out: *global i32) {
                let i: i32 = thread_idx_x();
                let v: i32 = 0;
                if (i % 2 == 0) {
                    v = 10;
                } else {
                    v = 20;
                }
                store(out, i, v);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::I32, 32);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out)],
            &Launch::grid1d(1, 32),
            &mut NullRuntime,
        );
        assert!(r.is_completed());
        let v = dev.mem.copy_out_i32(out, 4);
        assert_eq!(v, vec![10, 20, 10, 20]);
    }

    #[test]
    fn while_and_break_reconverge() {
        let k = parse_kernel(
            r#"kernel w(out: *global i32, n: i32) {
                let i: i32 = thread_idx_x();
                let c: i32 = 0;
                while (true) {
                    c = c + 1;
                    if (c > i) {
                        break;
                    }
                }
                store(out, i, c);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::I32, 32);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out), Value::I32(0)],
            &Launch::grid1d(1, 8),
            &mut NullRuntime,
        );
        assert!(r.is_completed(), "{r:?}");
        let v = dev.mem.copy_out_i32(out, 8);
        assert_eq!(v, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn infinite_loop_hangs_at_budget() {
        let k = parse_kernel(
            r#"kernel h(out: *global i32) {
                let x: i32 = 0;
                while (true) {
                    x = x + 1;
                }
                store(out, 0, x);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::I32, 4);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out)],
            &Launch {
                grid: (1, 1),
                block: (1, 1),
                cycle_budget: 10_000,
            },
            &mut NullRuntime,
        );
        assert!(matches!(r, LaunchOutcome::Hang { .. }), "{r:?}");
    }

    #[test]
    fn shared_mem_overflow_fails_launch() {
        let k = parse_kernel(
            r#"kernel s(out: *global i32) shared 999999 {
                store(out, 0, 1);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::I32, 4);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out)],
            &Launch::grid1d(1, 1),
            &mut NullRuntime,
        );
        assert!(matches!(
            r,
            LaunchOutcome::Crash {
                reason: TrapReason::SharedMemOverflow { .. },
                ..
            }
        ));
    }

    #[test]
    fn shared_memory_is_per_block_usable() {
        let k = parse_kernel(
            r#"kernel sh(out: *global f32) shared 256 {
                let s: *shared f32 = shared_f32();
                let i: i32 = thread_idx_x();
                store(s, i, cast<f32>(i) * 2.0);
                sync();
                store(out, block_idx_x() * block_dim_x() + i, load(s, i));
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::F32, 64);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out)],
            &Launch::grid1d(2, 32),
            &mut NullRuntime,
        );
        assert!(r.is_completed(), "{r:?}");
        let v = dev.mem.copy_out_f32(out, 64);
        assert_eq!(v[5], 10.0);
        assert_eq!(v[37], 10.0);
    }

    #[test]
    fn cpu_mode_traps_on_oob() {
        let k = parse_kernel(
            r#"kernel c(p: *global i32) {
                store(p, 1000000, 1);
            }"#,
        )
        .unwrap();
        let mut dev = Device::cpu();
        let p = dev.alloc(PrimTy::I32, 16);
        let r = dev.launch(
            &k,
            &[Value::Ptr(p)],
            &Launch::grid1d(1, 1),
            &mut NullRuntime,
        );
        assert!(matches!(
            r,
            LaunchOutcome::Crash {
                reason: TrapReason::OutOfBounds { .. },
                ..
            }
        ));
    }

    #[test]
    fn gpu_mode_wraps_on_oob_silently() {
        let k = parse_kernel(
            r#"kernel g(p: *global i32) {
                store(p, 1000000, 77);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let p = dev.alloc(PrimTy::I32, 16);
        let r = dev.launch(
            &k,
            &[Value::Ptr(p)],
            &Launch::grid1d(1, 1),
            &mut NullRuntime,
        );
        assert!(r.is_completed(), "no page protection on GPU: {r:?}");
    }

    #[test]
    fn determinism_same_launch_same_stats() {
        let k = saxpy_kernel();
        let run = || {
            let mut dev = Device::small_gpu();
            let y = dev.alloc(PrimTy::F32, 64);
            let x = dev.alloc(PrimTy::F32, 64);
            dev.mem.copy_in_f32(x, &vec![1.5; 64]);
            dev.mem.copy_in_f32(y, &vec![2.5; 64]);
            let r = dev.launch(
                &k,
                &[
                    Value::Ptr(y),
                    Value::Ptr(x),
                    Value::F32(3.0),
                    Value::I32(64),
                ],
                &Launch::grid1d(2, 32),
                &mut NullRuntime,
            );
            (r.stats().clone(), dev.mem.copy_out_f32(y, 64))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn register_live_fault_corrupts_between_uses() {
        use crate::fault::{ArmedFault, FaultArm, FaultSite};
        use crate::hooks::RegCorruption;
        use hauberk_kir::builder::KernelBuilder;
        use hauberk_kir::stmt::{Hook, HookKind, Stmt};
        use hauberk_kir::{Expr, HwComponent, Ty};

        // a = 5; @fi(site 0, target a); b = 7; @fi(site 1, target b);
        // store(out,0,a); store(out,1,b);
        let mut b = KernelBuilder::new("reg");
        let out = b.param("out", Ty::global_ptr(PrimTy::I32));
        let a = b.let_("a", Ty::I32, hauberk_kir::Expr::i32(5));
        b.stmt(Stmt::Hook(Hook {
            kind: HookKind::FiPoint {
                hw: HwComponent::IAlu,
            },
            site: 0,
            args: vec![],
            target: Some(a),
        }));
        let bv = b.let_("b", Ty::I32, hauberk_kir::Expr::i32(7));
        b.stmt(Stmt::Hook(Hook {
            kind: HookKind::FiPoint {
                hw: HwComponent::IAlu,
            },
            site: 1,
            args: vec![],
            target: Some(bv),
        }));
        b.store(Expr::var(out), Expr::i32(0), Expr::var(a));
        b.store(Expr::var(out), Expr::i32(1), Expr::var(bv));
        let k = b.finish();

        /// Minimal FI runtime delivering register-live corruptions.
        struct RegFi {
            arm: FaultArm,
        }
        impl HookRuntime for RegFi {
            fn on_hook(&mut self, hook: &hauberk_kir::Hook, ctx: &mut crate::hooks::HookCtx<'_>) {
                self.arm.at_hook(hook.site, ctx);
            }
            fn register_corruption(
                &mut self,
                hook: &hauberk_kir::Hook,
                first_thread: u32,
                active: u32,
            ) -> Option<RegCorruption> {
                self.arm.poll_register(hook.site, first_thread, active, 32)
            }
        }

        // Corrupt `a` (already defined, sitting in a register) at site 1 —
        // i.e. AFTER b's definition, BETWEEN a's def and its use.
        let mut rt = RegFi {
            arm: FaultArm::new(Some(ArmedFault {
                site: FaultSite::RegisterLive { site: 1, var: a },
                thread: 0,
                occurrence: 1,
                mask: 0b10, // 5 ^ 2 = 7
            })),
        };
        let mut dev = Device::small_gpu();
        let outp = dev.alloc(PrimTy::I32, 4);
        let r = dev.launch(&k, &[Value::Ptr(outp)], &Launch::grid1d(1, 1), &mut rt);
        assert!(r.is_completed(), "{r:?}");
        assert!(rt.arm.delivered());
        let v = dev.mem.copy_out_i32(outp, 2);
        assert_eq!(v[0], 7, "a was corrupted after b's definition (5^2)");
        assert_eq!(v[1], 7, "b untouched");
    }

    #[test]
    fn atomic_add_accumulates_across_threads() {
        let k = parse_kernel(
            r#"kernel a(c: *global i32) {
                atomic_add(c, 0, 1);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let c = dev.alloc(PrimTy::I32, 4);
        let r = dev.launch(
            &k,
            &[Value::Ptr(c)],
            &Launch::grid1d(4, 32),
            &mut NullRuntime,
        );
        assert!(r.is_completed());
        assert_eq!(dev.mem.copy_out_i32(c, 1)[0], 128);
    }
}
