//! The `ExecBackend` abstraction: one interface over all execution engines.
//!
//! The device's launch loop used to `match` on [`ExecEngine`] inline —
//! compile for the bytecode VM, skip compilation for the tree walker, pick
//! the executor per warp. Each new tier would have widened every such match
//! (in `device.rs` and anywhere else that selects an engine). Instead, each
//! tier now implements [`ExecBackend`]:
//!
//! * [`ExecBackend::prepare`] runs once per launch and produces whatever
//!   per-launch artifact the tier wants (nothing for the tree walker; a
//!   cached [`CompiledKernel`] for the bytecode VM; a
//!   [`BatchCompiled`] — bytecode + region plan — for the batch tier);
//! * [`ExecBackend::run_warp`] executes one warp against that artifact,
//!   with all mutable launch state passed through [`WarpCtx`] (memory,
//!   runtime hooks for fault injection, stats, cycle budget).
//!
//! The contract every backend must honor is **observational equivalence**:
//! identical `ExecStats`, trap/hang ordering, hook and fault-injection
//! windows, and output bits for the same kernel and launch — engines may
//! differ only in speed. The three-way differential suite at the workspace
//! root enforces this.
//!
//! [`ExecEngine::backend`] maps the config enum to a `&'static dyn
//! ExecBackend`, which is the *only* place an engine match remains.

use crate::bytecode::{compile_cached, CompiledKernel};
use crate::config::{DeviceConfig, ExecEngine};
use crate::hooks::HookRuntime;
use crate::interp::{ExecErr, WarpExec, WarpGeom};
use crate::memory::MemRegion;
use crate::stats::ExecStats;
use crate::vm::VmExec;
use crate::vm_batch::{compile_batch_cached, BatchCompiled};
use hauberk_kir::{KernelDef, Value};
use std::any::Any;
use std::sync::Arc;

/// Everything a backend needs to execute one warp: the launch's mutable
/// state plus this warp's geometry. Borrowed fresh for each warp from the
/// device's launch loop.
pub struct WarpCtx<'a> {
    /// Device configuration (cost model, warp width, strictness).
    pub cfg: &'a DeviceConfig,
    /// Global memory.
    pub global: &'a mut MemRegion,
    /// This block's shared memory.
    pub shared: &'a mut MemRegion,
    /// Hook/fault runtime (the injection and alarm surface).
    pub runtime: &'a mut dyn HookRuntime,
    /// Launch-wide execution statistics.
    pub stats: &'a mut ExecStats,
    /// Remaining launch cycle budget.
    pub budget: &'a mut u64,
    /// This warp's geometry.
    pub geom: WarpGeom,
    /// Kernel arguments (broadcast to lanes).
    pub args: &'a [Value],
}

/// A backend's per-launch compilation artifact, opaque to the device.
/// Backends downcast it back in [`ExecBackend::run_warp`].
pub struct Prepared(Option<Arc<dyn Any + Send + Sync>>);

impl Prepared {
    /// No artifact (interpretation straight off the AST).
    pub fn none() -> Self {
        Prepared(None)
    }

    /// Wrap a backend artifact.
    pub fn new<T: Any + Send + Sync>(artifact: Arc<T>) -> Self {
        Prepared(Some(artifact))
    }

    /// Downcast back to the concrete artifact type.
    ///
    /// # Panics
    /// Panics if no artifact was prepared or the type differs — both are
    /// backend implementation bugs (`prepare` and `run_warp` belong to the
    /// same impl).
    pub fn get<T: Any>(&self) -> &T {
        self.0
            .as_deref()
            .expect("backend prepared no artifact")
            .downcast_ref::<T>()
            .expect("backend artifact type mismatch")
    }
}

/// One execution engine behind a uniform interface. Implementations must be
/// observationally equivalent (stats, traps, hooks, faults, outputs) and
/// stateless (`&self`; all launch state lives in [`WarpCtx`]), so a single
/// `&'static` instance serves all launches on all threads.
pub trait ExecBackend: Sync {
    /// Which engine this backend implements.
    fn engine(&self) -> ExecEngine;

    /// Per-launch preparation (compilation through the build caches).
    fn prepare(&self, kernel: &KernelDef, cfg: &DeviceConfig) -> Prepared;

    /// Execute one warp to completion.
    fn run_warp(
        &self,
        prepared: &Prepared,
        kernel: &KernelDef,
        ctx: WarpCtx<'_>,
    ) -> Result<(), ExecErr>;
}

/// The tree-walking reference interpreter (no compilation).
pub struct TreeWalkBackend;

impl ExecBackend for TreeWalkBackend {
    fn engine(&self) -> ExecEngine {
        ExecEngine::TreeWalk
    }

    fn prepare(&self, _kernel: &KernelDef, _cfg: &DeviceConfig) -> Prepared {
        Prepared::none()
    }

    fn run_warp(
        &self,
        _prepared: &Prepared,
        kernel: &KernelDef,
        ctx: WarpCtx<'_>,
    ) -> Result<(), ExecErr> {
        WarpExec::new(
            kernel,
            ctx.cfg,
            ctx.global,
            ctx.shared,
            ctx.runtime,
            ctx.stats,
            ctx.budget,
            ctx.geom,
            ctx.args,
        )
        .run()
    }
}

/// The per-op bytecode VM (compiles through the process-wide build cache).
pub struct BytecodeBackend;

impl ExecBackend for BytecodeBackend {
    fn engine(&self) -> ExecEngine {
        ExecEngine::Bytecode
    }

    fn prepare(&self, kernel: &KernelDef, cfg: &DeviceConfig) -> Prepared {
        Prepared::new(compile_cached(kernel, &cfg.cost))
    }

    fn run_warp(
        &self,
        prepared: &Prepared,
        _kernel: &KernelDef,
        ctx: WarpCtx<'_>,
    ) -> Result<(), ExecErr> {
        let compiled = prepared.get::<CompiledKernel>();
        VmExec::new(
            compiled,
            ctx.cfg,
            ctx.global,
            ctx.shared,
            ctx.runtime,
            ctx.stats,
            ctx.budget,
            ctx.geom,
            ctx.args,
        )
        .run()
    }
}

/// The batch tier: the bytecode VM plus the lane-blocked region fast path.
pub struct BatchBackend;

impl ExecBackend for BatchBackend {
    fn engine(&self) -> ExecEngine {
        ExecEngine::Batch
    }

    fn prepare(&self, kernel: &KernelDef, cfg: &DeviceConfig) -> Prepared {
        Prepared::new(compile_batch_cached(kernel, &cfg.cost))
    }

    fn run_warp(
        &self,
        prepared: &Prepared,
        _kernel: &KernelDef,
        ctx: WarpCtx<'_>,
    ) -> Result<(), ExecErr> {
        let bc = prepared.get::<BatchCompiled>();
        VmExec::new(
            &bc.compiled,
            ctx.cfg,
            ctx.global,
            ctx.shared,
            ctx.runtime,
            ctx.stats,
            ctx.budget,
            ctx.geom,
            ctx.args,
        )
        .with_batch(&bc.batch)
        .run()
    }
}

impl ExecEngine {
    /// The backend implementing this engine — the single remaining
    /// engine-selection point in the simulator.
    pub fn backend(self) -> &'static dyn ExecBackend {
        match self {
            ExecEngine::TreeWalk => &TreeWalkBackend,
            ExecEngine::Bytecode => &BytecodeBackend,
            ExecEngine::Batch => &BatchBackend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_roundtrips_engine() {
        for e in ExecEngine::ALL {
            assert_eq!(e.backend().engine(), e);
        }
    }

    #[test]
    #[should_panic(expected = "prepared no artifact")]
    fn prepared_none_panics_on_get() {
        Prepared::none().get::<CompiledKernel>();
    }
}
