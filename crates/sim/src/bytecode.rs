//! Compiled kernels and the process-wide build cache.
//!
//! A [`CompiledKernel`] bundles the bytecode from `hauberk-kir::lower` with
//! the table the VM wants preresolved per instruction stream instead of per
//! dispatch: hook costs (which depend on the device's [`CostModel`]).
//!
//! [`compile_cached`] is the campaign-scale entry point: SWIFI campaigns
//! launch the *same* instrumented kernel thousands of times (once per
//! injection, across rayon workers), so the translator output is compiled
//! once and shared via `Arc`. The cache key is the **printed kernel text**
//! plus the cost model's debug rendering — string equality, deliberately not
//! a hash, so a collision can never silently execute the wrong program. The
//! batch engine's plan ([`compile_batch_cached`](crate::compile_batch_cached))
//! lives in the same entry, so each kernel holds one key and one lowering.

use crate::config::CostModel;
use crate::interp::hook_cost;
use crate::vm_batch::BatchCompiled;
use hauberk_kir::lower::{lower_kernel, LoweredKernel};
use hauberk_kir::printer::print_kernel;
use hauberk_kir::KernelDef;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Bytecode plus the preresolved per-hook cost table.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// The lowered instruction stream and register layout.
    pub lowered: LoweredKernel,
    /// Dispatch cost of each hook (indexed like [`LoweredKernel::hooks`]).
    pub hook_costs: Vec<u64>,
}

/// Compile `kernel` for a device with cost model `cost` (uncached).
pub fn compile(kernel: &KernelDef, cost: &CostModel) -> CompiledKernel {
    let lowered = lower_kernel(kernel);
    let hook_costs = lowered
        .hooks
        .iter()
        .map(|h| hook_cost(cost, &h.kind))
        .collect();
    CompiledKernel {
        lowered,
        hook_costs,
    }
}

/// Cap on cached entries. A campaign's working set is one or two builds,
/// so a small cap bounds resident memory without recompiling inside a
/// campaign; past it the least recently used entry is evicted (property
/// tests churn through thousands of generated kernels).
const CACHE_CAP: usize = 32;

/// One build-cache entry: a kernel's per-op compilation, plus the batch plan
/// built on top of it once a batch-engine launch asks for one. Both engines
/// share the entry, so a kernel is lowered once and keyed once.
pub(crate) struct Builds {
    /// The bytecode compilation.
    pub(crate) compiled: Arc<CompiledKernel>,
    /// The batch plan over `compiled` (built on first use).
    pub(crate) batch: Option<Arc<BatchCompiled>>,
    /// Lookup tick of the entry's last use (eviction order).
    used: u64,
}

/// The build cache: entries keyed by cost model + kernel text, and the
/// lookup counter that orders them by recency.
#[derive(Default)]
struct BuildCache {
    tick: u64,
    entries: HashMap<Box<str>, Builds>,
}

fn cache() -> &'static Mutex<BuildCache> {
    static CACHE: OnceLock<Mutex<BuildCache>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// Run `f` on the build-cache entry of `kernel` under `cost`, compiling the
/// bytecode half on a miss. The cache lock is held throughout, so every
/// worker of a campaign shares one compilation.
pub(crate) fn with_builds<T>(
    kernel: &KernelDef,
    cost: &CostModel,
    f: impl FnOnce(&mut Builds) -> T,
) -> T {
    let key = format!("{:?}\u{0}{}", cost, print_kernel(kernel)).into_boxed_str();
    let mut cache = hauberk_telemetry::lock_recover(cache());
    cache.tick += 1;
    let tick = cache.tick;
    if cache.entries.len() >= CACHE_CAP && !cache.entries.contains_key(&key) {
        let oldest = cache.entries.values().map(|b| b.used).min();
        cache.entries.retain(|_, b| Some(b.used) != oldest);
    }
    let builds = cache.entries.entry(key).or_insert_with(|| Builds {
        compiled: Arc::new(compile(kernel, cost)),
        batch: None,
        used: tick,
    });
    builds.used = tick;
    f(builds)
}

/// Compile `kernel` through the process-wide build cache.
///
/// Keyed by kernel text + cost model, so the same instrumented build is
/// compiled once per campaign and shared across all rayon workers.
pub fn compile_cached(kernel: &KernelDef, cost: &CostModel) -> Arc<CompiledKernel> {
    with_builds(kernel, cost, |b| Arc::clone(&b.compiled))
}

/// Disassemble `kernel` as the bytecode engine would execute it (the
/// minimal-repro artifact the differential tests print on divergence).
pub fn disassemble(kernel: &KernelDef) -> String {
    lower_kernel(kernel).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk_kir::builder::KernelBuilder;
    use hauberk_kir::{Expr, PrimTy, Ty};

    fn tiny() -> KernelDef {
        let mut b = KernelBuilder::new("tiny");
        let out = b.param("out", Ty::global_ptr(PrimTy::F32));
        b.store(Expr::var(out), Expr::i32(0), Expr::f32(1.0));
        b.finish()
    }

    #[test]
    fn cache_shares_compilations() {
        let k = tiny();
        let cost = CostModel::default();
        let a = compile_cached(&k, &cost);
        let b = compile_cached(&k, &cost);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_distinguishes_cost_models() {
        let k = tiny();
        let a = compile_cached(&k, &CostModel::default());
        let b = compile_cached(
            &k,
            &CostModel {
                mem_base: 99,
                ..CostModel::default()
            },
        );
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn disassembly_mentions_the_store() {
        let d = disassemble(&tiny());
        assert!(d.contains("store"), "{d}");
    }
}
