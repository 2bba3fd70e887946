#![warn(missing_docs)]

//! # hauberk — lightweight SDC error detection for GPGPU programs
//!
//! The core of the reproduction of *"Hauberk: Lightweight Silent Data
//! Corruption Error Detector for GPGPU"* (Yim, Pham, Saleheen, Kalbarczyk,
//! Iyer — IPDPS 2011): a source-to-source translator (over the
//! [`hauberk_kir`] kernel IR) that derives and places customized error
//! detectors, the value-range model behind the loop detectors, the control
//! block that carries detection state between GPU and CPU, and the four
//! library runtimes (profiler, FT, FI, FI&FT) of the paper's Fig. 7.
//!
//! ## The two detectors
//!
//! * **Non-loop detector** ([`translator::nonloop`]) — every virtual variable
//!   defined outside loops is protected by *duplication + a shared XOR
//!   checksum*: the definition is duplicated and compared immediately
//!   (catching ALU/FPU faults during the computation), and the value is
//!   XOR-folded into one per-kernel checksum twice — at the definition and
//!   after the last use — so any register-file corruption in between leaves
//!   the checksum non-zero at kernel exit (catching storage faults) without
//!   doubling register pressure.
//! * **Loop detector** ([`translator::loops`]) — per loop, the virtual
//!   variable with the largest *cumulative backward dataflow dependency*
//!   (plus every self-accumulating variable) is protected by accumulating its
//!   value and an iteration counter inside the loop (two add instructions)
//!   and range-checking the average after the loop against profiled value
//!   ranges; the loop trip count is checked as an invariant where it can be
//!   derived statically.
//!
//! ## Build variants (Fig. 7)
//!
//! [`builds::build`] produces the five program binaries of the paper's
//! framework from one kernel: baseline, profiler, FT, FI, and FI&FT —
//! plus the two comparison baselines, R-Naïve (host-level re-execution,
//! [`builds::r_naive_cycles`]) and R-Scatter ([`translator::rscatter`]).
//!
//! ```
//! use hauberk::builds::{build, BuildVariant, FtOptions};
//! use hauberk_kir::parser::parse_kernel;
//!
//! let k = parse_kernel(
//!     r#"kernel dot(out: *global f32, x: *global f32, n: i32) {
//!         let acc: f32 = 0.0;
//!         for (i = 0; i < n; i = i + 1) {
//!             acc = acc + load(x, i) * load(x, i);
//!         }
//!         store(out, thread_idx_x(), acc);
//!     }"#,
//! ).unwrap();
//! let ft = build(&k, BuildVariant::Ft(FtOptions::default())).unwrap();
//! assert_eq!(ft.detectors.len(), 1);            // one protected loop variable
//! assert!(ft.kernel.vars.len() > k.vars.len()); // checksum/counter locals added
//! ```
//!
//! ## Cross-crate dataflow
//!
//! This crate is the hub of the workspace; data flows through it in both
//! directions:
//!
//! ```text
//!  hauberk-kir          hauberk (this crate)              hauberk-sim
//!  ───────────          ────────────────────              ───────────
//!  KernelDef  ──parse──▶ translator passes ──instrumented──▶ Device
//!  analyses   ──deps───▶ (NL/L/FI/R-Scatter)    AST          │ launch
//!                        │                                   ▼
//!                        │  [`runtime`]s ◀──hook dispatch── interp / vm
//!                        │  profiler·FT·FI·FI&FT             │
//!                        ▼                                   ▼
//!                 [`ranges`] value model              LaunchOutcome + stats
//!                 [`control`] ControlBlock ──alarms──▶ hauberk-swifi
//!                 [`units`] strata/work units ◀──plans── (campaigns,
//!                        │                                classification)
//!                        ▼                                   │
//!                 hauberk-guardian (retry, diagnose)         ▼
//!                        ▲                            hauberk-bench figures
//!                        └────── hauberk-telemetry events ◀──┘
//! ```
//!
//! `hauberk-benchmarks` supplies the [`program::HostProgram`]s everything
//! runs against; `hauberk-telemetry` sits below every crate and carries the
//! structured event stream.

pub mod builds;
pub mod canon;
pub mod control;
pub mod pipeline;
pub mod program;
pub mod ranges;
pub mod runtime;
pub mod textprog;
pub mod translator;
pub mod units;

pub use builds::{build, BuildVariant, FtOptions, Instrumented};
pub use control::ControlBlock;
pub use pipeline::{build_all, BuildSet, ProtectedProgram};
pub use program::{run_program, run_program_with_engine};
pub use program::{CorrectnessSpec, HostProgram, MemBreakdown, ProgramRun};
pub use ranges::{Range, RangeSet};
pub use runtime::{FiFtRuntime, FiRuntime, FtRuntime, ProfilerRuntime};
pub use units::{Stratum, WorkUnitId};
