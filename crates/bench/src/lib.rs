#![warn(missing_docs)]

//! # hauberk-bench — regeneration of every table and figure
//!
//! Each module reproduces one experiment of the paper's evaluation; the
//! `figures` binary drives them and prints the same rows/series the paper
//! reports. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record and the figure-by-figure reproduction guide.
//!
//! Binaries (`cargo run --release -p hauberk-bench --bin <name>`):
//!
//! * `figures` — regenerate the paper's figures/tables (positional figure
//!   names, `--paper`, `--json`).
//! * `campaign` — one program's fault-injection campaign with CSV/trace
//!   export and the orchestration layer: `--journal`/`--resume` checkpoints,
//!   `--shard I/M` + the `merge-journals` subcommand, `--adaptive`
//!   Wilson-interval early stopping (README "Campaign operations").
//! * `campaign_bench` — adaptive-vs-uniform sampling cost, writes
//!   `BENCH_campaign.json` (asserts the ≥2x reduction claim).
//! * `hardening_bench` — the selective-hardening Pareto front, writes
//!   `BENCH_hardening.json` (asserts the coverage/overhead claims).
//!
//! Timing lives in one place, the end-to-end benchmark under `perfbench/`
//! (`BENCHMARK.json`). `tests/golden/` pins the CLI JSON output shapes
//! (refresh with `UPDATE_GOLDEN=1`).

pub mod ablation;
pub mod alpha_cov;
pub mod fig1;
pub mod fig10;
pub mod fig14;
pub mod fig16;
pub mod fig2;
pub mod fig3;
pub mod fig9;
pub mod guardian_cases;
pub mod instr_time;
pub mod perf;
pub mod report;
