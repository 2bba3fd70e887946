//! §IX.D — instrumentation time: how long the translator takes per HPC
//! kernel.
//!
//! The paper reports ~0.7 s per kernel for the CETUS transformation proper
//! (81 s including C preprocessing and parsing of full CUDA sources). This
//! times our equivalents on each HPC program's kernel: parsing its
//! mini-CUDA source, the FT derivation (dataflow analyses plus the non-loop
//! and loop detector passes) and the FI mutation. Each number is the
//! minimum of [`RUNS`] wall-clock runs.
//!
//! Wall-clock time is not byte-stable, so `figures all` leaves this section
//! out; `figures instr` prints it.

use crate::report::Table;
use hauberk::builds::{build, BuildVariant, FtOptions};
use hauberk_benchmarks::{hpc_suite, ProblemScale};
use std::hint::black_box;
use std::time::Instant;

/// Runs per measurement; the reported time is their minimum.
pub const RUNS: u32 = 50;

/// Instrumentation time of one program's kernel, in microseconds.
#[derive(Debug, Clone)]
pub struct InstrTime {
    /// Program name.
    pub program: &'static str,
    /// Parsing the kernel source.
    pub parse_us: f64,
    /// The FT build (detector derivation and insertion).
    pub ft_us: f64,
    /// The FI build (fault-injection point mutation).
    pub fi_us: f64,
}

/// Minimum wall time of [`RUNS`] calls of `f`, in microseconds.
fn min_us<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time parse, FT and FI for every HPC program, [`RUNS`] times each.
pub fn run() -> Vec<InstrTime> {
    hpc_suite(ProblemScale::Quick)
        .iter()
        .map(|prog| {
            let kernel = prog.build_kernel();
            InstrTime {
                program: prog.name(),
                parse_us: min_us(|| prog.build_kernel()),
                ft_us: min_us(|| {
                    build(&kernel, BuildVariant::Ft(FtOptions::default())).expect("FT build")
                }),
                fi_us: min_us(|| build(&kernel, BuildVariant::Fi).expect("FI build")),
            }
        })
        .collect()
}

/// One row per program; times in microseconds.
pub fn render(rows: &[InstrTime]) -> Table {
    let mut t = Table::new(
        format!("§IX.D — instrumentation time per kernel (µs, minimum of {RUNS} runs)"),
        &["program", "parse_us", "ft_us", "fi_us"],
    );
    for r in rows {
        t.row(vec![
            r.program.to_string(),
            format!("{:.1}", r.parse_us),
            format!("{:.1}", r.ft_us),
            format!("{:.1}", r.fi_us),
        ]);
    }
    t
}
