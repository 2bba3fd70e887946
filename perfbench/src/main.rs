//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <paper-quick|campaign-cp|serve-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `results_quick.txt` there and
//! keeps scratch files under `.bench_build/`). With `--trace 0` a run
//! reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics, timed around calls into each crate's public
//! functions. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it is a
//! configuration stamp plus workload details. See `perfbench/README.md`.

mod campaign;
mod layers;
mod paper;
mod serve;

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <paper-quick|campaign-cp|serve-mix> \
                     --seed N --seconds S --trace <0|1>";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Scratch directory for journals and daemon state, inside the checkout.
pub const SCRATCH_DIR: &str = ".bench_build/perfbench-scratch";

/// Every end-to-end metric with its unit, as `BENCHMARK.json` declares
/// them; an untraced run reports exactly these.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("wall_s", "s")];

/// Every per-layer metric with its unit, as `BENCHMARK.json` declares them.
/// A traced run reports each one; a layer its workload does not exercise
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("fig1_s", "s"),
    ("fig14_s", "s"),
    ("fig16_s", "s"),
    ("alpha_s", "s"),
    ("perf_s", "s"),
    ("rest_s", "s"),
    ("kir.lower_us", "us"),
    ("kir.batch_plan_us", "us"),
    ("kir.batch_op_share", "ratio"),
    ("campaign.plan_s", "s"),
    ("sim.launches", "count"),
    ("sim.work_cycles", "cycles"),
    ("sim.prepare_s", "s"),
    ("sim.prepare_us_per_launch", "us"),
    ("sim.exec_s", "s"),
    ("sim.cycles_per_exec_us", "cycles/us"),
    ("host.setup_s", "s"),
    ("host.readback_s", "s"),
    ("swifi.classify_s", "s"),
    ("swifi.journal_s", "s"),
    ("swifi.unit_idle_frac", "ratio"),
    ("checkpoint.spliced", "count"),
    ("checkpoint.boundaries", "count"),
    ("trace_overhead_pct", "%"),
    ("ledger.CP.batch_op_share", "ratio"),
    ("ledger.CP.tree-walk.cycles_per_exec_us", "cycles/us"),
    ("ledger.CP.bytecode.cycles_per_exec_us", "cycles/us"),
    ("ledger.CP.batch.cycles_per_exec_us", "cycles/us"),
    ("ledger.PNS.batch_op_share", "ratio"),
    ("ledger.PNS.tree-walk.cycles_per_exec_us", "cycles/us"),
    ("ledger.PNS.bytecode.cycles_per_exec_us", "cycles/us"),
    ("ledger.PNS.batch.cycles_per_exec_us", "cycles/us"),
    ("serve.job_turnaround_p50_ms", "ms"),
    ("serve.job_turnaround_tail_ms", "ms"),
    ("serve.adhoc_turnaround_p50_ms", "ms"),
    ("serve.light_req_p50_ms", "ms"),
    ("serve.light_req_tail_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.rejected_429", "count"),
    ("http.server_us.status", "us"),
    ("http.server_us.healthz", "us"),
    ("http.server_us.metrics", "us"),
    ("http.server_us.submit", "us"),
    ("http.accept_wait_ms", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperQuick,
    CampaignCp,
    ServeMix,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = match value("--workload")? {
        "paper-quick" => Workload::PaperQuick,
        "campaign-cp" => Workload::CampaignCp,
        "serve-mix" => Workload::ServeMix,
        w => return Err(format!("unknown workload `{w}`")),
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run reports: operation tallies, metrics, and a stamp of the
/// configuration actually used.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// Count one checked operation; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Count `attempted` operations of which each entry of `failures` is
    /// one that failed.
    pub fn tally(&mut self, attempted: u64, failures: &[String]) {
        for f in failures {
            eprintln!("perfbench: check failed: {f}");
        }
        self.attempted += attempted;
        self.failed += (failures.len() as u64).min(attempted);
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// A stamp or detail entry; `json` must already be a JSON value.
    pub fn note(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.notes.push((key.into(), json.into()));
    }

    pub fn note_str(&mut self, key: impl Into<String>, s: &str) {
        self.note(key, json_str(s));
    }

    /// Order the metrics as `declared` lists them, filling any the run did
    /// not report with 0 when `fill` allows. A metric outside the list, or
    /// one reported with another unit, is a bug in this benchmark.
    fn conform(&mut self, declared: &[(&str, &'static str)], fill: bool) {
        let mut got = std::mem::take(&mut self.metrics);
        for (name, unit) in declared {
            match got.iter().position(|(n, _, _)| n == name) {
                Some(i) => {
                    let m = got.remove(i);
                    assert_eq!(m.2, *unit, "unit of {name}");
                    self.metrics.push(m);
                }
                None if fill => self.metrics.push((name.to_string(), 0.0, unit)),
                None => panic!("metric {name} was not measured"),
            }
        }
        assert!(got.is_empty(), "undeclared metrics: {got:?}");
    }

    fn print(&self) {
        let mut stamp = String::from("{\"stamp\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let _ = write!(stamp, "{}{}:{v}", if i > 0 { "," } else { "" }, json_str(k));
        }
        stamp.push_str("}}");
        println!("{stamp}");
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"value\":{value:?},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(name),
                json_str(unit)
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

pub fn json_str(s: &str) -> String {
    hauberk_telemetry::json::Json::str(s).to_string()
}

/// Run-length control: operations keep starting while the run is expected
/// to end within its budget (at least one always runs).
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another operation like the last one (`last_s` long) fits:
    /// start it unless it would overrun the budget by more than half.
    pub fn another(&self, last_s: f64) -> bool {
        self.start.elapsed().as_secs_f64() + last_s / 2.0 <= self.seconds
    }
}

/// Median (mean of the middle pair for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it: `(percentile, value)`. Falls back to the median.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        if n * (1.0 - p / 100.0) >= 10.0 {
            return (p, percentile(xs, p));
        }
    }
    (50.0, median(xs))
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`, which
/// counts KiB).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Time `prepare` [`SETUP_REPS`] times, each preceded by a process-start
/// probe (spawning this binary, which exits at once); returns the median
/// seconds and the last prepared value.
pub fn measure_setup<T>(mut prepare: impl FnMut() -> T) -> (f64, T) {
    let exe = std::env::current_exe().expect("current executable path");
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous value first: its teardown is not set-up work.
        drop(last.take());
        let t = Instant::now();
        let status = Command::new(&exe)
            .arg("--probe")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .expect("spawn process-start probe");
        assert!(status.success(), "process-start probe failed: {status}");
        last = Some(prepare());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe") {
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if !std::path::Path::new(paper::EXPECTED_PATH).is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            paper::EXPECTED_PATH
        );
        std::process::exit(2);
    }
    let scratch = std::path::Path::new(SCRATCH_DIR).join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).expect("create scratch directory");

    let mut report = Report::default();
    report.note_str(
        "workload",
        match args.workload {
            Workload::PaperQuick => "paper-quick",
            Workload::CampaignCp => "campaign-cp",
            Workload::ServeMix => "serve-mix",
        },
    );
    report.note("seed", args.seed.to_string());
    report.note("trace", args.trace.to_string());
    report.note(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    report.note_str("default_engine", hauberk_sim::default_engine().name());
    report.note("rayon_threads", rayon::current_thread_count().to_string());
    report.note_str(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    match args.workload {
        Workload::PaperQuick => paper::run(&args, &mut report),
        Workload::CampaignCp => campaign::run(&args, &mut report, &scratch),
        Workload::ServeMix => serve::run(&args, &mut report),
    }
    if args.trace {
        report.conform(PER_LAYER, true);
    } else {
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.conform(END_TO_END, false);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    // Fails, as it should, while another run still uses the directory.
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    report.print();
}
