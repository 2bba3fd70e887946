//! `campaign` — run a fault-injection campaign on one benchmark and write
//! per-experiment CSV records plus a summary (the file-based analogue of the
//! paper's GUI controller, §IV.B).
//!
//! ```text
//! campaign <program> [--sensitivity|--coverage] [--vars N] [--masks N]
//!          [--alpha F] [--csv PATH] [--trace-out PATH] [--progress N]
//!          [--json] [--engine tree-walk|bytecode|batch] [--threads N]
//!          [--shard-size N] [--journal PATH | --resume PATH]
//!          [--adaptive] [--ci-width F] [--min-samples N]
//!          [--max-retries N] [--shard I/M] [--profile]
//! campaign merge-journals --out PATH <journal> [<journal> ...]
//! campaign harden <program> [--budget F] [--budgets F,F,...] [--iterations N]
//!          [--plan-out PATH] [--plan-in PATH] [--front-out PATH]
//!          [--baseline-journal PATH] [--vars N] [--masks N] [--alpha F]
//!          [--engine E] [--threads N] [--json]
//! ```
//!
//! Orchestration flags:
//!
//! * `--journal PATH` starts a fresh checkpoint journal (truncating any
//!   existing file); `--resume PATH` replays a journal, skips finished work
//!   units, and appends new ones to the same file. The resumed summary is
//!   byte-identical to an uninterrupted run.
//! * `--adaptive` enables per-stratum early stopping once the Wilson
//!   interval on the SDC rate is narrower than `--ci-width` (default 0.1);
//!   `--min-samples` (default 32) guards the decision.
//! * `--shard I/M` executes only strata with ordinal ≡ I (mod M) — run M
//!   processes with distinct I and the same `--journal`, then
//!   `merge-journals` + `--resume` to finalize.
//! * `--max-retries N` retries a panicking work unit N times before
//!   quarantining it (default 2).
//! * `--profile` prints the per-phase wall-time breakdown (plan / execute /
//!   journal / classify / sample-decision), any straggler work units, and
//!   the checkpoint note after the summary. The profile is also appended to
//!   the journal as a trailing `"rec":"profile"` record when
//!   `--journal`/`--resume` is set.
//!
//! Every campaign shares one fault-free prefix: a single reference run
//! captures a device snapshot at every block boundary a planned fault
//! targets, and each injection restores the snapshot instead of
//! re-executing from launch. The summary (and CSV) is byte-identical to full
//! re-execution. An ineligible campaign falls back to full re-execution;
//! `--profile` names the reason, or else the boundaries and cycles saved.
//!
//! The `harden` subcommand closes the campaign → translator loop: it runs
//! (or ingests, with `--baseline-journal`) a baseline sensitivity campaign,
//! ranks placeable detectors by measured vulnerability, sweeps the
//! `--budgets` ladder into a coverage-vs-overhead Pareto front, and emits
//! the plan fitted under `--budget` (default 0.5) to `--plan-out`.
//! `--plan-in` instead evaluates a previously emitted plan: it measures the
//! plan's fault-free overhead and re-runs the coverage campaign under it.
//! Output is deterministic: same inputs, byte-identical plan and front.
//!
//! `--engine` and `--threads` only fill the campaign config: the engine runs
//! every kernel of the campaign (or of `harden`), the thread count sizes the
//! injection workers (0 = one per core). Neither changes a summary byte. An
//! unknown flag (`--checkpoint` included: checkpointing has no switch), a
//! numeric flag whose value is missing or does not parse, an unknown engine
//! or program, and a malformed `--shard` or `--budgets` are refused with
//! exit status 2.

use hauberk::builds::FtOptions;
use hauberk::translator::select::HardeningPlan;
use hauberk_benchmarks::{program_by_name, ProblemScale};
use hauberk_swifi::campaign::{CampaignConfig, CampaignKind};
use hauberk_swifi::harden::{evaluate_placement, harden, HardenConfig};
use hauberk_swifi::journal::merge_journals;
use hauberk_swifi::mask::PAPER_BIT_COUNTS;
use hauberk_swifi::orchestrator::{run_orchestrated_campaign, OrchestratorConfig};
use hauberk_swifi::plan::PlanConfig;
use hauberk_swifi::report::to_csv;
use hauberk_swifi::sampler::AdaptiveConfig;
use hauberk_telemetry::json::Json;
use hauberk_telemetry::report::Emitter;
use std::str::FromStr;

/// `campaign <program>` flags that take a value.
const VALUE_FLAGS: [&str; 15] = [
    "--vars",
    "--masks",
    "--alpha",
    "--csv",
    "--trace-out",
    "--progress",
    "--engine",
    "--threads",
    "--shard-size",
    "--journal",
    "--resume",
    "--ci-width",
    "--min-samples",
    "--max-retries",
    "--shard",
];

/// `campaign <program>` flags that stand alone.
const SWITCHES: [&str; 5] = [
    "--sensitivity",
    "--coverage",
    "--json",
    "--adaptive",
    "--profile",
];

/// The program `campaign <program> ...` names (CP when omitted). An unknown
/// flag or a second positional argument is refused with exit status 2 and
/// the usage line.
fn program_arg(args: &[String]) -> String {
    let mut name = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 1; // its value
        } else if !a.starts_with("--") && name.is_none() {
            name = Some(a.to_string());
        } else if !SWITCHES.contains(&a) {
            eprintln!("campaign: unknown argument `{a}`");
            eprintln!(
                "usage: campaign <program> [{}] [{} <value>]",
                SWITCHES.join("|"),
                VALUE_FLAGS.join("|")
            );
            std::process::exit(2);
        }
        i += 1;
    }
    name.unwrap_or_else(|| "CP".to_string())
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Refuse malformed input with exit status 2 instead of running a campaign
/// the caller did not ask for.
fn refuse(msg: String) -> ! {
    eprintln!("campaign: {msg}");
    std::process::exit(2);
}

/// The parsed value of numeric flag `key`, `None` when it is absent. A
/// missing or malformed value is refused, naming the flag.
fn num_arg<T: FromStr>(args: &[String], key: &str) -> Option<T> {
    args.iter().any(|a| a == key).then(|| {
        let v = arg_value(args, key).unwrap_or_else(|| refuse(format!("{key} expects a number")));
        v.parse()
            .unwrap_or_else(|_| refuse(format!("{key} expects a number, got `{v}`")))
    })
}

/// The campaign settings `campaign` and `campaign harden` share.
fn campaign_config(args: &[String]) -> CampaignConfig {
    CampaignConfig {
        plan: PlanConfig {
            vars_per_program: num_arg(args, "--vars").unwrap_or(20),
            masks_per_var: num_arg(args, "--masks").unwrap_or(25),
            bit_counts: PAPER_BIT_COUNTS.to_vec(),
            scheduler_per_mille: 60,
            register_per_mille: 60,
        },
        alpha: num_arg(args, "--alpha").unwrap_or(1.0),
        engine: arg_value(args, "--engine").map(|v| {
            hauberk_sim::ExecEngine::parse(&v).unwrap_or_else(|| {
                refuse(format!(
                    "--engine: unknown engine `{v}` (try tree-walk, bytecode, or batch)"
                ))
            })
        }),
        threads: num_arg(args, "--threads").unwrap_or(0),
        ..Default::default()
    }
}

fn program(name: &str) -> Box<dyn hauberk::program::HostProgram> {
    program_by_name(name, ProblemScale::Quick).unwrap_or_else(|| {
        refuse(format!(
            "unknown program `{name}` (try CP, MRI-Q, SAD, ...)"
        ))
    })
}

/// `campaign merge-journals --out PATH a.jsonl b.jsonl ...`
fn merge_main(args: &[String]) {
    let out = arg_value(args, "--out").unwrap_or_else(|| {
        eprintln!("merge-journals: --out PATH is required");
        std::process::exit(2);
    });
    let inputs: Vec<&String> = args
        .iter()
        .skip(1) // the subcommand itself
        .filter(|a| !a.starts_with("--") && **a != out)
        .collect();
    match merge_journals(&out, &inputs) {
        Ok(n) => println!(
            "merged {n} unit record(s) from {} journal(s) into {out}",
            inputs.len()
        ),
        Err(e) => {
            eprintln!("merge-journals: {e}");
            std::process::exit(1);
        }
    }
}

/// `campaign harden <program> [--budget F] ...` — see the module docs.
fn harden_main(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let name = args
        .iter()
        .skip(1) // the subcommand itself
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "CP".to_string());
    let budget: f64 = num_arg(args, "--budget").unwrap_or(0.5);
    let budgets: Vec<f64> = arg_value(args, "--budgets")
        .map(|v| {
            v.split(',')
                .map(|b| {
                    b.trim()
                        .parse()
                        .unwrap_or_else(|_| refuse(format!("--budgets: bad fraction `{b}`")))
                })
                .collect()
        })
        .unwrap_or_default();
    let iterations: usize = num_arg(args, "--iterations").unwrap_or(1);
    let prog = program(&name);
    let cfg = HardenConfig {
        budget,
        budgets,
        iterations,
        campaign: campaign_config(args),
        baseline_journal: arg_value(args, "--baseline-journal").map(Into::into),
        ..Default::default()
    };
    let mut em = Emitter::new(json);

    if let Some(path) = arg_value(args, "--plan-in") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read plan {path}: {e}"));
        let plan = HardeningPlan::parse(&text).unwrap_or_else(|e| panic!("bad plan {path}: {e}"));
        em.text(format!(
            "evaluating plan {path} ({} detector(s)) on {name}...",
            plan.selection.len()
        ));
        let point = match evaluate_placement(prog.as_ref(), &plan, &cfg) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("harden: {e}");
                std::process::exit(1);
            }
        };
        em.text(format!(
            "plan @ budget {}: {} detector(s), overhead {} cycles ({:.2}%), \
             coverage {:.4}, sdc {:.4}",
            point.budget,
            point.selected,
            point.overhead_cycles,
            100.0 * point.overhead_frac,
            point.coverage,
            point.sdc_ratio
        ));
        em.json_section(
            "placement",
            Json::obj([
                ("budget", Json::Num(point.budget)),
                ("selected", Json::uint(point.selected as u64)),
                ("overhead_cycles", Json::uint(point.overhead_cycles)),
                ("overhead_frac", Json::Num(point.overhead_frac)),
                ("coverage", Json::Num(point.coverage)),
                ("sdc_ratio", Json::Num(point.sdc_ratio)),
            ]),
        );
        em.finish();
        return;
    }

    em.text(format!(
        "hardening {name} (budget {budget}, {iterations} iteration(s))..."
    ));
    let report = match harden(prog.as_ref(), &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("harden: {e}");
            std::process::exit(1);
        }
    };
    em.text(format!(
        "{}: {} candidate(s), full overhead {} cycles, full coverage {:.4}, \
         baseline sdc {:.4} over {} injection(s); {} round(s), {}",
        report.program,
        report.candidates.len(),
        report.full_overhead_cycles,
        report.full_coverage,
        report.baseline_sdc,
        report.baseline_injections,
        report.iterations_run,
        if report.converged {
            "ranking converged"
        } else {
            "round budget exhausted"
        }
    ));
    for p in &report.front {
        em.text(format!(
            "  budget {:>5}: {:>2} detector(s), overhead {:>8} cycles ({:>6.2}%), \
             coverage {:.4}, sdc {:.4}",
            p.budget,
            p.selected,
            p.overhead_cycles,
            100.0 * p.overhead_frac,
            p.coverage,
            p.sdc_ratio
        ));
    }
    em.json_section("harden", report.to_json());
    if let Some(path) = arg_value(args, "--plan-out") {
        std::fs::write(&path, report.plan.to_json_string()).expect("write plan");
        em.text(format!(
            "wrote plan ({} detector(s) @ budget {}) to {path}",
            report.plan.selection.len(),
            report.plan.budget
        ));
        em.json_section("plan_path", Json::str(path));
    }
    if let Some(path) = arg_value(args, "--front-out") {
        std::fs::write(&path, report.front_csv()).expect("write front CSV");
        em.text(format!(
            "wrote {}-point Pareto front to {path}",
            report.front.len()
        ));
        em.json_section("front_path", Json::str(path));
    }
    em.finish();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge-journals") {
        merge_main(&args);
        return;
    }
    if args.first().map(String::as_str) == Some("harden") {
        harden_main(&args);
        return;
    }
    let name = program_arg(&args);
    let sensitivity = args.iter().any(|a| a == "--sensitivity");
    let json = args.iter().any(|a| a == "--json");
    let csv_path = arg_value(&args, "--csv");
    let trace_path = arg_value(&args, "--trace-out");
    let adaptive = if args.iter().any(|a| a == "--adaptive" || a == "--ci-width") {
        let mut a = AdaptiveConfig::default();
        if let Some(w) = num_arg(&args, "--ci-width") {
            a.ci_width = w;
        }
        if let Some(n) = num_arg(&args, "--min-samples") {
            a.min_samples = n;
        }
        Some(a)
    } else {
        None
    };
    let shard = arg_value(&args, "--shard").map(|v| {
        let parse = |s: &str| -> Option<(u32, u32)> {
            let (i, m) = s.split_once('/')?;
            Some((i.parse().ok()?, m.parse().ok()?))
        };
        match parse(&v) {
            Some((i, m)) if m > 0 && i < m => (i, m),
            _ => refuse(format!("--shard expects I/M with 0 <= I < M, got `{v}`")),
        }
    });
    let journal_path = arg_value(&args, "--journal");
    let resume_from = arg_value(&args, "--resume");
    if journal_path.is_some() && resume_from.is_some() {
        refuse("--journal (fresh) and --resume are mutually exclusive".into());
    }

    let prog = program(&name);
    let cfg = CampaignConfig {
        progress_every: num_arg(&args, "--progress").unwrap_or(0),
        trace_path: trace_path.clone().map(Into::into),
        ..campaign_config(&args)
    };
    let orch = OrchestratorConfig {
        shard_size: num_arg(&args, "--shard-size").unwrap_or(0),
        adaptive,
        max_retries: num_arg(&args, "--max-retries")
            .unwrap_or(OrchestratorConfig::DEFAULT_MAX_RETRIES),
        journal_path: journal_path.map(Into::into),
        resume_from: resume_from.map(Into::into),
        shard,
        ..Default::default()
    };

    let kind = if sensitivity {
        CampaignKind::Sensitivity
    } else {
        CampaignKind::Coverage(FtOptions::default())
    };
    let mut em = Emitter::new(json);
    em.text(format!(
        "running {} campaign on {name} (alpha={})...",
        kind.label(),
        cfg.alpha
    ));
    let sharded = match run_orchestrated_campaign(prog.as_ref(), kind, &cfg, &orch) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign: {e}");
            std::process::exit(1);
        }
    };
    if sharded.resumed_units > 0 || sharded.dropped_lines > 0 {
        // Resume statistics go to stderr, not the summary: the summary must
        // stay byte-identical to an uninterrupted run.
        eprintln!(
            "resume: replayed {} unit(s) / {} injection(s) from the journal ({} torn line(s) dropped)",
            sharded.resumed_units, sharded.resumed_injections, sharded.dropped_lines
        );
    }

    em.text(sharded.summarize());
    em.json_section("summary", sharded.summary_json());
    if args.iter().any(|a| a == "--profile") {
        em.table(&sharded.profile.table());
        em.json_section("profile", sharded.profile.to_json());
        for s in &sharded.profile.stragglers {
            em.text(format!(
                "straggler: {} took {:.2} ms (threshold {:.2} ms)",
                s.unit,
                s.dur_ns as f64 / 1e6,
                s.threshold_ns as f64 / 1e6
            ));
        }
        let note = match (&sharded.checkpoint, &sharded.checkpoint_fallback) {
            (Some(ck), _) => {
                let full = ck.reference_cycles.saturating_mul(ck.injections);
                let actual = ck.reference_cycles + ck.executed_cycles;
                format!(
                    "checkpoint: {} boundaries over {} section(s); {}/{} injection(s) \
                     spliced; {} cycles simulated vs {} full re-execution ({:.1}x)",
                    ck.boundaries,
                    ck.sections,
                    ck.spliced,
                    ck.injections,
                    actual,
                    full,
                    full as f64 / actual.max(1) as f64
                )
            }
            (None, Some(reason)) => {
                format!("checkpoint: off, full re-execution ({reason})")
            }
            (None, None) => "checkpoint: off".to_string(),
        };
        em.text(&note);
        em.json_section("checkpoint", Json::str(note));
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, to_csv(&sharded.campaign)).expect("write CSV");
        em.text(format!(
            "wrote {} records to {path}",
            sharded.campaign.results.len()
        ));
        em.json_section("csv_path", Json::str(path));
    }
    if let Some(path) = trace_path {
        // The sink warns and disables itself if the file can't be opened.
        if std::path::Path::new(&path).exists() {
            em.text(format!("wrote telemetry trace to {path}"));
            em.json_section("trace_path", Json::str(path));
        }
    }
    em.finish();
}
