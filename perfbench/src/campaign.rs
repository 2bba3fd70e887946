//! `campaign-cp`: one CP coverage campaign (the Fig. 14 FI&FT build with
//! Hauberk-L/NL detectors) at the `campaign` CLI's default size, journaled
//! to a scratch file, repeated for the run's duration.
//!
//! Nothing overrides the engine, thread count or checkpoint mode: the
//! campaign runs with the program's defaults.

use crate::layers::{instrumented_kernel, ratio, traced_campaign, CampaignLayers, KirLayers};
use crate::{median, Args, Budget, Report};
use hauberk::FtOptions;
use hauberk_benchmarks::{program_by_name, ProblemScale};
use hauberk_sim::ExecEngine;
use hauberk_swifi::campaign::{CampaignConfig, CampaignKind};
use hauberk_swifi::mask::PAPER_BIT_COUNTS;
use hauberk_swifi::orchestrator::{
    run_orchestrated_campaign, OrchestratorConfig, ShardedCampaignResult,
};
use hauberk_swifi::plan::PlanConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `summary_json` of the campaign at `--seed 0` (the CLI's default seed).
const EXPECTED_SEED0: &str = include_str!("../expected/campaign-cp.seed0.json");

/// The campaign `campaign CP` runs by default, with its planning seed
/// offset by the benchmark seed (seed 0 is the CLI default).
fn config(seed: u64, vars: usize, masks: usize, bit_counts: &[u32]) -> CampaignConfig {
    CampaignConfig {
        plan: PlanConfig {
            vars_per_program: vars,
            masks_per_var: masks,
            bit_counts: bit_counts.to_vec(),
            scheduler_per_mille: 60,
            register_per_mille: 60,
        },
        seed: CampaignConfig::default().seed.wrapping_add(seed),
        ..Default::default()
    }
}

fn kind() -> CampaignKind {
    CampaignKind::Coverage(FtOptions::default())
}

fn orch(journal: &Path) -> OrchestratorConfig {
    OrchestratorConfig {
        journal_path: Some(journal.to_path_buf()),
        ..OrchestratorConfig::exhaustive()
    }
}

/// Gate one campaign result: every planned injection classified, nothing
/// quarantined, and the summary bytes equal to the reference.
fn gate(r: &mut Report, res: &ShardedCampaignResult, summary: &str, reference: &str) {
    let classified: u64 = res.strata.iter().map(|s| s.executed()).sum();
    r.check(
        classified == res.planned
            && res.executed == res.planned
            && res.campaign.results.len() as u64 == res.planned
            && res.quarantined.is_empty(),
        || {
            format!(
                "campaign classified {classified} of {} planned ({} quarantined units)",
                res.planned,
                res.quarantined.len()
            )
        },
    );
    r.check(summary == reference, || {
        format!("campaign summary differs from its reference:\n{summary}")
    });
}

pub fn run(args: &Args, r: &mut Report, scratch: &Path) {
    let (setup_s, prog) = crate::measure_setup(|| {
        program_by_name("CP", ProblemScale::Quick).expect("CP is a known program")
    });
    let cfg = config(args.seed, 20, 25, &PAPER_BIT_COUNTS);
    let journal: PathBuf = scratch.join("cp.journal");
    let orch = orch(&journal);

    // The first campaign's summary is the reference every later one must
    // reproduce byte for byte; at seed 0 it must also match the committed
    // bytes.
    let mut reference: Option<String> = None;
    let mut gated = |r: &mut Report, res: &ShardedCampaignResult| {
        let summary = res.summary_json().to_string();
        let want = reference.get_or_insert_with(|| {
            if args.seed == 0 {
                EXPECTED_SEED0.trim_end().to_string()
            } else {
                summary.clone()
            }
        });
        gate(r, res, &summary, want);
    };
    let plain = || -> (f64, ShardedCampaignResult) {
        let t = Instant::now();
        let res = run_orchestrated_campaign(prog.as_ref(), kind(), &cfg, &orch)
            .unwrap_or_else(|e| panic!("campaign failed: {e}"));
        (t.elapsed().as_secs_f64(), res)
    };

    let budget = Budget::new(args.seconds);
    if !args.trace {
        let mut walls = Vec::new();
        let (planned, threads) = loop {
            let (wall, res) = plain();
            gated(r, &res);
            walls.push(wall);
            if !budget.another(wall) {
                break (res.planned, res.profile.threads);
            }
        };
        stamp_engine(r, &journal, threads);
        let wall = median(&walls);
        r.note("planned_injections", planned.to_string());
        r.note("injections_per_s", format!("{}", planned as f64 / wall));
        r.note("wall_samples_s", format!("{walls:?}"));
        r.metric("setup_s", setup_s, "s");
        r.metric("wall_s", wall, "s");
        return;
    }

    // Traced run: alternate untraced and traced campaigns, so the tracing
    // overhead compares like with like; layer times are medians over the
    // traced campaigns, and simulated counts must repeat exactly.
    let mut untraced = Vec::new();
    let mut traced: Vec<CampaignLayers> = Vec::new();
    loop {
        let (wall, res) = plain();
        gated(r, &res);
        untraced.push(wall);
        let (res, layers) =
            traced_campaign(prog.as_ref(), kind(), &cfg, &orch).expect("traced campaign");
        gated(r, &res);
        if let Some(first) = traced.first() {
            r.check(
                (first.launches, first.work_cycles) == (layers.launches, layers.work_cycles),
                || "simulated counts differ between identical campaigns".to_string(),
            );
        }
        let pair = wall + layers.wall_s;
        traced.push(layers);
        if traced.len() >= 2 && !budget.another(pair) {
            break;
        }
    }
    stamp_engine(r, &journal, traced[0].threads);
    let med = |f: fn(&CampaignLayers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let layers = CampaignLayers {
        wall_s: med(|l| l.wall_s),
        plan_s: med(|l| l.plan_s),
        launch_s: med(|l| l.launch_s),
        prepare_s: med(|l| l.prepare_s),
        exec_s: med(|l| l.exec_s),
        unit_s: med(|l| l.unit_s),
        host_setup_s: med(|l| l.host_setup_s),
        host_readback_s: med(|l| l.host_readback_s),
        classify_s: med(|l| l.classify_s),
        journal_s: med(|l| l.journal_s),
        ..traced[0].clone()
    };
    layers.report(r);
    let base = median(&untraced);
    r.metric(
        "trace_overhead_pct",
        (layers.wall_s - base) / base * 100.0,
        "%",
    );
    let mut kir = KirLayers::default();
    kir.measure(&instrumented_kernel(prog.as_ref()));
    kir.report(r);
    engine_ledger(args, r, &journal);
}

/// Read back the engine the campaign journal recorded and the worker
/// threads its profile recorded.
fn stamp_engine(r: &mut Report, journal: &Path, threads: u64) {
    let meta = hauberk_swifi::read_journal(journal)
        .ok()
        .and_then(|j| j.meta)
        .map(|m| m.engine)
        .unwrap_or_default();
    r.note_str("journal_engine", &meta);
    r.note("campaign_threads", threads.to_string());
}

/// Per-engine ledger for the CP and PNS kernels: the static batch-region
/// share of each instrumented kernel, and simulated cycles per microsecond
/// of warp execution under each engine (a traced coverage campaign of about
/// a hundred injections per engine, its engine set on the campaign config).
/// Summaries must be identical across engines.
fn engine_ledger(args: &Args, r: &mut Report, journal: &Path) {
    let cfg_base = config(args.seed, 10, 10, &[1, 2]);
    let orch = orch(journal);
    for name in ["CP", "PNS"] {
        let prog = program_by_name(name, ProblemScale::Quick).expect("known program");
        let mut kir = KirLayers::default();
        kir.measure(&instrumented_kernel(prog.as_ref()));
        r.metric(
            format!("ledger.{name}.batch_op_share"),
            kir.share(),
            "ratio",
        );
        let mut first: Option<String> = None;
        for engine in [
            ExecEngine::TreeWalk,
            ExecEngine::Bytecode,
            ExecEngine::Batch,
        ] {
            let cfg = CampaignConfig {
                engine: Some(engine),
                ..cfg_base.clone()
            };
            let (res, layers) =
                traced_campaign(prog.as_ref(), kind(), &cfg, &orch).expect("ledger campaign");
            let summary = res.summary_json().to_string();
            let want = first.get_or_insert_with(|| summary.clone());
            r.check(summary == *want, || {
                format!("{name} summary under {engine} differs from tree-walk")
            });
            r.metric(
                format!("ledger.{name}.{}.cycles_per_exec_us", engine.name()),
                layers.cycles_per_exec_us(),
                "cycles/us",
            );
            r.note(
                format!("ledger.{name}.{}.exec_share_of_wall", engine.name()),
                format!(
                    "{}",
                    ratio(layers.exec_s, layers.threads as f64 * layers.wall_s)
                ),
            );
        }
    }
}
