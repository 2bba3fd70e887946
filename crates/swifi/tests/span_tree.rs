//! Property test for the tracing layer under the orchestrator's concurrency
//! shape: sequential campaigns and units on the driving thread, injections
//! fanned out through rayon with [`with_parent`] re-establishing the unit
//! span as the parent on each worker. Whatever the interleaving, the emitted
//! spans must reassemble into exactly one rooted tree per campaign, with
//! every span reachable from its own campaign's root and no id reuse. A real
//! campaign at default settings (batch engine, checkpointed) must keep the
//! campaign → unit → launch shape.

use hauberk_telemetry::span::with_parent;
use hauberk_telemetry::{Event, MemorySink, Telemetry};
use proptest::prelude::*;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One decoded span record.
#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    id: u64,
    parent: u64,
    trace: Option<String>,
}

/// Drive `campaigns` fake campaigns of `units` units × `launches` parallel
/// launches each on `threads` workers, and return the span records the sink
/// saw.
fn drive(campaigns: usize, units: usize, launches: usize, threads: usize) -> Vec<Rec> {
    let sink = Arc::new(MemorySink::unbounded());
    let tele = Telemetry::new(sink.clone());
    for c in 0..campaigns {
        let root = tele.span_traced("campaign", Some(format!("ht-{c}")));
        let _root_id = root.id();
        for _u in 0..units {
            let unit = tele.span("unit");
            let unit_id = unit.id();
            let idxs: Vec<usize> = (0..launches).collect();
            idxs.par_iter().with_threads(threads).for_each(|_i| {
                with_parent(unit_id, || {
                    let _launch = tele.span("launch");
                });
            });
        }
    }
    sink.events()
        .into_iter()
        .filter_map(|e| match e {
            Event::Span {
                name,
                id,
                parent,
                trace,
                ..
            } => Some(Rec {
                name,
                id,
                parent,
                trace,
            }),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spans_reassemble_into_one_rooted_tree_per_campaign(
        campaigns in 1usize..4,
        units in 1usize..5,
        launches in 1usize..9,
        threads in 1usize..5,
    ) {
        let recs = drive(campaigns, units, launches, threads);
        prop_assert_eq!(
            recs.len(),
            campaigns * (1 + units * (1 + launches)),
            "every span was emitted exactly once"
        );

        // Ids are unique process-wide.
        let by_id: BTreeMap<u64, &Rec> = recs.iter().map(|r| (r.id, r)).collect();
        prop_assert_eq!(by_id.len(), recs.len());

        // Roots are exactly the campaign spans, each carrying its trace id.
        let roots: Vec<&Rec> = recs.iter().filter(|r| r.parent == 0).collect();
        prop_assert_eq!(roots.len(), campaigns);
        for r in &roots {
            prop_assert_eq!(r.name, "campaign");
            prop_assert!(r.trace.is_some(), "root spans carry the trace id");
        }

        // Every span resolves to exactly one root by walking parent links,
        // and the chain is launch -> unit -> campaign.
        for r in &recs {
            let mut cur: &Rec = r;
            let mut hops = 0;
            while cur.parent != 0 {
                let parent = by_id.get(&cur.parent);
                prop_assert!(parent.is_some(), "dangling parent {}", cur.parent);
                cur = parent.unwrap();
                hops += 1;
                prop_assert!(hops <= 2, "tree deeper than campaign/unit/launch");
            }
            prop_assert_eq!(cur.name, "campaign");
            match r.name {
                "campaign" => prop_assert_eq!(hops, 0),
                "unit" => prop_assert_eq!(hops, 1),
                "launch" => prop_assert_eq!(hops, 2),
                other => prop_assert!(false, "unexpected span {other}"),
            }
        }
    }
}

/// A real campaign under the default orchestrator config runs every
/// injection from the shared checkpoint, and each of those resumed launches
/// still opens a `launch` span under its work unit, carrying the launch
/// attributes plus `restore_ns` and `spliced`.
#[test]
fn default_campaign_units_have_launch_children() {
    use hauberk::builds::FtOptions;
    use hauberk_benchmarks::{cp::Cp, ProblemScale};
    use hauberk_swifi::campaign::{CampaignConfig, CampaignKind};
    use hauberk_swifi::orchestrator::{run_orchestrated_campaign_traced, OrchestratorConfig};
    use hauberk_swifi::plan::PlanConfig;

    let sink = Arc::new(MemorySink::unbounded());
    let cfg = CampaignConfig {
        plan: PlanConfig {
            vars_per_program: 3,
            masks_per_var: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let r = run_orchestrated_campaign_traced(
        &Cp::new(ProblemScale::Quick),
        CampaignKind::Coverage(FtOptions::default()),
        &cfg,
        &OrchestratorConfig::default(),
        Telemetry::new(sink.clone()),
    )
    .expect("campaign");
    let ck = r.checkpoint.as_ref().expect("default campaign checkpoints");
    assert_eq!(ck.injections, r.executed, "every injection resumed");

    let mut units = Vec::new();
    let mut launches = Vec::new();
    for e in sink.events() {
        if let Event::Span {
            name,
            id,
            parent,
            attrs,
            ..
        } = e
        {
            match name {
                "unit" => units.push(id),
                "launch" => launches.push((parent, attrs)),
                _ => {}
            }
        }
    }
    assert!(!units.is_empty(), "unit spans recorded");
    for unit in &units {
        assert!(
            launches.iter().any(|(parent, _)| parent == unit),
            "unit span {unit} has no launch child"
        );
    }
    for (parent, attrs) in &launches {
        assert!(units.contains(parent), "launch outside a unit: {attrs:?}");
        let attr = |k: &str| attrs.iter().find(|(a, _)| *a == k).map(|(_, v)| v.as_str());
        assert_eq!(attr("engine"), Some("batch"));
        for key in [
            "kernel",
            "prepare_ns",
            "restore_ns",
            "exec_ns",
            "warps",
            "outcome",
        ] {
            assert!(attr(key).is_some(), "launch span lacks `{key}`: {attrs:?}");
        }
        assert!(
            matches!(attr("spliced"), Some("true" | "false")),
            "{attrs:?}"
        );
    }
    assert_eq!(
        launches.len() as u64,
        r.executed,
        "one launch span per injection"
    );
}
