//! Golden-file snapshot tests for the CLI surface: `figures --json` and
//! `campaign --json` must emit byte-identical documents run over run — the
//! external contract that scripts and the paper-reproduction pipeline parse.
//!
//! The simulator is deterministic by construction (pinned campaign seeds,
//! simulated clock, ordered result collection), so these are exact string
//! comparisons, not structural ones. When an intentional change shifts the
//! output, refresh the snapshots with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hauberk-bench --test golden
//! ```
//!
//! and review the diff like any other source change.

use hauberk_telemetry::json::{parse, Json};
use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Run `bin` with `args`, assert success, and return stdout.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("CLI output is UTF-8")
}

fn check_snapshot(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    if expected != actual {
        let diff_at = expected
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(expected.len().min(actual.len()));
        panic!(
            "snapshot `{name}` drifted (first difference at byte {diff_at}).\n\
             If the change is intentional: UPDATE_GOLDEN=1 cargo test -p hauberk-bench --test golden\n\
             --- expected ---\n{expected}\n--- actual ---\n{actual}"
        );
    }
}

/// `figures --json` on the two cheapest deterministic sections: the static
/// detector-coverage table (fig9) and the ablation table.
#[test]
fn figures_json_snapshot() {
    let out = run(
        env!("CARGO_BIN_EXE_figures"),
        &["fig9", "ablation", "--json"],
    );
    check_snapshot("figures_fig9_ablation.json", &out);
}

/// Spawn `bin` with `args`, assert it refuses them with exit status 2 and a
/// stderr line containing `needle`, and that it printed nothing on stdout.
fn assert_refused(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
}

/// `campaign --json` on a small pinned-seed CP campaign: the summary document
/// (outcome ratios, golden cycles, detector count, metrics) is part of the
/// reproduction contract. The default run is checkpointed on the batch
/// engine. `--engine` and `--threads` reach the run through the campaign
/// config alone, and must not move a byte: the same campaign on tree-walk
/// with 4 workers and on bytecode equals the snapshot.
#[test]
fn campaign_json_snapshot() {
    let small = ["CP", "--json", "--vars", "2", "--masks", "2"];
    let bin = env!("CARGO_BIN_EXE_campaign");
    let out = run(bin, &[&small[..], &["--threads", "1"][..]].concat());
    check_snapshot("campaign_cp_small.json", &out);
    for flags in [
        &["--engine", "tree-walk", "--threads", "4"][..],
        &["--engine", "bytecode"][..],
    ] {
        let other = run(bin, &[&small[..], flags].concat());
        assert_eq!(out, other, "{flags:?} changed the summary");
    }
}

/// A malformed number is refused, naming the flag, instead of silently
/// running the default campaign.
#[test]
fn campaign_refuses_malformed_numbers() {
    assert_refused(
        env!("CARGO_BIN_EXE_campaign"),
        &["CP", "--threads", "four"],
        "--threads",
    );
}

/// `campaign` refuses unknown flags (`--checkpoint` included: checkpointing
/// has no switch) and stray positional arguments with the usage line,
/// instead of running a campaign the caller did not ask for.
#[test]
fn campaign_refuses_unknown_arguments() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    for args in [
        &["CP", "--checkpoint"][..],
        &["CP", "--var", "2"][..],
        &["CP", "PNS"][..],
    ] {
        assert_refused(bin, args, "usage: campaign");
    }
}

/// `figures instr --json` (§IX.D, wall-clock so not a snapshot): one row
/// per HPC program, in suite order, each with positive parse, FT and FI
/// times, and nothing else in the document.
#[test]
fn figures_instr_reports_every_hpc_program() {
    let out = run(env!("CARGO_BIN_EXE_figures"), &["instr", "--json"]);
    let doc = parse(out.trim()).expect("figures --json emits JSON");
    let Json::Obj(map) = &doc else {
        panic!("not an object: {out}")
    };
    assert_eq!(map.keys().collect::<Vec<_>>(), ["instr"], "{out}");
    let rows = map["instr"].as_arr().expect("instr is an array of rows");
    let programs: Vec<&str> = rows
        .iter()
        .map(|r| r.get("program").and_then(Json::as_str).expect("program"))
        .collect();
    assert_eq!(
        programs,
        ["CP", "MRI-FHD", "MRI-Q", "PNS", "RPES", "SAD", "TPACF"]
    );
    for r in rows {
        for col in ["parse_us", "ft_us", "fi_us"] {
            let v = r.get(col).and_then(Json::as_f64).expect(col);
            assert!(v > 0.0, "{col} = {v} in {r}");
        }
    }
}

/// `figures` refuses unknown flags (the removed `--engine` and `--threads`
/// included) and unknown figure names instead of printing nothing or
/// silently running every figure.
#[test]
fn figures_refuses_unknown_arguments() {
    let bin = env!("CARGO_BIN_EXE_figures");
    for args in [
        &["fig99"][..],
        &["--engin", "batch"][..],
        &["fig9", "--engine", "batch"][..],
        &["fig9", "--threads", "1"][..],
        &["instrumentation"][..],
    ] {
        assert_refused(bin, args, "usage: figures");
    }
}
