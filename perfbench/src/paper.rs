//! `paper-quick`: regenerate every figure at quick scale (`figures all`),
//! in process, and compare the text with the committed `results_quick.txt`.
//!
//! The figure sequence and arguments mirror the `figures` binary's `all`
//! path; the text is assembled exactly as its text-mode emitter prints it,
//! so the byte comparison checks both the numbers and this mirror.

use crate::layers::{instrumented_kernel, KirLayers};
use crate::{median, Args, Budget, Report};
use hauberk_bench::report::{bar, Table};
use hauberk_bench::*;
use hauberk_benchmarks::{all_programs, hpc_suite, ProblemScale};
use std::time::Instant;

/// The committed quick-scale output, relative to the repository root.
pub const EXPECTED_PATH: &str = "results_quick.txt";

/// Wall time of each figure group within one regeneration, in seconds.
#[derive(Debug, Default)]
struct Sections {
    fig1: f64,
    fig14: f64,
    fig16: f64,
    alpha: f64,
    perf: f64,
    rest: f64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

/// Text-mode section, as the emitter prints it.
fn section(out: &mut String, title: &str, body: &str) {
    out.push_str(&format!("== {title} ==\n{body}\n"));
}

fn table(out: &mut String, t: &Table) {
    out.push_str(&t.to_text());
    out.push('\n');
}

/// One `figures all` at quick scale, as text.
fn regenerate(sec: &mut Sections) -> String {
    let scale = ProblemScale::Quick;
    let mut out = String::new();
    let rows = timed(&mut sec.fig1, || fig1::render(&fig1::run(scale, 10)));
    section(&mut out, "fig1", &rows);
    let s = timed(&mut sec.rest, || fig2::render(&fig2::run(scale)));
    section(&mut out, "fig2", &s);
    let s = timed(&mut sec.rest, || {
        let (t, i) = fig3::run(scale);
        fig3::render(&t, &i)
    });
    section(&mut out, "fig3", &s);
    timed(&mut sec.perf, || perf_tables(&mut out, scale));
    let s = timed(&mut sec.rest, fig9::run);
    section(&mut out, "fig9", &s);
    let s = timed(&mut sec.rest, || fig10::render(&fig10::run(scale)));
    section(&mut out, "fig10", &s);
    let s = timed(&mut sec.fig14, || fig14::render(&fig14::run(scale, 8, 15)));
    section(&mut out, "fig14", &s);
    timed(&mut sec.rest, || fig15_table(&mut out));
    let s = timed(&mut sec.fig16, || {
        let (left, right) = fig16::run(scale, 24, 5);
        fig16::render(&left, &right)
    });
    section(&mut out, "fig16", &s);
    let s = timed(&mut sec.alpha, || {
        alpha_cov::render(&alpha_cov::run(scale, 8, 12))
    });
    section(&mut out, "alpha", &s);
    let s = timed(&mut sec.rest, || {
        guardian_cases::render(&guardian_cases::run(scale))
    });
    section(&mut out, "guardian", &s);
    let s = timed(&mut sec.rest, || ablation::render("MRI-Q"));
    section(&mut out, "ablation", &s);
    out
}

/// Figs. 4 and 13 (loop time share and normalized overheads).
fn perf_tables(out: &mut String, scale: ProblemScale) {
    let rows = perf::measure_suite(&hpc_suite(scale));
    let mut t4 = Table::new(
        "Fig. 4 — % of GPU execution time spent in loops",
        &["program", "loop time"],
    );
    for r in &rows {
        t4.row(vec![
            r.program.to_string(),
            bar(r.loop_fraction * 100.0, 30),
        ]);
    }
    table(out, &t4);
    let avg_loop = rows.iter().map(|r| r.loop_fraction).sum::<f64>() / rows.len() as f64 * 100.0;
    out.push_str(&format!("average: {avg_loop:.1}% (paper: ~87%)\n\n"));

    let mut t13 = Table::new(
        "Fig. 13 — normalized performance overhead (%)",
        &[
            "program",
            "R-Naive",
            "R-Scatter",
            "Hauberk-NL",
            "Hauberk-L",
            "Hauberk",
        ],
    );
    for r in &rows {
        t13.row(vec![
            r.program.to_string(),
            format!("{:.1}", r.r_naive),
            r.r_scatter
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "N/A (shared mem)".into()),
            format!("{:.1}", r.hauberk_nl),
            format!("{:.1}", r.hauberk_l),
            format!("{:.1}", r.hauberk),
        ]);
    }
    table(out, &t13);
    let n = rows.len() as f64;
    let avg = rows.iter().map(|r| r.hauberk).sum::<f64>() / n;
    let ex: Vec<_> = rows.iter().filter(|r| r.program != "RPES").collect();
    let avg_ex = ex.iter().map(|r| r.hauberk).sum::<f64>() / ex.len() as f64;
    out.push_str(&format!(
        "Hauberk average: {avg:.1}% (paper: 15.3%); excluding RPES: {avg_ex:.1}% (paper: 8.9%)\n\n"
    ));
}

/// Fig. 15 (FP value magnitude change vs. error bits).
fn fig15_table(out: &mut String) {
    use hauberk_swifi::value_impact::{impact_table, IMPACT_BUCKETS};
    let samples = 40_000;
    let rows = impact_table(7, &hauberk_swifi::mask::PAPER_BIT_COUNTS, samples);
    let mut header = vec!["origin".to_string(), "bits".to_string()];
    header.extend(IMPACT_BUCKETS.iter().map(|(_, _, l)| l.to_string()));
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        format!(
            "Fig. 15 — FP value magnitude change vs. original range and error bits \
             ({samples} samples per cell; columns are change-factor buckets, %)"
        ),
        &hdr,
    );
    for r in &rows {
        let mut row = vec![r.origin.to_string(), r.bits.to_string()];
        row.extend(r.shares.iter().map(|s| format!("{:.1}", s * 100.0)));
        t.row(row);
    }
    table(out, &t);
}

pub fn run(args: &Args, r: &mut Report) {
    // Set-up: load the expected output and construct every quick-scale
    // program with its baseline kernel.
    let (setup_s, expected) = crate::measure_setup(|| {
        let expected = std::fs::read(EXPECTED_PATH).expect("read results_quick.txt");
        for p in all_programs(ProblemScale::Quick) {
            std::hint::black_box(p.build_kernel());
        }
        expected
    });

    let check = |r: &mut Report, text: &str| {
        r.check(text.as_bytes() == expected.as_slice(), || {
            let want = String::from_utf8_lossy(&expected);
            let diff = text
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map_or("in length".to_string(), |(i, (a, b))| {
                    format!("at line {}: got {a:?}, want {b:?}", i + 1)
                });
            format!("figures output differs from {EXPECTED_PATH} {diff}")
        });
    };

    if args.trace {
        let mut sec = Sections::default();
        let t = Instant::now();
        let text = regenerate(&mut sec);
        let wall = t.elapsed().as_secs_f64();
        check(r, &text);
        r.metric("fig1_s", sec.fig1, "s");
        r.metric("fig14_s", sec.fig14, "s");
        r.metric("fig16_s", sec.fig16, "s");
        r.metric("alpha_s", sec.alpha, "s");
        r.metric("perf_s", sec.perf, "s");
        r.metric("rest_s", sec.rest, "s");
        r.note("traced_wall_s", format!("{wall}"));
        let mut kir = KirLayers::default();
        for p in hpc_suite(ProblemScale::Quick) {
            kir.measure(&instrumented_kernel(p.as_ref()));
        }
        kir.report(r);
        return;
    }

    let budget = Budget::new(args.seconds);
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let text = regenerate(&mut Sections::default());
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        check(r, &text);
        if !budget.another(wall) {
            break;
        }
    }
    r.note("wall_samples_s", format!("{walls:?}"));
    r.metric("setup_s", setup_s, "s");
    r.metric("wall_s", median(&walls), "s");
}
