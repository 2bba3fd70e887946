//! `serve_bench` — load-generate against an in-process campaign daemon and
//! record throughput plus p50/p95/p99 latency at several concurrency levels.
//!
//! The daemon is spawned on an ephemeral loopback port with the same code
//! path the `serve` binary uses; each client thread then loops a full
//! submit → poll → result cycle over raw HTTP. Three latencies are measured
//! per job: the `POST /v1/campaigns` round-trip (admission latency), one
//! `GET /v1/campaigns/:id` round-trip (status-read latency, the cheap
//! hot-path request), and the whole submit-to-result turnaround.
//!
//! Two observability measurements ride along: `/metrics` scrape latency in
//! both content types (JSON and Prometheus text exposition, selected via
//! `Accept: text/plain`), and the job turnaround delta between span-on
//! (default) and span-off (`"spans": false`) submissions.
//!
//! A `cache_hit` ledger closes the run: one content-addressed cache miss
//! that executes, then repeated identical submissions answered from storage.
//!
//! ```text
//! serve_bench [--jobs N] [--levels 1,4,8] [--workers N] [--out PATH]
//! ```

use hauberk_serve::{Server, ServerConfig};
use hauberk_telemetry::json::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Small but non-trivial campaign: every job plans, executes, and
/// classifies a few hundred injections.
const JOB_BODY: &str = r#"{"program":"CP","vars":4,"masks":6,"bit_counts":[1]}"#;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One request/response over a fresh connection (the daemon is
/// `Connection: close`). Returns `(status, body)`.
fn request(addr: SocketAddr, raw: String) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(raw.as_bytes()).expect("send request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = std::str::from_utf8(&buf[..head_end]).expect("utf-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (
        status,
        String::from_utf8_lossy(&buf[head_end + 4..]).into_owned(),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n"))
}

fn get_accept(addr: SocketAddr, path: &str, accept: &str) -> (u16, String) {
    request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: b\r\nAccept: {accept}\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn json_str_field(body: &str, key: &str) -> String {
    hauberk_telemetry::json::parse(body)
        .ok()
        .and_then(|d| d.get(key).and_then(|v| v.as_str().map(String::from)))
        .unwrap_or_else(|| panic!("no `{key}` in {body}"))
}

/// Latencies for one completed job, in nanoseconds.
struct JobSample {
    submit_ns: u64,
    status_ns: u64,
    turnaround_ns: u64,
}

/// Run one full submit → poll → result cycle.
fn run_job(addr: SocketAddr) -> JobSample {
    run_job_body(addr, JOB_BODY)
}

fn run_job_body(addr: SocketAddr, job_body: &str) -> JobSample {
    let t0 = Instant::now();
    let (code, body) = post(addr, "/v1/campaigns", job_body);
    let submit_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(code, 201, "submit failed: {body}");
    let id = json_str_field(&body, "id");

    let mut status_ns = 0u64;
    loop {
        let ts = Instant::now();
        let (code, body) = get(addr, &format!("/v1/campaigns/{id}"));
        status_ns = status_ns.max(ts.elapsed().as_nanos() as u64);
        assert_eq!(code, 200, "status failed: {body}");
        match json_str_field(&body, "state").as_str() {
            "done" => break,
            "failed" | "canceled" => panic!("job {id} ended badly: {body}"),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let (code, body) = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(code, 200, "result failed: {body}");
    let turnaround_ns = t0.elapsed().as_nanos() as u64;
    JobSample {
        submit_ns,
        status_ns,
        turnaround_ns,
    }
}

/// Percentile over a sorted slice (nearest-rank on the closed interval).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

fn quantiles_ms(mut ns: Vec<u64>) -> Json {
    ns.sort_unstable();
    let ms = |v: u64| v as f64 / 1e6;
    Json::obj([
        ("p50_ms", Json::Num(ms(percentile(&ns, 50.0)))),
        ("p95_ms", Json::Num(ms(percentile(&ns, 95.0)))),
        ("p99_ms", Json::Num(ms(percentile(&ns, 99.0)))),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_per_level: usize = arg_value(&args, "--jobs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let workers: usize = arg_value(&args, "--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let levels: Vec<usize> = arg_value(&args, "--levels")
        .unwrap_or_else(|| "1,4,8".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--levels takes a comma list"))
        .collect();
    let out_path = arg_value(&args, "--out");

    let handle = Server::bind(ServerConfig {
        workers,
        queue_capacity: jobs_per_level * levels.iter().max().copied().unwrap_or(1),
        ..ServerConfig::default()
    })
    .expect("bind daemon")
    .spawn()
    .expect("spawn daemon");
    let addr = handle.addr();
    let (code, _) = get(addr, "/healthz");
    assert_eq!(code, 200, "daemon must be healthy before load");

    let mut level_docs = Vec::new();
    for &concurrency in &levels {
        let t0 = Instant::now();
        let samples: Vec<JobSample> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..concurrency)
                .map(|worker| {
                    scope.spawn(move || {
                        // Split the level's job count across its clients.
                        let n = jobs_per_level / concurrency
                            + usize::from(worker < jobs_per_level % concurrency);
                        (0..n).map(|_| run_job(addr)).collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread"))
                .collect()
        });
        let wall = t0.elapsed();
        assert_eq!(samples.len(), jobs_per_level);
        let throughput = samples.len() as f64 / wall.as_secs_f64();
        eprintln!(
            "concurrency {concurrency:3}: {} jobs in {:.2}s = {throughput:.2} jobs/s",
            samples.len(),
            wall.as_secs_f64()
        );
        level_docs.push(Json::obj([
            ("concurrency", Json::uint(concurrency as u64)),
            ("jobs", Json::uint(samples.len() as u64)),
            ("wall_s", Json::Num(wall.as_secs_f64())),
            ("throughput_jobs_per_s", Json::Num(throughput)),
            (
                "submit",
                quantiles_ms(samples.iter().map(|s| s.submit_ns).collect()),
            ),
            (
                "status",
                quantiles_ms(samples.iter().map(|s| s.status_ns).collect()),
            ),
            (
                "turnaround",
                quantiles_ms(samples.iter().map(|s| s.turnaround_ns).collect()),
            ),
        ]));
    }

    // The daemon must come out of the load healthy, with every job done.
    let (code, metrics) = get(addr, "/metrics");
    assert_eq!(code, 200);
    let total = (jobs_per_level * levels.len()) as u64;
    assert!(
        metrics.contains(&format!("\"jobs_done\":{total}")),
        "all {total} jobs must finish: {metrics}"
    );

    // /metrics scrape latency, JSON document vs Prometheus text exposition.
    const SCRAPES: usize = 60;
    let scrape = |accept: &str, must_contain: &str| -> Json {
        let samples: Vec<u64> = (0..SCRAPES)
            .map(|_| {
                let t = Instant::now();
                let (code, body) = get_accept(addr, "/metrics", accept);
                let ns = t.elapsed().as_nanos() as u64;
                assert_eq!(code, 200);
                assert!(body.contains(must_contain), "{accept} scrape: {body}");
                ns
            })
            .collect();
        quantiles_ms(samples)
    };
    let scrape_json = scrape("application/json", "\"jobs_done\"");
    let scrape_prom = scrape("text/plain", "# TYPE queue_depth gauge");
    eprintln!("metrics scrape: json {scrape_json} prometheus {scrape_prom}");

    // Span-on vs span-off turnaround, interleaved single-client so slow
    // machine drift cancels instead of biasing one mode.
    let span_jobs = jobs_per_level.clamp(4, 16);
    let span_off_body = r#"{"program":"CP","vars":4,"masks":6,"bit_counts":[1],"spans":false}"#;
    let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
    for _ in 0..span_jobs {
        on_ns.push(run_job_body(addr, JOB_BODY).turnaround_ns);
        off_ns.push(run_job_body(addr, span_off_body).turnaround_ns);
    }
    on_ns.sort_unstable();
    off_ns.sort_unstable();
    let span_delta_pct =
        (percentile(&on_ns, 50.0) as f64 / percentile(&off_ns, 50.0) as f64 - 1.0) * 100.0;
    eprintln!("span-on vs span-off turnaround (p50): {span_delta_pct:+.2}%");
    handle.shutdown();

    // Cache-hit latency: one executed miss warms the store, then identical
    // submissions are answered without re-execution.
    let cache_daemon = Server::bind(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind cache daemon")
    .spawn()
    .expect("spawn cache daemon");
    let caddr = cache_daemon.addr();
    let cache_body = r#"{"program":"CP","vars":4,"masks":6,"bit_counts":[1],"cache":true}"#;
    run_job_body(caddr, cache_body); // the miss: executes and stores
    let hit_ns: Vec<u64> = (0..30)
        .map(|_| {
            let t = Instant::now();
            let (code, body) = post(caddr, "/v1/campaigns", cache_body);
            let ns = t.elapsed().as_nanos() as u64;
            assert_eq!(code, 201, "cache-hit submit failed: {body}");
            assert!(body.contains("\"cached\":true"), "expected a hit: {body}");
            ns
        })
        .collect();
    let cache_hit = quantiles_ms(hit_ns);
    eprintln!("cache hit submit latency: {cache_hit}");
    cache_daemon.shutdown();

    let doc = Json::obj([
        ("bench", Json::str("serve_bench")),
        ("job_body", Json::str(JOB_BODY)),
        ("daemon_workers", Json::uint(workers as u64)),
        ("jobs_per_level", Json::uint(jobs_per_level as u64)),
        ("levels", Json::Arr(level_docs)),
        (
            "metrics_scrape",
            Json::obj([("json", scrape_json), ("prometheus", scrape_prom)]),
        ),
        (
            "span_toggle",
            Json::obj([
                ("jobs_per_mode", Json::uint(span_jobs as u64)),
                ("span_on_turnaround", quantiles_ms(on_ns)),
                ("span_off_turnaround", quantiles_ms(off_ns)),
                ("p50_delta_pct", Json::Num(span_delta_pct)),
            ]),
        ),
        (
            "cache_hit",
            Json::obj([("hits", Json::uint(30)), ("submit", cache_hit)]),
        ),
    ]);
    let rendered = format!("{doc}\n");
    match out_path {
        Some(path) => {
            std::fs::write(&path, &rendered).expect("write bench output");
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
}
