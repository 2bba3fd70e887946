//! Loopback end-to-end tests for the campaign daemon.
//!
//! Each test binds a real [`Server`] on an ephemeral port and drives it with
//! raw HTTP over `TcpStream` — no client library, so the bytes on the wire
//! are exactly what an external tool would send. Covered here: result
//! byte-identity against an in-process run, hand sharding across two
//! daemons merged byte-identically, the result cache, cancellation with
//! `Cache-Control: no-store`, status long-polling, priority lanes, client
//! quotas, deterministic 429 backpressure, 400/413/timeout hostile-input
//! handling, a genuinely panicking job, state-directory recovery across
//! restarts, and the `serve` binary refusing unknown flags.

use hauberk_serve::jobs::JobSpec;
use hauberk_serve::{Server, ServerConfig, ServerHandle};
use hauberk_swifi::journal::merge_journals;
use hauberk_swifi::orchestrator::run_orchestrated_campaign;
use hauberk_telemetry::json::parse;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A small, fast campaign (sub-second in release) used throughout.
const SMALL_CAMPAIGN: &str = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1]}"#;

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json_field(&self, key: &str) -> String {
        let doc =
            parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body {:?}: {e}", self.body));
        doc.get(key)
            .and_then(|v| v.as_str().map(String::from))
            .unwrap_or_else(|| panic!("no `{key}` in {}", self.body))
    }
}

/// Send `raw` and read the full `Connection: close` response.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    // Write and read are best-effort: a server that rejects mid-upload (413)
    // closes while bytes are still in flight, which surfaces as EPIPE/RST on
    // this side even though a complete response was sent first.
    let _ = s.write_all(raw);
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        match s.read(&mut tmp) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
        }
    }
    parse_response(&buf)
}

fn parse_response(buf: &[u8]) -> Response {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = std::str::from_utf8(&buf[..head_end]).unwrap();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap()
        .split(' ')
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let mut body = buf[head_end + 4..].to_vec();
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked")
    {
        body = dechunk(&body);
    }
    Response {
        status,
        headers,
        body: String::from_utf8_lossy(&body).into_owned(),
    }
}

/// Decode a chunked body (sizes are hex, one chunk per line).
fn dechunk(mut b: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let Some(eol) = b.windows(2).position(|w| w == b"\r\n") else {
            return out; // truncated stream: return what arrived
        };
        let size = usize::from_str_radix(std::str::from_utf8(&b[..eol]).unwrap().trim(), 16)
            .expect("chunk size");
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&b[eol + 2..eol + 2 + size]);
        b = &b[eol + 2 + size + 2..];
    }
}

fn get(addr: SocketAddr, path: &str) -> Response {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    raw_request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn delete(addr: SocketAddr, path: &str) -> Response {
    raw_request(
        addr,
        format!("DELETE {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn spawn(cfg: ServerConfig) -> (ServerHandle, SocketAddr) {
    let handle = Server::bind(cfg).unwrap().spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

/// Poll status until the job reaches a terminal phase.
fn wait_terminal(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let st = get(addr, &format!("/v1/campaigns/{id}"));
        assert_eq!(st.status, 200, "{}", st.body);
        let state = st.json_field("state");
        if ["done", "failed", "canceled"].contains(&state.as_str()) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {}", st.body);
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The same spec run in-process: the byte-identity reference.
fn in_process_summary(spec_json: &str) -> String {
    let spec = JobSpec::from_json(&parse(spec_json).unwrap()).unwrap();
    let prog = spec.build_program().unwrap();
    run_orchestrated_campaign(
        prog.as_ref(),
        spec.campaign_kind(),
        &spec.campaign_config(),
        &spec.orchestrator_config(),
    )
    .unwrap()
    .summary_json()
    .to_string()
}

/// Read one metric counter out of a daemon's JSON `/metrics` document.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let m = get(addr, "/metrics");
    assert_eq!(m.status, 200);
    parse(&m.body)
        .unwrap()
        .get("metrics")
        .and_then(|ms| ms.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hauberk-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn submitted_campaign_matches_in_process_run_byte_for_byte() {
    let (handle, addr) = spawn(ServerConfig::default());

    assert_eq!(get(addr, "/healthz").status, 200);
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");

    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200, "{}", res.body);

    // The same spec, run in-process through the same orchestrator entry
    // point, must serialize to the identical bytes: the daemon adds
    // observation, never perturbation.
    assert_eq!(res.body, in_process_summary(SMALL_CAMPAIGN));

    // The event stream replays the whole campaign log and terminates.
    let ev = get(addr, &format!("/v1/campaigns/{id}/events"));
    assert_eq!(ev.status, 200);
    assert!(ev.body.contains("\"ev\":\"job_state\""), "{}", ev.body);
    assert!(ev.body.contains("campaign_started"), "{}", ev.body);
    assert!(ev.body.lines().last().unwrap().contains("done"));

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("\"jobs_done\":1"), "{}", metrics.body);

    handle.shutdown();
}

#[test]
fn hardened_coverage_job_runs_selectively_and_matches_in_process() {
    let (handle, addr) = spawn(ServerConfig::default());

    // A coverage campaign under a selective placement (one NL variable, one
    // loop detector with its trip check) — the `"hardening"` field carries a
    // `HardeningPlan`'s `selection` object verbatim.
    let base = r#""program":"CP","kind":"coverage","vars":6,"masks":8,"bit_counts":[1]"#;
    let hardened_spec = format!(
        r#"{{{base},"hardening":{{"nonloop_vars":["xidx"],"loop_detectors":[{{"loop":0,"var":"energyx2"}}],"trip_checks":[0]}}}}"#
    );
    let sub = post(addr, "/v1/campaigns", &hardened_spec);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200, "{}", res.body);

    // Byte-identical to the same hardened spec run in-process.
    let spec = JobSpec::from_json(&parse(&hardened_spec).unwrap()).unwrap();
    let prog = spec.build_program().unwrap();
    let local = run_orchestrated_campaign(
        prog.as_ref(),
        spec.campaign_kind(),
        &spec.campaign_config(),
        &spec.orchestrator_config(),
    )
    .unwrap();
    assert_eq!(res.body, local.summary_json().to_string());

    // The placement is load-bearing: full protection (no `hardening`)
    // produces a different result document for the same campaign identity.
    let full_spec = format!("{{{base}}}");
    let sub2 = post(addr, "/v1/campaigns", &full_spec);
    assert_eq!(sub2.status, 201, "{}", sub2.body);
    let id2 = sub2.json_field("id");
    assert_eq!(wait_terminal(addr, &id2), "done");
    let res2 = get(addr, &format!("/v1/campaigns/{id2}/result"));
    assert_ne!(
        res.body, res2.body,
        "selective placement must change measured coverage"
    );

    handle.shutdown();
}

#[test]
fn trace_id_follows_the_job_and_spans_form_a_single_tree() {
    let (handle, addr) = spawn(ServerConfig::default());

    // Every response carries X-Hauberk-Trace; probes are uncacheable.
    let h = get(addr, "/healthz");
    assert_eq!(h.status, 200);
    assert!(
        h.header("x-hauberk-trace")
            .is_some_and(|t| t.starts_with("ht-")),
        "{:?}",
        h.headers
    );
    assert_eq!(h.header("cache-control"), Some("no-store"));
    let health = parse(&h.body).unwrap();
    assert_eq!(
        health.get("version").and_then(|v| v.as_str()),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(health.get("uptime_secs").and_then(|v| v.as_u64()).is_some());
    assert!(health.get("workers").and_then(|v| v.as_u64()).is_some());
    assert!(health
        .get("queue_capacity")
        .and_then(|v| v.as_u64())
        .is_some());

    // A client-pinned trace id is echoed verbatim on the response header.
    let pinned = raw_request(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Hauberk-Trace: ht-pinned-42\r\n\r\n",
    );
    assert_eq!(pinned.header("x-hauberk-trace"), Some("ht-pinned-42"));

    // Submit: the request's trace id lands in the job spec and on the 201.
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let trace = sub.header("x-hauberk-trace").unwrap().to_string();
    assert_eq!(sub.json_field("trace"), trace);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");

    // Rebuild the span tree from the job's event log.
    let ev = get(addr, &format!("/v1/campaigns/{id}/events"));
    assert_eq!(ev.status, 200);
    assert!(ev.header("x-hauberk-trace").is_some());
    struct Span {
        name: String,
        id: u64,
        parent: u64,
        trace: Option<String>,
    }
    let spans: Vec<Span> = ev
        .body
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter(|j| j.get("ev").and_then(|e| e.as_str()) == Some("span"))
        .map(|j| Span {
            name: j.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
            id: j.get("id").and_then(|v| v.as_u64()).unwrap(),
            parent: j.get("parent").and_then(|v| v.as_u64()).unwrap(),
            trace: j.get("trace").and_then(|v| v.as_str()).map(String::from),
        })
        .collect();

    // Exactly one root: the campaign span, stamped with the request trace.
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one rooted tree per campaign");
    assert_eq!(roots[0].name, "campaign");
    assert_eq!(roots[0].trace.as_deref(), Some(trace.as_str()));

    // Every non-root span's parent id is another recorded span.
    let by_id: std::collections::BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids are unique");
    for s in spans.iter().filter(|s| s.parent != 0) {
        assert!(
            by_id.contains_key(&s.parent),
            "span {} has unknown parent {}",
            s.name,
            s.parent
        );
    }

    // The hierarchy is campaign → stratum → unit → launch, end to end.
    let launch = spans
        .iter()
        .find(|s| s.name == "launch")
        .expect("launch spans recorded");
    let unit = by_id[&launch.parent];
    assert_eq!(unit.name, "unit");
    let stratum = by_id[&unit.parent];
    assert_eq!(stratum.name, "stratum");
    let campaign = by_id[&stratum.parent];
    assert_eq!(campaign.name, "campaign");
    assert_eq!(campaign.id, roots[0].id);
    for name in ["plan", "stratum", "unit", "launch"] {
        assert!(spans.iter().any(|s| s.name == name), "missing {name} spans");
    }

    handle.shutdown();
}

#[test]
fn prometheus_exposition_is_served_on_accept_text_plain() {
    let (handle, addr) = spawn(ServerConfig::default());
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    assert_eq!(wait_terminal(addr, &sub.json_field("id")), "done");

    // Default stays JSON (existing dashboards keep working).
    let json = get(addr, "/metrics");
    assert_eq!(json.header("content-type"), Some("application/json"));
    assert_eq!(json.header("cache-control"), Some("no-store"));
    assert!(json.body.contains("\"jobs_done\":1"), "{}", json.body);

    // Accept: text/plain → Prometheus 0.0.4 exposition.
    let prom = raw_request(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n",
    );
    assert_eq!(prom.status, 200);
    assert!(
        prom.header("content-type")
            .is_some_and(|t| t.starts_with("text/plain")),
        "{:?}",
        prom.headers
    );
    assert_eq!(prom.header("cache-control"), Some("no-store"));
    let body = &prom.body;
    assert!(body.contains("jobs_done_total 1"), "{body}");
    assert!(body.contains("# TYPE queue_depth gauge"), "{body}");
    assert!(body.contains("queue_capacity "), "{body}");
    assert!(body.contains("busy_workers "), "{body}");
    assert!(body.contains("uptime_seconds "), "{body}");
    assert!(body.contains("jobs_phase_done 1"), "{body}");
    // Per-endpoint HTTP latency histograms with a terminating +Inf bucket.
    assert!(
        body.contains("# TYPE http_latency_us_submit histogram"),
        "{body}"
    );
    assert!(
        body.contains("http_latency_us_submit_bucket{le=\"+Inf\"}"),
        "{body}"
    );
    assert!(body.contains("http_latency_us_submit_count 1"), "{body}");

    handle.shutdown();
}

#[test]
fn kir_kernel_submission_runs_a_campaign() {
    let (handle, addr) = spawn(ServerConfig::default());
    let body = r#"{"kernel":"kernel scale(out: *global f32, x: *global f32, n: i32) {
        let tid: i32 = block_idx_x() * block_dim_x() + thread_idx_x();
        if (tid < n) { store(out, tid, load(x, tid) * 2.0); }
    }","launch":{"blocks":2,"threads":16,"elems":32},"vars":4,"masks":4,"bit_counts":[1]}"#
        .replace('\n', " ");
    let sub = post(addr, "/v1/campaigns", &body);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200);
    let doc = parse(&res.body).unwrap();
    assert!(doc.get("campaign").is_some(), "{}", res.body);
    handle.shutdown();
}

#[test]
fn queue_overflow_returns_deterministic_429_with_retry_after() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        start_paused: true, // nothing drains until we say so
        retry_after_secs: 7,
        ..ServerConfig::default()
    });

    let a = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    let b = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!((a.status, b.status), (201, 201));
    // Queue full: every further submission is 429 + Retry-After, exactly.
    for _ in 0..3 {
        let r = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
        assert_eq!(r.status, 429, "{}", r.body);
        assert_eq!(r.header("retry-after"), Some("7"));
        assert!(r.body.contains("queue is full"), "{}", r.body);
    }
    // Rejected submissions consume no ids and leave no ghost jobs.
    let metrics = get(addr, "/metrics");
    assert!(
        metrics.body.contains("\"submit_backpressured\":3"),
        "{}",
        metrics.body
    );

    // Released, the queue drains and capacity frees up again.
    handle.resume();
    assert_eq!(wait_terminal(addr, &a.json_field("id")), "done");
    assert_eq!(wait_terminal(addr, &b.json_field("id")), "done");
    let c = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(c.status, 201, "{}", c.body);
    assert_eq!(wait_terminal(addr, &c.json_field("id")), "done");
    handle.shutdown();
}

#[test]
fn hostile_requests_get_structured_errors_and_the_daemon_keeps_serving() {
    let (handle, addr) = spawn(ServerConfig {
        max_body_bytes: 4096,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    // Malformed JSON → 400 with a parse message.
    let r = post(addr, "/v1/campaigns", "{not json");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("invalid JSON"), "{}", r.body);

    // Well-formed JSON, bad spec → 400 naming the field.
    let r = post(addr, "/v1/campaigns", r#"{"program":"CP","bogus":1}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown field `bogus`"), "{}", r.body);

    // Malformed kernel → 400 carrying the parse error, not a worker panic.
    let r = post(addr, "/v1/campaigns", r#"{"kernel":"kernel broken {"}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("parse error"), "{}", r.body);

    // Oversized body → 413 from the declared length alone; the server never
    // waits for (or buffers) the payload.
    let r = raw_request(
        addr,
        b"POST /v1/campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n",
    );
    assert_eq!(r.status, 413);
    assert!(r.body.contains("byte limit"), "{}", r.body);

    // Slow-loris: a head that never finishes is timed out, not accumulated.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /v1/campaigns HT").unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    assert_eq!(parse_response(&buf).status, 408);

    // Unknown routes and methods.
    assert_eq!(get(addr, "/v1/campaigns/cj-999").status, 404);
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(
        raw_request(addr, b"DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n").status,
        405
    );

    // After all of that, the daemon still takes real work.
    assert_eq!(get(addr, "/healthz").status, 200);
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    assert_eq!(wait_terminal(addr, &sub.json_field("id")), "done");
    handle.shutdown();
}

#[test]
fn panicking_job_is_quarantined_and_the_daemon_survives() {
    let (handle, addr) = spawn(ServerConfig::default());

    // Sabotage one work unit so it panics on every attempt: the retry →
    // quarantine path must absorb it and still complete the campaign.
    let body = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"max_retries":1,
        "chaos":{"stratum":"FPU/floating-point","chunk":0,"fail_attempts":99,"panics":true}}"#;
    let sub = post(addr, "/v1/campaigns", body);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");

    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200);
    assert!(
        res.body.contains("injected work-unit panic"),
        "quarantine record carries the panic message: {}",
        res.body
    );

    // The worker thread outlived the panic: a clean follow-up job runs fine.
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    assert_eq!(wait_terminal(addr, &sub.json_field("id")), "done");
    handle.shutdown();
}

#[test]
fn state_dir_recovers_results_and_requeues_unstarted_jobs() {
    let dir = tmp_dir("recovery");

    // First daemon: finish one job, leave a second queued (workers paused),
    // then shut down.
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let done_id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &done_id), "done");
    let first_result = get(addr, &format!("/v1/campaigns/{done_id}/result")).body;
    handle.shutdown();

    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        start_paused: true,
        ..ServerConfig::default()
    });
    // The finished job is served from disk, without re-running (workers are
    // paused, so a re-run could never have produced this).
    let res = get(addr, &format!("/v1/campaigns/{done_id}/result"));
    assert_eq!(res.status, 200);
    assert_eq!(
        res.body, first_result,
        "recovered bytes are the persisted bytes"
    );

    // Queue a job the paused pool never starts; shutdown cancels it but its
    // spec persists.
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let queued_id = sub.json_field("id");
    handle.shutdown();

    // Third daemon: the canceled job is re-queued and runs to completion.
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(wait_terminal(addr, &queued_id), "done");
    let res = get(addr, &format!("/v1/campaigns/{queued_id}/result"));
    assert_eq!(res.status, 200);
    assert_eq!(
        res.body, first_result,
        "same spec, same bytes, restart or not"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hand_sharded_daemons_merge_byte_identically() {
    // Two independent daemons, each with its own state directory, run one
    // half of the campaign's strata. Merging their persisted journals and
    // resume-replaying the merge under the unsharded spec must reproduce
    // the single-run bytes without executing a single injection again.
    let dirs = [tmp_dir("shard0"), tmp_dir("shard1")];
    let mut journals = Vec::new();
    for (index, dir) in dirs.iter().enumerate() {
        let (handle, addr) = spawn(ServerConfig {
            state_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let body = SMALL_CAMPAIGN.replace(
            "}",
            &format!(r#","shard":{{"index":{index},"modulus":2}}}}"#),
        );
        let sub = post(addr, "/v1/campaigns", &body);
        assert_eq!(sub.status, 201, "{}", sub.body);
        let id = sub.json_field("id");
        assert_eq!(wait_terminal(addr, &id), "done");
        handle.shutdown();
        let journal = dir.join(format!("{id}.journal.jsonl"));
        assert!(journal.exists(), "shard {index} journal persisted");
        journals.push(journal);
    }

    let merged = dirs[0].join("merged.jsonl");
    let units = merge_journals(&merged, &journals).unwrap();
    assert!(units > 0, "the shards recorded work units");
    let spec = JobSpec::from_json(&parse(SMALL_CAMPAIGN).unwrap()).unwrap();
    let prog = spec.build_program().unwrap();
    let mut orch = spec.orchestrator_config();
    orch.journal_path = Some(merged.clone());
    orch.resume_from = Some(merged);
    let replayed = run_orchestrated_campaign(
        prog.as_ref(),
        spec.campaign_kind(),
        &spec.campaign_config(),
        &orch,
    )
    .unwrap();
    assert_eq!(
        replayed.executed, replayed.resumed_injections,
        "the merged journal covers every planned injection"
    );
    assert_eq!(
        replayed.summary_json().to_string(),
        in_process_summary(SMALL_CAMPAIGN),
        "merged shards must reproduce the unsharded bytes"
    );
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn cache_answers_identical_resubmits_without_rerun() {
    let (handle, addr) = spawn(ServerConfig::default());
    let cached_spec = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"cache":true}"#;
    let sub = post(addr, "/v1/campaigns", cached_spec);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200, "{}", res.body);
    assert_eq!(res.body, in_process_summary(SMALL_CAMPAIGN));
    assert_eq!(metric(addr, "jobs_done"), 1);

    // Identical resubmission: answered from the content-addressed cache —
    // instantly done, marked `cached`, no new work.
    let hit = post(addr, "/v1/campaigns", cached_spec);
    assert_eq!(hit.status, 201, "{}", hit.body);
    assert_eq!(hit.json_field("state"), "done");
    assert!(hit.body.contains("\"cached\":true"), "{}", hit.body);
    let hit_id = hit.json_field("id");
    let hit_res = get(addr, &format!("/v1/campaigns/{hit_id}/result"));
    assert_eq!(hit_res.body, res.body, "cache serves the stored bytes");
    assert_eq!(metric(addr, "cache_hits"), 1);
    assert_eq!(metric(addr, "jobs_done"), 1, "no re-execution");

    // A spec differing only in observational fields still hits.
    let dressed = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"cache":true,
                      "priority":"low","client":"alice"}"#;
    let hit2 = post(addr, "/v1/campaigns", dressed);
    assert_eq!(hit2.status, 201, "{}", hit2.body);
    assert!(hit2.body.contains("\"cached\":true"), "{}", hit2.body);
    assert_eq!(metric(addr, "jobs_done"), 1, "no re-execution");

    handle.shutdown();
}

#[test]
fn delete_cancels_with_no_store_and_the_worker_skips_the_corpse() {
    let (handle, addr) = spawn(ServerConfig {
        start_paused: true,
        workers: 1,
        ..ServerConfig::default()
    });

    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");

    // Queued job: DELETE cancels immediately with 202 + no-store.
    let del = delete(addr, &format!("/v1/campaigns/{id}"));
    assert_eq!(del.status, 202, "{}", del.body);
    assert_eq!(del.header("cache-control"), Some("no-store"));
    assert_eq!(del.json_field("state"), "canceled");

    // A second DELETE is idempotent: 200, still no-store.
    let again = delete(addr, &format!("/v1/campaigns/{id}"));
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(again.header("cache-control"), Some("no-store"));

    // DELETE on a missing id is a 404; on /healthz still 405.
    assert_eq!(delete(addr, "/v1/campaigns/cj-999").status, 404);
    assert_eq!(delete(addr, "/healthz").status, 405);

    // The canceled job must not be executed: resume the pool, run another
    // job to completion, and check exactly one job ever ran.
    handle.resume();
    let sub2 = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    let id2 = sub2.json_field("id");
    assert_eq!(wait_terminal(addr, &id2), "done");
    assert_eq!(metric(addr, "jobs_started"), 1, "corpse was skipped");
    assert_eq!(wait_terminal(addr, &id), "canceled");

    handle.shutdown();
}

#[test]
fn status_long_poll_defers_until_phase_change() {
    let (handle, addr) = spawn(ServerConfig {
        start_paused: true,
        ..ServerConfig::default()
    });
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    let id = sub.json_field("id");

    // Phase doesn't change: the poll holds for the full timeout.
    let t0 = Instant::now();
    let st = get(
        addr,
        &format!("/v1/campaigns/{id}?watch=queued&timeout_ms=300"),
    );
    assert_eq!(st.status, 200);
    assert_eq!(st.json_field("state"), "queued");
    assert_eq!(st.header("cache-control"), Some("no-store"));
    assert!(
        t0.elapsed() >= Duration::from_millis(250),
        "long-poll returned in {:?}, before its timeout",
        t0.elapsed()
    );

    // Phase changes mid-poll: the response arrives without the full wait.
    let t1 = Instant::now();
    let poller = std::thread::spawn({
        let path = format!("/v1/campaigns/{id}?watch=queued&timeout_ms=20000");
        move || get(addr, &path)
    });
    std::thread::sleep(Duration::from_millis(50));
    handle.resume();
    let st = poller.join().unwrap();
    assert_eq!(st.status, 200);
    assert_ne!(st.json_field("state"), "queued", "{}", st.body);
    assert!(
        t1.elapsed() < Duration::from_secs(20),
        "woke before timeout"
    );

    // A bad watch label is a structured 400.
    let bad = get(addr, &format!("/v1/campaigns/{id}?watch=sideways"));
    assert_eq!(bad.status, 400, "{}", bad.body);

    let _ = wait_terminal(addr, &id);
    handle.shutdown();
}

#[test]
fn high_priority_lane_overtakes_queued_batch_jobs() {
    let (handle, addr) = spawn(ServerConfig {
        start_paused: true,
        workers: 1,
        ..ServerConfig::default()
    });

    // Three batch jobs enqueued first, then one interactive job.
    let low = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"priority":"low","seed":1}"#;
    let low_id = post(addr, "/v1/campaigns", low).json_field("id");
    for seed in 2..4 {
        let body = low.replace("\"seed\":1", &format!("\"seed\":{seed}"));
        assert_eq!(post(addr, "/v1/campaigns", &body).status, 201);
    }
    let high = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"priority":"high"}"#;
    let high_id = post(addr, "/v1/campaigns", high).json_field("id");

    handle.resume();
    // The first job to leave "queued" must be the high-priority one, even
    // though it was submitted last.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let high_state = get(addr, &format!("/v1/campaigns/{high_id}")).json_field("state");
        let low_state = get(addr, &format!("/v1/campaigns/{low_id}")).json_field("state");
        if high_state != "queued" {
            assert_eq!(
                low_state, "queued",
                "high lane must drain before the first low job starts"
            );
            break;
        }
        assert_eq!(low_state, "queued", "low job overtook the high lane");
        assert!(Instant::now() < deadline, "nothing ever started");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(wait_terminal(addr, &high_id), "done");
    handle.shutdown();
}

#[test]
fn client_quota_bounds_admissions_per_identity() {
    let (handle, addr) = spawn(ServerConfig {
        start_paused: true,
        client_quota: 1,
        ..ServerConfig::default()
    });
    let alice = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"client":"alice"}"#;
    assert_eq!(post(addr, "/v1/campaigns", alice).status, 201);
    let over = post(addr, "/v1/campaigns", alice);
    assert_eq!(over.status, 429, "{}", over.body);
    assert!(over.header("retry-after").is_some(), "{:?}", over.headers);
    assert!(over.body.contains("client quota"), "{}", over.body);

    // A different identity (and the anonymous bucket) are unaffected.
    let bob = alice.replace("alice", "bob");
    assert_eq!(post(addr, "/v1/campaigns", &bob).status, 201);
    assert_eq!(post(addr, "/v1/campaigns", SMALL_CAMPAIGN).status, 201);

    handle.shutdown();
}

#[test]
fn serve_binary_refuses_unknown_flags_and_missing_values() {
    // A retired or misspelled flag must stop the daemon at start-up rather
    // than be ignored, so an operator never runs a configuration they did
    // not ask for.
    for args in [
        &["--addr", "127.0.0.1:0", "--peer", "127.0.0.1:7071"][..],
        &["--addr", "127.0.0.1:0", "--workers"][..],
    ] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("serve {args:?} started instead of refusing");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown flag or missing value"),
            "{args:?}: {stderr}"
        );
    }
}
