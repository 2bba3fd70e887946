//! `serve-mix`: an in-process campaign daemon at its default configuration,
//! driven over loopback HTTP by two closed-loop clients.
//!
//! Each client iteration submits a small named-program (CP) coverage job,
//! a small ad-hoc kernel-text job, and an identical `"cache": true` spec
//! that the daemon answers from its result cache; it waits for each job by
//! status long-poll, fetches the result, then issues one plain status GET,
//! one `/healthz` and one `/metrics`. Every result must equal the same spec
//! run in process, and every response must be the expected 2xx.

use crate::layers::{instrumented_kernel, traced_campaign, CampaignLayers, KirLayers};
use crate::{json_str, median, tail, Args, Budget, Report};
use hauberk_serve::http::{client_call, ClientResponse};
use hauberk_serve::{JobSpec, Server, ServerConfig, ServerHandle};
use hauberk_swifi::orchestrator::run_orchestrated_campaign;
use hauberk_telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Closed-loop clients (the host has two cores).
const CLIENTS: usize = 2;

/// Distinct specs per job kind; clients cycle through them.
const POOL: u64 = 16;

/// Sequential requests per endpoint in the traced run's quiet phase.
const QUIET_REQS: usize = 20;

const TIMEOUT: Duration = Duration::from_secs(60);

/// The ad-hoc job's kernel: a short per-thread loop, so the build carries
/// Hauberk-L loop detectors as well as the non-loop checksums.
const KERNEL: &str = "kernel smooth(out: *global f32, x: *global f32, n: i32) {
    let tid: i32 = block_idx_x() * block_dim_x() + thread_idx_x();
    let acc: f32 = 0.0;
    for (i = 0; i < 8; i = i + 1) {
        acc = acc + load(x, (tid + i) % n) * 0.125;
    }
    if (tid < n) {
        store(out, tid, acc);
    }
}
";

/// The submission bodies of one run, derived from the benchmark seed.
struct Specs {
    named: Vec<String>,
    adhoc: Vec<String>,
    cached: String,
}

impl Specs {
    fn new(seed: u64) -> Self {
        let base = 0xFEED_u64.wrapping_add(seed.wrapping_mul(POOL + 1));
        // Six injections: few enough that campaign set-up (build, golden
        // run, profiling) outweighs warp execution.
        let named = |s: u64, cache: bool| {
            format!(
                r#"{{"program":"CP","kind":"coverage","seed":{s},"vars":2,"masks":3,"bit_counts":[1]{}}}"#,
                if cache { r#","cache":true"# } else { "" }
            )
        };
        Specs {
            named: (0..POOL).map(|i| named(base + i, false)).collect(),
            adhoc: (0..POOL)
                .map(|i| {
                    format!(
                        r#"{{"kernel":{},"kind":"coverage","seed":{},"launch":{{"blocks":2,"threads":16,"elems":32}},"vars":3,"masks":3,"bit_counts":[1]}}"#,
                        json_str(KERNEL),
                        base + i
                    )
                })
                .collect(),
            cached: named(base + POOL, true),
        }
    }

    /// Every distinct spec, keyed as the clients record results.
    fn all(&self) -> Vec<(String, &str)> {
        let mut v: Vec<(String, &str)> = Vec::new();
        for (i, s) in self.named.iter().enumerate() {
            v.push((format!("named.{i}"), s));
        }
        for (i, s) in self.adhoc.iter().enumerate() {
            v.push((format!("adhoc.{i}"), s));
        }
        v.push(("cached".to_string(), &self.cached));
        v
    }
}

/// A daemon that is shut down (threads joined) when dropped.
struct Daemon {
    handle: Option<ServerHandle>,
    addr: String,
}

impl Daemon {
    /// Bind and spawn a default-configured daemon, then wait until
    /// `/healthz` answers 200.
    fn start() -> Daemon {
        let server = Server::bind(ServerConfig::default()).expect("bind daemon");
        let handle = server.spawn().expect("spawn daemon");
        let addr = handle.addr().to_string();
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match client_call(&addr, "GET", "/healthz", &[], b"", TIMEOUT) {
                Ok(r) if r.status == 200 => break,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("daemon never became healthy: {other:?}"),
            }
        }
        Daemon {
            handle: Some(handle),
            addr,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

/// Client-side phase times of one job, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
struct JobTimes {
    submit: f64,
    queue_wait: f64,
    run: f64,
    result: f64,
    turnaround: f64,
}

/// What one client saw.
#[derive(Debug, Default)]
struct ClientLog {
    named: Vec<JobTimes>,
    adhoc: Vec<JobTimes>,
    light: Vec<f64>,
    iterations: Vec<f64>,
    injections: u64,
    /// First result body per spec key; a later body that differs is an
    /// error.
    results: BTreeMap<String, String>,
    /// Requests made.
    attempted: u64,
    /// One entry per failed request.
    errors: Vec<String>,
}

impl ClientLog {
    /// Record one request outcome; anything but `want` is a failure.
    fn expect(
        &mut self,
        what: &str,
        r: Result<ClientResponse, String>,
        want: u16,
    ) -> Option<ClientResponse> {
        self.attempted += 1;
        match r {
            Ok(resp) if resp.status == want => Some(resp),
            Ok(resp) => {
                self.errors
                    .push(format!("{what}: HTTP {} {}", resp.status, resp.text()));
                None
            }
            Err(e) => {
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }

    fn record_result(&mut self, key: String, body: String) {
        match self.results.get(&key) {
            Some(first) if *first != body => self
                .errors
                .push(format!("{key}: result differs between submissions")),
            Some(_) => {}
            None => {
                self.results.insert(key, body);
            }
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn call(addr: &str, method: &str, path: &str, body: &str) -> (Result<ClientResponse, String>, f64) {
    let t = Instant::now();
    let r = client_call(addr, method, path, &[], body.as_bytes(), TIMEOUT);
    (r, ms(t))
}

fn field(resp: &ClientResponse, key: &str) -> Option<Json> {
    parse(&resp.text()).ok()?.get(key).cloned()
}

/// A string field of a JSON response; a missing one is a failure.
fn str_field(log: &mut ClientLog, resp: &ClientResponse, key: &str) -> Option<String> {
    let v = field(resp, key).and_then(|v| v.as_str().map(String::from));
    if v.is_none() {
        log.errors
            .push(format!("response lacks `{key}`: {}", resp.text()));
    }
    v
}

/// Submit `body`, long-poll its status to a terminal state, fetch the
/// result. Returns the phase times, the result body, the planned
/// injections and the job id.
fn job(log: &mut ClientLog, addr: &str, body: &str) -> Option<(JobTimes, String, u64, String)> {
    let t0 = Instant::now();
    let (r, submit) = call(addr, "POST", "/v1/campaigns", body);
    let resp = log.expect("submit", r, 201)?;
    let id = str_field(log, &resp, "id")?;
    let mut state = str_field(log, &resp, "state")?;
    let t1 = Instant::now();
    let mut queue_wait = None;
    let mut planned = 0;
    while state == "queued" || state == "running" {
        let path = format!("/v1/campaigns/{id}?watch={state}&timeout_ms=30000");
        let (r, _) = call(addr, "GET", &path, "");
        let resp = log.expect("status long-poll", r, 200)?;
        let next = str_field(log, &resp, "state")?;
        planned = field(&resp, "planned")
            .and_then(|p| p.as_u64())
            .unwrap_or(0);
        if state == "queued" && next != "queued" {
            queue_wait = Some(ms(t1));
        }
        state = next;
    }
    let waited = ms(t1);
    if state != "done" {
        log.errors.push(format!("job {id} ended {state}"));
        return None;
    }
    let (r, result) = call(addr, "GET", &format!("/v1/campaigns/{id}/result"), "");
    let text = log.expect("result", r, 200)?.text();
    let queue_wait = queue_wait.unwrap_or(0.0);
    let times = JobTimes {
        submit,
        queue_wait,
        run: waited - queue_wait,
        result,
        turnaround: ms(t0),
    };
    Some((times, text, planned, id))
}

/// One client iteration (see the module docs).
fn iteration(log: &mut ClientLog, addr: &str, specs: &Specs, k: usize) {
    let i = k % POOL as usize;
    let mut named_id = None;
    if let Some((t, body, planned, id)) = job(log, addr, &specs.named[i]) {
        log.named.push(t);
        log.injections += planned;
        log.record_result(format!("named.{i}"), body);
        named_id = Some(id);
    }
    if let Some((t, body, planned, _)) = job(log, addr, &specs.adhoc[i]) {
        log.adhoc.push(t);
        log.injections += planned;
        log.record_result(format!("adhoc.{i}"), body);
    }

    let (r, lat) = call(addr, "POST", "/v1/campaigns", &specs.cached);
    if let Some(resp) = log.expect("cache-hit submit", r, 201) {
        log.light.push(lat);
        let hit = field(&resp, "cached").and_then(|c| c.as_bool()) == Some(true);
        if !hit {
            log.errors
                .push("cached spec was not answered from the cache".to_string());
        }
        if let Some(id) = str_field(log, &resp, "id") {
            let (r, _) = call(addr, "GET", &format!("/v1/campaigns/{id}/result"), "");
            if let Some(res) = log.expect("cache-hit result", r, 200) {
                log.record_result("cached".to_string(), res.text());
            }
        }
    }
    // The plain status GET reads the named job this iteration ran.
    if let Some(id) = named_id {
        let (r, lat) = call(addr, "GET", &format!("/v1/campaigns/{id}"), "");
        if log.expect("status", r, 200).is_some() {
            log.light.push(lat);
        }
    }
    for path in ["/healthz", "/metrics"] {
        let (r, lat) = call(addr, "GET", path, "");
        if log.expect(path, r, 200).is_some() {
            log.light.push(lat);
        }
    }
}

/// The daemon's metric registry, as its `/metrics` JSON document holds it.
fn scrape(addr: &str) -> Json {
    let r = client_call(addr, "GET", "/metrics", &[], b"", TIMEOUT).expect("scrape /metrics");
    parse(&r.text())
        .ok()
        .and_then(|d| d.get("metrics").cloned())
        .expect("/metrics JSON holds a `metrics` registry")
}

fn counter(doc: &Json, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// `(count, sum)` of a server latency histogram.
fn hist(doc: &Json, name: &str) -> (u64, u64) {
    let h = doc.get("histograms").and_then(|h| h.get(name));
    let f = |k: &str| h.and_then(|h| h.get(k)).and_then(Json::as_u64).unwrap_or(0);
    (f("count"), f("sum"))
}

pub fn run(args: &Args, r: &mut Report) {
    let specs = Specs::new(args.seed);
    let (setup_s, daemon) = crate::measure_setup(Daemon::start);
    let addr = daemon.addr.clone();
    let health = scrape_health(&addr);
    r.note("daemon_workers", health.to_string());

    // Prime the result cache (outside every timed window): the first
    // `"cache": true` submission executes and stores its result.
    let mut primer = ClientLog::default();
    if let Some((_, body, _, _)) = job(&mut primer, &addr, &specs.cached) {
        primer.record_result("cached".to_string(), body);
    }

    let budget = Budget::new(args.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, specs, budget) = (&addr, &specs, &budget);
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    // Both clients walk the whole pool, half a pool apart.
                    let mut k = c * POOL as usize / CLIENTS;
                    loop {
                        let t = Instant::now();
                        iteration(&mut log, addr, specs, k);
                        let wall = t.elapsed().as_secs_f64();
                        log.iterations.push(wall);
                        k += 1;
                        if !budget.another(wall) {
                            break log;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Gate: every request answered as expected, and every result equal to
    // the in-process run of its spec.
    let mut all = ClientLog::default();
    for mut log in logs.into_iter().chain([primer]) {
        all.named.append(&mut log.named);
        all.adhoc.append(&mut log.adhoc);
        all.light.append(&mut log.light);
        all.iterations.append(&mut log.iterations);
        all.injections += log.injections;
        all.attempted += log.attempted;
        all.errors.append(&mut log.errors);
        for (k, body) in log.results {
            all.record_result(k, body);
        }
    }
    r.tally(all.attempted, &all.errors);
    let end = scrape(&addr);
    let cache_hits = counter(&end, "cache_hits");
    let rejected = counter(&end, "submit_backpressured") + counter(&end, "submit_quota_rejected");

    // In-process reference runs of every spec the clients submitted (traced
    // in the traced run, for the campaign layers).
    let mut layers = CampaignLayers::default();
    for (key, body) in specs.all() {
        let Some(got) = all.results.get(&key) else {
            continue;
        };
        let spec = JobSpec::from_json(&parse(body).expect("spec JSON")).expect("valid spec");
        let prog = spec.build_program().expect("spec program");
        let (cfg, orch) = (spec.campaign_config(), spec.orchestrator_config());
        let want = if args.trace {
            let (res, l) = traced_campaign(prog.as_ref(), spec.campaign_kind(), &cfg, &orch)
                .expect("reference campaign");
            layers.add(&l);
            res.summary_json().to_string()
        } else {
            run_orchestrated_campaign(prog.as_ref(), spec.campaign_kind(), &cfg, &orch)
                .expect("reference campaign")
                .summary_json()
                .to_string()
        };
        r.check(*got == want, || {
            format!("{key}: daemon result differs from the in-process run")
        });
    }

    let turn = |v: &[JobTimes]| v.iter().map(|t| t.turnaround).collect::<Vec<_>>();
    let jobs = turn(&all.named);
    let adhoc = turn(&all.adhoc);
    let (job_p, job_tail) = tail(&jobs);
    let (light_p, light_tail) = tail(&all.light);
    let wall = median(&all.iterations);
    let measured_s: f64 = all.iterations.iter().sum::<f64>() / CLIENTS as f64;
    r.note("iterations", all.iterations.len().to_string());
    r.note("job_turnaround_p50_ms", format!("{}", median(&jobs)));
    r.note(
        "job_turnaround_tail",
        format!(
            "{{\"percentile\":{job_p},\"ms\":{job_tail},\"samples\":{}}}",
            jobs.len()
        ),
    );
    r.note("adhoc_turnaround_p50_ms", format!("{}", median(&adhoc)));
    r.note("light_req_p50_ms", format!("{}", median(&all.light)));
    r.note(
        "light_req_tail",
        format!(
            "{{\"percentile\":{light_p},\"ms\":{light_tail},\"samples\":{}}}",
            all.light.len()
        ),
    );
    r.note(
        "injections_per_s",
        format!("{}", all.injections as f64 / measured_s),
    );

    if !args.trace {
        r.metric("setup_s", setup_s, "s");
        r.metric("wall_s", wall, "s");
        return;
    }

    r.metric("serve.job_turnaround_p50_ms", median(&jobs), "ms");
    r.metric("serve.job_turnaround_tail_ms", job_tail, "ms");
    r.metric("serve.adhoc_turnaround_p50_ms", median(&adhoc), "ms");
    r.metric("serve.light_req_p50_ms", median(&all.light), "ms");
    r.metric("serve.light_req_tail_ms", light_tail, "ms");
    let both: Vec<JobTimes> = all.named.iter().chain(&all.adhoc).copied().collect();
    let phase = |f: fn(&JobTimes) -> f64| median(&both.iter().map(f).collect::<Vec<_>>());
    r.metric("serve.submit_ms", phase(|t| t.submit), "ms");
    r.metric("serve.queue_wait_ms", phase(|t| t.queue_wait), "ms");
    r.metric("serve.run_ms", phase(|t| t.run), "ms");
    r.metric("serve.result_ms", phase(|t| t.result), "ms");
    r.metric("serve.cache_hits", cache_hits as f64, "count");
    r.metric("serve.rejected_429", rejected as f64, "count");
    quiet_phase(r, &addr, &specs);
    layers.report(r);

    let mut kir = KirLayers::default();
    for body in [&specs.named[0], &specs.adhoc[0]] {
        let spec = JobSpec::from_json(&parse(body).expect("spec JSON")).expect("valid spec");
        let prog = spec.build_program().expect("spec program");
        kir.measure(&instrumented_kernel(prog.as_ref()));
    }
    kir.report(r);
}

fn scrape_health(addr: &str) -> u64 {
    let r = client_call(addr, "GET", "/healthz", &[], b"", TIMEOUT).expect("GET /healthz");
    field(&r, "workers").and_then(|w| w.as_u64()).unwrap_or(0)
}

/// With the clients stopped, issue [`QUIET_REQS`] sequential requests per
/// light endpoint and split each round trip into server handling time
/// (from the daemon's own latency histograms) and the rest: accept wait,
/// connection set-up and transfer.
fn quiet_phase(r: &mut Report, addr: &str, specs: &Specs) {
    let status_path = {
        let resp = client_call(
            addr,
            "POST",
            "/v1/campaigns",
            &[],
            specs.cached.as_bytes(),
            TIMEOUT,
        )
        .expect("cache-hit submit");
        let id = field(&resp, "id").and_then(|v| v.as_str().map(String::from));
        format!("/v1/campaigns/{}", id.expect("job id"))
    };
    let endpoints: [(&str, &str, &str, &str); 4] = [
        ("status", "GET", status_path.as_str(), ""),
        ("healthz", "GET", "/healthz", ""),
        ("metrics", "GET", "/metrics", ""),
        ("submit", "POST", "/v1/campaigns", specs.cached.as_str()),
    ];
    let mut client_ms = Vec::new();
    let mut server_ms = Vec::new();
    for (label, method, path, body) in endpoints {
        let key = format!("http_latency_us.{label}");
        let before = hist(&scrape(addr), &key);
        let mut rtts = Vec::with_capacity(QUIET_REQS);
        for _ in 0..QUIET_REQS {
            let (resp, lat) = call(addr, method, path, body);
            let ok = resp
                .as_ref()
                .is_ok_and(|x| x.status == 200 || x.status == 201);
            r.check(ok, || format!("quiet {label}: {resp:?}"));
            rtts.push(lat);
        }
        let after = hist(&scrape(addr), &key);
        let (n, sum) = (after.0 - before.0, after.1 - before.1);
        let server_us = if n > 0 { sum as f64 / n as f64 } else { 0.0 };
        r.metric(format!("http.server_us.{label}"), server_us, "us");
        client_ms.push(rtts.iter().sum::<f64>() / rtts.len() as f64);
        server_ms.push(server_us / 1e3);
        r.note(
            format!("quiet_rtt_p50_ms.{label}"),
            format!("{}", median(&rtts)),
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    r.metric(
        "http.accept_wait_ms",
        mean(&client_ms) - mean(&server_ms),
        "ms",
    );
}
