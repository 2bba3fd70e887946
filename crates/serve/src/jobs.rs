//! Job specifications, job state, and the per-job event log that feeds the
//! live progress stream.
//!
//! A job is one fault-injection campaign: a program (named benchmark or
//! ad-hoc KIR kernel text), a campaign kind, and sizing knobs. The spec is
//! parsed from untrusted JSON with an allow-listed key set — an unknown key
//! is a structured 400, not a silently ignored typo — and validated at
//! submit time (kernel parse + validation included), so everything that can
//! be rejected synchronously is rejected before the job enters the queue.

use hauberk::builds::FtOptions;
use hauberk::program::HostProgram;
use hauberk::textprog::{TextOptions, TextProgram};
use hauberk::translator::select::HardeningSelection;
use hauberk::units::Stratum;
use hauberk_benchmarks::{program_by_name, ProblemScale};
use hauberk_swifi::campaign::{CampaignConfig, CampaignKind};
use hauberk_swifi::mask::PAPER_BIT_COUNTS;
use hauberk_swifi::orchestrator::{ChaosConfig, OrchestratorConfig};
use hauberk_swifi::plan::PlanConfig;
use hauberk_swifi::sampler::AdaptiveConfig;
use hauberk_telemetry::json::Json;
use hauberk_telemetry::{lock_recover, Event, TelemetrySink};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Queue priority lane of a submission. The bounded queue holds one lane
/// per level and workers always drain the highest non-empty lane first, so
/// an interactive `high` submission overtakes a backlog of `low` batch
/// sweeps without preempting the job already running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Interactive lane: drained before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Batch lane: drained only when the other lanes are empty.
    Low,
}

impl Priority {
    /// Stable wire label (`"high"`, `"normal"`, `"low"`).
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parse a wire label.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    /// Queue lane index, highest priority first.
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// What to execute: a registered benchmark or ad-hoc kernel text.
#[derive(Debug, Clone)]
pub enum ProgramSpec {
    /// One of the bundled benchmark programs, by paper name (`"CP"`, ...).
    Named(String),
    /// Raw mini-CUDA kernel source, run via [`TextProgram`].
    Kir(String),
}

/// A validated campaign submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Program under test.
    pub program: ProgramSpec,
    /// `"sensitivity"` (baseline build) or `"coverage"` (FI&FT build).
    pub coverage: bool,
    /// Planning seed.
    pub seed: u64,
    /// Virtual variables to target.
    pub vars: usize,
    /// Masks per variable.
    pub masks: usize,
    /// Mask bit counts to cycle through.
    pub bit_counts: Vec<u32>,
    /// Range-widening factor (coverage campaigns).
    pub alpha: f64,
    /// Injections per orchestrator work unit (0 = default).
    pub shard_size: usize,
    /// Retry budget before a crashing work unit is quarantined.
    pub max_retries: u32,
    /// Optional adaptive early stopping.
    pub adaptive: Option<AdaptiveConfig>,
    /// Launch geometry for KIR submissions (ignored for named programs).
    pub launch: TextOptions,
    /// Operator fault-injection hook: sabotage one work unit to validate the
    /// daemon's retry → quarantine resilience end-to-end (tests and drills).
    pub chaos: Option<ChaosConfig>,
    /// Execution engine (`None` = the process-wide default). Validated at
    /// POST time and recorded in the campaign journal header, so a resumed
    /// or merged campaign can never silently mix engines.
    pub engine: Option<hauberk_sim::ExecEngine>,
    /// Correlation trace id. Usually assigned by the daemon from the
    /// submitting request (echoed back as `X-Hauberk-Trace`); a client may
    /// also pin its own. Stamped onto the campaign's root span so every
    /// span in the job's event log carries it.
    pub trace: Option<String>,
    /// Emit tracing spans into the job's event log (default `true`).
    /// `"spans": false` drops the span layer for latency-critical
    /// submissions; `serve_bench` uses it to price the layer.
    pub spans: bool,
    /// Run the campaign from a shared fault-free checkpoint (default
    /// `false`): one reference run captures per-block snapshots and every
    /// injection resumes from them. The result document is byte-identical
    /// either way; ineligible campaigns fall back to full re-execution.
    pub checkpoint: bool,
    /// `(index, modulus)`: execute only the strata this shard owns (the
    /// orchestrator's round-robin partition). Submitting shards `0..M` of
    /// one spec to independent daemons with a `state_dir` and merging their
    /// persisted journals with `merge_journals` reproduces the unsharded
    /// run byte-for-byte (`DESIGN.md` §18).
    pub shard: Option<(u32, u32)>,
    /// Queue priority lane (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Client identity for per-client quotas: with `--client-quota N`, at
    /// most N non-terminal jobs per `client` value are admitted at once
    /// (anonymous submissions share one bucket).
    pub client: Option<String>,
    /// Selective detector placement for coverage campaigns: the
    /// `selection` object of a [`mod@hauberk_swifi::harden`] plan. `None`
    /// (the default) keeps the classic protect-everything build; a
    /// selection restricts the FT passes to exactly the named sites, so a
    /// daemon can re-measure a hardened placement without local tooling.
    pub hardening: Option<HardeningSelection>,
    /// Opt into the content-addressed result cache (default `false`): on
    /// completion the result document is stored under the spec's
    /// [`JobSpec::cache_key`], and a later identical submission with
    /// `"cache": true` returns the stored bytes instantly without
    /// re-executing. Sound because campaigns are deterministic per
    /// canonical spec.
    pub cache: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            program: ProgramSpec::Named("CP".to_string()),
            coverage: false,
            seed: CampaignConfig::default().seed,
            vars: 20,
            masks: 25,
            bit_counts: PAPER_BIT_COUNTS.to_vec(),
            alpha: 1.0,
            shard_size: 0,
            max_retries: OrchestratorConfig::DEFAULT_MAX_RETRIES,
            adaptive: None,
            launch: TextOptions::default(),
            chaos: None,
            engine: None,
            trace: None,
            spans: true,
            checkpoint: false,
            shard: None,
            priority: Priority::Normal,
            client: None,
            hardening: None,
            cache: false,
        }
    }
}

fn want_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.as_u64()
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

fn want_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))
}

impl JobSpec {
    /// Parse and validate a submission document. Errors are end-user
    /// messages for a 400 response.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let Json::Obj(map) = doc else {
            return Err("request body must be a JSON object".to_string());
        };
        const KNOWN: &[&str] = &[
            "program",
            "kernel",
            "kind",
            "seed",
            "vars",
            "masks",
            "bit_counts",
            "alpha",
            "shard_size",
            "max_retries",
            "adaptive",
            "launch",
            "chaos",
            "engine",
            "trace",
            "spans",
            "checkpoint",
            "shard",
            "priority",
            "client",
            "hardening",
            "cache",
        ];
        if let Some(k) = map.keys().find(|k| !KNOWN.contains(&k.as_str())) {
            return Err(format!("unknown field `{k}` (known: {})", KNOWN.join(", ")));
        }

        let program = match (map.get("program"), map.get("kernel")) {
            (Some(_), Some(_)) => {
                return Err("`program` and `kernel` are mutually exclusive".to_string())
            }
            (Some(p), None) => {
                ProgramSpec::Named(p.as_str().ok_or("`program` must be a string")?.to_string())
            }
            (None, Some(k)) => {
                ProgramSpec::Kir(k.as_str().ok_or("`kernel` must be a string")?.to_string())
            }
            (None, None) => return Err("one of `program` or `kernel` is required".to_string()),
        };
        let mut spec = JobSpec {
            program,
            ..JobSpec::default()
        };
        if let Some(k) = map.get("kind") {
            spec.coverage = match k.as_str() {
                Some("sensitivity") => false,
                Some("coverage") => true,
                _ => return Err("`kind` must be \"sensitivity\" or \"coverage\"".to_string()),
            };
        }
        if let Some(v) = map.get("engine") {
            let name = v.as_str().ok_or("`engine` must be a string")?;
            spec.engine = Some(hauberk_sim::ExecEngine::parse(name).ok_or_else(|| {
                format!("`engine` must be one of tree-walk, bytecode, batch (got `{name}`)")
            })?);
        }
        if let Some(v) = map.get("trace") {
            let t = v.as_str().ok_or("`trace` must be a string")?;
            if t.is_empty() || t.len() > 128 || !t.chars().all(|c| c.is_ascii_graphic()) {
                return Err(
                    "`trace` must be 1..=128 printable ASCII characters (it is echoed \
                     as a response header)"
                        .to_string(),
                );
            }
            spec.trace = Some(t.to_string());
        }
        if let Some(v) = map.get("spans") {
            spec.spans = v.as_bool().ok_or("`spans` must be a boolean")?;
        }
        if let Some(v) = map.get("checkpoint") {
            spec.checkpoint = v.as_bool().ok_or("`checkpoint` must be a boolean")?;
        }
        if let Some(v) = map.get("shard") {
            let index = v
                .get("index")
                .and_then(|i| i.as_u64())
                .ok_or("`shard.index` must be a non-negative integer")?;
            let modulus = v
                .get("modulus")
                .and_then(|m| m.as_u64())
                .ok_or("`shard.modulus` must be a positive integer")?;
            if !(1..=64).contains(&modulus) {
                return Err("`shard.modulus` must be in 1..=64".to_string());
            }
            if index >= modulus {
                return Err("`shard.index` must be < `shard.modulus`".to_string());
            }
            spec.shard = Some((index as u32, modulus as u32));
        }
        if let Some(v) = map.get("priority") {
            let label = v.as_str().ok_or("`priority` must be a string")?;
            spec.priority = Priority::parse(label).ok_or_else(|| {
                format!("`priority` must be \"high\", \"normal\" or \"low\" (got `{label}`)")
            })?;
        }
        if let Some(v) = map.get("client") {
            let c = v.as_str().ok_or("`client` must be a string")?;
            if c.is_empty() || c.len() > 64 || !c.chars().all(|ch| ch.is_ascii_graphic()) {
                return Err("`client` must be 1..=64 printable ASCII characters".to_string());
            }
            spec.client = Some(c.to_string());
        }
        if let Some(v) = map.get("hardening") {
            spec.hardening = Some(HardeningSelection::from_json(v).ok_or(
                "`hardening` must be a selection object with `nonloop_vars`, \
                 `loop_detectors` and `trip_checks` (a hardening plan's `selection` field)",
            )?);
        }
        if let Some(v) = map.get("cache") {
            spec.cache = v.as_bool().ok_or("`cache` must be a boolean")?;
        }
        if let Some(v) = map.get("seed") {
            spec.seed = want_u64(v, "seed")?;
        }
        if let Some(v) = map.get("vars") {
            spec.vars = want_u64(v, "vars")?.clamp(1, 1024) as usize;
        }
        if let Some(v) = map.get("masks") {
            spec.masks = want_u64(v, "masks")?.clamp(1, 1024) as usize;
        }
        if let Some(v) = map.get("alpha") {
            spec.alpha = want_f64(v, "alpha")?;
            if !(spec.alpha >= 1.0 && spec.alpha.is_finite()) {
                return Err("`alpha` must be a finite number >= 1".to_string());
            }
        }
        if let Some(v) = map.get("shard_size") {
            spec.shard_size = want_u64(v, "shard_size")?.min(1 << 16) as usize;
        }
        if let Some(v) = map.get("max_retries") {
            spec.max_retries = want_u64(v, "max_retries")?.min(16) as u32;
        }
        if let Some(v) = map.get("bit_counts") {
            let arr = v.as_arr().ok_or("`bit_counts` must be an array")?;
            if arr.is_empty() || arr.len() > 32 {
                return Err("`bit_counts` must hold 1..=32 entries".to_string());
            }
            spec.bit_counts = arr
                .iter()
                .map(|b| {
                    b.as_u64()
                        .filter(|b| (1..=32).contains(b))
                        .map(|b| b as u32)
                        .ok_or_else(|| {
                            "`bit_counts` entries must be integers in 1..=32".to_string()
                        })
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = map.get("adaptive") {
            let mut a = AdaptiveConfig::default();
            if let Some(w) = v.get("ci_width") {
                a.ci_width = want_f64(w, "adaptive.ci_width")?;
                if !(a.ci_width > 0.0 && a.ci_width < 1.0) {
                    return Err("`adaptive.ci_width` must be in (0, 1)".to_string());
                }
            }
            if let Some(n) = v.get("min_samples") {
                a.min_samples = want_u64(n, "adaptive.min_samples")?;
            }
            spec.adaptive = Some(a);
        }
        if let Some(v) = map.get("chaos") {
            let key = v
                .get("stratum")
                .and_then(|s| s.as_str())
                .ok_or("`chaos.stratum` (a stratum key like \"FPU/floating-point\") is required")?;
            let stratum = Stratum::parse_key(key)
                .ok_or_else(|| format!("`chaos.stratum`: unknown stratum key `{key}`"))?;
            let mut chaos = ChaosConfig {
                stratum,
                chunk: 0,
                fail_attempts: 1,
                panics: false,
            };
            if let Some(c) = v.get("chunk") {
                chaos.chunk = want_u64(c, "chaos.chunk")?.min(u32::MAX as u64) as u32;
            }
            if let Some(f) = v.get("fail_attempts") {
                chaos.fail_attempts =
                    want_u64(f, "chaos.fail_attempts")?.min(u32::MAX as u64) as u32;
            }
            if let Some(p) = v.get("panics") {
                chaos.panics = p.as_bool().ok_or("`chaos.panics` must be a boolean")?;
            }
            spec.chaos = Some(chaos);
        }
        if let Some(v) = map.get("launch") {
            if let Some(b) = v.get("blocks") {
                spec.launch.blocks = want_u64(b, "launch.blocks")? as u32;
            }
            if let Some(t) = v.get("threads") {
                spec.launch.threads_per_block = want_u64(t, "launch.threads")? as u32;
            }
            if let Some(e) = v.get("elems") {
                spec.launch.elems = want_u64(e, "launch.elems")? as u32;
            }
            if let Some(x) = v.get("exact") {
                spec.launch.exact = x.as_bool().ok_or("`launch.exact` must be a boolean")?;
            }
        }

        // Build the program once now so a bad submission fails at POST time
        // with a structured message, not inside a worker thread.
        spec.build_program()?;
        Ok(spec)
    }

    /// Canonical JSON form (round-trips through [`JobSpec::from_json`];
    /// persisted as `<id>.spec.json` so a restarted daemon can re-run the
    /// job against its journal).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            (
                "kind",
                Json::str(if self.coverage {
                    "coverage"
                } else {
                    "sensitivity"
                }),
            ),
            ("seed", Json::uint(self.seed)),
            ("vars", Json::uint(self.vars as u64)),
            ("masks", Json::uint(self.masks as u64)),
            (
                "bit_counts",
                Json::Arr(
                    self.bit_counts
                        .iter()
                        .map(|b| Json::uint(*b as u64))
                        .collect(),
                ),
            ),
            ("alpha", Json::Num(self.alpha)),
            ("shard_size", Json::uint(self.shard_size as u64)),
            ("max_retries", Json::uint(self.max_retries as u64)),
        ];
        if let Some(e) = self.engine {
            pairs.push(("engine", Json::str(e.name())));
        }
        if let Some(t) = &self.trace {
            pairs.push(("trace", Json::str(t.clone())));
        }
        if !self.spans {
            pairs.push(("spans", Json::Bool(false)));
        }
        if self.checkpoint {
            pairs.push(("checkpoint", Json::Bool(true)));
        }
        if let Some((index, modulus)) = self.shard {
            pairs.push((
                "shard",
                Json::obj([
                    ("index", Json::uint(index as u64)),
                    ("modulus", Json::uint(modulus as u64)),
                ]),
            ));
        }
        if self.priority != Priority::Normal {
            pairs.push(("priority", Json::str(self.priority.label())));
        }
        if let Some(c) = &self.client {
            pairs.push(("client", Json::str(c.clone())));
        }
        if let Some(sel) = &self.hardening {
            pairs.push(("hardening", sel.to_json()));
        }
        if self.cache {
            pairs.push(("cache", Json::Bool(true)));
        }
        match &self.program {
            ProgramSpec::Named(n) => pairs.push(("program", Json::str(n.clone()))),
            ProgramSpec::Kir(src) => {
                pairs.push(("kernel", Json::str(src.clone())));
                pairs.push((
                    "launch",
                    Json::obj([
                        ("blocks", Json::uint(self.launch.blocks as u64)),
                        ("threads", Json::uint(self.launch.threads_per_block as u64)),
                        ("elems", Json::uint(self.launch.elems as u64)),
                        ("exact", Json::Bool(self.launch.exact)),
                    ]),
                ));
            }
        }
        if let Some(a) = &self.adaptive {
            pairs.push((
                "adaptive",
                Json::obj([
                    ("ci_width", Json::Num(a.ci_width)),
                    ("min_samples", Json::uint(a.min_samples)),
                ]),
            ));
        }
        if let Some(c) = &self.chaos {
            pairs.push((
                "chaos",
                Json::obj([
                    ("stratum", Json::str(c.stratum.key())),
                    ("chunk", Json::uint(c.chunk as u64)),
                    ("fail_attempts", Json::uint(c.fail_attempts as u64)),
                    ("panics", Json::Bool(c.panics)),
                ]),
            ));
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Content-address of the result this spec deterministically produces:
    /// FNV-1a (16-hex, via [`hauberk::canon::fnv1a_hex`]) over the canonical
    /// JSON form with the observational fields stripped. Two specs share a
    /// key exactly when they produce byte-identical result documents, so the
    /// key set excludes everything that only shapes scheduling or telemetry
    /// (`trace`, `spans`, `priority`, `client`, `cache`) and includes
    /// everything result-affecting (program, kind, seed, sizing, engine,
    /// checkpoint, shard, hardening, ...).
    pub fn cache_key(&self) -> String {
        const OBSERVATIONAL: &[&str] = &["trace", "spans", "priority", "client", "cache"];
        let mut doc = self.to_json();
        if let Json::Obj(map) = &mut doc {
            map.retain(|k, _| !OBSERVATIONAL.contains(&k.as_str()));
        }
        hauberk::canon::fnv1a_hex(doc.to_string().as_bytes())
    }

    /// Instantiate the program under test.
    pub fn build_program(&self) -> Result<Box<dyn HostProgram>, String> {
        match &self.program {
            ProgramSpec::Named(name) => program_by_name(name, ProblemScale::Quick)
                .ok_or_else(|| format!("unknown program `{name}` (try CP, MRI-Q, SAD, ...)")),
            ProgramSpec::Kir(src) => {
                Ok(Box::new(TextProgram::from_kir(src, self.launch)?) as Box<dyn HostProgram>)
            }
        }
    }

    /// The campaign kind this spec requests.
    pub fn campaign_kind(&self) -> CampaignKind {
        if self.coverage {
            CampaignKind::Coverage(FtOptions::default())
        } else {
            CampaignKind::Sensitivity
        }
    }

    /// The [`CampaignConfig`] this spec maps to. Exposed (and used by the
    /// e2e test) so "the same campaign run in-process" is definable
    /// byte-for-byte.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            plan: PlanConfig {
                vars_per_program: self.vars,
                masks_per_var: self.masks,
                bit_counts: self.bit_counts.clone(),
                scheduler_per_mille: 60,
                register_per_mille: 60,
            },
            seed: self.seed,
            alpha: self.alpha,
            engine: self.engine,
            hardening: self.hardening.clone(),
            ..Default::default()
        }
    }

    /// The orchestrator knobs this spec maps to (journal paths are the
    /// daemon's business, not the submitter's).
    pub fn orchestrator_config(&self) -> OrchestratorConfig {
        OrchestratorConfig {
            shard_size: self.shard_size,
            adaptive: self.adaptive.clone(),
            max_retries: self.max_retries,
            chaos: self.chaos,
            trace: self.trace.clone(),
            checkpoint: self.checkpoint,
            shard: self.shard,
            ..Default::default()
        }
    }
}

/// Job lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the campaign.
    Running,
    /// Finished; the result document is available.
    Done,
    /// Execution failed (panic or journal error); the error is recorded.
    Failed,
    /// The daemon shut down before a worker picked the job up. Its spec is
    /// persisted, so a restarted daemon re-queues it.
    Canceled,
}

impl JobPhase {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Canceled => "canceled",
        }
    }

    /// Whether the phase is final.
    pub fn terminal(&self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Failed | JobPhase::Canceled)
    }

    /// Inverse of [`JobPhase::label`] (parses the status long-poll's
    /// `?watch=<state>`).
    pub fn parse_label(s: &str) -> Option<JobPhase> {
        match s {
            "queued" => Some(JobPhase::Queued),
            "running" => Some(JobPhase::Running),
            "done" => Some(JobPhase::Done),
            "failed" => Some(JobPhase::Failed),
            "canceled" => Some(JobPhase::Canceled),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct JobState {
    phase: JobPhase,
    /// Final summary document (exact bytes served by `/result`).
    result: Option<String>,
    error: Option<String>,
}

#[derive(Debug, Default)]
struct EventBuf {
    lines: Vec<String>,
    dropped: u64,
}

/// One submitted campaign job: spec, lifecycle state, progress counters,
/// and the bounded event log backing the `/events` stream.
#[derive(Debug)]
pub struct Job {
    /// Job id (`"cj-<n>"`).
    pub id: String,
    /// The validated spec.
    pub spec: JobSpec,
    state: Mutex<JobState>,
    events: Mutex<EventBuf>,
    wake: Condvar,
    planned: AtomicU64,
    injections: AtomicU64,
    queued_at: std::time::Instant,
    stop: Arc<AtomicBool>,
}

/// Retained event lines per job; beyond this the log counts drops instead
/// of growing (the stream reports the gap).
pub const MAX_EVENT_LINES: usize = 100_000;

impl Job {
    /// New queued job.
    pub fn new(id: String, spec: JobSpec) -> Arc<Job> {
        let job = Arc::new(Job {
            id,
            spec,
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                result: None,
                error: None,
            }),
            events: Mutex::new(EventBuf::default()),
            wake: Condvar::new(),
            planned: AtomicU64::new(0),
            injections: AtomicU64::new(0),
            queued_at: std::time::Instant::now(),
            stop: Arc::new(AtomicBool::new(false)),
        });
        job.push_lifecycle("queued");
        job
    }

    /// Time since the job was admitted (drives the `/metrics` queue-age
    /// gauge: how stale is the oldest queued job?).
    pub fn queued_for(&self) -> Duration {
        self.queued_at.elapsed()
    }

    /// A job recovered from a persisted result document (daemon restart).
    pub fn recovered(id: String, spec: JobSpec, result: Result<String, String>) -> Arc<Job> {
        let job = Job::new(id, spec);
        match result {
            Ok(summary) => job.finish(summary),
            Err(error) => job.fail(error),
        }
        job
    }

    /// Current phase.
    pub fn phase(&self) -> JobPhase {
        lock_recover(&self.state).phase
    }

    /// Final summary document, when done.
    pub fn result(&self) -> Option<String> {
        lock_recover(&self.state).result.clone()
    }

    /// Failure message, when failed.
    pub fn error(&self) -> Option<String> {
        lock_recover(&self.state).error.clone()
    }

    /// Status document for `GET /v1/campaigns/:id`.
    pub fn status_json(&self) -> Json {
        let st = lock_recover(&self.state);
        let mut pairs = vec![
            ("id".to_string(), Json::str(self.id.clone())),
            ("state".to_string(), Json::str(st.phase.label())),
            (
                "planned".to_string(),
                Json::uint(self.planned.load(Ordering::Relaxed)),
            ),
            (
                "injections_done".to_string(),
                Json::uint(self.injections.load(Ordering::Relaxed)),
            ),
        ];
        if let Some(e) = &st.error {
            pairs.push(("error".to_string(), Json::str(e.clone())));
        }
        Json::Obj(pairs.into_iter().collect())
    }

    /// Transition to `Running`.
    pub fn start(&self) {
        lock_recover(&self.state).phase = JobPhase::Running;
        self.push_lifecycle("running");
    }

    /// Transition to `Done` with the final summary document.
    pub fn finish(&self, summary: String) {
        {
            let mut st = lock_recover(&self.state);
            st.phase = JobPhase::Done;
            st.result = Some(summary);
        }
        self.push_lifecycle("done");
    }

    /// Transition to `Failed`.
    pub fn fail(&self, error: String) {
        {
            let mut st = lock_recover(&self.state);
            st.phase = JobPhase::Failed;
            st.error = Some(error);
        }
        self.push_lifecycle("failed");
    }

    /// Transition to `Canceled` (daemon shutdown before execution, or a
    /// client `DELETE` honored at a work-unit boundary).
    pub fn cancel(&self) {
        lock_recover(&self.state).phase = JobPhase::Canceled;
        self.push_lifecycle("canceled");
    }

    /// Request cooperative cancellation: a queued job is dropped by the
    /// worker that pops it; a running job observes the flag at its next
    /// work-unit boundary and stops there. Already-completed work stays in
    /// the journal, so re-submitting resumes rather than restarts.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Whether cancellation has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The shared stop flag, for wiring into `OrchestratorConfig::stop`:
    /// the orchestrator holds only the flag, not the whole job, and sees
    /// every later [`Job::request_stop`].
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    fn push_lifecycle(&self, state: &str) {
        let line = Json::obj([("ev", Json::str("job_state")), ("state", Json::str(state))]);
        self.push_line(line.to_string());
    }

    fn push_line(&self, line: String) {
        {
            let mut buf = lock_recover(&self.events);
            if buf.lines.len() < MAX_EVENT_LINES {
                buf.lines.push(line);
            } else {
                buf.dropped += 1;
            }
        }
        self.wake.notify_all();
    }

    /// Long-poll helper for `GET /v1/campaigns/:id?watch=<state>`: block
    /// until the phase differs from `seen` or `wait` elapses, returning the
    /// phase observed at wake-up. Piggybacks on the event-log condvar —
    /// every lifecycle transition pushes an event line, so a phase change
    /// always notifies.
    pub fn wait_phase_change(&self, seen: JobPhase, wait: Duration) -> JobPhase {
        let deadline = Instant::now() + wait;
        let mut buf = lock_recover(&self.events);
        loop {
            let phase = lock_recover(&self.state).phase;
            if phase != seen {
                return phase;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return phase;
            }
            let (b, _timeout) = self
                .wake
                .wait_timeout(buf, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            buf = b;
        }
    }

    /// Event lines after `from`, blocking up to `wait` for new ones.
    /// Returns `(new_lines, dropped_so_far, terminal)`; an empty batch with
    /// `terminal = true` means the stream is complete.
    pub fn events_since(&self, from: usize, wait: Duration) -> (Vec<String>, u64, bool) {
        let mut buf = lock_recover(&self.events);
        if buf.lines.len() <= from && !self.phase().terminal() {
            let (b, _timeout) = self
                .wake
                .wait_timeout(buf, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            buf = b;
        }
        let lines = buf.lines.get(from..).unwrap_or(&[]).to_vec();
        let dropped = buf.dropped;
        drop(buf);
        (lines, dropped, self.phase().terminal())
    }
}

/// Telemetry sink wired into a job's campaign run: serializes every event
/// into the job's log (feeding `/events`) and keeps the cheap progress
/// counters behind `GET /v1/campaigns/:id` fresh.
#[derive(Debug)]
pub struct JobEventSink {
    job: Arc<Job>,
}

impl JobEventSink {
    /// Sink feeding `job`.
    pub fn new(job: Arc<Job>) -> Self {
        JobEventSink { job }
    }
}

impl TelemetrySink for JobEventSink {
    fn emit(&self, event: &Event) {
        match event {
            Event::CampaignStarted { runs, .. } => {
                self.job.planned.store(*runs, Ordering::Relaxed);
            }
            Event::InjectionRun { .. } => {
                self.job.injections.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.job.push_line(event.to_json().to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk_telemetry::json::parse;

    #[test]
    fn spec_round_trips_through_json() {
        let doc = parse(
            r#"{"program":"CP","kind":"coverage","seed":7,"vars":4,"masks":3,
                "bit_counts":[1,3],"alpha":10.0,"engine":"batch","trace":"ht-cafe",
                "adaptive":{"ci_width":0.2,"min_samples":16}}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        assert!(spec.coverage);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.bit_counts, vec![1, 3]);
        assert_eq!(spec.engine, Some(hauberk_sim::ExecEngine::Batch));
        assert_eq!(spec.campaign_config().engine, spec.engine);
        assert_eq!(spec.trace.as_deref(), Some("ht-cafe"));
        assert_eq!(
            spec.orchestrator_config().trace.as_deref(),
            Some("ht-cafe"),
            "trace reaches the orchestrator (and so the root span)"
        );
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.to_json(), spec.to_json());
    }

    #[test]
    fn spans_toggle_defaults_on_and_round_trips_off() {
        let on = JobSpec::from_json(&parse(r#"{"program":"CP"}"#).unwrap()).unwrap();
        assert!(on.spans);
        assert!(!on.to_json().to_string().contains("spans"));
        let off = JobSpec::from_json(&parse(r#"{"program":"CP","spans":false}"#).unwrap()).unwrap();
        assert!(!off.spans);
        let back = JobSpec::from_json(&off.to_json()).unwrap();
        assert!(!back.spans);
    }

    #[test]
    fn checkpoint_toggle_defaults_off_and_round_trips_on() {
        let off = JobSpec::from_json(&parse(r#"{"program":"CP"}"#).unwrap()).unwrap();
        assert!(!off.checkpoint);
        assert!(!off.orchestrator_config().checkpoint);
        assert!(!off.to_json().to_string().contains("checkpoint"));
        let on =
            JobSpec::from_json(&parse(r#"{"program":"CP","checkpoint":true}"#).unwrap()).unwrap();
        assert!(on.checkpoint);
        assert!(on.orchestrator_config().checkpoint);
        let back = JobSpec::from_json(&on.to_json()).unwrap();
        assert!(back.checkpoint);
        let err =
            JobSpec::from_json(&parse(r#"{"program":"CP","checkpoint":1}"#).unwrap()).unwrap_err();
        assert!(err.contains("`checkpoint` must be a boolean"), "{err}");
    }

    #[test]
    fn unknown_and_invalid_fields_are_structured_errors() {
        for (body, needle) in [
            (r#"{"prorgam":"CP"}"#, "unknown field `prorgam`"),
            (r#"{"program":"NOPE"}"#, "unknown program"),
            (r#"{"program":"CP","kind":"both"}"#, "`kind` must be"),
            (r#"[1,2]"#, "must be a JSON object"),
            (
                r#"{"program":"CP","kernel":"kernel x() {}"}"#,
                "mutually exclusive",
            ),
            (r#"{"kernel":"kernel broken {"}"#, "parse error"),
            (r#"{}"#, "one of `program` or `kernel`"),
            (
                r#"{"program":"CP","engine":"warp-drive"}"#,
                "`engine` must be one of",
            ),
            (
                r#"{"program":"CP","trace":"bad header\r\n"}"#,
                "`trace` must be",
            ),
        ] {
            let err = JobSpec::from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn shard_and_scheduling_fields_parse_validate_and_round_trip() {
        let doc = parse(
            r#"{"program":"CP","shard":{"index":1,"modulus":3},"priority":"high",
                "client":"ci-bot","cache":true}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        assert_eq!(spec.shard, Some((1, 3)));
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.client.as_deref(), Some("ci-bot"));
        assert!(spec.cache);
        assert_eq!(spec.orchestrator_config().shard, Some((1, 3)));
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.to_json(), spec.to_json());
        // Defaults stay off the wire.
        let plain = JobSpec::from_json(&parse(r#"{"program":"CP"}"#).unwrap()).unwrap();
        let s = plain.to_json().to_string();
        for absent in ["shard", "priority", "client", "cache"] {
            assert!(
                !s.contains(&format!("\"{absent}\":")),
                "default `{absent}` must not serialize"
            );
        }
        for (body, needle) in [
            (
                r#"{"program":"CP","shard":{"index":3,"modulus":3}}"#,
                "`shard.index` must be <",
            ),
            (
                r#"{"program":"CP","shard":{"index":0,"modulus":65}}"#,
                "`shard.modulus` must be in 1..=64",
            ),
            (
                r#"{"program":"CP","priority":"urgent"}"#,
                "`priority` must be",
            ),
            (r#"{"program":"CP","client":""}"#, "`client` must be"),
        ] {
            let err = JobSpec::from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn hardening_selection_parses_round_trips_and_keys_the_cache() {
        let doc = parse(
            r#"{"program":"CP","kind":"coverage","hardening":{
                "nonloop_vars":["xidx"],
                "loop_detectors":[{"loop":0,"var":"energyx2"}],
                "trip_checks":[0]}}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        let sel = spec.hardening.as_ref().expect("parsed selection");
        assert!(sel.selects_nl("xidx"));
        assert!(sel.selects_loop(0, "energyx2"));
        assert!(sel.selects_trip(0));
        assert_eq!(
            spec.campaign_config().hardening.as_ref(),
            Some(sel),
            "selection reaches the campaign config"
        );
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.to_json(), spec.to_json());
        // The placement changes the result document, so it must key the cache.
        let plain =
            JobSpec::from_json(&parse(r#"{"program":"CP","kind":"coverage"}"#).unwrap()).unwrap();
        assert_ne!(spec.cache_key(), plain.cache_key());
        assert!(!plain.to_json().to_string().contains("hardening"));
        let err =
            JobSpec::from_json(&parse(r#"{"program":"CP","hardening":7}"#).unwrap()).unwrap_err();
        assert!(err.contains("`hardening` must be"), "{err}");
    }

    #[test]
    fn cache_key_ignores_observational_fields_only() {
        let base = JobSpec::from_json(&parse(r#"{"program":"CP","seed":9}"#).unwrap()).unwrap();
        let dressed = JobSpec::from_json(
            &parse(
                r#"{"program":"CP","seed":9,"trace":"ht-1","spans":false,
                    "priority":"low","client":"alice","cache":true}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            base.cache_key(),
            dressed.cache_key(),
            "observational fields must not change result identity"
        );
        let other = JobSpec::from_json(&parse(r#"{"program":"CP","seed":10}"#).unwrap()).unwrap();
        assert_ne!(base.cache_key(), other.cache_key());
        let sharded = JobSpec::from_json(
            &parse(r#"{"program":"CP","seed":9,"shard":{"index":0,"modulus":2}}"#).unwrap(),
        )
        .unwrap();
        assert_ne!(
            base.cache_key(),
            sharded.cache_key(),
            "a shard produces a different (partial) result document"
        );
        assert_eq!(base.cache_key().len(), 16, "16-hex FNV-1a form");
    }

    #[test]
    fn stop_flag_is_shared_and_phase_wait_wakes() {
        let job = Job::new("cj-9".into(), JobSpec::default());
        let flag = job.stop_flag();
        assert!(!flag.load(Ordering::SeqCst));
        job.request_stop();
        assert!(flag.load(Ordering::SeqCst), "orchestrator sees the DELETE");
        assert!(job.stop_requested());
        // Phase long-poll: returns immediately on a changed phase, times out
        // (returning the unchanged phase) otherwise.
        assert_eq!(
            job.wait_phase_change(JobPhase::Running, Duration::from_millis(1)),
            JobPhase::Queued
        );
        assert_eq!(
            job.wait_phase_change(JobPhase::Queued, Duration::from_millis(1)),
            JobPhase::Queued,
            "timeout returns the still-current phase"
        );
        assert_eq!(JobPhase::parse_label("done"), Some(JobPhase::Done));
        assert_eq!(JobPhase::parse_label("nope"), None);
    }

    #[test]
    fn job_event_log_streams_and_terminates() {
        let job = Job::new("cj-1".into(), JobSpec::default());
        let (lines, dropped, terminal) = job.events_since(0, Duration::from_millis(1));
        assert_eq!(lines.len(), 1, "queued lifecycle event");
        assert_eq!(dropped, 0);
        assert!(!terminal);
        job.start();
        job.finish("{}".to_string());
        let (lines, _, terminal) = job.events_since(1, Duration::from_millis(1));
        assert_eq!(lines.len(), 2, "running + done");
        assert!(terminal);
        assert_eq!(job.phase(), JobPhase::Done);
        assert_eq!(job.result().as_deref(), Some("{}"));
    }
}
