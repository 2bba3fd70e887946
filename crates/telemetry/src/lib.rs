//! `hauberk-telemetry` — structured tracing, metrics, and campaign progress
//! for the Hauberk reproduction.
//!
//! This crate is the lowest layer of the workspace (it depends on nothing
//! in-tree) and defines:
//!
//! * a typed [`Event`] taxonomy covering tracing spans (one `launch`
//!   span per kernel launch), fault injection, detector alarms, guardian
//!   recovery and per-injection campaign outcomes;
//! * the [`TelemetrySink`] trait with three implementations —
//!   [`NullSink`] (discard; the zero-cost-when-disabled path),
//!   [`MemorySink`] (in-memory aggregation for tests and in-process
//!   consumers), [`JsonlSink`] (one JSON object per line, replayable);
//! * the cheap, cloneable [`Telemetry`] handle threaded through the
//!   simulator, runtimes, guardian and campaign driver — when disabled,
//!   every emit site is one branch on a cached bool;
//! * a [`metrics`] registry (counters + log2 histograms), the [`report`]
//!   rendering module, and a rayon-safe [`progress`] meter.

pub mod json;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod span;

use json::Json;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a mutex, recovering from poisoning.
///
/// Telemetry state (sink buffers, progress tallies, metric registries) is
/// shared across campaign worker threads, and a worker that panics while
/// holding one of these locks poisons it. The data under every telemetry
/// mutex is a plain tally that stays internally consistent at each store, so
/// the right response is to keep serving it — a long-running daemon must not
/// let one crashed job wedge metrics for every later request.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One structured telemetry event. Every variant serializes to a flat JSON
/// object with an `"ev"` discriminator (see [`Event::kind`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An armed SWIFI fault was delivered into architecture state.
    FaultInjected {
        /// Human-readable fault site (`"hook_target(3)"`, ...).
        site: String,
        /// Global linear id of the targeted thread.
        thread: u32,
        /// XOR corruption mask.
        mask: u32,
        /// Work-cycle timestamp of delivery.
        cycle: u64,
    },
    /// A Hauberk detector raised an alarm.
    DetectorFired {
        /// Detector index; `-1` is the non-loop (duplication/checksum)
        /// detector.
        detector: i64,
        /// Monitored variable name, when known (empty otherwise).
        variable: String,
        /// Alarm kind (`"range"`, `"checksum"`, ...).
        kind: String,
        /// The observed out-of-spec value.
        observed: f64,
        /// Work-cycle timestamp of the check that fired.
        cycle: u64,
    },
    /// A guardian recovery-process step (§IX, Fig. 11).
    Guardian {
        /// Step name (`"restarted"`, `"reexecuted"`, ...).
        action: String,
        /// Device ordinal the step applies to; `-1` when the step is not
        /// device-specific.
        device: i64,
    },
    /// A checkpoint was captured or restored.
    Checkpoint {
        /// `"capture"` or `"restore"`.
        action: &'static str,
        /// Total words of device memory covered.
        words: u64,
    },
    /// A fault-injection campaign began.
    CampaignStarted {
        /// Program under test.
        program: String,
        /// Planned injection runs.
        runs: u64,
    },
    /// One injection experiment finished.
    InjectionRun {
        /// Index into the campaign plan.
        index: u64,
        /// Five-way outcome label (`"masked"`, `"detected"`, ...).
        outcome: String,
        /// Whether the armed fault actually activated.
        delivered: bool,
        /// Cycles from fault delivery to first alarm, when both happened.
        latency: Option<u64>,
    },
    /// A fault-injection campaign finished.
    CampaignFinished {
        /// Program under test.
        program: String,
        /// Completed injection runs.
        runs: u64,
    },
    /// A campaign work unit kept failing after its retry budget and was
    /// quarantined: its samples are excluded from the summary and the
    /// campaign continues without it.
    UnitQuarantined {
        /// Stratum key of the unit (`"FPU/floating-point"`, ...).
        stratum: String,
        /// Chunk index of the unit within its stratum.
        chunk: u64,
        /// Execution attempts made (1 + retries).
        attempts: u64,
        /// Panic/divergence message of the last attempt.
        error: String,
    },
    /// A tracing span closed (see the [`span`] module). Emitted at close,
    /// so children precede parents in a trace; the tree reassembles from
    /// `id`/`parent`, and the root of a request's tree carries its trace id.
    Span {
        /// Static span name (`"campaign"`, `"stratum"`, `"unit"`,
        /// `"launch"`, ...).
        name: &'static str,
        /// Process-unique span id (never 0).
        id: u64,
        /// Enclosing span's id, 0 for a root.
        parent: u64,
        /// Correlation trace id, carried only by the root span.
        trace: Option<String>,
        /// Start timestamp, microseconds since process start.
        start_us: u64,
        /// Span duration in nanoseconds.
        dur_ns: u64,
        /// Small key/value attribute list (engine name, chunk index, ...).
        attrs: Vec<(&'static str, String)>,
    },
    /// Adaptive sampling closed a stratum: its confidence interval reached
    /// the target width, so no further work units are drawn from it.
    StratumConverged {
        /// Stratum key.
        stratum: String,
        /// Samples drawn before stopping.
        samples: u64,
        /// Achieved Wilson interval width on the SDC rate.
        ci_width: f64,
        /// Planned samples that were skipped by stopping early.
        skipped: u64,
    },
}

impl Event {
    /// Stable discriminator used as the JSON `"ev"` field and for counting.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::FaultInjected { .. } => "fault_injected",
            Event::DetectorFired { .. } => "detector_fired",
            Event::Guardian { .. } => "guardian",
            Event::Checkpoint { .. } => "checkpoint",
            Event::CampaignStarted { .. } => "campaign_started",
            Event::InjectionRun { .. } => "injection_run",
            Event::CampaignFinished { .. } => "campaign_finished",
            Event::UnitQuarantined { .. } => "unit_quarantined",
            Event::Span { .. } => "span",
            Event::StratumConverged { .. } => "stratum_converged",
        }
    }

    /// Serialize to one flat JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj: BTreeMap<String, Json> = BTreeMap::new();
        obj.insert("ev".into(), Json::str(self.kind()));
        let mut put = |k: &str, v: Json| {
            obj.insert(k.into(), v);
        };
        match self {
            Event::FaultInjected {
                site,
                thread,
                mask,
                cycle,
            } => {
                put("site", Json::str(site.clone()));
                put("thread", Json::uint(*thread as u64));
                put("mask", Json::uint(*mask as u64));
                put("cycle", Json::uint(*cycle));
            }
            Event::DetectorFired {
                detector,
                variable,
                kind,
                observed,
                cycle,
            } => {
                put("detector", Json::Int(*detector));
                put("variable", Json::str(variable.clone()));
                put("kind", Json::str(kind.clone()));
                put("observed", Json::Num(*observed));
                put("cycle", Json::uint(*cycle));
            }
            Event::Guardian { action, device } => {
                put("action", Json::str(action.clone()));
                put("device", Json::Int(*device));
            }
            Event::Checkpoint { action, words } => {
                put("action", Json::str(*action));
                put("words", Json::uint(*words));
            }
            Event::CampaignStarted { program, runs } => {
                put("program", Json::str(program.clone()));
                put("runs", Json::uint(*runs));
            }
            Event::InjectionRun {
                index,
                outcome,
                delivered,
                latency,
            } => {
                put("index", Json::uint(*index));
                put("outcome", Json::str(outcome.clone()));
                put("delivered", Json::Bool(*delivered));
                put("latency", latency.map_or(Json::Null, Json::uint));
            }
            Event::CampaignFinished { program, runs } => {
                put("program", Json::str(program.clone()));
                put("runs", Json::uint(*runs));
            }
            Event::UnitQuarantined {
                stratum,
                chunk,
                attempts,
                error,
            } => {
                put("stratum", Json::str(stratum.clone()));
                put("chunk", Json::uint(*chunk));
                put("attempts", Json::uint(*attempts));
                put("error", Json::str(error.clone()));
            }
            Event::Span {
                name,
                id,
                parent,
                trace,
                start_us,
                dur_ns,
                attrs,
            } => {
                put("name", Json::str(*name));
                put("id", Json::uint(*id));
                put("parent", Json::uint(*parent));
                if let Some(t) = trace {
                    put("trace", Json::str(t.clone()));
                }
                put("start_us", Json::uint(*start_us));
                put("dur_ns", Json::uint(*dur_ns));
                if !attrs.is_empty() {
                    let kv = attrs
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::str(v.clone())))
                        .collect();
                    put("attrs", Json::Obj(kv));
                }
            }
            Event::StratumConverged {
                stratum,
                samples,
                ci_width,
                skipped,
            } => {
                put("stratum", Json::str(stratum.clone()));
                put("samples", Json::uint(*samples));
                put("ci_width", Json::Num(*ci_width));
                put("skipped", Json::uint(*skipped));
            }
        }
        Json::Obj(obj)
    }
}

/// Destination for telemetry events. Implementations must be cheap and
/// thread-safe: campaigns emit from rayon worker threads concurrently.
pub trait TelemetrySink: Send + Sync + Debug {
    /// Consume one event.
    fn emit(&self, event: &Event);

    /// Whether this sink wants events at all. [`Telemetry`] caches the
    /// answer so a disabled pipeline costs one branch per site.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Flush buffered output (files).
    fn flush(&self) {}
}

/// Discards everything; reports itself disabled so emit sites short-circuit.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&self, _event: &Event) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// In-memory aggregating sink: counts every event kind and retains up to
/// `capacity` full events for inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    inner: Mutex<MemoryInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct MemoryInner {
    counts: BTreeMap<&'static str, u64>,
    events: Vec<Event>,
    dropped: u64,
}

impl MemorySink {
    /// Sink retaining at most `capacity` events (counts are always exact).
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink {
            inner: Mutex::new(MemoryInner::default()),
            capacity,
        }
    }

    /// Sink retaining every event.
    pub fn unbounded() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// Event-kind → count.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        lock_recover(&self.inner).counts.clone()
    }

    /// Count for one kind.
    pub fn count(&self, kind: &str) -> u64 {
        lock_recover(&self.inner)
            .counts
            .get(kind)
            .copied()
            .unwrap_or(0)
    }

    /// Copy of the retained events.
    pub fn events(&self) -> Vec<Event> {
        lock_recover(&self.inner).events.clone()
    }

    /// Events dropped once `capacity` was reached.
    pub fn dropped(&self) -> u64 {
        lock_recover(&self.inner).dropped
    }
}

impl TelemetrySink for MemorySink {
    fn emit(&self, event: &Event) {
        let mut g = lock_recover(&self.inner);
        *g.counts.entry(event.kind()).or_insert(0) += 1;
        if g.events.len() < self.capacity {
            g.events.push(event.clone());
        } else {
            g.dropped += 1;
        }
    }
}

/// Writes one JSON object per line to any `Write` destination.
pub struct JsonlSink {
    w: Mutex<Box<dyn Write + Send>>,
}

impl Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Create (truncate) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::from_writer(Box::new(std::io::BufWriter::new(f))))
    }

    /// Wrap an arbitrary writer.
    pub fn from_writer(w: Box<dyn Write + Send>) -> Self {
        JsonlSink { w: Mutex::new(w) }
    }
}

impl TelemetrySink for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = event.to_json().to_string();
        let mut g = lock_recover(&self.w);
        // Trace output is best-effort; a full disk should not kill a
        // campaign that is also aggregating in memory.
        let _ = writeln!(g, "{line}");
    }

    fn flush(&self) {
        let _ = lock_recover(&self.w).flush();
    }
}

/// Parse a JSONL trace file back into JSON documents (replay path).
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

static NEXT_LAUNCH_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique kernel-launch id.
pub fn next_launch_id() -> u64 {
    NEXT_LAUNCH_ID.fetch_add(1, Ordering::Relaxed)
}

/// The handle threaded through the stack. Cloning is cheap (an `Arc`).
///
/// The enabled flag is cached at construction, so the disabled fast path —
/// [`Telemetry::disabled`] or a [`NullSink`] — is a single predictable
/// branch per emit site, with no event construction behind it (use
/// [`Telemetry::emit_with`] on hot paths).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TelemetrySink>>,
    enabled: bool,
}

impl Telemetry {
    /// Telemetry that does nothing (the default everywhere).
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Telemetry feeding `sink`; events and tracing spans flow whenever
    /// the sink is enabled.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Self {
        let enabled = sink.is_enabled();
        Telemetry {
            sink: Some(sink),
            enabled,
        }
    }

    /// Whether events are being consumed at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Emit an already-constructed event.
    #[inline]
    pub fn emit(&self, event: &Event) {
        if self.enabled {
            if let Some(s) = &self.sink {
                s.emit(event);
            }
        }
    }

    /// Emit lazily: `build` runs only when a sink is listening. Use this on
    /// paths where constructing the event (string formatting, snapshots)
    /// would itself cost something.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if self.enabled {
            if let Some(s) = &self.sink {
                s.emit(&build());
            }
        }
    }

    /// Flush the sink.
    pub fn flush(&self) {
        if let Some(s) = &self.sink {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_disables_the_pipeline() {
        let t = Telemetry::new(Arc::new(NullSink));
        assert!(!t.enabled());
        let mut built = false;
        t.emit_with(|| {
            built = true;
            Event::CampaignFinished {
                program: "x".into(),
                runs: 0,
            }
        });
        assert!(!built, "disabled telemetry must not construct events");
    }

    #[test]
    fn memory_sink_counts_kinds() {
        let sink = Arc::new(MemorySink::unbounded());
        let t = Telemetry::new(sink.clone());
        assert!(t.enabled());
        for i in 0..5 {
            t.emit(&Event::InjectionRun {
                index: i,
                outcome: "masked".into(),
                delivered: true,
                latency: None,
            });
        }
        t.emit(&Event::CampaignFinished {
            program: "cp".into(),
            runs: 5,
        });
        assert_eq!(sink.count("injection_run"), 5);
        assert_eq!(sink.count("campaign_finished"), 1);
        assert_eq!(sink.events().len(), 6);
    }

    #[test]
    fn memory_sink_capacity_drops_but_counts() {
        let sink = MemorySink::with_capacity(2);
        for _ in 0..5 {
            sink.emit(&Event::Guardian {
                action: "restarted".into(),
                device: 0,
            });
        }
        assert_eq!(sink.count("guardian"), 5);
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn jsonl_sink_round_trips_events() {
        let dir = std::env::temp_dir().join("hauberk-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.emit(&Event::FaultInjected {
                site: "hook_target(3)".into(),
                thread: 17,
                mask: 0x10,
                cycle: 42,
            });
            sink.emit(&Event::Span {
                name: "launch",
                id: 7,
                parent: 3,
                trace: None,
                start_us: 5,
                dur_ns: 1200,
                attrs: vec![("kernel", "spin".into()), ("kernel_cycles", "100".into())],
            });
            sink.flush();
        }
        let docs = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("ev").unwrap().as_str(), Some("fault_injected"));
        assert_eq!(docs[0].get("mask").unwrap().as_u64(), Some(0x10));
        assert_eq!(docs[1].get("ev").unwrap().as_str(), Some("span"));
        assert_eq!(docs[1].get("parent").unwrap().as_u64(), Some(3));
        assert_eq!(
            docs[1]
                .get("attrs")
                .unwrap()
                .get("kernel_cycles")
                .unwrap()
                .as_str(),
            Some("100")
        );
    }

    #[test]
    fn orchestrator_events_serialize() {
        let q = Event::UnitQuarantined {
            stratum: "FPU/floating-point".into(),
            chunk: 4,
            attempts: 3,
            error: "worker panicked: index out of bounds".into(),
        };
        let j = q.to_json();
        assert_eq!(j.get("ev").unwrap().as_str(), Some("unit_quarantined"));
        assert_eq!(j.get("chunk").unwrap().as_u64(), Some(4));
        let c = Event::StratumConverged {
            stratum: "SCHED/integer".into(),
            samples: 96,
            ci_width: 0.081,
            skipped: 160,
        };
        let j = json::parse(&c.to_json().to_string()).unwrap();
        assert_eq!(j.get("ev").unwrap().as_str(), Some("stratum_converged"));
        assert_eq!(j.get("skipped").unwrap().as_u64(), Some(160));
        assert!((j.get("ci_width").unwrap().as_f64().unwrap() - 0.081).abs() < 1e-12);
    }

    #[test]
    fn poisoned_sink_keeps_serving() {
        // A worker that panics while holding the sink lock must not wedge
        // telemetry for every later emitter (the serve daemon runs for
        // days; its /metrics endpoint reads these locks on every scrape).
        let sink = Arc::new(MemorySink::unbounded());
        let s2 = sink.clone();
        let _ = std::panic::catch_unwind(move || {
            let _g = lock_recover(&s2.inner);
            panic!("worker dies while holding the sink lock");
        });
        sink.emit(&Event::Guardian {
            action: "restarted".into(),
            device: 0,
        });
        assert_eq!(sink.count("guardian"), 1);

        let p = progress::Progress::new("poisoned", 2, 0);
        let reg = metrics::Registry::new();
        reg.incr("before", 1);
        p.tick("ok");
        assert_eq!(p.done(), 1);
        assert_eq!(reg.snapshot().counter("before"), 1);
    }
}
