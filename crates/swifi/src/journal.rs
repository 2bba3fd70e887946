//! Append-only campaign checkpoint journal.
//!
//! The orchestrator journals every completed work unit as one JSONL record,
//! so an interrupted campaign resumes by replaying the journal and skipping
//! finished units — the resumed summary is byte-identical to an
//! uninterrupted run (asserted in `tests/determinism.rs`). The format is
//! documented in `DESIGN.md` §13; in short:
//!
//! ```text
//! {"rec":"meta", "program":…, "kind":…, "seed":…, "plan_len":…,
//!  "shard_size":…, "fingerprint":…, "engine":…} // first line, identity check
//! {"rec":"ckpt", "identity":…, "sections":…, "boundaries":…, "engine":…}
//! {"rec":"unit", "stratum":…, "chunk":…, "lo":…, "hi":…, "results":[…]}
//! {"rec":"quarantine", "stratum":…, "chunk":…, "attempts":…, "error":…}
//! {"rec":"profile", "plan_ns":…, "execute_ns":…, …} // trailing, optional
//! ```
//!
//! Records are self-contained: each `unit` carries every per-injection field
//! the summary needs (outcome, delivery, detection latency, alarms), so a
//! resume never re-executes finished work. Writes happen one flushed line at
//! a time — a kill can tear at most the final line, and the reader
//! tolerates that: a torn/corrupt line is dropped with a warning and its
//! work unit simply re-executes (injections are idempotent: same plan, same
//! seed, same result).

use crate::classify::FiOutcome;
use crate::profile::PhaseProfile;
use hauberk::units::{Stratum, WorkUnitId};
use hauberk_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Journal format version; bumped on incompatible record changes.
/// Version 2 added the `engine` field to the meta record; version 3 added
/// the `sections`/`checkpoint` identity fields and the optional `ckpt`
/// record.
pub const JOURNAL_VERSION: u64 = 3;

/// Campaign identity, written as the journal's first record and checked on
/// resume: resuming a journal written by a different campaign (program,
/// kind, seed, plan, or shard size) is an error, not silent corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Program under test.
    pub program: String,
    /// `"sensitivity"` or `"coverage"`.
    pub kind: String,
    /// Campaign planning seed.
    pub seed: u64,
    /// Number of planned injections.
    pub plan_len: u64,
    /// Injections per work unit.
    pub shard_size: u64,
    /// FNV-1a fingerprint over the full plan (sites, threads, occurrences,
    /// masks) — catches "same seed, different code/config" mismatches.
    pub fingerprint: u64,
    /// Execution engine name (`ExecEngine::name()`). All engines are
    /// observationally equivalent, so mixing them would be *safe* — but a
    /// mixed-engine journal can no longer certify which tier produced the
    /// results, so resume and merge refuse the mix instead.
    pub engine: String,
    /// Number of kernel sections the partitioner found (version 3) — part of
    /// the campaign identity: a different section structure means different
    /// code, even if the plan fingerprint happened to collide.
    pub sections: u64,
    /// Checkpoint identity (version 3): `"off"` for a plain campaign, or the
    /// 16-hex-digit hash of (plan fingerprint, section hash, engine) when
    /// the campaign ran from a shared fault-free checkpoint. Checkpointed
    /// and plain campaigns produce byte-identical summaries, but the journal
    /// certifies which mode produced its records, so resume refuses a mode
    /// mismatch like it refuses an engine mismatch.
    pub checkpoint: String,
}

impl JournalMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rec", Json::str("meta")),
            ("version", Json::uint(JOURNAL_VERSION)),
            ("program", Json::str(self.program.clone())),
            ("kind", Json::str(self.kind.clone())),
            ("seed", Json::uint(self.seed)),
            ("plan_len", Json::uint(self.plan_len)),
            ("shard_size", Json::uint(self.shard_size)),
            // Hex string: the full 64-bit hash does not survive an f64-backed
            // JSON number round-trip.
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            ("engine", Json::str(self.engine.clone())),
            ("sections", Json::uint(self.sections)),
            ("checkpoint", Json::str(self.checkpoint.clone())),
        ])
    }

    fn from_json(j: &Json) -> Option<JournalMeta> {
        Some(JournalMeta {
            program: j.get("program")?.as_str()?.to_string(),
            kind: j.get("kind")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_u64()?,
            plan_len: j.get("plan_len")?.as_u64()?,
            shard_size: j.get("shard_size")?.as_u64()?,
            fingerprint: u64::from_str_radix(j.get("fingerprint")?.as_str()?, 16).ok()?,
            // Absent in version-1 journals: those were all written by the
            // bytecode-default era, but guessing would defeat the point of
            // recording it — refuse to parse instead (the meta drops and the
            // orchestrator reports the journal as unusable).
            engine: j.get("engine")?.as_str()?.to_string(),
            // Absent before version 3 — same policy: refuse to parse rather
            // than guess whether the journal's records came from a
            // checkpointed run.
            sections: j.get("sections")?.as_u64()?,
            checkpoint: j.get("checkpoint")?.as_str()?.to_string(),
        })
    }
}

/// FNV-1a over a byte stream; the journal's plan fingerprint. Re-exported
/// from [`hauberk::canon`], where all campaign-identity hashing lives (plan
/// fingerprints, checkpoint identities, and the serve daemon's
/// content-addressed cache keys share one implementation).
pub use hauberk::canon::Fnv1a;

/// One journaled injection: everything the summary derivation needs. The
/// static plan fields (class, hw, bits) are *not* journaled — they are
/// re-derived from the deterministically re-generated plan on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedInjection {
    /// Index into the campaign plan.
    pub index: u64,
    /// Classified five-way outcome.
    pub outcome: FiOutcome,
    /// Whether the armed fault activated.
    pub delivered: bool,
    /// Cycles from delivery to first alarm, when both happened.
    pub latency: Option<u64>,
    /// Labels of detectors that fired (`"nl"` or the detector index).
    pub alarms: Vec<String>,
}

impl RecordedInjection {
    fn to_json(&self) -> Json {
        Json::obj([
            ("i", Json::uint(self.index)),
            ("o", Json::str(self.outcome.to_string())),
            ("d", Json::Bool(self.delivered)),
            ("l", self.latency.map_or(Json::Null, Json::uint)),
            ("a", Json::Arr(self.alarms.iter().map(Json::str).collect())),
        ])
    }

    fn from_json(j: &Json) -> Option<RecordedInjection> {
        Some(RecordedInjection {
            index: j.get("i")?.as_u64()?,
            outcome: FiOutcome::parse(j.get("o")?.as_str()?)?,
            delivered: j.get("d")?.as_bool()?,
            latency: match j.get("l")? {
                Json::Null => None,
                v => Some(v.as_u64()?),
            },
            alarms: j
                .get("a")?
                .as_arr()?
                .iter()
                .map(|a| a.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// A completed work unit's journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    /// Which unit.
    pub id: WorkUnitId,
    /// Plan-index span `[lo, hi)` the unit covered (for human inspection;
    /// the authoritative membership is the re-generated plan's).
    pub lo: u64,
    /// Exclusive upper bound of the span.
    pub hi: u64,
    /// Per-injection records, in plan order.
    pub results: Vec<RecordedInjection>,
}

impl UnitRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rec", Json::str("unit")),
            ("stratum", Json::str(self.id.stratum.key())),
            ("chunk", Json::uint(self.id.chunk as u64)),
            ("lo", Json::uint(self.lo)),
            ("hi", Json::uint(self.hi)),
            (
                "results",
                Json::Arr(self.results.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<UnitRecord> {
        Some(UnitRecord {
            id: unit_id_from_json(j)?,
            lo: j.get("lo")?.as_u64()?,
            hi: j.get("hi")?.as_u64()?,
            results: j
                .get("results")?
                .as_arr()?
                .iter()
                .map(RecordedInjection::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// A quarantined work unit's journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Which unit.
    pub id: WorkUnitId,
    /// Execution attempts made (1 + retries).
    pub attempts: u64,
    /// Last failure message.
    pub error: String,
}

impl QuarantineRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rec", Json::str("quarantine")),
            ("stratum", Json::str(self.id.stratum.key())),
            ("chunk", Json::uint(self.id.chunk as u64)),
            ("attempts", Json::uint(self.attempts)),
            ("error", Json::str(self.error.clone())),
        ])
    }

    fn from_json(j: &Json) -> Option<QuarantineRecord> {
        Some(QuarantineRecord {
            id: unit_id_from_json(j)?,
            attempts: j.get("attempts")?.as_u64()?,
            error: j.get("error")?.as_str()?.to_string(),
        })
    }
}

/// Checkpoint-identity record (version 3): written right after the meta of
/// a checkpointed campaign. Where the meta's `checkpoint` field carries only
/// the identity hash, this record spells the identity out for inspection and
/// lets a resume verify the journal's checkpoint provenance even if the meta
/// healed from a fresh rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// 16-hex-digit identity hash — same value as the meta's `checkpoint`.
    pub identity: String,
    /// Kernel sections the partitioner found.
    pub sections: u64,
    /// Distinct block boundaries the store snapshotted.
    pub boundaries: u64,
    /// Engine the checkpoints were captured on.
    pub engine: String,
}

impl CheckpointRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rec", Json::str("ckpt")),
            ("identity", Json::str(self.identity.clone())),
            ("sections", Json::uint(self.sections)),
            ("boundaries", Json::uint(self.boundaries)),
            ("engine", Json::str(self.engine.clone())),
        ])
    }

    fn from_json(j: &Json) -> Option<CheckpointRecord> {
        Some(CheckpointRecord {
            identity: j.get("identity")?.as_str()?.to_string(),
            sections: j.get("sections")?.as_u64()?,
            boundaries: j.get("boundaries")?.as_u64()?,
            engine: j.get("engine")?.as_str()?.to_string(),
        })
    }
}

fn unit_id_from_json(j: &Json) -> Option<WorkUnitId> {
    Some(WorkUnitId {
        stratum: Stratum::parse_key(j.get("stratum")?.as_str()?)?,
        chunk: u32::try_from(j.get("chunk")?.as_u64()?).ok()?,
    })
}

/// Everything a journal replay recovers.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Campaign identity (absent only for empty/torn-to-nothing journals).
    pub meta: Option<JournalMeta>,
    /// Completed units by id (later duplicates win — harmless, results are
    /// deterministic, but merge dedup keeps files tidy anyway).
    pub units: BTreeMap<WorkUnitId, UnitRecord>,
    /// Quarantined units by id.
    pub quarantined: BTreeMap<WorkUnitId, QuarantineRecord>,
    /// The latest trailing phase profile, when the journal holds one
    /// (observational timing; never input to resume decisions).
    pub profile: Option<PhaseProfile>,
    /// The checkpoint-identity record of a checkpointed campaign, when
    /// present and untorn (a resume of a checkpointed campaign rewrites a
    /// missing one).
    pub ckpt: Option<CheckpointRecord>,
    /// Lines dropped because they were torn or unparsable.
    pub dropped_lines: usize,
}

impl JournalReplay {
    /// Total injections recovered from completed units.
    pub fn recovered_injections(&self) -> usize {
        self.units.values().map(|u| u.results.len()).sum()
    }
}

/// Read a journal, tolerating a torn final line (and, defensively, any
/// other unparsable line): bad lines are dropped with a warning on stderr
/// and counted in [`JournalReplay::dropped_lines`]. The affected unit is
/// simply re-executed on resume.
pub fn read_journal(path: impl AsRef<Path>) -> Result<JournalReplay, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut replay = JournalReplay::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed =
            json::parse(line)
                .ok()
                .and_then(|j| match j.get("rec").and_then(|r| r.as_str()) {
                    Some("meta") => {
                        replay.meta = Some(JournalMeta::from_json(&j)?);
                        Some(())
                    }
                    Some("unit") => {
                        let u = UnitRecord::from_json(&j)?;
                        replay.units.insert(u.id, u);
                        Some(())
                    }
                    Some("quarantine") => {
                        let q = QuarantineRecord::from_json(&j)?;
                        replay.quarantined.insert(q.id, q);
                        Some(())
                    }
                    Some("profile") => {
                        // Trailing timing record; a resumed run appends a
                        // fresh one, so the last profile wins.
                        replay.profile = Some(PhaseProfile::from_json(&j)?);
                        Some(())
                    }
                    Some("ckpt") => {
                        replay.ckpt = Some(CheckpointRecord::from_json(&j)?);
                        Some(())
                    }
                    _ => None,
                });
        if parsed.is_none() {
            eprintln!(
                "warning: {}: dropping torn/corrupt journal record at line {} \
                 ({} bytes); its work unit will re-execute",
                path.display(),
                lineno + 1,
                line.len()
            );
            replay.dropped_lines += 1;
        }
    }
    Ok(replay)
}

/// Append-only journal writer. One record per line, flushed per record, so
/// an interruption tears at most the line being written.
#[derive(Debug)]
pub struct JournalWriter {
    w: Mutex<BufWriter<std::fs::File>>,
}

impl JournalWriter {
    /// Create (or truncate) `path` as a fresh journal and write its meta
    /// record.
    pub fn create(path: impl AsRef<Path>, meta: &JournalMeta) -> Result<Self, String> {
        let path = path.as_ref();
        let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let w = JournalWriter {
            w: Mutex::new(BufWriter::new(f)),
        };
        w.write_line(&meta.to_json())?;
        Ok(w)
    }

    /// Open `path` for appending (creating it if needed). When `meta` is
    /// given, it is written immediately — pass it only for fresh journals;
    /// resumed journals already begin with one.
    ///
    /// A journal torn mid-write ends without a newline; appending directly
    /// would weld the next record onto the fragment and corrupt both, so a
    /// missing final newline is healed first.
    pub fn append(path: impl AsRef<Path>, meta: Option<&JournalMeta>) -> Result<Self, String> {
        let path = path.as_ref();
        let torn_tail = std::fs::read(path)
            .map(|d| d.last().is_some_and(|&b| b != b'\n'))
            .unwrap_or(false);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if torn_tail {
            f.write_all(b"\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let w = JournalWriter {
            w: Mutex::new(BufWriter::new(f)),
        };
        if let Some(m) = meta {
            w.write_line(&m.to_json())?;
        }
        Ok(w)
    }

    fn write_line(&self, j: &Json) -> Result<(), String> {
        let mut g = hauberk_telemetry::lock_recover(&self.w);
        writeln!(g, "{j}").map_err(|e| e.to_string())?;
        g.flush().map_err(|e| e.to_string())
    }

    /// Journal one completed unit.
    pub fn unit(&self, u: &UnitRecord) -> Result<(), String> {
        self.write_line(&u.to_json())
    }

    /// Journal one quarantined unit.
    pub fn quarantine(&self, q: &QuarantineRecord) -> Result<(), String> {
        self.write_line(&q.to_json())
    }

    /// Journal the checkpoint-identity record of a checkpointed campaign.
    /// Written right after the meta; a resume whose replay found none (torn
    /// mid-record, say) appends a fresh copy — the record is identity, not
    /// state, so duplicates are harmless and the last parse wins.
    pub fn ckpt(&self, c: &CheckpointRecord) -> Result<(), String> {
        self.write_line(&c.to_json())
    }

    /// Journal the run's trailing phase profile. Written last (after all
    /// units), never merged across shards, and ignored by the resume
    /// identity check — it is timing observation, not campaign state.
    pub fn profile(&self, p: &PhaseProfile) -> Result<(), String> {
        let mut j = match p.to_json() {
            Json::Obj(m) => m,
            _ => unreachable!("profile serializes to an object"),
        };
        j.insert("rec".into(), Json::str("profile"));
        self.write_line(&Json::Obj(j))
    }
}

/// Merge shard journals of one campaign into a single journal at `out`.
///
/// All inputs must carry the same [`JournalMeta`] (same program, kind, seed,
/// plan fingerprint, shard size) — shards of *different* campaigns do not
/// merge. Duplicate unit records deduplicate (first occurrence wins; all
/// copies are identical by determinism); a unit both completed and
/// quarantined resolves to completed. Returns the number of merged unit
/// records.
pub fn merge_journals(out: impl AsRef<Path>, inputs: &[impl AsRef<Path>]) -> Result<usize, String> {
    if inputs.is_empty() {
        return Err("merge-journals: no input journals given".into());
    }
    let mut meta: Option<JournalMeta> = None;
    let mut ckpt: Option<CheckpointRecord> = None;
    let mut units: BTreeMap<WorkUnitId, UnitRecord> = BTreeMap::new();
    let mut quarantined: BTreeMap<WorkUnitId, QuarantineRecord> = BTreeMap::new();
    for input in inputs {
        let replay = read_journal(input)?;
        let m = replay
            .meta
            .ok_or_else(|| format!("{}: journal has no meta record", input.as_ref().display()))?;
        match &meta {
            None => meta = Some(m),
            Some(prev) if *prev != m => {
                return Err(format!(
                    "{}: journal belongs to a different campaign \
                     (fingerprint {:#x} vs {:#x}, engine {} vs {})",
                    input.as_ref().display(),
                    m.fingerprint,
                    prev.fingerprint,
                    m.engine,
                    prev.engine
                ));
            }
            Some(_) => {}
        }
        // Checkpoint identity: the meta equality above already proved every
        // shard shares one, so keep the first spelled-out record we see.
        if ckpt.is_none() {
            ckpt = replay.ckpt;
        }
        for (id, u) in replay.units {
            units.entry(id).or_insert(u);
        }
        for (id, q) in replay.quarantined {
            quarantined.entry(id).or_insert(q);
        }
    }
    // Completed wins over quarantined across shards.
    quarantined.retain(|id, _| !units.contains_key(id));

    let out = out.as_ref();
    let f = std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut w = BufWriter::new(f);
    let meta = meta.expect("nonempty inputs");
    writeln!(w, "{}", meta.to_json()).map_err(|e| e.to_string())?;
    if let Some(c) = &ckpt {
        writeln!(w, "{}", c.to_json()).map_err(|e| e.to_string())?;
    }
    for u in units.values() {
        writeln!(w, "{}", u.to_json()).map_err(|e| e.to_string())?;
    }
    for q in quarantined.values() {
        writeln!(w, "{}", q.to_json()).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    Ok(units.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk_kir::types::DataClass;
    use hauberk_kir::HwComponent;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hauberk-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn meta() -> JournalMeta {
        JournalMeta {
            program: "CP".into(),
            kind: "coverage".into(),
            seed: 0xFEED,
            plan_len: 64,
            shard_size: 8,
            fingerprint: 0xDEADBEEF,
            engine: "bytecode".into(),
            sections: 3,
            checkpoint: "off".into(),
        }
    }

    fn unit(chunk: u32, base: u64) -> UnitRecord {
        let id = WorkUnitId {
            stratum: Stratum {
                hw: HwComponent::Fpu,
                class: DataClass::Float,
            },
            chunk,
        };
        UnitRecord {
            id,
            lo: base,
            hi: base + 2,
            results: vec![
                RecordedInjection {
                    index: base,
                    outcome: FiOutcome::Masked,
                    delivered: true,
                    latency: None,
                    alarms: vec![],
                },
                RecordedInjection {
                    index: base + 1,
                    outcome: FiOutcome::Detected,
                    delivered: true,
                    latency: Some(512),
                    alarms: vec!["nl".into(), "0".into()],
                },
            ],
        }
    }

    #[test]
    fn journal_round_trips() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = JournalWriter::append(&path, Some(&meta())).unwrap();
        w.unit(&unit(0, 0)).unwrap();
        w.unit(&unit(1, 2)).unwrap();
        w.quarantine(&QuarantineRecord {
            id: WorkUnitId {
                stratum: Stratum {
                    hw: HwComponent::Scheduler,
                    class: DataClass::Integer,
                },
                chunk: 7,
            },
            attempts: 3,
            error: "worker panicked".into(),
        })
        .unwrap();
        drop(w);

        let replay = read_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.meta, Some(meta()));
        assert_eq!(replay.units.len(), 2);
        assert_eq!(replay.quarantined.len(), 1);
        assert_eq!(replay.dropped_lines, 0);
        assert_eq!(replay.recovered_injections(), 4);
        let u = replay.units.values().next().unwrap();
        assert_eq!(u, &unit(0, 0));
        assert_eq!(u.results[1].latency, Some(512));
        assert_eq!(u.results[1].alarms, vec!["nl".to_string(), "0".into()]);
    }

    #[test]
    fn ckpt_record_round_trips_and_survives_merge() {
        let path = tmp("ckpt.jsonl");
        let out = tmp("ckpt-merged.jsonl");
        for p in [&path, &out] {
            let _ = std::fs::remove_file(p);
        }
        let mut m = meta();
        m.checkpoint = "00ff00ff00ff00ff".into();
        let c = CheckpointRecord {
            identity: m.checkpoint.clone(),
            sections: m.sections,
            boundaries: 5,
            engine: m.engine.clone(),
        };
        let w = JournalWriter::append(&path, Some(&m)).unwrap();
        w.ckpt(&c).unwrap();
        w.unit(&unit(0, 0)).unwrap();
        drop(w);

        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.ckpt, Some(c.clone()));
        assert_eq!(replay.dropped_lines, 0);

        // The merged journal preserves the checkpoint-identity record.
        merge_journals(&out, &[&path]).unwrap();
        let merged = read_journal(&out).unwrap();
        assert_eq!(merged.ckpt, Some(c));
        assert_eq!(merged.units.len(), 1);
        for p in [&path, &out] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn torn_last_line_is_dropped_with_warning() {
        let path = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = JournalWriter::append(&path, Some(&meta())).unwrap();
        w.unit(&unit(0, 0)).unwrap();
        w.unit(&unit(1, 2)).unwrap();
        drop(w);
        // Tear the last record mid-line, as a kill during write would.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 17;
        std::fs::write(&path, &text[..keep]).unwrap();

        let replay = read_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.meta, Some(meta()));
        assert_eq!(replay.units.len(), 1, "torn unit dropped");
        assert_eq!(replay.dropped_lines, 1);
        assert!(replay.units.values().next().unwrap().id.chunk == 0);
    }

    #[test]
    fn merge_dedups_and_rejects_foreign_journals() {
        let a = tmp("merge-a.jsonl");
        let b = tmp("merge-b.jsonl");
        let c = tmp("merge-c.jsonl");
        let out = tmp("merge-out.jsonl");
        for p in [&a, &b, &c, &out] {
            let _ = std::fs::remove_file(p);
        }
        let w = JournalWriter::append(&a, Some(&meta())).unwrap();
        w.unit(&unit(0, 0)).unwrap();
        // Unit 1 quarantined on shard A...
        w.quarantine(&QuarantineRecord {
            id: unit(1, 2).id,
            attempts: 3,
            error: "oom".into(),
        })
        .unwrap();
        drop(w);
        let w = JournalWriter::append(&b, Some(&meta())).unwrap();
        w.unit(&unit(0, 0)).unwrap(); // duplicate of shard A's unit
        w.unit(&unit(1, 2)).unwrap(); // ...but completed on shard B
        drop(w);

        let n = merge_journals(&out, &[&a, &b]).unwrap();
        assert_eq!(n, 2);
        let replay = read_journal(&out).unwrap();
        assert_eq!(replay.units.len(), 2);
        assert!(replay.quarantined.is_empty(), "completed wins");

        // A journal from a different campaign refuses to merge.
        let mut other = meta();
        other.fingerprint ^= 1;
        let w = JournalWriter::append(&c, Some(&other)).unwrap();
        w.unit(&unit(2, 4)).unwrap();
        drop(w);
        let err = merge_journals(&out, &[&a, &c]).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");

        // Same campaign identity but a different execution engine also
        // refuses: the meta comparison covers every field.
        let mut cross = meta();
        cross.engine = "batch".into();
        let w = JournalWriter::append(&c, Some(&cross)).unwrap();
        w.unit(&unit(2, 4)).unwrap();
        drop(w);
        let err = merge_journals(&out, &[&a, &c]).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        for p in [&a, &b, &c, &out] {
            let _ = std::fs::remove_file(p);
        }
    }
}
