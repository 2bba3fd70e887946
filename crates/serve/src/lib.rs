//! hauberk-serve: campaign-as-a-service daemon for the Hauberk stack.
//!
//! The rest of the workspace runs SWIFI campaigns as batch CLI invocations;
//! this crate wraps the same orchestrator in a long-running HTTP daemon so
//! campaigns can be submitted, watched, and collected remotely:
//!
//! * `POST /v1/campaigns` — submit a named benchmark or ad-hoc KIR kernel
//!   text plus campaign knobs; returns a job id, or 429 + `Retry-After`
//!   when the bounded queue is full (backpressure instead of collapse).
//! * `GET /v1/campaigns/:id` — cheap status/progress counters.
//! * `GET /v1/campaigns/:id/events` — live chunked JSONL stream of the
//!   campaign's telemetry events.
//! * `GET /v1/campaigns/:id/result` — the final summary document, exactly
//!   the bytes `ShardedCampaignResult::summary_json()` produced (the e2e
//!   test asserts byte-equality against an in-process run).
//! * `DELETE /v1/campaigns/:id` — cooperative cancellation: queued jobs are
//!   dropped, running jobs stop at their next work-unit boundary, and the
//!   journal keeps what already ran.
//! * `GET /metrics`, `GET /healthz` — operational surface.
//!
//! One daemon runs on one machine. To split a campaign across machines,
//! submit its `"shard"` jobs to independent daemons with a state directory
//! and merge their persisted journals — see `DESIGN.md` §18.
//!
//! The workspace is offline, so the HTTP layer ([`http`]) is hand-rolled on
//! `std::net` with explicit limits everywhere: head/body caps, read/write
//! timeouts, a connection cap, and a bounded queue. Determinism contract:
//! telemetry fan-out is observation-only, so a campaign run through the
//! daemon produces a summary byte-identical to the same campaign run
//! in-process — see `DESIGN.md` §14.

pub mod http;
pub mod jobs;
pub mod server;

pub use jobs::{Job, JobPhase, JobSpec, Priority, ProgramSpec};
pub use server::{Server, ServerConfig, ServerHandle};
