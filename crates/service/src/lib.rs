//! # ccheck-service — checking as a service
//!
//! The paper frames its checkers as infrastructure "designed to become
//! part of" a big-data framework; related work on verifiable outsourced
//! computation (Chakrabarti et al.; Yoon & Liu) deploys exactly this
//! shape: a **long-lived service** that accepts computations and hands
//! back verifiable verdicts. This crate is that runtime for the ccheck
//! workspace: a daemon running on every PE of a launched world, serving
//! a queue of independent *checking jobs* — dataset spec + operation +
//! check configuration — concurrently over one shared transport, and
//! returning structured **verdict receipts** with per-job communication
//! volumes.
//!
//! ## Pieces
//!
//! | Module | What |
//! |---|---|
//! | [`job`] | [`job::JobSpec`] / [`job::Receipt`] / control-plane messages |
//! | [`exec`] | job execution: spec → receipt, same code under the service and standalone |
//! | [`sched`] | the policy-driven scheduler: [`sched::SchedPolicy`] (FIFO / priority-aging / deadline-WFQ), tenant quotas, work stealing, adaptive checker tuning |
//! | [`daemon`] | the SPMD service loop, PE-0 admission, client listener |
//! | [`health`] | the health plane: heartbeat liveness, straggler watch, `watch` sample ring |
//! | [`ledger`] | durable hash-chained receipt ledger: crash recovery + idempotent resubmission |
//! | [`slo`] | declarative service-level objectives over the watch-sample stream, with burn-rate accounting and a durable alert stream |
//! | [`client`] | blocking line-JSON client ([`client::ServiceClient`]) |
//! | [`json`] | the minimal offline JSON codec behind the protocol |
//!
//! Concurrency rests on `ccheck-net`'s scoped communicators
//! ([`ccheck_net::CommMux`]): each in-flight job runs on its own
//! tag-namespace `Comm` with its own statistics registry, so interleaved
//! jobs' collectives never cross-talk and every receipt reports exactly
//! the communication volume the job would report running alone.
//!
//! ## Protocol (line-delimited JSON over TCP to PE 0)
//!
//! ```text
//! → {"cmd":"submit","job":{"op":"reduce","n":1000000,"keys":10000,"seed":7,
//!     "tenant":"team-a","priority":3,"deadline_ms":5000,"check":"adaptive"}}
//! ← {"ok":true,"id":1,"status":"queued"}
//! → {"cmd":"wait","id":1}
//! ← {"ok":true,"id":1,"status":"done","receipt":{"verdict":"verified",
//!     "digest":…,"comm":{"total_bytes":…,"bottleneck_bytes":…},…}}
//! → {"cmd":"shutdown"}
//! ← {"ok":true,"status":"draining"}
//! ```
//!
//! ## Quickstart
//!
//! ```text
//! $ ccheck-launch -p 4 -- target/release/ccheck-serve \
//!       --transport tcp --listen 127.0.0.1:0 --addr-file /tmp/ccheck.addr &
//! $ ccheck-submit --addr-file /tmp/ccheck.addr --op sort --n 1000000 --wait
//! $ ccheck-submit --addr-file /tmp/ccheck.addr --shutdown
//! ```

pub mod client;
pub mod daemon;
pub mod exec;
pub mod health;
pub mod job;
pub mod json;
pub mod ledger;
pub mod sched;
pub mod slo;

pub use client::{ChainLink, ServiceClient, ServiceError, SubmitAck, TenantChain};
pub use daemon::{
    run_service, run_service_world, ServiceConfig, ServiceSummary, TenantAgg, MAX_INFLIGHT,
};
pub use exec::{execute_job, execute_job_traced, TraceCtx};
pub use health::{HealthCfg, HealthTracker, Heartbeat, Liveness, PeHealth, WatchSample};
pub use job::{
    CheckMode, CheckUsed, FaultSpec, JobOp, JobSpec, JobStatus, Receipt, ReceiptComm,
    ReceiptTiming, Verdict,
};
pub use ledger::Ledger;
pub use sched::{PolicyCfg, SchedCore, SchedPolicy};
pub use slo::{AlertEvent, SloEngine, SloSpec, SloStatus};
