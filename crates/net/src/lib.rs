//! # ccheck-net — message-passing substrate with exact communication accounting
//!
//! This crate stands in for the MPI/cluster environment used by the paper
//! "Communication Efficient Checking of Big Data Operations"
//! (Hübschle-Schneider & Sanders, 2018). It provides:
//!
//! * a **message-passing runtime** with a pluggable [`transport`] layer:
//!   `p` processing elements (PEs) communicate through tagged
//!   point-to-point channels ([`Comm`]) over either the in-process
//!   backend ([`transport::local`]: PEs as threads, `std::sync::mpsc`
//!   channels) or the multi-process TCP backend
//!   ([`transport::tcp`]: length-prefixed frames over socket meshes,
//!   one process per PE, wired up by [`bootstrap`] under the
//!   `ccheck-launch` launcher),
//! * **collective operations** (broadcast, reduce, allreduce — tree and
//!   bandwidth-optimal butterfly — gather, allgather, scan, all-to-all —
//!   direct and hypercube — barrier, neighbor exchange) built from
//!   point-to-point messages using the classical algorithms, so that
//!   message and byte counts match the textbook cost `O(β·k + α·log p)`,
//! * **exact per-PE accounting** of bytes and messages sent/received
//!   ([`CommStats`]) — the paper's optimization target is *bottleneck
//!   communication volume*, which we therefore measure rather than
//!   estimate. Accounting happens in [`Comm`], **above** the transport,
//!   on payload bytes only: the measured volume is byte-for-byte
//!   identical on every backend (asserted continuously by the
//!   [`testing`] helpers),
//! * an **α-β cost model** ([`cost::CostModel`]) to extrapolate running
//!   times to PE counts beyond the host's core count (used for the weak
//!   scaling experiment, Fig. 4 of the paper).
//!
//! ## Quick example
//!
//! ```
//! use ccheck_net::run;
//!
//! // Sum the ranks of 4 PEs with an allreduce.
//! let results = run(4, |comm| comm.allreduce(comm.rank() as u64, |a, b| a + b));
//! assert!(results.iter().all(|&r| r == 0 + 1 + 2 + 3));
//! ```
//!
//! ## Going multi-process
//!
//! The same SPMD closure body runs unmodified across OS processes: start
//! `p` copies of your binary under `ccheck-launch` (which performs the
//! rank rendezvous) and obtain the communicator from the environment:
//!
//! ```no_run
//! // $ ccheck-launch -p 4 -- ./my-binary
//! let mut comm = ccheck_net::bootstrap::init_from_env()
//!     .expect("bootstrap failed")
//!     .expect("not launched under ccheck-launch");
//! let sum = comm.allreduce(comm.rank() as u64, |a, b| a + b);
//! assert_eq!(sum, 0 + 1 + 2 + 3);
//! ```

pub mod bootstrap;
pub mod butterfly;
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod error;
pub mod router;
pub mod scope;
pub mod stats;
pub mod transport;
pub mod wire;

pub use comm::{Comm, Tag};
pub use cost::CostModel;
pub use error::{NetError, Result};
pub use router::testing;
pub use router::{run, run_on, run_with_stats, run_with_stats_on};
pub use scope::CommMux;
pub use stats::{CommStats, StatsSnapshot};
pub use transport::{Backend, Packet, Transport, TransportSender};
pub use wire::Wire;
