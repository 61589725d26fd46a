//! # ccheck-dataflow — a mini data-parallel framework (the system under test)
//!
//! The paper integrates its checkers into Thrill; this crate provides the
//! equivalent substrate: real distributed implementations of the
//! operations the checkers verify, running on the [`ccheck_net`]
//! message-passing runtime. Every operation is SPMD: each PE calls the
//! function with its local share and all PEs return their local share of
//! the result.
//!
//! Operations (Thrill terminology, Table 1 of the paper):
//!
//! | Module | Operations |
//! |---|---|
//! | [`mod@reduce`] | `reduce_by_key` (sum/count aggregation) |
//! | [`mod@group`] | `group_by_key` (+ the raw redistribution phase) |
//! | [`mod@sort`] | distributed sample sort |
//! | [`mod@merge`] | merge of two globally sorted sequences |
//! | [`mod@zip`] | index-wise zip with rebalancing |
//! | [`mod@union`] | multiset union (concatenation) |
//! | [`mod@join`] | hash join and sort-merge join |
//! | [`mod@aggregate`] | min/max/median/average aggregation + certificates |
//!
//! Keys and values are `u64` (the paper's experiments use integer
//! workloads; fixed-size elements per §2).
//!
//! The keyed operations are **chunked streaming bodies**
//! (`reduce_by_key_chunked`, `sort_chunked`, `zip_chunked`,
//! `union_iter`, `redistribute_by_key_hash_chunked`) that consume
//! `impl Iterator` inputs in fixed-size batches over
//! [`ccheck_net::Comm::all_to_all_chunked`]: ingest and send-side
//! exchange buffers are O(chunk · p) instead of per-destination vectors
//! of the whole share, and operations that shrink data before
//! exchanging (`reduce_by_key_chunked` pre-reduces to distinct keys)
//! keep the *entire* pipeline's footprint independent of n — the
//! substrate for checking workloads with n ≫ RAM. Each is the only body
//! of its op: `reduce_by_key`, `zip` and `redistribute_by_key_hash` run
//! it at `chunk = usize::MAX`, and `sort` sorts its owned share in place
//! and then runs the same exchange; every peer gets one message, as
//! [`ccheck_net::Comm::all_to_all`] would send it.

pub mod aggregate;
pub mod checked;
pub mod dia;
pub mod exchange;
pub mod group;
pub mod join;
pub mod kway;
pub mod merge;
pub mod reduce;
pub mod sort;
pub mod union;
pub mod zip;

/// A key-value pair, the element type of keyed operations.
pub type Pair = (u64, u64);

pub use aggregate::{average_by_key, max_by_key, median_by_key, min_by_key};
pub use checked::{
    checked_reduce_by_key, checked_reduce_with, checked_sort, checked_sort_with, checked_with,
    reference_reduce, reference_sort, CheckedOutcome,
};
pub use dia::{CheckRejected, Dia, PipelineCtx};
pub use exchange::{redistribute_by_key_hash, redistribute_by_key_hash_chunked};
pub use group::group_by_key;
pub use join::{hash_join, sort_merge_join};
pub use merge::merge_sorted;
pub use reduce::{reduce_by_key, reduce_by_key_chunked};
pub use sort::{sort, sort_chunked};
pub use union::{union, union_iter};
pub use zip::{zip, zip_chunked};
