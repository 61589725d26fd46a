//! Cross-PE metrics gathering: per-rank observations merge into one
//! world snapshot at rank 0 via the ordinary collectives, histograms
//! bucket-wise (the same mergeability the paper's sketches rely on),
//! with snapshots deduped per source process (in-process backends
//! share one registry across all PE threads).

use ccheck_net::testing::ALL_BACKENDS;
use ccheck_net::{run_on, Comm};
use ccheck_obs::metrics::bucket_of;

const P: usize = 4;

fn world_gather(comm: &mut Comm, counter: &str, hist: &str) -> Option<ccheck_obs::MetricsSnapshot> {
    let reg = ccheck_obs::registry();
    reg.counter(counter).add(1 + comm.rank() as u64);
    // Rank r observes 2^r: every rank lands in its own bucket, so the
    // merged histogram must show one observation in each.
    reg.histogram(hist).observe(1u64 << comm.rank());
    // Synchronise with an allreduce, not a barrier: a barrier's messages
    // are empty, so after one `net.tx.bytes` can still read 0 at rank 0
    // (it snapshots before the other ranks send theirs). Here every rank
    // has received a counted, non-empty message before it snapshots.
    assert_eq!(comm.allreduce(1u64, |a, b| a + b), P as u64);
    let gathered = comm.gather_metrics();
    if comm.rank() == 0 {
        let (world, per_pe) = gathered.expect("rank 0 receives the world view");
        assert_eq!(per_pe.len(), P, "one snapshot per rank");
        Some(world)
    } else {
        assert!(gathered.is_none(), "non-root ranks get None");
        None
    }
}

#[test]
fn gathered_world_snapshot_merges_all_ranks() {
    ccheck_obs::set_enabled(true);
    for (i, backend) in ALL_BACKENDS.into_iter().enumerate() {
        // Fresh names per backend: the process-global registry is
        // monotone, so reusing a name would mix the two runs.
        let counter = format!("test.gather.jobs.{i}");
        let hist = format!("test.gather.lat.{i}");
        let results = run_on(backend, P, |comm| world_gather(comm, &counter, &hist));
        let world = results[0].clone().expect("rank 0 produced a world view");
        // Both in-process backends share this process's registry: the
        // dedupe must count it once, giving exactly the union of what
        // the ranks recorded (1 + 2 + 3 + 4), not P copies of it.
        assert_eq!(world.counters[&counter], 10, "backend {backend:?}");
        let h = &world.histograms[&hist];
        assert_eq!(h.count(), P as u64);
        for rank in 0..P {
            assert_eq!(
                h.counts[bucket_of(1u64 << rank)],
                1,
                "rank {rank}'s observation lands in its own bucket"
            );
        }
        // The instrumented transport published real traffic under the
        // unified net.* namespace while collection was enabled.
        assert!(world.counters["net.tx.bytes"] > 0);
        assert!(world.counters["net.tx.msgs"] > 0);
        assert!(world.histograms["net.frame.bytes"].count() > 0);
    }
}

#[test]
fn gathered_trace_reaches_rank_zero() {
    ccheck_obs::set_enabled(true);
    let results = run_on(ccheck_net::Backend::Local, P, |comm| {
        {
            let _span = ccheck_obs::span("test.trace.rank-work");
            std::hint::black_box(comm.rank());
        }
        comm.barrier();
        let traces = comm.gather_trace();
        if comm.rank() == 0 {
            Some(traces.expect("rank 0 receives traces"))
        } else {
            assert!(traces.is_none());
            None
        }
    });
    let traces = results[0].clone().expect("rank 0 produced traces");
    // One process → one deduped snapshot, containing every rank
    // thread's span.
    assert_eq!(traces.len(), 1);
    let spans = traces[0]
        .events
        .iter()
        .filter(|ev| ev.name == "test.trace.rank-work")
        .count();
    assert!(spans >= P, "every rank's span drained, got {spans}");
    // And it renders as loadable Chrome trace JSON.
    let json = ccheck_obs::export::chrome_trace_json(&traces);
    assert!(json.contains("test.trace.rank-work"));
}
