//! The event-driven daemon's wake-ups, end to end: no thread of the
//! service waits by sleeping, so every edge that used to be covered by
//! a 1–2 ms poll is now a notify that must not be lost —
//!
//! * thousands of tiny jobs from concurrent clients all complete (a
//!   lost wake-up between enqueue → scheduler, worker done → scheduler
//!   or finish → waiter would park the run forever; the watchdog turns
//!   that into a failure);
//! * a queued job's deadline fires *by the clock*, with no other event
//!   arriving and the watch-sample tick far away;
//! * `wait` honours `timeout_ms` on time, and a parked `wait` does not
//!   outlive a shutdown;
//! * an idle daemon's scheduling loop runs once per sample tick, not
//!   once per millisecond.
//!
//! The wake-up counter is process-global, so the tests take turns.

use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use ccheck_net::Backend;
use ccheck_service::{
    run_service_world, HealthCfg, JobOp, JobSpec, PolicyCfg, ServiceClient, ServiceConfig,
    ServiceError, ServiceSummary, Verdict,
};

static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start_world(
    p: usize,
    cfg: ServiceConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Vec<ServiceSummary>>,
) {
    let (tx, rx) = mpsc::channel();
    let cfg = ServiceConfig {
        announce: Some(tx),
        ..cfg
    };
    let world = std::thread::spawn(move || run_service_world(Backend::Local, p, &cfg));
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("service never announced its address");
    (addr, world)
}

fn connect(addr: std::net::SocketAddr) -> ServiceClient {
    ServiceClient::connect_with_retry(&addr.to_string(), Duration::from_secs(10))
        .expect("client connects")
}

/// Run `body` on its own thread and fail if it has not returned within
/// `limit` — a lost wake-up is a hang, and a hang must be a red test,
/// not a stuck CI job.
fn under_watchdog<T: Send + 'static>(
    what: &str,
    limit: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            worker.join().expect("watched body exits");
            value
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: still running after {limit:?} — a wake-up was lost")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the body sends before it returns"),
        },
    }
}

fn tiny(seed: u64) -> JobSpec {
    JobSpec {
        op: [JobOp::Reduce, JobOp::Sort, JobOp::Zip][(seed % 3) as usize],
        n: 100,
        keys: 11,
        seed,
        ..JobSpec::default()
    }
}

/// A sort big enough to hold a slot several times longer than any
/// deadline or timeout below.
fn blocker() -> JobSpec {
    JobSpec {
        op: JobOp::Sort,
        n: 4_000_000,
        keys: 1 << 20,
        seed: 99,
        ..JobSpec::default()
    }
}

fn submit_until_running(client: &mut ServiceClient, spec: &JobSpec) -> u64 {
    let id = client.submit(spec).expect("blocker accepted");
    loop {
        let (state, _) = client.poll(id).expect("poll");
        match state.as_str() {
            "running" => return id,
            "queued" => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("blocker reached unexpected state {other:?}"),
        }
    }
}

#[test]
fn no_wakeup_is_lost_under_concurrent_tiny_jobs() {
    const CLIENTS: u64 = 4;
    const JOBS_PER_CLIENT: u64 = 500;
    let _turn = take_turn();
    for max_inflight in [1, 4] {
        let jobs_run = under_watchdog(
            &format!("{CLIENTS} clients x {JOBS_PER_CLIENT} jobs at max_inflight={max_inflight}"),
            Duration::from_secs(240),
            move || {
                let cfg = ServiceConfig {
                    max_inflight,
                    ..ServiceConfig::default()
                };
                let (addr, world) = start_world(2, cfg);
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        std::thread::spawn(move || {
                            let mut client = connect(addr);
                            for j in 0..JOBS_PER_CLIENT {
                                let receipt = client
                                    .run(&tiny(c * JOBS_PER_CLIENT + j))
                                    .expect("tiny job completes");
                                assert_eq!(receipt.verdict, Verdict::Verified);
                            }
                        })
                    })
                    .collect();
                for client in clients {
                    client.join().expect("client thread");
                }
                connect(addr).shutdown().expect("shutdown");
                world.join().expect("world exits")[0].jobs_run
            },
        );
        assert_eq!(jobs_run, CLIENTS * JOBS_PER_CLIENT);
    }
}

#[test]
fn queued_deadline_fires_by_the_clock_alone() {
    const DEADLINE: Duration = Duration::from_millis(50);
    let _turn = take_turn();
    let (elapsed, refusal, blocker_state) =
        under_watchdog("deadline refusal", Duration::from_secs(120), || {
            let cfg = ServiceConfig {
                max_inflight: 1,
                policy: PolicyCfg::deadline_wfq(),
                // The sample tick is ten seconds away: only the
                // scheduling loop's deadline alarm can wake it in time.
                health: HealthCfg {
                    heartbeat_interval_ms: 10_000,
                    suspect_after_ms: 40_000,
                    dead_after_ms: 120_000,
                    ..HealthCfg::default()
                },
                ..ServiceConfig::default()
            };
            let (addr, world) = start_world(2, cfg);
            let mut client = connect(addr);
            // The only slot runs a long job; nothing else will happen
            // until it finishes.
            let long = submit_until_running(&mut client, &blocker());
            let t0 = Instant::now();
            let doomed = client
                .submit(&JobSpec {
                    deadline_ms: Some(DEADLINE.as_millis() as u64),
                    tenant: Some("hasty".into()),
                    ..tiny(7)
                })
                .expect("accepted into the queue");
            let refusal = client.wait(doomed).expect_err("must be refused");
            let elapsed = t0.elapsed();
            let (blocker_state, _) = client.poll(long).expect("poll the blocker");
            client.shutdown().expect("shutdown");
            world.join().expect("world exits");
            (elapsed, refusal, blocker_state)
        });
    match refusal {
        ServiceError::Refused(reason) => assert!(reason.contains("deadline missed"), "{reason}"),
        other => panic!("expected Refused, got {other:?}"),
    }
    // On time, without a wall-clock bound a busy machine could miss:
    // the only other event that could have woken the scheduling loop is
    // the blocker finishing, and it has not.
    assert_eq!(
        blocker_state, "running",
        "the refusal must not have ridden the blocker's completion"
    );
    // The service clock counts whole milliseconds, so a job enqueued
    // late in one may be refused up to 1 ms short of its deadline.
    assert!(
        elapsed + Duration::from_millis(1) >= DEADLINE,
        "refused early, after {elapsed:?}"
    );
}

#[test]
fn wait_times_out_on_time_and_does_not_outlive_shutdown() {
    const PATIENCE: Duration = Duration::from_millis(50);
    let _turn = take_turn();
    under_watchdog(
        "wait timeout and shutdown",
        Duration::from_secs(120),
        || {
            let (addr, world) = start_world(2, ServiceConfig::default());
            let mut client = connect(addr);
            let id = submit_until_running(&mut client, &blocker());

            let t0 = Instant::now();
            let waited = client
                .wait_timeout(id, Some(PATIENCE))
                .expect("timeout is not an error");
            let elapsed = t0.elapsed();
            assert!(waited.is_none(), "the blocker cannot finish that fast");
            assert!(elapsed >= PATIENCE, "timed out early, after {elapsed:?}");
            // …and by the timeout itself, not by the job finishing.
            let (state, _) = client.poll(id).expect("poll");
            assert_eq!(state, "running", "timed_out took {elapsed:?}");

            // Park an unbounded `wait` on the running job, then ask for
            // shutdown from another connection: the daemon drains, the
            // waiter is released with a final answer, and the world exits
            // (its listener joins every handler thread).
            let (parked_tx, parked_rx) = mpsc::channel();
            let waiter = std::thread::spawn(move || {
                let mut client = connect(addr);
                parked_tx.send(()).expect("test is listening");
                client.wait(id)
            });
            parked_rx.recv().expect("waiter connected");
            connect(addr).shutdown().expect("shutdown");
            match waiter.join().expect("waiter thread") {
                Ok(receipt) => assert_eq!(receipt.verdict, Verdict::Verified),
                Err(ServiceError::Refused(message)) => {
                    assert!(message.contains("shut down"), "{message}")
                }
                Err(other) => panic!("parked wait ended with {other:?}"),
            }
            world.join().expect("world exits");
        },
    );
}

#[test]
fn idle_daemon_wakes_once_per_sample_tick() {
    let _turn = take_turn();
    ccheck_obs::set_enabled(true);
    let wakeups = ccheck_obs::registry().counter("service.sched.wakeups");
    let (addr, world) = start_world(2, ServiceConfig::default());
    let mut client = connect(addr);
    // One job proves the world is up and lets start-up traffic settle.
    client.run(&tiny(1)).expect("tiny job completes");
    std::thread::sleep(Duration::from_millis(50));
    let before = wakeups.get();
    std::thread::sleep(Duration::from_millis(500));
    let passes = wakeups.get() - before;
    client.shutdown().expect("shutdown");
    world.join().expect("world exits");
    // Default heartbeat is 100 ms: ~5 sample ticks in the window. The
    // polling loop this replaced made ~500 passes.
    assert!(
        (1..=20).contains(&passes),
        "idle scheduling loop made {passes} passes in 500 ms"
    );
}
