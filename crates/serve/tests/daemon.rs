//! End-to-end campaign service tests: submit/watch/cancel over real TCP,
//! multi-tenant dedup through the shared runner, queue bounds, and
//! restart recovery from the persisted store prefix.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::thread;

use scenarios::{Campaign, CampaignError, CampaignRunner, ResultStore, Scenario, TaskKind};
use serde_json::Value;
use serve::{Client, Daemon, ServeConfig};

fn tiny(name: &str, faults: &[&str], seed: u64) -> Scenario {
    Scenario::new(name, faults.iter().map(|f| f.parse().unwrap()).collect())
        .seed(seed)
        .budgets(3, 2, 1, 1)
        .task(TaskKind::Moons {
            samples: 80,
            noise: 0.1,
        })
}

fn temp_store(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("bayesft-serve-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The daemon's gauges are process-wide statics, so every test that runs
/// a daemon holds this lock for its whole body: one daemon at a time
/// writes them, and a test can assert the values its own daemon left.
static DAEMONS: Mutex<()> = Mutex::new(());

fn one_daemon_at_a_time() -> MutexGuard<'static, ()> {
    DAEMONS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Binds on an ephemeral loopback port and runs the daemon on a thread.
fn start(config: ServeConfig) -> (String, thread::JoinHandle<Result<(), CampaignError>>) {
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || daemon.run());
    (addr, handle)
}

fn config(store: &Path, workers: usize) -> ServeConfig {
    ServeConfig {
        store: store.to_string_lossy().into_owned(),
        workers,
        ..ServeConfig::default()
    }
}

fn u64_field(value: &Value, key: &str) -> u64 {
    value.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX)
}

#[test]
fn daemon_runs_a_submitted_campaign_end_to_end() {
    let _serial = one_daemon_at_a_time();
    let campaign = Campaign::new(
        "served",
        vec![
            tiny("lognormal", &["lognormal:0.5"], 3),
            tiny("defects", &["stuckat:0.05,0.02,2", "bitflip:0.005"], 3),
        ],
    );
    let store_path = temp_store("e2e");
    let (addr, daemon) = start(config(&store_path, 1));

    let mut client = Client::connect(&addr).unwrap();
    let ping = client.ping().unwrap();
    assert_eq!(
        ping.get("service").and_then(Value::as_str),
        Some("campaign")
    );

    let job = client.submit(campaign.to_json()).unwrap();
    assert_eq!(job, "job-1");
    let mut scenario_events = Vec::new();
    let done = client
        .watch(&job, |event| {
            if event.get("event").and_then(Value::as_str) == Some("scenario") {
                scenario_events.push(event.clone());
            }
        })
        .unwrap();
    assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(u64_field(&done, "completed"), 2);
    assert_eq!(u64_field(&done, "failed"), 0);
    assert_eq!(scenario_events.len(), 2, "one event per scenario");
    for event in &scenario_events {
        assert_eq!(event.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(u64_field(event, "total"), 2);
        assert!(u64_field(event, "index") < 2);
    }

    // Resubmitting the same campaign costs zero engine runs: the daemon's
    // runner memoizes across jobs.
    let job2 = client.submit(campaign.to_json()).unwrap();
    let done2 = client.watch(&job2, |_| {}).unwrap();
    assert_eq!(done2.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(u64_field(&done2, "cache_served"), 2);

    // Status knows both jobs.
    let status = client.status(None).unwrap();
    let jobs = status.get("jobs").and_then(Value::as_array).unwrap();
    assert_eq!(jobs.len(), 2);
    assert!(jobs
        .iter()
        .all(|j| j.get("state").and_then(Value::as_str) == Some("done")));

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();

    // Acceptance: the daemon's compacted store is byte-identical to a
    // direct `campaign run` of the same campaign.
    let direct_path = temp_store("e2e-direct");
    CampaignRunner::new()
        .run_campaign_report(&campaign, Some(&ResultStore::open(&direct_path)))
        .unwrap();
    ResultStore::open(&store_path).compact().unwrap();
    ResultStore::open(&direct_path).compact().unwrap();
    let daemon_bytes = std::fs::read(&store_path).unwrap();
    assert_eq!(
        daemon_bytes,
        std::fs::read(&direct_path).unwrap(),
        "daemon-submitted store diverged from a direct run"
    );
    assert!(!daemon_bytes.is_empty());
    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(&direct_path);
}

#[test]
fn concurrent_aliased_submissions_cost_one_engine_run() {
    let _serial = one_daemon_at_a_time();
    // Jobs from two clients share scenario content under different names:
    // the shared in-flight reservation must collapse them to one compute.
    let shared_spec = ["lognormal:0.5"];
    let job_a = Campaign::new(
        "tenant-a",
        vec![
            tiny("a-shared", &shared_spec, 3),
            tiny("a-own", &["stuckat:0.05,0.02,2"], 3),
        ],
    );
    let job_b = Campaign::new(
        "tenant-b",
        vec![
            tiny("b-shared", &shared_spec, 3),
            tiny("b-own", &["quantize:16+lognormal:0.3"], 3),
        ],
    );
    let store_path = temp_store("aliased");
    let (addr, daemon) = start(config(&store_path, 2));

    let submit_and_watch = |campaign: Campaign, addr: String| {
        thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let job = client.submit(campaign.to_json()).unwrap();
            client.watch(&job, |_| {}).unwrap()
        })
    };
    let a = submit_and_watch(job_a, addr.clone());
    let b = submit_and_watch(job_b, addr.clone());
    let (done_a, done_b) = (a.join().unwrap(), b.join().unwrap());

    for done in [&done_a, &done_b] {
        assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
        assert_eq!(u64_field(done, "completed"), 2);
        assert_eq!(u64_field(done, "failed"), 0);
    }
    // 3 unique scenario contents across 4 submissions: exactly 3 engine
    // runs, however the two workers interleaved.
    let fresh = |done: &Value| {
        u64_field(done, "completed")
            - u64_field(done, "cache_served")
            - u64_field(done, "store_served")
    };
    assert_eq!(
        fresh(&done_a) + fresh(&done_b),
        3,
        "content-aliased submissions must share one engine run"
    );

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();

    // Both jobs' records are persisted, and the shared scenario's two
    // records (one per job) are bit-identical.
    let store = ResultStore::open(&store_path);
    assert_eq!(store.load().unwrap().len(), 4);
    let groups = store.compare().unwrap();
    let shared = groups
        .iter()
        .find(|g| g.runs == 2)
        .expect("the shared content forms a 2-run group");
    assert!(
        shared.identical,
        "aliased submissions must store bit-identical results"
    );
    let _ = std::fs::remove_file(&store_path);
}

#[test]
fn queued_jobs_cancel_and_overflow_is_refused() {
    let _serial = one_daemon_at_a_time();
    // No workers: jobs queue deterministically and never start.
    let store_path = temp_store("queue");
    let mut config = config(&store_path, 0);
    config.queue_capacity = 2;
    let (addr, daemon) = start(config);
    let campaign = Campaign::new("queued", vec![tiny("only", &["lognormal:0.5"], 3)]);

    let mut client = Client::connect(&addr).unwrap();
    let first = client.submit(campaign.to_json()).unwrap();
    let second = client.submit(campaign.to_json()).unwrap();
    assert_eq!((first.as_str(), second.as_str()), ("job-1", "job-2"));

    // Third submission overflows the bounded queue: refused, not dropped.
    let overflow = client.submit(campaign.to_json());
    let message = overflow.expect_err("overflow must be refused").to_string();
    assert!(
        message.contains("queue full"),
        "refusal must say why: {message}"
    );

    // Cancelling a queued job finalizes it without running anything.
    let cancel = client.cancel(&first).unwrap();
    assert_eq!(
        cancel.get("state").and_then(Value::as_str),
        Some("cancelled")
    );
    let done = client.watch(&first, |_| {}).unwrap();
    assert_eq!(done.get("state").and_then(Value::as_str), Some("cancelled"));
    let status = client.status(Some(&first)).unwrap();
    assert_eq!(
        status
            .get("job")
            .and_then(|j| j.get("state"))
            .and_then(Value::as_str),
        Some("cancelled")
    );

    // Unknown jobs are refused, not hung, and every verb that names a job
    // gives the same reason code (the client keeps only the message).
    assert!(client.cancel("job-99").is_err());
    assert!(client.status(Some("job-99")).is_err());
    {
        use std::io::{BufRead, BufReader, Write};
        let raw = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut writer = raw;
        for verb in ["watch", "status", "cancel"] {
            writeln!(writer, "{{\"cmd\":\"{verb}\",\"job\":\"job-99\"}}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let response: Value = serde_json::from_str(line.trim()).unwrap();
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
            assert_eq!(
                response.get("reason").and_then(Value::as_str),
                Some("unknown_job"),
                "{verb} refusal: {line}"
            );
        }
    }

    // Shutdown cancels the remaining queued job and refuses new work.
    client.shutdown().unwrap();
    let done = client.watch(&second, |_| {}).unwrap();
    assert_eq!(done.get("state").and_then(Value::as_str), Some("cancelled"));
    assert!(
        client.submit(campaign.to_json()).is_err(),
        "submissions during shutdown must be refused"
    );
    daemon.join().unwrap().unwrap();
    assert!(
        !store_path.exists(),
        "no job ran, so nothing may be persisted"
    );
}

#[test]
fn restarted_daemon_resumes_from_the_persisted_prefix() {
    let _serial = one_daemon_at_a_time();
    let campaign = Campaign::new(
        "restart",
        vec![
            tiny("lognormal", &["lognormal:0.5"], 3),
            tiny("defects", &["stuckat:0.05,0.02,2", "bitflip:0.005"], 3),
            tiny("pipeline", &["quantize:16+lognormal:0.3"], 9),
        ],
    );
    let store_path = temp_store("restart");

    // First life: run the campaign to completion, then stop.
    let (addr, daemon) = start(config(&store_path, 1));
    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(campaign.to_json()).unwrap();
    let done = client.watch(&job, |_| {}).unwrap();
    assert_eq!(u64_field(&done, "completed"), 3);
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();

    // Reconstruct an abrupt kill: keep the first two scenarios' records
    // plus a truncated partial line, exactly what dying mid-append leaves.
    let full = std::fs::read_to_string(&store_path).unwrap();
    let prefix: Vec<&str> = full.lines().take(2).collect();
    std::fs::write(
        &store_path,
        format!("{}\n{{\"campaign\":\"restart\",\"scena", prefix.join("\n")),
    )
    .unwrap();

    // Second life: resubmitting the same campaign replays the persisted
    // prefix and computes only the missing scenario.
    let (addr, daemon) = start(config(&store_path, 1));
    let mut client = Client::connect(&addr).unwrap();
    let status = client.status(None).unwrap();
    let warnings = status.get("warnings").and_then(Value::as_array).unwrap();
    assert!(
        warnings.iter().any(|w| w
            .as_str()
            .is_some_and(|w| w.contains("partial trailing line"))),
        "the crash artifact must be surfaced at startup: {warnings:?}"
    );
    let job = client.submit(campaign.to_json()).unwrap();
    let done = client.watch(&job, |_| {}).unwrap();
    assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(u64_field(&done, "completed"), 3);
    assert_eq!(
        u64_field(&done, "store_served"),
        2,
        "the persisted prefix must be served, not recomputed"
    );
    assert_eq!(u64_field(&done, "cache_served"), 0);
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();

    // The resumed store still compacts byte-identically to a direct run.
    let direct_path = temp_store("restart-direct");
    CampaignRunner::new()
        .run_campaign_report(&campaign, Some(&ResultStore::open(&direct_path)))
        .unwrap();
    ResultStore::open(&store_path).compact().unwrap();
    ResultStore::open(&direct_path).compact().unwrap();
    assert_eq!(
        std::fs::read(&store_path).unwrap(),
        std::fs::read(&direct_path).unwrap(),
        "restart-resumed store diverged from a direct run"
    );
    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(&direct_path);
}

#[test]
fn status_stays_consistent_under_concurrent_submissions() {
    let _serial = one_daemon_at_a_time();
    // No workers: every accepted job stays queued, so the status listing
    // is deterministic no matter how the submissions raced.
    let store_path = temp_store("concurrent-status");
    let mut config = config(&store_path, 0);
    config.queue_capacity = 16;
    let (addr, daemon) = start(config);

    const CLIENTS: usize = 6;
    let submitters: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let campaign = Campaign::new(
                    format!("c{i}"),
                    vec![tiny(&format!("s{i}"), &["lognormal:0.4"], i as u64 + 1)],
                );
                let mut client = Client::connect(&addr).unwrap();
                client.submit(campaign.to_json()).unwrap()
            })
        })
        .collect();
    let mut ids: Vec<String> = submitters.into_iter().map(|h| h.join().unwrap()).collect();

    // Every submitter got a distinct job ID from the contiguous range.
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), CLIENTS, "job IDs must be unique: {ids:?}");
    for ix in 1..=CLIENTS {
        assert!(
            ids.contains(&format!("job-{ix}")),
            "missing job-{ix}: {ids:?}"
        );
    }

    // One status snapshot sees all of them, each exactly once, all queued.
    let mut client = Client::connect(&addr).unwrap();
    let status = client.status(None).unwrap();
    assert_eq!(u64_field(&status, "queued"), CLIENTS as u64);
    let jobs = status.get("jobs").and_then(Value::as_array).unwrap();
    assert_eq!(jobs.len(), CLIENTS);
    for job in jobs {
        assert_eq!(job.get("state").and_then(Value::as_str), Some("queued"));
    }

    // Per-job status agrees with the listing for every ID.
    for id in &ids {
        let one = client.status(Some(id)).unwrap();
        assert_eq!(
            one.get("job")
                .and_then(|j| j.get("state"))
                .and_then(Value::as_str),
            Some("queued")
        );
    }

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&store_path);
}

#[test]
fn malformed_requests_get_error_responses_and_the_daemon_survives() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let _serial = one_daemon_at_a_time();

    let store_path = temp_store("malformed");
    let (addr, daemon) = start(config(&store_path, 1));

    let raw = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut writer = raw;
    // Each probe must produce exactly one {"ok":false,...} line — never a
    // dropped connection, never a daemon panic.
    let mut expect_error = |payload: &[u8], what: &str| {
        writer.write_all(payload).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: Value = serde_json::from_str(line.trim())
            .unwrap_or_else(|e| panic!("{what}: unparseable response {line:?}: {e}"));
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(false),
            "{what} must be refused, got {line:?}"
        );
        assert!(
            response.get("error").and_then(Value::as_str).is_some(),
            "{what} refusal must carry an error message: {line:?}"
        );
    };

    expect_error(b"this is not json\n", "garbage text");
    expect_error(b"{\"cmd\":\"no-such-cmd\"}\n", "unknown cmd");
    expect_error(b"{\"cmd\":\"submit\"\n", "truncated JSON");
    expect_error(b"{\"cmd\": \xff\xfe\"ping\"}\n", "invalid UTF-8");
    // Oversized: two megabytes of 'x' with no newline until the end.
    let mut huge = vec![b'x'; 2 << 20];
    huge.push(b'\n');
    expect_error(&huge, "oversized line");

    // The abused connection still serves real requests…
    writer.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let pong: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(
        pong.get("ok").and_then(Value::as_bool),
        Some(true),
        "ping after abuse must succeed, got {line:?}"
    );

    // …and a connection dying mid-line doesn't wedge the daemon.
    let mut half = TcpStream::connect(&addr).unwrap();
    half.write_all(b"{\"cmd\":\"stat").unwrap();
    drop(half);

    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&store_path);
}

#[test]
fn metrics_verb_returns_a_prometheus_snapshot() {
    let _serial = one_daemon_at_a_time();
    let store_path = temp_store("metrics");
    let (addr, daemon) = start(config(&store_path, 1));
    let campaign = Campaign::new("observed", vec![tiny("only", &["lognormal:0.5"], 11)]);

    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(campaign.to_json()).unwrap();
    let done = client.watch(&job, |_| {}).unwrap();
    assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));

    let text = client.metrics().unwrap();
    // Counters, gauges, and histograms covering runner, store, and daemon
    // — with their TYPE declarations.
    for family in [
        "campaign_engine_runs_total",
        "store_appends_total",
        "daemon_jobs_submitted_total",
        "daemon_bytes_read_total",
        "daemon_bytes_written_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} counter\n")),
            "missing counter {family} in:\n{text}"
        );
    }
    assert!(text.contains("# TYPE daemon_queue_depth gauge\n"));
    assert!(text.contains("daemon_queue_depth 0\n"), "queue drained");
    for family in [
        "daemon_job_seconds",
        "campaign_scenario_seconds",
        "store_append_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram\n")),
            "missing histogram {family} in:\n{text}"
        );
        assert!(text.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")));
        assert!(text.contains(&format!("{family}_sum")));
        assert!(text.contains(&format!("{family}_count")));
    }
    // Per-worker utilization carries a worker label.
    assert!(
        text.contains("daemon_worker_busy_ms_total{worker=\"0\"}"),
        "missing per-worker counter in:\n{text}"
    );

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&store_path);
}

/// Regression for the lock-discipline pass: one client streams `watch`
/// on a job while a second cancels that same job, and a third submits
/// while the daemon is draining. Every response must arrive inside the
/// wall-clock bound — if any handler writes to a client socket while
/// holding the state mutex, the watcher and the canceller deadlock and
/// the channel recv below times out instead of hanging CI forever.
#[test]
fn watch_cancel_and_submit_while_draining_do_not_deadlock() {
    use std::sync::mpsc;
    use std::time::Duration;

    let _serial = one_daemon_at_a_time();

    const BOUND: Duration = Duration::from_secs(60);
    let campaign = Campaign::new(
        "race",
        vec![
            tiny("one", &["lognormal:0.5"], 5),
            tiny("two", &["bitflip:0.005"], 5),
            tiny("three", &["stuckat:0.05,0.02,2"], 5),
        ],
    );
    let store_path = temp_store("race");
    let (addr, daemon) = start(config(&store_path, 1));

    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(campaign.to_json()).unwrap();

    let (tx, rx) = mpsc::channel::<&'static str>();
    let watcher = {
        let (addr, job, tx) = (addr.clone(), job.clone(), tx.clone());
        thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let done = c.watch(&job, |_| {}).unwrap();
            let state = done.get("state").and_then(Value::as_str);
            assert!(
                state == Some("done") || state == Some("cancelled"),
                "unexpected terminal state {state:?}"
            );
            tx.send("watch").unwrap();
        })
    };
    let canceller = {
        let (addr, job, tx) = (addr.clone(), job.clone(), tx);
        thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            // Whether the cancel lands before or after the job finishes,
            // the daemon must answer it — losing the race is fine,
            // hanging is the regression.
            let _ = c.cancel(&job);
            tx.send("cancel").unwrap();
        })
    };
    for _ in 0..2 {
        rx.recv_timeout(BOUND)
            .expect("deadlock: watcher or canceller got no response inside the bound");
    }
    watcher.join().unwrap();
    canceller.join().unwrap();

    // Submit-while-draining: open the connection first, start shutdown,
    // then submit on the old connection. The drain must refuse the job
    // promptly rather than park the connection on the state lock.
    let mut late = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    let (tx2, rx2) = mpsc::channel::<&'static str>();
    let submitter = thread::spawn(move || {
        assert!(
            late.submit(campaign.to_json()).is_err(),
            "submissions during shutdown must be refused"
        );
        tx2.send("submit").unwrap();
    });
    rx2.recv_timeout(BOUND)
        .expect("deadlock: draining daemon never answered the late submit");
    submitter.join().unwrap();

    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&store_path);
}
