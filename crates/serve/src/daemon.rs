//! The `campaign serve` daemon: a bounded job queue, a worker pool over
//! one shared [`CampaignRunner`], and a connection loop speaking the
//! [`protocol`](crate::protocol) grammar.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use scenarios::{Campaign, CampaignError, CampaignRunner, ResultStore, RunControl, ScenarioRun};
use serde_json::Value;

use crate::protocol::{
    backoff_refusal, done_event, err_response, ok_response, ping_event, refusal, report_counters,
    scenario_event, state_event, warning_event, with_job, Request,
};
use crate::supervisor;

/// How long idle waits (worker queue, watcher events, accept loop,
/// connection reads) sleep before re-checking the shutdown flag.
pub(crate) const IDLE_TICK: Duration = Duration::from_millis(50);

/// How long a `watch` stream may sit silent before the daemon emits a
/// keepalive `{"event": "ping"}` — well under any sane client read
/// timeout, so a quiet long job is distinguishable from a hung daemon.
const WATCH_KEEPALIVE: Duration = Duration::from_secs(2);

/// Fallback per-job latency estimate for `retry_after_ms` hints before
/// the `daemon_job_seconds` histogram has observed a single job.
const DEFAULT_JOB_MS: f64 = 500.0;

/// Bounds on the `retry_after_ms` back-pressure hint: never so short
/// that honoring it becomes a busy-loop, never so long that a briefly
/// full queue strands clients for minutes.
const MIN_RETRY_AFTER_MS: f64 = 100.0;
const MAX_RETRY_AFTER_MS: f64 = 60_000.0;

/// Hard cap on one request line. Beyond this the rest of the line is
/// drained and discarded and the client gets an error response, so a
/// newline-less (or simply huge) request cannot balloon daemon memory.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Where a job's scenarios execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// On the worker thread, through the daemon's shared
    /// [`CampaignRunner`] — cheapest, shares the memo cache, but a
    /// wedged or aborting campaign takes the worker (or daemon) with it.
    InProcess,
    /// In supervised `campaign run` child processes (one per shard) —
    /// a crashed, hanging, or garbage-spewing campaign costs a retry,
    /// never the accept loop. See the crate's `supervisor` module.
    Process,
}

/// How the daemon runs: store, pool sizes, queue bounds, and the
/// supervision policy for process-isolated jobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the shared result store every job persists through.
    pub store: String,
    /// Worker threads draining the job queue. `0` is accept-only (jobs
    /// queue but never run — useful for deterministic queue tests).
    pub workers: usize,
    /// Work-stealing shards *within* each job (passed to
    /// [`CampaignRunner::shards`]); under [`Isolation::Process`], the
    /// number of child processes the campaign is split across.
    pub shards: usize,
    /// Training parallelism within each scenario.
    pub parallelism: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond this are
    /// refused, never silently dropped.
    pub queue_capacity: usize,
    /// Clamp every scenario to smoke budgets (`BENCH_QUICK=1`).
    pub quick: bool,
    /// Prime the runner from the store at startup so a restarted daemon
    /// serves already-persisted scenarios instead of recomputing them.
    pub resume: bool,
    /// Where jobs execute (default [`Isolation::InProcess`]).
    pub isolation: Isolation,
    /// Binary spawned for [`Isolation::Process`] workers; `None` means
    /// this process's own executable (the `campaign` binary).
    pub worker_exe: Option<String>,
    /// Per-job wall-clock budget under [`Isolation::Process`]: when it
    /// expires the children are killed and the job is marked
    /// [`JobState::TimedOut`]. `None` is unlimited.
    pub deadline: Option<Duration>,
    /// How many times a crashed (not cleanly failed) child is respawned
    /// before the job fails; retries resume from the child's fsynced
    /// store prefix.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry up to
    /// [`ServeConfig::backoff_cap`], with deterministic jitter.
    pub backoff_base: Duration,
    /// Upper bound on a single retry backoff.
    pub backoff_cap: Duration,
    /// Chaos plan handed to child workers (the [`crate::fault`] grammar,
    /// e.g. `crash_after:3`). [`Daemon::bind`] defaults it from the
    /// `SERVE_FAULT` environment variable; `None` scrubs the variable
    /// from children so ambient chaos cannot leak in.
    pub chaos: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store: "campaign_results.jsonl".into(),
            workers: 1,
            shards: 1,
            parallelism: 1,
            queue_capacity: 64,
            quick: false,
            resume: true,
            isolation: Isolation::InProcess,
            worker_exe: None,
            deadline: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(500),
            backoff_cap: Duration::from_secs(10),
            chaos: None,
        }
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the FIFO queue, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Every scenario produced an outcome.
    Done,
    /// The campaign ran but at least one scenario failed, or persistence
    /// failed, or a crashed worker exhausted its retries.
    Failed,
    /// Cancelled before (or while) running; the store keeps whatever
    /// campaign-order prefix completed.
    Cancelled,
    /// A process-isolated job out-ran its wall-clock deadline; its
    /// children were killed and the store keeps the completed prefix.
    TimedOut,
}

impl JobState {
    /// Wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
        }
    }

    /// Whether the job can never change state again.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled | JobState::TimedOut
        )
    }
}

/// One submitted campaign and everything observers need to follow it.
pub(crate) struct Job {
    pub(crate) id: String,
    pub(crate) campaign: Campaign,
    pub(crate) state: JobState,
    /// Cooperative cancel flag, checked by the runner between scenarios
    /// (and by the supervisor between child polls).
    ///
    /// Ordering: `SeqCst` both sides — cancel is rare and cold, so the
    /// strongest ordering costs nothing and keeps it trivially correct
    /// against the state-mutex handoff.
    pub(crate) cancel: Arc<AtomicBool>,
    /// Full event history, replayed to watchers that subscribe late.
    pub(crate) events: Vec<Value>,
    pub(crate) error: Option<String>,
    /// Child-process attempts spawned for this job (0 for in-process
    /// jobs); grows past the shard count when the supervisor retries.
    pub(crate) attempts: u64,
    /// PIDs of the job's live worker processes, for `status` and the
    /// chaos harness's aim.
    pub(crate) worker_pids: Vec<u32>,
    /// When `submit` accepted the job; end-to-end latency (submission to
    /// terminal state) lands in the `daemon_job_seconds` histogram.
    pub(crate) submitted: Instant,
}

impl Job {
    /// Records one event, stamped with this job's id.
    pub(crate) fn push(&mut self, event: Value) {
        self.events.push(with_job(event, &self.id));
    }

    /// The one transition into a terminal state, made under the state
    /// lock: sets `state` and `error`, clears the worker PIDs, records the
    /// `done` event (its counters from the caller) and observes the
    /// submission-to-terminal latency in `daemon_job_seconds`. A job that
    /// is already terminal is left as it is, so each job reports one
    /// `done` event and one latency.
    pub(crate) fn finish(&mut self, state: JobState, error: Option<String>, counters: Value) {
        if self.state.terminal() {
            return;
        }
        self.state = state;
        self.worker_pids.clear();
        self.push(done_event(state, counters, error.as_deref()));
        self.error = error;
        telemetry::duration_histogram!("daemon_job_seconds")
            .observe_duration(self.submitted.elapsed());
    }
}

/// Publish the current queue depth; call after every queue mutation.
fn sync_queue_depth(st: &DaemonState) {
    telemetry::static_gauge!("daemon_queue_depth").set(st.queue.len() as i64);
}

pub(crate) struct DaemonState {
    pub(crate) jobs: Vec<Job>,
    /// Indices into `jobs`, FIFO.
    pub(crate) queue: VecDeque<usize>,
    /// Warnings from store priming at startup (crash-tail truncation).
    startup_warnings: Vec<String>,
}

impl DaemonState {
    /// How many jobs a worker is executing.
    fn running(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .count()
    }
}

/// Lock order: `state` is a leaf — workers release it before entering
/// the runner, so the runner's `in_flight` → `cache` pair and the
/// [`ResultStore`] file lock are only ever taken with `state` free, and
/// nothing held under `state` may block on a client socket or the store.
pub(crate) struct Shared {
    pub(crate) runner: CampaignRunner,
    pub(crate) store: ResultStore,
    pub(crate) config: ServeConfig,
    pub(crate) state: Mutex<DaemonState>,
    /// Wakes workers when the queue grows (or shutdown starts).
    pub(crate) job_cv: Condvar,
    /// Wakes watchers when any job gains events or terminates.
    pub(crate) event_cv: Condvar,
    /// Ordering: `SeqCst` both sides — set once at shutdown, read off
    /// the accept/worker loops; never on a per-request path, so the
    /// fence cost is irrelevant and the strongest ordering wins.
    pub(crate) shutdown: AtomicBool,
}

/// The campaign service: bind once, then [`Daemon::run`] until a client
/// sends `shutdown`.
///
/// All jobs share one [`CampaignRunner`] — and therefore one memo cache
/// and one in-flight reservation set — so two clients submitting
/// content-aliased campaigns cost a single engine run, with both stores'
/// records bit-identical. All jobs persist through one locked
/// [`ResultStore`], in campaign order per job, so an abrupt kill leaves
/// each job's completed prefix resumable.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds the listener and primes the runner from the store.
    ///
    /// With [`ServeConfig::resume`] set (the default), a partial trailing
    /// line left by a killed predecessor is truncated and every persisted
    /// scenario becomes servable without recomputation — the daemon's
    /// restart-recovery path is exactly the campaign CLI's `--resume`.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] if the address cannot be bound or the
    /// store cannot be read, and propagates store lock/parse failures from
    /// resume priming.
    pub fn bind(addr: &str, mut config: ServeConfig) -> Result<Daemon, CampaignError> {
        // An ambient SERVE_FAULT (the CI chaos smoke sets it on the
        // daemon) becomes an explicit plan here; either way the
        // supervisor sets the child environment deliberately instead of
        // letting inheritance decide.
        if config.chaos.is_none() {
            config.chaos = std::env::var(crate::fault::FAULT_ENV)
                .ok()
                .filter(|s| !s.trim().is_empty());
        }
        if let Some(plan) = &config.chaos {
            crate::fault::FaultPlan::parse(plan).map_err(CampaignError::Parse)?;
        }
        let store = ResultStore::open(&config.store);
        let mut startup_warnings = Vec::new();
        let mut runner = CampaignRunner::new()
            .parallelism(config.parallelism)
            .shards(config.shards)
            .quick(config.quick);
        if config.resume {
            if let Some(dropped) = store.drop_partial_tail()? {
                startup_warnings.push(dropped);
            }
            runner = runner.resume_from(&store)?;
        }
        let listener = TcpListener::bind(addr).map_err(CampaignError::from)?;
        // Non-blocking accept: the loop must notice the shutdown flag even
        // when no client ever connects again.
        listener.set_nonblocking(true)?;
        Ok(Daemon {
            listener,
            shared: Arc::new(Shared {
                runner,
                store,
                config,
                state: Mutex::new(DaemonState {
                    jobs: Vec::new(),
                    queue: VecDeque::new(),
                    startup_warnings,
                }),
                job_cv: Condvar::new(),
                event_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address — the way to learn the port after binding `:0`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket is gone.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// How many scenarios the resume priming can serve without
    /// recomputation.
    pub fn resumable_runs(&self) -> usize {
        self.shared.runner.resumable_runs()
    }

    /// Serves until a client sends `shutdown`, then drains: queued jobs
    /// are already cancelled by the shutdown request, running jobs finish
    /// (their campaign-order prefix discipline makes interrupting them
    /// pointless — finishing is as safe as stopping), watchers receive
    /// their terminal events, and every thread is joined before return.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] only for accept-loop failures other
    /// than `WouldBlock`; per-connection errors just close that
    /// connection.
    pub fn run(self) -> Result<(), CampaignError> {
        let shared = self.shared;
        let workers: Vec<_> = (0..shared.config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("campaign-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    // lint:allow(R3, reason = "startup thread spawn; no client bytes involved and the process cannot serve without its workers")
                    .expect("spawn campaign worker")
            })
            .collect();
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&shared);
                    connections.push(thread::spawn(move || {
                        let _ = serve_connection(stream, &shared);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(IDLE_TICK),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
            connections.retain(|handle| !handle.is_finished());
        }
        shared.job_cv.notify_all();
        for handle in workers {
            let _ = handle.join();
        }
        shared.event_cv.notify_all();
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Worker: pop jobs FIFO until shutdown empties the queue for good.
fn worker_loop(shared: &Shared, worker: usize) {
    // Labelled per-worker utilization counter; registered once per
    // worker thread, then pure atomics.
    // lint:allow(R4, reason = "per-worker label needs a runtime-formatted name; registered once per worker thread, not per observation")
    let busy_ms = telemetry::counter(&format!(
        "daemon_worker_busy_ms_total{{worker=\"{worker}\"}}"
    ));
    loop {
        let job_ix = {
            let mut st = lock_state(shared);
            loop {
                if let Some(ix) = st.queue.pop_front() {
                    sync_queue_depth(&st);
                    break Some(ix);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                st = shared
                    .job_cv
                    .wait_timeout(st, IDLE_TICK)
                    // lint:allow(R3, reason = "poison means another thread already panicked mid-update; aborting beats serving torn state")
                    .expect("daemon state poisoned")
                    .0;
            }
        };
        match job_ix {
            Some(ix) => {
                let started = Instant::now();
                match shared.config.isolation {
                    Isolation::InProcess => run_job(shared, ix),
                    Isolation::Process => supervisor::run_job(shared, ix),
                }
                busy_ms.add(started.elapsed().as_millis() as u64);
            }
            None => return,
        }
    }
}

/// Claims a dequeued job: honors a cancel that landed between dequeue
/// and execution (finalizing the job, returning `None`), otherwise marks
/// it [`JobState::Running`], emits the state event, and hands back what
/// the executor needs. Shared by the in-process path and the
/// process-isolation supervisor.
pub(crate) fn begin_job(shared: &Shared, ix: usize) -> Option<(Campaign, Arc<AtomicBool>, String)> {
    let claimed = {
        let mut st = lock_state(shared);
        let job = &mut st.jobs[ix];
        // A cancel can land between dequeue and here; honor it before
        // spending compute.
        if job.cancel.load(Ordering::SeqCst) {
            job.finish(JobState::Cancelled, None, Value::object());
            None
        } else {
            job.state = JobState::Running;
            job.push(state_event(JobState::Running, job.campaign.scenarios.len()));
            Some((
                job.campaign.clone(),
                Arc::clone(&job.cancel),
                job.id.clone(),
            ))
        }
    };
    shared.event_cv.notify_all();
    claimed
}

/// Executes one dequeued job through the shared runner, streaming events.
fn run_job(shared: &Shared, ix: usize) {
    let Some((campaign, cancel, _)) = begin_job(shared, ix) else {
        return;
    };

    let observer = |run: &ScenarioRun| {
        lock_state(shared).jobs[ix].push(scenario_event(run));
        shared.event_cv.notify_all();
    };
    let ctl = RunControl {
        cancel: Some(&cancel),
        observer: Some(&observer),
    };
    let result = shared
        .runner
        .run_campaign_report_with(&campaign, Some(&shared.store), ctl);

    let mut st = lock_state(shared);
    let job = &mut st.jobs[ix];
    match result {
        Ok(report) => {
            for warning in &report.warnings {
                job.push(warning_event(warning));
            }
            let state = if report.cancelled {
                JobState::Cancelled
            } else if report.failed > 0 {
                JobState::Failed
            } else {
                JobState::Done
            };
            job.finish(state, None, report_counters(&report));
        }
        Err(e) => job.finish(JobState::Failed, Some(e.to_string()), Value::object()),
    }
    drop(st);
    shared.event_cv.notify_all();
}

pub(crate) fn lock_state(shared: &Shared) -> MutexGuard<'_, DaemonState> {
    // lint:allow(R3, reason = "poison means another thread already panicked mid-update; aborting beats serving torn state")
    shared.state.lock().expect("daemon state poisoned")
}

/// Outcome of reading one request line from a connection.
enum LineRead {
    /// A complete UTF-8 request line (without the trailing newline).
    Line(String),
    /// The line exceeded [`MAX_REQUEST_BYTES`]; its tail was drained and
    /// discarded, leaving the stream positioned at the next line.
    Oversized,
    /// The line's bytes were not valid UTF-8.
    BadUtf8,
    /// Clean EOF, or shutdown observed mid-connection.
    Closed,
}

/// Reads one newline-terminated request line with a hard size cap.
///
/// Malformed input is a response, not a panic and not a silently dropped
/// connection: oversized lines are drained without buffering them and
/// invalid UTF-8 is reported as such, in both cases leaving the stream
/// at the next line so the client can keep talking.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        // A timeout mid-line keeps the partial bytes in `buf` and
        // retries, re-checking the shutdown flag each tick.
        let (done, used) = {
            let available = match reader.fill_buf() {
                Ok(bytes) => bytes,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        // A half-received request at shutdown can never
                        // be answered; don't hold the join hostage.
                        return Ok(LineRead::Closed);
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                // EOF — mid-line EOF included: a truncated request line
                // is not a request.
                return Ok(LineRead::Closed);
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !oversized {
                        buf.extend_from_slice(&available[..pos]);
                    }
                    (true, pos + 1)
                }
                None => {
                    if !oversized {
                        buf.extend_from_slice(available);
                    }
                    (false, available.len())
                }
            }
        };
        reader.consume(used);
        telemetry::static_counter!("daemon_bytes_read_total").add(used as u64);
        if buf.len() > MAX_REQUEST_BYTES {
            oversized = true;
            buf = Vec::new(); // release the memory, not just the length
        }
        if done {
            if oversized {
                return Ok(LineRead::Oversized);
            }
            return Ok(match String::from_utf8(buf) {
                Ok(line) => LineRead::Line(line),
                Err(_) => LineRead::BadUtf8,
            });
        }
    }
}

/// One connection: read request lines, answer each with one line (or an
/// event stream for `watch`), until EOF — or until shutdown finds the
/// connection idle.
fn serve_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    // Bounded reads so an idle connection re-checks the shutdown flag.
    stream.set_read_timeout(Some(IDLE_TICK))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_request_line(&mut reader, shared)? {
            LineRead::Line(line) => line,
            LineRead::Oversized => {
                let message = format!("request line exceeds the {MAX_REQUEST_BYTES}-byte limit");
                send(&mut writer, &refusal(&message, "bad_request"))?;
                continue;
            }
            LineRead::BadUtf8 => {
                send(
                    &mut writer,
                    &refusal("request line is not valid UTF-8", "bad_request"),
                )?;
                continue;
            }
            LineRead::Closed => return Ok(()),
        };
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse(&line) {
            Err(message) => send(&mut writer, &refusal(&message, "bad_request"))?,
            Ok(Request::Watch { job }) => watch_job(&mut writer, shared, &job)?,
            Ok(request) => {
                let response = handle_request(shared, request);
                send(&mut writer, &response)?;
            }
        }
    }
}

/// [`crate::protocol::write_line`] with the daemon's bytes-on-wire
/// accounting.
fn send(writer: &mut impl std::io::Write, value: &Value) -> std::io::Result<()> {
    let mut text = serde_json::to_string(value);
    text.push('\n');
    telemetry::static_counter!("daemon_bytes_written_total").add(text.len() as u64);
    writer.write_all(text.as_bytes())
}

/// Everything except `watch`: one response line per request.
fn handle_request(shared: &Shared, request: Request) -> Value {
    match request {
        Request::Ping => {
            let st = lock_state(shared);
            let mut response = ok_response();
            response.insert("service", "campaign");
            response.insert("queued", st.queue.len());
            response.insert("running", st.running());
            response
        }
        Request::Submit { campaign } => submit(shared, &campaign),
        Request::Status { job } => status(shared, job.as_deref()),
        Request::Cancel { job } => cancel(shared, &job),
        // Dispatched by serve_connection before reaching here; if a new
        // call site ever forgets that, answer with an error rather than
        // panicking a connection thread over a routing bug.
        Request::Watch { .. } => {
            err_response("'watch' streams events and must be dispatched on its own connection")
        }
        Request::Metrics => {
            let mut response = ok_response();
            response.insert("metrics", Value::String(telemetry::render_prometheus()));
            response
        }
        Request::Shutdown => shutdown(shared),
    }
}

/// Estimate how long a refused client should wait before retrying:
/// the work ahead of it (queued + running + itself), over the worker
/// pool, at the recent average job latency — or a fixed default before
/// the `daemon_job_seconds` histogram has any observations. Clamped so
/// the hint can neither busy-loop clients nor strand them.
fn retry_after_ms(shared: &Shared, st: &DaemonState) -> u64 {
    let hist = telemetry::duration_histogram!("daemon_job_seconds");
    let avg_ms = if hist.count() > 0 {
        hist.sum() * 1e3 / hist.count() as f64
    } else {
        DEFAULT_JOB_MS
    };
    let ahead = (st.queue.len() + st.running() + 1) as f64;
    let workers = shared.config.workers.max(1) as f64;
    (avg_ms * ahead / workers).clamp(MIN_RETRY_AFTER_MS, MAX_RETRY_AFTER_MS) as u64
}

fn submit(shared: &Shared, campaign: &Value) -> Value {
    if shared.shutdown.load(Ordering::SeqCst) {
        let hint = retry_after_ms(shared, &lock_state(shared));
        return backoff_refusal(
            "daemon is shutting down; not accepting submissions",
            "draining",
            hint,
        );
    }
    let campaign = match Campaign::from_json(campaign) {
        Ok(campaign) => campaign,
        Err(e) => return refusal(&format!("invalid campaign: {e}"), "invalid_campaign"),
    };
    let mut st = lock_state(shared);
    if st.queue.len() >= shared.config.queue_capacity {
        let hint = retry_after_ms(shared, &st);
        return backoff_refusal(
            &format!(
                "queue full ({} queued, capacity {})",
                st.queue.len(),
                shared.config.queue_capacity,
            ),
            "queue_full",
            hint,
        );
    }
    let ix = st.jobs.len();
    let id = format!("job-{}", ix + 1);
    let mut response = ok_response();
    response.insert("job", id.as_str());
    response.insert("position", st.queue.len());
    response.insert("scenarios", campaign.scenarios.len());
    let mut job = Job {
        id,
        campaign,
        state: JobState::Queued,
        cancel: Arc::new(AtomicBool::new(false)),
        events: Vec::new(),
        error: None,
        attempts: 0,
        worker_pids: Vec::new(),
        submitted: Instant::now(),
    };
    job.push(state_event(JobState::Queued, job.campaign.scenarios.len()));
    st.jobs.push(job);
    st.queue.push_back(ix);
    telemetry::static_counter!("daemon_jobs_submitted_total").inc();
    sync_queue_depth(&st);
    drop(st);
    shared.job_cv.notify_one();
    shared.event_cv.notify_all();
    response
}

fn job_summary(job: &Job) -> Value {
    let mut value = Value::object();
    value.insert("job", job.id.as_str());
    value.insert("state", job.state.as_str());
    value.insert("campaign", job.campaign.name.as_str());
    value.insert("scenarios", job.campaign.scenarios.len());
    value.insert("events", job.events.len());
    value.insert("attempts", job.attempts);
    if !job.worker_pids.is_empty() {
        value.insert(
            "worker_pids",
            Value::Array(job.worker_pids.iter().map(|&pid| pid.into()).collect()),
        );
    }
    if let Some(error) = &job.error {
        value.insert("error", error.as_str());
    }
    value
}

fn status(shared: &Shared, job: Option<&str>) -> Value {
    let st = lock_state(shared);
    match job {
        Some(id) => match st.jobs.iter().find(|j| j.id == id) {
            None => refusal(&format!("unknown job '{id}'"), "unknown_job"),
            Some(job) => {
                let mut response = ok_response();
                response.insert("job", job_summary(job));
                response
            }
        },
        None => {
            let mut response = ok_response();
            response.insert(
                "jobs",
                Value::Array(st.jobs.iter().map(job_summary).collect()),
            );
            response.insert("queued", st.queue.len());
            response.insert("running", st.running());
            response.insert(
                "warnings",
                Value::Array(
                    st.startup_warnings
                        .iter()
                        .map(|w| Value::String(w.clone()))
                        .collect(),
                ),
            );
            response
        }
    }
}

fn cancel(shared: &Shared, id: &str) -> Value {
    let mut st = lock_state(shared);
    let Some(ix) = st.jobs.iter().position(|j| j.id == id) else {
        return refusal(&format!("unknown job '{id}'"), "unknown_job");
    };
    let state = st.jobs[ix].state;
    if state.terminal() {
        let mut response = ok_response();
        response.insert("job", id);
        response.insert("state", state.as_str());
        response.insert("already_terminal", true);
        return response;
    }
    st.jobs[ix].cancel.store(true, Ordering::SeqCst);
    if state == JobState::Queued {
        // Never reaches a worker: finalize it here.
        st.queue.retain(|&queued| queued != ix);
        sync_queue_depth(&st);
        st.jobs[ix].finish(JobState::Cancelled, None, Value::object());
    }
    let new_state = st.jobs[ix].state;
    drop(st);
    shared.event_cv.notify_all();
    let mut response = ok_response();
    response.insert("job", id);
    response.insert("state", new_state.as_str());
    response
}

fn shutdown(shared: &Shared) -> Value {
    shared.shutdown.store(true, Ordering::SeqCst);
    let mut st = lock_state(shared);
    // Queued jobs are cancelled, not silently dropped: their submitters
    // get a terminal event, and a restarted daemon re-running them will
    // resume from whatever prefix older jobs persisted.
    while let Some(ix) = st.queue.pop_front() {
        let job = &mut st.jobs[ix];
        job.cancel.store(true, Ordering::SeqCst);
        job.finish(JobState::Cancelled, None, Value::object());
    }
    sync_queue_depth(&st);
    let draining = st.running();
    drop(st);
    shared.job_cv.notify_all();
    shared.event_cv.notify_all();
    let mut response = ok_response();
    response.insert("draining", draining);
    // Machine-readable drain marker, mirroring the refusal vocabulary:
    // clients that poll `shutdown` idempotently can branch on it.
    response.insert("reason", "draining");
    response
}

/// The streaming verb: acknowledge, replay the job's event history, then
/// stream live events until the terminal `done`.
fn watch_job(writer: &mut TcpStream, shared: &Shared, id: &str) -> std::io::Result<()> {
    // Resolve the job index with the guard already released: the error
    // response goes to a client socket that may be arbitrarily slow, and
    // nothing written while holding `state` may block on a peer.
    let ix = {
        let st = lock_state(shared);
        st.jobs.iter().position(|j| j.id == id)
    };
    let Some(ix) = ix else {
        return send(
            writer,
            &refusal(&format!("unknown job '{id}'"), "unknown_job"),
        );
    };
    let mut acknowledged = ok_response();
    acknowledged.insert("job", id);
    acknowledged.insert("watching", true);
    send(writer, &acknowledged)?;
    let mut sent = 0;
    // Keepalive clock: a long scenario produces no events, and a silent
    // stream is indistinguishable from a hung daemon under the client's
    // idle timeout — so punctuate silence with `{"event": "ping"}` lines
    // (written outside the state lock, like every other socket write).
    let mut last_write = Instant::now();
    loop {
        let (batch, finished, ping) = {
            let mut st = lock_state(shared);
            loop {
                let job = &st.jobs[ix];
                if job.events.len() > sent {
                    let batch = job.events[sent..].to_vec();
                    sent = job.events.len();
                    break (batch, job.state.terminal(), false);
                }
                if job.state.terminal() {
                    break (Vec::new(), true, false);
                }
                if last_write.elapsed() >= WATCH_KEEPALIVE {
                    break (Vec::new(), false, true);
                }
                st = shared
                    .event_cv
                    .wait_timeout(st, IDLE_TICK)
                    // lint:allow(R3, reason = "poison means another thread already panicked mid-update; aborting beats serving torn state")
                    .expect("daemon state poisoned")
                    .0;
            }
        };
        if ping {
            send(writer, &with_job(ping_event(), id))?;
        }
        for event in &batch {
            send(writer, event)?;
        }
        last_write = Instant::now();
        if finished {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queued job that a worker has already dequeued can be cancelled by
    /// the client and then claimed by the worker: both finish it, and the
    /// second call must change nothing.
    #[test]
    fn a_job_finishes_once() {
        let latency = telemetry::duration_histogram!("daemon_job_seconds");
        let observed = latency.count();
        let mut job = Job {
            id: "job-1".into(),
            campaign: Campaign::new("c", Vec::new()),
            state: JobState::Queued,
            cancel: Arc::default(),
            events: Vec::new(),
            error: None,
            attempts: 0,
            worker_pids: vec![7],
            submitted: Instant::now(),
        };
        job.finish(JobState::Cancelled, None, Value::object());
        job.finish(JobState::Failed, Some("late".into()), Value::object());
        assert_eq!(job.state, JobState::Cancelled);
        assert_eq!(job.error, None);
        assert!(job.worker_pids.is_empty());
        assert_eq!(job.events.len(), 1);
        assert_eq!(
            job.events[0].get("state").and_then(Value::as_str),
            Some("cancelled")
        );
        assert_eq!(latency.count(), observed + 1);
    }
}
