//! Process-isolated job execution: supervised `campaign run` children.
//!
//! Under [`Isolation::Process`](crate::daemon::Isolation) a dequeued job
//! never runs in the daemon's address space. The supervisor spawns one
//! `campaign run` child per shard, each writing to a private per-job
//! store and streaming line-JSON events (`--events`) back over its
//! stdout pipe; the supervisor forwards scenario/warning events to
//! `watch` subscribers, enforces the per-job wall-clock deadline, and
//! classifies every child exit:
//!
//! | failure class                      | action                        |
//! |------------------------------------|-------------------------------|
//! | exit with final `report` line      | complete (Done/Failed by the  |
//! |   (any exit code)                  |   report's own accounting)    |
//! | exit without a report, or signal   | crash → retry with backoff    |
//! | deadline exceeded                  | kill, mark `timed_out`        |
//! | cancel / daemon shutdown           | kill, reap, mark `cancelled`  |
//! | retry budget exhausted             | mark `failed`, keep prefix    |
//!
//! Retries are bounded (`max_retries`) with exponential backoff and
//! deterministic jitter, and they are cheap: each attempt re-primes from
//! the daemon store *and* the child's own fsynced store prefix, so only
//! the unfinished suffix is recomputed. Whatever prefix exists — from a
//! completed job or a crashed one — is merged through
//! [`ResultStore::merge_from`] and batch-appended into the daemon store,
//! so a failed job is a *failed job with its partial results persisted*,
//! never a vanished one.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use scenarios::{effective_shards, ResultStore};
use serde_json::Value;

use crate::daemon::{begin_job, lock_state, JobState, ServeConfig, Shared, IDLE_TICK};
use crate::fault;
use crate::protocol::{retry_event, warning_event};

/// How many trailing stderr lines of a crashed child survive into its
/// crash description (and from there into events and `status` errors).
const STDERR_TAIL_LINES: usize = 12;

/// The per-job files a supervised job leaves beside the daemon store.
struct JobPaths {
    /// The campaign document handed to every child.
    campaign: String,
    /// Scratch store `merge_from` assembles the shard stores into.
    merged: String,
    /// One private store per shard child.
    shards: Vec<String>,
}

fn job_paths(store: &str, id: &str, shard_count: usize) -> JobPaths {
    let base = format!("{store}.{id}");
    JobPaths {
        campaign: format!("{base}.campaign.json"),
        merged: format!("{base}.merged.jsonl"),
        shards: (0..shard_count)
            .map(|shard| format!("{base}.shard{shard}.jsonl"))
            .collect(),
    }
}

/// Everything one shard's supervision loop needs, by reference.
#[derive(Clone, Copy)]
struct ShardCtx<'a> {
    shared: &'a Shared,
    ix: usize,
    id: &'a str,
    /// The job's cancel flag (ordering: `SeqCst` loads, matching the
    /// daemon's stores — cancellation is rare, so total ordering costs
    /// nothing and keeps the kill decision ordered with the state
    /// mutex's release on the cancelling thread).
    cancel: &'a AtomicBool,
    paths: &'a JobPaths,
    shard: usize,
    shard_count: usize,
    deadline: Option<Instant>,
}

impl ShardCtx<'_> {
    /// Whether the shard must stop now, and why: a cancelled job or a
    /// daemon shutdown means cancelled, a passed deadline means timed out.
    fn stop(&self) -> Option<Stop> {
        if self.cancel.load(Ordering::SeqCst) || self.shared.shutdown.load(Ordering::SeqCst) {
            Some(Stop::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(Stop::TimedOut)
        } else {
            None
        }
    }
}

/// Why a shard stopped before its worker finished.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stop {
    Cancelled,
    TimedOut,
}

/// Terminal outcome of one shard's supervision (after retries).
enum ShardEnd {
    /// The child printed its final `report` line — protocol-complete
    /// whatever the exit code (nonzero means scenario failures, which
    /// the report itself accounts for).
    Reported(Value),
    /// Crashes exhausted the retry budget, or spawning failed outright.
    Exhausted(String),
    Stopped(Stop),
}

/// Executes one dequeued job in supervised worker processes — the
/// [`Isolation::Process`](crate::daemon::Isolation) counterpart of the
/// daemon's in-process `run_job`.
pub(crate) fn run_job(shared: &Shared, ix: usize) {
    let Some((campaign, cancel, id)) = begin_job(shared, ix) else {
        return;
    };
    let started = Instant::now();
    let shard_count = effective_shards(shared.config.shards, campaign.scenarios.len());
    let paths = job_paths(&shared.config.store, &id, shard_count);
    // Scrub leftovers a previous daemon's identically-numbered job may
    // have kept (failed jobs keep their shard stores on purpose).
    remove_job_files(&paths, true);
    if let Err(e) = std::fs::write(&paths.campaign, campaign.to_json_string()) {
        let error = format!("writing {}: {e}", paths.campaign);
        finalize(shared, ix, JobState::Failed, Some(error), &[], 0.0);
        return;
    }
    let deadline = shared.config.deadline.map(|d| started + d);

    let ends: Vec<ShardEnd> = thread::scope(|scope| {
        let handles: Vec<_> = (0..shard_count)
            .map(|shard| {
                let ctx = ShardCtx {
                    shared,
                    ix,
                    id: &id,
                    cancel: &cancel,
                    paths: &paths,
                    shard,
                    shard_count,
                    deadline,
                };
                scope.spawn(move || supervise_shard(ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|_| ShardEnd::Exhausted("shard supervisor panicked".into()))
            })
            .collect()
    });

    // The most severe shard end wins; only an all-Reported job consults
    // the reports themselves.
    let mut state = JobState::Done;
    let mut errors: Vec<String> = Vec::new();
    let mut reports: Vec<Value> = Vec::new();
    for end in ends {
        match end {
            ShardEnd::Reported(report) => reports.push(report),
            ShardEnd::Exhausted(e) => {
                escalate(&mut state, JobState::Failed);
                errors.push(e);
            }
            ShardEnd::Stopped(Stop::Cancelled) => escalate(&mut state, JobState::Cancelled),
            ShardEnd::Stopped(Stop::TimedOut) => escalate(&mut state, JobState::TimedOut),
        }
    }
    if state == JobState::Done && sum_u64(&reports, "failed") > 0 {
        state = JobState::Failed;
    }

    // Persist whatever exists — a completed job's full result set or a
    // failed/killed job's fsynced prefix — into the daemon store.
    if let Err(e) = merge_job_stores(shared, ix, &paths) {
        escalate(&mut state, JobState::Failed);
        errors.push(e);
    }

    // Success leaves no per-job residue; anything else keeps the shard
    // stores (the job's partial prefix) for forensics and manual resume.
    remove_job_files(&paths, state == JobState::Done);

    let error = if errors.is_empty() {
        None
    } else {
        Some(errors.join("; "))
    };
    finalize(shared, ix, state, error, &reports, ms_since(started));
}

/// Raises `state` to `to` when `to` is more severe: a cancel outranks a
/// timeout outranks a failure outranks success.
fn escalate(state: &mut JobState, to: JobState) {
    let severity = |state: JobState| match state {
        JobState::Cancelled => 3,
        JobState::TimedOut => 2,
        JobState::Failed => 1,
        _ => 0,
    };
    if severity(to) > severity(*state) {
        *state = to;
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn sum_u64(reports: &[Value], key: &str) -> u64 {
    reports
        .iter()
        .filter_map(|r| r.get(key).and_then(Value::as_u64))
        .sum()
}

fn worker_exe(shared: &Shared) -> Result<std::path::PathBuf, String> {
    match &shared.config.worker_exe {
        Some(exe) => Ok(std::path::PathBuf::from(exe)),
        None => std::env::current_exe().map_err(|e| format!("resolving worker executable: {e}")),
    }
}

/// Removes a job's scratch files (campaign document, merged store, and —
/// when `including_shards` — the shard stores), plus their lock files.
fn remove_job_files(paths: &JobPaths, including_shards: bool) {
    remove_with_lock(&paths.campaign);
    remove_with_lock(&paths.merged);
    if including_shards {
        for shard in &paths.shards {
            remove_with_lock(shard);
        }
    }
}

fn remove_with_lock(path: &str) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{path}.lock"));
}

fn push_job_event(shared: &Shared, ix: usize, event: Value) {
    lock_state(shared).jobs[ix].push(event);
    shared.event_cv.notify_all();
}

/// One shard's supervision loop: spawn, drive, classify, retry.
fn supervise_shard(ctx: ShardCtx<'_>) -> ShardEnd {
    let store_path = &ctx.paths.shards[ctx.shard];
    let max_attempts = u64::from(ctx.shared.config.max_retries) + 1;
    let mut attempt: u64 = 0;
    loop {
        attempt += 1;
        let desc = match run_attempt(ctx, store_path, attempt) {
            Ok(end) => return end,
            Err(desc) => desc,
        };
        telemetry::static_counter!("daemon_worker_crashes_total").inc();
        if attempt >= max_attempts {
            return ShardEnd::Exhausted(format!(
                "worker crashed on all {max_attempts} attempt(s); last: {desc}"
            ));
        }
        // A SIGKILL mid-append leaves a partial trailing line in the
        // shard store; clear it so the retry appends onto a clean,
        // fully-terminated prefix.
        match ResultStore::open(store_path).drop_partial_tail() {
            Ok(None) => {}
            Ok(Some(warning)) => push_job_event(ctx.shared, ctx.ix, warning_event(&warning)),
            Err(e) => {
                let warning = format!("clearing {store_path} crash tail: {e}");
                push_job_event(ctx.shared, ctx.ix, warning_event(&warning));
            }
        }
        let backoff = backoff_delay(&ctx.shared.config, ctx.id, ctx.shard, attempt);
        telemetry::static_counter!("daemon_job_retries_total").inc();
        let retry = retry_event(ctx.shard, attempt + 1, backoff.as_millis() as u64, &desc);
        push_job_event(ctx.shared, ctx.ix, retry);
        if let Some(stop) = sleep_backoff(ctx, backoff) {
            return ShardEnd::Stopped(stop);
        }
    }
}

/// Spawns and drives one child attempt. `Err` describes a crash the
/// caller may retry; every `Ok` ends the shard.
fn run_attempt(ctx: ShardCtx<'_>, store_path: &str, attempt: u64) -> Result<ShardEnd, String> {
    let exe = match worker_exe(ctx.shared) {
        Ok(exe) => exe,
        Err(e) => return Ok(ShardEnd::Exhausted(e)),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .arg(&ctx.paths.campaign)
        .arg("--store")
        .arg(store_path)
        .arg("--events")
        .arg("--parallelism")
        .arg(ctx.shared.config.parallelism.to_string())
        // Two priming sources: the daemon store serves scenarios any
        // earlier job already persisted, and the child's own store
        // serves the prefix a crashed previous attempt fsynced — the
        // retry recomputes only the unfinished suffix.
        .arg("--prime")
        .arg(&ctx.shared.config.store)
        .arg("--prime")
        .arg(store_path);
    if ctx.shard_count > 1 {
        cmd.arg("--shard-index")
            .arg(ctx.shard.to_string())
            .arg("--shard-count")
            .arg(ctx.shard_count.to_string());
    }
    // The child's environment is deliberate, never inherited by
    // accident: the chaos plan (with the attempt number that lets it
    // expire) when configured, scrubbed when not.
    cmd.env_remove(fault::FAULT_ENV)
        .env_remove(fault::FAULT_ATTEMPT_ENV);
    if let Some(plan) = &ctx.shared.config.chaos {
        cmd.env(fault::FAULT_ENV, plan);
        cmd.env(fault::FAULT_ATTEMPT_ENV, attempt.to_string());
    }
    if ctx.shared.config.quick {
        cmd.env("BENCH_QUICK", "1");
    } else {
        cmd.env_remove("BENCH_QUICK");
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => return Ok(ShardEnd::Exhausted(format!("spawning worker: {e}"))),
    };
    let pid = child.id();
    {
        let mut st = lock_state(ctx.shared);
        let job = &mut st.jobs[ctx.ix];
        job.attempts += 1;
        job.worker_pids.push(pid);
    }
    let outcome = drive_child(ctx, &mut child);
    {
        let mut st = lock_state(ctx.shared);
        st.jobs[ctx.ix].worker_pids.retain(|&p| p != pid);
    }
    outcome
}

/// Kills `child` the first time its shard must stop, recording why. Only
/// a kill at the deadline counts in `daemon_job_timeouts_total`.
fn kill_if_stopped(ctx: ShardCtx<'_>, child: &mut Child, killed: &mut Option<Stop>) {
    if killed.is_some() {
        return;
    }
    *killed = ctx.stop();
    if let Some(stop) = *killed {
        let _ = child.kill();
        if stop == Stop::TimedOut {
            telemetry::static_counter!("daemon_job_timeouts_total").inc();
        }
    }
}

/// Streams a live child's events, enforces cancel/shutdown/deadline by
/// killing it, reaps it, and classifies the exit (`Err` is a crash).
fn drive_child(ctx: ShardCtx<'_>, child: &mut Child) -> Result<ShardEnd, String> {
    let stdout = child.stdout.take();
    let stderr = child.stderr.take();
    let stderr_tail: Mutex<VecDeque<String>> = Mutex::new(VecDeque::new());
    let mut report: Option<Value> = None;
    let mut garbage: u64 = 0;
    let mut killed: Option<Stop> = None;

    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<String>();
        if let Some(out) = stdout {
            scope.spawn(move || {
                for line in BufReader::new(out).lines() {
                    let Ok(line) = line else { break };
                    if line.trim().is_empty() {
                        continue;
                    }
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            });
        } else {
            drop(tx);
        }
        if let Some(err) = stderr {
            let tail = &stderr_tail;
            scope.spawn(move || {
                for line in BufReader::new(err).lines() {
                    let Ok(line) = line else { break };
                    let mut tail = match tail.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    if tail.len() >= STDERR_TAIL_LINES {
                        tail.pop_front();
                    }
                    tail.push_back(line);
                }
            });
        }
        // The supervision loop proper: it ends when the child's stdout
        // closes (exit, crash, or the kill we just issued).
        loop {
            match rx.recv_timeout(IDLE_TICK) {
                Ok(line) => match serde_json::from_str(&line) {
                    Ok(event) => match event.get("event").and_then(Value::as_str) {
                        Some("report") => report = Some(event),
                        Some("scenario") | Some("warning") => {
                            push_job_event(ctx.shared, ctx.ix, event);
                        }
                        _ => garbage += 1,
                    },
                    Err(_) => garbage += 1,
                },
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            kill_if_stopped(ctx, child, &mut killed);
        }
    });

    if garbage > 0 {
        telemetry::static_counter!("daemon_worker_garbage_lines_total").add(garbage);
        let warning = format!(
            "worker shard {} emitted {garbage} non-protocol line(s) on its event stream",
            ctx.shard
        );
        push_job_event(ctx.shared, ctx.ix, warning_event(&warning));
    }

    // Reap. A well-behaved child exits promptly once stdout is closed,
    // but never block unboundedly on one that doesn't: poll, and keep
    // enforcing cancel/shutdown/deadline while waiting.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                kill_if_stopped(ctx, child, &mut killed);
                thread::sleep(IDLE_TICK);
            }
            Err(e) => {
                let _ = child.kill();
                return Err(format!("waiting on worker: {e}"));
            }
        }
    };

    match (killed, report) {
        (Some(stop), _) => Ok(ShardEnd::Stopped(stop)),
        (None, Some(report)) => Ok(ShardEnd::Reported(report)),
        (None, None) => {
            let tail = match stderr_tail.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            Err(describe_exit(status, &tail))
        }
    }
}

fn describe_exit(status: ExitStatus, tail: &VecDeque<String>) -> String {
    let how = match (status.code(), status.signal()) {
        (Some(code), _) => format!("exited with code {code} before its final report"),
        (None, Some(signal)) => format!("killed by signal {signal}"),
        _ => "exited without a final report".to_string(),
    };
    if tail.is_empty() {
        how
    } else {
        let lines: Vec<&str> = tail.iter().map(String::as_str).collect();
        format!("{how}; stderr: {}", lines.join(" | "))
    }
}

/// Exponential backoff with deterministic jitter: `base · 2^(attempt−1)`
/// capped at `backoff_cap`, then scaled into `[50%, 100%]` by a
/// splitmix64 hash of `(job, shard, attempt)` — reproducible for tests,
/// decorrelated across shards so respawns don't stampede.
fn backoff_delay(config: &ServeConfig, id: &str, shard: usize, attempt: u64) -> Duration {
    let base_ms = (config.backoff_base.as_millis() as u64).max(1);
    let cap_ms = (config.backoff_cap.as_millis() as u64).max(base_ms);
    let exp_ms = base_ms
        .saturating_mul(1u64 << (attempt - 1).min(20))
        .min(cap_ms);
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.bytes() {
        seed = (seed ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    seed ^= (shard as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(attempt);
    let jitter = splitmix64(seed) >> 11; // 53 uniform bits
    let frac = 0.5 + 0.5 * (jitter as f64 / (1u64 << 53) as f64);
    Duration::from_millis((exp_ms as f64 * frac) as u64)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sleeps out a backoff in stop-aware ticks; `Some` if the shard must
/// stop instead of retrying.
fn sleep_backoff(ctx: ShardCtx<'_>, backoff: Duration) -> Option<Stop> {
    let until = Instant::now() + backoff;
    loop {
        if let Some(stop) = ctx.stop() {
            return Some(stop);
        }
        let now = Instant::now();
        if now >= until {
            return None;
        }
        thread::sleep((until - now).min(IDLE_TICK));
    }
}

/// Folds the job's shard stores into the daemon store: `merge_from`
/// reconstructs campaign order (and compacts), then the canonical
/// records land in the daemon store as one locked, fsynced batch.
/// Partial prefixes from failed jobs take exactly the same path.
fn merge_job_stores(shared: &Shared, ix: usize, paths: &JobPaths) -> Result<(), String> {
    let inputs: Vec<ResultStore> = paths
        .shards
        .iter()
        .filter(|p| std::path::Path::new(p.as_str()).exists())
        .map(ResultStore::open)
        .collect();
    if inputs.is_empty() {
        return Ok(());
    }
    let merged = ResultStore::open(&paths.merged);
    let summary = merged
        .merge_from(&inputs)
        .map_err(|e| format!("merging worker stores: {e}"))?;
    for message in summary.warnings.iter().chain(summary.conflicts.iter()) {
        push_job_event(shared, ix, warning_event(message));
    }
    let records = merged
        .load()
        .map_err(|e| format!("reading merged store {}: {e}", paths.merged))?;
    let raws: Vec<Value> = records.into_iter().map(|r| r.raw).collect();
    shared
        .store
        .append_records(&raws)
        .map_err(|e| format!("appending {} worker record(s): {e}", raws.len()))
}

/// Finishes the job with counters summed across the shard reports, then
/// wakes watchers.
fn finalize(
    shared: &Shared,
    ix: usize,
    state: JobState,
    error: Option<String>,
    reports: &[Value],
    wall_ms: f64,
) {
    let mut st = lock_state(shared);
    let job = &mut st.jobs[ix];
    let mut counters = Value::object();
    counters.insert("total", job.campaign.scenarios.len());
    for key in ["completed", "failed", "cache_served", "store_served"] {
        counters.insert(key, sum_u64(reports, key));
    }
    counters.insert("wall_ms", wall_ms);
    counters.insert("attempts", job.attempts);
    job.finish(state, error, counters);
    drop(st);
    shared.event_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_is_capped_and_deterministic() {
        let config = ServeConfig {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(800),
            ..ServeConfig::default()
        };
        let d1 = backoff_delay(&config, "job-1", 0, 1);
        let d2 = backoff_delay(&config, "job-1", 0, 2);
        let d9 = backoff_delay(&config, "job-1", 0, 9);
        // Jitter keeps each delay in [50%, 100%] of its exponential step.
        assert!(d1 >= Duration::from_millis(50) && d1 <= Duration::from_millis(100));
        assert!(d2 >= Duration::from_millis(100) && d2 <= Duration::from_millis(200));
        assert!(d9 <= Duration::from_millis(800), "cap must hold: {d9:?}");
        // Deterministic: same (job, shard, attempt) → same delay.
        assert_eq!(d1, backoff_delay(&config, "job-1", 0, 1));
        // Decorrelated across shards (with these inputs, observably so).
        assert_ne!(
            backoff_delay(&config, "job-1", 0, 1),
            backoff_delay(&config, "job-1", 1, 1),
        );
    }

    #[test]
    fn exit_descriptions_name_code_signal_and_stderr() {
        let mut tail = VecDeque::new();
        let clean: ExitStatus = ExitStatusExt::from_raw(0x0100); // exit 1
        assert_eq!(
            describe_exit(clean, &tail),
            "exited with code 1 before its final report"
        );
        let signalled: ExitStatus = ExitStatusExt::from_raw(9); // SIGKILL
        assert_eq!(describe_exit(signalled, &tail), "killed by signal 9");
        tail.push_back("thread 'main' panicked".to_string());
        assert!(describe_exit(signalled, &tail).contains("stderr: thread 'main' panicked"));
    }

    #[test]
    fn job_paths_are_per_job_and_per_shard() {
        let paths = job_paths("store.jsonl", "job-7", 2);
        assert_eq!(paths.campaign, "store.jsonl.job-7.campaign.json");
        assert_eq!(paths.merged, "store.jsonl.job-7.merged.jsonl");
        assert_eq!(
            paths.shards,
            vec![
                "store.jsonl.job-7.shard0.jsonl".to_string(),
                "store.jsonl.job-7.shard1.jsonl".to_string(),
            ]
        );
    }
}
