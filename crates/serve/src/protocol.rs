//! The campaign service's wire protocol.
//!
//! One JSON object per `\n`-terminated line, in both directions — the
//! same grammar as the result store, so the whole system stays greppable
//! with standard line tools.
//!
//! **Requests** carry a `"cmd"` field:
//!
//! ```text
//! {"cmd": "ping"}
//! {"cmd": "submit", "campaign": {…campaign.json document…}}
//! {"cmd": "status"}                 — all jobs
//! {"cmd": "status", "job": "job-1"} — one job
//! {"cmd": "watch",  "job": "job-1"}
//! {"cmd": "cancel", "job": "job-1"}
//! {"cmd": "metrics"}                — telemetry snapshot (Prometheus text)
//! {"cmd": "shutdown"}
//! ```
//!
//! **Responses** are exactly one line per request: `{"ok": true, …}` on
//! success, `{"ok": false, "error": "…"}` on refusal. `watch` is the one
//! streaming verb: after its `{"ok": true}` acknowledgement the daemon
//! replays the job's full event history and then streams live events
//! until the terminal `"done"` event, after which the connection is ready
//! for the next request.
//!
//! **Events** are built only by this module's `*_event` functions, so a
//! job's events have one shape whether it runs in-process or in
//! supervised worker processes. Every event the daemon records carries
//! its job as the second key:
//!
//! ```text
//! {"event": "state",    "job", "state", "total"}
//! {"event": "scenario", "job", "name", "index", "total", "ok": true,
//!                       "from_cache", "from_store", "best_objective", "wall_ms"}
//! {"event": "scenario", "job", "name", "index", "total", "ok": false, "error"}
//! {"event": "warning",  "job", "message"}
//! {"event": "retry",    "job", "shard", "attempt", "backoff_ms", "error"}
//! {"event": "done",     "job", "state", …counters…, ["error"]}
//! {"event": "ping",     "job"}  — watch keepalive, never recorded
//! ```
//!
//! A `done` event's counters are the [`report_event`] fields after
//! `"event"` for an in-process job, and `total`, `completed`, `failed`,
//! `cache_served`, `store_served`, `wall_ms` and `attempts` for a
//! process-isolated one. A job cancelled before it ran has none, and an
//! in-process run that fails outright has only `error`. A
//! `campaign run --events` worker writes `scenario` and `warning` events
//! without the `job` key (the supervisor stamps it when forwarding), then
//! one terminal `report` line:
//!
//! ```text
//! {"event": "report", "total", "completed", "failed", "cache_served",
//!                     "store_served", "skipped", "cancelled", "wall_ms",
//!                     "shard_wall_ms"}
//! ```

use scenarios::{CampaignReport, ScenarioRun};
use serde_json::Value;

use crate::JobState;

/// Where the daemon listens (and clients connect) unless told otherwise.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4850";

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe; also returns queue depth.
    Ping,
    /// Enqueue a campaign (the `campaign.json` document, inline).
    Submit {
        /// The campaign document, unparsed.
        campaign: Value,
    },
    /// Report one job (by ID) or every job the daemon knows.
    Status {
        /// Job ID, or `None` for the full listing.
        job: Option<String>,
    },
    /// Subscribe to a job's event stream until it terminates.
    Watch {
        /// Job ID.
        job: String,
    },
    /// Cancel a queued job outright, or ask a running one to stop at the
    /// next scenario boundary.
    Cancel {
        /// Job ID.
        job: String,
    },
    /// Snapshot every process-wide telemetry metric; the response carries
    /// the Prometheus text exposition in its `"metrics"` field.
    Metrics,
    /// Stop accepting work, cancel the queue, drain running jobs, exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (sent back as the `"error"`
    /// field) for malformed JSON, a missing/unknown `"cmd"`, or missing
    /// operands.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value: Value =
            serde_json::from_str(line.trim()).map_err(|e| format!("bad request JSON: {e}"))?;
        let cmd = value
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| "request is missing 'cmd'".to_string())?;
        let job = |value: &Value| -> Result<String, String> {
            value
                .get("job")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("'{cmd}' needs a 'job' id"))
        };
        match cmd {
            "ping" => Ok(Request::Ping),
            "submit" => Ok(Request::Submit {
                campaign: value
                    .get("campaign")
                    .cloned()
                    .ok_or_else(|| "'submit' needs a 'campaign' document".to_string())?,
            }),
            "status" => Ok(Request::Status {
                job: value.get("job").and_then(Value::as_str).map(str::to_string),
            }),
            "watch" => Ok(Request::Watch { job: job(&value)? }),
            "cancel" => Ok(Request::Cancel { job: job(&value)? }),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd '{other}'")),
        }
    }

    /// Serializes the request to its wire form (without the newline).
    pub fn to_value(&self) -> Value {
        let mut value = Value::object();
        match self {
            Request::Ping => {
                value.insert("cmd", "ping");
            }
            Request::Submit { campaign } => {
                value.insert("cmd", "submit");
                value.insert("campaign", campaign.clone());
            }
            Request::Status { job } => {
                value.insert("cmd", "status");
                if let Some(job) = job {
                    value.insert("job", job.as_str());
                }
            }
            Request::Watch { job } => {
                value.insert("cmd", "watch");
                value.insert("job", job.as_str());
            }
            Request::Cancel { job } => {
                value.insert("cmd", "cancel");
                value.insert("job", job.as_str());
            }
            Request::Metrics => {
                value.insert("cmd", "metrics");
            }
            Request::Shutdown => {
                value.insert("cmd", "shutdown");
            }
        }
        value
    }
}

/// A fresh `{"ok": true}` response to extend with fields.
pub fn ok_response() -> Value {
    let mut value = Value::object();
    value.insert("ok", true);
    value
}

/// A complete `{"ok": false, "error": …}` refusal.
pub fn err_response(message: &str) -> Value {
    let mut value = Value::object();
    value.insert("ok", false);
    value.insert("error", message);
    value
}

/// A refusal carrying a machine-readable `reason` code (`"queue_full"`,
/// `"draining"`, `"unknown_job"`, `"invalid_campaign"`, `"bad_request"`)
/// alongside the human-readable `error` — clients branch on the code,
/// humans read the message. Older clients that only know `ok`/`error`
/// ignore the extra field (see the backward-compat tests below).
pub fn refusal(message: &str, reason: &str) -> Value {
    let mut value = err_response(message);
    value.insert("reason", reason);
    value
}

/// A [`refusal`] with a back-pressure hint: the daemon's estimate (from
/// queue depth and recent job latency) of how long the client should
/// wait before retrying — the line protocol's 429-plus-`Retry-After`.
pub fn backoff_refusal(message: &str, reason: &str, retry_after_ms: u64) -> Value {
    let mut value = refusal(message, reason);
    value.insert("retry_after_ms", retry_after_ms);
    value
}

/// A fresh `{"event": kind}` to extend with fields.
fn event(kind: &str) -> Value {
    let mut value = Value::object();
    value.insert("event", kind);
    value
}

/// Appends the fields of the object `fields` to `value`, in order.
fn extend(value: &mut Value, fields: Value) {
    if let Value::Object(entries) = fields {
        for (key, field) in entries {
            value.insert(key, field);
        }
    }
}

/// Stamps `job` onto an event as its second key, right after `"event"`.
pub(crate) fn with_job(mut event: Value, job: &str) -> Value {
    if let Value::Object(entries) = &mut event {
        entries.retain(|(key, _)| key != "job");
        entries.insert(entries.len().min(1), ("job".into(), job.into()));
    }
    event
}

/// A job entered `state`; `total` is its scenario count.
pub fn state_event(state: JobState, total: usize) -> Value {
    let mut value = event("state");
    value.insert("state", state.as_str());
    value.insert("total", total);
    value
}

/// One finished scenario: its outcome's provenance, objective and wall
/// time, or its error.
pub fn scenario_event(run: &ScenarioRun) -> Value {
    let mut value = event("scenario");
    value.insert("name", run.name.as_str());
    value.insert("index", run.index);
    value.insert("total", run.total);
    match &run.result {
        Ok(outcome) => {
            value.insert("ok", true);
            value.insert("from_cache", outcome.from_cache);
            value.insert("from_store", outcome.from_store);
            value.insert("best_objective", outcome.report.best_objective);
            value.insert("wall_ms", outcome.wall_ms);
        }
        Err(e) => {
            value.insert("ok", false);
            value.insert("error", e.to_string());
        }
    }
    value
}

/// A non-fatal diagnostic (a dropped crash tail, a merge conflict, …).
pub fn warning_event(message: &str) -> Value {
    let mut value = event("warning");
    value.insert("message", message);
    value
}

/// A crashed worker `shard` is respawned as `attempt` after `backoff_ms`.
pub fn retry_event(shard: usize, attempt: u64, backoff_ms: u64, error: &str) -> Value {
    let mut value = event("retry");
    value.insert("shard", shard);
    value.insert("attempt", attempt);
    value.insert("backoff_ms", backoff_ms);
    value.insert("error", error);
    value
}

/// A job's terminal event: its final `state`, then the fields of the
/// `counters` object, then the job's error, if any.
pub fn done_event(state: JobState, counters: Value, error: Option<&str>) -> Value {
    let mut value = event("done");
    value.insert("state", state.as_str());
    extend(&mut value, counters);
    if let Some(error) = error {
        value.insert("error", error);
    }
    value
}

/// A campaign report's accounting as an object: the counters of an
/// in-process job's `done` event and of a worker's `report` line.
pub(crate) fn report_counters(report: &CampaignReport) -> Value {
    let mut value = Value::object();
    value.insert("total", report.total);
    value.insert("completed", report.completed);
    value.insert("failed", report.failed);
    value.insert("cache_served", report.cache_served);
    value.insert("store_served", report.store_served);
    value.insert("skipped", report.skipped);
    value.insert("cancelled", report.cancelled);
    value.insert("wall_ms", report.wall_ms);
    value.insert(
        "shard_wall_ms",
        Value::Array(report.shard_wall_ms.iter().map(|&ms| ms.into()).collect()),
    );
    value
}

/// A `campaign run --events` worker's last line. Its presence is the
/// supervisor's completion marker: it tells "finished, with or without
/// scenario failures" from "crashed mid-campaign".
pub fn report_event(report: &CampaignReport) -> Value {
    let mut value = event("report");
    extend(&mut value, report_counters(report));
    value
}

/// The `watch` keepalive a silent stream sends every couple of seconds.
pub fn ping_event() -> Value {
    event("ping")
}

/// Writes `value` as one `\n`-terminated line.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_line(writer: &mut impl std::io::Write, value: &Value) -> std::io::Result<()> {
    let mut text = serde_json::to_string(value);
    text.push('\n');
    writer.write_all(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use scenarios::{Campaign, CampaignError, CampaignRunner, Scenario, TaskKind};

    use super::*;

    fn keys(event: &Value) -> Vec<&str> {
        match event {
            Value::Object(entries) => entries.iter().map(|(key, _)| key.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Pins every builder's key set, in order, as the daemon records it
    /// (`job` second) — so the in-process and the process-isolated paths,
    /// which both build through here, cannot drift apart again.
    #[test]
    fn event_builders_pin_their_key_sets() {
        let job = |event: Value| with_job(event, "job-1");
        let scenario = Scenario::new("drift", vec!["lognormal:0.4".parse().unwrap()])
            .seed(1)
            .budgets(2, 2, 1, 1)
            .task(TaskKind::Moons {
                samples: 80,
                noise: 0.1,
            });
        let campaign = Campaign::new("c", vec![scenario]);
        let report = CampaignRunner::new()
            .run_campaign_report_with(&campaign, None, Default::default())
            .unwrap();
        let failed = ScenarioRun {
            name: "bad".into(),
            index: 0,
            total: 1,
            result: Err(CampaignError::Parse("no".into())),
        };
        let counters = [
            "total",
            "completed",
            "failed",
            "cache_served",
            "store_served",
            "skipped",
            "cancelled",
            "wall_ms",
            "shard_wall_ms",
        ];

        assert_eq!(
            keys(&job(state_event(JobState::Running, 1))),
            ["event", "job", "state", "total"]
        );
        assert_eq!(
            keys(&job(scenario_event(&report.runs[0]))),
            [
                "event",
                "job",
                "name",
                "index",
                "total",
                "ok",
                "from_cache",
                "from_store",
                "best_objective",
                "wall_ms"
            ]
        );
        assert_eq!(
            keys(&job(scenario_event(&failed))),
            ["event", "job", "name", "index", "total", "ok", "error"]
        );
        assert_eq!(keys(&job(warning_event("w"))), ["event", "job", "message"]);
        assert_eq!(
            keys(&job(retry_event(0, 2, 100, "crashed"))),
            ["event", "job", "shard", "attempt", "backoff_ms", "error"]
        );
        let done = job(done_event(JobState::Done, report_counters(&report), None));
        assert_eq!(keys(&done)[..3], ["event", "job", "state"]);
        assert_eq!(keys(&done)[3..], counters);
        let failed_done = job(done_event(JobState::Failed, Value::object(), Some("e")));
        assert_eq!(keys(&failed_done), ["event", "job", "state", "error"]);
        assert_eq!(keys(&job(ping_event())), ["event", "job"]);
        // The worker's lines: no `job` until the supervisor forwards them.
        let line = report_event(&report);
        assert_eq!(keys(&line)[..1], ["event"]);
        assert_eq!(keys(&line)[1..], counters);
        // Stamping replaces a stale `job` rather than adding a second one.
        let restamped = with_job(job(warning_event("w")), "job-2");
        assert_eq!(keys(&restamped), ["event", "job", "message"]);
        assert_eq!(restamped.get("job").and_then(Value::as_str), Some("job-2"));
    }

    /// The forward-compat contract both sides rely on: a peer speaking a
    /// *newer* protocol may attach fields this side has never heard of,
    /// and parsing must ignore them rather than refuse the request.
    /// `reason`/`retry_after_ms` shipped exactly this way.
    #[test]
    fn requests_tolerate_unknown_fields() {
        assert!(matches!(
            Request::parse(r#"{"cmd": "ping", "future_field": 1, "nested": {"x": []}}"#),
            Ok(Request::Ping)
        ));
        let parsed = Request::parse(
            r#"{"cmd": "submit", "campaign": {"name": "c", "scenarios": []}, "priority": "high"}"#,
        );
        assert!(matches!(parsed, Ok(Request::Submit { .. })));
        assert!(matches!(
            Request::parse(r#"{"cmd": "cancel", "job": "job-1", "force": true}"#),
            Ok(Request::Cancel { job }) if job == "job-1"
        ));
    }

    /// The response side of the same contract: a client that only knows
    /// `ok`/`error` reads a `backoff_refusal` exactly as it read the old
    /// bare refusal, while a hint-aware client finds the new fields.
    #[test]
    fn refusals_stay_readable_by_hint_unaware_clients() {
        let refusal = backoff_refusal("queue full (4 queued, capacity 4)", "queue_full", 1500);
        let line = serde_json::to_string(&refusal);
        let reparsed: Value = serde_json::from_str(&line).expect("refusal line parses");
        assert_eq!(reparsed.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            reparsed.get("error").and_then(Value::as_str),
            Some("queue full (4 queued, capacity 4)")
        );
        assert_eq!(
            reparsed.get("reason").and_then(Value::as_str),
            Some("queue_full")
        );
        assert_eq!(
            reparsed.get("retry_after_ms").and_then(Value::as_u64),
            Some(1500)
        );
    }
}
