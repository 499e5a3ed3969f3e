//! `campaign` — run, serve, inspect, audit, merge, and compact
//! declarative fault campaigns.
//!
//! ```text
//! campaign run <campaign.json> [--store <path>] [--shards <n>]
//!              [--resume <path>] [--parallelism <n>]
//!              [--shard-index <i> --shard-count <n>]
//!              [--trace <file>] [--progress]
//! campaign merge <out> <in...>
//! campaign serve [--listen <addr>] [--store <path>] [--workers <n>]
//!                [--shards <n>] [--parallelism <n>] [--queue <n>]
//! campaign submit <campaign.json> [--addr <addr>] [--watch]
//! campaign status [<job>] [--addr <addr>]
//! campaign watch <job> [--addr <addr>]
//! campaign cancel <job> [--addr <addr>]
//! campaign metrics [--addr <addr>]
//! campaign shutdown [--addr <addr>]
//! campaign list [--store <path>]
//! campaign compare [--store <path>]
//! campaign compact [--store <path>]
//! ```
//!
//! `run` executes every scenario of the file through the BayesFT engine —
//! across `--shards` work-stealing shards, bit-identically to the serial
//! path — and appends one JSONL record per scenario to the store, in
//! campaign order. `--shard-index i --shard-count n` restricts the
//! process to scenarios with `index % n == i` so N independent processes
//! partition one campaign into N stores; `merge` unions such stores back
//! into one, byte-identical (after compaction) to a serial run, and exits
//! non-zero if inputs hold conflicting results for the same
//! `(digest, seed)`. `--resume <path>` replays scenarios already
//! persisted in that store instead of recomputing them. `BENCH_QUICK=1`
//! clamps every scenario to smoke-test budgets.
//!
//! `run --progress` prints one line per finished scenario as it lands
//! (completion order, before the summary table); `run --trace <file>`
//! records every span — per-scenario, engine stages, GP fit/acquisition —
//! as a Chrome-trace-event JSON array loadable in `chrome://tracing` or
//! Perfetto.
//!
//! `serve` runs the campaign service daemon; `submit`/`status`/`watch`/
//! `cancel`/`metrics`/`shutdown` are its client verbs (line-delimited
//! JSON over TCP, `--addr` defaulting to `127.0.0.1:4850`). `metrics`
//! prints the daemon's telemetry snapshot in Prometheus text exposition
//! format.
//!
//! `list` prints the stored records; `compare` groups them by
//! `(scenario-digest, seed)` and verifies that repeated runs reproduced
//! bit-identical best-α vectors, exiting non-zero on any divergence;
//! `compact` atomically rewrites the store into its canonical
//! deduplicated form (byte-identical across shard counts and resumes).

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use scenarios::{Campaign, CampaignRunner, ResultStore, RunControl, ScenarioRun};
use serde_json::Value;
use serve::fault::{FaultInjector, FaultMode};
use serve::protocol::{report_event, scenario_event, warning_event, DEFAULT_ADDR};
use serve::{Client, Daemon, Isolation, ServeConfig};

const DEFAULT_STORE: &str = "campaign_results.jsonl";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args[1..]),
        "merge" => cmd_merge(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "submit" => cmd_submit(&args[1..]),
        "status" => cmd_status(&args[1..]),
        "watch" => cmd_watch(&args[1..]),
        "cancel" => cmd_cancel(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "shutdown" => cmd_shutdown(&args[1..]),
        "list" => cmd_list(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "compact" => cmd_compact(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("campaign: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  campaign run <campaign.json> [--store <path>] [--shards <n>]
               [--resume <path>] [--prime <path>]... [--parallelism <n>]
               [--shard-index <i> --shard-count <n>]
               [--trace <file>] [--progress] [--events]
  campaign merge <out> <in...>
  campaign serve [--listen <addr>] [--store <path>] [--workers <n>]
                 [--shards <n>] [--parallelism <n>] [--queue <n>]
                 [--isolation thread|process] [--deadline <secs>]
                 [--retries <n>] [--backoff-ms <n>]
  campaign submit <campaign.json> [--addr <addr>] [--watch]
  campaign status [<job>] [--addr <addr>]
  campaign watch <job> [--addr <addr>]
  campaign cancel <job> [--addr <addr>]
  campaign metrics [--addr <addr>]
  campaign shutdown [--addr <addr>]
  campaign list [--store <path>]
  campaign compare [--store <path>]
  campaign compact [--store <path>]

--shards n       run scenarios over n work-stealing shards (0 = one per
                 core); results are bit-identical to the serial path
--shard-index i  with --shard-count n: own only scenarios where
                 index % n == i, so n processes partition one campaign;
                 'merge' unions their stores byte-identically
--resume path    serve scenarios already persisted in this store instead
                 of recomputing them (implies --store path)
--prime path     like --resume, but from any store (repeatable) and
                 without binding --store; how a supervised retry replays
                 the crashed attempt's fsynced prefix
--trace file     record telemetry spans as a Chrome trace-event JSON
                 array (load in chrome://tracing or Perfetto)
--progress       print one line per finished scenario, as it lands
--events         machine mode: stream line-JSON scenario/warning events
                 and a final report line on stdout instead of the human
                 output ('campaign serve --isolation process' workers
                 run this way)
--isolation m    'thread' (default) runs daemon jobs in-process;
                 'process' runs each job in supervised 'campaign run'
                 child processes with deadline/retry/backoff
--deadline s     kill a supervised job after s seconds wall clock
--retries n      crashed-worker retries before the job fails (default 2)
--backoff-ms n   base retry backoff, doubled per attempt with jitter
--addr a         daemon address for the client verbs (127.0.0.1:4850)
BENCH_QUICK=1    clamps run budgets to smoke-test scale
SERVE_FAULT=p    chaos plan for workers: crash_after:<n>, hang_after:<n>,
                 or garbage_after:<n>, optionally @<attempts>";

/// `(--flag, value)` pairs plus the remaining positional arguments.
type ParsedArgs = (Vec<(String, String)>, Vec<String>);

/// Pulls `--flag value` (and valueless `--flag` for names in `switches`)
/// out of an argument list, returning the remaining positionals.
fn parse_flags(args: &[String], flags: &[&str], switches: &[&str]) -> Result<ParsedArgs, String> {
    let mut values = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(name) = arg.strip_prefix("--") {
            if switches.contains(&name) {
                values.push((name.to_string(), "true".to_string()));
                i += 1;
            } else if flags.contains(&name) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("'--{name}' needs a value"))?;
                values.push((name.to_string(), value.clone()));
                i += 2;
            } else {
                return Err(format!("unknown flag '--{name}'"));
            }
        } else {
            positional.push(arg.clone());
            i += 1;
        }
    }
    Ok((values, positional))
}

fn flag<'a>(values: &'a [(String, String)], name: &str) -> Option<&'a str> {
    values
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn count_flag(values: &[(String, String)], name: &str) -> Result<Option<usize>, String> {
    match flag(values, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("'--{name} {v}' is not a number")),
    }
}

fn quick_from_env() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn load_campaign(path: &str) -> Result<Campaign, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Campaign::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(
        args,
        &[
            "store",
            "parallelism",
            "shards",
            "resume",
            "prime",
            "shard-index",
            "shard-count",
            "trace",
        ],
        &["progress", "events"],
    )?;
    let [path] = positional.as_slice() else {
        return Err(format!("'run' takes exactly one campaign file\n{USAGE}"));
    };
    let campaign = load_campaign(path)?;
    let parallelism = count_flag(&flags, "parallelism")?.unwrap_or(1);
    let shards = count_flag(&flags, "shards")?.unwrap_or(1);
    let shard_index = count_flag(&flags, "shard-index")?;
    let shard_count = count_flag(&flags, "shard-count")?;
    let shard_slice = match (shard_index, shard_count) {
        (None, None) => None,
        (Some(index), Some(count)) => Some((index, count)),
        _ => return Err("'--shard-index' and '--shard-count' go together".into()),
    };
    let resume_path = flag(&flags, "resume").map(str::to_string);
    let prime_paths: Vec<String> = flags
        .iter()
        .filter(|(name, _)| name == "prime")
        .map(|(_, value)| value.clone())
        .collect();
    let store_path = flag(&flags, "store")
        .map(str::to_string)
        .or_else(|| resume_path.clone())
        .or_else(|| campaign.store.clone())
        .unwrap_or_else(|| DEFAULT_STORE.to_string());
    if let Some(resume) = &resume_path {
        if *resume != store_path {
            return Err(format!(
                "'--resume {resume}' conflicts with '--store {store_path}': \
                 a resumed campaign continues the store it resumes from"
            ));
        }
    }
    let store = ResultStore::open(&store_path);
    let quick = quick_from_env();
    let trace_path = flag(&flags, "trace").map(str::to_string);
    if let Some(trace) = &trace_path {
        telemetry::install_trace(std::path::Path::new(trace))
            .map_err(|e| format!("cannot open trace file {trace}: {e}"))?;
    }
    let progress = flag(&flags, "progress").is_some();
    let events = flag(&flags, "events").is_some();
    // The env-gated chaos plan: a supervised worker acting out its
    // fault plan, or `Ok(None)` for every normal invocation.
    let injector = FaultInjector::from_env()?;

    if !events {
        println!(
            "campaign '{}': {} scenario(s), {} shard(s){}{}{} -> {}",
            campaign.name,
            campaign.scenarios.len(),
            if shards == 0 {
                "per-core".to_string()
            } else {
                shards.to_string()
            },
            if quick { " [quick budgets]" } else { "" },
            if resume_path.is_some() {
                " [resuming]"
            } else {
                ""
            },
            shard_slice
                .map(|(i, n)| format!(" [process shard {i}/{n}]"))
                .unwrap_or_default(),
            store_path,
        );
    }
    let mut runner = CampaignRunner::new()
        .parallelism(parallelism)
        .shards(shards)
        .quick(quick);
    if let Some((index, count)) = shard_slice {
        runner = runner.shard_of(index, count).map_err(|e| e.to_string())?;
    }
    if resume_path.is_some() {
        runner = runner.resume_from(&store).map_err(|e| e.to_string())?;
        if !events {
            println!(
                "resume: {} replayable record(s) in {store_path}",
                runner.resumable_runs()
            );
        }
    }
    for prime in &prime_paths {
        runner = runner
            .resume_from(&ResultStore::open(prime))
            .map_err(|e| format!("priming from {prime}: {e}"))?;
    }
    // Completion-order progress lines via the same observer hook the
    // daemon streams to `watch` subscribers; under `--events` the same
    // hook emits machine-readable lines (and acts out the chaos plan).
    let observer = |run: &ScenarioRun| {
        if events {
            emit_event(&scenario_event(run));
        } else if progress {
            print_progress_line(run);
        }
        if let Some(injector) = &injector {
            if let Some(mode) = injector.on_scenario() {
                act_on_fault(mode, events);
            }
        }
    };
    let ctl = RunControl {
        cancel: None,
        observer: (events || progress || injector.is_some())
            .then_some(&observer as &(dyn Fn(&ScenarioRun) + Sync)),
    };
    let report = runner
        .run_campaign_report_with(&campaign, Some(&store), ctl)
        .map_err(|e| e.to_string())?;
    if trace_path.is_some() {
        telemetry::finish_trace().map_err(|e| format!("finishing trace: {e}"))?;
    }
    if events {
        for warning in &report.warnings {
            emit_event(&warning_event(warning));
        }
        emit_event(&report_event(&report));
        return Ok(if report.failed > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    for warning in &report.warnings {
        eprintln!("warning: {warning}");
    }
    println!(
        "{:<18} {:<16} {:>9} {:>9} {:>24}",
        "scenario", "digest", "best obj", "wall ms", "faults"
    );
    for run in &report.runs {
        match &run.result {
            Err(e) => eprintln!("  {:<18} FAILED: {e}", run.name),
            Ok(outcome) => {
                let faults: Vec<String> = outcome
                    .scenario
                    .faults
                    .iter()
                    .map(ToString::to_string)
                    .collect();
                let served = if outcome.from_store {
                    "+" // replayed from the resume store
                } else if outcome.from_cache {
                    "*" // served by the in-process memo cache
                } else {
                    " "
                };
                println!(
                    "{:<18} {:<16} {:>9.4} {:>9.0}{} {:>24}",
                    outcome.scenario.name,
                    outcome.digest,
                    outcome.report.best_objective,
                    outcome.compute_wall_ms,
                    served,
                    faults.join(" "),
                );
                println!("{:<18} best alpha = {:?}", "", outcome.report.best_alpha);
            }
        }
    }
    let shard_walls: Vec<String> = report
        .shard_wall_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| format!("shard{i} {ms:.0}ms"))
        .collect();
    println!(
        "progress: {}/{} completed ({} cache-served, {} store-served, {} failed{}) in {:.0} ms [{}]",
        report.completed,
        report.total,
        report.cache_served,
        report.store_served,
        report.failed,
        if report.skipped > 0 {
            format!(", {} owned by sibling shards", report.skipped)
        } else {
            String::new()
        },
        report.wall_ms,
        shard_walls.join(", "),
    );
    if let Some(trace) = &trace_path {
        println!("trace: {trace} (load in chrome://tracing or Perfetto)");
    }
    if report.failed > 0 {
        eprintln!("{} scenario(s) failed", report.failed);
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes one event line, flushed immediately: the reader is a pipe (the
/// daemon's supervisor), and a buffered line would arrive only at exit —
/// or never, if the chaos plan aborts the process first.
fn emit_event(event: &Value) {
    let mut line = serde_json::to_string(event);
    line.push('\n');
    // One write_all per line: stdout's own lock makes it atomic across
    // shard threads without holding a guard over the I/O.
    let mut out = std::io::stdout();
    let _ = out.write_all(line.as_bytes());
    let _ = out.flush();
}

fn print_progress_line(run: &ScenarioRun) {
    match &run.result {
        Ok(outcome) => {
            let served = if outcome.from_store {
                " [store]"
            } else if outcome.from_cache {
                " [cache]"
            } else {
                ""
            };
            println!(
                "[{}/{}] {}: best obj {:.4} in {:.0} ms{}",
                run.index + 1,
                run.total,
                run.name,
                outcome.report.best_objective,
                outcome.compute_wall_ms,
                served,
            );
        }
        Err(e) => println!(
            "[{}/{}] {}: FAILED: {e}",
            run.index + 1,
            run.total,
            run.name
        ),
    }
}

/// Acts out a fired fault plan. `Crash` and `Hang` never return.
fn act_on_fault(mode: FaultMode, events: bool) {
    match mode {
        FaultMode::Crash => {
            eprintln!("chaos: SERVE_FAULT aborting the worker");
            std::process::abort();
        }
        FaultMode::Hang => {
            eprintln!("chaos: SERVE_FAULT hanging the worker");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        FaultMode::Garbage => {
            // One non-JSON line and one well-formed-but-unknown event
            // (a single write keeps them contiguous): the supervisor
            // must shrug off both kinds.
            if events {
                let mut out = std::io::stdout();
                let _ = out.write_all(
                    b"%%% chaos garbage, not protocol %%%\n\
                      {\"event\": \"chaos_noise\", \"bogus\": true}\n",
                );
                let _ = out.flush();
            }
        }
    }
}

fn cmd_merge(args: &[String]) -> Result<ExitCode, String> {
    let (_, positional) = parse_flags(args, &[], &[])?;
    let [out, inputs @ ..] = positional.as_slice() else {
        return Err(format!("'merge' takes an output store and inputs\n{USAGE}"));
    };
    if inputs.is_empty() {
        return Err(format!("'merge' needs at least one input store\n{USAGE}"));
    }
    let stores: Vec<ResultStore> = inputs.iter().map(ResultStore::open).collect();
    let summary = ResultStore::open(out)
        .merge_from(&stores)
        .map_err(|e| e.to_string())?;
    for warning in &summary.warnings {
        eprintln!("warning: {warning}");
    }
    println!(
        "merged {} input store(s), {} record(s) -> {out}: {} kept, {} duplicate(s) folded",
        summary.inputs, summary.records, summary.kept, summary.dropped_duplicates,
    );
    if !summary.conflicts.is_empty() {
        for conflict in &summary.conflicts {
            eprintln!("conflict: {conflict}");
        }
        eprintln!(
            "{} (digest, seed) group(s) had conflicting payloads across inputs",
            summary.conflicts.len(),
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(
        args,
        &[
            "listen",
            "store",
            "workers",
            "shards",
            "parallelism",
            "queue",
            "isolation",
            "deadline",
            "retries",
            "backoff-ms",
        ],
        &[],
    )?;
    if !positional.is_empty() {
        return Err(format!("'serve' takes no positional arguments\n{USAGE}"));
    }
    let addr = flag(&flags, "listen").unwrap_or(DEFAULT_ADDR);
    let defaults = ServeConfig::default();
    let isolation = match flag(&flags, "isolation") {
        None | Some("thread") => Isolation::InProcess,
        Some("process") => Isolation::Process,
        Some(other) => {
            return Err(format!(
                "'--isolation {other}' is not 'thread' or 'process'"
            ))
        }
    };
    let config = ServeConfig {
        store: flag(&flags, "store").unwrap_or(DEFAULT_STORE).to_string(),
        workers: count_flag(&flags, "workers")?.unwrap_or(defaults.workers),
        shards: count_flag(&flags, "shards")?.unwrap_or(defaults.shards),
        parallelism: count_flag(&flags, "parallelism")?.unwrap_or(defaults.parallelism),
        queue_capacity: count_flag(&flags, "queue")?.unwrap_or(defaults.queue_capacity),
        quick: quick_from_env(),
        resume: true,
        isolation,
        deadline: count_flag(&flags, "deadline")?.map(|secs| Duration::from_secs(secs as u64)),
        max_retries: count_flag(&flags, "retries")?
            .map(|n| n as u32)
            .unwrap_or(defaults.max_retries),
        backoff_base: count_flag(&flags, "backoff-ms")?
            .map(|ms| Duration::from_millis(ms as u64))
            .unwrap_or(defaults.backoff_base),
        ..defaults
    };
    let store = config.store.clone();
    let daemon = Daemon::bind(addr, config).map_err(|e| e.to_string())?;
    println!(
        "campaign service listening on {} (store {store}, {} resumable record(s))",
        daemon.local_addr().map_err(|e| e.to_string())?,
        daemon.resumable_runs(),
    );
    // Smoke scripts poll for this line before submitting.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    daemon.run().map_err(|e| e.to_string())?;
    println!("campaign service drained and stopped");
    Ok(ExitCode::SUCCESS)
}

fn connect(flags: &[(String, String)]) -> Result<Client, String> {
    let addr = flag(flags, "addr").unwrap_or(DEFAULT_ADDR);
    Client::connect(addr).map_err(|e| e.to_string())
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["addr"], &["watch"])?;
    let [path] = positional.as_slice() else {
        return Err(format!("'submit' takes exactly one campaign file\n{USAGE}"));
    };
    // Parse locally first: a malformed file should fail client-side with
    // the file's path in the message, not round-trip to the daemon.
    let campaign = load_campaign(path)?;
    let mut client = connect(&flags)?;
    let job = client
        .submit(campaign.to_json())
        .map_err(|e| e.to_string())?;
    println!(
        "submitted '{}' ({} scenario(s)) as {job}",
        campaign.name,
        campaign.scenarios.len(),
    );
    if flag(&flags, "watch").is_some() {
        return watch_to_exit(&mut client, &job);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["addr"], &[])?;
    let mut client = connect(&flags)?;
    match positional.as_slice() {
        [] => {
            let response = client.status(None).map_err(|e| e.to_string())?;
            for warning in response
                .get("warnings")
                .and_then(Value::as_array)
                .unwrap_or(&[])
            {
                if let Some(w) = warning.as_str() {
                    eprintln!("warning: {w}");
                }
            }
            let jobs = response
                .get("jobs")
                .and_then(Value::as_array)
                .unwrap_or(&[]);
            if jobs.is_empty() {
                println!("no jobs");
                return Ok(ExitCode::SUCCESS);
            }
            println!(
                "{:<10} {:<10} {:<20} {:>9}",
                "job", "state", "campaign", "scenarios"
            );
            for job in jobs {
                println!(
                    "{:<10} {:<10} {:<20} {:>9}",
                    job.get("job").and_then(Value::as_str).unwrap_or("?"),
                    job.get("state").and_then(Value::as_str).unwrap_or("?"),
                    job.get("campaign").and_then(Value::as_str).unwrap_or("?"),
                    job.get("scenarios").and_then(Value::as_u64).unwrap_or(0),
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        [job] => {
            let response = client.status(Some(job)).map_err(|e| e.to_string())?;
            let detail = response.get("job").cloned().unwrap_or(Value::Null);
            println!("{}", serde_json::to_string_pretty(&detail));
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("'status' takes at most one job id\n{USAGE}")),
    }
}

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["addr"], &[])?;
    let [job] = positional.as_slice() else {
        return Err(format!("'watch' takes exactly one job id\n{USAGE}"));
    };
    let mut client = connect(&flags)?;
    watch_to_exit(&mut client, job)
}

/// Streams a job's events to stdout; the exit code is the job's fate.
fn watch_to_exit(client: &mut Client, job: &str) -> Result<ExitCode, String> {
    let done = client.watch(job, print_event).map_err(|e| e.to_string())?;
    let state = done.get("state").and_then(Value::as_str).unwrap_or("?");
    if state == "done" {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("{job} finished as '{state}'");
        Ok(ExitCode::FAILURE)
    }
}

fn print_event(event: &Value) {
    let kind = event.get("event").and_then(Value::as_str).unwrap_or("?");
    let job = event.get("job").and_then(Value::as_str).unwrap_or("?");
    match kind {
        "state" => println!(
            "{job}: {} ({} scenario(s))",
            event.get("state").and_then(Value::as_str).unwrap_or("?"),
            event.get("total").and_then(Value::as_u64).unwrap_or(0),
        ),
        "scenario" => {
            let index = event.get("index").and_then(Value::as_u64).unwrap_or(0);
            let total = event.get("total").and_then(Value::as_u64).unwrap_or(0);
            let name = event.get("name").and_then(Value::as_str).unwrap_or("?");
            if event.get("ok").and_then(Value::as_bool) == Some(true) {
                let provenance = if event.get("from_store").and_then(Value::as_bool) == Some(true) {
                    " [store]"
                } else if event.get("from_cache").and_then(Value::as_bool) == Some(true) {
                    " [cache]"
                } else {
                    ""
                };
                println!(
                    "{job}: [{}/{total}] {name} obj={:.4}{provenance}",
                    index + 1,
                    event
                        .get("best_objective")
                        .and_then(Value::as_f64)
                        .unwrap_or(f64::NAN),
                );
            } else {
                println!(
                    "{job}: [{}/{total}] {name} FAILED: {}",
                    index + 1,
                    event.get("error").and_then(Value::as_str).unwrap_or("?"),
                );
            }
        }
        "warning" => eprintln!(
            "warning: {}",
            event.get("message").and_then(Value::as_str).unwrap_or("?"),
        ),
        "done" => println!(
            "{job}: {} — {}/{} completed ({} cache-served, {} store-served, {} failed) in {:.0} ms",
            event.get("state").and_then(Value::as_str).unwrap_or("?"),
            event.get("completed").and_then(Value::as_u64).unwrap_or(0),
            event.get("total").and_then(Value::as_u64).unwrap_or(0),
            event
                .get("cache_served")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            event
                .get("store_served")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            event.get("failed").and_then(Value::as_u64).unwrap_or(0),
            event.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
        ),
        _ => println!("{}", serde_json::to_string(event)),
    }
}

fn cmd_cancel(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["addr"], &[])?;
    let [job] = positional.as_slice() else {
        return Err(format!("'cancel' takes exactly one job id\n{USAGE}"));
    };
    let mut client = connect(&flags)?;
    let response = client.cancel(job).map_err(|e| e.to_string())?;
    println!(
        "{job}: {}",
        response.get("state").and_then(Value::as_str).unwrap_or("?"),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["addr"], &[])?;
    if !positional.is_empty() {
        return Err(format!("'metrics' takes no positional arguments\n{USAGE}"));
    }
    let mut client = connect(&flags)?;
    let snapshot = client.metrics().map_err(|e| e.to_string())?;
    print!("{snapshot}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_shutdown(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["addr"], &[])?;
    if !positional.is_empty() {
        return Err(format!("'shutdown' takes no positional arguments\n{USAGE}"));
    }
    let mut client = connect(&flags)?;
    let response = client.shutdown().map_err(|e| e.to_string())?;
    println!(
        "daemon draining {} running job(s) and stopping",
        response
            .get("draining")
            .and_then(Value::as_u64)
            .unwrap_or(0),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_list(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["store"], &[])?;
    if !positional.is_empty() {
        return Err(format!("'list' takes no positional arguments\n{USAGE}"));
    }
    let store_path = flag(&flags, "store").unwrap_or(DEFAULT_STORE);
    let (records, warnings) = ResultStore::open(store_path)
        .load_lenient()
        .map_err(|e| e.to_string())?;
    for warning in &warnings {
        eprintln!("warning: {warning}");
    }
    if records.is_empty() {
        println!("no results in {store_path}");
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "{:<14} {:<18} {:<16} {:>20} {:>9}  faults",
        "campaign", "scenario", "digest", "seed", "best obj"
    );
    for r in &records {
        println!(
            "{:<14} {:<18} {:<16} {:>20} {:>9.4}  {}",
            r.campaign,
            r.scenario,
            r.digest,
            r.seed,
            r.best_objective,
            r.faults.join(" "),
        );
    }
    println!("{} record(s) in {store_path}", records.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["store"], &[])?;
    if !positional.is_empty() {
        return Err(format!("'compare' takes no positional arguments\n{USAGE}"));
    }
    let store_path = flag(&flags, "store").unwrap_or(DEFAULT_STORE);
    let groups = ResultStore::open(store_path)
        .compare()
        .map_err(|e| e.to_string())?;
    if groups.is_empty() {
        println!("no results in {store_path}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut diverged = 0usize;
    let mut repeated = 0usize;
    println!(
        "{:<18} {:<16} {:>20} {:>5} {:>11}  {:<10} best alpha",
        "scenario", "digest", "seed", "runs", "compute ms", "verdict"
    );
    for g in &groups {
        let verdict = if g.runs < 2 {
            "single"
        } else if g.identical {
            repeated += 1;
            "IDENTICAL"
        } else {
            diverged += 1;
            "DIVERGED"
        };
        println!(
            "{:<18} {:<16} {:>20} {:>5} {:>11.0}  {:<10} {:?}",
            g.scenario, g.digest, g.seed, g.runs, g.compute_wall_ms, verdict, g.best_alpha,
        );
    }
    if diverged > 0 {
        eprintln!("{diverged} group(s) failed to reproduce bit-identical best alpha");
        return Ok(ExitCode::FAILURE);
    }
    if repeated == 0 {
        println!("note: no (digest, seed) pair has multiple runs yet; run the campaign again to audit reproducibility");
    } else {
        println!("{repeated} repeated group(s), all bit-identical");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compact(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["store"], &[])?;
    if !positional.is_empty() {
        return Err(format!("'compact' takes no positional arguments\n{USAGE}"));
    }
    let store_path = flag(&flags, "store").unwrap_or(DEFAULT_STORE);
    let summary = ResultStore::open(store_path)
        .compact()
        .map_err(|e| e.to_string())?;
    println!(
        "compacted {store_path}: {} record(s) kept, {} duplicate(s) folded{}",
        summary.kept,
        summary.dropped_duplicates,
        if summary.dropped_truncated {
            ", 1 truncated trailing line dropped"
        } else {
            ""
        },
    );
    Ok(ExitCode::SUCCESS)
}
