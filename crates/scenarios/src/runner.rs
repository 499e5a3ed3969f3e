//! Fans campaign scenarios through the experiment [`Engine`] — serially or
//! across a work-stealing shard pool — memoizing by `(seed,
//! scenario-digest)` and resuming from a persisted [`ResultStore`].

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use baselines::TrainConfig;
use bayesft::{DriftObjective, DropoutSearchSpace, Engine, RunReport};
use datasets::ClassificationDataset;
use models::{Mlp, MlpConfig};
use nn::Layer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::mix_seed;

use crate::{Campaign, CampaignError, ResultStore, Scenario, SpaceKind, TaskKind};

/// Seed stream for dataset generation, decorrelated from the engine's
/// suggest/eval streams.
const DATA_STREAM: u64 = 0xda7a;
/// Seed stream for network initialization.
const INIT_STREAM: u64 = 0x1417;
/// Seed stream for the SGD shuffler.
const TRAIN_STREAM: u64 = 0x7124;

/// How one scenario of a campaign went: the (possibly budget-clamped) spec
/// that actually ran, its digest, and the engine's report.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario as executed (after any quick-mode clamping).
    pub scenario: Scenario,
    /// Content digest of [`ScenarioOutcome::scenario`].
    pub digest: String,
    /// The engine's run record, tagged with the scenario metadata.
    pub report: RunReport,
    /// Whether this outcome came from the runner's memo cache instead of
    /// a fresh engine run.
    pub from_cache: bool,
    /// Whether this outcome was replayed from a persisted result store
    /// (`--resume`) instead of a fresh engine run.
    pub from_store: bool,
    /// Wall-clock this campaign spent producing the outcome, in
    /// milliseconds (0 on cache and store hits — serving is free).
    pub wall_ms: f64,
    /// Wall-clock of the engine run that *originally* computed the
    /// result, in milliseconds. Equal to [`ScenarioOutcome::wall_ms`] for
    /// fresh runs and preserved across cache/store hits, so timing history
    /// survives memoization and resume.
    pub compute_wall_ms: f64,
    /// Index of the shard that produced the outcome (0 for serial runs).
    pub shard: usize,
}

/// One entry of [`CampaignRunner::run_campaign`]'s result list: scenarios
/// fail individually, never the whole campaign.
#[derive(Debug)]
pub struct ScenarioRun {
    /// Scenario name as written in the campaign file.
    pub name: String,
    /// Index of the scenario in the campaign.
    pub index: usize,
    /// Scenario count of the campaign.
    pub total: usize,
    /// The outcome, or why this scenario could not run.
    pub result: Result<ScenarioOutcome, CampaignError>,
}

/// Per-call controls for a campaign run: cooperative cancellation and a
/// progress observer. [`RunControl::default`] is the plain uncontrolled
/// run that [`CampaignRunner::run_campaign_report`] uses.
#[derive(Default, Clone, Copy)]
pub struct RunControl<'a> {
    /// Checked by every shard between scenarios: once set, shards stop
    /// pulling work, the report comes back [`CampaignReport::cancelled`],
    /// and the store keeps the completed campaign-order prefix (the same
    /// resumable state a crash leaves, reached gracefully).
    ///
    /// Ordering: `Relaxed` — cancellation is advisory; a shard that
    /// misses one update starts at most one more scenario, which the
    /// resumable-prefix semantics already tolerate.
    pub cancel: Option<&'a AtomicBool>,
    /// Called once per finished scenario — from whichever shard finished
    /// it, in completion (not campaign) order — before the run is
    /// persisted. The campaign service streams these to `watch`
    /// subscribers.
    pub observer: Option<&'a (dyn Fn(&ScenarioRun) + Sync)>,
}

/// Campaign-level progress and cost accounting, produced by
/// [`CampaignRunner::run_campaign_report`].
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-scenario results, in campaign order.
    pub runs: Vec<ScenarioRun>,
    /// Scenario count of the campaign.
    pub total: usize,
    /// Scenarios that produced an outcome (fresh, cache-, or
    /// store-served).
    pub completed: usize,
    /// Scenarios that failed.
    pub failed: usize,
    /// Outcomes served from the in-process memo cache.
    pub cache_served: usize,
    /// Outcomes served from a persisted store (`--resume`).
    pub store_served: usize,
    /// Scenarios this process did not own under its
    /// [`CampaignRunner::shard_of`] slice (they belong to sibling
    /// processes and appear in neither [`CampaignReport::runs`] nor the
    /// store).
    pub skipped: usize,
    /// Whether a [`RunControl::cancel`] request stopped the campaign
    /// before every owned scenario ran. The completed campaign-order
    /// prefix is persisted; the rest is absent from
    /// [`CampaignReport::runs`].
    pub cancelled: bool,
    /// Shard count the campaign actually ran with.
    pub shards: usize,
    /// Wall-clock each shard spent pulling scenarios, in milliseconds.
    pub shard_wall_ms: Vec<f64>,
    /// End-to-end campaign wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Warnings surfaced while loading the resume store (truncated
    /// trailing lines, unreplayable records).
    pub warnings: Vec<String>,
}

/// A persisted record eligible to be served instead of recomputed, parsed
/// once at [`CampaignRunner::resume_from`] time.
#[derive(Debug, Clone)]
struct ResumeEntry {
    report: RunReport,
    compute_wall_ms: f64,
}

/// One campaign-order scenario slot of a run in progress.
enum Slot {
    /// Owned by this process but not finished yet.
    Pending,
    /// Not owned under the active [`CampaignRunner::shard_of`] slice — a
    /// sibling process runs it; the persist cursor steps over it.
    Skipped,
    /// Finished (successfully or not).
    Done(Box<ScenarioRun>),
}

/// Tracks completed scenario slots and the contiguous prefix already
/// persisted, so outcomes computed in any shard order land in the store in
/// campaign order.
struct PersistState<'a> {
    slots: Vec<Slot>,
    cursor: usize,
    store: Option<&'a ResultStore>,
    error: Option<CampaignError>,
}

impl PersistState<'_> {
    /// Appends every completed-but-unpersisted slot from the cursor
    /// forward. Failed scenarios and shard-skipped slots advance the
    /// cursor without a record, and store-served outcomes are re-appended
    /// (cheaply) so one `run` always contributes a full campaign-ordered
    /// suffix of the scenarios it owns.
    ///
    /// Once an append has failed, persistence stops for good: retrying
    /// the same cursor could concatenate a fresh record onto the earlier
    /// partially-written line and turn a recoverable truncated tail into
    /// fatal mid-file corruption.
    fn flush_prefix(&mut self, campaign: &Campaign) -> Result<(), CampaignError> {
        if self.error.is_some() {
            return Ok(());
        }
        while let Some(slot) = self.slots.get(self.cursor) {
            match slot {
                Slot::Pending => break,
                Slot::Skipped => {}
                Slot::Done(run) => {
                    if let (Some(store), Ok(outcome)) = (self.store, &run.result) {
                        store.append(&campaign.name, outcome)?;
                    }
                }
            }
            self.cursor += 1;
        }
        Ok(())
    }
}

/// Runs scenarios through the [`Engine`] with per-`(seed, digest)`
/// memoization, optional store-backed resume, and a work-stealing shard
/// pool.
///
/// Scenario runs are deterministic in the scenario spec: the same
/// `(seed, digest)` pair always yields a bit-identical
/// [`RunReport::deterministic_eq`] record, for any `parallelism`, any
/// `shards` count, and whether the memo cache, a resume store, or a fresh
/// engine run served it.
///
/// # Example
///
/// ```no_run
/// use scenarios::{Campaign, CampaignRunner, Scenario};
///
/// let campaign = Campaign::new(
///     "demo",
///     vec![Scenario::new("ln", vec!["lognormal:0.3".parse().unwrap()])],
/// );
/// let runner = CampaignRunner::new().shards(4);
/// for run in runner.run_campaign(&campaign) {
///     let outcome = run.result.expect("scenario failed");
///     println!("{}: α* = {:?}", run.name, outcome.report.best_alpha);
/// }
/// ```
///
/// # Lock order
///
/// `in_flight` → `cache`, never the reverse: the scenario executor
/// holds `in_flight` while probing/claiming and takes `cache` briefly
/// inside that window; the post-compute `cache` insert holds no other
/// lock. The [`ResultStore`] file lock is a leaf taken only under the
/// campaign persist-state mutex (one `flush_prefix` at a time) — it is
/// never requested while `cache` is held, so store I/O can never stall
/// a cache probe. The lock-discipline lint (R5) recovers these edges
/// and fails the build on a cycle.
#[derive(Debug, Default)]
pub struct CampaignRunner {
    parallelism: usize,
    shards: usize,
    shard_slice: Option<(usize, usize)>,
    quick: bool,
    cache: Mutex<HashMap<(u64, String), ScenarioOutcome>>,
    /// `(seed, digest)` keys currently being computed by some shard;
    /// content-aliased scenarios wait on [`CampaignRunner::in_flight_cv`]
    /// instead of duplicating the engine run.
    in_flight: Mutex<HashSet<(u64, String)>>,
    in_flight_cv: Condvar,
    resume: HashMap<(u64, String), ResumeEntry>,
    resume_warnings: Vec<String>,
}

impl CampaignRunner {
    /// A serial, full-budget runner.
    pub fn new() -> Self {
        CampaignRunner {
            parallelism: 1,
            shards: 1,
            shard_slice: None,
            quick: false,
            cache: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashSet::new()),
            in_flight_cv: Condvar::new(),
            resume: HashMap::new(),
            resume_warnings: Vec::new(),
        }
    }

    /// Sets the Monte-Carlo worker-thread budget (`0` = one per core).
    /// Results are bit-identical for every setting.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Sets how many scenario shards pull from the campaign's shared work
    /// queue (`0` = one per core). Scenarios are deterministic in their
    /// own seeds, so outcomes are bit-identical to the serial path for
    /// every setting; they are reported and persisted in campaign order
    /// regardless of completion order.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Restricts this runner to one **cross-process** shard of every
    /// campaign it runs: of a campaign's scenarios, this process owns
    /// those whose campaign index `i` satisfies `i % count == index`, and
    /// steps over the rest (they are counted as
    /// [`CampaignReport::skipped`], and neither run nor persisted). `count`
    /// independent processes — or hosts — with indices `0..count` over the
    /// same campaign and distinct stores thus partition the work exactly;
    /// `ResultStore::merge_from` reunites their stores into the bytes a
    /// serial run would have produced.
    ///
    /// Scenario positions and digests are computed against the *full*
    /// campaign, so records from different shards are indistinguishable
    /// from a serial run's.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Parse`] when `count` is zero or `index`
    /// is out of range.
    pub fn shard_of(mut self, index: usize, count: usize) -> Result<Self, CampaignError> {
        if count == 0 || index >= count {
            return Err(CampaignError::Parse(format!(
                "shard index {index} out of range for shard count {count}"
            )));
        }
        self.shard_slice = Some((index, count));
        Ok(self)
    }

    /// Clamps every scenario to smoke-test budgets
    /// ([`Scenario::clamped_quick`]) before running — the `BENCH_QUICK=1`
    /// path of the `campaign` CLI.
    pub fn quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Primes the runner with every replayable record of `store`: a
    /// scenario whose `(seed, digest)` is already persisted is served from
    /// the store (marked [`ScenarioOutcome::from_store`]) instead of
    /// recomputed. Records that cannot be replayed (truncated trailing
    /// line, malformed report) are surfaced as warnings on the next
    /// [`CampaignRunner::run_campaign_report`] and recomputed.
    ///
    /// # Errors
    ///
    /// Propagates [`ResultStore::load_lenient`] errors (corrupt
    /// non-trailing lines, I/O failures).
    pub fn resume_from(mut self, store: &ResultStore) -> Result<Self, CampaignError> {
        let (records, mut warnings) = store.load_lenient()?;
        for record in records {
            let key = (record.seed, record.digest.clone());
            let report = record
                .raw
                .get("report")
                .ok_or_else(|| "record is missing 'report'".to_string())
                .and_then(RunReport::from_json);
            match report {
                // Latest record wins, matching compaction.
                Ok(report) => {
                    self.resume.insert(
                        key,
                        ResumeEntry {
                            report,
                            compute_wall_ms: record.compute_wall_ms,
                        },
                    );
                }
                Err(e) => warnings.push(format!(
                    "{}: stored record for scenario '{}' (seed {}) cannot be replayed ({e}); \
                     it will be recomputed",
                    store.path().display(),
                    record.scenario,
                    record.seed,
                )),
            }
        }
        self.resume_warnings.append(&mut warnings);
        Ok(self)
    }

    /// Number of memoized outcomes held.
    pub fn cached_runs(&self) -> usize {
        self.cache.lock().expect("memo cache poisoned").len()
    }

    /// Number of persisted records primed by
    /// [`CampaignRunner::resume_from`].
    pub fn resumable_runs(&self) -> usize {
        self.resume.len()
    }

    /// Runs every scenario of `campaign` and returns the per-scenario
    /// results in campaign order. A failing scenario yields an `Err` entry
    /// and the campaign continues.
    ///
    /// This is [`CampaignRunner::run_campaign_report`] without persistence
    /// or the campaign-level accounting.
    pub fn run_campaign(&self, campaign: &Campaign) -> Vec<ScenarioRun> {
        self.run_campaign_report(campaign, None)
            .expect("a campaign without a store has no persistence failures")
            .runs
    }

    /// Runs every scenario of `campaign` over the shard pool, optionally
    /// persisting each outcome to `store` as soon as its campaign-order
    /// prefix completes (so a crash leaves a resumable prefix, never a
    /// shuffled store).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] if appending to `store` fails; the
    /// shard pool stops pulling new scenarios at the first persistence
    /// failure. Scenario-level failures never abort the campaign — they
    /// are `Err` entries in [`CampaignReport::runs`].
    pub fn run_campaign_report(
        &self,
        campaign: &Campaign,
        store: Option<&ResultStore>,
    ) -> Result<CampaignReport, CampaignError> {
        self.run_campaign_report_with(campaign, store, RunControl::default())
    }

    /// [`CampaignRunner::run_campaign_report`] with cooperative
    /// cancellation and per-scenario progress callbacks — the entry point
    /// the campaign service daemon drives. Takes `&self`, so concurrent
    /// campaigns (different jobs, different worker threads) can share one
    /// runner and its memo cache: content-aliased scenarios across jobs
    /// resolve to a single engine run through the in-flight reservation.
    ///
    /// # Errors
    ///
    /// See [`CampaignRunner::run_campaign_report`].
    pub fn run_campaign_report_with(
        &self,
        campaign: &Campaign,
        store: Option<&ResultStore>,
        ctl: RunControl<'_>,
    ) -> Result<CampaignReport, CampaignError> {
        let total = campaign.scenarios.len();
        let owns = |i: usize| {
            self.shard_slice
                .is_none_or(|(index, count)| i % count == index)
        };
        let owned_total = (0..total).filter(|&i| owns(i)).count();
        let shards = effective_shards(self.shards, owned_total);
        let started = Instant::now();
        let mut warnings = self.resume_warnings.clone();
        if let Some(store) = store {
            // A crashed predecessor may have left a partial trailing line;
            // truncate it so this campaign's appends start on a fresh line.
            if let Some(dropped) = store.drop_partial_tail()? {
                warnings.push(dropped);
            }
        }
        let mut shard_wall_ms = vec![0.0; shards];

        let slots: Vec<Slot> = (0..total)
            .map(|i| {
                if owns(i) {
                    Slot::Pending
                } else {
                    Slot::Skipped
                }
            })
            .collect();
        let state = Mutex::new(PersistState {
            slots,
            cursor: 0,
            store,
            error: None,
        });

        // Work-stealing queue: shards race on an atomic cursor, so a slow
        // scenario never idles the other shards. `exec` is deterministic
        // per scenario, so the interleaving cannot change any outcome.
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|shard| {
                    let (next, abort, state, ctl) = (&next, &abort, &state, &ctl);
                    scope.spawn(move || {
                        let shard_start = Instant::now();
                        loop {
                            if abort.load(Ordering::Relaxed)
                                || ctl.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
                            {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= total {
                                break;
                            }
                            if !owns(i) {
                                continue;
                            }
                            let scenario = &campaign.scenarios[i];
                            let run = ScenarioRun {
                                name: scenario.name.clone(),
                                index: i,
                                total,
                                result: self.exec(scenario, Some((i, total)), shard),
                            };
                            if let Some(observer) = ctl.observer {
                                observer(&run);
                            }
                            let mut st = state.lock().expect("persist state poisoned");
                            st.slots[i] = Slot::Done(Box::new(run));
                            // lint:allow(R5, reason = "slot table and store cursor must advance atomically or a racing shard could append the same prefix row twice; the fsync is the shard's own durability point and contention is bounded by shard count")
                            if let Err(e) = st.flush_prefix(campaign) {
                                st.error.get_or_insert(e);
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                        shard_start.elapsed().as_secs_f64() * 1e3
                    })
                })
                .collect();
            for (shard, handle) in handles.into_iter().enumerate() {
                shard_wall_ms[shard] = handle.join().expect("campaign shard panicked");
            }
        });

        let state = state.into_inner().expect("persist state poisoned");
        if let Some(e) = state.error {
            return Err(e);
        }
        let mut runs = Vec::with_capacity(owned_total);
        let mut skipped = 0usize;
        let mut pending = 0usize;
        for slot in state.slots {
            match slot {
                Slot::Done(run) => runs.push(*run),
                Slot::Skipped => skipped += 1,
                // Only a cancel can leave an owned slot unrun (a persist
                // failure returned above).
                Slot::Pending => pending += 1,
            }
        }
        let completed = runs.iter().filter(|r| r.result.is_ok()).count();
        let count = |f: fn(&ScenarioOutcome) -> bool| {
            runs.iter()
                .filter_map(|r| r.result.as_ref().ok())
                .filter(|o| f(o))
                .count()
        };
        Ok(CampaignReport {
            total,
            completed,
            failed: runs.len() - completed,
            cache_served: count(|o| o.from_cache),
            store_served: count(|o| o.from_store),
            skipped,
            cancelled: pending > 0,
            shards,
            shard_wall_ms,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            warnings,
            runs,
        })
    }

    /// Runs one scenario (or serves it from the memo cache / resume
    /// store).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Parse`]/[`CampaignError::Fault`] for an
    /// invalid spec and [`CampaignError::Engine`] if the search itself
    /// fails.
    pub fn run_scenario(&self, scenario: &Scenario) -> Result<ScenarioOutcome, CampaignError> {
        self.exec(scenario, None, 0)
    }

    /// The shared scenario path: validate → clamp → memo cache → resume
    /// store → fresh engine run. Takes `&self` so shards can execute
    /// concurrently; the memo cache and in-flight set are behind mutexes.
    fn exec(
        &self,
        scenario: &Scenario,
        position: Option<(usize, usize)>,
        shard: usize,
    ) -> Result<ScenarioOutcome, CampaignError> {
        scenario.validate()?;
        let scenario = if self.quick {
            scenario.clamped_quick()
        } else {
            scenario.clone()
        };
        let digest = scenario.digest();
        let key = (scenario.seed, digest.clone());
        if let Some(entry) = self.resume.get(&key) {
            let mut report = entry.report.clone();
            if let Some(meta) = &mut report.scenario {
                meta.name = scenario.name.clone();
                meta.position = position;
            }
            telemetry::static_counter!("campaign_store_hits_total").inc();
            return Ok(ScenarioOutcome {
                digest,
                report,
                scenario,
                from_cache: false,
                from_store: true,
                wall_ms: 0.0,
                compute_wall_ms: entry.compute_wall_ms,
                shard,
            });
        }
        // Serve from the memo cache, or reserve the key so content-aliased
        // scenarios on other shards wait for this computation instead of
        // duplicating it. The cache check happens *while holding* the
        // in-flight lock: a producing shard inserts the cache entry before
        // releasing its reservation, so under this lock "not cached and
        // not in flight" really means nobody computed or is computing the
        // key. If the computing shard failed (it released the reservation
        // without a cache entry), the first waiter takes over and retries.
        let mut in_flight = self.in_flight.lock().expect("in-flight set poisoned");
        loop {
            if let Some(hit) = self.cache.lock().expect("memo cache poisoned").get(&key) {
                let mut outcome = hit.clone();
                outcome.from_cache = true;
                outcome.from_store = false;
                outcome.wall_ms = 0.0;
                outcome.shard = shard;
                // Memoization is keyed on content, not name: a renamed copy
                // of a cached scenario reuses the evaluation but reports
                // its own name and campaign position.
                outcome.scenario.name = scenario.name.clone();
                if let Some(meta) = &mut outcome.report.scenario {
                    meta.name = scenario.name.clone();
                    meta.position = position;
                }
                telemetry::static_counter!("campaign_cache_hits_total").inc();
                return Ok(outcome);
            }
            if in_flight.insert(key.clone()) {
                break;
            }
            in_flight = self
                .in_flight_cv
                .wait(in_flight)
                .expect("in-flight set poisoned");
        }
        drop(in_flight);
        let result = self.compute(&scenario, &digest, position, shard);
        if let Ok(outcome) = &result {
            self.cache
                .lock()
                .expect("memo cache poisoned")
                .insert(key.clone(), outcome.clone());
        }
        self.in_flight
            .lock()
            .expect("in-flight set poisoned")
            .remove(&key);
        self.in_flight_cv.notify_all();
        result
    }

    /// A fresh engine run for a scenario that neither the cache nor the
    /// resume store could serve. Callers hold the in-flight reservation
    /// for the scenario's `(seed, digest)` key.
    fn compute(
        &self,
        scenario: &Scenario,
        digest: &str,
        position: Option<(usize, usize)>,
        shard: usize,
    ) -> Result<ScenarioOutcome, CampaignError> {
        telemetry::static_counter!("campaign_engine_runs_total").inc();
        let _span = telemetry::Span::enter(
            "campaign.scenario",
            telemetry::duration_histogram!("campaign_scenario_seconds"),
        );
        let scenario = scenario.clone();
        let started = Instant::now();
        let (train, val, mut net) = build_task(&scenario);
        let objective = DriftObjective::from_specs(&scenario.faults, scenario.mc_samples)?;
        let mut builder = Engine::builder()
            .objective(objective)
            .trials(scenario.trials)
            .epochs_per_trial(scenario.epochs_per_trial)
            .final_epochs(scenario.final_epochs)
            .seed(scenario.seed)
            .parallelism(self.parallelism)
            .train(TrainConfig {
                // The engine overrides `epochs` per stage; only the
                // shuffler seed matters here.
                seed: mix_seed(scenario.seed, TRAIN_STREAM),
                ..TrainConfig::default()
            });
        if scenario.space == SpaceKind::Shared {
            builder = builder.space(DropoutSearchSpace::shared(net.as_mut())?);
        }
        let result = builder.run(net, &train, &val)?;
        let mut report = result
            .report
            .with_scenario(scenario.name.clone(), digest.to_string());
        if let Some((index, total)) = position {
            report = report.with_campaign_position(index, total);
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(ScenarioOutcome {
            digest: digest.to_string(),
            report,
            scenario,
            from_cache: false,
            from_store: false,
            wall_ms,
            compute_wall_ms: wall_ms,
            shard,
        })
    }
}

/// Resolves a shard request against the machine and the campaign: `0`
/// means one shard per core, and a campaign never spins up more shards
/// than it has scenarios. [`CampaignRunner::shards`] and the campaign
/// service's per-job worker-process count both follow this rule.
pub fn effective_shards(requested: usize, total: usize) -> usize {
    let shards = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    shards.clamp(1, total.max(1))
}

/// Builds the train/val splits and a dropout-bearing MLP for a scenario's
/// task, all seeded from decorrelated streams of the scenario seed.
fn build_task(
    scenario: &Scenario,
) -> (ClassificationDataset, ClassificationDataset, Box<dyn Layer>) {
    let mut data_rng = ChaCha8Rng::seed_from_u64(mix_seed(scenario.seed, DATA_STREAM));
    let mut init_rng = ChaCha8Rng::seed_from_u64(mix_seed(scenario.seed, INIT_STREAM));
    let (data, input_dim, classes) = match scenario.task {
        TaskKind::Moons { samples, noise } => {
            (datasets::moons(samples, noise, &mut data_rng), 2, 2)
        }
        TaskKind::Digits { per_class } => (datasets::digits(per_class, &mut data_rng), 14 * 14, 10),
        TaskKind::Shapes { per_class } => {
            (datasets::shapes(per_class, &mut data_rng), 3 * 16 * 16, 10)
        }
    };
    let (train, val) = data.split(0.8, &mut data_rng);
    let hidden = if input_dim <= 2 { 16 } else { 32 };
    let net = Box::new(Mlp::new(
        &MlpConfig::new(input_dim, classes).hidden(hidden),
        &mut init_rng,
    ));
    (train, val, net)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str, faults: &[&str], seed: u64) -> Scenario {
        Scenario::new(name, faults.iter().map(|f| f.parse().unwrap()).collect())
            .seed(seed)
            .budgets(2, 2, 1, 1)
            .task(TaskKind::Moons {
                samples: 80,
                noise: 0.1,
            })
    }

    #[test]
    fn scenario_runs_and_tags_the_report() {
        let sc = tiny("ln", &["lognormal:0.4"], 3);
        let outcome = CampaignRunner::new().run_scenario(&sc).unwrap();
        assert_eq!(outcome.report.trials.len(), 2);
        let meta = outcome.report.scenario.as_ref().unwrap();
        assert_eq!(meta.name, "ln");
        assert_eq!(meta.digest, outcome.digest);
        assert_eq!(meta.position, None, "standalone runs carry no position");
        assert!(!outcome.from_cache);
        assert!(!outcome.from_store);
        assert!(outcome.wall_ms > 0.0);
        assert_eq!(outcome.compute_wall_ms, outcome.wall_ms);
    }

    #[test]
    fn repeated_runs_are_memoized_and_identical() {
        let sc = tiny("memo", &["lognormal:0.4", "stuckat:0.05"], 5);
        let runner = CampaignRunner::new();
        let first = runner.run_scenario(&sc).unwrap();
        let second = runner.run_scenario(&sc).unwrap();
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(runner.cached_runs(), 1);
        assert!(first.report.deterministic_eq(&second.report));
    }

    #[test]
    fn cache_hits_preserve_the_original_compute_time() {
        let sc = tiny("walltime", &["lognormal:0.4"], 8);
        let runner = CampaignRunner::new();
        let first = runner.run_scenario(&sc).unwrap();
        let second = runner.run_scenario(&sc).unwrap();
        assert_eq!(second.wall_ms, 0.0, "serving a hit costs nothing");
        assert_eq!(
            second.compute_wall_ms, first.wall_ms,
            "the producing run's wall-clock must survive the cache hit"
        );
        assert!(second.compute_wall_ms > 0.0);
    }

    #[test]
    fn cache_hits_are_keyed_on_content_not_name() {
        let runner = CampaignRunner::new();
        let a = runner
            .run_scenario(&tiny("original", &["lognormal:0.4"], 5))
            .unwrap();
        let b = runner
            .run_scenario(&tiny("renamed", &["lognormal:0.4"], 5))
            .unwrap();
        assert!(b.from_cache, "same content must hit the cache");
        assert_eq!(b.report.scenario.as_ref().unwrap().name, "renamed");
        assert_eq!(a.report.best_alpha, b.report.best_alpha);
        // Different seed misses.
        let c = runner
            .run_scenario(&tiny("original", &["lognormal:0.4"], 6))
            .unwrap();
        assert!(!c.from_cache);
    }

    #[test]
    fn a_failing_scenario_does_not_abort_the_campaign() {
        let good = tiny("good", &["lognormal:0.3"], 1);
        let mut bad = tiny("bad", &["lognormal:0.3"], 1);
        bad.faults = vec![reram::FaultSpec::LogNormal { sigma: -2.0 }];
        let campaign = Campaign::new("mixed", vec![bad, good]);
        let runs = CampaignRunner::new().run_campaign(&campaign);
        assert_eq!(runs.len(), 2);
        assert!(runs[0].result.is_err(), "bad scenario must fail");
        assert!(runs[1].result.is_ok(), "good scenario must still run");
    }

    #[test]
    fn quick_mode_clamps_budgets() {
        let sc = tiny("q", &["lognormal:0.3"], 2).budgets(10, 8, 4, 4);
        let outcome = CampaignRunner::new().quick(true).run_scenario(&sc).unwrap();
        assert_eq!(outcome.scenario.trials, 3);
        assert_eq!(outcome.report.trials.len(), 3);
        assert_ne!(outcome.digest, sc.digest());
    }

    #[test]
    fn campaign_report_counts_progress_and_positions() {
        let campaign = Campaign::new(
            "prog",
            vec![
                tiny("a", &["lognormal:0.4"], 1),
                tiny("a-alias", &["lognormal:0.4"], 1),
                tiny("b", &["lognormal:0.2"], 2),
            ],
        );
        let runner = CampaignRunner::new();
        let report = runner.run_campaign_report(&campaign, None).unwrap();
        assert_eq!((report.total, report.completed, report.failed), (3, 3, 0));
        assert_eq!(report.cache_served, 1, "the alias is memo-served");
        assert_eq!(report.store_served, 0);
        assert_eq!(report.shards, 1);
        assert_eq!(report.shard_wall_ms.len(), 1);
        assert!(report.wall_ms > 0.0);
        for (i, run) in report.runs.iter().enumerate() {
            let outcome = run.result.as_ref().unwrap();
            assert_eq!(
                outcome.report.scenario.as_ref().unwrap().position,
                Some((i, 3)),
                "campaign position is threaded into the report"
            );
        }
    }

    #[test]
    fn zero_shards_means_one_per_core_capped_by_campaign() {
        assert_eq!(effective_shards(1, 10), 1);
        assert_eq!(effective_shards(5, 3), 3, "never more shards than work");
        assert_eq!(effective_shards(5, 0), 1);
        assert!(effective_shards(0, 64) >= 1);
    }
}
