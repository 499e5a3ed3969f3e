//! Declarative fault-scenario campaigns for the BayesFT engine.
//!
//! The rest of the workspace answers "how robust is architecture α under
//! fault model F?"; this crate scales that question to *suites* of fault
//! models without hand-wiring Rust per experiment:
//!
//! * [`Scenario`] — one experiment cell: a fault mix (in the
//!   [`reram::FaultSpec`] grammar, e.g. `"quantize:16+lognormal:0.3"`), a
//!   task, a search space, budgets, and a seed. Round-trips losslessly
//!   through JSON.
//! * [`Campaign`] — a named list of scenarios, loadable from a
//!   `campaign.json` file.
//! * [`CampaignRunner`] — fans scenarios through the
//!   [`Engine`](bayesft::Engine) over a work-stealing shard pool
//!   ([`CampaignRunner::shards`], bit-identical to the serial path),
//!   memoizes evaluations by `(seed, scenario-digest)`, resumes from a
//!   persisted store ([`CampaignRunner::resume_from`]), and never lets
//!   one malformed scenario abort the sweep.
//! * [`ResultStore`] — a crash-safe, append-only JSONL store: line-fsync
//!   appends, truncation-tolerant loads, atomic deduplicating
//!   [`ResultStore::compact`], and reproducibility-compare
//!   ([`ResultStore::compare`]) queries.
//! * the `campaign` CLI binary — `run` (with `--shards` / `--resume`) /
//!   `list` / `compare` / `compact` subcommands over all of the above,
//!   with `BENCH_QUICK=1` smoke budgets.
//!
//! # Example
//!
//! ```
//! use scenarios::{Campaign, CampaignRunner};
//!
//! let campaign = Campaign::from_json_str(r#"{
//!   "name": "smoke",
//!   "scenarios": [
//!     {"name": "drift",   "faults": ["lognormal:0.4"],
//!      "task": {"kind": "moons", "samples": 80}, "trials": 2,
//!      "mc_samples": 2, "epochs_per_trial": 1, "final_epochs": 1, "seed": 1},
//!     {"name": "defects", "faults": ["lognormal:0.2+stuckat:0.02"],
//!      "task": {"kind": "moons", "samples": 80}, "trials": 2,
//!      "mc_samples": 2, "epochs_per_trial": 1, "final_epochs": 1, "seed": 1}
//!   ]
//! }"#).unwrap();
//!
//! let runner = CampaignRunner::new();
//! for run in runner.run_campaign(&campaign) {
//!     let outcome = run.result.unwrap();
//!     assert_eq!(outcome.report.scenario.as_ref().unwrap().name, run.name);
//! }
//! ```

mod error;
mod runner;
mod scenario;
mod store;

pub use error::CampaignError;
pub use runner::{
    effective_shards, CampaignReport, CampaignRunner, RunControl, ScenarioOutcome, ScenarioRun,
};
pub use scenario::{Campaign, Scenario, SpaceKind, TaskKind};
pub use store::{
    CompactionSummary, CompareGroup, MergeSummary, ResultStore, StoreLock, StoredRecord,
};
