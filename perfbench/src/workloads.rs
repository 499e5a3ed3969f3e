//! The three workloads: what each sets up from the seed, the timed body
//! that drives the program's public entry points, and the digest that
//! pins the body's result.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use baselines::TrainConfig;
use bayesft::{DriftObjective, Engine, Objective, RunReport, StageTimings};
use datasets::ClassificationDataset;
use models::{LeNet5, Mlp, MlpConfig};
use nn::Layer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reram::{mix_seed, DriftModel, LogNormalDrift};
use scenarios::{Campaign, CampaignRunner, ResultStore, Scenario, SpaceKind, TaskKind};

use crate::probe::{CountingDrift, TracedLayer, TracedObjective};

/// Seed streams derived from the benchmark seed, one per input.
const DATA_STREAM: u64 = 0xda7a;
const INIT_STREAM: u64 = 0x1417;
const TRAIN_STREAM: u64 = 0x7124;
const SCENARIO_STREAM: u64 = 0x5ce0;

/// Fault families the campaign must cover, by their spec-grammar names.
pub const FAULT_FAMILIES: [&str; 7] = [
    "lognormal",
    "gaussian",
    "uniformread",
    "devvar",
    "stuckat",
    "bitflip",
    "quantize",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eval-heavy: MLP on moons, 48 Monte-Carlo samples per trial.
    MlpMoons,
    /// Train-heavy: LeNet-5 on 14×14 digits, 2 epochs per trial.
    LenetDigits,
    /// A fault-family campaign with 2 MC workers, a memo hit and a store.
    CampaignFaultMix,
}

/// Budgets of one engine workload.
struct EngineSpec {
    trials: usize,
    epochs_per_trial: usize,
    final_epochs: usize,
    mc_samples: usize,
    /// Dropout rate `α = 1` maps to. LeNet collapses for good when a first
    /// random α drops most of its activations, so its range is narrower.
    max_rate: f32,
}

const SIGMAS: [f32; 3] = [0.0, 0.3, 0.6];

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MlpMoons,
        Workload::LenetDigits,
        Workload::CampaignFaultMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpMoons => "engine-mlp-moons",
            Workload::LenetDigits => "engine-lenet-digits",
            Workload::CampaignFaultMix => "campaign-fault-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn engine_spec(self) -> EngineSpec {
        match self {
            Workload::MlpMoons => EngineSpec {
                trials: 16,
                epochs_per_trial: 1,
                final_epochs: 1,
                mc_samples: 16,
                max_rate: 0.8,
            },
            _ => EngineSpec {
                trials: 8,
                epochs_per_trial: 2,
                final_epochs: 1,
                mc_samples: 2,
                max_rate: 0.5,
            },
        }
    }

    /// Builds the inputs of one repeat: data, model and engine, or the
    /// campaign, its runner and a fresh store under `workdir`. `traced`
    /// wraps the model, objective and fault models in the probes.
    pub fn setup(self, seed: u64, traced: bool, workdir: &Path) -> Result<Prepared, String> {
        match self {
            Workload::MlpMoons | Workload::LenetDigits => Ok(self.setup_engine(seed, traced)),
            Workload::CampaignFaultMix => setup_campaign(seed, workdir),
        }
    }

    fn setup_engine(self, seed: u64, traced: bool) -> Prepared {
        let spec = self.engine_spec();
        let mut data_rng = ChaCha8Rng::seed_from_u64(mix_seed(seed, DATA_STREAM));
        let mut init_rng = ChaCha8Rng::seed_from_u64(mix_seed(seed, INIT_STREAM));
        let (data, net): (ClassificationDataset, Box<dyn Layer>) = match self {
            Workload::MlpMoons => (
                datasets::moons(512, 0.15, &mut data_rng),
                Box::new(Mlp::new(
                    &MlpConfig::new(2, 2).depth(4).hidden(64),
                    &mut init_rng,
                )),
            ),
            _ => (
                datasets::digits(60, &mut data_rng),
                Box::new(LeNet5::new(1, 14, 10, &mut init_rng)),
            ),
        };
        let (train, val) = data.split(0.8, &mut data_rng);
        let models: Vec<Arc<dyn DriftModel>> = SIGMAS
            .iter()
            .map(|&s| {
                let model: Arc<dyn DriftModel> = Arc::new(LogNormalDrift::new(s));
                if traced {
                    Arc::new(CountingDrift::new(model))
                } else {
                    model
                }
            })
            .collect();
        let objective = DriftObjective::with_models(models, spec.mc_samples);
        let (net, objective): (Box<dyn Layer>, Box<dyn Objective>) = if traced {
            (
                Box::new(TracedLayer::new(net)),
                Box::new(TracedObjective::new(objective)),
            )
        } else {
            (net, Box::new(objective))
        };
        let engine = Engine::builder()
            .objective_boxed(objective)
            .trials(spec.trials)
            .epochs_per_trial(spec.epochs_per_trial)
            .final_epochs(spec.final_epochs)
            .seed(seed)
            .parallelism(1)
            .max_rate(spec.max_rate)
            .train(TrainConfig {
                seed: mix_seed(seed, TRAIN_STREAM),
                ..TrainConfig::default()
            })
            .build()
            .expect("benchmark engine configuration is valid");
        Prepared {
            body: Body::Engine {
                engine,
                net: Some(net),
                train,
                val,
                mc_per_trial: (SIGMAS.len() * spec.mc_samples) as u64,
            },
            result: None,
        }
    }
}

/// The campaign: one scenario per fault family (the last one a quantize
/// composite), moons and digits tasks, both search spaces, and a
/// renamed copy of the first scenario that the memo cache serves.
pub fn campaign(seed: u64) -> Campaign {
    let moons = TaskKind::Moons {
        samples: 1500,
        noise: 0.1,
    };
    let digits = TaskKind::Digits { per_class: 30 };
    let cells: [(&str, &str, TaskKind, SpaceKind); 7] = [
        ("lognormal", "lognormal:0.5", moons, SpaceKind::PerLayer),
        ("gaussian", "gaussian:0.1", moons, SpaceKind::Shared),
        (
            "uniformread",
            "uniformread:0.1",
            digits,
            SpaceKind::PerLayer,
        ),
        ("devvar", "devvar:0.2", moons, SpaceKind::PerLayer),
        ("stuckat", "stuckat:0.02", digits, SpaceKind::Shared),
        ("bitflip", "bitflip:0.002", moons, SpaceKind::PerLayer),
        (
            "analog",
            "quantize:16+lognormal:0.3+devvar:0.1",
            moons,
            SpaceKind::Shared,
        ),
    ];
    let mut scenarios: Vec<Scenario> = cells
        .iter()
        .enumerate()
        .map(|(i, &(name, faults, task, space))| {
            let fault = faults.parse().expect("benchmark fault specs parse");
            Scenario::new(name, vec![fault])
                .seed(mix_seed(seed, SCENARIO_STREAM + i as u64))
                .task(task)
                .space(space)
                .budgets(8, 16, 2, 2)
        })
        .collect();
    let mut alias = scenarios[0].clone();
    alias.name = "lognormal-alias".into();
    scenarios.push(alias);
    Campaign::new("perfbench-fault-mix", scenarios)
}

/// Which of [`FAULT_FAMILIES`] the campaign's fault specs never mention.
pub fn missing_fault_families(campaign: &Campaign) -> Vec<&'static str> {
    let specs: Vec<String> = campaign
        .scenarios
        .iter()
        .flat_map(|s| s.faults.iter().map(|f| f.to_string()))
        .collect();
    FAULT_FAMILIES
        .into_iter()
        .filter(|family| {
            !specs.iter().any(|spec| {
                spec.split('+')
                    .any(|part| part.split(':').next() == Some(family))
            })
        })
        .collect()
}

fn setup_campaign(seed: u64, workdir: &Path) -> Result<Prepared, String> {
    let campaign = campaign(seed);
    let dir = tempdir(workdir)?;
    Ok(Prepared {
        body: Body::Campaign {
            runner: CampaignRunner::new().parallelism(2).shards(1),
            store: ResultStore::open(dir.join("results.jsonl")),
            campaign,
            dir,
        },
        result: None,
    })
}

/// A fresh, empty directory under `workdir`, unique within the process.
fn tempdir(workdir: &Path) -> Result<PathBuf, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = workdir.join(format!(
        "store-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

enum Body {
    Engine {
        engine: Engine,
        net: Option<Box<dyn Layer>>,
        train: ClassificationDataset,
        val: ClassificationDataset,
        mc_per_trial: u64,
    },
    Campaign {
        runner: CampaignRunner,
        campaign: Campaign,
        store: ResultStore,
        dir: PathBuf,
    },
}

/// One repeat, set up and ready to run.
pub struct Prepared {
    body: Body,
    /// What the body left behind, kept until [`Prepared::finish`] so
    /// freeing it stays outside the timed window.
    result: Option<Box<dyn std::any::Any>>,
}

/// What one timed body produced.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Digest of every result the body computed (see [`report_digest`]).
    pub digest: u64,
    /// The search's best objective; the campaign's mean over scenarios.
    pub best_objective: f64,
    /// Engine runs or scenarios attempted, and how many errored.
    pub attempted: usize,
    pub failed: usize,
    /// Stage times summed over the engine runs that actually computed.
    pub timings: StageTimings,
    /// Monte-Carlo samples those runs evaluated.
    pub mc_samples: u64,
    /// Campaign scenarios that ran the engine, and those the memo cache
    /// served.
    pub engine_runs: usize,
    pub cache_hits: usize,
}

impl Prepared {
    /// The timed body: one `Engine::run`, or one campaign persisted to
    /// the store and compacted.
    pub fn run(&mut self) -> Repeat {
        match &mut self.body {
            Body::Engine {
                engine,
                net,
                train,
                val,
                mc_per_trial,
            } => {
                let net = net.take().expect("a prepared repeat runs once");
                match engine.run(net, train, val) {
                    Ok(result) => {
                        let report = &result.report;
                        let repeat = Repeat {
                            digest: report_digest(FNV_OFFSET, report),
                            best_objective: report.best_objective,
                            attempted: 1,
                            failed: 0,
                            timings: report.timings,
                            mc_samples: *mc_per_trial * report.trials.len() as u64,
                            ..Repeat::default()
                        };
                        self.result = Some(Box::new(result));
                        repeat
                    }
                    Err(e) => {
                        eprintln!("perfbench: engine run failed: {e}");
                        Repeat {
                            attempted: 1,
                            failed: 1,
                            ..Repeat::default()
                        }
                    }
                }
            }
            Body::Campaign {
                runner,
                campaign,
                store,
                ..
            } => {
                let total = campaign.scenarios.len();
                let report = {
                    let _s = telemetry::Span::enter("scenarios.campaign", campaign_hist());
                    runner.run_campaign_report(campaign, Some(store))
                };
                let report = match report {
                    Ok(report) => report,
                    Err(e) => {
                        eprintln!("perfbench: campaign failed: {e}");
                        return Repeat {
                            attempted: total,
                            failed: total,
                            ..Repeat::default()
                        };
                    }
                };
                let compacted = {
                    let _s = telemetry::Span::enter("scenarios.compact", compact_hist());
                    store.compact()
                };
                let mut repeat = Repeat {
                    digest: FNV_OFFSET,
                    attempted: total,
                    failed: report.failed + usize::from(compacted.is_err()),
                    cache_hits: report.cache_served,
                    ..Repeat::default()
                };
                let mut objectives = Vec::with_capacity(total);
                for run in &report.runs {
                    match &run.result {
                        Ok(outcome) => {
                            repeat.digest = report_digest(repeat.digest, &outcome.report);
                            objectives.push(outcome.report.best_objective);
                            if !outcome.from_cache && !outcome.from_store {
                                let sc = &outcome.scenario;
                                let t = outcome.report.timings;
                                repeat.engine_runs += 1;
                                repeat.timings.suggest_ms += t.suggest_ms;
                                repeat.timings.train_ms += t.train_ms;
                                repeat.timings.eval_ms += t.eval_ms;
                                repeat.timings.finetune_ms += t.finetune_ms;
                                repeat.timings.total_ms += t.total_ms;
                                repeat.mc_samples +=
                                    (sc.trials * sc.faults.len() * sc.mc_samples) as u64;
                            }
                        }
                        Err(e) => {
                            eprintln!("perfbench: scenario '{}' failed: {e}", run.name);
                            repeat.digest = fnv(repeat.digest, &[0xff]);
                        }
                    }
                }
                if let Err(e) = compacted {
                    eprintln!("perfbench: compact failed: {e}");
                }
                repeat.best_objective =
                    objectives.iter().sum::<f64>() / objectives.len().max(1) as f64;
                self.result = Some(Box::new(report));
                repeat
            }
        }
    }

    /// Frees what the body left behind and removes its store directory.
    pub fn finish(self) {
        drop(self.result);
        if let Body::Campaign { dir, .. } = self.body {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn campaign_hist() -> &'static telemetry::Histogram {
    telemetry::duration_histogram!("bench_scenarios_campaign_seconds")
}

fn compact_hist() -> &'static telemetry::Histogram {
    telemetry::duration_histogram!("bench_scenarios_compact_seconds")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Folds a report's computed content into `hash` (FNV-1a over the bit
/// patterns): every trial objective, the best α and the best objective.
/// Timings and labels stay out, so traced and untraced runs agree.
pub fn report_digest(mut hash: u64, report: &RunReport) -> u64 {
    for trial in &report.trials {
        hash = fnv(hash, &trial.objective.to_bits().to_le_bytes());
    }
    for a in &report.best_alpha {
        hash = fnv(hash, &a.to_bits().to_le_bytes());
    }
    fnv(hash, &report.best_objective.to_bits().to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn campaign_covers_every_fault_family_and_has_an_alias() {
        let c = campaign(7);
        assert!(missing_fault_families(&c).is_empty());
        let first = &c.scenarios[0];
        let alias = c.scenarios.last().unwrap();
        assert_ne!(first.name, alias.name);
        assert_eq!(first.digest(), alias.digest());
    }

    #[test]
    fn missing_families_are_reported() {
        let c = Campaign::new(
            "partial",
            vec![Scenario::new("ln", vec!["lognormal:0.3".parse().unwrap()])],
        );
        let missing = missing_fault_families(&c);
        assert!(!missing.contains(&"lognormal"));
        assert!(missing.contains(&"bitflip"));
    }

    #[test]
    fn digest_ignores_timings_but_not_results() {
        let report = RunReport {
            space: "per_layer".into(),
            objective: "x".into(),
            dim: 1,
            seed: 0,
            parallelism: 1,
            trials: vec![bayesft::TrialRecord {
                trial: 0,
                alpha: vec![0.5],
                objective: 0.75,
                objective_std: 0.0,
            }],
            best_alpha: vec![0.5],
            best_objective: 0.75,
            timings: StageTimings::default(),
            scenario: None,
        };
        let mut timed = report.clone();
        timed.timings.total_ms = 12.0;
        assert_eq!(
            report_digest(FNV_OFFSET, &report),
            report_digest(FNV_OFFSET, &timed)
        );
        let mut other = report.clone();
        other.best_objective = 0.7500001;
        assert_ne!(
            report_digest(FNV_OFFSET, &report),
            report_digest(FNV_OFFSET, &other)
        );
    }
}
