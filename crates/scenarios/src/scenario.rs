//! Declarative scenario and campaign specs with lossless JSON round-trips.

use serde_json::Value;

use reram::FaultSpec;

use crate::CampaignError;

/// Which synthetic task a scenario trains and evaluates on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskKind {
    /// 2-D two-moons classification (`datasets::moons`).
    Moons {
        /// Total sample count before the 80/20 split.
        samples: usize,
        /// Gaussian coordinate noise.
        noise: f32,
    },
    /// 14×14 synthetic digit bitmaps, 10 classes (`datasets::digits`).
    Digits {
        /// Samples generated per class.
        per_class: usize,
    },
    /// 16×16 RGB shape renderings, 10 classes (`datasets::shapes`).
    Shapes {
        /// Samples generated per class.
        per_class: usize,
    },
}

impl TaskKind {
    /// Short task label for tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::Moons { .. } => "moons",
            TaskKind::Digits { .. } => "digits",
            TaskKind::Shapes { .. } => "shapes",
        }
    }

    fn to_json(self) -> Value {
        let mut obj = Value::object();
        match self {
            TaskKind::Moons { samples, noise } => {
                obj.insert("kind", "moons");
                obj.insert("samples", samples);
                obj.insert("noise", noise);
            }
            TaskKind::Digits { per_class } => {
                obj.insert("kind", "digits");
                obj.insert("per_class", per_class);
            }
            TaskKind::Shapes { per_class } => {
                obj.insert("kind", "shapes");
                obj.insert("per_class", per_class);
            }
        }
        obj
    }

    fn from_json(value: &Value) -> Result<Self, CampaignError> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| CampaignError::Parse("task needs a string 'kind'".into()))?;
        match kind {
            "moons" => Ok(TaskKind::Moons {
                samples: get_usize(value, "samples")?.unwrap_or(240),
                noise: get_f32(value, "noise")?.unwrap_or(0.1),
            }),
            "digits" => Ok(TaskKind::Digits {
                per_class: get_usize(value, "per_class")?.unwrap_or(12),
            }),
            "shapes" => Ok(TaskKind::Shapes {
                per_class: get_usize(value, "per_class")?.unwrap_or(12),
            }),
            other => Err(CampaignError::Parse(format!(
                "unknown task kind '{other}' (expected moons|digits|shapes)"
            ))),
        }
    }
}

impl Default for TaskKind {
    fn default() -> Self {
        TaskKind::Moons {
            samples: 240,
            noise: 0.1,
        }
    }
}

/// Which search space the engine explores for a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpaceKind {
    /// The paper's per-dropout-layer space (`DropoutSearchSpace::probe`).
    #[default]
    PerLayer,
    /// One shared rate across all dropout layers (`DropoutSearchSpace::shared`).
    Shared,
}

impl SpaceKind {
    /// The spec-file string for this space.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpaceKind::PerLayer => "per_layer",
            SpaceKind::Shared => "shared",
        }
    }

    fn from_str(s: &str) -> Result<Self, CampaignError> {
        match s {
            "per_layer" => Ok(SpaceKind::PerLayer),
            "shared" => Ok(SpaceKind::Shared),
            other => Err(CampaignError::Parse(format!(
                "unknown space '{other}' (expected per_layer|shared)"
            ))),
        }
    }
}

/// One experiment cell of a campaign: a fault mix, a task, a search-space
/// choice, and the trial/Monte-Carlo budgets and seed that make the run
/// reproducible.
///
/// Serializes to/from JSON losslessly ([`Scenario::to_json`] /
/// [`Scenario::from_json`]); fault models are stored in the shared
/// [`reram::FaultSpec`] string grammar, so a scenario file and a CLI flag
/// use one parser.
///
/// # Example
///
/// ```
/// use scenarios::Scenario;
///
/// let sc = Scenario::new(
///     "stuck-at sweep",
///     vec!["lognormal:0.3".parse().unwrap(), "stuckat:0.02".parse().unwrap()],
/// );
/// let round_tripped = Scenario::from_json(&sc.to_json()).unwrap();
/// assert_eq!(round_tripped, sc);
/// assert_eq!(round_tripped.digest(), sc.digest());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (unique within a campaign by
    /// convention, not enforcement).
    pub name: String,
    /// Fault models the objective marginalizes over (at least one).
    pub faults: Vec<FaultSpec>,
    /// Task the scenario trains and evaluates on.
    pub task: TaskKind,
    /// Search space the engine explores.
    pub space: SpaceKind,
    /// Bayesian-optimization trials.
    pub trials: usize,
    /// Monte-Carlo samples per fault model per evaluation.
    pub mc_samples: usize,
    /// SGD epochs between trials.
    pub epochs_per_trial: usize,
    /// Fine-tuning epochs after the search.
    pub final_epochs: usize,
    /// Master seed; everything the scenario computes is deterministic in
    /// it.
    pub seed: u64,
}

impl Scenario {
    /// Creates a scenario with default task (moons), space (per-layer),
    /// budgets, and seed 0.
    pub fn new(name: impl Into<String>, faults: Vec<FaultSpec>) -> Self {
        Scenario {
            name: name.into(),
            faults,
            task: TaskKind::default(),
            space: SpaceKind::default(),
            trials: 6,
            mc_samples: 4,
            epochs_per_trial: 2,
            final_epochs: 4,
            seed: 0,
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the task.
    pub fn task(mut self, task: TaskKind) -> Self {
        self.task = task;
        self
    }

    /// Sets the search space.
    pub fn space(mut self, space: SpaceKind) -> Self {
        self.space = space;
        self
    }

    /// Sets the trial/Monte-Carlo/epoch budgets.
    pub fn budgets(
        mut self,
        trials: usize,
        mc_samples: usize,
        epochs_per_trial: usize,
        final_epochs: usize,
    ) -> Self {
        self.trials = trials;
        self.mc_samples = mc_samples;
        self.epochs_per_trial = epochs_per_trial;
        self.final_epochs = final_epochs;
        self
    }

    /// Checks that the scenario is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Parse`] for empty fault lists, zero
    /// budgets, or degenerate task sizes.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.name.trim().is_empty() {
            return Err(CampaignError::Parse("scenario name is empty".into()));
        }
        if self.faults.is_empty() {
            return Err(CampaignError::Parse(format!(
                "scenario '{}' has no fault models",
                self.name
            )));
        }
        for fault in &self.faults {
            fault.build().map_err(CampaignError::Fault)?;
        }
        if self.trials == 0 || self.mc_samples == 0 {
            return Err(CampaignError::Parse(format!(
                "scenario '{}' needs at least one trial and one Monte-Carlo sample",
                self.name
            )));
        }
        let enough_data = match self.task {
            TaskKind::Moons { samples, .. } => samples >= 10,
            TaskKind::Digits { per_class } | TaskKind::Shapes { per_class } => per_class >= 2,
        };
        if !enough_data {
            return Err(CampaignError::Parse(format!(
                "scenario '{}' has too little data to split",
                self.name
            )));
        }
        Ok(())
    }

    /// A copy with budgets clamped to smoke-test scale (`BENCH_QUICK`).
    ///
    /// Clamping changes the scenario content, hence also its
    /// [`Scenario::digest`] — quick results never collide with full
    /// results in a store.
    pub fn clamped_quick(&self) -> Self {
        let mut sc = self.clone();
        sc.trials = sc.trials.min(3);
        sc.mc_samples = sc.mc_samples.min(2);
        sc.epochs_per_trial = sc.epochs_per_trial.min(1);
        sc.final_epochs = sc.final_epochs.min(1);
        sc.task = match sc.task {
            TaskKind::Moons { samples, noise } => TaskKind::Moons {
                samples: samples.min(160),
                noise,
            },
            TaskKind::Digits { per_class } => TaskKind::Digits {
                per_class: per_class.min(6),
            },
            TaskKind::Shapes { per_class } => TaskKind::Shapes {
                per_class: per_class.min(6),
            },
        };
        sc
    }

    /// Builds the JSON form of the scenario (stable key order).
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        obj.insert("name", self.name.as_str());
        obj.insert(
            "faults",
            Value::Array(
                self.faults
                    .iter()
                    .map(|f| Value::String(f.to_string()))
                    .collect(),
            ),
        );
        obj.insert("task", self.task.to_json());
        obj.insert("space", self.space.as_str());
        obj.insert("trials", self.trials);
        obj.insert("mc_samples", self.mc_samples);
        obj.insert("epochs_per_trial", self.epochs_per_trial);
        obj.insert("final_epochs", self.final_epochs);
        obj.insert("seed", self.seed);
        obj
    }

    /// Parses a scenario from its JSON form. Budgets, task, space, and
    /// seed are optional (defaults apply); `name` and `faults` are
    /// required; unknown keys are rejected so config typos fail loudly.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Parse`] on malformed structure and
    /// [`CampaignError::Fault`] on a bad fault spec.
    pub fn from_json(value: &Value) -> Result<Self, CampaignError> {
        let entries = value
            .as_object()
            .ok_or_else(|| CampaignError::Parse("scenario must be a JSON object".into()))?;
        const KNOWN: [&str; 9] = [
            "name",
            "faults",
            "task",
            "space",
            "trials",
            "mc_samples",
            "epochs_per_trial",
            "final_epochs",
            "seed",
        ];
        for (key, _) in entries {
            if !KNOWN.contains(&key.as_str()) {
                return Err(CampaignError::Parse(format!(
                    "unknown scenario field '{key}'"
                )));
            }
        }
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| CampaignError::Parse("scenario needs a string 'name'".into()))?
            .to_string();
        let fault_values = value
            .get("faults")
            .and_then(Value::as_array)
            .ok_or_else(|| CampaignError::Parse(format!("scenario '{name}' needs 'faults'")))?;
        let mut faults = Vec::with_capacity(fault_values.len());
        for fv in fault_values {
            let s = fv.as_str().ok_or_else(|| {
                CampaignError::Parse(format!("scenario '{name}': faults must be strings"))
            })?;
            faults.push(s.parse::<FaultSpec>().map_err(CampaignError::Fault)?);
        }
        let defaults = Scenario::new(name.clone(), Vec::new());
        let scenario = Scenario {
            name,
            faults,
            task: match value.get("task") {
                Some(t) => TaskKind::from_json(t)?,
                None => TaskKind::default(),
            },
            space: match value.get("space") {
                Some(s) => SpaceKind::from_str(
                    s.as_str()
                        .ok_or_else(|| CampaignError::Parse("'space' must be a string".into()))?,
                )?,
                None => SpaceKind::default(),
            },
            trials: get_usize(value, "trials")?.unwrap_or(defaults.trials),
            mc_samples: get_usize(value, "mc_samples")?.unwrap_or(defaults.mc_samples),
            epochs_per_trial: get_usize(value, "epochs_per_trial")?
                .unwrap_or(defaults.epochs_per_trial),
            final_epochs: get_usize(value, "final_epochs")?.unwrap_or(defaults.final_epochs),
            seed: get_u64(value, "seed")?.unwrap_or(0),
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Content digest (16 hex chars) of everything that determines the
    /// scenario's results: fault mix, task, space, and budgets. The name
    /// (pure labeling) and the seed (tracked separately) are excluded —
    /// `(seed, digest)` is the memoization key of
    /// [`CampaignRunner`](crate::CampaignRunner) and the grouping key of
    /// `campaign compare`.
    pub fn digest(&self) -> String {
        let mut json = self.to_json();
        if let Value::Object(entries) = &mut json {
            entries.retain(|(k, _)| k != "seed" && k != "name");
        }
        format!("{:016x}", fnv1a(serde_json::to_string(&json).as_bytes()))
    }
}

/// FNV-1a 64-bit hash; stable across platforms and runs, which is all a
/// content digest needs (no cryptographic claims).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A named collection of scenarios plus an optional default store path.
///
/// # Example
///
/// ```
/// use scenarios::Campaign;
///
/// let json = r#"{
///   "name": "demo",
///   "scenarios": [
///     {"name": "baseline", "faults": ["lognormal:0.3"], "seed": 1},
///     {"name": "defects",  "faults": ["stuckat:0.02"],  "seed": 1}
///   ]
/// }"#;
/// let campaign = Campaign::from_json_str(json).unwrap();
/// assert_eq!(campaign.scenarios.len(), 2);
/// let reparsed = Campaign::from_json_str(&campaign.to_json_string()).unwrap();
/// assert_eq!(reparsed, campaign);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name, recorded with every stored result.
    pub name: String,
    /// Default JSONL store path (CLI `--store` overrides it).
    pub store: Option<String>,
    /// The scenarios to run, in order.
    pub scenarios: Vec<Scenario>,
}

impl Campaign {
    /// Creates a campaign with no default store path.
    pub fn new(name: impl Into<String>, scenarios: Vec<Scenario>) -> Self {
        Campaign {
            name: name.into(),
            store: None,
            scenarios,
        }
    }

    /// Builds the JSON form of the campaign (stable key order).
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        obj.insert("name", self.name.as_str());
        if let Some(store) = &self.store {
            obj.insert("store", store.as_str());
        }
        obj.insert(
            "scenarios",
            Value::Array(self.scenarios.iter().map(Scenario::to_json).collect()),
        );
        obj
    }

    /// Compact JSON string of the campaign.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_json())
    }

    /// Pretty JSON string of the campaign.
    pub fn to_json_string_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_json())
    }

    /// Parses a campaign from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Parse`] on malformed structure (including
    /// unknown fields and an empty scenario list) and propagates scenario
    /// errors.
    pub fn from_json(value: &Value) -> Result<Self, CampaignError> {
        let entries = value
            .as_object()
            .ok_or_else(|| CampaignError::Parse("campaign must be a JSON object".into()))?;
        for (key, _) in entries {
            if !["name", "store", "scenarios"].contains(&key.as_str()) {
                return Err(CampaignError::Parse(format!(
                    "unknown campaign field '{key}'"
                )));
            }
        }
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| CampaignError::Parse("campaign needs a string 'name'".into()))?
            .to_string();
        let store = match value.get("store") {
            None => None,
            Some(s) => Some(
                s.as_str()
                    .ok_or_else(|| CampaignError::Parse("'store' must be a string".into()))?
                    .to_string(),
            ),
        };
        let scenario_values = value
            .get("scenarios")
            .and_then(Value::as_array)
            .ok_or_else(|| CampaignError::Parse("campaign needs a 'scenarios' array".into()))?;
        if scenario_values.is_empty() {
            return Err(CampaignError::Parse(
                "campaign has no scenarios to run".into(),
            ));
        }
        let scenarios = scenario_values
            .iter()
            .map(Scenario::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Campaign {
            name,
            store,
            scenarios,
        })
    }

    /// Parses a campaign from JSON text (e.g. a `campaign.json` file).
    ///
    /// # Errors
    ///
    /// Same as [`Campaign::from_json`], plus JSON syntax errors.
    pub fn from_json_str(text: &str) -> Result<Self, CampaignError> {
        let value = serde_json::from_str(text).map_err(|e| CampaignError::Parse(e.to_string()))?;
        Campaign::from_json(&value)
    }
}

fn get_usize(value: &Value, key: &str) -> Result<Option<usize>, CampaignError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n as usize)),
            None => Err(CampaignError::Parse(format!(
                "'{key}' must be a non-negative integer"
            ))),
        },
    }
}

fn get_u64(value: &Value, key: &str) -> Result<Option<u64>, CampaignError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| CampaignError::Parse(format!("'{key}' must be a non-negative integer"))),
    }
}

fn get_f32(value: &Value, key: &str) -> Result<Option<f32>, CampaignError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(|n| Some(n as f32))
            .ok_or_else(|| CampaignError::Parse(format!("'{key}' must be a number"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario() -> Scenario {
        Scenario::new(
            "mixed",
            vec![
                "lognormal:0.3".parse().unwrap(),
                "quantize:16+stuckat:0.01".parse().unwrap(),
            ],
        )
        .seed(7)
        .task(TaskKind::Digits { per_class: 8 })
        .space(SpaceKind::Shared)
        .budgets(5, 3, 2, 3)
    }

    #[test]
    fn scenario_json_round_trips() {
        let sc = sample_scenario();
        let back = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.digest(), sc.digest());
    }

    #[test]
    fn defaults_fill_in_missing_fields() {
        let v = serde_json::from_str(r#"{"name":"minimal","faults":["lognormal:0.5"]}"#).unwrap();
        let sc = Scenario::from_json(&v).unwrap();
        assert_eq!(sc.task, TaskKind::default());
        assert_eq!(sc.space, SpaceKind::PerLayer);
        assert_eq!(sc.seed, 0);
        assert_eq!(sc.trials, 6);
    }

    #[test]
    fn digest_ignores_seed_but_tracks_content() {
        let a = sample_scenario();
        let b = sample_scenario().seed(99);
        assert_eq!(a.digest(), b.digest(), "seed must not affect the digest");
        let mut c = sample_scenario();
        c.mc_samples += 1;
        assert_ne!(a.digest(), c.digest(), "budget change must change digest");
        let mut d = sample_scenario();
        d.faults.pop();
        assert_ne!(a.digest(), d.digest(), "fault change must change digest");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let v = serde_json::from_str(r#"{"name":"x","faults":["lognormal:0.5"],"mc_smaples":4}"#)
            .unwrap();
        let err = Scenario::from_json(&v).unwrap_err();
        assert!(err.to_string().contains("mc_smaples"), "{err}");
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        for bad in [
            r#"{"name":"x","faults":[]}"#,
            r#"{"name":"x","faults":["lognormal:0.3"],"trials":0}"#,
            r#"{"name":"x","faults":["lognormal:-1"]}"#,
            r#"{"name":"x","faults":["lognormal:0.3"],"task":{"kind":"mnist"}}"#,
            r#"{"name":"x","faults":["lognormal:0.3"],"space":"global"}"#,
            r#"{"name":"","faults":["lognormal:0.3"]}"#,
            r#"{"name":"x","faults":["lognormal:0.3"],"seed":-1}"#,
            r#"{"name":"x","faults":["lognormal:0.3"],"task":{"kind":"moons","samples":4}}"#,
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(Scenario::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn campaign_round_trips_with_store() {
        let mut campaign = Campaign::new("demo", vec![sample_scenario()]);
        campaign.store = Some("out/results.jsonl".into());
        let back = Campaign::from_json_str(&campaign.to_json_string_pretty()).unwrap();
        assert_eq!(back, campaign);
    }

    #[test]
    fn empty_campaigns_are_rejected() {
        assert!(Campaign::from_json_str(r#"{"name":"x","scenarios":[]}"#).is_err());
        assert!(Campaign::from_json_str("not json").is_err());
        assert!(Campaign::from_json_str(r#"{"name":"x"}"#).is_err());
    }

    #[test]
    fn quick_clamp_shrinks_budgets_and_changes_digest() {
        let sc = sample_scenario();
        let quick = sc.clamped_quick();
        assert!(quick.trials <= 3 && quick.mc_samples <= 2);
        assert_ne!(sc.digest(), quick.digest());
        // Clamping an already-small scenario is the identity.
        let small = Scenario::new("s", vec!["lognormal:0.2".parse().unwrap()])
            .budgets(2, 1, 1, 1)
            .task(TaskKind::Moons {
                samples: 100,
                noise: 0.1,
            });
        assert_eq!(small.clamped_quick(), small);
    }
}
