//! Structured, serializable record of one engine run.

use serde_json::Value;

/// One completed search trial, as recorded in a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Zero-based trial index.
    pub trial: usize,
    /// Architecture coordinates in the unit cube.
    pub alpha: Vec<f64>,
    /// Monte-Carlo objective value (mean).
    pub objective: f64,
    /// Objective standard deviation across MC samples.
    pub objective_std: f64,
}

/// Wall-clock spent in each stage of a run, in milliseconds.
///
/// Timings are measurements, not results: two runs of the same seed produce
/// identical trials but different timings, which is why
/// [`RunReport::deterministic_eq`] ignores this struct.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Bayesian-optimization suggestion (GP fit + acquisition argmax).
    pub suggest_ms: f64,
    /// Weight training across all trials.
    pub train_ms: f64,
    /// Monte-Carlo objective evaluation across all trials (the Eq. 4 hot
    /// path the engine parallelizes).
    pub eval_ms: f64,
    /// Final fine-tuning after the best architecture is locked in.
    pub finetune_ms: f64,
    /// End-to-end run time.
    pub total_ms: f64,
}

/// Which campaign scenario produced a report, when the engine was driven
/// by a scenario runner rather than called directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioMeta {
    /// Human-readable scenario name from the campaign file.
    pub name: String,
    /// Content digest of the scenario spec (hex), the memoization key
    /// alongside the seed.
    pub digest: String,
    /// Campaign-level progress coordinates: `(index, total)` — this
    /// scenario's zero-based position in its campaign and the campaign's
    /// scenario count. `None` for standalone scenario runs.
    pub position: Option<(usize, usize)>,
}

/// Everything a finished search produced, minus the trained model itself.
///
/// Serializes to JSON via [`RunReport::to_json`] for downstream tooling;
/// object key order is fixed, so equal reports serialize to equal strings.
///
/// # Example
///
/// ```
/// use bayesft::{RunReport, StageTimings, TrialRecord};
///
/// let report = RunReport {
///     space: "per_layer".into(),
///     objective: "drift[log_normal]x4".into(),
///     dim: 2,
///     seed: 7,
///     parallelism: 1,
///     trials: vec![TrialRecord { trial: 0, alpha: vec![0.5, 0.25], objective: 0.9, objective_std: 0.01 }],
///     best_alpha: vec![0.5, 0.25],
///     best_objective: 0.9,
///     timings: StageTimings::default(),
///     scenario: None,
/// };
/// let json = report.to_json_string();
/// assert!(json.contains("\"best_alpha\":[0.5,0.25]"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Label of the search space ([`DropoutSearchSpace::label`](crate::DropoutSearchSpace::label)).
    pub space: String,
    /// Label of the objective ([`Objective::label`](crate::Objective::label)).
    pub objective: String,
    /// Search-space dimensionality.
    pub dim: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Monte-Carlo worker threads used.
    pub parallelism: usize,
    /// Full trial history, in order.
    pub trials: Vec<TrialRecord>,
    /// Best architecture coordinates found.
    pub best_alpha: Vec<f64>,
    /// Objective value of the best trial.
    pub best_objective: f64,
    /// Per-stage wall-clock breakdown.
    pub timings: StageTimings,
    /// Campaign scenario that requested this run, if any (`None` for
    /// direct [`Engine`](crate::Engine) calls).
    pub scenario: Option<ScenarioMeta>,
}

impl RunReport {
    /// Tags the report with the campaign scenario that produced it.
    pub fn with_scenario(mut self, name: impl Into<String>, digest: impl Into<String>) -> Self {
        self.scenario = Some(ScenarioMeta {
            name: name.into(),
            digest: digest.into(),
            position: None,
        });
        self
    }

    /// Tags the report's scenario metadata with its campaign position
    /// (`index` of `total`). No-op on untagged reports.
    pub fn with_campaign_position(mut self, index: usize, total: usize) -> Self {
        if let Some(meta) = &mut self.scenario {
            meta.position = Some((index, total));
        }
        self
    }

    /// Builds the JSON tree of the report.
    pub fn to_json(&self) -> Value {
        let mut root = Value::object();
        if let Some(meta) = &self.scenario {
            root.insert("scenario", meta.name.as_str());
            root.insert("scenario_digest", meta.digest.as_str());
            if let Some((index, total)) = meta.position {
                root.insert("scenario_index", index);
                root.insert("scenario_total", total);
            }
        }
        root.insert("space", self.space.as_str());
        root.insert("objective", self.objective.as_str());
        root.insert("dim", self.dim);
        root.insert("seed", self.seed);
        root.insert("parallelism", self.parallelism);
        root.insert(
            "trials",
            Value::Array(
                self.trials
                    .iter()
                    .map(|t| {
                        let mut obj = Value::object();
                        obj.insert("trial", t.trial);
                        obj.insert("alpha", t.alpha.clone());
                        obj.insert("objective", t.objective);
                        obj.insert("objective_std", t.objective_std);
                        obj
                    })
                    .collect(),
            ),
        );
        root.insert("best_alpha", self.best_alpha.clone());
        root.insert("best_objective", self.best_objective);
        let mut timings = Value::object();
        timings.insert("suggest_ms", self.timings.suggest_ms);
        timings.insert("train_ms", self.timings.train_ms);
        timings.insert("eval_ms", self.timings.eval_ms);
        timings.insert("finetune_ms", self.timings.finetune_ms);
        timings.insert("total_ms", self.timings.total_ms);
        root.insert("timings", timings);
        root
    }

    /// Compact JSON string of the report.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_json())
    }

    /// Pretty-printed JSON string of the report.
    pub fn to_json_string_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_json())
    }

    /// Parses a report back from its [`RunReport::to_json`] form — the
    /// inverse used by resumable campaign stores to serve a persisted run
    /// without recomputing it. Round-trips every field, including the
    /// scenario tag and timings.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let text = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report is missing string '{key}'"))
        };
        // The serializer writes non-finite f64s as JSON `null` (a diverged
        // search can legitimately report a NaN objective), so `null` reads
        // back as NaN here: stored NaN campaigns replay under `--resume`
        // instead of recomputing with a warning.
        let num = |v: &Value, what: &str| -> Result<f64, String> {
            match v {
                Value::Null => Ok(f64::NAN),
                _ => v.as_f64().ok_or_else(|| format!("non-numeric {what}")),
            }
        };
        let field_num = |key: &str| -> Result<f64, String> {
            num(
                value
                    .get(key)
                    .ok_or_else(|| format!("report is missing '{key}'"))?,
                key,
            )
        };
        let f64_vec = |v: &Value, what: &str| -> Result<Vec<f64>, String> {
            v.as_array()
                .ok_or_else(|| format!("{what} must be an array"))?
                .iter()
                .map(|x| num(x, what))
                .collect()
        };
        let scenario = match value.get("scenario") {
            None => None,
            Some(name) => {
                let name = name
                    .as_str()
                    .ok_or_else(|| "non-string 'scenario'".to_string())?;
                let position = match (value.get("scenario_index"), value.get("scenario_total")) {
                    (Some(i), Some(t)) => Some((
                        i.as_u64().ok_or("non-integer 'scenario_index'")? as usize,
                        t.as_u64().ok_or("non-integer 'scenario_total'")? as usize,
                    )),
                    _ => None,
                };
                Some(ScenarioMeta {
                    name: name.to_string(),
                    digest: text("scenario_digest")?,
                    position,
                })
            }
        };
        let trials = value
            .get("trials")
            .and_then(Value::as_array)
            .ok_or("report is missing 'trials'")?
            .iter()
            .map(|t| {
                Ok(TrialRecord {
                    trial: t
                        .get("trial")
                        .and_then(Value::as_u64)
                        .ok_or("trial record is missing 'trial'")?
                        as usize,
                    alpha: f64_vec(
                        t.get("alpha").ok_or("trial record is missing 'alpha'")?,
                        "alpha",
                    )?,
                    objective: num(
                        t.get("objective")
                            .ok_or("trial record is missing 'objective'")?,
                        "objective",
                    )?,
                    objective_std: num(
                        t.get("objective_std")
                            .ok_or("trial record is missing 'objective_std'")?,
                        "objective_std",
                    )?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let timings = match value.get("timings") {
            None => StageTimings::default(),
            Some(t) => StageTimings {
                suggest_ms: num(
                    t.get("suggest_ms").unwrap_or(&Value::Number(0.0)),
                    "suggest_ms",
                )?,
                train_ms: num(t.get("train_ms").unwrap_or(&Value::Number(0.0)), "train_ms")?,
                eval_ms: num(t.get("eval_ms").unwrap_or(&Value::Number(0.0)), "eval_ms")?,
                finetune_ms: num(
                    t.get("finetune_ms").unwrap_or(&Value::Number(0.0)),
                    "finetune_ms",
                )?,
                total_ms: num(t.get("total_ms").unwrap_or(&Value::Number(0.0)), "total_ms")?,
            },
        };
        Ok(RunReport {
            space: text("space")?,
            objective: text("objective")?,
            dim: value
                .get("dim")
                .and_then(Value::as_u64)
                .ok_or("report is missing 'dim'")? as usize,
            seed: value
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or("report is missing 'seed'")?,
            parallelism: value
                .get("parallelism")
                .and_then(Value::as_u64)
                .unwrap_or(1) as usize,
            trials,
            best_alpha: f64_vec(
                value
                    .get("best_alpha")
                    .ok_or("report is missing 'best_alpha'")?,
                "best_alpha",
            )?,
            best_objective: field_num("best_objective")?,
            timings,
            scenario,
        })
    }

    /// Equality over everything the search *computed* — trials, best
    /// vector, labels, seed — ignoring wall-clock timings and the worker
    /// count that produced them.
    ///
    /// This is the relation the engine's determinism guarantee is stated
    /// in: serial and parallel runs of the same seed are
    /// `deterministic_eq`, never `==` (their timings differ).
    pub fn deterministic_eq(&self, other: &RunReport) -> bool {
        self.space == other.space
            && self.objective == other.objective
            && self.dim == other.dim
            && self.seed == other.seed
            && self.trials == other.trials
            && self.best_alpha == other.best_alpha
            && self.best_objective == other.best_objective
            && self.scenario == other.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            space: "per_layer".into(),
            objective: "drift[log_normal]x2".into(),
            dim: 2,
            seed: 3,
            parallelism: 4,
            trials: vec![
                TrialRecord {
                    trial: 0,
                    alpha: vec![0.1, 0.9],
                    objective: 0.8,
                    objective_std: 0.02,
                },
                TrialRecord {
                    trial: 1,
                    alpha: vec![0.3, 0.4],
                    objective: 0.85,
                    objective_std: 0.01,
                },
            ],
            best_alpha: vec![0.3, 0.4],
            best_objective: 0.85,
            timings: StageTimings {
                suggest_ms: 1.0,
                train_ms: 10.0,
                eval_ms: 5.0,
                finetune_ms: 3.0,
                total_ms: 19.5,
            },
            scenario: None,
        }
    }

    #[test]
    fn json_contains_all_sections() {
        let json = sample().to_json();
        assert_eq!(json.get("dim").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            json.get("trials")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
        assert!(json.get("timings").is_some());
        let s = sample().to_json_string();
        assert!(s.contains("\"best_objective\":0.85"), "{s}");
    }

    #[test]
    fn equal_reports_serialize_identically() {
        assert_eq!(sample().to_json_string(), sample().to_json_string());
    }

    #[test]
    fn deterministic_eq_ignores_timings_and_parallelism() {
        let a = sample();
        let mut b = sample();
        b.parallelism = 1;
        b.timings = StageTimings::default();
        assert_ne!(a, b);
        assert!(a.deterministic_eq(&b));
        let mut c = sample();
        c.best_objective = 0.9;
        assert!(!a.deterministic_eq(&c));
    }

    #[test]
    fn report_json_round_trips_exactly() {
        let original = sample().with_scenario("rt", "feedbeef");
        let back = RunReport::from_json(&original.to_json()).unwrap();
        assert_eq!(back, original, "lossless round-trip, timings included");
        // And through text, the way a result store replays it.
        let reparsed = serde_json::from_str(&original.to_json_string()).unwrap();
        assert_eq!(RunReport::from_json(&reparsed).unwrap(), original);
    }

    #[test]
    fn from_json_tolerates_stripped_measurement_fields() {
        // Compacted stores drop timings/parallelism; the parse defaults
        // them instead of failing.
        let mut json = sample().to_json();
        if let Value::Object(entries) = &mut json {
            entries.retain(|(k, _)| k != "timings" && k != "parallelism");
        }
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.timings, StageTimings::default());
        assert_eq!(back.parallelism, 1);
        assert!(sample().deterministic_eq(&back));
    }

    #[test]
    fn nan_results_round_trip_as_json_null() {
        let mut report = sample().with_scenario("diverged", "dead00");
        report.best_objective = f64::NAN;
        report.best_alpha = vec![0.25, f64::NAN];
        report.trials[1].objective = f64::NAN;
        let json = report.to_json_string();
        assert!(json.contains("\"best_objective\":null"), "{json}");
        assert!(json.contains("\"best_alpha\":[0.25,null]"), "{json}");
        let back = RunReport::from_json(&serde_json::from_str(&json).unwrap()).unwrap();
        assert!(back.best_objective.is_nan());
        assert_eq!(back.best_alpha[0], 0.25);
        assert!(back.best_alpha[1].is_nan());
        assert!(back.trials[1].objective.is_nan());
        assert_eq!(back.scenario, report.scenario);
    }

    #[test]
    fn from_json_rejects_missing_required_fields() {
        let mut json = sample().to_json();
        if let Value::Object(entries) = &mut json {
            entries.retain(|(k, _)| k != "best_alpha");
        }
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.contains("best_alpha"), "{err}");
    }

    #[test]
    fn campaign_position_serializes_and_round_trips() {
        let tagged = sample()
            .with_scenario("pos", "c0ffee")
            .with_campaign_position(2, 5);
        let json = tagged.to_json_string();
        assert!(json.contains("\"scenario_index\":2"), "{json}");
        assert!(json.contains("\"scenario_total\":5"), "{json}");
        let back = RunReport::from_json(&tagged.to_json()).unwrap();
        assert_eq!(back.scenario.as_ref().unwrap().position, Some((2, 5)));
        // Position is part of the deterministic content.
        assert!(!tagged.deterministic_eq(&sample().with_scenario("pos", "c0ffee")));
        // Untagged reports ignore the position tag.
        assert!(sample().with_campaign_position(0, 1).scenario.is_none());
    }

    #[test]
    fn scenario_metadata_serializes_and_distinguishes_reports() {
        let plain = sample();
        assert!(plain.to_json().get("scenario").is_none());
        let tagged = sample().with_scenario("stuckat-sweep", "a1b2c3");
        let json = tagged.to_json_string();
        assert!(json.contains("\"scenario\":\"stuckat-sweep\""), "{json}");
        assert!(json.contains("\"scenario_digest\":\"a1b2c3\""), "{json}");
        assert!(!plain.deterministic_eq(&tagged));
        assert!(tagged.deterministic_eq(&sample().with_scenario("stuckat-sweep", "a1b2c3")));
    }
}
