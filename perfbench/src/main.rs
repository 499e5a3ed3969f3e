//! End-to-end and per-layer benchmark of the BayesFT search loop.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats one workload (set-up, then the timed body) until `--seconds`
//! have passed, checks that every repeat computed the same result digest
//! (and, for pinned seeds, the reference digest), and prints one JSON
//! object as the last line of stdout. `--trace 0` reports the end-to-end
//! metrics of untraced repeats. `--trace 1` alternates untraced and
//! traced repeats, reports the per-layer metrics of the traced ones, and
//! writes a Chrome trace of the first traced repeat plus its per-span
//! self-time table. Scratch files (campaign stores, traces) go under
//! `.bench_work` in the working directory.

mod alloc;
mod probe;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use alloc::AllocCount;
use serde_json::Value;
use workloads::{Repeat, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Scratch directory, relative to the working directory.
const WORKDIR: &str = ".bench_work";
/// Repeats measured at the least, however long they take.
const MIN_REPEATS: usize = 3;
/// Workload self-checks: the stage share each engine workload exists for.
const MIN_EVAL_SHARE: f64 = 0.6;
const MIN_TRAIN_SHARE: f64 = 0.6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Registry histograms the traced run reads as per-repeat deltas.
const HISTOGRAMS: [&str; 15] = [
    "tensor_gemm_seconds",
    "tensor_im2col_seconds",
    "tensor_col2im_seconds",
    "bayesopt_gp_fit_seconds",
    "bayesopt_acquisition_seconds",
    "store_append_seconds",
    "store_fsync_seconds",
    "campaign_scenario_seconds",
    "bench_nn_forward_train_seconds",
    "bench_nn_forward_eval_seconds",
    "bench_nn_backward_seconds",
    "bench_nn_visit_params_train_seconds",
    "bench_reram_inject_seconds",
    "bench_core_evaluate_seconds",
    "bench_scenarios_compact_seconds",
];
const COUNTERS: [&str; 3] = [
    "bench_reram_perturbed_scalars_total",
    "bench_core_eval_allocs_total",
    "bench_core_eval_alloc_bytes_total",
];

/// Sums and counts of [`HISTOGRAMS`] and values of [`COUNTERS`].
#[derive(Default)]
struct Registry {
    sums: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Registry {
    fn read() -> Self {
        let mut reg = Registry::default();
        for name in HISTOGRAMS {
            let h = telemetry::histogram(name, telemetry::DURATION_SECONDS_BUCKETS);
            reg.sums.insert(name, h.sum());
            reg.counts.insert(name, h.count() as f64);
        }
        for name in COUNTERS {
            reg.counts
                .insert(name, telemetry::counter(name).get() as f64);
        }
        reg
    }

    fn since(&self, earlier: &Registry) -> Registry {
        let delta = |now: &BTreeMap<&'static str, f64>, then: &BTreeMap<&'static str, f64>| {
            now.iter().map(|(k, v)| (*k, v - then[k])).collect()
        };
        Registry {
            sums: delta(&self.sums, &earlier.sums),
            counts: delta(&self.counts, &earlier.counts),
        }
    }
}

/// One measured repeat.
struct Sample {
    setup_s: f64,
    wall_s: f64,
    allocs: AllocCount,
    repeat: Repeat,
    /// Registry deltas over the body, for traced repeats.
    layers: Option<Registry>,
}

fn measure(args: &Args, traced: bool, write_trace: Option<&PathBuf>) -> Result<Sample, String> {
    let start = Instant::now();
    let mut prepared = args.workload.setup(args.seed, traced, Path::new(WORKDIR))?;
    let setup_s = start.elapsed().as_secs_f64();
    if let Some(path) = write_trace {
        telemetry::install_trace(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let before_reg = traced.then(Registry::read);
    let before = AllocCount::now();
    let start = Instant::now();
    let repeat = {
        let _s = telemetry::Span::enter(
            "bench.repeat",
            telemetry::duration_histogram!("bench_repeat_seconds"),
        );
        prepared.run()
    };
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = AllocCount::now().since(before);
    let layers = before_reg.map(|b| Registry::read().since(&b));
    if write_trace.is_some() {
        telemetry::finish_trace().map_err(|e| format!("finishing trace: {e}"))?;
    }
    prepared.finish();
    Ok(Sample {
        setup_s,
        wall_s,
        allocs,
        repeat,
        layers,
    })
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let workdir = Path::new(WORKDIR);
    std::fs::create_dir_all(workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let name = args.workload.name();
    let trace_path = workdir.join(format!("trace-{name}-{}.json", args.seed));
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);

    // The warm-up repeat fills caches and fixes the digest every later
    // repeat must reproduce; it is checked but not timed.
    let warmup = measure(args, false, None)?;
    let expected = warmup.repeat.digest;
    let expected_objective = warmup.repeat.best_objective;
    let mut all = vec![warmup];
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        untraced.push(all.len());
        all.push(measure(args, false, None)?);
        if args.trace {
            let path = traced.is_empty().then_some(&trace_path);
            traced.push(all.len());
            all.push(measure(args, true, path)?);
        }
        if untraced.len() >= MIN_REPEATS && Instant::now() >= deadline {
            break;
        }
    }

    let pinned = reference::digest(name, args.seed);
    let pinned_ok = pinned.is_none_or(|d| d == expected);
    if !pinned_ok {
        eprintln!(
            "perfbench: {name} seed {} digest {expected:016x} differs from the pinned {:016x}",
            args.seed,
            pinned.unwrap_or_default()
        );
    }
    let mut attempted = 0usize;
    let mut failed = 0usize;
    for sample in &all {
        let r = &sample.repeat;
        attempted += r.attempted;
        failed += if r.digest != expected || !pinned_ok {
            r.attempted
        } else {
            r.failed
        };
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} of {attempted} runs failed or disagreed on the result");
    }
    self_check(args.workload, args.seed, &all)?;

    let pick = |idx: &[usize]| idx.iter().map(|&i| &all[i]).collect::<Vec<_>>();
    let untraced = pick(&untraced);
    let traced = pick(&traced);
    let values = |samples: &[&Sample], f: &dyn Fn(&Sample) -> f64| {
        samples.iter().map(|s| f(s)).collect::<Vec<_>>()
    };

    // Metrics are medians over repeats, except `wall_s`: host interference
    // on a shared machine only ever adds time, so the fastest repeat is
    // the steadiest estimate of what the body costs. stderr shows every
    // metric's per-repeat median and quartiles.
    let mut metrics = Value::object();
    let mut put = |metric: &str, unit: &str, repeats: &[f64], stat: fn(&[f64]) -> f64| {
        let value = stat(repeats);
        let (q1, q3) = stats::quartiles(repeats);
        let mut entry = Value::object();
        entry.insert("value", value);
        entry.insert("unit", unit);
        metrics.insert(metric, entry);
        eprintln!(
            "  {metric:<32} {value:>16.6} {unit:<8} repeats: median {:.6} [{q1:.6}, {q3:.6}]",
            stats::median(repeats)
        );
    };
    eprintln!(
        "perfbench {name} seed {} trace {}: {} untraced + {} traced repeats, digest {expected:016x}",
        args.seed,
        u8::from(args.trace),
        untraced.len(),
        traced.len()
    );
    if !args.trace {
        put(
            "setup_s",
            "s",
            &values(&untraced, &|s| s.setup_s),
            stats::median,
        );
        let walls = values(&untraced, &|s| s.wall_s);
        put("wall_s", "s", &walls, stats::min);
        let rss = alloc::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        put("peak_rss_mb", "MB", &[rss], stats::median);
        let allocs = values(&untraced, &|s| s.allocs.allocs as f64);
        put("alloc_count", "count", &allocs, stats::median);
        let bytes = values(&untraced, &|s| s.allocs.bytes as f64 / 1e6);
        put("alloc_mb", "MB", &bytes, stats::median);
        put(
            "best_objective",
            "accuracy",
            &[expected_objective],
            stats::median,
        );
    } else {
        for (metric, unit, f) in layer_metrics() {
            put(metric, unit, &values(&traced, &|s| f(s)), stats::median);
        }
        let overhead = stats::min(&values(&traced, &|s| s.wall_s))
            / stats::min(&values(&untraced, &|s| s.wall_s));
        put(
            "telemetry.trace_overhead_ratio",
            "ratio",
            &[overhead],
            stats::median,
        );
        let table = trace::render(&trace::self_times(trace::parse(
            &std::fs::read_to_string(&trace_path)
                .map_err(|e| format!("{}: {e}", trace_path.display()))?,
        )));
        let table_path = workdir.join(format!("selftime-{name}-{}.txt", args.seed));
        std::fs::write(&table_path, &table)
            .map_err(|e| format!("{}: {e}", table_path.display()))?;
        eprintln!(
            "self time of the first traced repeat ({}):\n{table}",
            trace_path.display()
        );
    }

    let mut line = Value::object();
    line.insert("correct", failed == 0);
    line.insert("attempted", attempted as u64);
    line.insert("failed", failed as u64);
    line.insert("metrics", metrics);
    Ok(serde_json::to_string(&line))
}

/// Fails loudly when a workload stops stressing the layer it exists for.
fn self_check(workload: Workload, seed: u64, all: &[Sample]) -> Result<(), String> {
    let share = |f: &dyn Fn(&Repeat) -> f64| {
        stats::median(
            &all.iter()
                .map(|s| f(&s.repeat) / s.repeat.timings.total_ms)
                .collect::<Vec<_>>(),
        )
    };
    match workload {
        Workload::MlpMoons => {
            let eval = share(&|r| r.timings.eval_ms);
            if eval < MIN_EVAL_SHARE {
                return Err(format!(
                    "self-check: eval is {:.0}% of engine time, below {:.0}%",
                    eval * 100.0,
                    MIN_EVAL_SHARE * 100.0
                ));
            }
        }
        Workload::LenetDigits => {
            let train = share(&|r| r.timings.train_ms + r.timings.finetune_ms);
            if train < MIN_TRAIN_SHARE {
                return Err(format!(
                    "self-check: train + finetune is {:.0}% of engine time, below {:.0}%",
                    train * 100.0,
                    MIN_TRAIN_SHARE * 100.0
                ));
            }
        }
        Workload::CampaignFaultMix => {
            let missing = workloads::missing_fault_families(&workloads::campaign(seed));
            if !missing.is_empty() {
                return Err(format!(
                    "self-check: the campaign misses fault families {missing:?}"
                ));
            }
            if let Some(s) = all.iter().find(|s| s.repeat.cache_hits == 0) {
                return Err(format!(
                    "self-check: a campaign repeat served no scenario from the memo cache ({} engine runs)",
                    s.repeat.engine_runs
                ));
            }
        }
    }
    Ok(())
}

type LayerMetric = (&'static str, &'static str, fn(&Sample) -> f64);

/// The per-layer metrics of a traced repeat, in `BENCHMARK.json` order.
/// Metrics a workload has no probe for read 0: the campaign builds its
/// own models, so `nn`, `reram` and the eval-allocation probes see
/// nothing there, and the `scenarios` layer is idle on engine workloads.
fn layer_metrics() -> Vec<LayerMetric> {
    fn sum(s: &Sample, name: &str) -> f64 {
        s.layers.as_ref().map_or(0.0, |l| l.sums[name])
    }
    fn count(s: &Sample, name: &str) -> f64 {
        s.layers.as_ref().map_or(0.0, |l| l.counts[name])
    }
    fn t(s: &Sample) -> bayesft::StageTimings {
        s.repeat.timings
    }
    vec![
        ("core.suggest_s", "s", |s| t(s).suggest_ms / 1e3),
        ("core.train_s", "s", |s| t(s).train_ms / 1e3),
        ("core.eval_s", "s", |s| t(s).eval_ms / 1e3),
        ("core.finetune_s", "s", |s| t(s).finetune_ms / 1e3),
        ("core.eval_ms_per_sample", "ms", |s| {
            t(s).eval_ms / s.repeat.mc_samples.max(1) as f64
        }),
        ("core.eval_allocs", "count", |s| {
            count(s, "bench_core_eval_allocs_total")
        }),
        ("core.eval_alloc_mb", "MB", |s| {
            count(s, "bench_core_eval_alloc_bytes_total") / 1e6
        }),
        ("core.eval_self_s", "s", |s| {
            sum(s, "bench_core_evaluate_seconds")
                - sum(s, "bench_nn_forward_eval_seconds")
                - sum(s, "bench_reram_inject_seconds")
        }),
        ("nn.forward_train_s", "s", |s| {
            sum(s, "bench_nn_forward_train_seconds")
        }),
        ("nn.forward_eval_s", "s", |s| {
            sum(s, "bench_nn_forward_eval_seconds")
        }),
        ("nn.backward_s", "s", |s| {
            sum(s, "bench_nn_backward_seconds")
        }),
        ("nn.forward_eval_calls", "count", |s| {
            count(s, "bench_nn_forward_eval_seconds")
        }),
        ("nn.backward_calls", "count", |s| {
            count(s, "bench_nn_backward_seconds")
        }),
        ("reram.inject_s", "s", |s| {
            sum(s, "bench_reram_inject_seconds")
        }),
        ("reram.perturbed_scalars", "count", |s| {
            count(s, "bench_reram_perturbed_scalars_total")
        }),
        ("tensor.gemm_s", "s", |s| sum(s, "tensor_gemm_seconds")),
        ("tensor.gemm_calls", "count", |s| {
            count(s, "tensor_gemm_seconds")
        }),
        ("tensor.im2col_s", "s", |s| sum(s, "tensor_im2col_seconds")),
        ("tensor.col2im_s", "s", |s| sum(s, "tensor_col2im_seconds")),
        ("bayesopt.gp_fit_s", "s", |s| {
            sum(s, "bayesopt_gp_fit_seconds")
        }),
        ("bayesopt.acquisition_s", "s", |s| {
            sum(s, "bayesopt_acquisition_seconds")
        }),
        ("baselines.train_self_s", "s", |s| {
            // Only where the model is probed: the campaign's is not.
            if count(s, "bench_nn_forward_train_seconds") == 0.0 {
                return 0.0;
            }
            (t(s).train_ms + t(s).finetune_ms) / 1e3
                - sum(s, "bench_nn_forward_train_seconds")
                - sum(s, "bench_nn_backward_seconds")
                - sum(s, "bench_nn_visit_params_train_seconds")
        }),
        ("scenarios.engine_runs", "count", |s| {
            s.repeat.engine_runs as f64
        }),
        ("scenarios.cache_hits", "count", |s| {
            s.repeat.cache_hits as f64
        }),
        ("scenarios.cache_hit_ratio", "ratio", |s| {
            s.repeat.cache_hits as f64 / s.repeat.attempted.max(1) as f64
        }),
        ("scenarios.scenario_s", "s", |s| {
            sum(s, "campaign_scenario_seconds")
        }),
        ("scenarios.store_append_s", "s", |s| {
            sum(s, "store_append_seconds")
        }),
        ("scenarios.store_fsync_s", "s", |s| {
            sum(s, "store_fsync_seconds")
        }),
        ("scenarios.compact_s", "s", |s| {
            sum(s, "bench_scenarios_compact_seconds")
        }),
    ]
}
