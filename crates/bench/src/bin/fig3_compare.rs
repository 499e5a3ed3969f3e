//! Fig. 3(a–i): five-method comparison (ERM, FTNA, ReRAM-V, AWP, BayesFT)
//! across models and tasks.
//!
//! Run: `cargo run --release -p bench --bin fig3_compare -- <panel>` where
//! `<panel>` is one of:
//! `mlp-digits` (3a), `lenet-digits` (3b), `alexnet-shapes` (3c),
//! `resnet18-shapes` (3d), `vgg11-shapes` (3e), `preact18-shapes` (3f),
//! `preact50-shapes` (3g), `preact152-shapes` (3h), `stn-signs` (3i),
//! or `all`.

use bench::{compare_methods, make_task, Scale};
use models::ModelKind;

fn panel(name: &str) -> Option<(ModelKind, &'static str, bool)> {
    // (model, task, include_ftna)
    Some(match name {
        "mlp-digits" => (ModelKind::Mlp, "digits", true),
        "lenet-digits" => (ModelKind::LeNet5, "digits", true),
        "alexnet-shapes" => (ModelKind::AlexNet, "shapes", true),
        "resnet18-shapes" => (ModelKind::ResNet18, "shapes", true),
        "vgg11-shapes" => (ModelKind::Vgg11, "shapes", true),
        "preact18-shapes" => (ModelKind::PreAct18, "shapes", true),
        "preact50-shapes" => (ModelKind::PreAct50, "shapes", true),
        "preact152-shapes" => (ModelKind::PreAct152, "shapes", true),
        // Fig. 3(i): the paper omits FTNA on GTSRB.
        "stn-signs" => (ModelKind::Stn, "signs", false),
        _ => return None,
    })
}

const ALL: [&str; 9] = [
    "mlp-digits",
    "lenet-digits",
    "alexnet-shapes",
    "resnet18-shapes",
    "vgg11-shapes",
    "preact18-shapes",
    "preact50-shapes",
    "preact152-shapes",
    "stn-signs",
];

fn run(name: &str, scale: Scale) {
    let Some((kind, task_name, include_ftna)) = panel(name) else {
        eprintln!("unknown panel {name:?}; options: {ALL:?} or all");
        std::process::exit(2);
    };
    eprintln!("== {name} ==");
    let task = make_task(task_name, scale, 11);
    let table = compare_methods(kind, &task, scale, include_ftna);
    println!("{table}");
}

fn main() {
    let scale = Scale::from_env();
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "mlp-digits".into());
    if which == "all" {
        for name in ALL {
            run(name, scale);
        }
    } else {
        run(&which, scale);
    }
}
