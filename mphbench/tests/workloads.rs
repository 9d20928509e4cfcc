//! The benchmark's own tests, on reduced-size inputs: every named metric
//! is reported, the virtual clock repeats exactly for one seed, and a
//! traced run reproduces an untraced run's virtual-clock metrics.

use mphbench::metrics::{self, Better, Values, END_TO_END, PER_LAYER};
use mphbench::runner::{run, RunConfig, RunOutcome};
use mphbench::workloads::{Scale, Workload};
use std::path::PathBuf;

fn reduced(workload: Workload, seed: u64, trace: bool) -> RunOutcome {
    let out = run(&RunConfig {
        workload,
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::Reduced,
        span_dir: trace.then(|| PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("mphbench-spans")),
    });
    assert_eq!(out.failed, 0, "{} failed: {:?}", workload.name(), out.notes);
    assert!(out.attempted >= 1);
    out
}

fn assert_same(a: &Values, b: &Values, what: &str) {
    assert!(!a.is_empty());
    for (name, x) in a {
        let y = b.get(name).unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name} {x} != {y}");
    }
}

#[test]
fn every_named_metric_is_reported_finite_with_unit_and_direction() {
    for workload in Workload::ALL {
        for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = reduced(workload, 3, trace);
            assert_eq!(
                metrics::missing(catalogue, &out.values),
                Vec::<&str>::new(),
                "{}",
                workload.name()
            );
            for d in catalogue {
                assert!(!d.unit.is_empty(), "{} has a unit", d.name);
                assert!(matches!(d.better, Better::Lower | Better::Higher));
            }
            let line =
                metrics::result_line(true, out.attempted, out.failed, catalogue, &out.values);
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", catalogue[0].name)));
        }
    }
}

#[test]
fn end_to_end_metrics_are_positive() {
    for workload in Workload::ALL {
        let out = reduced(workload, 5, false);
        for d in END_TO_END {
            assert!(
                out.values[d.name] > 0.0,
                "{}: {} = {}",
                workload.name(),
                d.name,
                out.values[d.name]
            );
        }
    }
}

#[test]
fn virtual_clock_metrics_and_counts_repeat_for_one_seed() {
    for workload in Workload::ALL {
        let first = reduced(workload, 11, false);
        let second = reduced(workload, 11, false);
        assert_same(&first.virtuals, &second.virtuals, workload.name());
        let other = reduced(workload, 12, false);
        assert!(
            first.virtuals.iter().any(|(name, x)| other.virtuals[name].to_bits() != x.to_bits()),
            "{}: the seed must reach the inputs",
            workload.name()
        );
    }
}

#[test]
fn a_traced_run_reproduces_the_untraced_virtual_clock() {
    for workload in Workload::ALL {
        let untraced = reduced(workload, 21, false);
        let traced = reduced(workload, 21, true);
        assert_same(&untraced.virtuals, &traced.virtuals, workload.name());
        let spans =
            std::fs::read_to_string(traced.span_file.expect("a traced run writes its spans"))
                .expect("span file is readable");
        for name in [
            "\"op\"",
            "\"lower\"",
            "\"price\"",
            "\"solve\"",
            "\"kernel_replay\"",
            "\"verify\"",
            "\"export\"",
        ] {
            assert!(spans.contains(name), "{}: span {name} recorded", workload.name());
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
