//! `spec.json` records what BENCHMARK.json has no keys for; these tests
//! hold it equal to the constants the benchmark runs with.

use mphbench::metrics::{self, PER_LAYER};
use mphbench::workloads::{
    BASELINE_SEED, HELD_OUT_SEED, LADDER_RATE0, LADDER_RUNGS, LADDER_STEP, LATENCY_LIMIT,
    ORTH_BOUND, RESIDUAL_BOUND,
};

fn spec() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/spec.json"))
        .expect("spec.json is readable")
}

/// The number following `"key": ` in the spec.
fn number(spec: &str, key: &str) -> f64 {
    let at = spec.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("spec.json lacks {key}"))
        + key.len()
        + 4;
    let text: String =
        spec[at..].chars().take_while(|c| c.is_ascii_digit() || "+-.e".contains(*c)).collect();
    text.parse().unwrap_or_else(|e| panic!("{key}: {text:?}: {e}"))
}

#[test]
fn spec_constants_match_the_code() {
    let s = spec();
    assert_eq!(number(&s, "baseline_seed"), BASELINE_SEED as f64);
    assert_eq!(number(&s, "held_out_seed"), HELD_OUT_SEED as f64);
    assert_eq!(number(&s, "residual_max"), RESIDUAL_BOUND);
    assert_eq!(number(&s, "orth_max"), ORTH_BOUND);
    assert_eq!(number(&s, "serve_latency_limit_vtime"), LATENCY_LIMIT);
    assert_eq!(number(&s, "rate0_jobs_per_vtime"), LADDER_RATE0);
    assert_eq!(number(&s, "step"), LADDER_STEP);
    assert_eq!(number(&s, "rungs"), LADDER_RUNGS as f64);
}

#[test]
fn the_layer_map_covers_every_per_layer_metric() {
    let s = spec();
    let map = &s[s.find("\"layer_map\"").expect("spec.json has a layer map")..];
    for d in PER_LAYER {
        assert!(map.contains(&format!("\"{}\"", d.name)), "layer map lacks {}", d.name);
    }
    for quoted in map.split('"').filter(|w| w.contains('.') && !w.contains(' ')) {
        assert!(metrics::def(quoted).is_some(), "layer map names unknown metric {quoted}");
    }
}
