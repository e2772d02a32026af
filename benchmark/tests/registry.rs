//! BENCHMARK.json names exactly the metrics this benchmark reports.

use lpm_benchmark::out::{END_TO_END, PER_LAYER};
use lpm_telemetry::Value;

fn listed(v: &Value, key: &str) -> Vec<(String, String)> {
    match v.get(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = Value::parse(&text).expect("BENCHMARK.json parses");
    let own = |r: &[(&str, &str)]| -> Vec<(String, String)> {
        r.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&v, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&v, "per_layer"), own(PER_LAYER));
}
