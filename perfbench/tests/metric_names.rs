//! `BENCHMARK.json` at the repository root must list exactly the metrics,
//! units and workloads the benchmark prints, in the same order.

use rfsp_perfbench::report::{END_TO_END, PER_LAYER};
use serde::Value;

fn entries<'a>(doc: &'a [(String, Value)], key: &str) -> &'a [Value] {
    match serde::field(doc, key) {
        Ok(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json: `{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    let Value::Map(fields) = entry else { panic!("not an object: {entry:?}") };
    match serde::field(fields, key) {
        Ok(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let Value::Map(doc) = serde::json::parse(&json).expect("BENCHMARK.json parses") else {
        panic!("BENCHMARK.json is not an object");
    };
    for (key, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str)> =
            entries(&doc, key).iter().map(|e| (text(e, "name"), text(e, "unit"))).collect();
        assert_eq!(listed, printed, "{key}");
    }
    let workloads: Vec<&str> = entries(&doc, "workloads").iter().map(|e| text(e, "name")).collect();
    assert_eq!(workloads, ["scale_nofail", "x_faults", "snapshot_pigeonhole", "serve_jobs"]);
}
