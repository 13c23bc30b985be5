//! Runs the whole benchmark at smoke size (`run.sh --smoke`: sizes ÷ 50,
//! one timed run, no A/A) and checks its output against
//! `BENCHMARK.json`: every workload, end-to-end metric and per-layer
//! metric named there is printed exactly once with a unit and a finite
//! value, nothing unnamed is printed, and no operation failed.
//!
//! The harness works under `<target>/ppa-bench/work/<workload>-<pid>`,
//! so this test shares no fixture path with any other process.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn names(manifest: &Value, key: &str) -> Vec<String> {
    manifest[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| m["name"].as_str().expect("named entry").to_string())
        .collect()
}

#[test]
fn smoke_run_prints_exactly_the_metrics_benchmark_json_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("pipeline_bench sits in the repository root");
    let manifest: Value = serde_json::from_str(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let workloads = names(&manifest, "workloads");
    let mut metrics = names(&manifest, "end_to_end");
    metrics.extend(names(&manifest, "per_layer"));
    assert_eq!(workloads.len(), 5);
    assert_eq!(metrics.len(), 4 + 47);

    let out = Command::new("bash")
        .args(["pipeline_bench/run.sh", "--smoke"])
        .current_dir(root)
        .output()
        .expect("run pipeline_bench/run.sh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run.sh --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `workload name value unit n spread...`
    let mut seen: BTreeMap<(String, String), u32> = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 6 || !workloads.iter().any(|w| w == f[0]) {
            continue;
        }
        let value: f64 = f[2]
            .parse()
            .unwrap_or_else(|_| panic!("unparsable value: {line}"));
        assert!(value.is_finite(), "non-finite value: {line}");
        assert!(!f[3].is_empty() && f[3] != "-", "no unit: {line}");
        assert!(
            metrics.iter().any(|m| m == f[1]),
            "metric not named in BENCHMARK.json: {line}"
        );
        *seen
            .entry((f[0].to_string(), f[1].to_string()))
            .or_default() += 1;
    }
    for w in &workloads {
        for m in &metrics {
            let n = seen.get(&(w.clone(), m.clone())).copied().unwrap_or(0);
            assert_eq!(n, 1, "{w} {m} printed {n} times");
        }
    }

    let result_path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("wrote "))
        .expect("the run names its result.json");
    let result: Value =
        serde_json::from_str(&std::fs::read_to_string(result_path).expect("read result.json"))
            .expect("result.json parses");
    let rows = result["workloads"].as_array().expect("workload rows");
    assert_eq!(rows.len(), workloads.len());
    for row in rows {
        assert!(row["attempted"].as_u64().expect("attempted") >= 1);
        assert_eq!(
            row["failed_share"].as_f64(),
            Some(0.0),
            "{:?}",
            row["workload"]
        );
    }
    assert!(result["claim"].is_null());
    assert!(result["host"]["nproc"].as_u64().expect("nproc") >= 1);
}
