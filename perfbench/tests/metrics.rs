//! Every metric `BENCHMARK.json` names is printed, with its unit, in the
//! mode that reports it.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every object in the named array of `BENCHMARK.json`.
fn declared(json: &str, array: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn result_line(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_qt-perfbench"))
        .args([
            "--workload",
            "semcache_closed",
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for (array, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let line = result_line(trace);
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        let names = declared(&spec, array);
        assert!(!names.is_empty());
        for (name, unit) in &names {
            let printed = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&printed)
                .unwrap_or_else(|| panic!("{name} missing from {line}"));
            let tail = &line[at + printed.len()..];
            let unit_field = &tail[..tail.find('}').expect("metric closes")];
            assert!(
                unit_field.ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name}: {unit_field}"
            );
        }
        assert_eq!(line.matches("\"unit\"").count(), names.len(), "{line}");
    }
}
