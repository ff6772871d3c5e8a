//! The benchmark's own contract: metric-name grammar, `BENCHMARK.json`
//! naming exactly what the binary prints, and seeded inputs that are a
//! function of the seed and stay inside their design ranges.

use vbench::metrics::{json_line, per_layer, valid_name, END_TO_END};
use vbench::workloads::{drives, Drive, Kind};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `{...}` objects of the array under `key` in `BENCHMARK.json` (the
/// file keeps one flat object per line).
fn objects(key: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("closing bracket")];
    body.split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("closing brace")])
        .collect()
}

/// The string value of `field` in a flat JSON object.
fn field<'a>(object: &'a str, field: &str) -> &'a str {
    let tag = format!("\"{field}\": \"");
    let at = object
        .find(&tag)
        .unwrap_or_else(|| panic!("no {field} in {object}"))
        + tag.len();
    &object[at..at + object[at..].find('"').expect("closing quote")]
}

fn names_units(key: &str) -> Vec<(String, String)> {
    objects(key)
        .into_iter()
        .map(|o| (field(o, "name").to_string(), field(o, "unit").to_string()))
        .collect()
}

#[test]
fn every_printed_metric_name_follows_the_grammar() {
    for (name, _) in END_TO_END {
        assert!(valid_name(name), "{name}");
    }
    for (name, _) in per_layer() {
        assert!(valid_name(&name), "{name}");
    }
    assert!(!valid_name(".leading_dot"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let printed: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units("end_to_end"), printed);
    let printed: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_units("per_layer"), printed);
}

#[test]
fn benchmark_json_names_exactly_the_workloads() {
    let listed: Vec<&str> = objects("workloads")
        .into_iter()
        .map(|o| field(o, "name"))
        .collect();
    let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(listed, known);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let line = json_line(
        true,
        3,
        0,
        &[("a_s".into(), "s", 0.5), ("b".into(), "count", f64::NAN)],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": null, \"unit\": \"count\"}}}"
    );
}

#[test]
fn seeded_batches_repeat_per_seed_and_differ_across_seeds() {
    for kind in Kind::ALL {
        let a = drives(kind, 42);
        assert_eq!(a.len(), kind.batch_size());
        assert_eq!(a, drives(kind, 42), "{}", kind.name());
        assert_ne!(a, drives(kind, 43), "{}", kind.name());
    }
}

#[test]
fn seeded_inputs_stay_in_their_design_ranges() {
    let surge = vamor_circuits::VaristorCircuit::surge_amplitude();
    for kind in Kind::ALL {
        for seed in 0..50 {
            for d in drives(kind, seed) {
                let ok = match d {
                    Drive::TwoTone {
                        signal,
                        signal_hz,
                        decay,
                        interferer,
                        interferer_hz,
                    } => {
                        (0.2..=0.4).contains(&signal)
                            && (0.057..=0.063).contains(&signal_hz)
                            && (0.047..=0.053).contains(&decay)
                            && (0.09..=0.15).contains(&interferer)
                            && (0.107..=0.113).contains(&interferer_hz)
                    }
                    Drive::Surge {
                        amplitude,
                        rise,
                        fall,
                    } => {
                        (0.8 * surge..=1.2 * surge).contains(&amplitude)
                            && (0.4..=0.6).contains(&rise)
                            && (5.0..=7.0).contains(&fall)
                    }
                };
                assert!(ok, "{} seed {seed}: {d:?}", kind.name());
                // Fastest tone well inside the ROM's design band (rad/s).
                let band = kind.band();
                let omega = match d {
                    Drive::TwoTone { interferer_hz, .. } => {
                        2.0 * std::f64::consts::PI * interferer_hz
                    }
                    Drive::Surge { rise, .. } => 1.0 / rise,
                };
                assert!(omega > band.omega_min && omega < band.omega_max, "{omega}");
            }
        }
    }
}
