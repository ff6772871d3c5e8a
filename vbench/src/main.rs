//! `vbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use std::process::ExitCode;

use vbench::alloc::CountingAlloc;
use vbench::machine::fingerprint;
use vbench::metrics::{json_line, per_layer};
use vbench::probes::probe;
use vbench::run::end_to_end;
use vbench::workloads::Kind;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1, 50.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    let kind =
        kind.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbench: {e}");
            eprintln!("usage: vbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("workload: {}", args.kind.name());
    println!("seed: {}", args.seed);
    println!("seconds: {}", args.seconds);
    println!("trace: {}", u8::from(args.trace));
    for (key, value) in fingerprint() {
        println!("{key}: {value}");
    }

    let e2e = match end_to_end(args.kind, args.seed, args.seconds) {
        Ok(r) => r,
        Err(f) => {
            eprintln!("vbench: {}", f.0);
            return ExitCode::from(1);
        }
    };
    for why in &e2e.ledger.failures {
        println!("FAILED {why}");
    }
    for why in &e2e.nondeterminism {
        println!("NONDETERMINISTIC {why}");
    }
    let (attempted, failed) = (e2e.ledger.attempted, e2e.ledger.failures.len());
    let correct = failed == 0 && e2e.nondeterminism.is_empty();

    println!(
        "{:<28} {:>14} {:<6} {:>5}",
        "end-to-end metric", "value", "unit", "n"
    );
    let e2e_metrics = e2e.metrics();
    for (name, unit, v, n) in &e2e_metrics {
        println!("{name:<28} {v:>14.6e} {unit:<6} {n:>5}");
    }
    println!(
        "{:<28} {:>14.6e} {:<6} {attempted:>5}",
        "fail_rate",
        e2e.fail_rate(),
        "ratio"
    );

    let metrics: Vec<(String, &str, f64)> = if args.trace {
        let layers = match probe(args.kind, &e2e) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("vbench: layer probe failed: {e}");
                return ExitCode::from(1);
            }
        };
        for note in &layers.notes {
            println!("{note}");
        }
        let mut metrics = Vec::new();
        for (name, unit) in per_layer() {
            let Some(&(_, v)) = layers.values.iter().find(|(n, _)| *n == name) else {
                eprintln!("vbench: no probe reported {name}");
                return ExitCode::from(1);
            };
            println!("{name:<32} {v:>14.6e} {unit}");
            metrics.push((name, unit, v));
        }
        if metrics.len() != layers.values.len() {
            eprintln!("vbench: the probes reported metrics the metric list lacks");
            return ExitCode::from(1);
        }
        metrics
    } else {
        e2e_metrics
            .iter()
            .map(|&(name, unit, v, _)| (name.to_string(), unit, v))
            .collect()
    };
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if e2e.nondeterminism.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
