//! The untraced end-to-end run: set-up, reduction, held-out band residual
//! and the seeded transient batch, every operation checked.

use std::time::{Duration, Instant};

use vamor_core::BandSampler;
use vamor_linalg::eigenvalues;
use vamor_sim::{max_relative_error, SimError, TransientResult};

use crate::alloc;
use crate::machine::cpu_seconds;
use crate::metrics::END_TO_END;
use crate::stats::{best, median, median_of_bests};
use crate::workloads::{self, drives, Circuit, Drive, Kind, Reduction, Rom, HELD_OUT_GRID};

/// Operations attempted and the reasons the failed ones failed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Ledger {
    pub fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// Everything the untraced run measured; the traced run reads it too.
pub struct EndToEnd {
    pub circuit: Circuit,
    pub reduction: Reduction,
    pub drives: Vec<Drive>,
    pub setup_samples: Vec<f64>,
    pub reduce_samples: Vec<f64>,
    pub reduce_cpu_s: f64,
    pub rom_samples: Vec<f64>,
    pub full_samples: Vec<f64>,
    pub max_rel_error: f64,
    pub band_residual: f64,
    pub peak_heap_mb: f64,
    pub rom_newton: usize,
    pub full_newton: usize,
    pub rom_factorizations: usize,
    pub full_factorizations: usize,
    pub ledger: Ledger,
    /// Deterministic outputs that differed between two repeats.
    pub nondeterminism: Vec<String>,
}

/// Fatal errors: no ROM, so nothing downstream can be measured.
#[derive(Debug)]
pub struct Fatal(pub String);

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// Circuit builds until the burst has taken `budget` (at least 5, at most
/// 400), each timed on its own; returns the last circuit.
fn setup_burst(kind: Kind, budget: Duration, samples: &mut Vec<f64>) -> Result<Circuit, Fatal> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let (c, dt) = timed(|| Circuit::build(kind));
        let c = c.map_err(|e| Fatal(format!("circuit construction failed: {e}")))?;
        samples.push(dt);
        reps += 1;
        if reps >= 400 || (reps >= 5 && start.elapsed() >= budget) {
            return Ok(c);
        }
    }
}

/// Hurwitz check of the reduced `G₁` on its own eigenvalues, independent of
/// the reducer's spectral guard.
fn check_rom(rom: &Rom) -> Result<(), String> {
    if !rom.projection().as_slice().iter().all(|v| v.is_finite()) {
        return Err("non-finite projection".into());
    }
    let eig = eigenvalues(rom.g1()).map_err(|e| format!("eigenvalues failed: {e}"))?;
    let abscissa = eig
        .values()
        .iter()
        .map(|z| z.re)
        .fold(f64::NEG_INFINITY, f64::max);
    if abscissa < 0.0 {
        Ok(())
    } else {
        Err(format!("non-Hurwitz ROM (spectral abscissa {abscissa:e})"))
    }
}

fn check_transient(run: &Result<TransientResult, SimError>) -> Result<Vec<f64>, String> {
    let run = run.as_ref().map_err(|e| e.to_string())?;
    if let Some(cause) = run.interrupted {
        return Err(format!("interrupted: {cause:?}"));
    }
    let y = run.output_channel(0);
    if !y.iter().all(|v| v.is_finite()) {
        return Err("non-finite output".into());
    }
    Ok(y)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_rom(a: &Rom, b: &Rom) -> bool {
    same_bits(a.projection().as_slice(), b.projection().as_slice())
        && same_bits(a.g1().as_slice(), b.g1().as_slice())
}

/// One ROM-and-full transient pair; returns the two output series.
struct Pair {
    rom: Result<Vec<f64>, String>,
    full: Result<Vec<f64>, String>,
    rom_run: Option<TransientResult>,
    full_run: Option<TransientResult>,
    rom_s: f64,
    full_s: f64,
}

fn pair(kind: Kind, circuit: &Circuit, rom: &Rom, drive: &Drive) -> Pair {
    let input = drive.signal();
    let (rom_run, rom_s) = timed(|| workloads::transient(kind, rom.system(), &*input));
    let (full_run, full_s) = timed(|| workloads::transient(kind, circuit.system(), &*input));
    Pair {
        rom: check_transient(&rom_run),
        full: check_transient(&full_run),
        rom_run: rom_run.ok(),
        full_run: full_run.ok(),
        rom_s,
        full_s,
    }
}

/// Peak live heap during `f` (the allocator's high-water mark is reset to
/// the current live heap first).
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    alloc::reset_peak();
    let v = f();
    (v, alloc::peak_bytes())
}

/// The run in progress: the workload's fixed inputs and every sample so far.
struct Runner {
    kind: Kind,
    circuit: Circuit,
    reduction: Reduction,
    batch: Vec<Drive>,
    sampler: Option<BandSampler>,
    band_residual: f64,
    /// First-pass outputs (ROM, full) per batch entry, for the bit-for-bit
    /// check of repeats; `None` where the first pass failed.
    reference: Vec<Option<(Vec<f64>, Vec<f64>)>>,
    setup_samples: Vec<f64>,
    reduce_samples: Vec<f64>,
    rom_samples: Vec<f64>,
    full_samples: Vec<f64>,
    reduce_peaks: Vec<usize>,
    other_peak: usize,
    ledger: Ledger,
    nondeterminism: Vec<String>,
}

impl Runner {
    fn setup_burst(&mut self, budget: Duration) -> Result<(), Fatal> {
        let (c, peak) = peak_of(|| setup_burst(self.kind, budget, &mut self.setup_samples));
        c?;
        self.other_peak = self.other_peak.max(peak);
        Ok(())
    }

    fn pair(&mut self, k: usize) -> Pair {
        let (p, peak) = peak_of(|| {
            pair(
                self.kind,
                &self.circuit,
                &self.reduction.rom,
                &self.batch[k],
            )
        });
        self.other_peak = self.other_peak.max(peak);
        self.rom_samples.push(p.rom_s);
        self.full_samples.push(p.full_s);
        p
    }

    /// A repeat transient pair must reproduce the first pass bit for bit.
    fn repeat_pair(&mut self, k: usize) {
        let p = self.pair(k);
        let ok = |r: &Result<Vec<f64>, String>| r.as_ref().map(|_| ()).map_err(Clone::clone);
        self.ledger
            .record(&format!("repeat rom transient {k}"), ok(&p.rom));
        self.ledger
            .record(&format!("repeat full transient {k}"), ok(&p.full));
        if let (Some((r0, f0)), Ok(r), Ok(f)) = (&self.reference[k], &p.rom, &p.full) {
            if !same_bits(r0, r) || !same_bits(f0, f) {
                self.nondeterminism
                    .push(format!("repeat transient {k} differs"));
            }
        }
    }

    /// A repeat reduction is a further `reduce_s` sample and must reproduce
    /// the first ROM and its band residual bit for bit.
    fn repeat_reduction(&mut self) {
        let ((again, reduce_s), peak) = peak_of(|| timed(|| workloads::reduce(&self.circuit)));
        self.reduce_samples.push(reduce_s);
        self.reduce_peaks.push(peak);
        match again {
            Ok(r) => {
                self.ledger.record("repeat reduction", check_rom(&r.rom));
                if !same_rom(&r.rom, &self.reduction.rom) || r.greedy != self.reduction.greedy {
                    self.nondeterminism
                        .push("repeat reduction gave a different ROM".into());
                }
                if let Some(s) = &self.sampler {
                    match r.rom.band_residual(s) {
                        Ok(b) if b.to_bits() == self.band_residual.to_bits() => {}
                        _ => self
                            .nondeterminism
                            .push("repeat band residual differs".into()),
                    }
                }
            }
            Err(e) => self.ledger.record("repeat reduction", Err(e.to_string())),
        }
    }
}

/// Runs the workload for at least `seconds` of wall time. Fixed work first:
/// reduction, held-out band residual, one checked pass over the batch with a
/// repeat reduction half-way. Then, until the time is spent, repeat
/// transient pairs alternate with repeat reductions. Set-up is sampled in
/// bursts spread over the whole run, and the timed phases interleave, so
/// every metric's samples see the machine in the same mix of states.
pub fn end_to_end(kind: Kind, seed: u64, seconds: f64) -> Result<EndToEnd, Fatal> {
    let start = Instant::now();
    let burst = Duration::from_millis(100);
    let short_burst = Duration::from_millis(20);

    let mut setup_samples = Vec::new();
    let (circuit, setup_peak) = peak_of(|| setup_burst(kind, burst, &mut setup_samples));
    let circuit = circuit?;

    let cpu0 = cpu_seconds();
    let ((reduction, reduce_s), reduce_peak) = peak_of(|| timed(|| workloads::reduce(&circuit)));
    let reduce_cpu_s = match (cpu0, cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    let reduction = reduction.map_err(|e| Fatal(format!("reduction failed: {e}")))?;
    let mut ledger = Ledger::default();
    ledger.record("reduction", check_rom(&reduction.rom));

    let ((sampler, band_residual), band_peak) = peak_of(|| {
        let sampler = circuit.band_sampler(kind, HELD_OUT_GRID);
        let residual = match &sampler {
            Ok(s) => reduction.rom.band_residual(s).map_err(|e| e.to_string()),
            Err(e) => Err(format!("band sampler failed: {e}")),
        };
        (sampler.ok(), residual)
    });
    let band_residual = match band_residual {
        Ok(r) if r.is_finite() => {
            ledger.record("band residual", Ok(()));
            r
        }
        Ok(r) => {
            ledger.record("band residual", Err(format!("non-finite residual {r}")));
            f64::NAN
        }
        Err(e) => {
            ledger.record("band residual", Err(e));
            f64::NAN
        }
    };

    let batch = drives(kind, seed);
    let mut run = Runner {
        kind,
        circuit,
        reduction,
        batch,
        sampler,
        band_residual,
        reference: Vec::new(),
        setup_samples,
        reduce_samples: vec![reduce_s],
        rom_samples: Vec::new(),
        full_samples: Vec::new(),
        reduce_peaks: vec![reduce_peak],
        other_peak: setup_peak.max(band_peak),
        ledger,
        nondeterminism: Vec::new(),
    };

    let ceiling = kind.error_ceiling();
    let mut max_rel_error: f64 = 0.0;
    let (mut rom_newton, mut full_newton, mut rom_fact, mut full_fact) = (0, 0, 0, 0);
    let k_total = run.batch.len();
    for i in 0..k_total {
        let p = run.pair(i);
        if let Some(r) = &p.rom_run {
            rom_newton += r.stats.newton_iterations;
            rom_fact += r.stats.jacobian_factorizations + r.stats.sparse_factorizations;
        }
        if let Some(r) = &p.full_run {
            full_newton += r.stats.newton_iterations;
            full_fact += r.stats.jacobian_factorizations + r.stats.sparse_factorizations;
        }
        let full_check = p.full.as_ref().map(|_| ()).map_err(Clone::clone);
        run.ledger
            .record(&format!("full transient {i}"), full_check);
        let rom_check = match (&p.rom, &p.full) {
            (Ok(yr), Ok(yf)) => {
                if yf.iter().all(|v| *v == 0.0) {
                    Err("full-model output is identically zero".into())
                } else {
                    let e = max_relative_error(yf, yr);
                    max_rel_error = max_rel_error.max(e);
                    if e <= ceiling {
                        Ok(())
                    } else {
                        Err(format!(
                            "max relative error {e:e} above ceiling {ceiling:e}"
                        ))
                    }
                }
            }
            (Err(e), _) => Err(e.clone()),
            (Ok(_), Err(_)) => Err("no full-model reference".into()),
        };
        run.ledger.record(&format!("rom transient {i}"), rom_check);
        run.reference.push(match (p.rom, p.full) {
            (Ok(r), Ok(f)) => Some((r, f)),
            _ => None,
        });
        run.setup_burst(short_burst)?;
        if i + 1 == k_total / 2 {
            run.repeat_reduction();
            run.setup_burst(burst)?;
        }
    }

    // An operation starts only if its median so far fits before the
    // deadline, so a run lasts about `seconds` whatever the workload.
    let deadline = start + Duration::from_secs_f64(seconds) - burst;
    let fits = |s: f64| Instant::now() + Duration::from_secs_f64(s) < deadline;
    let mut next = 0;
    for round in 0.. {
        let pair_fits = fits(median(&run.rom_samples) + median(&run.full_samples));
        let reduce_fits = fits(median(&run.reduce_samples));
        if pair_fits && (round % 2 == 0 || !reduce_fits) {
            run.repeat_pair(next % k_total);
            next += 1;
        } else if reduce_fits {
            run.repeat_reduction();
        } else {
            break;
        }
        run.setup_burst(short_burst)?;
    }
    run.setup_burst(burst)?;

    // Two threads' chain temporaries may or may not overlap in time, so one
    // reduction's peak varies between runs; the smallest over the run's
    // reductions is the peak the reduction always needs. Other phases are
    // single-threaded.
    let reduce_peak = best(
        &run.reduce_peaks
            .iter()
            .map(|&b| b as f64)
            .collect::<Vec<_>>(),
    );
    let peak_heap_mb = reduce_peak.max(run.other_peak as f64) / 1e6;

    Ok(EndToEnd {
        circuit: run.circuit,
        reduction: run.reduction,
        drives: run.batch,
        setup_samples: run.setup_samples,
        reduce_samples: run.reduce_samples,
        reduce_cpu_s,
        rom_samples: run.rom_samples,
        full_samples: run.full_samples,
        max_rel_error,
        band_residual: run.band_residual,
        peak_heap_mb,
        rom_newton,
        full_newton,
        rom_factorizations: rom_fact,
        full_factorizations: full_fact,
        ledger: run.ledger,
        nondeterminism: run.nondeterminism,
    })
}

/// In-run set-up repeats `setup_s` takes the median of.
pub const SETUP_REPEATS: usize = 9;

impl EndToEnd {
    /// The end-to-end metrics `(name, unit, value, samples)`, in the order
    /// and with the units of [`END_TO_END`]. The VM running this is slowed
    /// by other tenants for seconds at a time, so a timing is the best of
    /// the run's repeats, which are spread over the whole run: `setup_s` is
    /// the median of [`SETUP_REPEATS`] interleaved set-up repeats, each the
    /// best of its builds; `reduce_s` is the best reduction; `rom_sim_s` and
    /// `full_sim_s` are the best transient of the batch and its repeats.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64, usize)> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let (value, n) = match name {
                    "setup_s" => (
                        median_of_bests(&self.setup_samples, SETUP_REPEATS),
                        self.setup_samples.len(),
                    ),
                    "reduce_s" => (best(&self.reduce_samples), self.reduce_samples.len()),
                    "rom_sim_s" => (best(&self.rom_samples), self.rom_samples.len()),
                    "full_sim_s" => (best(&self.full_samples), self.full_samples.len()),
                    "rom_max_rel_error" => (self.max_rel_error, self.drives.len()),
                    "rom_band_residual" => (self.band_residual, 1),
                    "peak_heap_mb" => (self.peak_heap_mb, 1),
                    _ => (f64::NAN, 0),
                };
                (name, unit, value, n)
            })
            .collect()
    }

    pub fn fail_rate(&self) -> f64 {
        self.ledger.failures.len() as f64 / self.ledger.attempted.max(1) as f64
    }
}
