//! The two workloads: which circuit, which reduction, which seeded input
//! batch, and the absolute accuracy ceiling a ROM must meet on it.

use vamor_circuits::{RfReceiver, VaristorCircuit};
use vamor_core::{
    AdaptiveReducer, AssocReducer, BandSampler, BandSamplerOptions, FrequencyBand, MomentSpec,
    MorError, ReducedCubicOde, ReducedQldae, ReductionEngine, ReductionStats,
};
use vamor_linalg::{Matrix, SolverBackend};
use vamor_sim::{
    simulate, ExpPulse, InputSignal, IntegrationMethod, MultiChannel, SimError, SinePulse,
    TransientOptions, TransientResult,
};
use vamor_system::{PolynomialStateSpace, SystemError};

use crate::stats::Rng;

/// The paper's integration step.
pub const DT: f64 = 0.01;

/// Grid sizes of the held-out band residual: deliberately different from the
/// adaptive reducer's 17/7/3 so the ROM is scored on frequencies the greedy
/// search never saw.
pub const HELD_OUT_GRID: BandSamplerOptions = BandSamplerOptions {
    h1_points: 23,
    h2_points: 9,
    h3_points: 5,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReceiverDense,
    VaristorAdaptive,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::ReceiverDense, Kind::VaristorAdaptive];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReceiverDense => "receiver-dense",
            Kind::VaristorAdaptive => "varistor-adaptive",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Transients per seeded batch (each is run on the full model and the
    /// ROM).
    pub fn batch_size(self) -> usize {
        match self {
            Kind::ReceiverDense | Kind::VaristorAdaptive => 8,
        }
    }

    /// Simulated horizon of the matching paper figure.
    pub fn horizon(self) -> f64 {
        match self {
            Kind::ReceiverDense => 20.0,
            Kind::VaristorAdaptive => 30.0,
        }
    }

    /// Absolute ceiling on a ROM transient's max relative error. Above it
    /// the transient counts as failed whatever the previous commit did.
    pub fn error_ceiling(self) -> f64 {
        match self {
            Kind::ReceiverDense => 0.1,
            Kind::VaristorAdaptive => 0.05,
        }
    }

    /// Design band of the ROM (the matching figure's adaptive band).
    pub fn band(self) -> FrequencyBand {
        match self {
            Kind::ReceiverDense => vamor_bench::fig4_adaptive_spec().band,
            Kind::VaristorAdaptive => vamor_bench::fig5_adaptive_spec().band,
        }
    }
}

/// One seeded excitation of the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Fig. 4's damped signal on input 0 plus an interferer tone on input 1.
    TwoTone {
        signal: f64,
        signal_hz: f64,
        decay: f64,
        interferer: f64,
        interferer_hz: f64,
    },
    /// Fig. 5's double-exponential surge.
    Surge {
        amplitude: f64,
        rise: f64,
        fall: f64,
    },
}

impl Drive {
    pub fn signal(&self) -> Box<dyn InputSignal + Send + Sync> {
        match *self {
            Drive::TwoTone {
                signal,
                signal_hz,
                decay,
                interferer,
                interferer_hz,
            } => Box::new(MultiChannel::new(vec![
                Box::new(SinePulse::damped(signal, signal_hz, decay)),
                Box::new(SinePulse::new(interferer, interferer_hz)),
            ])),
            Drive::Surge {
                amplitude,
                rise,
                fall,
            } => Box::new(ExpPulse::new(amplitude, rise, fall)),
        }
    }
}

/// The seeded input batch. Amplitudes are stratified: draw `i` lies in the
/// `i`-th of `batch_size` equal slices of its range, so every seed covers
/// the whole range. On the receiver the interferer runs down its range as
/// the signal runs up, so every batch holds the weak-signal/strong-interferer
/// corner where the ROM's relative error peaks; its tones stay within ±5 %
/// of fig. 4's, because the worst-case error also moves with them and a
/// wider draw made that batch maximum vary by ±12 % from seed to seed.
/// Frequencies, decays and time constants are drawn uniformly. Every range
/// sits inside the ROM's design band around the figure's excitation.
pub fn drives(kind: Kind, seed: u64) -> Vec<Drive> {
    let mut rng = Rng::new(seed ^ 0x05EE_D0FB_A7C4);
    let k = kind.batch_size();
    (0..k)
        .map(|i| {
            let mut slice = |j: usize| (j as f64 + rng.unit()) / k as f64;
            match kind {
                Kind::ReceiverDense => Drive::TwoTone {
                    signal: 0.2 + 0.2 * slice(i),
                    interferer: 0.09 + 0.06 * slice(k - 1 - i),
                    signal_hz: rng.uniform(0.057, 0.063),
                    decay: rng.uniform(0.047, 0.053),
                    interferer_hz: rng.uniform(0.107, 0.113),
                },
                Kind::VaristorAdaptive => Drive::Surge {
                    amplitude: VaristorCircuit::surge_amplitude() * (0.8 + 0.4 * slice(i)),
                    rise: rng.uniform(0.4, 0.6),
                    fall: rng.uniform(5.0, 7.0),
                },
            }
        })
        .collect()
}

/// The full model of a workload.
pub enum Circuit {
    Receiver(RfReceiver),
    Varistor(VaristorCircuit),
}

impl Circuit {
    /// Circuit construction — everything the `setup_s` metric covers.
    pub fn build(kind: Kind) -> Result<Circuit, SystemError> {
        Ok(match kind {
            Kind::ReceiverDense => Circuit::Receiver(RfReceiver::new(RECEIVER_SECTIONS)?),
            Kind::VaristorAdaptive => Circuit::Varistor(VaristorCircuit::new(1000)?),
        })
    }

    pub fn system(&self) -> &dyn PolynomialStateSpace {
        match self {
            Circuit::Receiver(rx) => rx.qldae(),
            Circuit::Varistor(v) => v.ode(),
        }
    }

    /// Held-out band sampler over the workload's design band.
    pub fn band_sampler(
        &self,
        kind: Kind,
        opts: BandSamplerOptions,
    ) -> Result<BandSampler, MorError> {
        let (band, backend) = (kind.band(), SolverBackend::Auto);
        match self {
            Circuit::Receiver(rx) => BandSampler::for_qldae(rx.qldae(), band, backend, opts),
            Circuit::Varistor(v) => BandSampler::for_cubic(v.ode(), band, backend, opts),
        }
    }
}

/// A reduced model of either family.
pub enum Rom {
    Qldae(ReducedQldae),
    Cubic(ReducedCubicOde),
}

impl Rom {
    pub fn system(&self) -> &dyn PolynomialStateSpace {
        match self {
            Rom::Qldae(r) => r.system(),
            Rom::Cubic(r) => r.system(),
        }
    }

    pub fn stats(&self) -> &ReductionStats {
        match self {
            Rom::Qldae(r) => r.stats(),
            Rom::Cubic(r) => r.stats(),
        }
    }

    pub fn projection(&self) -> &Matrix {
        match self {
            Rom::Qldae(r) => r.projection(),
            Rom::Cubic(r) => r.projection(),
        }
    }

    pub fn g1(&self) -> &Matrix {
        match self {
            Rom::Qldae(r) => r.system().g1(),
            Rom::Cubic(r) => r.system().g1(),
        }
    }

    /// Worst of the H₁/H₂/H₃ band residuals against `sampler`.
    pub fn band_residual(&self, sampler: &BandSampler) -> Result<f64, MorError> {
        Ok(match self {
            Rom::Qldae(r) => sampler.residual_qldae(r.system())?.max(),
            Rom::Cubic(r) => sampler.residual_cubic(r.system())?.max(),
        })
    }
}

/// What the greedy search did (adaptive workload only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Greedy {
    pub evaluations: usize,
    pub moves: usize,
    pub full_model_solves: usize,
    /// Moment depths of the accepted configuration.
    pub spec: (usize, usize, usize),
}

pub struct Reduction {
    pub rom: Rom,
    pub greedy: Option<Greedy>,
}

/// Resonator sections of the receiver: 111 states. At fig. 4's 173 states
/// one reduction takes ~9 s, and on a host whose speed drifts over tens of
/// seconds the best of the four a run has room for still spread by up to
/// 0.3 from run to run; at 111 states a reduction takes ~1.6 s and a run
/// holds dozens.
pub const RECEIVER_SECTIONS: usize = 55;

/// Moment spec of the pinned dense receiver reduction (plus two Markov
/// vectors), as in fig. 4.
pub const RECEIVER_SPEC: (usize, usize, usize) = (8, 4, 2);

/// Full model → accepted ROM: the timed `reduce_s` span.
pub fn reduce(circuit: &Circuit) -> Result<Reduction, MorError> {
    match circuit {
        Circuit::Receiver(rx) => {
            let (k1, k2, k3) = RECEIVER_SPEC;
            let rom = AssocReducer::new(MomentSpec::new(k1, k2, k3))
                .with_markov_moments(2)
                .with_engine(ReductionEngine::DenseSchur)
                .reduce(rx.qldae())?;
            Ok(Reduction {
                rom: Rom::Qldae(rom),
                greedy: None,
            })
        }
        Circuit::Varistor(v) => {
            let out =
                AdaptiveReducer::new(vamor_bench::fig5_adaptive_spec()).reduce_cubic(v.ode())?;
            let spec = out.trace.steps.last().map_or((0, 0, 0), |s| {
                (s.config.spec.k1, s.config.spec.k2, s.config.spec.k3)
            });
            let greedy = Greedy {
                evaluations: out.trace.evaluations,
                moves: out.trace.steps.len().saturating_sub(1),
                full_model_solves: out.trace.full_model_solves,
                spec,
            };
            Ok(Reduction {
                rom: Rom::Cubic(out.rom),
                greedy: Some(greedy),
            })
        }
    }
}

/// Moment depths the workload's reduction ran with.
pub fn chain_spec(kind: Kind, greedy: Option<&Greedy>) -> (usize, usize, usize) {
    match kind {
        Kind::ReceiverDense => RECEIVER_SPEC,
        Kind::VaristorAdaptive => greedy.map_or((0, 0, 0), |g| g.spec),
    }
}

/// One transient at the paper's step: implicit trapezoidal, automatic
/// dense/sparse linear solver.
pub fn transient(
    kind: Kind,
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
) -> Result<TransientResult, SimError> {
    let opts = TransientOptions::new(0.0, kind.horizon(), DT)
        .with_method(IntegrationMethod::ImplicitTrapezoidal)
        .with_linear_solver(SolverBackend::Auto);
    simulate(system, input, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
