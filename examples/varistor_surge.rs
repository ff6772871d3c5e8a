//! Paper §3.4 scenario: a ZnO varistor surge-protection circuit described by
//! an ODE with a cubic Kronecker term, hit by a 9.8 kV double-exponential
//! surge. The 102-state model is reduced to a handful of states and the
//! clamped output voltage of both models is compared.
//!
//! ```text
//! cargo run --release --example varistor_surge          # 102 states (paper size)
//! cargo run --release --example varistor_surge -- 26    # smaller consumer ladder
//! ```

use vamor::circuits::VaristorCircuit;
use vamor::core::{AssocReducer, MomentSpec};
use vamor::sim::{max_relative_error, simulate, ExpPulse, IntegrationMethod, TransientOptions};
use vamor::system::PolynomialStateSpace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ladder_nodes: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(98);
    let circuit = VaristorCircuit::new(ladder_nodes)?;
    let full = circuit.qldae();
    println!("surge-protection circuit states: {}", full.order());

    // 6 first-order and 2 third-order moments (the system has no quadratic
    // term), giving an order-8 reduced model as in the paper.
    let rom = AssocReducer::new(MomentSpec::new(6, 0, 2)).reduce(full)?;
    println!("reduced order: {} (paper: 8)", rom.order());

    let surge = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let opts =
        TransientOptions::new(0.0, 30.0, 0.005).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let full_run = simulate(full, &surge, &opts)?;
    let rom_run = simulate(rom.system(), &surge, &opts)?;
    let y_full = full_run.output_channel(0);
    let y_rom = rom_run.output_channel(0);

    let peak_in = VaristorCircuit::surge_amplitude();
    let peak_out = y_full.iter().cloned().fold(0.0_f64, f64::max);
    println!("surge peak: {peak_in:.0} V, clamped output peak: {peak_out:.1} V");
    println!(
        "expected static clamp level: {:.1} V",
        VaristorCircuit::dc_clamp_voltage(peak_in)
    );
    println!(
        "reduced-model max relative error: {:.3e}",
        max_relative_error(&y_full, &y_rom)
    );
    Ok(())
}
