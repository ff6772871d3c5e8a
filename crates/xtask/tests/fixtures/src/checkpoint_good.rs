//! Known-good checkpoint-coverage fixture: direct checkpoints, a helper
//! whose name carries the `checkpoint` prefix, uncontrolled functions, and
//! an allowed bookkeeping loop.

fn covered(control: &RunControl, items: &[f64]) -> Result<f64, String> {
    let _span = vamor_obs::span!("stage");
    let mut acc = 0.0;
    for x in items {
        control.checkpoint("stage")?;
        acc += x;
    }
    Ok(acc)
}

fn helper_covered(control: &RunControl, items: &[f64]) -> Result<f64, String> {
    let _span = vamor_obs::span!("stage");
    let mut acc = 0.0;
    for x in items {
        checkpoint_batch(control, "stage")?;
        acc += x;
    }
    Ok(acc)
}

fn no_control(items: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in items {
        acc += x;
    }
    acc
}

fn allowed_loop(control: &RunControl) -> usize {
    let mut n = 0;
    // vamor: allow(checkpoint-coverage, reason = "fixture: bookkeeping loop")
    for i in 0..3 {
        n += i;
    }
    n
}
