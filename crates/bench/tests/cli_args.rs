//! `reproduce` checks its whole command line before any experiment runs:
//! an option it does not know is a usage error, never a word that `all`
//! silently swallows as an experiment name.

use std::process::Command;

#[test]
fn unknown_options_fail_before_any_experiment_runs() {
    for args in [
        &["all", "--compare", "x.json"][..],
        &["fig3", "--small", "--no-json"],
        &["--json"],
        &["fig3", "--small", "figure3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("reproduce runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        // Every experiment prints its header first: nothing ran.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
    }
}
