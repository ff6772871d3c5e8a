//! `reproduce --trace` attributes the moment chains below chain level on
//! both engines: the dense stamp's block diagonalization, and per moment
//! the three-mode Kronecker solve and the read-outs.

use std::process::Command;

/// The span self-time table of `reproduce <args> --trace`, as a lookup of
/// each span name's count.
fn span_counts(args: &[&str]) -> impl Fn(&str) -> Option<usize> {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .arg("--trace")
        .current_dir(std::env::temp_dir())
        .output()
        .expect("reproduce runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "reproduce failed: {stdout}");
    let table = stdout
        .split("Span self-time summary")
        .nth(1)
        .unwrap_or_else(|| panic!("no span self-time table in:\n{stdout}"))
        .to_owned();
    move |name: &str| {
        table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|c| c.parse::<usize>().ok())
    }
}

#[test]
fn trace_names_the_dense_chain_layers() {
    let count = span_counts(&["fig3", "--small"]);
    for name in [
        "block_diagonalize",
        "kron3_solve",
        "chain_readout",
        "chain_h3",
    ] {
        assert!(count(name).is_some(), "no `{name}` span");
    }
    // One three-mode solve per H₃ moment: never fewer than the chains.
    assert!(count("kron3_solve") >= count("chain_h3"));
}

/// The low-rank chains run the same recursion in their Krylov frames, so
/// they carry the same spans below chain level.
#[test]
fn trace_names_the_lowrank_chain_layers() {
    let count = span_counts(&["fig3", "--small", "--engine", "lowrank"]);
    for name in ["kron3_solve", "chain_readout", "chain_h3"] {
        assert!(count(name).is_some(), "no `{name}` span");
    }
    assert!(count("kron3_solve") >= count("chain_h3"));
}
