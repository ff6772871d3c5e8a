//! `reproduce --trace` attributes the dense moment chains below chain
//! level: the stamp's block diagonalization, and per moment the three-mode
//! Kronecker solve and the read-outs.

use std::process::Command;

#[test]
fn trace_names_the_dense_chain_layers() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig3", "--small", "--trace"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("reproduce runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "reproduce failed: {stdout}");
    let table = stdout
        .split("Span self-time summary")
        .nth(1)
        .expect("a span self-time table");
    let count = |name: &str| {
        table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|c| c.parse::<usize>().ok())
    };
    for name in [
        "block_diagonalize",
        "kron3_solve",
        "chain_readout",
        "chain_h3",
    ] {
        assert!(count(name).is_some(), "no `{name}` span in:\n{table}");
    }
    // One three-mode solve per H₃ moment: never fewer than the chains.
    assert!(count("kron3_solve") >= count("chain_h3"));
}
