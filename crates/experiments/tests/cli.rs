//! Argument handling of the `aapm-experiments` binary: a value flag given
//! last must be reported as missing its value, in every mode, before any
//! work starts.

use std::process::Command;

fn stderr_of(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_aapm-experiments"))
        .args(args)
        .output()
        .expect("the binary runs");
    assert!(!output.status.success(), "{args:?} must fail");
    String::from_utf8(output.stderr).expect("stderr is UTF-8")
}

#[test]
fn trailing_value_flags_report_a_missing_value() {
    for (args, flag) in [
        (&["all", "--jobs"][..], "--jobs"),
        (&["fig2", "--csv"][..], "--csv"),
        (&["--fuzz", "--cases"][..], "--cases"),
        (&["--fuzz", "--seed"][..], "--seed"),
        (&["--replay-corpus", "--jobs"][..], "--jobs"),
        (&["--replay-corpus", "--corpus-dir"][..], "--corpus-dir"),
    ] {
        let stderr = stderr_of(args);
        assert!(
            stderr.contains(&format!("`{flag}` needs a value")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("unknown"), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_flags_are_still_rejected() {
    let stderr = stderr_of(&["all", "--bogus"]);
    assert!(stderr.contains("unknown argument `--bogus`"), "{stderr}");
}
