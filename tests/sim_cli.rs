//! Argument handling of the `aapm-sim` binary: out-of-range numeric flags
//! are reported as errors (exit 1 with a message), never as a panic.

use std::process::Command;

#[test]
fn bad_numeric_flags_exit_with_an_error_not_a_panic() {
    for args in [
        &["--scale", "0"][..],
        &["--scale", "-1"][..],
        &["--scale", "nan"][..],
        &["--scale", "inf"][..],
        &["--cap", "nan"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_aapm-sim"))
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
