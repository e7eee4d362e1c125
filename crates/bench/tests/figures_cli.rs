//! The `figures` binary refuses bad input before it runs anything: an
//! unknown id or a value flag without its value prints the usage and the
//! known ids and exits 2, and no figure is computed or written.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.contains("usage: figures"), "{what}: {stderr}");
    assert!(
        stderr.contains("known ids: all fig7") && stderr.contains("fig-regress ablations"),
        "{what}: {stderr}"
    );
}

#[test]
fn unknown_id_is_refused_before_any_figure_runs() {
    let dir = std::env::temp_dir().join(format!("cuart-figures-cli-{}", std::process::id()));
    let dir_arg = dir.to_str().unwrap();
    // A valid id first: it must not run, so nothing lands in the output dir.
    let out = figures(&["fig7", "fig-nope", "--scale", "4096", "--out", dir_arg]);
    assert_usage_error(&out, "unknown id");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("\"fig-nope\""),
        "names the bad id"
    );
    assert!(
        !dir.join("fig7.csv").exists(),
        "fig7 ran before the refusal"
    );
    assert!(!dir.join("SUMMARY.md").exists());
    assert_usage_error(&figures(&["fig7", "--bogus"]), "unknown flag");
    assert_usage_error(&figures(&[]), "no id");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn value_flag_without_value_is_refused() {
    for flag in ["--scale", "--out", "--baseline", "--threshold"] {
        assert_usage_error(&figures(&["fig7", flag]), flag);
    }
    assert_usage_error(&figures(&["fig7", "--scale", "0"]), "--scale 0");
    assert_usage_error(&figures(&["fig7", "--threshold", "x"]), "--threshold x");
}
