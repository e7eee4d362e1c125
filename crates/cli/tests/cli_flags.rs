//! The `cuart` binary refuses a flag its command does not read: it prints
//! the usage and exits 2 before touching any file, so a misspelled or
//! misplaced flag fails loudly instead of being silently ignored.

use std::process::Output;

fn cuart(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_cuart"))
        .args(args)
        .output()
        .expect("spawn cuart")
}

fn assert_refused(args: &[&str], flag: &str) {
    let out = cuart(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("does not take --{flag}")),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn a_flag_the_command_does_not_read_is_refused() {
    // No index exists: the refusal comes before any file is opened.
    assert_refused(&["bench", "idx.cuart", "--batchs", "4"], "batchs");
    assert_refused(&["serve", "idx.cuart", "--shard", "4"], "shard");
    assert_refused(&["bench", "idx.cuart", "--queue-cap", "8"], "queue-cap");
}

#[test]
fn trace_reads_the_shared_trace_out_spelling() {
    let dir = std::env::temp_dir().join(format!("cuart-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (keys, idx, trace) = (path("keys.tsv"), path("idx.cuart"), path("t.json"));
    let lines: String = (0..500).map(|i| format!("{i:08}\t{i}\n")).collect();
    std::fs::write(&keys, lines).unwrap();
    let ok = |args: &[&str]| assert!(cuart(args).status.success(), "{args:?}");
    ok(&["build", "--keys", &keys, "--out", &idx]);

    // The old spelling is refused, not ignored.
    assert_refused(&["trace", &idx, "--out", &trace], "out");
    assert!(!std::path::Path::new(&trace).exists());

    ok(&["trace", &idx, "--batches", "3", "--trace-out", &trace]);
    ok(&["verify-trace", &trace]);
    std::fs::remove_dir_all(&dir).ok();
}
