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

fn assert_usage_error(args: &[&str], message: &str) {
    let out = cuart(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

fn assert_refused(args: &[&str], flag: &str) {
    assert_usage_error(args, &format!("does not take --{flag}"));
}

#[test]
fn a_flag_the_command_does_not_read_is_refused() {
    // No index exists: the refusal comes before any file is opened.
    assert_refused(&["bench", "idx.cuart", "--batchs", "4"], "batchs");
    assert_refused(&["serve", "idx.cuart", "--shard", "4"], "shard");
    assert_refused(&["bench", "idx.cuart", "--queue-cap", "8"], "queue-cap");
    // The fleet is spelled with `--device A,B`; the old flags are gone.
    assert_refused(&["bench-net", "idx.cuart", "--shards", "2"], "shards");
    assert_refused(
        &["serve", "idx.cuart", "--shard-devices", "a100,a100"],
        "shard-devices",
    );
    // The metrics format follows the file name.
    assert_refused(&["bench", "idx.cuart", "--format", "prom"], "format");
    // Every batch of more than one op is dispatched sorted; arrival order
    // is not a mode.
    assert_refused(&["serve", "idx.cuart", "--unsorted"], "unsorted");
    assert_refused(&["bench-net", "idx.cuart", "--unsorted"], "unsorted");
    // `reject` never waits, so a timeout beside it would go unread.
    assert_refused(
        &[
            "bench-net",
            "idx.cuart",
            "--admission",
            "reject",
            "--admission-timeout-us",
            "500",
        ],
        "admission-timeout-us",
    );
}

#[test]
fn replay_commands_folded_into_bench_are_unknown() {
    for cmd in ["query", "metrics", "trace"] {
        assert_usage_error(&[cmd, "idx.cuart"], &format!("unknown command {cmd:?}"));
    }
}

/// A scratch directory holding `keys.tsv` (500 keys `00000000`, … each
/// valued by its number) and `idx.cuart` built from it; `path` names a
/// file in the directory.
struct Fixture {
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("cuart-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let fixture = Fixture { dir };
        let lines: String = (0..500).map(|i| format!("{i:08}\t{i}\n")).collect();
        std::fs::write(fixture.path("keys.tsv"), lines).expect("key file");
        let (keys, idx) = (fixture.path("keys.tsv"), fixture.path("idx.cuart"));
        ok(&["build", "--keys", &keys, "--out", &idx]);
        fixture
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn ok(args: &[&str]) -> String {
    let out = cuart(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn bench_reads_the_shared_trace_out_spelling() {
    let fixture = Fixture::new("flags");
    let (idx, trace) = (fixture.path("idx.cuart"), fixture.path("t.json"));

    // The old spelling is refused, not ignored.
    assert_refused(&["bench", &idx, "--out", &trace], "out");
    assert!(!std::path::Path::new(&trace).exists());

    let args = ["bench", &idx, "--batch", "64", "--batches", "3"];
    let out = ok(&[&args[..], &["--trace-out", &trace]].concat());
    assert_eq!(out.matches(": critical path ").count(), 3, "{out}");
    let verdict = ok(&["verify-trace", &trace]);
    assert!(verdict.contains("3 batch trees"), "{verdict}");
}

/// A hex key is pairs of hex digits: a multi-byte character (not to be
/// sliced mid-character) and a sign (not to be read as part of a byte) are
/// input errors, exit 1.
#[test]
fn a_hex_key_that_is_not_hex_digits_is_an_input_error() {
    let fixture = Fixture::new("hex");
    let idx = fixture.path("idx.cuart");
    for key in ["aéb", "+1ff"] {
        let out = cuart(&["get", &idx, key, "--hex"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{key:?}: {stderr}");
        assert!(stderr.contains("bad hex key"), "{key:?}: {stderr}");
    }
}

/// `--op-deadline-us 0` sets no budget, as 0 does on the wire: every
/// lookup is served.
#[test]
fn a_zero_op_deadline_sheds_nothing() {
    let fixture = Fixture::new("deadline");
    let idx = fixture.path("idx.cuart");
    let args = ["bench-net", &idx, "--clients", "2", "--ops", "512"];
    let out = ok(&[&args[..], &["--device", "gtx1070", "--op-deadline-us", "0"]].concat());
    assert!(out.contains("512 hits, 0 refused"), "{out}");
}

#[test]
fn a_value_flag_without_its_value_is_refused() {
    // Last on the line, or followed by another flag: no value either way.
    let bench = ["bench", "idx.cuart", "--batch", "4"];
    assert_usage_error(
        &[&bench[..], &["--metrics-out"]].concat(),
        "--metrics-out takes a value",
    );
    assert_usage_error(
        &[&bench[..], &["--metrics-out", "--hex"]].concat(),
        "--metrics-out takes a value",
    );
}
