//! The `cuart-analyze` binary: regenerate the files derived from the
//! metric/span catalog in [`cuart_analyze::registry`].
//!
//! ```text
//! cuart-analyze --emit-registry        # rewrite crates/telemetry/src/names.rs
//! cuart-analyze --emit-design-table    # rewrite the DESIGN.md §6 metric table
//! cuart-analyze --root P ...           # against the workspace at P (default .)
//! ```

use cuart_analyze::registry::{self, TABLE_BEGIN, TABLE_END};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cuart-analyze [--root P] [--emit-registry] [--emit-design-table]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let (mut emit_registry, mut emit_design_table) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return fail("--root needs a path"),
            },
            "--emit-registry" => emit_registry = true,
            "--emit-design-table" => emit_design_table = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !emit_registry && !emit_design_table {
        return fail(USAGE);
    }
    if emit_registry {
        let path = root.join("crates/telemetry/src/names.rs");
        if let Err(e) = std::fs::write(&path, registry::generate_names_rs()) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }
    if emit_design_table {
        if let Err(e) = rewrite_design_table(&root.join("DESIGN.md")) {
            return fail(&e);
        }
    }
    ExitCode::SUCCESS
}

/// Replace the text between DESIGN.md's metric-table markers with the
/// table generated from the catalog.
fn rewrite_design_table(path: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let (Some(b), Some(e)) = (text.find(TABLE_BEGIN), text.find(TABLE_END)) else {
        return Err(format!(
            "{} lacks the {TABLE_BEGIN} … {TABLE_END} markers",
            path.display()
        ));
    };
    let new = format!(
        "{}{TABLE_BEGIN}\n{}\n{}",
        &text[..b],
        registry::generate_metric_table(),
        &text[e..]
    );
    std::fs::write(path, new).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("rewrote metric table in {}", path.display());
    Ok(())
}

fn fail(message: &str) -> ExitCode {
    eprintln!("cuart-analyze: {message}");
    ExitCode::from(2)
}
