//! The index commands: build, info, get, range and verify-snapshot.

use crate::{load_key_file, parse_key, CliError};
use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use std::fmt::Write as _;
use std::path::Path;

/// Build an index from a key file and save it.
pub fn cmd_build(
    keys_path: &Path,
    out_path: &Path,
    hex: bool,
    lut_span: usize,
) -> Result<String, CliError> {
    let pairs = load_key_file(keys_path, hex)?;
    let mut art = Art::new();
    for (k, v) in &pairs {
        art.insert(k, *v)
            .map_err(|e| CliError::Input(format!("key {:?}: {e}", preview(k))))?;
    }
    let cfg = CuartConfig {
        lut_span,
        ..CuartConfig::default()
    };
    let index = CuartIndex::build(&art, &cfg);
    index.save(out_path)?;
    Ok(format!(
        "built {} keys -> {} ({:.1} MiB device image)",
        index.len(),
        out_path.display(),
        mib(&index)
    ))
}

/// The index's device image in MiB.
fn mib(index: &CuartIndex) -> f64 {
    index.device_bytes() as f64 / (1 << 20) as f64
}

/// Describe a saved index.
pub fn cmd_info(path: &Path) -> Result<String, CliError> {
    use cuart::link::LinkType::{Leaf16, Leaf32, Leaf8, N16, N256, N2L, N4, N48};
    let index = CuartIndex::load(path)?;
    let b = index.buffers();
    let mut out = String::new();
    writeln!(out, "{}:", path.display()).expect("write");
    writeln!(out, "  keys:            {}", index.len()).expect("write");
    writeln!(out, "  max key length:  {} bytes", b.max_key_len).expect("write");
    writeln!(out, "  lut span:        {} bytes", b.config.lut_span).expect("write");
    writeln!(out, "  long-key policy: {:?}", b.config.long_key_policy).expect("write");
    writeln!(out, "  device image:    {:.1} MiB", mib(&index)).expect("write");
    let links = [
        ("N4", N4),
        ("N16", N16),
        ("N48", N48),
        ("N256", N256),
        ("N2L", N2L),
    ];
    let leaves = [("leaf8", Leaf8), ("leaf16", Leaf16), ("leaf32", Leaf32)];
    for (label, ty) in links.into_iter().chain(leaves) {
        let n = b.record_count(ty);
        if n > 0 {
            writeln!(out, "  {label:<6} records:  {n}").expect("write");
        }
    }
    if b.host_entries() > 0 {
        writeln!(out, "  host-side keys:  {}", b.host_entries()).expect("write");
    }
    Ok(out.trim_end().to_string())
}

/// Point lookup through the CPU engine.
pub fn cmd_get(path: &Path, key: &str, hex: bool) -> Result<String, CliError> {
    let index = CuartIndex::load(path)?;
    let key = parse_key(key, hex)?;
    Ok(match index.lookup_cpu(&key) {
        Some(v) => format!("{v}"),
        None => "(not found)".to_string(),
    })
}

/// Inclusive range query; prints up to `limit` rows plus the span sizes.
pub fn cmd_range(
    path: &Path,
    lo: &str,
    hi: &str,
    hex: bool,
    limit: usize,
) -> Result<String, CliError> {
    let index = CuartIndex::load(path)?;
    let lo = parse_key(lo, hex)?;
    let hi = parse_key(hi, hex)?;
    let rows = cuart::range::range_query(index.buffers(), &lo, &hi);
    let mut out = String::new();
    for (k, v) in rows.iter().take(limit) {
        writeln!(out, "{}\t{v}", render(k, hex)).expect("write");
    }
    writeln!(out, "({} rows total)", rows.len()).expect("write");
    Ok(out.trim_end().to_string())
}

/// Validate a saved snapshot: header, per-section CRCs and a structural
/// parse — without keeping the index in memory.
pub fn cmd_verify_snapshot(path: &Path) -> Result<String, CliError> {
    let info = cuart::persist::verify_snapshot(path)?;
    Ok(format!(
        "{}: OK — format v{}, {} sections CRC-verified, {} bytes, {} keys",
        path.display(),
        info.version,
        info.sections,
        info.file_bytes,
        info.entries
    ))
}

fn preview(key: &[u8]) -> String {
    String::from_utf8_lossy(&key[..key.len().min(24)]).into_owned()
}

fn render(key: &[u8], hex: bool) -> String {
    if hex {
        key.iter().map(|b| format!("{b:02x}")).collect()
    } else {
        String::from_utf8_lossy(key).into_owned()
    }
}
