//! One image, shared copy-on-write: sessions, shards, one-shot lookups
//! and snapshot loads read the index image in place, and a device owns only
//! the chunks it has written.
//!
//! Every test runs on a default-config index (`lut_span` 3, the paper's
//! 128 MiB compacted root), where a copy would show. They run one at a time:
//! one of them measures this process's resident memory.

use cuart::update::status;
use cuart::{CuartConfig, CuartIndex, CuartSession};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::devices;
use cuart_host::scheduler::SchedulerConfig;
use cuart_host::sharded::ShardedScheduler;
use cuart_telemetry::{names, Telemetry};
use std::sync::{Arc, Mutex};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `n` spread 8-byte keys, value = i + 1.
fn index(n: u64) -> (CuartIndex, Vec<Vec<u8>>) {
    let keys: Vec<Vec<u8>> = (0..n)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes().to_vec())
        .collect();
    let mut art = Art::new();
    for (i, k) in keys.iter().enumerate() {
        art.insert(k, i as u64 + 1).unwrap();
    }
    (CuartIndex::build(&art, &CuartConfig::default()), keys)
}

fn copied_chunks(session: &CuartSession<'_>) -> (usize, usize) {
    let (mem, tree) = (session.device_memory(), session.device_tree());
    let leaves = [tree.leaf8, tree.leaf16, tree.leaf32]
        .map(|id| mem.buffer(id).copied_chunks())
        .iter()
        .sum();
    (leaves, mem.buffer(tree.lut).copied_chunks())
}

fn values(session: &mut CuartSession<'_>, keys: &[Vec<u8>]) -> Vec<u64> {
    session.lookup_batch(keys).unwrap().0
}

#[test]
fn sessions_share_the_image_and_own_only_what_they_write() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (index, keys) = index(3000);
    let dev = devices::rtx3090();
    let (mut a, mut b) = (index.device_session(&dev), index.device_session(&dev));
    for s in [&a, &b] {
        let mem = s.device_memory();
        assert_eq!(mem.owned_bytes(), 0, "open copies nothing");
        assert_eq!(mem.shared_bytes(), index.device_bytes());
    }
    let before: Vec<u64> = (1..=keys.len() as u64).collect();
    assert_eq!(values(&mut a, &keys), before);
    assert_eq!(
        a.device_memory().owned_bytes(),
        0,
        "lookups write no image chunk"
    );
    assert_eq!(copied_chunks(&a), (0, 0));

    let k = 40;
    let ops: Vec<(Vec<u8>, u64)> = keys[..k].iter().map(|key| (key.clone(), 7)).collect();
    let (statuses, _) = a.update_batch(&ops).unwrap();
    assert!(statuses.iter().all(|&s| s == status::APPLIED));
    let (leaf_chunks, lut_chunks) = copied_chunks(&a);
    assert!(
        (1..=k).contains(&leaf_chunks),
        "{leaf_chunks} leaf chunks for {k} updates"
    );
    assert_eq!(lut_chunks, 0, "updates rewrite values, never the LUT");
    assert!(a.device_memory().owned_bytes() <= leaf_chunks * 4096);

    // The write is `a`'s alone.
    let mut updated = before.clone();
    updated[..k].fill(7);
    assert_eq!(values(&mut a, &keys), updated);
    assert_eq!(values(&mut b, &keys), before, "the other session");
    assert_eq!(index.lookup_cpu(&keys[0]), Some(1), "the image");
    assert_eq!(
        values(&mut index.device_session(&dev), &keys),
        before,
        "a later session"
    );
    let (one_shot, _) = index.lookup_batch_device(&dev, &keys[..k], 8);
    assert_eq!(one_shot, before[..k], "a one-shot upload");
}

#[test]
fn a_fleet_shares_one_image() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (index, keys) = index(3000);
    let telemetry = Arc::new(Telemetry::new());
    let index = Arc::new(index.with_telemetry(telemetry.clone()));
    let devs = [devices::rtx3090(), devices::rtx3090()];
    let fleet =
        ShardedScheduler::spawn(Arc::clone(&index), &devs, SchedulerConfig::default()).unwrap();
    let client = fleet.client().unwrap();
    let before: Vec<u64> = (1..=keys.len() as u64).collect();
    assert_eq!(client.lookup(keys.clone()).unwrap(), before);
    let gauge = |name| telemetry.gauge(name).get() as usize;
    assert_eq!(
        gauge(names::DEVICE_OWNED_BYTES),
        0,
        "neither shard copied its image"
    );
    assert_eq!(gauge(names::DEVICE_SHARED_BYTES), index.device_bytes());

    let ops: Vec<(Vec<u8>, u64)> = keys[..64].iter().map(|key| (key.clone(), 9)).collect();
    assert!(client
        .update(ops)
        .unwrap()
        .iter()
        .all(|&s| s == status::APPLIED));
    assert_eq!(client.lookup(keys[..64].to_vec()).unwrap(), vec![9; 64]);
    assert_eq!(
        index.lookup_cpu(&keys[0]),
        Some(1),
        "the image is untouched"
    );
    let mut later = index.device_session(&devices::rtx3090());
    assert_eq!(values(&mut later, &keys[..64]), before[..64]);
    fleet.join().unwrap();
}

/// This process's resident set, in KiB.
fn rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn a_loaded_snapshot_leaves_its_lut_holes_untouched() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (index, keys) = index(500);
    let path = std::env::temp_dir().join(format!("cuart-holes-{}.cuart", std::process::id()));
    index.save(&path).unwrap();
    drop(index);
    let before = rss_kib();
    let loaded = CuartIndex::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut session = loaded.device_session(&devices::rtx3090());
    let expect: Vec<u64> = (1..=keys.len() as u64).collect();
    assert_eq!(values(&mut session, &keys), expect);
    let miss = vec![0u8, 0, 1, 0, 0, 0, 0, 0];
    assert_eq!(
        values(&mut session, &[miss]),
        [NOT_FOUND],
        "a hole reads as a null link"
    );
    let grown_mib = rss_kib().saturating_sub(before) / 1024;
    // Resident, the LUT alone would be 128 MiB — twice over with a device copy.
    if before > 0 {
        assert!(
            grown_mib < 48,
            "load + open + lookups grew RSS by {grown_mib} MiB"
        );
    }
}
