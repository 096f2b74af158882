//! Helpers shared by the integration tests of this crate.
#![allow(dead_code)]

use scanstore::{CampaignStore, Observation, ObservationSink, SnapshotSink};
use std::path::{Path, PathBuf};

/// A scratch directory under the system temp dir, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("gw-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Two campaigns whose strings need escaping everywhere a value is
/// written: software, device, rDNS, snapshot labels and commit meta.
pub fn seed_store(root: &Path) {
    let mut weekly = CampaignStore::open(root.join("weekly")).unwrap();
    let us = weekly.intern("US");
    let de = weekly.intern("DE");
    let soft = weekly.intern("dnsmasq \"2.51\"\t\u{1}");
    let device = weekly.intern("router\\cpe");
    let rdns = weekly.intern("dyn-ü\u{1f600}");
    for week in 0u32..3 {
        for ip in [10u32, 20, 30, 40] {
            if ip == 40 && week > 0 {
                continue;
            }
            let mut o = Observation::at(ip, if ip == 30 { 5 } else { 0 }, 1_000 + u64::from(week));
            o.country = if ip == 20 { de } else { us };
            o.asn = if ip == 20 { 2 } else { 1 };
            if ip == 10 {
                o.software = soft;
                o.device = device;
                o.rdns = rdns;
                o.flags = scanstore::flags::TCP_RESPONSIVE | scanstore::flags::PROXY;
                o.banner_hash = 0xdead_beef;
                o.value = 7;
            }
            weekly.observe(o);
        }
        let label = if week == 1 {
            "week \"1\"".to_string()
        } else {
            format!("week-{week}")
        };
        let meta = [
            ("vantage".to_string(), format!("ams\\{week}")),
            ("note".to_string(), "tab\there\n\u{1f}".to_string()),
        ];
        weekly
            .commit(&label, 1_000 + u64::from(week), &meta)
            .unwrap();
    }
    let mut banner = CampaignStore::open(root.join("banner")).unwrap();
    let us = banner.intern("US");
    let mut o = Observation::at(10, 0, 5_000);
    o.country = us;
    o.asn = 1;
    banner.observe(o);
    banner.commit("scan", 5_000, &[]).unwrap();
}
