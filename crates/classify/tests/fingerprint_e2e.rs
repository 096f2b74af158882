//! Closed-loop fingerprinting test: the generated world has the paper's
//! device and software mixes; the scan + classifier must recover them.

use classify::fingerprint::{DeviceClass, DeviceOs};
use classify::{classify_version, fingerprint_device, SoftwareClass};
use scanner::{banner_scan, chaos_scan, enumerate, ChaosObservation, ProbePolicy};
use std::collections::HashMap;
use worldgen::{build_world, WorldConfig};

#[test]
fn device_mix_recovered_from_banners() {
    let mut w = build_world(WorldConfig::tiny(31));
    let vantage = w.scanner_ip;
    let fleet = enumerate(&mut w, vantage, 1).noerror_ips();
    let (banners, _) = banner_scan(&mut w, &fleet, &ProbePolicy::single());

    let mut hw: HashMap<DeviceClass, usize> = HashMap::new();
    let mut os: HashMap<DeviceOs, usize> = HashMap::new();
    for obs in banners.values() {
        let fp = fingerprint_device(obs);
        *hw.entry(fp.class).or_insert(0) += 1;
        *os.entry(fp.os).or_insert(0) += 1;
    }
    let total = banners.len() as f64;
    let hw_share = |c: DeviceClass| *hw.get(&c).unwrap_or(&0) as f64 / total;
    let os_share = |c: DeviceOs| *os.get(&c).unwrap_or(&0) as f64 / total;

    // Paper Table 4: routers 34.1% of TCP-responsive hosts.
    let router = hw_share(DeviceClass::Router);
    assert!((0.22..0.46).contains(&router), "router share {router}");
    // ZyNOS 16.6%.
    let zynos = os_share(DeviceOs::ZyNos);
    assert!((0.08..0.26).contains(&zynos), "ZyNOS share {zynos}");
    // A large Unknown bucket must remain (paper: 29.3% hardware).
    let unknown = hw_share(DeviceClass::Unknown);
    assert!((0.05..0.45).contains(&unknown), "unknown share {unknown}");
    // Cameras and DVRs exist but are small.
    assert!(hw_share(DeviceClass::Camera) < 0.08);
    assert!(hw_share(DeviceClass::Dvr) < 0.06);
}

#[test]
fn software_mix_recovered_from_chaos() {
    let mut w = build_world(WorldConfig::tiny(32));
    let vantage = w.scanner_ip;
    let fleet = enumerate(&mut w, vantage, 2).noerror_ips();
    let sink = &mut scanstore::NullSink;
    let (obs, _) = chaos_scan(&mut w, vantage, &fleet, 2, &ProbePolicy::single(), sink);

    let mut known = 0usize;
    let mut custom = 0usize;
    let mut errors = 0usize;
    let mut bind = 0usize;
    let mut total = 0usize;
    for o in obs.values() {
        match o {
            ChaosObservation::Silent => {}
            ChaosObservation::Errors => {
                total += 1;
                errors += 1;
            }
            ChaosObservation::EmptyAnswers => total += 1,
            ChaosObservation::Version(v) => {
                total += 1;
                match classify_version(v) {
                    SoftwareClass::Known { family, .. } => {
                        known += 1;
                        if family == "BIND" {
                            bind += 1;
                        }
                    }
                    SoftwareClass::Custom(_) => custom += 1,
                }
            }
        }
    }
    let t = total as f64;
    // Paper: 42.7% errors, 18.8% custom, 33.9% genuine.
    assert!(
        (0.32..0.54).contains(&(errors as f64 / t)),
        "errors {}",
        errors as f64 / t
    );
    assert!(
        (0.10..0.28).contains(&(custom as f64 / t)),
        "custom {}",
        custom as f64 / t
    );
    assert!(
        (0.24..0.44).contains(&(known as f64 / t)),
        "known {}",
        known as f64 / t
    );
    // BIND ≈ 60.2% of version leakers (custom strings like "9.9.9" leak
    // into Known-BIND, so allow a wide band).
    let bind_share = bind as f64 / known.max(1) as f64;
    assert!((0.45..0.75).contains(&bind_share), "bind {bind_share}");
}
