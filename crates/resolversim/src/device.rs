//! Hardware / OS device profiles and the TCP banners they expose
//! (Section 2.4, Table 4).
//!
//! The paper fingerprints devices by connecting to FTP, HTTP, HTTPS,
//! SSH, and Telnet and matching >2,245 hand-written regexes against the
//! banners. Here every device class emits characteristic banner strings;
//! the scanner side (`classify::fingerprint`) carries the matching rules
//! and the Table 4 categories, which the planted devices are named in.

pub use classify::fingerprint::{DeviceClass, DeviceOs};
use netsim::{HttpResponse, TcpRequest, TcpResponse};

/// A device's externally observable TCP surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Hardware category.
    pub class: DeviceClass,
    /// Operating system.
    pub os: DeviceOs,
    /// Whether the host exposes any TCP services at all. The paper gets
    /// banners from only 26.3% of resolvers.
    pub tcp_exposed: bool,
    /// Stable per-device noise (serial numbers in banners etc.).
    pub serial: u32,
}

impl DeviceProfile {
    /// A device that exposes nothing.
    pub fn closed() -> Self {
        DeviceProfile {
            class: DeviceClass::Unknown,
            os: DeviceOs::Unknown,
            tcp_exposed: false,
            serial: 0,
        }
    }

    /// Banner for a TCP service port, or `None` if the port is closed on
    /// this device.
    pub fn banner(&self, port: u16) -> Option<String> {
        if !self.tcp_exposed {
            return None;
        }
        let s = self.serial;
        match (self.class, self.os, port) {
            // --- FTP (21) ---
            (DeviceClass::Router, DeviceOs::ZyNos, 21) => {
                Some(format!("220 ZyRouter FTP version 1.0 ready (ZyNOS) S/N {s}"))
            }
            (DeviceClass::Router, _, 21) => Some("220 router ftpd ready".into()),
            (DeviceClass::Nas, _, 21) => {
                Some(format!("220 NAS4You file server (ProFTPD) unit {s}"))
            }
            (_, DeviceOs::Linux, 21) => Some("220 (vsFTPd 2.3.5)".into()),
            (_, DeviceOs::CentOs, 21) => Some("220 (vsFTPd 3.0.2) CentOS release".into()),
            // --- SSH (22) ---
            (_, DeviceOs::Linux, 22) => Some("SSH-2.0-dropbear_2012.55".into()),
            (_, DeviceOs::CentOs, 22) => Some("SSH-2.0-OpenSSH_5.3 CentOS".into()),
            (_, DeviceOs::Unix, 22) => Some("SSH-2.0-OpenSSH_6.2 FreeBSD".into()),
            (DeviceClass::Firewall, _, 22) => Some("SSH-2.0-FortressWall_fw".into()),
            (_, DeviceOs::RouterOs, 22) => Some("SSH-2.0-ROSSSH".into()),
            // --- Telnet (23) ---
            (DeviceClass::Router, DeviceOs::ZyNos, 23) => {
                Some("ZyRouter login: Password: (ZyNOS firmware)".into())
            }
            (DeviceClass::Router, DeviceOs::SmartWare, 23) => {
                Some("SmartWare R6.T automaton login:".into())
            }
            (DeviceClass::Dvr, _, 23) => Some(format!("dm500plus login: unit{s}")),
            (DeviceClass::Dslam, _, 23) => {
                Some("DSLAM-ACCESS MultiplexNode user access verification".into())
            }
            (DeviceClass::Router, _, 23) => Some("BCM96338 ADSL Router\r\nLogin:".into()),
            (_, DeviceOs::Windows, 23) => {
                Some("Welcome to Microsoft Telnet Service\r\nlogin:".into())
            }
            // --- HTTP (80) ---
            (DeviceClass::Router, DeviceOs::ZyNos, 80) => Some(
                "HTTP/1.0 401 Unauthorized\r\nWWW-Authenticate: Basic realm=\"ZyRouter ZR-660\"\r\nServer: RomPager/4.07 UPnP/1.0".into(),
            ),
            (DeviceClass::Embedded, _, 80) => {
                Some("HTTP/1.0 200 OK\r\nServer: GoAhead-Webs".into())
            }
            (DeviceClass::Camera, _, 80) => Some(format!(
                "HTTP/1.0 200 OK\r\nServer: NetCam-httpd\r\nrealm=\"netcam {s}\""
            )),
            (DeviceClass::Router, DeviceOs::RouterOs, 80) => {
                Some("HTTP/1.0 200 OK\r\nServer: mikrotik routeros webfig".into())
            }
            (DeviceClass::Firewall, _, 80) => {
                Some("HTTP/1.0 403 Forbidden\r\nServer: FortressWall appliance".into())
            }
            (DeviceClass::Nas, _, 80) => {
                Some("HTTP/1.0 200 OK\r\nServer: NAS4You-WebAdmin".into())
            }
            (DeviceClass::Dvr, _, 80) => {
                Some("HTTP/1.0 200 OK\r\nServer: DVR-Webs dm500plus".into())
            }
            (_, DeviceOs::Windows, 80) => {
                Some("HTTP/1.0 200 OK\r\nServer: Microsoft-IIS/7.5".into())
            }
            (_, DeviceOs::CentOs, 80) => {
                Some("HTTP/1.0 403 Forbidden\r\nServer: Apache/2.2.15 (CentOS)".into())
            }
            (_, DeviceOs::Linux, 80) => {
                Some("HTTP/1.0 200 OK\r\nServer: lighttpd/1.4.28 (linux)".into())
            }
            (_, DeviceOs::Unix, 80) => {
                Some("HTTP/1.0 200 OK\r\nServer: Apache/2.4.6 (Unix)".into())
            }
            // Hosts that expose TCP but whose banners match no
            // fingerprint rule — the "Unknown" columns of Table 4
            // (29.3% hardware / 23.9% OS).
            (DeviceClass::Unknown, _, 21) => Some(format!("220 service ready ({s})")),
            (DeviceClass::Unknown, _, 80) => Some("HTTP/1.0 200 OK".into()),
            _ => None,
        }
    }

    /// Serve a banner probe as a [`TcpResponse`], mirroring how the
    /// fingerprint scan consumes it. HTTP requests to CPE devices yield
    /// the device's administration login page — this is what the study's
    /// HTTP acquisition sees for the 8,194 self-IP resolvers (Sec. 4.1:
    /// 65.9% router logins, 7.0% IP cameras).
    pub fn probe(&self, port: u16, req: &TcpRequest) -> Option<TcpResponse> {
        match req {
            TcpRequest::BannerProbe => self.banner(port).map(TcpResponse::Banner),
            TcpRequest::Http(_) if port == 80 => {
                if !self.tcp_exposed {
                    return None;
                }
                let ctx = htmlsim::gen::PageCtx::new("device.local", self.serial as u64);
                let body = match self.class {
                    DeviceClass::Router => {
                        let vendor = match self.os {
                            DeviceOs::ZyNos => htmlsim::gen::RouterVendor::ZyRouter,
                            DeviceOs::SmartWare => htmlsim::gen::RouterVendor::TpConnect,
                            _ => htmlsim::gen::RouterVendor::Generic,
                        };
                        htmlsim::gen::router_login(vendor, &ctx)
                    }
                    DeviceClass::Camera => htmlsim::gen::camera_login(&ctx),
                    _ => format!(
                        "<html><head><title>{}</title></head><body>{}</body></html>",
                        self.class.label(),
                        self.banner(80).unwrap_or_default()
                    ),
                };
                Some(TcpResponse::Http(HttpResponse::ok(body)))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(class: DeviceClass, os: DeviceOs) -> DeviceProfile {
        DeviceProfile {
            class,
            os,
            tcp_exposed: true,
            serial: 1234,
        }
    }

    #[test]
    fn closed_device_answers_nothing() {
        let d = DeviceProfile::closed();
        for port in [21, 22, 23, 80] {
            assert!(d.banner(port).is_none());
        }
    }

    #[test]
    fn zynos_router_identifiable_on_multiple_ports() {
        let d = dev(DeviceClass::Router, DeviceOs::ZyNos);
        assert!(d.banner(21).unwrap().contains("ZyNOS"));
        assert!(d.banner(23).unwrap().contains("ZyNOS"));
        assert!(d.banner(80).unwrap().contains("RomPager"));
    }

    #[test]
    fn dvr_token_matches_paper_example() {
        // The paper's worked example: "dm500plus login" → DVR.
        let d = dev(DeviceClass::Dvr, DeviceOs::Linux);
        assert!(d.banner(23).unwrap().contains("dm500plus login"));
    }

    #[test]
    fn embedded_serves_goahead() {
        let d = dev(DeviceClass::Embedded, DeviceOs::Unknown);
        assert!(d.banner(80).unwrap().contains("GoAhead-Webs"));
    }

    #[test]
    fn serial_varies_banners() {
        let mut a = dev(DeviceClass::Camera, DeviceOs::Linux);
        let mut b = a.clone();
        a.serial = 1;
        b.serial = 2;
        assert_ne!(a.banner(80), b.banner(80));
    }

    #[test]
    fn probe_wraps_responses() {
        let d = dev(DeviceClass::Router, DeviceOs::ZyNos);
        let r = d.probe(21, &TcpRequest::BannerProbe).unwrap();
        assert!(r.as_banner().unwrap().contains("ZyRouter"));
        assert!(d.probe(9999, &TcpRequest::BannerProbe).is_none());
    }
}
