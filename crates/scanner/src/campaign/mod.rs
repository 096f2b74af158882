//! Measurement campaigns. The five that speak UDP — enumeration, churn,
//! CHAOS, snooping, the domain scan — say what to ask and how to read
//! the answer; `sweep` is the loop that sends, waits, retries and
//! counts for all of them.

pub mod acquire;
pub mod banner;
pub mod chaos;
pub mod churn;
pub mod domains;
pub mod enumerate;
pub mod snoop;
mod sweep;

/// Adds `n` to the counter `scanner.{name}{campaign}`.
fn count(name: &str, campaign: &'static str, n: u64) {
    telemetry::counter_with(&format!("scanner.{name}"), &[("campaign", campaign)]).add(n);
}

#[cfg(test)]
mod tests {
    use super::churn;
    use super::sweep::{Campaign, Outcome, Params, Sweep, Tally};
    use crate::simio::BASE_PORT;
    use dnswire::{MessageBuilder, MessageView, Name, Rcode, RecordType};
    use netsim::Datagram;
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use worldgen::{build_world, WorldConfig};

    thread_local! {
        /// The tally of every sweep this thread finished, in order.
        pub(super) static FINISHED: RefCell<Vec<(&'static str, Tally)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// All five campaigns, retrying under the `hostile` profile: every
    /// sweep's buckets re-sum to what it drained, and the published
    /// counters are the returned tallies.
    #[test]
    fn every_drained_packet_lands_in_one_counted_bucket() {
        let tel = telemetry::Telemetry::new();
        let _in = tel.enter();
        let mut world = build_world(WorldConfig::tiny(0x7A11));
        let vantage = world.scanner_ip;
        let fleet = crate::enumerate(&mut world, vantage, 1).noerror_ips();
        // Three strangers' packets, in flight to the port block when
        // the next sweep opens it: garbage, a query, and a response to
        // a question nobody asked.
        let port = world.net.open_socket(vantage, BASE_PORT);
        let name = Name::parse("stray.example").expect("a valid name");
        let query = MessageBuilder::query(7, name, RecordType::A).build();
        let reply = MessageBuilder::response_to(&query, Rcode::NoError).build();
        for payload in [vec![0xFF; 5], query.encode(), reply.encode()] {
            let stray = netsim::Datagram::new(fleet[0], 53, vantage, BASE_PORT, payload);
            world.net.send(stray, None);
        }
        world.net.close_socket(port).expect("just opened");
        let plan = netsim::FaultPlan::named("hostile", 0x7A11).expect("a built-in profile");
        world.net.set_fault_plan(plan);
        let policy = crate::ProbePolicy::retrying(3);
        let domains = ["facebook.example", "paypal.example"].map(String::from);
        let (tuples, null) = (&mut |_| {}, &mut scanstore::NullSink);

        crate::enumerate(&mut world, vantage, 2);
        churn::round(&mut world, vantage, &fleet, 1, 3, &policy, null).expect("no store");
        crate::chaos_scan(&mut world, vantage, &fleet, 4, &policy, null);
        crate::snoop_scan(&mut world, vantage, &fleet[..150], 2, 5, &policy, null)
            .expect("no store");
        let scan_domains = crate::scan_domains_streaming_with_policy;
        scan_domains(&mut world, vantage, &fleet, &domains, 6, &policy, tuples);

        let closed = FINISHED.with(|finished| finished.take());
        assert_eq!(closed.len(), 7, "one sweep per port block opened");
        for (campaign, t) in &closed {
            let buckets = t.matched + t.duplicate + t.unsolicited + t.not_response + t.malformed;
            assert_eq!(t.drained, buckets, "{campaign}: {t:?}");
            assert!(t.matched > 0, "{campaign}: {t:?}");
        }
        type Column = fn(&Tally) -> u64;
        let columns: [(&str, Column); 8] = [
            ("probes_sent", |t| t.probes),
            ("retries", |t| t.retries),
            ("responses_duplicate", |t| t.duplicate),
            ("responses_unsolicited", |t| t.unsolicited),
            ("responses_not_response", |t| t.not_response),
            ("responses_malformed", |t| t.malformed),
            ("drained", |t| t.drained),
            ("responses_matched", |t| t.matched),
        ];
        for campaign in ["enumerate", "churn", "chaos", "snoop", "domains"] {
            let sweeps = closed.iter().filter(|(name, _)| *name == campaign);
            let totals = columns.map(|(_, get)| sweeps.clone().map(|(_, t)| get(t)).sum::<u64>());
            let published = columns.map(|(name, _)| {
                let labels = [("campaign", campaign)];
                let counter = tel
                    .registry()
                    .counter_with(&format!("scanner.{name}"), &labels);
                counter.get()
            });
            assert_eq!(published, totals, "{campaign}");
            // The strays reached the first sweep after them, and only it.
            let strays = u64::from(campaign == "enumerate");
            assert_eq!(totals[3..6], [strays, strays, strays], "{campaign}");
            assert_eq!(totals[1] > 0, campaign != "enumerate", "{campaign} retries");
        }
        // Only the sweep stamped ahead waited for a stamper.
        for campaign in ["enumerate", "churn", "chaos", "snoop", "domains"] {
            let key = format!("scanner.stamp_wait.wall_us{{campaign={campaign}}}");
            let published = tel.registry().snapshot().counter(&key).is_some();
            assert_eq!(published, campaign == "enumerate", "{key}");
        }
    }

    /// A stamper that panics fails its sweep: the sending thread stops
    /// taking chunks and the panic reaches the caller, so a sweep cut
    /// short never returns as if it were whole.
    #[test]
    #[should_panic(expected = "the stamper failed")]
    fn a_stamper_panic_fails_the_sweep() {
        struct Deaf;
        impl Campaign for Deaf {
            const P: Params = super::sweep::ENUMERATE;

            fn read(&mut self, _: &MessageView<'_>, _: u16, _: &Datagram) -> Outcome {
                Outcome::Unsolicited
            }
        }
        let mut world = build_world(WorldConfig::tiny(3));
        let vantage = world.scanner_ip;
        let mut sweep = Sweep::open(&mut world, vantage, Deaf, crate::ProbePolicy::single());
        let targets = (0..10_000).map(|i| Ipv4Addr::from(0x0A00_0000 + i));
        sweep.scan_ahead(&mut world, targets, |target, chunk| {
            assert!(
                u32::from(target) < 0x0A00_0000 + 5_000,
                "the stamper failed"
            );
            chunk.push(0, target, 12);
        });
    }
}
