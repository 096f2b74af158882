//! The reconciliation table a traced run prints: where the wall-clock
//! went by layer (span self times), what the kernels predict for the same
//! work (`ns/op × count`), the re-sum, and what nobody owns.
//!
//! Uncontended, a faster layer saves at most its row's product.

use crate::batch::BatchSpec;
use crate::common::Delta;
use crate::kernels::{BatchKernels, ServeKernels};
use crate::metrics::Outcome;
use crate::serveload::Sample;
use crate::stats;
use crate::trace::Tracer;

fn row(layer: &str, item: &str, ns_per_op: f64, count: f64, wall_s: f64) -> f64 {
    let product_s = ns_per_op * count / 1e9;
    println!(
        "  {layer:<11} {item:<44} {ns_per_op:>11.1} {count:>12.0} {product_s:>9.4} {:>6.1}%",
        100.0 * product_s / wall_s
    );
    product_s
}

fn header(title: &str) {
    println!("\n# {title}");
    println!(
        "  {:<11} {:<44} {:>11} {:>12} {:>9} {:>7}",
        "layer", "item", "ns/op", "count", "seconds", "of wall"
    );
}

pub fn print_batch(
    spec: &BatchSpec,
    tracer: &Tracer,
    root: u32,
    delta: &Delta,
    k: &BatchKernels,
    out: &Outcome,
) {
    let spans = tracer.spans();
    let selfs = tracer.self_times_ns();
    let wall_s = spans[root as usize].dur_ns() as f64 / 1e9;
    let name = spec.workload.name();

    header(&format!(
        "{name}: span self time by layer (traced pass, wall {wall_s:.4} s)"
    ));
    let mut resum = 0.0;
    for (layer, ns) in tracer.self_by_layer(Some(1)) {
        let secs = ns as f64 / 1e9;
        resum += secs;
        println!(
            "  {layer:<11} {:<44} {:>11} {:>12} {secs:>9.4} {:>6.1}%",
            "self time of the layer's spans",
            "",
            "",
            100.0 * secs / wall_s
        );
    }
    println!(
        "  re-sum of layers {resum:.4} s = {:.1}% of wall",
        100.0 * resum / wall_s
    );

    header(&format!("{name}: largest spans by self time"));
    let mut by_name = std::collections::BTreeMap::<(&str, &str), (u64, u64)>::new();
    for s in spans.iter().filter(|s| s.trace == 1) {
        let e = by_name.entry((s.layer, s.name.as_str())).or_default();
        e.0 += selfs[s.id as usize];
        e.1 += 1;
    }
    let mut named: Vec<_> = by_name.into_iter().collect();
    named.sort_by_key(|&(_, (ns, _))| std::cmp::Reverse(ns));
    for ((layer, item), (ns, n)) in named.into_iter().take(12) {
        row(layer, item, ns as f64 / n as f64, n as f64, wall_s);
    }

    let probes = delta.counter_sum("scanner.probes_sent") as f64;
    let sent = delta.counter("netsim.udp_sent") as f64;
    let unbound = delta.counter("netsim.udp_unbound") as f64;
    // A bound-send kernel op is a probe, the host callback and its answer.
    let bound = ((sent - unbound) / 2.0).max(0.0);
    let records = delta.counter_sum("scanstore.records_committed") as f64;
    header(&format!(
        "{name}: kernels x counts (what each layer's public function costs for this work)"
    ));
    let mut predicted = 0.0;
    if spec.is_enum() {
        predicted += row(
            "scanner",
            "IpPermutation::next x probes",
            k.permute_ns,
            probes,
            wall_s,
        );
        predicted += row(
            "scanner",
            "EnumProbeTemplate::probe x probes",
            k.stamp_ns,
            probes,
            wall_s,
        );
        predicted += row(
            "netsim",
            "send, dark target x udp_unbound",
            k.send_dark_ns,
            unbound,
            wall_s,
        );
        predicted += row(
            "netsim",
            "send + run_until, live resolver x answered",
            k.send_bound_ns,
            bound,
            wall_s,
        );
        predicted += row(
            "dnswire",
            "Message::decode x answered",
            k.decode_ns,
            bound,
            wall_s,
        );
        predicted += row(
            "scanstore",
            "observe + commit (memory) x records",
            k.sink_mem_ns,
            records,
            wall_s,
        );
        let sweep_s = spans
            .iter()
            .filter(|s| s.name == "enumerate_with_sink")
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            / 1e9;
        println!(
            "  kernels predict {predicted:.4} s of the {sweep_s:.4} s inside enumerate_with_sink ({:.1}%); the rest is the event heap, \
             socket queues, the response map and batching, which no public function isolates",
            100.0 * predicted / sweep_s.max(1e-9)
        );
    } else {
        let pages = out.metrics.get("classify.unique_pages").unwrap_or(0.0);
        let pairs = out.metrics.get("htmlsim.pairs").unwrap_or(0.0);
        let fetched = delta.counter("pipeline.pages_fetched") as f64;
        let sweep_probes = delta.counter_sum("scanner.probes_sent{campaign=enumerate}") as f64;
        predicted += row(
            "scanner",
            "EnumProbeTemplate::probe x sweep probes",
            k.stamp_ns,
            sweep_probes,
            wall_s,
        );
        predicted += row(
            "netsim",
            "send, dark target x udp_unbound",
            k.send_dark_ns,
            unbound,
            wall_s,
        );
        predicted += row(
            "netsim",
            "send + run_until, live resolver x answered",
            k.send_bound_ns,
            bound,
            wall_s,
        );
        predicted += row(
            "dnswire",
            "Message::decode x answered",
            k.decode_ns,
            bound,
            wall_s,
        );
        predicted += row(
            "classify",
            "PreFilter::judge x answered",
            k.judge_ns,
            bound,
            wall_s,
        );
        predicted += row(
            "scanstore",
            "observe + commit (disk) x records",
            k.sink_disk_ns,
            records,
            wall_s,
        );
        predicted += row(
            "htmlsim",
            "tokenize x pages fetched",
            k.tokenize_ns,
            fetched,
            wall_s,
        );
        predicted += row(
            "htmlsim",
            "page_distance x page pairs",
            k.page_distance_ns,
            pairs,
            wall_s,
        );
        println!(
            "  kernels predict {predicted:.4} s = {:.1}% of wall ({pages:.0} unique pages, {pairs:.0} pairs)",
            100.0 * predicted / wall_s
        );
    }

    let unattributed = out
        .metrics
        .get("goingwild.unattributed_share")
        .unwrap_or(0.0);
    println!("\n# {name}: unattributed");
    println!("  goingwild.unattributed_share {unattributed:.4} ratio (self time of the pass and wrapper spans / wall)");
    if !spec.is_enum() {
        println!(
            "  still unowned inside collect_bundle: the banner and verify campaigns' own loops, World::advance_to \
             (lease renumbering) and CampaignStore open/commit - the program has no span around them and the bundle \
             engine cannot be driven from outside"
        );
    }
    println!("\n# gaps found, for later issues (not fixed here)");
    println!(
        "  - enumeration: `repro --exp fig1` spans (campaign.week, worldgen.build) own under half the wall; driven phase \
         by phase, World::advance_to, EnrichSink::new (clones the geo and rDNS databases every week) and dropping the \
         World own the rest - see the span table above"
    );
    println!(
        "  - the domains campaign publishes no scanner.probes_sent, so probes/s is undefined on repro_all and \
         work_per_s there counts simulated datagrams (netsim.udp_sent) instead"
    );
    println!("  - the banner and verify campaigns open no span; campaign.week and pipeline.analysis nest others without a parent id in the counters");
}

pub fn print_serve(
    b: &[Sample],
    to_first_us: &[f64],
    k: &ServeKernels,
    mix_handle_ns: f64,
    hit_rate: f64,
    in_process_ns: f64,
    out: &Outcome,
) {
    let ok: Vec<&Sample> = b.iter().filter(|s| s.ok).collect();
    if ok.is_empty() || to_first_us.is_empty() {
        return;
    }
    let n = ok.len() as f64;
    let mean_us =
        |f: &dyn Fn(&Sample) -> u64| ok.iter().map(|s| f(s)).sum::<u64>() as f64 / n / 1e3;
    let total_us = mean_us(&|s| s.done_ns - s.due_ns);
    println!(
        "\n# phase B, mean per request ({n:.0} requests, {total_us:.1} us from due to last byte)"
    );
    println!(
        "  {:<11} {:<44} {:>11} {:>9}",
        "layer", "item", "us", "of total"
    );
    let line = |layer: &str, item: &str, us: f64| {
        println!(
            "  {layer:<11} {item:<44} {us:>11.2} {:>8.1}%",
            100.0 * us / total_us
        );
    };
    line(
        "gwbench",
        "wait for a free client (generator lateness)",
        mean_us(&|s| s.start_ns - s.due_ns),
    );
    line(
        "serve",
        "connect -> first byte",
        mean_us(&|s| s.first_byte_ns - s.start_ns),
    );
    line(
        "serve",
        "first byte -> last byte",
        mean_us(&|s| s.done_ns - s.first_byte_ns),
    );
    println!("\n# in-process cost of one request, from the kernels (cache hit rate {hit_rate:.3})");
    line(
        "serve",
        "parse_request_line + split_target",
        k.parse_ns / 1e3,
    );
    line("serve", "LruCache::get", k.cache_get_ns / 1e3);
    line(
        "serve",
        "QueryEngine::handle, mix-weighted x miss share",
        (1.0 - hit_rate) * mix_handle_ns / 1e3,
    );
    line(
        "serve",
        "Response::to_wire x miss share",
        (1.0 - hit_rate) * k.to_wire_ns / 1e3,
    );
    line(
        "serve",
        "LruCache::put (evicting) x miss share",
        (1.0 - hit_rate) * k.cache_put_ns / 1e3,
    );
    line(
        "scanstore",
        "ReadIndex::lookup (inside handle)",
        k.index_lookup_ns / 1e3,
    );
    let median_first = stats::percentile_sorted(to_first_us, 0.5);
    println!(
        "  in-process {:.2} us of the {median_first:.1} us median connect -> first byte; serve.conn_us {:.1} us is accept, \
         the runtime's task hand-off and the loopback socket",
        in_process_ns / 1e3,
        out.metrics.get("serve.conn_us").unwrap_or(0.0)
    );
    println!("  the daemon answers on one thread: latency in phase B rises before throughput in phase A stops rising");
}
