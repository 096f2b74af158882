"""The assertions of ci/check.sh, one function per check:
`python3 ci/checks.py <check> [arg ...]`. A path argument names JSON, or
JSON lines if it ends in `.jsonl`; `-` is stdin. A failed check raises."""
import json
import sys

def load(path):
    f = sys.stdin if path == '-' else open(path)
    with f:
        if path.endswith('.jsonl'):
            return [json.loads(line) for line in f]
        return json.load(f)

def family(counters, prefix):
    return {k: v for k, v in counters.items() if k.startswith(prefix)}

def bundle(metrics):
    """Two lanes, a world each, and one run per campaign."""
    snap = load(metrics)
    counters = snap['counters']
    builds = counters.get('collect.world_builds', 0)
    lanes = counters.get('collect.lanes', 0)
    assert builds == lanes == 2, f'expected 2 lanes, a world each: {lanes}, {builds}'
    runs = family(counters, 'collect.campaign_runs')
    campaigns = ('weekly', 'fleet', 'chaos', 'banner',
                 'churn', 'snoop', 'domains', 'verify')
    for c in campaigns:
        key = 'collect.campaign_runs{campaign=%s}' % c
        assert runs.get(key, 0) == 1, f'{key}: {runs.get(key, 0)} runs'
    assert len(runs) == len(campaigns), runs
    derives = family(counters, 'derive.experiment_runs')
    # 16 registry entries minus the 5 subsumed by the analysis report.
    assert len(derives) == 11 and all(v == 1 for v in derives.values()), derives
    print(f'ok: {lanes} lanes, {len(runs)} campaigns once each, '
          f'{len(derives)} experiments derived')
    # The memory ledger: every scope present, the world's rows re-sum
    # to its total, a resolver (of the collected world) under 600 B.
    mem = family(snap['gauges'], 'mem.')
    for scope in ('world', 'store', 'analysis'):
        assert f'mem.{scope}_bytes' in mem, sorted(mem)
    rows = sum(v for k, v in mem.items()
               if k.startswith('mem.world.') and k.endswith('_bytes'))
    assert rows == mem['mem.world_bytes'], (rows, mem['mem.world_bytes'])
    each = mem['mem.world_bytes'] / mem['mem.world.resolvers']
    assert each <= 600, f'{each:.0f} bytes a resolver ({len(mem)} mem gauges)'

def telemetry(metrics, trace):
    """The metrics snapshot and the trace stream of the bundle."""
    snap = load(metrics)
    assert snap['telemetry'] == 'goingwild.metrics.v1', snap.get('telemetry')
    counters = snap['counters']
    # Every instrumented layer must have reported something.
    for prefix in ('netsim.', 'scanner.', 'scanstore.', 'span.campaign.'):
        hot = [k for k, v in family(counters, prefix).items() if v > 0]
        assert hot, f'no nonzero counters in family {prefix}'
    assert snap['gauges'].get('worldgen.resolvers', 0) > 0
    lines = load(trace)
    assert lines, 'empty trace'
    kinds = {l['type'] for l in lines}
    assert kinds == {'span', 'event', 'heartbeat'}, kinds
    names = {l['name'] for l in lines if l['type'] == 'span'}
    assert {'worldgen.build', 'campaign.week', 'campaign.enumerate'} <= names, names
    # Heartbeats march to completion and carry sim-time only.
    beats = [l for l in lines if l['type'] == 'heartbeat']
    assert all(b['name'] == 'collect.progress' for b in beats), beats
    assert beats[-1]['attrs']['permille'] == 1000, beats[-1]
    dones = [b['attrs']['done'] for b in beats]
    assert dones == sorted(dones), dones
    # Sequence numbers are dense and wall-clock never leaks in.
    assert [l['seq'] for l in lines] == list(range(len(lines)))
    assert not any('wall' in json.dumps(l) for l in lines)
    print(f'ok: {len(counters)} counters, {len(lines)} trace lines, '
          f'{len(beats)} heartbeats')

def chaos(metrics):
    """Faults fired and probes were retried."""
    counters = load(metrics)['counters']
    faults = family(counters, 'netsim.faults.')
    assert sum(faults.values()) > 0, f'fault plan never fired: {faults}'
    assert counters.get('netsim.faults.burst_drops', 0) > 0, faults
    retries = family(counters, 'scanner.retries')
    assert retries.get('scanner.retries{campaign=churn}', 0) > 0, retries
    # The churn funnel: every probe is a first probe of one of the
    # three rounds (day 1, two weeks) to the cohort or a retry, and
    # ends as a response or a timeout.
    churn = lambda name: counters['scanner.%s{campaign=churn}' % name]
    cohort = counters['scanner.responses{campaign=enumerate,rcode=NOERROR}']
    assert churn('probes_sent') == 3 * cohort + churn('retries'), counters
    assert churn('probes_sent') == churn('responses') + churn('timeouts')
    # The drain funnel of every sweep: each drained packet in one bucket.
    drained = list(family(counters, 'scanner.drained{'))
    assert drained, sorted(counters)
    for key in drained:
        parts = [counters.get('scanner.responses_%s%s' % (b, key[len('scanner.drained'):]), 0)
                 for b in ('matched', 'duplicate', 'unsolicited', 'not_response', 'malformed')]
        assert counters[key] == sum(parts), (key, counters[key], parts)
    print(f'ok: faults {faults}, retries {retries}')

def selftest(report, metrics):
    """The seeded fleet selftest is error-free and warms the cache."""
    report = load(report)
    assert report['errors'] == 0, report
    assert report['requests'] == 400, report
    counters = load(metrics)['counters']
    # Cache counters are labeled by endpoint; gate on family sums.
    hits = sum(family(counters, 'serve.cache.hit').values())
    misses = sum(family(counters, 'serve.cache.miss').values())
    assert hits > 0 and misses > 0, counters
    families = [k for k, v in family(counters, 'serve.requests{').items() if v > 0]
    assert len(families) >= 4, families
    print(f"ok: {report['requests']} requests, digest {report['digest']}, "
          f"{hits} hits / {misses} misses")

def fleet(report):
    r = load(report)
    assert r['errors'] == 0, r
    print('fleet ok:', r['requests'], 'requests')

def scrape(metrics):
    s = load(metrics)
    assert s['telemetry'] == 'goingwild.metrics.v1', s.get('telemetry')

def slo(doc):
    s = load(doc)
    assert s['state'] in ('ok', 'none'), s

def debug_requests(doc):
    d = load(doc)
    assert d['returned'] > 0, d

def tail_live(doc):
    d = load(doc)
    assert d['tail'] == 'goingwild.tail.v1', d
    print('tail live ok:', list(d.keys()))

def drained(metrics):
    s = load(metrics)
    assert 'serve.shutdown.requests' in s['gauges'], s['gauges']

def tail_file(doc):
    d = load(doc)
    assert d['requests'] > 0, d
    print('tail file ok:', d['requests'], 'requests')

def chaos_profile(report, profile):
    r = load(report)
    assert r['pass'] and r['chaos'] == profile, r

if __name__ == '__main__':
    globals()[sys.argv[1]](*sys.argv[2:])
