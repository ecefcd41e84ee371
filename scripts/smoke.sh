#!/bin/sh
# smoke.sh: end-to-end smokes of cmd/sweep, the sweepd service and its
# cluster mode, and the observability surfaces.
#
#   sh scripts/smoke.sh <scenario>...   (sweep svc cluster chaos fct obs trace)
#
# Each scenario's contract is the numbered comment above its function. One
# invocation shares one temp dir, builds each command at most once, and
# kills every background process it started on exit. Nonzero exit, tagged
# with the scenario and its log tails, on any mismatch. $GO picks the
# toolchain (default go).
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
PATH="$tmp/bin:$PATH"
scenario=smoke
d=$tmp

cleanup() {
    rm -f "$tmp/run"
    # Two passes: a chaos restart loop may register a new worker while the
    # first pass kills it.
    for pass in 1 2; do
        for p in $(cat "$tmp/pids" 2>/dev/null); do kill "$p" 2>/dev/null || true; done
        wait
    done
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

say() { echo "smoke $scenario: $*" >&2; }

fail() { # fail <msg>: tag the failure with the scenario, tail its logs, exit 1
    say "FAIL: $*"
    for log in "$d"/*.log; do
        [ -f "$log" ] && tail -20 "$log" | sed "s|^|smoke $scenario: $(basename "$log" .log): |" >&2
    done
    exit 1
}

need() { # need <cmd>...: build each command into $tmp/bin the first time it is needed
    pkgs=""
    for c; do
        [ -x "$tmp/bin/$c" ] && continue
        echo "smoke: building $c" >&2
        if [ -d "cmd/$c" ]; then pkgs="$pkgs ./cmd/$c"; else pkgs="$pkgs ./scripts/$c"; fi
    done
    # Stripped binaries link faster; stack traces keep their line numbers.
    [ -z "$pkgs" ] || $GO build -ldflags='-s -w' -o "$tmp/bin/" $pkgs || fail "go build$pkgs"
}

bg() { # bg <log> <cmd>...: run cmd in the background, stderr to log; cleanup kills it
    log=$1
    shift
    "$@" >/dev/null 2>>"$log" &
    echo $! >>"$tmp/pids"
}

start_sweepd() { # start_sweepd <log> <args>...: sweepd on an ephemeral port; sets $pid and $base
    name=$1
    shift
    rm -f "$d/addr"
    bg "$d/$name.log" sweepd -addr 127.0.0.1:0 -addr-file "$d/addr" "$@"
    pid=$!
    i=0
    while [ ! -f "$d/addr" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "$name did not come up"
        sleep 0.1
    done
    base="http://$(cat "$d/addr")"
}

stop() { # stop <pid> <what>: SIGTERM and require a clean exit
    kill "$1" && wait "$1" || fail "$2 exited non-zero on SIGTERM"
}

metric() { # metric <name> [file]: one /metrics value from $base, or from a saved scrape
    if [ $# -gt 1 ]; then cat "$2"; else curl -sf "$base/metrics"; fi |
        awk -v m="$1" '$1 == m {print $2}'
}

same_science() { # same_science <a> <b> <what>: a = b byte for byte, modulo wall_ns
    grep -v '"wall_ns"' "$1" >"$1.norm"
    grep -v '"wall_ns"' "$2" >"$2.norm"
    cmp -s "$1.norm" "$2.norm" || {
        diff "$1.norm" "$2.norm" | head -40 >&2
        fail "$3"
    }
}

submit() { # submit <sweep args>...: sweep -remote $base, stdout to $d/remote.out; sets $job
    sweep "$@" -remote "$base" >"$d/remote.out" 2>"$d/remote.log" ||
        fail "sweep -remote exited non-zero"
    # The job id is on the client's banner: "sweep: remote job <id> on <base>: ...".
    job=$(sed -n 's/.*remote job \([a-zA-Z0-9_-]*\) on.*/\1/p' "$d/remote.log" | head -1)
    [ -n "$job" ] || fail "could not extract the job id from sweep -remote output"
}

# sweep: cmd/sweep end to end with -audit and -strict, so any errored or
# checkpoint-skipped config fails:
#
#   1. a fault sweep (flap preset, 4 cheap configs) with a checkpoint;
#   2. a 3-hop parking-lot topology sweep.
smoke_sweep() {
    need sweep
    sweep -faults flap -configs 4 -bws 100Mbps -queues 2 -duration 6s -quiet -audit -strict \
        -checkpoint "$d/fault-smoke.ckpt.jsonl" -out "$d/fault-smoke.json"
    sweep -topo parking-lot-3 -bws 100Mbps -queues 2 -aqms fifo -pairings cubic:cubic \
        -duration 4s -quiet -audit -strict -out "$d/topo-smoke.json"
    say "OK (fault sweep and parking-lot sweep audit-clean under -strict)"
}

# svc: sweepd over a private journal with -audit proves the service contract:
#
#   1. a served sweep is byte-identical to a direct cmd/sweep run of the
#      same GridSpec (modulo wall_ns, which measures the machine);
#   2. a repeated identical POST coalesces onto the done job: byte-identical
#      response, zero new simulations;
#   3. an equivalent spec under a different key (audit bit toggled) is
#      served entirely from the content-addressed cache, with the hit
#      counter visible on /metrics, and neither resubmission rewrites the
#      journal (its inode is unchanged);
#   4. the same grid under a different -duration is different science and
#      must re-simulate, never hit the cache;
#   5. a parking-lot topology sweep is distinct science (its Config.Key
#      differs from the dumbbell's), runs audit-clean through the service,
#      and a resubmission coalesces without new simulations;
#   6. a POSTed spec naming a server-side @file is refused with 400 and
#      makes no job (the job gauges on /metrics do not move);
#   7. graceful shutdown drains and compacts the journal.
smoke_svc() {
    need sweep sweepd
    grid="-bws 100Mbps -queues 2 -aqms fifo -pairings reno:reno,cubic:cubic"
    start_sweepd sweepd -journal "$d/journal.ckpt.jsonl" -audit

    say "direct and served sweeps"
    sweep $grid -duration 4s -audit -quiet -strict -out "$d/direct.json" >/dev/null
    submit $grid -duration 4s -audit -quiet -strict -out "$d/served.json"
    same_science "$d/direct.json" "$d/served.json" "served ResultSet differs from the direct CLI sweep"
    inode=$(ls -i "$d/journal.ckpt.jsonl" | awk '{print $1}')

    say "repeated identical POST (must coalesce, 0 new sims)"
    submit $grid -duration 4s -audit -quiet -out "$d/served2.json" -print-metrics
    cmp -s "$d/served.json" "$d/served2.json" || fail "repeated POST served different bytes"
    sims=$(metric sweepd_sims_total "$d/remote.out")
    [ "$sims" = "2" ] || fail "repeated POST re-simulated: sims_total=$sims, want 2"

    say "equivalent spec under a new key (must serve from cache)"
    submit $grid -duration 4s -quiet -out "$d/served3.json" -print-metrics
    sims=$(metric sweepd_sims_total "$d/remote.out")
    [ "$sims" = "2" ] || fail "cache-path job re-simulated: sims_total=$sims, want 2"
    hits=$(metric sweepd_cache_hits_total "$d/remote.out")
    [ "$hits" = "2" ] || fail "cache hits not visible on /metrics: got '$hits', want 2"
    [ "$(ls -i "$d/journal.ckpt.jsonl" | awk '{print $1}')" = "$inode" ] ||
        fail "cached and coalesced resubmissions rewrote the journal (inode changed)"

    say "same grid, different -duration (must re-simulate)"
    submit $grid -duration 5s -quiet -out "$d/served4.json" -print-metrics
    sims=$(metric sweepd_sims_total "$d/remote.out")
    [ "$sims" = "4" ] || fail "duration override was served stale cached results: sims_total=$sims, want 4"

    say "parking-lot topology sweep (distinct keys, audit-clean)"
    topo="-topo parking-lot-3 -bws 100Mbps -queues 2 -aqms fifo -pairings cubic:cubic -duration 4s -audit"
    submit $topo -quiet -strict -out "$d/served5.json" -print-metrics
    sims=$(metric sweepd_sims_total "$d/remote.out")
    [ "$sims" = "5" ] || fail "parking-lot sweep did not simulate fresh: sims_total=$sims, want 5"
    grep -q '"name": *"parking-lot-3"' "$d/served5.json" ||
        fail "served parking-lot results carry no topology spec"
    grep -q '"groups"' "$d/served5.json" && grep -q '"ports"' "$d/served5.json" ||
        fail "served parking-lot results carry no per-class/per-port breakdown"

    say "parking-lot resubmission (must coalesce, 0 new sims)"
    submit $topo -quiet -strict -out "$d/served6.json" -print-metrics
    cmp -s "$d/served5.json" "$d/served6.json" || fail "repeated parking-lot POST served different bytes"
    sims=$(metric sweepd_sims_total "$d/remote.out")
    [ "$sims" = "5" ] || fail "parking-lot resubmission re-simulated: sims_total=$sims, want 5"

    say "@file spec POSTed to the daemon (must be refused, no job made)"
    gauges() { for m in sweepd_jobs_queued sweepd_jobs_running sweepd_jobs_done; do echo "$m=$(metric $m)"; done; }
    before=$(gauges)
    code=$(curl -s -o "$d/refused.json" -w '%{http_code}' -H 'Content-Type: application/json' \
        -d '{"bandwidths":"100Mbps","configs":1,"faults":"@/etc/hostname"}' "$base/v1/sweeps")
    [ "$code" = "400" ] || fail "POST with faults=@/etc/hostname answered $code, want 400: $(cat "$d/refused.json")"
    # The refusal names @file; a parse error would mean the daemon read the file.
    grep -q '@file' "$d/refused.json" || fail "POST with faults=@/etc/hostname was not refused as @file: $(cat "$d/refused.json")"
    after=$(gauges)
    [ "$before" = "$after" ] || fail "refused POST moved the job gauges: $before -> $after"

    say "graceful shutdown (drain + journal compaction)"
    stop "$pid" daemon
    lines=$(grep -c '^r ' "$d/journal.ckpt.jsonl") || fail "journal missing after shutdown"
    # 2 configs at 4s + the same 2 at 5s + 1 parking-lot: five live science
    # keys (record lines only; the v2 journal also has a version header).
    [ "$lines" = "5" ] || fail "journal not compacted: $lines records, want 5"
    say "OK (served = direct, repeats coalesced, cache hits on /metrics, warm path left the journal alone, overrides re-simulated, parking-lot distinct + coalesced, @file refused, journal compacted)"
}

# cluster: one coordinator and three workers on ephemeral ports take a
# 504-configuration grid; one worker is SIGKILLed mid-sweep. Contract:
#
#   1. the sweep completes despite the killed worker: its unfinished lease
#      is re-queued (visible on /metrics) and the survivors absorb it;
#   2. the merged ResultSet is byte-identical to a direct single-process
#      cmd/sweep run of the same GridSpec (modulo wall_ns);
#   3. every configuration is uploaded exactly once
#      (sweepd_cluster_results_total equals the grid size — retries and
#      stolen double-runs land in the duplicate counter, never the results);
#   4. sweepd -merge folds the per-worker journals into one cache journal
#      holding exactly one line per configuration;
#   5. graceful shutdown: surviving workers release their leases (never the
#      expiry path) and the coordinator compacts its journal to one line
#      per configuration.
smoke_cluster() {
    need sweep sweepd
    # 6 queues x 3 AQMs x 7 pairings x 4 seeds = 504 cheap configurations
    # (100Mbps, 10s). The kill must land while more than one TTL plus one
    # reap period (TTL/4) of work remains: otherwise the survivors drain
    # the queue, steal the dead worker's lease tail and finish before the
    # reaper looks, and nothing is requeued. One simulation per worker
    # keeps the grid's wall time from shrinking with the host's core count.
    spec="-bws 100Mbps -queues 0.5,1,2,4,8,16 -aqms fifo,red,codel -seeds 4 -duration 10s
 -pairings reno:reno,cubic:cubic,bbr1:bbr1,bbr2:bbr2,reno:cubic,cubic:bbr1,reno:bbr1"
    n=504
    ttl_ms=1000

    say "direct single-process sweep (the byte-identity oracle)"
    sweep $spec -quiet -strict -out "$d/direct.json" >/dev/null

    say "starting coordinator + 3 workers"
    start_sweepd coordinator -coordinator -journal "$d/coordinator.ckpt.jsonl" \
        -lease-ttl ${ttl_ms}ms -heartbeat $((ttl_ms / 5))ms -lease-batch 8
    coord=$pid
    bg "$d/w1.log" sweepd -join "$base" -name w1 -shards 1 -journal "$d/w1.ckpt.jsonl"
    w1=$!
    bg "$d/w2.log" sweepd -join "$base" -name w2 -shards 1 -journal "$d/w2.ckpt.jsonl"
    w2=$!
    bg "$d/w3.log" sweepd -join "$base" -name w3 -shards 1 -journal "$d/w3.ckpt.jsonl"
    w3=$!
    bg "$d/client.log" sweep $spec -quiet -remote "$base" -out "$d/served.json"
    client=$!

    say "waiting for the sweep to reach ~10% to kill w1 mid-lease"
    i=0
    while :; do
        done_n=$(metric sweepd_cluster_results_total || echo 0)
        [ "${done_n:-0}" -ge 50 ] 2>/dev/null && break
        kill -0 "$client" 2>/dev/null || fail "client finished before the kill window (results=$done_n)"
        i=$((i + 1))
        [ "$i" -gt 600 ] && fail "sweep never reached the kill window (results=$done_n)"
        sleep 0.1
    done
    say "SIGKILL w1 at $done_n/$n results"
    kill -9 "$w1" 2>/dev/null || fail "w1 already gone before the kill"
    wait "$w1" 2>/dev/null || true
    wait "$client" || fail "remote sweep client exited non-zero after the kill"

    same_science "$d/direct.json" "$d/served.json" "cluster ResultSet differs from the direct single-process sweep"

    results=$(metric sweepd_cluster_results_total)
    [ "$results" = "$n" ] || fail "results_total=$results, want $n (every config uploaded exactly once)"
    # The reaper declares w1 dead within one TTL plus one reap period of
    # its last heartbeat; poll for two reap periods past the TTL.
    i=0
    while :; do
        dead=$(metric sweepd_cluster_workers_dead_total)
        [ "${dead:-0}" -ge 1 ] && break
        i=$((i + 1))
        [ "$i" -gt $((ttl_ms * 3 / 2 / 100)) ] && break
        sleep 0.1
    done
    [ "${dead:-0}" -ge 1 ] || fail "workers_dead_total=$dead, want >= 1 (the SIGKILLed worker)"
    requeued=$(metric sweepd_cluster_configs_requeued_total)
    [ "${requeued:-0}" -ge 1 ] ||
        fail "configs_requeued_total=$requeued, want >= 1 (the killed worker's in-flight lease)"
    dups=$(metric sweepd_cluster_duplicate_results_total)
    say "kill absorbed (dead=$dead requeued=$requeued duplicates=${dups:-0})"

    say "merging per-worker journals with sweepd -merge"
    sweepd -merge -journal "$d/merged.ckpt.jsonl" \
        "$d/w1.ckpt.jsonl" "$d/w2.ckpt.jsonl" "$d/w3.ckpt.jsonl" 2>>"$d/coordinator.log" ||
        fail "sweepd -merge exited non-zero"
    merged=$(grep -c '^r ' "$d/merged.ckpt.jsonl")
    [ "$merged" = "$n" ] || fail "merged journal has $merged records, want $n (one per configuration)"

    say "graceful worker shutdown (release, never expiry)"
    expired=$(metric sweepd_cluster_leases_expired_total)
    stop "$w2" w2
    stop "$w3" w3
    after=$(metric sweepd_cluster_leases_expired_total)
    [ "$expired" = "$after" ] ||
        fail "graceful worker shutdown tripped the lease-expiry path ($expired -> $after)"

    say "coordinator shutdown (journal compaction)"
    stop "$coord" coordinator
    lines=$(grep -c '^r ' "$d/coordinator.ckpt.jsonl") || fail "coordinator journal missing after shutdown"
    [ "$lines" = "$n" ] || fail "coordinator journal not compacted: $lines records, want $n"
    say "OK (sweep survived SIGKILL, bytes = direct, $n results exactly once, journals merged + compacted)"
}

# chaos: a coordinator with fsync failures armed on its journal and two
# workers in crash-restart loops (armed to die with exit 7 whenever they
# lease one designated poison configuration) take a 12-configuration grid.
# Contract:
#
#   1. the poison configuration kills its worker 3 times, exhausts the
#      retry budget, and is quarantined as a structured errored Result
#      ("sweepd: quarantined ..."), visible on /metrics;
#   2. every other configuration is byte-identical to a direct
#      single-process cmd/sweep run of the same GridSpec (modulo wall_ns),
#      despite the worker crashes and the journal outage;
#   3. the injected fsync failures push the coordinator's cache into
#      degraded mode (journal_errors_total > 0) and it recovers once the
#      "disk" does: by the end the journal is healthy again (degraded=0,
#      overflow=0) and every result survived in memory;
#   4. a post-shutdown `sweepd -fsck` pass finds the compacted coordinator
#      journal clean (every CRC verifies, no duplicates, keys agree).
#
# The failpoints fire on exact lease/fsync hits — no sleeps-as-sync; the
# polling loops only bound total wall time.
smoke_chaos() {
    need sweep sweepd dropcfg
    # 2 pairings x 2 AQMs x 3 queues = 12 cheap configurations, one poison.
    spec="-bws 100Mbps -queues 2,4,8 -aqms fifo,red -pairings reno:reno,cubic:cubic -duration 2s"
    healthy=11
    poison=cubic-vs-cubic_red_4bdp_100Mbps_seed1

    say "direct single-process sweep (the byte-identity oracle)"
    sweep $spec -quiet -strict -out "$d/direct.json" >/dev/null

    # Short lease TTL so the three poison crash-detect cycles fit in
    # seconds; lease-batch 1 so healthy configurations never share a lease
    # with the poison one; the first three journal fsyncs fail as if the
    # disk filled, then it "recovers".
    say "starting coordinator (fsync failures armed) + 2 crash-restart workers"
    start_sweepd coordinator -coordinator -journal "$d/coordinator.ckpt.jsonl" \
        -lease-ttl 2s -heartbeat 250ms -lease-batch 1 -retry-budget 3 \
        -failpoints 'checkpoint.fsync=err(injected: no space left on device)@times=3'
    coord=$pid
    touch "$tmp/run"
    bg "$d/w1.log" worker_loop w1
    loop1=$!
    bg "$d/w2.log" worker_loop w2
    loop2=$!
    bg "$d/client.log" sweep $spec -quiet -remote "$base" -out "$d/served.json"
    client=$!

    # The job can only finish once the poison has crashed three workers and
    # been quarantined (~3 lease TTLs): waiting on the client IS waiting on
    # the quarantine state machine.
    say "waiting for the sweep (3 poison crash cycles + quarantine)"
    i=0
    while kill -0 "$client" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 1200 ] && fail "sweep did not finish within 120s (quarantine stuck?)"
        sleep 0.1
    done
    wait "$client" || fail "remote sweep client exited non-zero"

    quarantined=$(metric sweepd_cluster_configs_quarantined_total)
    [ "${quarantined:-0}" = "1" ] || fail "configs_quarantined_total=$quarantined, want 1 (the poison config)"
    qgauge=$(metric sweepd_cluster_quarantined)
    [ "${qgauge:-0}" = "1" ] || fail "cluster_quarantined=$qgauge, want 1"
    dead=$(metric sweepd_cluster_workers_dead_total)
    [ "${dead:-0}" -ge 3 ] || fail "workers_dead_total=$dead, want >= 3 (one per exhausted retry)"
    results=$(metric sweepd_cluster_results_total)
    [ "$results" = "$healthy" ] ||
        fail "results_total=$results, want $healthy (poison never uploads; healthy configs exactly once)"
    jerrs=$(metric sweepd_journal_errors_total)
    [ "${jerrs:-0}" -ge 1 ] || fail "journal_errors_total=$jerrs, want >= 1 (the injected fsync failures)"
    degraded=$(metric sweepd_journal_degraded)
    [ "${degraded:-1}" = "0" ] || fail "journal_degraded=$degraded, want 0 (cache must recover once fsync heals)"
    overflow=$(metric sweepd_journal_overflow_results)
    [ "${overflow:-1}" = "0" ] ||
        fail "journal_overflow_results=$overflow, want 0 (overflow drained back to disk)"
    say "poison quarantined after $dead crashes; journal degraded and recovered (errors=$jerrs)"

    dropcfg -in "$d/served.json" -out "$d/served.drop.json" -drop "$poison" \
        -expect-error "sweepd: quarantined" 2>/dev/null ||
        fail "served ResultSet: poison config missing or not a quarantine error"
    dropcfg -in "$d/direct.json" -out "$d/direct.drop.json" -drop "$poison" 2>/dev/null ||
        fail "direct ResultSet: poison config missing (it must simulate fine locally)"
    same_science "$d/direct.drop.json" "$d/served.drop.json" \
        "non-quarantined results differ from the direct single-process sweep"

    say "graceful shutdown"
    rm -f "$tmp/run"
    i=0
    while kill -0 "$loop1" 2>/dev/null || kill -0 "$loop2" 2>/dev/null; do
        for w in w1 w2; do kill "$(cat "$d/$w.pid" 2>/dev/null)" 2>/dev/null || true; done
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "worker restart loops did not exit"
        sleep 0.1
    done
    wait "$loop1" "$loop2" 2>/dev/null || true
    stop "$coord" coordinator

    say "post-run integrity scan (sweepd -fsck)"
    sweepd -fsck -journal "$d/coordinator.ckpt.jsonl" 2>>"$d/coordinator.log" ||
        fail "sweepd -fsck (repair) exited non-zero on the coordinator journal"
    sweepd -fsck -fsck-dry-run -journal "$d/coordinator.ckpt.jsonl" 2>>"$d/coordinator.log" ||
        fail "coordinator journal still dirty after fsck repair"
    records=$(grep -c '^r ' "$d/coordinator.ckpt.jsonl")
    [ "$records" = "$healthy" ] ||
        fail "coordinator journal has $records records, want $healthy (quarantined results are never cached)"
    say "OK (poison quarantined after 3 crashes, $healthy results byte-identical, journal degraded + recovered + fsck-clean)"
}

# worker_loop <name>: restart a worker armed to exit 7 on the chaos poison
# config (fresh registration, same name) until $tmp/run is removed.
worker_loop() {
    while [ -f "$tmp/run" ]; do
        bg "$d/$1.log" sweepd -join "$base" -name "$1" -journal "$d/$1.ckpt.jsonl" \
            -failpoints "worker.run=exit:7@arg=$poison"
        echo $! >"$d/$1.pid"
        wait $! 2>/dev/null || true
        sleep 0.2
    done
}

# fct: a small mixed mice grid — two pairings across two AQMs with the
# invariant auditor on — swept directly and through sweepd. Contract:
#
#   1. the -flows grid auto-appends one solo baseline per condition, and
#      every result (competition and solo) carries per-size-class FCT
#      percentiles;
#   2. the served sweep is byte-identical to the direct CLI run of the same
#      spec (modulo wall_ns) — dynamic flow churn does not break the
#      determinism contract across the service boundary;
#   3. cmd/report renders the solo-vs-competition harm-to-FCT matrix from
#      the result set, and the daemon's /report endpoint renders the same
#      section.
smoke_fct() {
    need sweep sweepd report
    # 2 pairings x 2 AQMs of competition plus 2 auto-appended solo baselines
    # (one per AQM: baselines dedupe across pairings).
    spec="-bws 100Mbps -queues 2 -aqms fifo,fq_codel -pairings cubic:cubic,bbr1:cubic -duration 4s -flows mice -audit"

    say "direct CLI sweep with -flows mice"
    sweep $spec -quiet -strict -out "$d/direct.json" >/dev/null
    solos=$(grep -c '"solo_fct": *true' "$d/direct.json") || fail "no solo baselines in the -flows sweep"
    [ "$solos" = "2" ] || fail "expected 2 solo baselines (one per AQM), got $solos"
    fcts=$(grep -c '"fct":' "$d/direct.json") || fail "no FCT blocks in the results"
    [ "$fcts" = "6" ] || fail "expected FCT data on all 6 results, got $fcts"
    for class in all small medium; do
        grep -q "\"class\": *\"$class\"" "$d/direct.json" ||
            fail "per-size-class FCT percentiles missing (\"class\": \"$class\")"
    done
    grep -q '"p99_ns"' "$d/direct.json" || fail "FCT percentiles missing p99"

    say "served sweep via sweepd"
    start_sweepd sweepd -journal "$d/journal.ckpt.jsonl" -audit
    submit $spec -quiet -strict -out "$d/served.json"
    same_science "$d/direct.json" "$d/served.json" "served FCT ResultSet differs from the direct CLI sweep"

    say "harm-to-FCT matrix via cmd/report and the daemon /report endpoint"
    report -in "$d/direct.json" -figures=false -out "$d/report.md" 2>/dev/null
    grep -q '^## Harm to flow completion time' "$d/report.md" ||
        fail "cmd/report rendered no harm-to-FCT section"
    for pairing in 'CUBIC vs CUBIC' 'BBR1 vs CUBIC'; do
        grep -q "$pairing" "$d/report.md" || fail "harm matrix missing pairing: $pairing"
    done
    curl -sf "$base/v1/sweeps/$job/report?figures=0" >"$d/served_report.md" ||
        fail "daemon /report endpoint failed"
    grep -q '^## Harm to flow completion time' "$d/served_report.md" ||
        fail "daemon report rendered no harm-to-FCT section"
    stop "$pid" daemon
    say "OK (solo baselines appended, per-class FCT percentiles, served = direct, harm matrix rendered by CLI and daemon)"
}

# obs: the windowed Jain/convergence layer through every surface it ships in:
#
#   1. tcpfair -fairness on a homogeneous CUBIC dumbbell prints a finite
#      convergence time and zero starvation episodes;
#   2. the paper's central unfairness case — BBRv1 vs CUBIC in a deep
#      (4xBDP) FIFO — reports exactly one starvation episode with the CUBIC
#      flow as victim and the BBR flow as culprit;
#   3. a fairness-armed sweep served by sweepd is byte-identical on
#      /v1/sweeps/{id}/fairness to the NDJSON `sweep -fairness-out` writes
#      locally for the same grid, and the armed results themselves stay
#      byte-identical science (modulo wall_ns) to a plain run;
#   4. cmd/report renders the fairness-dynamics table from the armed result
#      set, and the daemon /metrics exposes the convergence histogram and
#      the build_info gauge;
#   5. cmd/timeline renders a jain(t) sparkline from recorded telemetry.
smoke_obs() {
    need tcpfair sweep sweepd report timeline

    say "homogeneous CUBIC pair converges"
    tcpfair -bw 100Mbps -queue 2 -cca1 cubic -cca2 cubic -duration 5s -fairness -quiet >"$d/cubic.txt"
    grep -q 'fairness observatory' "$d/cubic.txt" || fail "tcpfair -fairness printed no observatory block"
    grep -q 'converged at  never' "$d/cubic.txt" && fail "homogeneous CUBIC pair never converged"
    grep -q 'converged at' "$d/cubic.txt" || fail "no convergence line in the observatory block"
    grep -q 'episodes: 0' "$d/cubic.txt" || fail "homogeneous CUBIC pair reported starvation episodes"

    say "BBRv1 starves CUBIC in a 4xBDP FIFO"
    tcpfair -bw 100Mbps -queue 4 -cca1 bbr1 -cca2 cubic -duration 10s -fairness -quiet >"$d/bbr.txt"
    grep -q 'episodes: 1' "$d/bbr.txt" ||
        fail "deep-FIFO BBR-vs-CUBIC did not report exactly one starvation episode"
    grep -q 'flow 2 (cubic) starved .* culprits \[1\]' "$d/bbr.txt" ||
        fail "episode line missing the cubic victim or the bbr1 culprit"

    spec="-bws 50Mbps -queues 2,4 -aqms fifo -pairings bbr1:cubic -duration 2s"
    say "local fairness NDJSON via sweep -fairness-out"
    sweep $spec -quiet -strict -fairness-out "$d/direct.ndjson" -out "$d/armed.json" >/dev/null
    lines=$(wc -l <"$d/direct.ndjson")
    [ "$lines" = "2" ] || fail "expected 2 fairness report lines, got $lines"
    grep -q '"jain"' "$d/direct.ndjson" || fail "fairness NDJSON carries no Jain series"

    say "armed results are byte-identical science to a plain sweep"
    sweep $spec -quiet -strict -out "$d/plain.json" >/dev/null
    # Drop the additive fairness block (brace-matched, it is nested).
    awk '/"fairness": \{/ { skip = 1; depth = 0 }
         skip { depth += gsub(/\{/, "{") - gsub(/\}/, "}")
                if (depth == 0) skip = 0; next }
         { print }' "$d/armed.json" >"$d/armed.sci.json"
    same_science "$d/plain.json" "$d/armed.sci.json" "arming the observatory changed the science bytes"

    say "served fairness stream via sweepd -fairness"
    start_sweepd sweepd -journal "$d/journal.ckpt.jsonl" -fairness
    submit $spec -quiet -strict -out "$d/served.json"
    curl -sf "$base/v1/sweeps/$job/fairness" >"$d/served.ndjson" || fail "daemon /fairness endpoint failed"
    cmp -s "$d/direct.ndjson" "$d/served.ndjson" || {
        diff "$d/direct.ndjson" "$d/served.ndjson" | head -40 >&2
        fail "served fairness stream differs from the local -fairness-out file"
    }

    say "convergence histogram and build_info on /metrics"
    curl -sf "$base/metrics" >"$d/metrics.txt" || fail "daemon /metrics failed"
    grep -q '^sweepd_build_info{version=' "$d/metrics.txt" || fail "/metrics missing the build_info gauge"
    grep -q '^# TYPE sweepd_fairness_convergence_seconds histogram' "$d/metrics.txt" ||
        fail "/metrics missing the convergence-time histogram"
    grep -q '^sweepd_fairness_episodes_total' "$d/metrics.txt" || fail "/metrics missing the episode counter"
    stop "$pid" daemon

    say "fairness dynamics table via cmd/report"
    report -in "$d/armed.json" -figures=false -out "$d/report.md" 2>/dev/null
    grep -q '^## Fairness dynamics' "$d/report.md" || fail "cmd/report rendered no fairness-dynamics section"
    grep -q 'BBR1 vs CUBIC' "$d/report.md" || fail "fairness table missing the swept pairing"

    say "jain(t) sparkline via cmd/timeline"
    tcpfair -bw 100Mbps -queue 2 -cca1 cubic -cca2 cubic -duration 3s \
        -telemetry-out "$d/run.ndjson" -quiet >/dev/null
    timeline -in "$d/run.ndjson" >"$d/timeline.txt"
    grep -q 'jain(t)' "$d/timeline.txt" || fail "cmd/timeline rendered no jain(t) sparkline"
    say "OK (convergence + starvation scenarios, served = local fairness stream, science bytes unchanged, report/metrics/timeline rendered)"
}

# trace: the flight recorder's recording → export → render chain:
#
#   1. tcpfair -telemetry-out records a bbr1-vs-cubic run and writes its
#      telemetry as NDJSON; the file must contain flow rings, port rings,
#      and cwnd samples;
#   2. cmd/timeline renders the recording into cwnd and queue-occupancy
#      sparkline timelines;
#   3. sweep -trace-dir writes one <Config.Key()>.trace.ndjson per
#      configuration, each of which timeline can render;
#   4. sweepd -trace serves the same telemetry over
#      GET /v1/sweeps/{id}/trace, and timeline renders the multi-config
#      stream with per-config headings;
#   5. tracing must not perturb the science: the traced sweep's results are
#      byte-identical (modulo wall_ns) to an untraced sweep of the same spec.
smoke_trace() {
    need tcpfair timeline sweep sweepd

    say "recording and rendering a bbr1-vs-cubic run"
    tcpfair -cca1 bbr1 -cca2 cubic -aqm fifo -queue 4 -bw 100Mbps \
        -duration 4s -quiet -audit -telemetry-out "$d/run.ndjson" >/dev/null 2>&1
    [ -s "$d/run.ndjson" ] || fail "tcpfair wrote no telemetry"
    grep -q '"ring":"flow:' "$d/run.ndjson" || fail "telemetry has no flow rings"
    grep -q '"ring":"port:' "$d/run.ndjson" || fail "telemetry has no port rings"
    timeline -in "$d/run.ndjson" >"$d/run.timeline"
    grep -q "cwnd" "$d/run.timeline" || fail "timeline has no cwnd track"
    grep -q "queue" "$d/run.timeline" || fail "timeline has no queue-occupancy track"

    spec="-bws 100Mbps -queues 2 -aqms fifo -pairings reno:reno,cubic:cubic -duration 4s"
    say "sweep -trace-dir (per-config trace files)"
    sweep $spec -quiet -strict -out "$d/traced.json" -trace-dir "$d/traces" >/dev/null
    n=$(ls "$d/traces"/*.trace.ndjson 2>/dev/null | wc -l)
    [ "$n" -eq 2 ] || fail "sweep -trace-dir wrote $n trace files, want 2"
    for f in "$d/traces"/*.trace.ndjson; do
        timeline -in "$f" >/dev/null || fail "timeline could not render $f"
    done

    say "tracing must not change the science"
    sweep $spec -quiet -strict -out "$d/plain.json" >/dev/null
    same_science "$d/traced.json" "$d/plain.json" "traced sweep results differ from the untraced sweep"

    say "sweepd -trace serves /v1/sweeps/{id}/trace"
    start_sweepd sweepd -trace
    submit $spec -quiet -strict -out "$d/served.json"
    curl -sf "$base/v1/sweeps/$job/trace" >"$d/served.trace.ndjson" || fail "trace endpoint returned an error"
    headers=$(grep -c '^{"config":' "$d/served.trace.ndjson") || true
    [ "$headers" -eq 2 ] || fail "trace stream has $headers config headers, want 2"
    timeline -in "$d/served.trace.ndjson" >"$d/served.timeline"
    sections=$(grep -c '^=== config ' "$d/served.timeline") || true
    [ "$sections" -eq 2 ] || fail "timeline rendered $sections config sections, want 2"
    stop "$pid" daemon
    say "OK (recorded, rendered, per-config files, served stream, science unchanged)"
}

usage="usage: sh scripts/smoke.sh <scenario>... (sweep svc cluster chaos fct obs trace)"
[ $# -gt 0 ] || { echo "$usage" >&2; exit 2; }
for scenario; do
    case $scenario in
    sweep | svc | cluster | chaos | fct | obs | trace) ;;
    *) echo "$usage" >&2; exit 2 ;;
    esac
done
for scenario; do
    d=$tmp/$scenario
    mkdir -p "$d"
    smoke_$scenario
done
