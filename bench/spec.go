package main

// The benchmark's names. BENCHMARK.json at the repository root repeats these
// tables for the driver; bench_test.go fails when the two drift apart. Later
// issues cite the names verbatim, so treat them as final.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"elephants-25g", "paper top tier: 40 elephants at 25 Gbps keep 20k+ packets in flight, so the deep, cache-cold event heap (sim schedule and dispatch) dominates"},
	{"aqm-cca-grid-1g", "30 shallow-heap 1 Gbps runs over 3 AQMs x 5 CCAs x 2 buffers: per-packet aqm, tcp loss recovery and cca hooks get their largest share"},
	{"mice-churn-10g", "open-loop Poisson mice with no elephants: ~49k short flows per repetition exercise connection set-up, demux churn and teardown, which the elephant workloads never touch"},
	{"sweepd-grid-100m", "1296 short configs run directly, through sweepd cold, cached, and clustered: per-config overhead (build, key, marshal, journal, HTTP) counts, and writes run beside reads"},
}

// metricSpec is one end-to-end metric: Bound is the share of the parent's
// median by which it may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"sim_s_per_cpu_s", "1/s", "higher", 0.25},
	{"allocs_per_pkt", "count", "lower", 0.25},
	{"flows_per_cpu_s", "1/s", "higher", 0.25},
	{"allocs_per_flow", "count", "lower", 0.25},
	{"configs_per_cpu_s", "1/s", "higher", 0.25},
	{"svc_configs_per_cpu_s", "1/s", "higher", 0.25},
	{"svc_cached_configs_per_cpu_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// layerSpec is one per-layer metric; they carry no bound.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var perLayer = []layerSpec{
	{"sim.dispatch_ns_per_event.depth64", "ns", "lower"},
	{"sim.dispatch_ns_per_event.depth64k", "ns", "lower"},
	{"sim.timer_reset_ns.depth64", "ns", "lower"},
	{"sim.timer_reset_ns.depth64k", "ns", "lower"},
	{"sim.events_per_sim_s", "1/s", "lower"},
	{"sim.events_per_pkt", "count", "lower"},
	{"packet.new_release_ns", "ns", "lower"},
	{"aqm.fifo_ns_per_pkt", "ns", "lower"},
	{"aqm.red_ns_per_pkt", "ns", "lower"},
	{"aqm.codel_ns_per_pkt", "ns", "lower"},
	{"aqm.fq_codel_ns_per_pkt", "ns", "lower"},
	{"aqm.fq_codel_ns_per_pkt.flows1k", "ns", "lower"},
	{"netem.port_ns_per_pkt", "ns", "lower"},
	{"netem.path3_ns_per_pkt", "ns", "lower"},
	{"tcp.bulk_ns_per_pkt", "ns", "lower"},
	{"tcp.bulk_ns_per_pkt.loss1pct", "ns", "lower"},
	{"tcp.conn_setup_ns", "ns", "lower"},
	{"tcp.retransmits_per_kpkt", "count", "lower"},
	{"cca.reno.on_ack_ns", "ns", "lower"},
	{"cca.cubic.on_ack_ns", "ns", "lower"},
	{"cca.htcp.on_ack_ns", "ns", "lower"},
	{"cca.bbr1.on_ack_ns", "ns", "lower"},
	{"cca.bbr2.on_ack_ns", "ns", "lower"},
	{"cca.calls_per_pkt", "count", "lower"},
	{"topo.build_us.dumbbell", "us", "lower"},
	{"topo.build_us.parking-lot-3", "us", "lower"},
	{"topo.add_flow_us", "us", "lower"},
	{"flows.arrival_ns_per_flow", "ns", "lower"},
	{"flows.mallocs_per_flow", "count", "lower"},
	{"metrics.fct_sketch_record_ns", "ns", "lower"},
	{"metrics.fairness_ns_per_tick", "ns", "lower"},
	{"experiment.config_key_ns", "ns", "lower"},
	{"experiment.grid_expand_us_per_config", "us", "lower"},
	{"experiment.run_overhead_us", "us", "lower"},
	{"experiment.result_marshal_us", "us", "lower"},
	{"experiment.journal_append_us.sync_each", "us", "lower"},
	{"experiment.journal_append_us.sync_default", "us", "lower"},
	{"experiment.journal_fsync_ms_p50_wall", "ms", "lower"},
	{"experiment.journal_reload_us_per_record", "us", "lower"},
	{"experiment.runner_scaling_eff", "%", "higher"},
	{"svc.submit_to_first_event_ms_p50", "ms", "lower"},
	{"svc.cache_get_ns", "ns", "lower"},
	{"svc.cache_put_us", "us", "lower"},
	{"svc.submit_ms_p50", "ms", "lower"},
	{"svc.stream_us_per_event", "us", "lower"},
	{"svc.results_fetch_ms", "ms", "lower"},
	{"svc.lease_rtt_ms_p50", "ms", "lower"},
	{"svc.cluster_configs_per_cpu_s", "1/s", "higher"},
	{"runtime.gc_cpu_share", "%", "lower"},
	{"host.calib_mops", "Mops/s", "higher"},
	{"host.wall_over_cpu", "count", "lower"},
	{"host.sim_s_per_wall_s", "1/s", "higher"},
	{"trace.share.topo_build", "%", "lower"},
	{"trace.share.attach", "%", "lower"},
	{"trace.share.cca", "%", "lower"},
	{"trace.share.event_core", "%", "lower"},
	{"trace.share.sim", "%", "lower"},
	{"trace.share.netem", "%", "lower"},
	{"trace.share.aqm", "%", "lower"},
	{"trace.share.tcp", "%", "lower"},
	{"trace.share.other", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
