package svc

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// buildVersion identifies the binary on /metrics. Overridable at link time:
//
//	go build -ldflags "-X repro/internal/svc.buildVersion=v1.2.3"
var buildVersion = "dev"

// histogram is a fixed-bucket Prometheus-style histogram. It is plain data;
// the owner serializes access (the coordinator holds it under its lock).
type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1, last bucket is +Inf
	sum    float64
	count  uint64
}

func newHistogram(bounds ...float64) histogram {
	return histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

func (h *histogram) clone() histogram {
	c := *h
	c.bounds = append([]float64(nil), h.bounds...)
	c.counts = append([]uint64(nil), h.counts...)
	return c
}

// metricsSnapshot gathers every exported gauge and counter at scrape time.
// Jobs are few (one per distinct spec), so walking the registry per scrape
// is cheaper than maintaining racy gauges.
type metricsSnapshot struct {
	jobsQueued, jobsRunning, jobsDone, jobsCancelled int
	jobsCoalesced                                    uint64
	cacheHits, cacheMisses                           uint64
	cacheEntries                                     int
	heapInuse                                        uint64

	journalDegraded bool
	journalOverflow int
	journalErrs     uint64
}

func (s *Server) snapshot() metricsSnapshot {
	var m metricsSnapshot
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.State() {
		case StateQueued:
			m.jobsQueued++
		case StateRunning:
			m.jobsRunning++
		case StateDone:
			m.jobsDone++
		case StateCancelled:
			m.jobsCancelled++
		}
	}
	s.mu.Unlock()
	m.jobsCoalesced = s.jobsCoalesced.Load()
	m.cacheHits = s.cache.Hits()
	m.cacheMisses = s.cache.Misses()
	m.cacheEntries = s.cache.Len()
	m.journalDegraded, m.journalOverflow, m.journalErrs, _ = s.cache.Degraded()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapInuse = ms.HeapInuse
	return m
}

// handleMetrics serves the daemon's operational counters in Prometheus
// text exposition format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.snapshot()
	cs := s.coord.snapshot()
	var b strings.Builder
	emit := func(name, kind, help string, value float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			name, help, name, kind, name, strconv.FormatFloat(value, 'g', -1, 64))
	}
	// The emit helper is label-less; build_info is the one labeled gauge.
	fmt.Fprintf(&b, "# HELP sweepd_build_info Build metadata: constant 1 labeled with the binary version and Go toolchain.\n"+
		"# TYPE sweepd_build_info gauge\nsweepd_build_info{version=%q,go_version=%q} 1\n",
		buildVersion, runtime.Version())
	emit("sweepd_jobs_queued", "gauge",
		"Jobs accepted with no configuration finished yet.", float64(m.jobsQueued))
	emit("sweepd_jobs_running", "gauge",
		"Jobs with at least one configuration finished and more outstanding.", float64(m.jobsRunning))
	emit("sweepd_jobs_done", "gauge",
		"Jobs whose every configuration has completed.", float64(m.jobsDone))
	emit("sweepd_jobs_cancelled", "gauge",
		"Jobs cancelled by their last event subscriber disconnecting.", float64(m.jobsCancelled))
	emit("sweepd_jobs_coalesced_total", "counter",
		"Submissions answered by an existing job with the same spec key.", float64(m.jobsCoalesced))
	emit("sweepd_cache_hits_total", "counter",
		"Configuration lookups served from the content-addressed cache.", float64(m.cacheHits))
	emit("sweepd_cache_misses_total", "counter",
		"Configuration lookups that required scheduling a simulation.", float64(m.cacheMisses))
	emit("sweepd_cache_entries", "gauge",
		"Distinct configuration results held in the cache.", float64(m.cacheEntries))
	degraded := 0.0
	if m.journalDegraded {
		degraded = 1
	}
	emit("sweepd_journal_degraded", "gauge",
		"1 while the journal is unwritable and results are shedding to memory overflow.", degraded)
	emit("sweepd_journal_overflow_results", "gauge",
		"Results held only in the in-memory overflow, awaiting a healed journal.", float64(m.journalOverflow))
	emit("sweepd_journal_errors_total", "counter",
		"Journal append failures (disk full, I/O errors) absorbed by the overflow.", float64(m.journalErrs))
	emit("sweepd_configs_coalesced_total", "counter",
		"Configuration requests that joined a queued or running task.", float64(cs.c.configsCoalesced))
	emit("sweepd_sims_total", "counter",
		"Configurations simulated: unique results accepted from in-process or joined workers.", float64(cs.c.results))
	emit("sweepd_sim_events_total", "counter",
		"Cumulative simulator events across all simulations.", float64(cs.c.simEvents))
	rate := 0.0
	if cs.c.simWallNS > 0 {
		rate = float64(cs.c.simEvents) / time.Duration(cs.c.simWallNS).Seconds()
	}
	emit("sweepd_sim_events_per_second", "gauge",
		"Aggregate simulator speed: events per wall-clock second of simulation.", rate)
	emit("sweepd_heap_inuse_bytes", "gauge",
		"Bytes in in-use heap spans (runtime.MemStats.HeapInuse).", float64(m.heapInuse))

	emitHist := func(name, help string, h histogram) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n",
				name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
		fmt.Fprintf(&b, "%s_sum %s\n", name, strconv.FormatFloat(h.sum, 'g', -1, 64))
		fmt.Fprintf(&b, "%s_count %d\n", name, h.count)
	}
	emitHist("sweepd_sim_wall_seconds",
		"Wall-clock duration of each simulated configuration.", cs.wallHist)
	emitHist("sweepd_sim_config_events_per_second",
		"Simulator event rate of each simulated configuration.", cs.rateHist)
	emit("sweepd_sim_peak_queue_bytes", "gauge",
		"Largest bottleneck-queue occupancy (bytes) any simulated configuration reached.", float64(cs.c.peakQueueBytes))
	emitHist("sweepd_fairness_convergence_seconds",
		"Sim-time until the windowed Jain index first sustained the convergence threshold, per converged fairness-armed configuration.", cs.convHist)
	emit("sweepd_fairness_episodes_total", "counter",
		"Starvation episodes detected across all fairness-armed configurations.", float64(cs.c.fairEpisodes))

	emit("sweepd_cluster_workers", "gauge",
		"Workers currently registered with the coordinator.", float64(cs.workers))
	emit("sweepd_cluster_leases_active", "gauge",
		"Leases currently outstanding across all workers.", float64(cs.leasesActive))
	emit("sweepd_cluster_pending_configs", "gauge",
		"Configurations waiting to be leased.", float64(cs.pendingConfigs))
	emit("sweepd_cluster_leased_configs", "gauge",
		"Configurations leased to workers and not yet uploaded.", float64(cs.leasedConfigs))
	emit("sweepd_cluster_workers_joined_total", "counter",
		"Worker registrations, including re-registrations after a partition.", float64(cs.c.workersJoined))
	emit("sweepd_cluster_workers_dead_total", "counter",
		"Workers reaped for missing heartbeats past the lease TTL.", float64(cs.c.workersDead))
	emit("sweepd_cluster_heartbeats_total", "counter",
		"Heartbeats accepted from registered workers.", float64(cs.c.heartbeats))
	emit("sweepd_cluster_leases_granted_total", "counter",
		"Leases granted to workers.", float64(cs.c.leasesGranted))
	emit("sweepd_cluster_leases_expired_total", "counter",
		"Leases taken back because their deadline passed unrenewed.", float64(cs.c.leasesExpired))
	emit("sweepd_cluster_leases_released_total", "counter",
		"Leases handed back voluntarily by draining workers.", float64(cs.c.leasesReleased))
	emit("sweepd_cluster_leases_stolen_total", "counter",
		"Steal events: an idle worker took the tail of a straggler's lease.", float64(cs.c.leasesStolen))
	emit("sweepd_cluster_configs_leased_total", "counter",
		"Configurations granted across all leases.", float64(cs.c.configsLeased))
	emit("sweepd_cluster_configs_requeued_total", "counter",
		"Configurations moved back to pending by expiry, worker death, or release.", float64(cs.c.configsRequeued))
	emit("sweepd_cluster_configs_stolen_total", "counter",
		"Configurations moved between live leases by work stealing.", float64(cs.c.configsStolen))
	emit("sweepd_cluster_results_total", "counter",
		"Unique results accepted from workers.", float64(cs.c.results))
	emit("sweepd_cluster_duplicate_results_total", "counter",
		"Idempotent re-uploads: RPC retries and stolen double-executions.", float64(cs.c.duplicateResults))
	emit("sweepd_cluster_quarantined", "gauge",
		"Configurations currently quarantined after exhausting their lease retry budget.", float64(cs.quarantined))
	emit("sweepd_cluster_configs_quarantined_total", "counter",
		"Configurations quarantined as poison after exhausting their lease retry budget.", float64(cs.c.configsQuarantined))
	emit("sweepd_cluster_quarantine_served_total", "counter",
		"Enqueues answered directly from a quarantine record.", float64(cs.c.quarantineServed))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
