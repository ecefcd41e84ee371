// Package svc is the sweep-as-a-service layer: a long-running daemon core
// that accepts experiment.GridSpec sweeps over HTTP, schedules their
// configurations through one coordinator with per-config singleflight
// deduplication (in-process workers on a single node, workers joined over
// HTTP in a cluster), and serves results from a content-addressed cache
// keyed by experiment.Config.Key() — the full science identity covering
// pairing, AQM, queue, bandwidth, seed, fault profile, duration, paper
// scale, and every other field that changes a run's bytes (only the
// observation-only audit bit and the watchdog budgets are excluded). The
// cache persists through the existing checkpoint journal, so a
// restarted daemon resumes with a warm cache and a served sweep is
// byte-identical to a direct cmd/sweep run of the same spec. cmd/sweepd
// wraps this package in an HTTP listener; cmd/sweep -remote is its thin
// client.
package svc

import (
	"fmt"
	"sync/atomic"

	"repro/internal/experiment"
)

// Cache is the content-addressed result store: the checkpoint journal and
// its in-memory index, plus the hit/miss counters /metrics reports. Get/Put
// are keyed by the result's Config.Key() — the same science identity the
// sweep runner's checkpoint resume uses, so a journal written by a CLI
// sweep warms the daemon and vice versa, and two specs differing only in
// an override like duration or paper_scale can never serve each other's
// results. Errored results are never cached (they re-run on the next
// request, exactly like checkpoint resume). Disk failures are the
// checkpoint's to absorb: a result it cannot journal stays served from
// memory and is retried on every later write (see experiment.Checkpoint).
type Cache struct {
	*experiment.Checkpoint

	hits   atomic.Uint64
	misses atomic.Uint64
}

// OpenCache opens the cache over the journal at path, loading every live
// journaled result into the index. An empty path runs memory-only (results
// do not survive a restart).
func OpenCache(path string) (*Cache, error) {
	ck, err := experiment.OpenCheckpoint(path)
	if err != nil {
		return nil, err
	}
	// Boot-time integrity scan: if the load saw damage — corrupt regions,
	// key-mismatched records, oversized garbage — repair now (quarantine
	// the damaged raw lines beside the journal, compact to clean v2) so
	// the daemon never appends after known damage.
	if st := ck.Stats(); st.Damaged() > 0 {
		qfile, rerr := ck.Repair()
		if rerr != nil {
			ck.Close()
			return nil, fmt.Errorf("svc: journal %s damaged (%d corrupt, %d key-mismatched, %d oversized) and repair failed: %w",
				path, st.Corrupt, st.KeyMismatch, st.Oversized, rerr)
		}
		if qfile == "" {
			qfile = "(not retained)"
		}
		logger().Warn("journal repaired on boot",
			"journal", path,
			"dropped_corrupt", st.Corrupt,
			"dropped_key_mismatched", st.KeyMismatch,
			"dropped_oversized", st.Oversized,
			"not_quarantined", st.Unkept,
			"live_results", ck.Len(),
			"quarantine", qfile)
	}
	return &Cache{Checkpoint: ck}, nil
}

// Get returns the cache entry for a config key and counts the lookup.
func (c *Cache) Get(key string) (*experiment.Entry, bool) {
	e, ok := c.LookupEntry(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// Put stores a completed result and returns the entry that serves it: the
// cached one, or for an errored result, which is never cached, an entry of
// its own. A journal failure never fails the Put: the result is served from
// memory while the checkpoint retries the write. Strict callers like
// sweepd -merge detect an unhealed journal via Compact.
func (c *Cache) Put(res experiment.Result) *experiment.Entry {
	e, err := c.AppendEntry(res)
	if err != nil {
		logger().Error("journal append failed, result held in memory until the journal heals",
			"err", err,
			"config_id", res.Config.ID(),
			"config_key", res.Config.Key())
	}
	if e == nil {
		e = experiment.NewEntry(res)
	}
	return e
}

// Degraded reports whether the journal is behind, with the number of
// results held only in memory, total journal errors, and the last error
// for /healthz and /metrics.
func (c *Cache) Degraded() (degraded bool, overflow int, errs uint64, lastErr string) {
	overflow, errs, lastErr = c.Checkpoint.Degraded()
	return overflow > 0, overflow, errs, lastErr
}

// Hits and Misses report the lookup counters for /metrics.
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }
