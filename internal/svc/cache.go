// Package svc is the sweep-as-a-service layer: a long-running daemon core
// that accepts experiment.GridSpec sweeps over HTTP, schedules their
// configurations through one coordinator with per-config singleflight
// deduplication (in-process workers on a single node, workers joined over
// HTTP in a cluster), and serves results from a content-addressed cache
// keyed by experiment.Config.Key() — the full science identity covering
// pairing, AQM, queue, bandwidth, seed, fault profile, duration, paper
// scale, and every other field that changes a run's bytes (only the
// observation-only audit bit and the watchdog budgets are excluded). The
// cache persists through the existing JSONL checkpoint journal, so a
// restarted daemon resumes with a warm cache and a served sweep is
// byte-identical to a direct cmd/sweep run of the same spec. cmd/sweepd
// wraps this package in an HTTP listener; cmd/sweep -remote is its thin
// client.
package svc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/experiment"
	"repro/internal/failpoint"
)

// Cache is the content-addressed result store: an in-memory index over the
// append-only checkpoint journal. Get/Put are keyed by the result's
// Config.Key() — the same science identity the sweep runner's checkpoint
// resume uses, so a journal written by a CLI sweep warms the daemon and
// vice versa, and two specs differing only in an override like duration or
// paper_scale can never serve each other's results. Errored results are
// never cached (they re-run on the next request, exactly like checkpoint
// resume). Hit/miss counters feed /metrics.
type Cache struct {
	mu  sync.Mutex
	ck  *experiment.Checkpoint // nil when running memory-only
	mem map[string]experiment.Result

	hits   atomic.Uint64
	misses atomic.Uint64

	// Journal degradation: when the disk fails (full, I/O errors), Put
	// sheds the journal append into overflow instead of failing — science
	// continues from memory, /healthz flips to degraded, and every later
	// Put retries the drain so the journal heals as soon as the disk does.
	degraded    bool
	overflow    map[string]experiment.Result
	journalErrs uint64
	lastErr     string
}

// OpenCache opens the cache over the journal at path, loading every live
// journaled result into the index. An empty path runs memory-only (results
// do not survive a restart).
func OpenCache(path string) (*Cache, error) {
	c := &Cache{mem: make(map[string]experiment.Result), overflow: make(map[string]experiment.Result)}
	if path == "" {
		return c, nil
	}
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
			"live_results", ck.Len(),
			"quarantine", qfile)
	}
	c.ck = ck
	for _, res := range ck.Results() {
		c.mem[res.Config.Key()] = res
	}
	return c, nil
}

// Get returns the cached result for a config key and counts the lookup.
func (c *Cache) Get(key string) (experiment.Result, bool) {
	c.mu.Lock()
	res, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return res, ok
}

// peek is the coordinator's second-chance lookup: the same read as Get,
// but a miss is not counted (the submitter already counted the miss that
// routed the config to the coordinator). A hit still counts — the result is
// genuinely served from cache.
func (c *Cache) peek(key string) (experiment.Result, bool) {
	c.mu.Lock()
	res, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return res, ok
}

// Put stores a completed result in the index and appends it to the
// journal. Errored results are dropped. A journal failure never fails the
// Put: the result is shed into the in-memory overflow, the cache flips to
// degraded, and the overflow drains back into the journal on a later Put
// once the disk recovers. The returned error is always nil today; the
// signature stays for strict callers like sweepd -merge, which detect an
// unhealed journal via Compact.
func (c *Cache) Put(res experiment.Result) error {
	if res.Errored() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := res.Config.Key()
	c.mem[key] = res
	if c.ck == nil {
		return nil
	}
	if c.degraded {
		c.drainLocked()
	}
	if !c.degraded {
		err := failpoint.Inject("cache.put")
		if err == nil {
			err = c.ck.Append(res)
		}
		if err == nil {
			return nil
		}
		c.journalFailLocked(err)
	}
	c.overflow[key] = res
	return nil
}

func (c *Cache) journalFailLocked(err error) {
	c.journalErrs++
	c.lastErr = err.Error()
	if !c.degraded {
		c.degraded = true
		logger().Error("journal degraded, shedding writes to memory overflow", "err", err)
	}
}

// drainLocked retries the overflowed appends; the cache leaves degraded
// mode only once every shed result is safely journaled.
func (c *Cache) drainLocked() {
	for key, res := range c.overflow {
		if err := c.ck.Append(res); err != nil {
			c.journalErrs++
			c.lastErr = err.Error()
			return
		}
		delete(c.overflow, key)
	}
	if len(c.overflow) == 0 && c.degraded {
		c.degraded = false
		logger().Info("journal recovered, overflow drained")
	}
}

// Degraded reports whether the journal is currently shedding writes, with
// the overflow depth, total journal errors, and last error for /healthz
// and /metrics.
func (c *Cache) Degraded() (degraded bool, overflow int, errs uint64, lastErr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded, len(c.overflow), c.journalErrs, c.lastErr
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Hits and Misses report the lookup counters for /metrics.
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// Compact rewrites the journal to one record per live config ID (see
// experiment.Checkpoint.Compact). Called after each successfully completed
// job and on shutdown; a no-op when memory-only. While the journal is
// degraded the overflow is drained first; if it cannot be, Compact fails
// rather than writing a snapshot that silently misses the shed results.
func (c *Cache) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ck == nil {
		return nil
	}
	if c.degraded {
		c.drainLocked()
	}
	if c.degraded {
		return fmt.Errorf("svc: journal degraded (%d results in overflow, last error: %s)", len(c.overflow), c.lastErr)
	}
	return c.ck.Compact()
}

// Close flushes and closes the journal, draining any overflow first so a
// disk that recovered after degradation loses nothing on shutdown.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ck == nil {
		return nil
	}
	if c.degraded {
		c.drainLocked()
	}
	err := c.ck.Close()
	if c.degraded {
		return fmt.Errorf("svc: journal still degraded at close, %d results not journaled (last error: %s)", len(c.overflow), c.lastErr)
	}
	return err
}
