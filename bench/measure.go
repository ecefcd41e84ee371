package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// Host time in this benchmark is process CPU time: on the shared sandbox the
// wall time of a single-threaded run swings 1.2-3x its CPU time from one
// minute to the next, while the getrusage user+sys delta of a timed section
// repeats within a few percent. It also charges GC workers to the program.

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return ru
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// section is the cost of one timed stretch of code.
type section struct {
	CPU     time.Duration
	Wall    time.Duration
	Mallocs uint64
}

// timed runs f and returns what it cost the process.
func timed(f func()) section {
	m0 := mallocCount()
	w0 := time.Now()
	c0 := cpuTime()
	f()
	cpu := cpuTime() - c0
	wall := time.Since(w0)
	return section{CPU: cpu, Wall: wall, Mallocs: mallocCount() - m0}
}

// cpuNsPerOp prepares and times d reps times and returns the median CPU
// nanoseconds per operation. ops is fixed so the work is identical run to run.
func cpuNsPerOp(ops, reps int, d driver) float64 {
	vals := make([]float64, reps)
	for i := range vals {
		run := d(ops)
		c0 := cpuTime()
		run()
		vals[i] = float64(cpuTime()-c0) / float64(ops)
	}
	return median(vals)
}

// summary is a metric's value over the repetitions of one run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(vals []float64) summary {
	q1, q3 := quartiles(vals)
	return summary{Median: median(vals), Q1: q1, Q3: q3, N: len(vals)}
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 {
	s := sorted(vals)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vals, n=4) does (the method the driver applies).
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailPercentile returns the highest percentile of vals that still has at
// least ten samples beyond it, and its value; ok is false under 20 samples.
func tailPercentile(vals []float64) (p, v float64, ok bool) {
	n := len(vals)
	if n < 20 {
		return 0, 0, false
	}
	s := sorted(vals)
	return 100 * float64(n-10) / float64(n), s[n-11], true
}

// resultHash is the SHA-256 of a result's JSON with wall_ns zeroed: the
// science bytes, which must repeat exactly for a seed.
func resultHash(res experiment.Result) [sha256.Size]byte {
	res.Wall = 0
	data, err := json.Marshal(res)
	if err != nil {
		panic(err) // Result is plain data
	}
	return sha256.Sum256(data)
}

// digestOf folds per-result hashes, in order, into one science digest.
func digestOf(hashes [][sha256.Size]byte) string {
	h := sha256.New()
	for _, x := range hashes {
		h.Write(x[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// deliveredSegments is the number of MSS-sized data segments a run
// delivered: the senders' goodput plus the completed open-loop payload.
func deliveredSegments(res experiment.Result) float64 {
	bytes := (res.SenderBps[0] + res.SenderBps[1]) * res.SimSeconds / 8
	if c := res.FCT.Class("all"); c != nil {
		bytes += float64(c.Bytes)
	}
	return bytes / 8900
}
