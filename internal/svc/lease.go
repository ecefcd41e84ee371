package svc

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/experiment"
)

// Cluster task lifecycle. A task is one configuration the coordinator owes
// an answer for. It is pending until granted to a worker inside a lease,
// leased while some worker's lease holds it, and done once any worker's
// upload lands (at which point it leaves the table — the result lives in
// the content-addressed cache). Expiry, worker death, and explicit release
// move a task from leased back to pending; work stealing moves it from one
// live lease to another without touching the state.
type taskState uint8

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

// clusterTask is one configuration awaiting a worker, shared by every job
// that requested it (per-config singleflight: jobs wanting the same science
// key coalesce onto one task as waiters).
type clusterTask struct {
	key     string // Config.Key(): the science identity
	cfg     experiment.Config
	state   taskState
	lease   *lease // the lease currently holding the task (leased only)
	waiters []waiter

	// Retry accounting for poison-config quarantine: failures counts the
	// leases this task lost to expiry or worker death (graceful releases are
	// free), failLog keeps one line per loss for the quarantine Result.
	failures int
	failLog  []string
}

// lease is one worker's claim on a batch of tasks: a deadline after which
// the coordinator takes the work back, and the set of keys not yet
// uploaded. keys preserves grant order so work stealing can take the tail —
// the configs the straggling worker is furthest from reaching.
type lease struct {
	id        string
	worker    string
	local     bool // held by an in-process worker: never expires
	deadline  time.Time
	keys      []string // grant order (superset of remaining; stolen/done keys stay listed)
	remaining map[string]*clusterTask
}

// tail returns up to n remaining tasks from the back of the grant order —
// the work a straggler would reach last, and therefore the cheapest to
// steal without colliding with its current simulation.
func (l *lease) tail(n int) []*clusterTask {
	var out []*clusterTask
	for i := len(l.keys) - 1; i >= 0 && len(out) < n; i-- {
		if t, ok := l.remaining[l.keys[i]]; ok {
			out = append(out, t)
		}
	}
	return out
}

// clusterWorker is one registered worker: liveness timestamp and the leases
// it currently holds. A local worker is an in-process goroutine; it is not
// on the hash ring and is never reaped.
type clusterWorker struct {
	id       string
	name     string
	local    bool
	lastSeen time.Time
	leases   map[string]*lease
}

// hashRing maps configuration keys onto workers by consistent hashing:
// every worker projects ringPointsPerWorker virtual points onto a 64-bit
// ring, and a key belongs to the worker owning the first point at or after
// the key's hash. Worker churn moves only the keys adjacent to the joining
// or leaving worker's points, so a mostly-stable cluster keeps a mostly-
// stable shard map — which keeps lease batches aligned with any worker-
// local caches across re-leases.
const ringPointsPerWorker = 64

type ringPoint struct {
	hash   uint64
	worker string
}

type hashRing struct {
	points []ringPoint
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// add projects a worker's virtual points onto the ring.
func (r *hashRing) add(workerID string) {
	for i := 0; i < ringPointsPerWorker; i++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", workerID, i)), workerID})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes a worker's points.
func (r *hashRing) remove(workerID string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.worker != workerID {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// owner returns the worker a key belongs to, or "" on an empty ring.
func (r *hashRing) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].worker
}
