package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/failpoint"
)

// ResultSet is the serialized form of a sweep.
type ResultSet struct {
	// Note documents what produced the set (scaled vs paper-scale, seeds).
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results"`
}

// WriteJSON writes a result set to w in one write: encodeElement encodes
// each result as an element of the set, and WriteSet splices the elements
// into the set's frame. The bytes are exactly what json.Encoder with
// SetIndent("", " ") writes for the set. Nothing is written when a result
// fails to encode.
func WriteJSON(w io.Writer, rs *ResultSet) error {
	var elems [][]byte
	if rs.Results != nil {
		elems = make([][]byte, len(rs.Results))
	}
	for i := range rs.Results {
		elem, err := encodeElement(&rs.Results[i])
		if err != nil {
			return err
		}
		elems[i] = elem
	}
	var buf bytes.Buffer
	WriteSet(&buf, rs.Note, elems) // a bytes.Buffer takes every write
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("experiment: write results: %w", err)
	}
	return nil
}

// WriteSet is the splice writer behind every serialized result set: it
// writes the {"note", "results"} frame around elements, each one result's
// set element (encodeElement: an Entry's Element, or what WriteJSON
// encodes). A nil elems writes "results": null, as a nil Results does.
func WriteSet(w io.Writer, note string, elems [][]byte) error {
	bw := errWriter{w: w}
	bw.writeString("{\n")
	if note != "" {
		enc, _ := json.Marshal(note) // a string always encodes
		bw.writeString(` "note": `)
		bw.write(enc)
		bw.writeString(",\n")
	}
	switch {
	case elems == nil:
		bw.writeString(" \"results\": null\n}\n")
	case len(elems) == 0:
		bw.writeString(" \"results\": []\n}\n")
	default:
		bw.writeString(" \"results\": [\n  ")
		for i, elem := range elems {
			if i > 0 {
				bw.writeString(",\n  ")
			}
			bw.write(elem)
		}
		bw.writeString("\n ]\n}\n")
	}
	if bw.err != nil {
		return fmt.Errorf("experiment: write results: %w", bw.err)
	}
	return nil
}

// errWriter keeps the first write error and skips every later write.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *errWriter) writeString(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

// encodeElement encodes one result as an element of a result set's
// "results" array: indented with the two-space prefix and one-space step
// the array's depth has in json.Encoder's SetIndent("", " ") output of the
// whole set, so splicing elements into WriteSet's frame gives those bytes.
func encodeElement(res *Result) ([]byte, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("experiment: encode result %s: %w", res.Config.ID(), err)
	}
	buf := bytes.NewBuffer(make([]byte, 0, len(raw)+len(raw)/2))
	if err := json.Indent(buf, raw, "  ", " "); err != nil {
		return nil, fmt.Errorf("experiment: indent result %s: %w", res.Config.ID(), err)
	}
	return buf.Bytes(), nil
}

// Entry is one result of a Checkpoint's index together with its result-set
// element, encoded on the first Element call and kept. An entry never
// changes: an Append that supersedes its key indexes a new entry, so the
// bytes served for this one stay the encoding of its Result.
type Entry struct {
	Result Result

	once sync.Once
	elem []byte
	err  error
}

// NewEntry wraps a result that is not (or not yet) indexed, such as an
// errored one, so it serves through the same Element path.
func NewEntry(res Result) *Entry { return &Entry{Result: res} }

// Element returns the entry's result-set element (see WriteSet), encoding
// it on the first call only.
func (e *Entry) Element() ([]byte, error) {
	e.once.Do(func() { e.elem, e.err = encodeElement(&e.Result) })
	return e.elem, e.err
}

// ReadJSON parses a result set from r.
func ReadJSON(r io.Reader) (*ResultSet, error) {
	var rs ResultSet
	if err := json.NewDecoder(r).Decode(&rs); err != nil {
		return nil, fmt.Errorf("experiment: decode results: %w", err)
	}
	return &rs, nil
}

// SaveFile writes a result set to path, creating parent directories.
func SaveFile(path string, rs *ResultSet) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("experiment: mkdir %s: %w", dir, err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: create %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteJSON(f, rs); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a result set from path.
func LoadFile(path string) (*ResultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadJSON(f)
}

// Checkpoint is an append-only journal of completed results — one
// CRC-framed record per line (journal format v2) — that lets a multi-hour
// sweep survive a crash: the runner appends each result as it finishes,
// and a restarted sweep opens the same file and skips every configuration
// whose science identity (Config.Key — the grid cell plus duration, paper
// scale, and every other field that changes a run's bytes) is already
// journaled. Only clean results are appended — errored configurations
// (panic, watchdog) re-run on resume. Append is safe for concurrent use by the worker pool.
//
// The index is also the store sweepd serves from, so a failing disk never
// loses science: a result whose write or fsync fails stays indexed and
// queued in pending, every later Append, Sync, Compact and Close retries
// the queue first, and the journal heals as soon as the disk does. Compact
// and Close refuse to declare durability while the queue is non-empty.
type Checkpoint struct {
	path string // "" = memory-only: nothing is read or written

	mu      sync.Mutex
	f       *os.File
	err     error // sticky: set when the journal handle is unusable (failed Compact reopen)
	done    map[string]*Entry
	pending map[string]struct{} // indexed keys not yet journaled
	errs    uint64              // failed journal writes since open
	lastErr string

	// Load-time integrity accounting: what the resilient reader saw, and
	// up to maxDamagedBytes of the raw damaged lines for fsck quarantine
	// (stats.Unkept counts the rest).
	stats   JournalStats
	damaged [][]byte

	// torn records that the last append failed partway through a record;
	// the next append first terminates the partial line so the two records
	// cannot fuse.
	torn bool

	// stale counts file lines a Compact rewrite would drop or re-encode:
	// duplicate, errored and damaged lines at load, superseding appends,
	// and queued records re-written after a failed write (a torn fragment's
	// record always is). Compact skips the rewrite while it is 0;
	// over-counting costs one rewrite, under-counting a redundant line.
	stale int

	// Durability policy: Append fsyncs once syncEvery results accumulate
	// unsynced or syncInterval has passed since the last sync, whichever
	// comes first — bounding how many journaled-but-volatile results a
	// power loss can take (the torn-tail healing in OpenCheckpoint already
	// bounds the damage of a partial line to that one line). Syncing every
	// append would serialize the worker pool on the disk; never syncing
	// (the old behavior) left an entire page cache of results exposed.
	syncEvery    int
	syncInterval time.Duration
	unsynced     int
	lastSync     time.Time
	syncs        uint64
}

// Default durability policy: at most 8 results or 200ms between fsyncs.
const (
	defaultSyncEvery    = 8
	defaultSyncInterval = 200 * time.Millisecond
)

// OpenCheckpoint opens (creating if needed) the journal at path and loads
// every previously completed result. Damage — a torn final write, flipped
// bits, whole corrupt regions — is skipped and counted per record, never
// fatal: every record whose integrity still proves out is recovered, on
// both sides of the damage, and losing a record costs one re-run, never
// the sweep. Stats reports what the load saw. An empty path opens a
// memory-only store: no file, and results do not survive the process.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	if path == "" {
		return &Checkpoint{done: make(map[string]*Entry)}, nil
	}
	if err := failpoint.Inject("checkpoint.open"); err != nil {
		return nil, fmt.Errorf("experiment: open checkpoint %s: %w", path, err)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("experiment: checkpoint mkdir %s: %w", dir, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment: open checkpoint %s: %w", path, err)
	}
	c := &Checkpoint{path: path, f: f, done: make(map[string]*Entry), pending: make(map[string]struct{}),
		syncEvery: defaultSyncEvery, syncInterval: defaultSyncInterval, lastSync: time.Now()}
	damagedBytes := 0
	err = readJournal(f, &c.stats, func(key string, res Result) {
		if _, dup := c.done[key]; dup {
			c.stats.Duplicates++
		}
		c.done[key] = NewEntry(res)
	}, func(line []byte) {
		if damagedBytes+len(line) > maxDamagedBytes {
			c.stats.Unkept++
			return
		}
		damagedBytes += len(line)
		c.damaged = append(c.damaged, append([]byte(nil), line...))
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: read checkpoint %s: %w", path, err)
	}
	c.stale = c.stats.Duplicates + c.stats.Errored + c.stats.Damaged()
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: checkpoint %s: %w", path, err)
	}
	// Heal a torn final line (a crash mid-append leaves no trailing
	// newline): terminate it now, or the next Append would fuse with the
	// torn fragment and corrupt a fresh result too. A brand-new journal
	// instead gets the v2 version header.
	if st, err := f.Stat(); err == nil {
		if st.Size() == 0 {
			if _, err := f.Write([]byte(journalHeaderV2 + "\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("experiment: checkpoint %s: %w", path, err)
			}
		} else {
			var last [1]byte
			if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
				if _, err := f.Write([]byte("\n")); err != nil {
					f.Close()
					return nil, fmt.Errorf("experiment: checkpoint %s: %w", path, err)
				}
			}
		}
	}
	return c, nil
}

// Stats returns the integrity accounting from the load that opened this
// journal (appends after open are not re-counted).
func (c *Checkpoint) Stats() JournalStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of completed results loaded or appended so far.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Lookup returns the journaled result for a configuration's science
// identity (Config.Key), if present.
func (c *Checkpoint) Lookup(key string) (Result, bool) {
	e, ok := c.LookupEntry(key)
	if !ok {
		return Result{}, false
	}
	return e.Result, true
}

// LookupEntry returns the index entry for a configuration's science
// identity (Config.Key), if present.
func (c *Checkpoint) LookupEntry(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.done[key]
	return e, ok
}

// Append indexes one completed result and journals it as a CRC-framed v2
// record. Errored results are ignored (they must re-run on resume). Each
// record is written atomically with respect to other Append calls. When
// the write or its fsync fails, the result stays indexed and queued, and
// Append returns the error; the queue is retried first on every later
// call, and a partial record is terminated before the next one, so a
// recovering disk never fuses two records.
func (c *Checkpoint) Append(res Result) error {
	_, err := c.AppendEntry(res)
	return err
}

// AppendEntry is Append returning the index entry it made for res: nil for
// an errored result, which is not indexed, and the entry even when the
// journal write failed, since the result stays indexed.
func (c *Checkpoint) AppendEntry(res Result) (*Entry, error) {
	if res.Errored() {
		return nil, nil
	}
	e := NewEntry(res)
	if c.path == "" {
		c.mu.Lock()
		c.done[res.Config.Key()] = e
		c.mu.Unlock()
		return e, nil
	}
	data, key, err := encodeFrame(res)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.done[key]; ok {
		c.stale++
	}
	c.done[key] = e
	err = c.retryLocked()
	if err == nil {
		err = c.writeLocked(data)
	}
	if err != nil {
		c.pending[key] = struct{}{}
		return e, c.failLocked(err)
	}
	return e, nil
}

// retryLocked journals the queued results; each leaves the queue once its
// record is written and synced under the policy, and counts stale since
// the failed attempt may have landed.
func (c *Checkpoint) retryLocked() error {
	for key := range c.pending {
		data, _, err := encodeFrame(c.done[key].Result)
		if err == nil {
			err = c.writeLocked(data)
		}
		if err != nil {
			return err
		}
		delete(c.pending, key)
		c.stale++
	}
	return nil
}

// failLocked counts a failed journal write for Degraded and returns it.
func (c *Checkpoint) failLocked(err error) error {
	c.errs++
	c.lastErr = err.Error()
	return err
}

// Degraded reports how many indexed results are not yet journaled, how
// many journal writes have failed since open, and the last failure.
func (c *Checkpoint) Degraded() (pending int, errs uint64, lastErr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending), c.errs, c.lastErr
}

// writeLocked appends one encoded record and applies the sync policy.
func (c *Checkpoint) writeLocked(data []byte) error {
	if c.err != nil {
		return c.err
	}
	if c.torn {
		if _, err := c.f.Write([]byte("\n")); err != nil {
			return fmt.Errorf("experiment: checkpoint append: %w", err)
		}
		c.torn = false
	}
	if fp := failpoint.Eval("checkpoint.append.write"); fp != nil {
		fp.Sleep()
		if fp.ShortN >= 0 && fp.ShortN < len(data) {
			c.f.Write(data[:fp.ShortN])
			c.torn = true
		}
		if fp.Err != nil {
			return fmt.Errorf("experiment: checkpoint append: %w", fp.Err)
		}
	}
	if n, err := c.f.Write(data); err != nil {
		if n > 0 && n < len(data) {
			c.torn = true
		}
		return fmt.Errorf("experiment: checkpoint append: %w", err)
	}
	c.unsynced++
	if c.unsynced >= c.syncEvery || time.Since(c.lastSync) >= c.syncInterval {
		if err := c.syncLocked(); err != nil {
			return fmt.Errorf("experiment: checkpoint sync: %w", err)
		}
	}
	return nil
}

// SetSyncPolicy overrides the durability policy: fsync after every results
// or after interval since the last sync, whichever trips first. every <= 0
// syncs on every append; interval <= 0 disables the time trigger.
func (c *Checkpoint) SetSyncPolicy(every int, interval time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if every <= 0 {
		every = 1
	}
	if interval <= 0 {
		interval = time.Duration(1<<63 - 1)
	}
	c.syncEvery, c.syncInterval = every, interval
}

// Syncs reports how many fsyncs the policy has issued (for tests and
// durability accounting).
func (c *Checkpoint) Syncs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

// Sync journals any queued results and forces the journal to stable
// storage immediately, regardless of how few appends are unsynced.
func (c *Checkpoint) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.retryLocked(); err != nil {
		return c.failLocked(err)
	}
	return c.syncLocked()
}

func (c *Checkpoint) syncLocked() error {
	if c.f == nil {
		return nil
	}
	if err := failpoint.Inject("checkpoint.fsync"); err != nil {
		return err
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	c.unsynced = 0
	c.lastSync = time.Now()
	c.syncs++
	return nil
}

// Results returns every live journaled result sorted by config ID, the
// science Key breaking ties between runs of one grid cell under different
// overrides: the deterministic order a Compact rewrite writes.
func (c *Checkpoint) Results() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resultsLocked()
}

func (c *Checkpoint) resultsLocked() []Result {
	type entry struct{ id, key string } // the index key is the science Key
	order := make([]entry, 0, len(c.done))
	for key, e := range c.done {
		order = append(order, entry{e.Result.Config.ID(), key})
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return a.id < b.id || a.id == b.id && a.key < b.key
	})
	out := make([]Result, len(order))
	for i, e := range order {
		out[i] = c.done[e.key].Result
	}
	return out
}

// Compact leaves the journal holding exactly the live results, one v2 line
// per science key, so the append-only file stops growing across resumes;
// callers compact on sweep completion and shutdown. Queued results are
// journaled first; while any remain, Compact fails rather than declare the
// journal whole. A journal with no stale lines is already compact and is
// left alone; otherwise the live results are rewritten and atomically
// replace the file, which stays open and appendable and resumes
// identically to the original. A memory-only store has nothing to compact.
func (c *Checkpoint) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path == "" {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	if err := c.retryLocked(); err != nil {
		return c.degradedLocked(err)
	}
	if c.stale == 0 {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(c.path), filepath.Base(c.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("experiment: checkpoint compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// CreateTemp makes the file 0600; the rename must not narrow the
	// journal's mode.
	st, err := os.Stat(c.path)
	if err == nil {
		err = tmp.Chmod(st.Mode().Perm())
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("experiment: checkpoint compact mode: %w", err)
	}
	w := bufio.NewWriter(tmp)
	if _, err := w.WriteString(journalHeaderV2 + "\n"); err != nil {
		tmp.Close()
		return fmt.Errorf("experiment: checkpoint compact write: %w", err)
	}
	for _, res := range c.resultsLocked() {
		data, _, err := encodeFrame(res)
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := w.Write(data); err != nil {
			tmp.Close()
			return fmt.Errorf("experiment: checkpoint compact write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("experiment: checkpoint compact flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("experiment: checkpoint compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("experiment: checkpoint compact close: %w", err)
	}
	if err := failpoint.Inject("checkpoint.compact.rename"); err != nil {
		return fmt.Errorf("experiment: checkpoint compact rename: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		return fmt.Errorf("experiment: checkpoint compact rename: %w", err)
	}
	// Swap the open handle to the new file so later Appends land in the
	// compacted journal, not the unlinked original.
	f, err := os.OpenFile(c.path, os.O_RDWR|os.O_APPEND, 0o644)
	if ferr := failpoint.Inject("checkpoint.compact.reopen"); ferr != nil && err == nil {
		f.Close()
		f, err = nil, ferr
	}
	if err != nil {
		// The rename already replaced the on-disk journal; the old handle
		// points at the unlinked inode, so anything appended through it
		// would be silently lost. Mark the checkpoint unusable instead:
		// subsequent Appends fail fast rather than vanishing.
		c.err = fmt.Errorf("experiment: checkpoint compact reopen: %w", err)
		c.f.Close()
		c.f = nil
		return c.err
	}
	c.f.Close()
	c.f = f
	// The compacted file was synced before the rename; nothing is pending
	// and any torn partial record is gone with the old file.
	c.unsynced = 0
	c.torn = false
	c.stale = 0
	c.lastSync = time.Now()
	return nil
}

// Close journals any queued results, syncs any appends still unsynced
// under the batch policy, and closes the journal file — a cleanly shut-down
// journal is always durable, and one that could not take every result
// says so.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return c.err
	}
	var err error
	if rerr := c.retryLocked(); rerr != nil {
		err = c.degradedLocked(rerr)
	}
	if c.unsynced > 0 {
		if serr := c.syncLocked(); serr != nil && err == nil {
			err = fmt.Errorf("experiment: checkpoint close sync: %w", serr)
		}
	}
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// degradedLocked counts a failed retry of the queue and reports how many
// results it leaves unjournaled.
func (c *Checkpoint) degradedLocked(err error) error {
	c.failLocked(err)
	return fmt.Errorf("experiment: checkpoint %s degraded, %d results not journaled: %w", c.path, len(c.pending), err)
}
