// Package failpoint provides named, deterministically seeded fault
// injection points for chaos testing the storage and cluster stack.
//
// A failpoint is a named hook compiled into production code
// (fail.Inject("checkpoint.fsync") style) that does nothing until armed.
// Arming happens explicitly via Enable — typically from a -failpoints
// flag or the FAILPOINTS environment variable — with a spec of the form
//
//	name=action[@trigger,trigger,...][;name=action...]
//
// Actions:
//
//	err            inject a generic error
//	err(message)   inject an error with the given message
//	short:N        short write: the caller persists only the first N bytes,
//	               then fails (only honored by write-shaped points)
//	delay:DUR      sleep DUR (Go duration syntax) before proceeding
//	exit           exit the process (code 1)
//	exit:CODE      exit the process with CODE
//
// Triggers (all optional, comma separated):
//
//	hit=N          fire only on exactly the Nth matching evaluation
//	from=N         fire from the Nth matching evaluation onward
//	times=N        fire at most N times in total
//	p=F            fire with probability F per evaluation
//	seed=N         seed for the p= coin (default 1) — runs replay identically
//	arg=S          fire only when the EvalCtx argument contains substring S
//
// Disarmed points cost one atomic load and zero allocations, so hooks can
// stay compiled into hot paths; the repository's alloc gates pin this.
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Failure describes the fault an armed point injects on one firing.
type Failure struct {
	Err      error         // error to return to the caller (nil for pure delay)
	ShortN   int           // >= 0: persist only the first ShortN bytes before failing
	Delay    time.Duration // latency to add before returning
	Exit     bool          // terminate the process instead of returning
	ExitCode int           // process exit code when Exit is set
}

// Sleep applies the failure's latency, if any. Safe on a nil receiver.
func (f *Failure) Sleep() {
	if f != nil && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}

// apply sleeps, honors exit mode, and returns the injected error.
func (f *Failure) apply() error {
	f.Sleep()
	if f.Exit {
		os.Exit(f.ExitCode)
	}
	return f.Err
}

type point struct {
	action Failure
	arg    string // substring the EvalCtx argument must contain ("" = any)
	hit    int    // fire only on exactly this matching evaluation (0 = any)
	from   int    // fire from this matching evaluation onward (0 = start)
	times  int    // maximum firings (< 0 = unlimited)
	p      float64
	rng    *rand.Rand
	count  int // matching evaluations so far
	fired  int
}

var (
	// armed is the fast-path gate: false means no point is registered and
	// every Eval returns nil after a single atomic load.
	armed  atomic.Bool
	mu     sync.Mutex
	points = map[string]*point{}
)

// Enable parses and arms one or more failpoint specs (see package doc).
// Re-enabling a name replaces its previous spec and resets its counters.
func Enable(specs string) error {
	for _, spec := range strings.Split(specs, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, rest, ok := strings.Cut(spec, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || rest == "" {
			return fmt.Errorf("failpoint: bad spec %q (want name=action[@triggers])", spec)
		}
		actionStr, trigStr, hasTrig := strings.Cut(rest, "@")
		pt, err := parseAction(actionStr)
		if err != nil {
			return fmt.Errorf("failpoint: %s: %w", name, err)
		}
		seed := int64(1)
		if hasTrig {
			for _, trig := range strings.Split(trigStr, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(trig), "=")
				if !ok {
					return fmt.Errorf("failpoint: %s: bad trigger %q", name, trig)
				}
				switch k {
				case "hit":
					pt.hit, err = strconv.Atoi(v)
				case "from":
					pt.from, err = strconv.Atoi(v)
				case "times":
					pt.times, err = strconv.Atoi(v)
				case "p":
					pt.p, err = strconv.ParseFloat(v, 64)
				case "seed":
					seed, err = strconv.ParseInt(v, 10, 64)
				case "arg":
					pt.arg = v
				default:
					return fmt.Errorf("failpoint: %s: unknown trigger %q", name, k)
				}
				if err != nil {
					return fmt.Errorf("failpoint: %s: trigger %q: %w", name, trig, err)
				}
			}
		}
		pt.rng = rand.New(rand.NewSource(seed))
		mu.Lock()
		points[name] = pt
		armed.Store(true)
		mu.Unlock()
	}
	return nil
}

func parseAction(s string) (*point, error) {
	pt := &point{times: -1}
	pt.action.ShortN = -1
	switch {
	case s == "err":
		pt.action.Err = errors.New("failpoint: injected error")
	case strings.HasPrefix(s, "err(") && strings.HasSuffix(s, ")"):
		pt.action.Err = errors.New(s[len("err(") : len(s)-1])
	case strings.HasPrefix(s, "short:"):
		n, err := strconv.Atoi(s[len("short:"):])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad short action %q", s)
		}
		pt.action.ShortN = n
		pt.action.Err = fmt.Errorf("failpoint: injected short write (%d bytes)", n)
	case strings.HasPrefix(s, "delay:"):
		d, err := time.ParseDuration(s[len("delay:"):])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay action %q", s)
		}
		pt.action.Delay = d
	case s == "exit":
		pt.action.Exit = true
		pt.action.ExitCode = 1
	case strings.HasPrefix(s, "exit:"):
		code, err := strconv.Atoi(s[len("exit:"):])
		if err != nil {
			return nil, fmt.Errorf("bad exit action %q", s)
		}
		pt.action.Exit = true
		pt.action.ExitCode = code
	default:
		return nil, fmt.Errorf("unknown action %q", s)
	}
	return pt, nil
}

// Disable disarms one named point.
func Disable(name string) {
	mu.Lock()
	delete(points, name)
	armed.Store(len(points) > 0)
	mu.Unlock()
}

// DisableAll disarms every point. Tests defer this.
func DisableAll() {
	mu.Lock()
	points = map[string]*point{}
	armed.Store(false)
	mu.Unlock()
}

// Eval reports whether the named point fires on this hit, returning the
// failure to inject or nil. Disarmed cost: one atomic load, no allocation.
func Eval(name string) *Failure {
	if !armed.Load() {
		return nil
	}
	return evalSlow(name, "")
}

// EvalCtx is Eval with a caller-supplied argument (e.g. a config ID or RPC
// op name) matched against the point's arg= trigger.
func EvalCtx(name, arg string) *Failure {
	if !armed.Load() {
		return nil
	}
	return evalSlow(name, arg)
}

func evalSlow(name, arg string) *Failure {
	mu.Lock()
	defer mu.Unlock()
	pt := points[name]
	if pt == nil {
		return nil
	}
	if pt.arg != "" && !strings.Contains(arg, pt.arg) {
		return nil
	}
	pt.count++
	if pt.hit != 0 && pt.count != pt.hit {
		return nil
	}
	if pt.from != 0 && pt.count < pt.from {
		return nil
	}
	if pt.times >= 0 && pt.fired >= pt.times {
		return nil
	}
	if pt.p > 0 && pt.p < 1 && pt.rng.Float64() >= pt.p {
		return nil
	}
	pt.fired++
	f := pt.action
	return &f
}

// Inject evaluates the named point and applies its failure: sleeps the
// configured latency, exits the process for exit-mode points, and returns
// the configured error. Nil when disarmed or not firing.
func Inject(name string) error {
	f := Eval(name)
	if f == nil {
		return nil
	}
	return f.apply()
}

// InjectCtx is Inject with an EvalCtx argument.
func InjectCtx(name, arg string) error {
	f := EvalCtx(name, arg)
	if f == nil {
		return nil
	}
	return f.apply()
}
