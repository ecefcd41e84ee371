// Package clause owns the one syntax shared by the repo's spec values —
// fault profiles (faults.Parse), topologies (topo.Parse) and open-loop
// workloads (flows.Parse). A spec takes one of four forms:
//
//   - "" (or only whitespace) — no spec: Parse returns (nil, nil)
//
//   - "@path" — a JSON value read from a file
//
//   - "{...}" — an inline JSON value
//
//   - a clause list — "+"-separated clauses, each "name" or
//     "name:key=value,key=value", applied in order to one value
//
// JSON is decoded strictly: a field the target type does not declare, or
// any data after the value, is an error. In a clause, a key may appear
// only once, and every key must be read by the caller's apply function;
// one it leaves unread is refused as unknown. Each caller keeps only its
// preset table (the apply function) and its own post-parse step.
package clause

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Parse reads spec into a new T. For the clause form it calls apply once
// per clause, in order, on the same T. Every error is prefixed with pkg.
func Parse[T any](pkg, spec string, apply func(v *T, name string, a *Args) error) (*T, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	v := new(T)
	var err error
	switch spec[0] {
	case '@':
		var data []byte
		if data, err = os.ReadFile(spec[1:]); err != nil {
			err = fmt.Errorf("read spec: %w", err)
		} else {
			err = decode(data, v)
		}
	case '{':
		err = decode([]byte(spec), v)
	default:
		for _, c := range strings.Split(spec, "+") {
			if err = applyClause(v, c, apply); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pkg, err)
	}
	return v, nil
}

// decode unmarshals exactly one JSON value into v, refusing unknown
// fields and trailing data.
func decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
		err = errors.New("trailing data after the JSON value")
	}
	if err != nil {
		return fmt.Errorf("parse spec JSON: %w", err)
	}
	return nil
}

func applyClause[T any](v *T, c string, apply func(*T, string, *Args) error) error {
	c = strings.TrimSpace(c)
	if c == "" {
		return errors.New("empty preset clause")
	}
	name, argstr, _ := strings.Cut(c, ":")
	a := &Args{name: strings.TrimSpace(name)}
	if argstr != "" {
		for _, kv := range strings.Split(argstr, ",") {
			k, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad preset argument %q (want key=value)", kv)
			}
			k = strings.TrimSpace(k)
			if a.lookup(k) != nil {
				return fmt.Errorf("%s: repeated key %q", a.name, k)
			}
			a.args = append(a.args, arg{key: k, val: strings.TrimSpace(val)})
		}
	}
	err := apply(v, a.name, a)
	if a.err != nil {
		return a.err
	}
	if err != nil {
		return err
	}
	for _, p := range a.args {
		if !p.used {
			return fmt.Errorf("%s: unknown key %q", a.name, p.key)
		}
	}
	return nil
}

// Args are one clause's key=value arguments. Each getter consumes its key
// and returns the default when the key is absent. A value that does not
// convert makes the whole clause fail with "name: bad key: ..." once apply
// returns, so apply can read every argument before checking anything.
type Args struct {
	name string
	args []arg
	err  error // first conversion failure
}

type arg struct {
	key, val string
	used     bool
}

func (a *Args) lookup(key string) *arg {
	for i := range a.args {
		if a.args[i].key == key {
			return &a.args[i]
		}
	}
	return nil
}

// Len returns the number of arguments the clause carries.
func (a *Args) Len() int { return len(a.args) }

// Has reports whether the clause sets key, without consuming it.
func (a *Args) Has(key string) bool { return a.lookup(key) != nil }

// Get consumes key and converts its value with parse.
func Get[V any](a *Args, key string, def V, parse func(string) (V, error)) V {
	p := a.lookup(key)
	if p == nil {
		return def
	}
	p.used = true
	v, err := parse(p.val)
	if err != nil {
		if a.err == nil {
			a.err = fmt.Errorf("%s: bad %s: %w", a.name, key, err)
		}
		return def
	}
	return v
}

// Dur consumes a time.ParseDuration value.
func (a *Args) Dur(key string, def time.Duration) time.Duration {
	return Get(a, key, def, time.ParseDuration)
}

// Float consumes a float64 value.
func (a *Args) Float(key string, def float64) float64 {
	return Get(a, key, def, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

// Int consumes a decimal int value.
func (a *Args) Int(key string, def int) int {
	return Get(a, key, def, strconv.Atoi)
}

// String consumes a raw string value.
func (a *Args) String(key, def string) string {
	return Get(a, key, def, func(s string) (string, error) { return s, nil })
}
