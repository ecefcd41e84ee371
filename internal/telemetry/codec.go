package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// NDJSON wire format, one JSON object per line:
//
//	{"v":1,"states":["startup","drain",...]}                    header (first line)
//	{"ring":"flow:1","kind":"flow","label":"bbr1","cap":4096,
//	 "sample_n":1,"total":812,"dropped":0}                      ring header
//	{"r":"flow:1","t":1000000,"ev":"cwnd","flow":1,"a":14480,"b":9223372036854775807}
//	{"r":"port:r1->r2","t":2000000,"ev":"drop","aux":"tail","flow":2,"a":1514,"b":125000}
//
// Events follow their ring's header and reference it by name in "r".
// CCA-state events carry integer codes in a/b that index the header's
// states table. ParseNDJSON is strict — a torn tail or unknown name is an
// error, not a partial result; dumps are written whole, never appended.

// StreamHeader is the line naming a configuration ahead of its dump in a
// stream of several dumps, as sweepd's /trace endpoint writes them.
type StreamHeader struct {
	Config string `json:"config"` // science key
	ID     string `json:"id"`     // human-readable config ID
}

// EncodeNDJSON writes the dump in the NDJSON wire format.
func EncodeNDJSON(w io.Writer, d *Dump) error {
	bw := bufio.NewWriter(w)
	hdr := struct {
		V      int      `json:"v"`
		States []string `json:"states"`
	}{d.V, d.States}
	if err := writeJSONLine(bw, hdr); err != nil {
		return err
	}
	for i := range d.Rings {
		r := &d.Rings[i]
		rh := struct {
			Ring    string `json:"ring"`
			Kind    string `json:"kind"`
			Label   string `json:"label,omitempty"`
			Cap     int    `json:"cap"`
			SampleN int    `json:"sample_n"`
			Total   uint64 `json:"total"`
			Dropped uint64 `json:"dropped"`
		}{r.Name, r.Kind, r.Label, r.Cap, r.SampleN, r.Total, r.Dropped}
		if err := writeJSONLine(bw, rh); err != nil {
			return err
		}
		for _, ev := range r.Events {
			if err := writeEventLine(bw, r.Name, ev); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeJSONLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// writeEventLine hand-renders one event. Field order is fixed so encoding
// is deterministic (golden-testable) and cheap: no reflection, one small
// append-built line per event.
func writeEventLine(w *bufio.Writer, ringName string, ev Event) error {
	var buf [192]byte
	b := buf[:0]
	b = append(b, `{"r":`...)
	b = strconv.AppendQuote(b, ringName)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, ev.At, 10)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, ev.Kind.String())
	if ev.Aux != AuxNone {
		b = append(b, `,"aux":`...)
		b = strconv.AppendQuote(b, ev.Aux.String())
	}
	b = append(b, `,"flow":`...)
	b = strconv.AppendUint(b, uint64(ev.Flow), 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendInt(b, ev.A, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, ev.B, 10)
	b = append(b, "}\n"...)
	_, err := w.Write(b)
	return err
}

// ndLine is the union of the three NDJSON line shapes; presence of "v",
// "ring", or "r" discriminates.
type ndLine struct {
	V      *int     `json:"v"`
	States []string `json:"states"`

	Ring    string `json:"ring"`
	RKind   string `json:"kind"`
	Label   string `json:"label"`
	Cap     int    `json:"cap"`
	SampleN int    `json:"sample_n"`
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`

	R    string `json:"r"`
	T    int64  `json:"t"`
	Ev   string `json:"ev"`
	Aux  string `json:"aux"`
	Flow uint32 `json:"flow"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
}

var (
	kindByName = func() map[string]Kind {
		m := make(map[string]Kind, int(kindCount))
		for k := Kind(1); k < kindCount; k++ {
			m[k.String()] = k
		}
		return m
	}()
	auxByName = func() map[string]Aux {
		m := make(map[string]Aux, int(auxCount))
		for a := Aux(1); a < auxCount; a++ {
			m[a.String()] = a
		}
		return m
	}()
)

// ParseNDJSON reads a dump back from the NDJSON wire format. It is strict:
// unknown event kinds, events referencing undeclared rings, events before
// any ring header, a missing version header, or malformed JSON are errors.
// A round trip through EncodeNDJSON/ParseNDJSON is the identity (tested,
// fuzzed).
func ParseNDJSON(r io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	d := &Dump{}
	rings := make(map[string]int)
	lineNo := 0
	for sc.Scan() {
		line := sc.Bytes()
		lineNo++
		if len(line) == 0 {
			continue
		}
		var l ndLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %v", lineNo, err)
		}
		switch {
		case l.V != nil:
			if lineNo != 1 {
				return nil, fmt.Errorf("telemetry: line %d: version header not first", lineNo)
			}
			if *l.V != 1 {
				return nil, fmt.Errorf("telemetry: unsupported version %d", *l.V)
			}
			d.V = *l.V
			d.States = l.States
			if d.States == nil {
				d.States = []string{}
			}
		case l.Ring != "":
			if d.V == 0 {
				return nil, fmt.Errorf("telemetry: line %d: ring header before version header", lineNo)
			}
			if _, dup := rings[l.Ring]; dup {
				return nil, fmt.Errorf("telemetry: line %d: duplicate ring %q", lineNo, l.Ring)
			}
			if l.RKind != "flow" && l.RKind != "port" {
				return nil, fmt.Errorf("telemetry: line %d: ring %q has unknown kind %q", lineNo, l.Ring, l.RKind)
			}
			if l.Cap < 0 || l.Dropped > l.Total {
				return nil, fmt.Errorf("telemetry: line %d: ring %q has inconsistent counters", lineNo, l.Ring)
			}
			rings[l.Ring] = len(d.Rings)
			d.Rings = append(d.Rings, RingDump{
				Name:    l.Ring,
				Kind:    l.RKind,
				Label:   l.Label,
				Cap:     l.Cap,
				SampleN: l.SampleN,
				Total:   l.Total,
				Dropped: l.Dropped,
				Events:  []Event{},
			})
		case l.R != "":
			idx, ok := rings[l.R]
			if !ok {
				return nil, fmt.Errorf("telemetry: line %d: event for undeclared ring %q", lineNo, l.R)
			}
			k, ok := kindByName[l.Ev]
			if !ok {
				return nil, fmt.Errorf("telemetry: line %d: unknown event kind %q", lineNo, l.Ev)
			}
			var aux Aux
			if l.Aux != "" {
				if aux, ok = auxByName[l.Aux]; !ok {
					return nil, fmt.Errorf("telemetry: line %d: unknown aux %q", lineNo, l.Aux)
				}
			}
			rd := &d.Rings[idx]
			if uint64(len(rd.Events)) >= rd.Total {
				return nil, fmt.Errorf("telemetry: line %d: ring %q has more events than its total", lineNo, l.R)
			}
			rd.Events = append(rd.Events, Event{At: l.T, Flow: l.Flow, Kind: k, Aux: aux, A: l.A, B: l.B})
		default:
			return nil, fmt.Errorf("telemetry: line %d: unrecognized line shape", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %v", err)
	}
	if d.V == 0 {
		return nil, fmt.Errorf("telemetry: missing version header")
	}
	return d, nil
}

// TailNDJSON renders the trailing n events of every ring as NDJSON — the
// flight-recorder window the auditor embeds in a Violation. n <= 0 uses the
// tracer's FlightTail option.
func (t *Tracer) TailNDJSON(n int) string {
	if n <= 0 {
		n = t.opt.FlightTail
	}
	var sb strings.Builder
	// Encoding to a strings.Builder cannot fail.
	_ = EncodeNDJSON(&sb, t.dump(n))
	return sb.String()
}
