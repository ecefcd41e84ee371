package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

// TestBenchmarkJSONMatchesTables fails when BENCHMARK.json and the name
// tables in spec.go drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bm.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", bm.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bm.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bm.Paths)
	}
	setup := false
	for _, m := range bm.EndToEnd {
		setup = setup || m == (metricSpec{"setup_s", "s", "lower", m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload in both modes at the smoke profile and
// checks what the binary emits against the tables: exactly the listed
// metrics, finite values with units, and every correctness check passing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates traffic and starts servers; skipped in -short mode")
	}
	wantNames := map[int][]string{}
	wantUnit := map[string]string{}
	for _, m := range endToEnd {
		wantNames[0] = append(wantNames[0], m.Name)
		wantUnit[m.Name] = m.Unit
	}
	for _, l := range perLayer {
		wantNames[1] = append(wantNames[1], l.Name)
		wantUnit[l.Name] = l.Unit
	}
	outDir := t.TempDir()
	for _, w := range workloadSpecs {
		for trace := 0; trace <= 1; trace++ {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-seconds", "0", "-workload", w.Name, "-trace", fmt.Sprint(trace), "-outdir", outDir}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s trace %d: last line is not the result object: %v", w.Name, trace, err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Fatalf("%s trace %d: result object lacks a key: %s", w.Name, trace, lines[len(lines)-1])
			}
			if !*got.Correct || *got.Failed != 0 || *got.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, *got.Correct, *got.Attempted, *got.Failed, stdout.String())
			}
			if len(got.Metrics) != len(wantNames[trace]) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(got.Metrics), len(wantNames[trace]))
			}
			for _, name := range wantNames[trace] {
				m, ok := got.Metrics[name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, name)
				case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
					t.Errorf("%s trace %d: metric %s = %v", w.Name, trace, name, *m.Value)
				case m.Unit != wantUnit[name] || !unitRE.MatchString(m.Unit):
					t.Errorf("%s trace %d: metric %s has unit %q, want %q", w.Name, trace, name, m.Unit, wantUnit[name])
				case !nameRE.MatchString(name):
					t.Errorf("metric name %q is outside the contract's alphabet", name)
				case trace == 0 && *m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g, %g; Python gives 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricSpec{"sim_s_per_cpu_s", "1/s", "higher", 0.10}
	lower := metricSpec{"setup_s", "s", "lower", 0.25}
	steady := func(v float64) value { return value{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	for _, c := range []struct {
		m    metricSpec
		a, b value
		want string
	}{
		{higher, steady(100), steady(95), "within"},
		{higher, steady(100), steady(85), "outside"},
		{higher, steady(100), steady(130), "within"},
		{lower, steady(1), steady(1.2), "within"},
		{lower, steady(1), steady(1.3), "outside"},
		{higher, steady(100), value{Value: 85, Q1: 70, Q3: 100, N: 5}, "unresolved"},
	} {
		if _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %g -> %g: verdict %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
