package clause

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// item is a toy spec: JSON-decodable, and built from "add" clauses.
type item struct {
	Names []string      `json:"names"`
	Wait  time.Duration `json:"wait_ns,omitempty"`
	Ratio float64       `json:"ratio,omitempty"`
	Count int           `json:"count,omitempty"`
}

func applyItem(v *item, name string, a *Args) error {
	switch name {
	case "add":
		v.Names = append(v.Names, a.String("as", "x"))
		v.Wait = a.Dur("wait", v.Wait)
		v.Ratio = a.Float("ratio", v.Ratio)
		v.Count = a.Int("count", v.Count)
		if a.Has("ok") {
			Get(a, "ok", false, func(s string) (bool, error) {
				if s != "yes" {
					return false, fmt.Errorf("not yes")
				}
				return true, nil
			})
		}
	case "bare":
		if a.Len() > 0 {
			return fmt.Errorf("preset %q takes no arguments", name)
		}
		v.Names = append(v.Names, "bare")
	default:
		return fmt.Errorf("unknown preset %q", name)
	}
	return nil
}

func parse(spec string) (*item, error) { return Parse("toy", spec, applyItem) }

func TestParseForms(t *testing.T) {
	const js = `{"names":["a","b"],"wait_ns":1000,"count":3}`
	want := &item{Names: []string{"a", "b"}, Wait: time.Microsecond, Count: 3}
	path := filepath.Join(t.TempDir(), "item.json")
	if err := os.WriteFile(path, []byte(js+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec string
		want *item
	}{
		{"", nil},
		{"  \t", nil},
		{js, want},
		{"  " + js + "  ", want},
		{"@" + path, want},
		{"add", &item{Names: []string{"x"}}},
		{"add:", &item{Names: []string{"x"}}},
		{" add : as = y , wait=2ms,ratio=0.5,count=7,ok=yes ",
			&item{Names: []string{"y"}, Wait: 2 * time.Millisecond, Ratio: 0.5, Count: 7}},
		{"add:as=a+bare+add:as=c,count=2",
			&item{Names: []string{"a", "bare", "c"}, Count: 2}},
	}
	for _, c := range cases {
		got, err := parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseRefusals(t *testing.T) {
	cases := []struct{ spec, want string }{
		// Strict JSON: unknown fields and trailing data are refused.
		{`{"name":["a"]}`, `toy: parse spec JSON: json: unknown field "name"`},
		{`{"names":["a"]} x`, "toy: parse spec JSON: trailing data"},
		{`{"names":["a"]}{}`, "toy: parse spec JSON: trailing data"},
		{`{"names":`, "toy: parse spec JSON"},
		{"@/nonexistent/item.json", "toy: read spec"},
		// Clauses.
		{"add:as=a,as=b", `toy: add: repeated key "as"`},
		{"add:wait=1s,wait=1s", `toy: add: repeated key "wait"`},
		{"add:as=a,colour=red", `toy: add: unknown key "colour"`},
		{"add:as", `toy: bad preset argument "as" (want key=value)`},
		{"add:as=a,", `toy: bad preset argument "" (want key=value)`},
		{"add+", "toy: empty preset clause"},
		{"+add", "toy: empty preset clause"},
		{"add+ +add", "toy: empty preset clause"},
		{"nope", `toy: unknown preset "nope"`},
		{"bare:k=v", `toy: preset "bare" takes no arguments`},
		{"add:wait=soon", "toy: add: bad wait: time: invalid duration"},
		{"add:count=2.5", "toy: add: bad count"},
		{"add:ratio=half", "toy: add: bad ratio"},
		{"add:ok=no", "toy: add: bad ok: not yes"},
		// A conversion failure wins over a later unknown key.
		{"add:frob=1,count=x", "toy: add: bad count"},
	}
	for _, c := range cases {
		got, err := parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q) = %+v, want error containing %q", c.spec, got, c.want)
			continue
		}
		if got != nil {
			t.Errorf("Parse(%q) returned both %+v and %v", c.spec, got, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.spec, err, c.want)
		}
	}
}
