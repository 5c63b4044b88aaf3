// Package fixture keeps the keyed reference answers tests check against:
// one JSON object per file, one value per named case. A test decodes the
// recorded value for each case and compares it with what it computed; run
// with its package's update flag, it records the computed values instead.
// Files are written one case per line in key order, so a change to a
// reference answer reads as a line diff.
package fixture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// Answers is one file of recorded answers.
type Answers struct {
	path   string
	update bool
	cases  map[string]json.RawMessage
}

// Open loads the answers at path. With update set it starts empty instead
// and writes every recorded case to path when the test ends.
func Open(t testing.TB, path string, update bool) *Answers {
	t.Helper()
	a := &Answers{path: path, update: update, cases: map[string]json.RawMessage{}}
	if update {
		t.Cleanup(func() { a.save(t) })
		return a
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reference answers: %v", err)
	}
	if err := json.Unmarshal(data, &a.cases); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return a
}

// Check decodes the recorded answer for key into want and reports true, so
// the caller compares got with it. With update set it records got instead
// (the first call for a key wins) and reports false.
func (a *Answers) Check(t testing.TB, key string, got, want any) bool {
	t.Helper()
	if a.update {
		if _, ok := a.cases[key]; !ok {
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			a.cases[key] = b
		}
		return false
	}
	raw, ok := a.cases[key]
	if !ok {
		t.Fatalf("%s has no answer for %q", a.path, key)
	}
	if err := json.Unmarshal(raw, want); err != nil {
		t.Fatalf("%s %q: %v", a.path, key, err)
	}
	return true
}

// save writes the cases sorted by key, one per line.
func (a *Answers) save(t testing.TB) {
	keys := make([]string, 0, len(a.cases))
	for k := range a.cases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		name, _ := json.Marshal(k)
		fmt.Fprintf(&b, "%s: %s", name, a.cases[k])
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(a.path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a.path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
