package mpi

import (
	"encoding/json"
	"strings"
	"testing"
)

// selectionGrid spans the decision space the predicates consult: comm
// sizes around the feasibility edges (power of two and not), sizes
// around every shipped threshold.
func selectionGrid() []Selection {
	var grid []Selection
	for _, p := range []int{2, 3, 4, 16, 63, 224, 256} {
		for _, bytes := range []int{4, 512, 1024, 4096, 32768, 131072, 262144, 524288, 1 << 20, 4 << 20} {
			grid = append(grid, Selection{CommSize: p, Bytes: bytes, Elems: bytes / 4})
		}
	}
	return grid
}

// decisions renders every selection decision the policy makes on the
// grid, or the error it returns, as a comparable string.
func decisions(t *testing.T, p Policy) string {
	t.Helper()
	var sb strings.Builder
	for _, coll := range Collectives() {
		for _, sel := range selectionGrid() {
			a, err := p.Select(coll, sel)
			if err != nil {
				sb.WriteString("error: " + err.Error() + "\n")
				continue
			}
			sb.WriteString(string(coll) + "/" + a.Name + "\n")
		}
	}
	return sb.String()
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	policies := map[string]Policy{
		"defaults": {},
		"shifted": {Tuning: Tuning{
			AllreduceRabenseifnerMin: 4096,
			BcastScatterRingMin:      65536,
			AlltoallBruckMaxBlock:    8192,
		}},
		"disabled": {Tuning: Tuning{AllgatherRDMaxTotal: -1, AllgatherBruckMaxTotal: -1}},
		"forced": {
			Tuning: Tuning{AllreduceRabenseifnerMin: 2048},
			Forced: map[Collective]string{CollAllgather: "ring", CollAlltoall: "pairwise"},
		},
		"aliased": {Forced: map[Collective]string{CollAllreduce: "raben"}},
	}
	for name, p := range policies {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			var got Policy
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("decoding %s: %v", data, err)
			}
			if want, have := decisions(t, p), decisions(t, got); want != have {
				t.Errorf("round-tripped policy selects differently\nwant:\n%s\ngot:\n%s", want, have)
			}
			// Encoding is canonical: a second trip is byte-identical.
			again, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(data) {
				t.Errorf("re-encoded policy differs:\n%s\n%s", data, again)
			}
		})
	}
}

// TestPolicyJSONGolden pins the wire form: explicit effective thresholds,
// canonical forced names, stable key names.
func TestPolicyJSONGolden(t *testing.T) {
	p := Policy{
		Tuning: Tuning{AllreduceRabenseifnerMin: 2048},
		Forced: map[Collective]string{CollAllgather: "ring"},
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "tuning": {
    "bcast_scatter_ring_min": 524288,
    "allreduce_rabenseifner_min": 2048,
    "allgather_rd_max_total": 262144,
    "allgather_bruck_max_total": 131072,
    "alltoall_bruck_max_block": 1024
  },
  "forced": {
    "allgather": "ring"
  }
}`
	if string(data) != want {
		t.Errorf("golden policy JSON changed:\n%s\nwant:\n%s", data, want)
	}
}

func TestPolicyJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown field":      `{"tuning":{"bcast_scatter_ring_min":1},"extra":1}`,
		"unknown collective": `{"tuning":{},"forced":{"gather":"ring"}}`,
		"unknown algorithm":  `{"tuning":{},"forced":{"allgather":"hypercube"}}`,
		"wrong type":         `{"tuning":{"bcast_scatter_ring_min":"big"}}`,
	}
	for name, in := range cases {
		var p Policy
		if err := json.Unmarshal([]byte(in), &p); err == nil {
			t.Errorf("%s: decode of %s should fail", name, in)
		}
	}
}

func TestTuningTable(t *testing.T) {
	table := &TuningTable{
		Comment: "test",
		Entries: []TuningTableEntry{
			{Ranks: 224, PPN: 56, Policy: Policy{Forced: map[Collective]string{CollAlltoall: "pairwise"}}},
			{Ranks: 16, PPN: 1, Policy: Policy{Tuning: Tuning{AllreduceRabenseifnerMin: 4096}}},
		},
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	table.Sort()
	if table.Entries[0].Ranks != 16 {
		t.Errorf("Sort should order by ranks, got %d first", table.Entries[0].Ranks)
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseTuningTable(data)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := got.Lookup(16, 1)
	if !ok || p.Tuning.AllreduceRabenseifnerMin != 4096 {
		t.Errorf("Lookup(16,1) = %+v, %v", p, ok)
	}
	if _, ok := got.Lookup(16, 2); ok {
		t.Error("Lookup should miss on unlisted placement")
	}
	if _, ok := got.Lookup(224, 56); !ok {
		t.Error("Lookup(224,56) should hit")
	}

	dup := &TuningTable{Entries: []TuningTableEntry{{Ranks: 16, PPN: 1}, {Ranks: 16, PPN: 1}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate placement should fail validation")
	}
	if _, err := ParseTuningTable([]byte(`{"entries":[{"ranks":1,"ppn":1,"policy":{"tuning":{}}}]}`)); err == nil {
		t.Error("1-rank entry should fail validation")
	}
	if _, err := ParseTuningTable([]byte(`{"entries":[],"surprise":true}`)); err == nil {
		t.Error("unknown table field should be rejected")
	}
}

// TestParseTuningTableRejectsTrailingData pins that a table file holds
// exactly one table: a second table (even an invalid one) or garbage after
// it is an error, trailing whitespace is not.
func TestParseTuningTableRejectsTrailingData(t *testing.T) {
	table := `{"entries":[{"ranks":16,"ppn":1,"policy":{"tuning":{"allreduce_rabenseifner_min":4096}}}]}`
	if _, err := ParseTuningTable([]byte(table + "\n \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	for name, tail := range map[string]string{
		"invalid second table": `{"entries":[{"ranks":1,"ppn":0}]}`,
		"valid second table":   table,
		"garbage":              " trailing garbage",
	} {
		_, err := ParseTuningTable([]byte(table + tail))
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%s: ParseTuningTable answered %v, want a trailing-data error", name, err)
		}
	}
}

// FuzzParseTuningTable checks the table parser on arbitrary input: it
// never panics, and a table it accepts re-marshals and re-parses to
// entries whose policies make the same selection decisions.
func FuzzParseTuningTable(f *testing.F) {
	f.Add([]byte(`{"comment":"c","entries":[{"ranks":224,"ppn":56,"policy":{"tuning":{"alltoall_bruck_max_block":-1},` +
		`"forced":{"alltoall":"pair","reduce-scatter":"rh"}}},{"ranks":16,"ppn":1,"policy":{"tuning":{}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := ParseTuningTable(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(table)
		if err != nil {
			t.Fatalf("accepted table does not marshal: %v", err)
		}
		again, err := ParseTuningTable(out)
		if err != nil {
			t.Fatalf("re-marshalled table does not parse: %v\n%s", err, out)
		}
		if len(again.Entries) != len(table.Entries) {
			t.Fatalf("round trip has %d entries, want %d", len(again.Entries), len(table.Entries))
		}
		for i, e := range table.Entries {
			got := again.Entries[i]
			if got.Ranks != e.Ranks || got.PPN != e.PPN {
				t.Errorf("entry %d: placement %dx%d, want %dx%d", i, got.Ranks, got.PPN, e.Ranks, e.PPN)
			}
			if decisions(t, got.Policy) != decisions(t, e.Policy) {
				t.Errorf("entry %d: round trip changed selection decisions\n%s", i, out)
			}
		}
	})
}
