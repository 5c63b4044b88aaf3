package mpi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file makes Policy (and placement-indexed tables of policies)
// serializable, so a tuning table produced by the auto-tuner
// (internal/tune) is an artifact someone can ship, diff and load back:
// JSON encode -> decode -> identical selection decisions. The wire form
// is explicit -- thresholds are written at their effective values (zero
// means "default" only in the in-memory struct, never on the wire) and
// forced algorithm names are canonicalized and validated on both ends.

// policyWire is the JSON form of Policy.
type policyWire struct {
	Tuning Tuning            `json:"tuning"`
	Forced map[string]string `json:"forced,omitempty"`
}

// MarshalJSON encodes the policy with every threshold at its effective
// value, so the decoded policy makes identical selection decisions even
// if the shipped defaults change between versions. Effective thresholds
// are never zero, so Tuning's omitempty tags drop none of them.
func (p Policy) MarshalJSON() ([]byte, error) {
	w := policyWire{Tuning: p.Tuning.withDefaults()}
	if len(p.Forced) > 0 {
		w.Forced = make(map[string]string, len(p.Forced))
		for coll, name := range p.Forced {
			canon, err := CanonicalAlgorithm(coll, name)
			if err != nil {
				return nil, err
			}
			w.Forced[string(coll)] = canon
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a policy, rejecting unknown fields, unknown
// collectives and unregistered algorithm names.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var w policyWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("mpi: decoding policy: %w", err)
	}
	out := Policy{Tuning: w.Tuning}
	if len(w.Forced) > 0 {
		out.Forced = make(map[Collective]string, len(w.Forced))
		for collName, algoName := range w.Forced {
			coll, err := ParseCollective(collName)
			if err != nil {
				return err
			}
			canon, err := CanonicalAlgorithm(coll, algoName)
			if err != nil {
				return err
			}
			if _, dup := out.Forced[coll]; dup {
				return fmt.Errorf("mpi: policy forces collective %s twice", coll)
			}
			out.Forced[coll] = canon
		}
	}
	*p = out
	return nil
}

// TuningTableEntry binds one placement (ranks x ppn) to a policy.
type TuningTableEntry struct {
	Ranks  int    `json:"ranks"`
	PPN    int    `json:"ppn"`
	Policy Policy `json:"policy"`
}

// TuningTable is a placement-indexed set of selection policies -- the
// artifact the auto-tuner emits and core.Defaults.TuningTable consumes.
// Entries match on exact (Ranks, PPN); placements not listed keep the
// shipped defaults.
type TuningTable struct {
	// Comment is free-form provenance (generator, seed, date), ignored by
	// Lookup.
	Comment string             `json:"comment,omitempty"`
	Entries []TuningTableEntry `json:"entries"`
}

// Lookup returns the policy for an exact (ranks, ppn) placement.
func (t *TuningTable) Lookup(ranks, ppn int) (Policy, bool) {
	if t == nil {
		return Policy{}, false
	}
	for _, e := range t.Entries {
		if e.Ranks == ranks && e.PPN == ppn {
			return e.Policy, true
		}
	}
	return Policy{}, false
}

// Validate checks the table for ill-formed or duplicate placements.
func (t *TuningTable) Validate() error {
	seen := make(map[[2]int]bool, len(t.Entries))
	for _, e := range t.Entries {
		if e.Ranks < 2 {
			return fmt.Errorf("mpi: tuning table entry has %d ranks (need >= 2)", e.Ranks)
		}
		if e.PPN < 1 {
			return fmt.Errorf("mpi: tuning table entry %dx%d has invalid ppn", e.Ranks, e.PPN)
		}
		key := [2]int{e.Ranks, e.PPN}
		if seen[key] {
			return fmt.Errorf("mpi: tuning table lists placement %dx%d twice", e.Ranks, e.PPN)
		}
		seen[key] = true
	}
	return nil
}

// Sort orders entries by (ranks, ppn) so emitted tables are canonical.
func (t *TuningTable) Sort() {
	sort.Slice(t.Entries, func(i, j int) bool {
		if t.Entries[i].Ranks != t.Entries[j].Ranks {
			return t.Entries[i].Ranks < t.Entries[j].Ranks
		}
		return t.Entries[i].PPN < t.Entries[j].PPN
	})
}

// ParseTuningTable decodes and validates a JSON tuning table. The input is
// exactly one table: anything but whitespace after it is an error.
func ParseTuningTable(data []byte) (*TuningTable, error) {
	var t TuningTable
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("mpi: decoding tuning table: %w", err)
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return nil, fmt.Errorf("mpi: decoding tuning table: trailing data after the table")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
