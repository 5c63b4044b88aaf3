package faults

import (
	"math"
	"reflect"
	"testing"
)

// FuzzParseFaults feeds arbitrary specs to Parse. An accepted spec must
// render (String) to a spec that parses back to an equal plan, and every
// number in the plan must be finite: a NaN or infinite duration runs to
// NaN latencies, which no report can encode. The committed corpus
// (testdata/fuzz/FuzzParseFaults) holds the non-finite specs.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"kill:rank=3,after=2:allreduce; noise:sigma=5us; jitter:link=0.1; seed:42",
		"kill:rank=0,at=1.5ms",
		"kill:rank=2; kill:rank=1,after=4:barrier",
		"noise:sigma=2",
		" ; ; ",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p == nil {
			return
		}
		finite := func(what string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q) accepted a non-finite %s: %v", spec, what, v)
			}
		}
		finite("noise sigma", p.NoiseSigma)
		finite("jitter", p.Jitter)
		for _, k := range p.Kills {
			finite("kill time", k.At)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which fails to parse: %v", spec, p.String(), err)
		}
		if q == nil {
			q = &Plan{Seed: defaultSeed}
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses to %+v", spec, *p, p.String(), *q)
		}
	})
}
