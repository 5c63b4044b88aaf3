package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// decodeOptions reads one POST /sweep body. The wire form is
// core.Options' own JSON form, so enumerations are spelled as the CLIs
// spell them and resolve through the same parsers the flags use; a hook
// (Options.Profiler) has no wire form. Unknown fields are rejected rather
// than ignored: a typo'd knob silently falling back to its default would
// cache and serve numbers the client did not ask for. For the same reason
// the body is exactly one object: anything but whitespace after it is
// rejected, not dropped.
func decodeOptions(body io.Reader) (core.Options, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var opts core.Options
	if err := dec.Decode(&opts); err != nil {
		return core.Options{}, fmt.Errorf("serve: bad request body: %w", err)
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return core.Options{}, fmt.Errorf("serve: bad request body: trailing data after the request object")
	}
	if opts.Benchmark == "" {
		return core.Options{}, fmt.Errorf("serve: \"benchmark\" is required")
	}
	return opts, nil
}

// benchmarkInfo is one row of GET /benchmarks: the registry metadata a
// tuning client needs to enumerate the workload space.
type benchmarkInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Columns  string `json:"columns"`
	MinRanks int    `json:"min_ranks,omitempty"`
	// Collective names the runtime collective with selectable algorithms,
	// if the workload has one — the axis an auto-tuner sweeps.
	Collective string `json:"collective,omitempty"`
}

// listBenchmarks renders the benchmark registry for GET /benchmarks.
func listBenchmarks() []benchmarkInfo {
	var out []benchmarkInfo
	for _, b := range core.Benchmarks() {
		info := benchmarkInfo{
			Name:    string(b),
			Kind:    kindName(b.Kind()),
			Columns: columnsName(b.Columns()),
		}
		if spec, err := core.LookupBenchmark(string(b)); err == nil {
			info.MinRanks = spec.MinRanks
		}
		if coll, ok := b.Collective(); ok {
			info.Collective = string(coll)
		}
		out = append(out, info)
	}
	return out
}

func kindName(k core.Kind) string {
	switch k {
	case core.KindPtPt:
		return "pt2pt"
	case core.KindCollective:
		return "collective"
	case core.KindVector:
		return "vector"
	case core.KindOverlap:
		return "overlap"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

func columnsName(c core.Columns) string {
	switch c {
	case core.ColumnsLatency:
		return "latency"
	case core.ColumnsBandwidth:
		return "bandwidth"
	case core.ColumnsOverlap:
		return "overlap"
	case core.ColumnsMessageRate:
		return "message_rate"
	default:
		return fmt.Sprintf("columns(%d)", int(c))
	}
}
