package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
)

// sweepRequest is the wire form of one benchmark configuration: the JSON
// body of POST /sweep. It mirrors core.Options field for field but spells
// enumerations as strings (mode "py", dtype "float32", ...) so clients
// write what they would pass the CLIs, and every name resolves through the
// same parsers the flags use. Hook fields (Options.Profiler) have no wire
// form on purpose: a callback cannot travel over JSON, and the service's
// cache key must cover everything that shapes the result.
type sweepRequest struct {
	Benchmark      string            `json:"benchmark"`
	Cluster        string            `json:"cluster,omitempty"`
	Impl           string            `json:"impl,omitempty"`
	Mode           string            `json:"mode,omitempty"`
	Buffer         string            `json:"buffer,omitempty"`
	GPU            bool              `json:"gpu,omitempty"`
	Ranks          int               `json:"ranks,omitempty"`
	PPN            int               `json:"ppn,omitempty"`
	MinSize        int               `json:"min_size,omitempty"`
	MaxSize        int               `json:"max_size,omitempty"`
	Iters          int               `json:"iters,omitempty"`
	Warmup         int               `json:"warmup,omitempty"`
	LargeThreshold int               `json:"large_threshold,omitempty"`
	LargeIters     int               `json:"large_iters,omitempty"`
	LargeWarmup    int               `json:"large_warmup,omitempty"`
	Window         int               `json:"window,omitempty"`
	Pairs          int               `json:"pairs,omitempty"`
	TimingOnly     bool              `json:"timing_only,omitempty"`
	NoFold         bool              `json:"no_fold,omitempty"`
	Sizes          []int             `json:"sizes,omitempty"`
	DType          string            `json:"dtype,omitempty"`
	Tuning         tuningJSON        `json:"tuning,omitempty"`
	Algorithms     map[string]string `json:"algorithms,omitempty"`
	Faults         string            `json:"faults,omitempty"`
}

// tuningJSON is the wire form of mpi.Tuning (threshold overrides; zero
// fields keep the runtime defaults).
type tuningJSON struct {
	BcastScatterRingMin      int `json:"bcast_scatter_ring_min,omitempty"`
	AllreduceRabenseifnerMin int `json:"allreduce_rabenseifner_min,omitempty"`
	AllgatherRDMaxTotal      int `json:"allgather_rd_max_total,omitempty"`
	AllgatherBruckMaxTotal   int `json:"allgather_bruck_max_total,omitempty"`
	AlltoallBruckMaxBlock    int `json:"alltoall_bruck_max_block,omitempty"`
}

// decodeOptions reads one sweepRequest from the body and resolves it into
// core options. Unknown fields are rejected rather than ignored: a typo'd
// knob silently falling back to its default would cache and serve numbers
// the client did not ask for. For the same reason the body is exactly one
// object: anything but whitespace after it is rejected, not dropped.
func decodeOptions(body io.Reader) (core.Options, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req sweepRequest
	if err := dec.Decode(&req); err != nil {
		return core.Options{}, fmt.Errorf("serve: bad request body: %w", err)
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return core.Options{}, fmt.Errorf("serve: bad request body: trailing data after the request object")
	}
	return req.options()
}

// options maps the wire form onto core.Options, resolving every
// enumeration through the same parser its CLI flag uses.
func (req sweepRequest) options() (core.Options, error) {
	opts := core.Options{
		Benchmark:      core.Benchmark(req.Benchmark),
		Cluster:        req.Cluster,
		UseGPU:         req.GPU,
		Ranks:          req.Ranks,
		PPN:            req.PPN,
		MinSize:        req.MinSize,
		MaxSize:        req.MaxSize,
		Iters:          req.Iters,
		Warmup:         req.Warmup,
		LargeThreshold: req.LargeThreshold,
		LargeIters:     req.LargeIters,
		LargeWarmup:    req.LargeWarmup,
		Window:         req.Window,
		Pairs:          req.Pairs,
		TimingOnly:     req.TimingOnly,
		NoFold:         req.NoFold,
		Sizes:          req.Sizes,
		Algorithms:     req.Algorithms,
		Faults:         req.Faults,
		Tuning: mpi.Tuning{
			BcastScatterRingMin:      req.Tuning.BcastScatterRingMin,
			AllreduceRabenseifnerMin: req.Tuning.AllreduceRabenseifnerMin,
			AllgatherRDMaxTotal:      req.Tuning.AllgatherRDMaxTotal,
			AllgatherBruckMaxTotal:   req.Tuning.AllgatherBruckMaxTotal,
			AlltoallBruckMaxBlock:    req.Tuning.AlltoallBruckMaxBlock,
		},
	}
	if req.Benchmark == "" {
		return core.Options{}, fmt.Errorf("serve: \"benchmark\" is required")
	}
	opts.Impl = netmodel.Impl(req.Impl)
	if req.Mode != "" {
		m, err := core.ParseMode(req.Mode)
		if err != nil {
			return core.Options{}, err
		}
		opts.Mode = m
	}
	if req.Buffer != "" {
		l, err := pybuf.ParseLibrary(req.Buffer)
		if err != nil {
			return core.Options{}, err
		}
		opts.Buffer = l
	}
	if req.DType != "" {
		d, err := mpi.ParseDType(req.DType)
		if err != nil {
			return core.Options{}, err
		}
		opts.DType = d
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
