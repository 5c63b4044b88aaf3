package main

import (
	"path"
	"strings"
)

// modulePath is the import path of the repository's Go module.
const modulePath = "repro"

// layerNames are the layers the traced run attributes CPU to, in report
// order: the repository's modules, then the Go runtime.
var layerNames = []string{
	"experiments", "core", "mpi4py", "pickle",
	"mpi.p2p", "mpi.sched", "mpi.datatype", "mpi.eventloop", "mpi.fold", "mpi.world",
	"netmodel", "serve", "tune", "bench", "go.gc", "go.other",
}

// layerRules maps source files, as slash paths from the repository root,
// to layers. Packages that belong to one layer are mapped by directory;
// internal/mpi is split across six layers, so each of its files is named.
// Every non-test .go file under internal/ and cmd/ matches exactly one
// pattern (TestLayerRulesCoverRepository), so a new mpi file or a new
// package fails that test until it is placed here.
var layerRules = []struct {
	layer    string
	patterns []string
}{
	{"experiments", []string{"internal/experiments/*.go", "cmd/ombrepro/*.go"}},
	{"core", []string{"internal/core/*.go", "internal/stats/*.go", "cmd/ombpy/*.go"}},
	{"mpi4py", []string{"internal/mpi4py/*.go", "internal/pybuf/*.go", "internal/device/*.go"}},
	{"pickle", []string{"internal/pickle/*.go"}},
	{"mpi.p2p", []string{"internal/mpi/mailbox.go", "internal/mpi/p2p.go", "internal/mpi/nonblocking.go"}},
	{"mpi.sched", []string{
		"internal/mpi/collsched.go", "internal/mpi/sched.go", "internal/mpi/coll_*.go",
		"internal/mpi/registry.go", "internal/mpi/tuning.go", "internal/mpi/policyjson.go",
		"internal/collective/*.go",
	}},
	{"mpi.datatype", []string{"internal/mpi/datatype.go"}},
	{"mpi.eventloop", []string{
		"internal/mpi/event.go", "internal/mpi/eventsched.go", "internal/mpi/coropool.go", "internal/mpi/cancel.go",
	}},
	{"mpi.fold", []string{"internal/mpi/fold.go", "internal/mpi/schedfold.go"}},
	{"mpi.world", []string{
		"internal/mpi/mpi.go", "internal/mpi/comm.go", "internal/mpi/fault.go", "internal/mpi/pool.go",
		"internal/mpi/scratch.go", "internal/mpi/slabpool.go", "internal/mpi/trace.go",
		"internal/faults/*.go",
	}},
	{"netmodel", []string{"internal/netmodel/*.go", "internal/topology/*.go", "internal/vtime/*.go"}},
	{"serve", []string{"internal/serve/*.go", "cmd/ombserve/*.go"}},
	{"tune", []string{"internal/tune/*.go", "cmd/ombtune/*.go"}},
	{"bench", []string{"bench/*.go"}},
}

// layerOfFile returns the layer of a repository source file, or "" when no
// rule matches it.
func layerOfFile(file string) string {
	for _, r := range layerRules {
		for _, p := range r.patterns {
			if ok, _ := path.Match(p, file); ok {
				return r.layer
			}
		}
	}
	return ""
}

// repoFile returns the repository path of the source file a frame runs in,
// and whether the frame belongs to this repository. It works from the
// function's package path, so it does not depend on where the checkout
// lives or on -trimpath. The benchmark itself is package main.
func repoFile(fn, file string) (string, bool) {
	pkg := funcPackage(fn)
	switch {
	case pkg == "main":
		return "bench/" + path.Base(file), true
	case strings.HasPrefix(pkg, modulePath+"/"):
		return strings.TrimPrefix(pkg, modulePath+"/") + "/" + path.Base(file), true
	}
	return "", false
}

// funcPackage extracts the package path from a symbol name such as
// "repro/internal/mpi.(*mailbox).deliver".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may contain paths
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// stackLayer attributes one profile sample, frames ordered leaf first, to
// a layer: the innermost frame in this repository decides, so time in
// runtime helpers such as memmove counts toward the repository code that
// called them. A stack with no repository frame goes to serve when it runs
// through the net/http server, to bench when it runs through the net/http
// client, to go.gc under a GC worker, and to go.other otherwise.
func stackLayer(frames []frame) string {
	for _, f := range frames {
		if file, ok := repoFile(f.fn, f.file); ok {
			if l := layerOfFile(file); l != "" {
				return l
			}
			return "go.other"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f.fn, "net/http.(*conn)."), strings.HasPrefix(f.fn, "net/http.(*Server)."):
			return "serve"
		case strings.HasPrefix(f.fn, "net/http.(*persistConn)."), strings.HasPrefix(f.fn, "net/http.(*Transport)."),
			strings.HasPrefix(f.fn, "net/http.(*Client)."):
			return "bench"
		case f.fn == "runtime.gcBgMarkWorker", f.fn == "runtime.bgsweep", f.fn == "runtime.bgscavenge":
			return "go.gc"
		}
	}
	return "go.other"
}
