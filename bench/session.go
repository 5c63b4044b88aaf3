package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

const (
	// minRounds is the fewest repetitions per workload a run makes, however
	// long they take.
	minRounds = 3
	// On a slow host, no round starts later than lastRoundStart after the
	// time budget, and children still running sessionLimit after it are
	// killed, so a one-workload run of 25 s ends within three minutes.
	lastRoundStart = 75 * time.Second
	sessionLimit   = 145 * time.Second
)

// repOutcome is one child repetition as the parent measured it.
type repOutcome struct {
	traced    bool
	setupS    float64 // exec to the ready line
	rssMB     float64 // peak resident set of the child
	hostRefMs float64 // the host reference loop just before the child
	res       childResult
}

// workloadRun is one workload's share of a session.
type workloadRun struct {
	w         *workload
	seed      uint64
	input     []byte
	check     digestCheck
	digest    string // of the first repetition
	reps      []repOutcome
	attempted int
	failed    int
	problems  []string
}

// runSession measures the given workloads for seconds each. Round r runs
// every workload once, starting at workload r mod n, so slow host phases
// spread over all workloads; with trace, each untraced repetition is
// followed by a traced one. Rounds continue while the next one is
// expected to end inside the time budget.
func runSession(ws []*workload, seed uint64, seconds int, trace bool) ([]*workloadRun, error) {
	known, err := knownDigests()
	if err != nil {
		return nil, err
	}
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		in, err := json.Marshal(w.inputs(seed))
		if err != nil {
			return nil, err
		}
		runs[i] = &workloadRun{w: w, seed: seed, input: in, check: newDigestCheck(known, w.name, seed)}
	}
	budget := time.Duration(seconds) * time.Second * time.Duration(len(runs))
	ctx, cancel := context.WithTimeout(context.Background(), budget+sessionLimit)
	defer cancel()
	start := time.Now()
	var rounds []float64
	for round := 0; ; round++ {
		roundStart := time.Now()
		for i := range runs {
			wr := runs[(round+i)%len(runs)]
			wr.rep(ctx, false)
			if trace {
				wr.rep(ctx, true)
			}
		}
		rounds = append(rounds, time.Since(roundStart).Seconds())
		elapsed := time.Since(start)
		next := time.Duration(quartiles(rounds)[1] * float64(time.Second))
		if ctx.Err() != nil || elapsed > budget+lastRoundStart || (round+1 >= minRounds && elapsed+next > budget) {
			break
		}
	}
	return runs, nil
}

// rep runs one repetition and folds its outcome into the run.
func (wr *workloadRun) rep(ctx context.Context, traced bool) {
	ref := hostRefMs()
	traceFile := ""
	if traced {
		traceFile = filepath.Join("bench", "out", "trace-"+wr.w.name+".json")
	}
	out, err := runChild(ctx, wr.input, traceFile)
	if err != nil {
		wr.attempted++
		wr.failed++
		wr.problems = append(wr.problems, err.Error())
		return
	}
	out.traced = traced
	out.hostRefMs = ref
	// The digest comparison is an operation of its own.
	wr.attempted += out.res.Attempted + 1
	wr.failed += out.res.Failed
	wr.problems = append(wr.problems, out.res.Errors...)
	if wr.digest == "" {
		wr.digest = out.res.Digest
	}
	if err := wr.check.verify(out.res.Digest); err != nil {
		wr.failed++
		wr.problems = append(wr.problems, err.Error())
	}
	wr.reps = append(wr.reps, out)
}

// runChild executes one repetition in a fresh process of this binary, on
// one processor. On the 2-core reference host the goroutine engine ran
// paper only ~5% faster on two (2.0 s against 2.1 s) while using 50% more
// CPU, and its run-to-run spread tripled; on one, the benchmark measures
// the work the program does rather than how a shared host schedules two
// threads.
func runChild(ctx context.Context, in []byte, traceFile string) (repOutcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return repOutcome{}, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return repOutcome{}, err
	}
	defer pr.Close()
	cmd := exec.CommandContext(ctx, exe, "child", traceFile)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdin = bytes.NewReader(in)
	// The program's own output must not reach stdout, whose last line is
	// the result.
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{pw}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		pw.Close()
		return repOutcome{}, err
	}
	pw.Close()

	var out repOutcome
	lines := bufio.NewScanner(pr)
	lines.Buffer(nil, 64<<20)
	var protoErr error
	switch {
	case !lines.Scan():
		protoErr = errors.New("child exited before it was ready")
	case lines.Text() != "ready":
		protoErr = fmt.Errorf("child sent %q instead of ready", lines.Text())
	default:
		out.setupS = time.Since(begin).Seconds()
		if !lines.Scan() {
			protoErr = errors.New("child exited without a result")
		} else if err := json.Unmarshal(lines.Bytes(), &out.res); err != nil {
			protoErr = fmt.Errorf("decoding child result: %w", err)
		}
	}
	waitErr := cmd.Wait()
	if ctx.Err() != nil {
		return repOutcome{}, fmt.Errorf("child killed: %w", ctx.Err())
	}
	if waitErr != nil {
		return repOutcome{}, fmt.Errorf("child: %w", waitErr)
	}
	if protoErr != nil {
		return repOutcome{}, protoErr
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out, nil
}

// hostRefBuf is hashed by hostRefMs.
var hostRefBuf = make([]byte, 1<<20)

// hostRefMs times a fixed SHA-256 loop: a reading of the host's speed
// just before a repetition, kept as context. Nothing is normalised by it.
func hostRefMs() float64 {
	begin := time.Now()
	h := sha256.New()
	for i := 0; i < 32; i++ {
		h.Write(hostRefBuf)
	}
	h.Sum(nil)
	return float64(time.Since(begin).Nanoseconds()) / 1e6
}

// workloadReport is one workload's aggregated result.
type workloadReport struct {
	Name            string             `json:"name"`
	Seed            uint64             `json:"seed"`
	Reps            int                `json:"reps"`
	OpsPerRep       int                `json:"ops_per_rep"`
	TracedReps      int                `json:"traced_reps"`
	Attempted       int                `json:"attempted"`
	Failed          int                `json:"failed"`
	Correct         bool               `json:"correct"`
	Digest          string             `json:"digest"`
	DigestCheckedBy string             `json:"digest_checked_by"`
	Problems        []string           `json:"problems,omitempty"`
	EndToEnd        map[string]summary `json:"end_to_end,omitempty"`
	HostRefMs       summary            `json:"host_ref_ms"`
	PerLayer        map[string]float64 `json:"per_layer,omitempty"`
	Samples         int64              `json:"profile_samples,omitempty"`
}

// report aggregates the run: end-to-end metrics over the untraced
// repetitions, per-layer metrics over the traced ones.
func (wr *workloadRun) report() (workloadReport, error) {
	rep := workloadReport{
		Name: wr.w.name, Seed: wr.seed, Attempted: wr.attempted, Failed: wr.failed,
		Correct: wr.failed == 0, Digest: wr.digest, DigestCheckedBy: "first repetition",
	}
	if wr.check.recorded {
		rep.DigestCheckedBy = "testdata/digests.json"
	}
	if len(wr.problems) > 20 {
		rep.Problems = append(wr.problems[:20:20], fmt.Sprintf("... and %d more", len(wr.problems)-20))
	} else {
		rep.Problems = wr.problems
	}
	var setup, wall, rss, p50, p99, refs, tracedWall []float64
	samples := map[string]int64{}
	layer := map[string][]float64{}
	for _, r := range wr.reps {
		refs = append(refs, r.hostRefMs)
		if r.traced {
			rep.TracedReps++
			tracedWall = append(tracedWall, r.res.WallS)
			for l, n := range r.res.Samples {
				samples[l] += n
				rep.Samples += n
			}
			for k, v := range r.res.Layer {
				layer[k] = append(layer[k], v)
			}
			continue
		}
		rep.Reps++
		setup = append(setup, r.setupS)
		wall = append(wall, r.res.WallS)
		rss = append(rss, r.rssMB)
		if len(r.res.OpsMs) > 0 {
			p50 = append(p50, nearestRank(r.res.OpsMs, 50))
			p99 = append(p99, nearestRank(r.res.OpsMs, 99))
			rep.OpsPerRep = len(r.res.OpsMs)
		}
	}
	if rep.Reps == 0 || len(p50) == 0 {
		return rep, fmt.Errorf("%s: no untraced repetition completed", wr.w.name)
	}
	rep.HostRefMs = summarize("ms", refs)
	rep.EndToEnd = map[string]summary{
		"setup_s":     summarize("s", setup),
		"wall_s":      summarize("s", wall),
		"peak_rss_mb": summarize("MB", rss),
		"p50_ms":      summarize("ms", p50),
		"p99_ms":      summarize("ms", p99),
	}
	if rep.TracedReps == 0 {
		return rep, nil
	}
	if rep.Samples == 0 {
		return rep, fmt.Errorf("%s: the traced repetitions recorded no profile samples", wr.w.name)
	}
	rep.PerLayer = map[string]float64{}
	for _, l := range layerNames {
		rep.PerLayer[l+".cpu_share"] = float64(samples[l]) / float64(rep.Samples)
	}
	for k, vs := range layer {
		rep.PerLayer[k] = quartiles(vs)[1]
	}
	rep.PerLayer["host.ref_ms"] = rep.HostRefMs.Median
	rep.PerLayer["trace.overhead"] = quartiles(tracedWall)[1] / rep.EndToEnd["wall_s"].Median
	return rep, nil
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentHost() hostInfo {
	return hostInfo{
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
