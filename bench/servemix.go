package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
)

// sweepBody is the subset of the POST /sweep request the mix uses.
type sweepBody struct {
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode"`
	Buffer    string `json:"buffer,omitempty"`
	Ranks     int    `json:"ranks,omitempty"`
	PPN       int    `json:"ppn,omitempty"`
	Iters     int    `json:"iters,omitempty"`
	MaxSize   int    `json:"max_size"`
}

const (
	// Each cold configuration is written once, at the end of a block of
	// serveBlock requests whose others are hot reads: the 7:1 mix.
	serveBlock = 8
	serveHot   = 8
)

// serveMixInputs draws the hot set and the sequence of hot reads. The hot
// pool is 16 py latency sweeps to 8 KiB that differ only in buffer
// library and iteration count (100-107), so every draw costs the same and
// answers with a body of the same size. The 16 cold writes come in the
// same order and at the same positions for every seed: they cost
// 10-200 ms each, and a seed-drawn order spread the peak RSS of runs of
// different seeds by 14%.
func serveMixInputs(seed uint64) input {
	g := newRNG(seed, "serve_mix")
	var hotPool []sweepBody
	for _, buf := range []string{"numpy", "bytearray"} {
		for iters := 100; iters < 108; iters++ {
			hotPool = append(hotPool, sweepBody{Benchmark: "latency", Mode: "py", Buffer: buf, Iters: iters, MaxSize: 8 << 10})
		}
	}
	shuffle(g, hotPool)
	hot := hotPool[:serveHot]

	var cold []sweepBody
	for _, bench := range []string{"allreduce", "allgather", "bcast", "reduce"} {
		for _, ranks := range []int{8, 16} {
			cold = append(cold,
				sweepBody{Benchmark: bench, Mode: "c", Ranks: ranks, PPN: 4, MaxSize: 16 << 10},
				// py-mode reducing collectives need an explicit numpy buffer:
				// core's default buffer is a bytearray, which cannot reduce.
				sweepBody{Benchmark: bench, Mode: "py", Buffer: "numpy", Ranks: ranks, PPN: 4, MaxSize: 16 << 10})
		}
	}

	in := input{Workload: "serve_mix"}
	for _, c := range cold {
		for j := 1; j < serveBlock; j++ {
			in.Requests = append(in.Requests, mustJSON(hot[g.intn(len(hot))]))
		}
		in.Requests = append(in.Requests, mustJSON(c))
	}
	return in
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are encoded here
	}
	return string(b)
}

// runServeMix serves the tuning service on a loopback listener and drives
// it from one closed-loop client, which sends each request when the
// previous answer has arrived. Set-up ends when /readyz answers 200. An
// op is one request; it fails on a non-200 answer or when a cached answer
// is not byte-identical to the first answer to the same request.
func runServeMix(in *input, r *rec) error {
	svc := serve.NewServer(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{}}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		client.CloseIdleConnections()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	if err := awaitReady(client, base); err != nil {
		return err
	}
	if err := r.start(); err != nil {
		return err
	}

	first := map[string][]byte{}
	var hitMs, missMs []float64
	for _, req := range in.Requests {
		begin := time.Now()
		body, cache, err := postSweep(client, base, req)
		ms := float64(time.Since(begin).Nanoseconds()) / 1e6
		if err == nil {
			if prev, ok := first[req]; !ok {
				first[req] = body
			} else if !bytes.Equal(prev, body) {
				err = fmt.Errorf("%s answer differs from the first answer to %s", cache, req)
			}
		}
		switch cache {
		case "hit":
			hitMs = append(hitMs, ms)
		case "miss":
			missMs = append(missMs, ms)
		}
		r.op("request", cache, 1, begin, err)
	}
	r.stop()

	for req, body := range first {
		r.output(req, body)
	}
	snap := svc.Snapshot()
	if answered := snap.CacheHits + snap.CacheMisses + snap.Coalesced; answered > 0 {
		r.set("serve.hit_ratio", float64(snap.CacheHits)/float64(answered))
	}
	if len(hitMs) > 0 {
		r.set("serve.hit_p50_ms", nearestRank(hitMs, 50))
	}
	if len(missMs) > 0 {
		r.set("serve.miss_p50_ms", nearestRank(missMs, 50))
	}
	return nil
}

// awaitReady polls /readyz until it answers 200.
func awaitReady(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("tuning service never answered /readyz with 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// postSweep sends one request and returns the answer body and its X-Cache
// outcome.
func postSweep(client *http.Client, base, body string) ([]byte, string, error) {
	resp, err := client.Post(base+"/sweep", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, "error", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	cache := resp.Header.Get("X-Cache")
	if err != nil {
		return nil, cache, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, cache, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, cache, nil
}
