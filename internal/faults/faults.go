// Package faults describes deterministic fault-injection plans for the
// simulator: rank death (at a virtual time or on the Nth invocation of a
// collective), per-link latency jitter, and OS-noise compute stragglers.
// A Plan is pure data — the mpi runtime interprets it — and every random
// draw comes from a counter-based PRNG keyed on (seed, rank, counter), so
// the same plan produces bit-identical virtual times on every engine, under
// parallel sweeps, and with symmetry folding on or off (faults disable the
// fold fast path deterministically; see mpi's fold gate).
//
// Spec grammar (clauses separated by ';'):
//
//	kill:rank=R[,after=N][:collective]
//	kill:rank=R,at=Tus
//	noise:sigma=Dus
//	jitter:link=F
//	seed:N
//
// A kill clause with after=N lets the rank survive N matching collective
// invocations and kills it on entry to the N+1th; an optional trailing
// collective name ("allreduce", "barrier", ...) restricts which invocations
// count. A kill clause with at=T instead kills the rank at its first
// collective entry with virtual clock >= T microseconds. noise adds a
// seeded compute delay, uniform on [0, 2*sigma) (mean sigma), at every
// collective entry of every rank. jitter stretches every message's wire
// time by a seeded factor uniform on [1, 1+F). Durations accept "us", "ms"
// and "s" suffixes (microseconds when bare); every number must be finite.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kill describes one rank-death rule.
type Kill struct {
	// Rank is the world rank to kill.
	Rank int
	// After is the number of matching collective invocations the rank
	// survives; it dies at entry to the next one. Ignored when At >= 0.
	After int
	// Coll restricts which collective invocations count toward After
	// ("allreduce", "barrier", ...); empty means every collective counts.
	Coll string
	// At, when >= 0, kills the rank at its first collective entry with
	// virtual clock >= At microseconds, instead of counting invocations.
	At float64
}

// Plan is a parsed fault-injection plan. The zero value injects nothing;
// a nil *Plan is the universal "no faults" and every method tolerates it.
type Plan struct {
	// Seed keys every random draw. Two plans differing only in Seed
	// produce different (but individually reproducible) noise and jitter.
	Seed uint64
	// Kills are the rank-death rules, applied independently.
	Kills []Kill
	// NoiseSigma is the mean OS-noise compute delay injected at every
	// collective entry, in virtual microseconds; 0 disables noise.
	NoiseSigma float64
	// Jitter is the fractional wire-time stretch applied per message:
	// each message's wire time is multiplied by 1 + Jitter*u with u
	// uniform on [0, 1). 0 disables jitter.
	Jitter float64
}

// HasKills reports whether the plan can kill a rank (nil-safe).
func (p *Plan) HasKills() bool { return p != nil && len(p.Kills) > 0 }

// Active reports whether the plan injects anything at all (nil-safe).
func (p *Plan) Active() bool {
	return p != nil && (len(p.Kills) > 0 || p.NoiseSigma > 0 || p.Jitter > 0)
}

// String renders the plan back in spec grammar, canonically ordered.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	kills := append([]Kill(nil), p.Kills...)
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].Rank < kills[j].Rank })
	for _, k := range kills {
		var b strings.Builder
		fmt.Fprintf(&b, "kill:rank=%d", k.Rank)
		if k.At >= 0 {
			fmt.Fprintf(&b, ",at=%gus", k.At)
		} else if k.After > 0 {
			fmt.Fprintf(&b, ",after=%d", k.After)
		}
		if k.Coll != "" {
			fmt.Fprintf(&b, ":%s", k.Coll)
		}
		parts = append(parts, b.String())
	}
	if p.NoiseSigma > 0 {
		parts = append(parts, fmt.Sprintf("noise:sigma=%gus", p.NoiseSigma))
	}
	if p.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("jitter:link=%g", p.Jitter))
	}
	if p.Seed != defaultSeed {
		parts = append(parts, fmt.Sprintf("seed:%d", p.Seed))
	}
	return strings.Join(parts, "; ")
}

// defaultSeed keys plans whose spec carries no seed clause.
const defaultSeed = 1

// Parse parses a fault spec string. An empty (or all-whitespace) spec
// returns (nil, nil): no plan installed.
func Parse(spec string) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	p := &Plan{Seed: defaultSeed}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, _ := strings.Cut(clause, ":")
		kind = strings.TrimSpace(strings.ToLower(kind))
		rest = strings.TrimSpace(rest)
		var err error
		switch kind {
		case "kill":
			err = p.parseKill(rest)
		case "noise":
			err = p.parseNoise(rest)
		case "jitter":
			err = p.parseJitter(rest)
		case "seed":
			p.Seed, err = strconv.ParseUint(rest, 10, 64)
			if err != nil {
				err = fmt.Errorf("seed %q is not an unsigned integer", rest)
			}
		default:
			err = fmt.Errorf("unknown clause kind %q (have kill, noise, jitter, seed)", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
	}
	// Kills are kept in String's canonical order, so a plan equals the
	// plan its rendering parses to. Only the order among one rank's rules
	// can change which fires, and the stable sort keeps it.
	sort.SliceStable(p.Kills, func(i, j int) bool { return p.Kills[i].Rank < p.Kills[j].Rank })
	return p, nil
}

// parseKill parses "rank=R[,after=N][:coll]" or "rank=R,at=Tus".
func (p *Plan) parseKill(rest string) error {
	args, coll, _ := strings.Cut(rest, ":")
	k := Kill{Rank: -1, At: -1, Coll: strings.TrimSpace(strings.ToLower(coll))}
	sawAfter := false
	for _, kv := range strings.Split(args, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("%q is not key=value", kv)
		}
		key, val = strings.TrimSpace(strings.ToLower(key)), strings.TrimSpace(val)
		switch key {
		case "rank":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("rank %q must be a non-negative integer", val)
			}
			k.Rank = n
		case "after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("after %q must be a non-negative integer", val)
			}
			k.After, sawAfter = n, true
		case "at":
			t, err := parseDuration(val)
			if err != nil {
				return err
			}
			k.At = t
		default:
			return fmt.Errorf("unknown kill key %q (have rank, after, at)", key)
		}
	}
	if k.Rank < 0 {
		return fmt.Errorf("kill needs rank=R")
	}
	if k.At >= 0 && k.Coll != "" {
		return fmt.Errorf("at=T kills cannot name a collective (they fire on any entry)")
	}
	if k.At >= 0 && sawAfter {
		return fmt.Errorf("at=T kills cannot count invocations with after=N")
	}
	p.Kills = append(p.Kills, k)
	return nil
}

// parseNoise parses "sigma=Dus".
func (p *Plan) parseNoise(rest string) error {
	key, val, ok := strings.Cut(rest, "=")
	if !ok || strings.TrimSpace(strings.ToLower(key)) != "sigma" {
		return fmt.Errorf("noise needs sigma=D, got %q", rest)
	}
	d, err := parseDuration(strings.TrimSpace(val))
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("noise sigma must be positive, got %q", val)
	}
	p.NoiseSigma = d
	return nil
}

// parseJitter parses "link=F".
func (p *Plan) parseJitter(rest string) error {
	key, val, ok := strings.Cut(rest, "=")
	if !ok || strings.TrimSpace(strings.ToLower(key)) != "link" {
		return fmt.Errorf("jitter needs link=F, got %q", rest)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
	if err != nil || !(f >= 0) || math.IsInf(f, 0) {
		return fmt.Errorf("jitter fraction %q must be a finite non-negative number", val)
	}
	p.Jitter = f
	return nil
}

// parseDuration parses a virtual duration into microseconds; bare numbers
// are microseconds.
func parseDuration(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "us"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		s, mult = s[:len(s)-2], 1e3
	case strings.HasSuffix(s, "s"):
		s, mult = s[:len(s)-1], 1e6
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	// The product is checked, not v: a finite value in seconds can
	// overflow once converted to microseconds. !(v >= 0) also catches NaN.
	if v *= mult; err != nil || !(v >= 0) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("duration %q must be a finite non-negative number with an optional us/ms/s suffix", s)
	}
	return v, nil
}

// Uniform draws the (seed, rank, counter) sample as a float64 uniform on
// [0, 1). It is a pure function — no state, no locks — which is what makes
// fault sampling bit-identical across engines and across parallel sweep
// workers: every draw site derives its counter from per-rank operation
// counts that advance identically on both engines. Distinct draw sites use
// disjoint counter streams (high counter bits) so noise and jitter samples
// never collide.
func Uniform(seed, rank, counter uint64) float64 {
	h := mix(seed ^ mix(rank*0x9e3779b97f4a7c15) ^ mix(counter*0xd1342543de82ef95))
	return float64(h>>11) / (1 << 53)
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
