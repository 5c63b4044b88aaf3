package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// digestOutputs hashes a repetition's outputs in key order, so a seed's
// permutation of the work does not change the digest. Each key and value
// is length-prefixed, so no two output sets share an encoding.
func digestOutputs(outputs map[string][]byte) string {
	keys := make([]string, 0, len(outputs))
	for k := range outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var n [8]byte
	for _, k := range keys {
		for _, b := range [][]byte{[]byte(k), outputs[k]} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
			h.Write(n[:])
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestsJSON holds the output digests recorded at the seed commit, by
// workload and then by seed.
//
//go:embed testdata/digests.json
var digestsJSON []byte

func knownDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return d, nil
}

// digestCheck decides which digest every repetition of (workload, seed)
// must produce: the recorded one when there is one, otherwise whatever
// the first repetition produced.
type digestCheck struct {
	want     string
	recorded bool
}

func newDigestCheck(known map[string]map[string]string, workload string, seed uint64) digestCheck {
	want, ok := known[workload][strconv.FormatUint(seed, 10)]
	return digestCheck{want: want, recorded: ok}
}

// verify reports whether one repetition's digest is correct.
func (c *digestCheck) verify(got string) error {
	if c.want == "" {
		c.want = got
		return nil
	}
	if got != c.want {
		src := "the first repetition"
		if c.recorded {
			src = "testdata/digests.json"
		}
		return fmt.Errorf("output digest %.16s differs from %.16s recorded by %s", got, c.want, src)
	}
	return nil
}
